"""Unit tests for netlist data structures and the builder."""

import pytest

from repro.netlist import NetlistBuilder, generate, GeneratorSpec, toy_netlist
from repro.netlist.netlist import EXTERNAL_DRIVER


def test_toy_shape(toy):
    assert toy.n_gates == 5
    assert toy.n_flops == 1
    assert len(toy.primary_inputs) == 4
    assert len(toy.primary_outputs) == 1


def test_comb_inputs_order(toy):
    assert toy.comb_inputs[: len(toy.primary_inputs)] == toy.primary_inputs
    assert toy.comb_inputs[-1] == toy.flops[0].q_net


def test_observed_nets(toy):
    assert toy.observed_nets == toy.primary_outputs + [toy.flops[0].d_net]


def test_topo_order_respects_dependencies(toy):
    order = toy.topo_order()
    pos = {gid: i for i, gid in enumerate(order)}
    for g in toy.gates:
        for net in g.fanin:
            drv = toy.nets[net].driver
            if drv != EXTERNAL_DRIVER:
                assert pos[drv] < pos[g.id]


def test_topo_order_cached(toy):
    assert toy.topo_order() is toy.topo_order()
    toy.invalidate()
    assert toy.topo_order() == toy.topo_order()


def test_net_levels_monotone(toy):
    levels = toy.net_levels()
    for g in toy.gates:
        for net in g.fanin:
            assert levels[net] < levels[g.out]


def test_copy_is_deep(toy):
    dup = toy.copy()
    dup.gates[0].tier = 1
    dup.nets[0].sinks.append((99, 0))
    assert toy.gates[0].tier == -1
    assert (99, 0) not in toy.nets[0].sinks


def test_stats_keys(toy):
    stats = toy.stats()
    assert stats["gates"] == 5
    assert stats["depth"] >= 2
    assert stats["area"] > 0


def test_net_tier_for_pi_is_bottom(toy):
    assert toy.net_tier(toy.primary_inputs[0]) == 0


def test_net_tier_tracks_flop(toy):
    toy.flops[0].tier = 1
    assert toy.net_tier(toy.flops[0].q_net) == 1


def test_repr(toy):
    assert "toy" in repr(toy)


class TestBuilder:
    def test_duplicate_net_name_rejected(self):
        b = NetlistBuilder("t")
        b.add_primary_input("a")
        with pytest.raises(ValueError, match="duplicate net"):
            b.add_net("a")

    def test_duplicate_gate_name_rejected(self):
        b = NetlistBuilder("t")
        a = b.add_primary_input("a")
        b.add_gate("INV", [a], gate_name="g")
        with pytest.raises(ValueError, match="duplicate gate"):
            b.add_gate("INV", [a], gate_name="g")

    def test_wrong_arity_rejected(self):
        b = NetlistBuilder("t")
        a = b.add_primary_input("a")
        with pytest.raises(ValueError, match="needs 2 inputs"):
            b.add_gate("NAND2", [a])

    def test_unknown_fanin_rejected(self):
        b = NetlistBuilder("t")
        b.add_primary_input("a")
        with pytest.raises(ValueError, match="does not exist"):
            b.add_gate("INV", [42])

    def test_undriven_net_rejected_at_finish(self):
        b = NetlistBuilder("t")
        floating = b.add_net("floating")
        b.add_gate("INV", [floating])
        with pytest.raises(ValueError, match="no driver"):
            b.finish()

    def test_combinational_loop_rejected(self):
        b = NetlistBuilder("t")
        a = b.add_primary_input("a")
        n1 = b.add_net("loop")
        out = b.add_gate("AND2", [a, n1], gate_name="g0")
        # Manually wire the loop: g1 drives n1 from g0's output, g0 reads n1.
        b._nets[n1].driver = len(b._gates)
        from repro.netlist.netlist import Gate
        from repro.netlist.cells import cell

        b._gates.append(Gate(id=1, name="g1", cell=cell("INV"), fanin=[out], out=n1))
        b._gate_by_name["g1"] = 1
        with pytest.raises(ValueError, match="loop"):
            b.finish()

    def test_insert_buffer_rewires_all_sinks(self, toy):
        b = NetlistBuilder.from_netlist(toy)
        target = toy.gates[0].out  # n0 feeds g2
        buf_out = b.insert_buffer_after(target)
        nl = b.finish()
        for g in nl.gates[:5]:
            if g.name == "g2":
                assert buf_out in g.fanin

    def test_insert_buffer_single_sink(self, toy):
        b = NetlistBuilder.from_netlist(toy)
        g3 = next(g for g in toy.gates if g.name == "g3")
        target = g3.fanin[1]  # q0 feeds both g3 and g4
        buf_out = b.insert_buffer_after(target, sink=(g3.id, 1))
        nl = b.finish()
        new_g3 = next(g for g in nl.gates if g.name == "g3")
        new_g4 = next(g for g in nl.gates if g.name == "g4")
        assert new_g3.fanin[1] == buf_out
        assert buf_out not in new_g4.fanin

    def test_add_flop_creates_q_net(self):
        b = NetlistBuilder("t")
        a = b.add_primary_input("a")
        out = b.add_gate("INV", [a])
        q = b.add_flop(out)
        nl = b.finish()
        assert nl.flops[0].q_net == q
        assert nl.flops[0].d_net == out


def test_generate_deterministic(small_spec):
    a = generate(small_spec)
    b = generate(small_spec)
    assert a.n_gates == b.n_gates
    assert [g.cell.name for g in a.gates] == [g.cell.name for g in b.gates]
    assert [g.fanin for g in a.gates] == [g.fanin for g in b.gates]


def test_generate_different_seeds_differ():
    s1 = GeneratorSpec("x", "aes_like", 100, 12, 8, 8, seed=1)
    s2 = GeneratorSpec("x", "aes_like", 100, 12, 8, 8, seed=2)
    a, b = generate(s1), generate(s2)
    assert [g.fanin for g in a.gates] != [g.fanin for g in b.gates]


def test_generate_all_flavors():
    from repro.netlist.generators import FLAVORS

    for flavor in FLAVORS:
        nl = generate(GeneratorSpec("f", flavor, 120, 16, 8, 8, seed=5))
        assert nl.n_gates == 120
        assert nl.n_flops == 16


@pytest.mark.parametrize("n_gates", [1, 16, 24, 31])
def test_generate_rejects_fewer_gates_than_sinks(n_gates):
    """Every flop D pin and primary output needs a gate output of its own."""
    spec = GeneratorSpec("tiny", "aes_like", n_gates, 16, 16, 16, seed=0)
    with pytest.raises(ValueError, match="below n_flops \\+ n_pos = 32"):
        generate(spec)


def test_generate_at_the_sink_bound():
    from repro.netlist.generators import FLAVORS

    for flavor in FLAVORS:
        for seed in range(5):
            nl = generate(GeneratorSpec("edge", flavor, 32, 16, 16, 16, seed=seed))
            assert nl.n_gates == 32


def test_generate_no_dangling(small_netlist):
    from repro.netlist import check

    assert check(small_netlist) == []
