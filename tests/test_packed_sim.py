"""Differential tests: packed engine vs. the uint8 reference engine.

Every behavior of the bit-packed engine — net values, transition masks,
single- and multi-fault propagation — must be *bitwise identical* to the
uint8 reference (``CompiledSimulator(nl, packed=False)``), including when
the pattern count is not a multiple of 64 (tail-word masking).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.atpg import Fault, Polarity, enumerate_faults
from repro.netlist import GeneratorSpec, generate, toy_netlist
from repro.netlist.cells import CellType, packed_eval, packed_expr, cell
from repro.netlist.topology import sort_gates_topologically
from repro.sim import CompiledSimulator, FaultMachine
from repro.sim.bitpack import pack_patterns, unpack_patterns, rows_to_ints, int_to_bits

# Pattern counts straddling word boundaries: tiny, sub-word, exact words,
# and ragged tails.
PATTERN_COUNTS = (1, 37, 64, 100, 130)


def _random_pair(nl, n_patterns, seed):
    rng = np.random.default_rng(seed)
    n_in = len(nl.comb_inputs)
    v1 = rng.integers(0, 2, size=(n_in, n_patterns), dtype=np.uint8)
    v2 = rng.integers(0, 2, size=(n_in, n_patterns), dtype=np.uint8)
    return v1, v2


def _engines(nl):
    return CompiledSimulator(nl, packed=True), CompiledSimulator(nl, packed=False)


@pytest.fixture(scope="module", params=[("aes_like", 3), ("tate_like", 5), ("netcard_like", 9)])
def design(request):
    flavor, seed = request.param
    return generate(GeneratorSpec(f"diff_{flavor}", flavor, 150, 16, 10, 10, seed=seed))


# ----------------------------------------------------------------- bitpack
def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(0)
    for n in PATTERN_COUNTS:
        vals = rng.integers(0, 2, size=(7, n), dtype=np.uint8)
        packed = pack_patterns(vals)
        assert packed.dtype == np.uint64
        assert np.array_equal(unpack_patterns(packed, n), vals)
        # Big-int rows agree bit-for-bit with the word rows.
        for row_int, row in zip(rows_to_ints(packed), vals):
            assert np.array_equal(int_to_bits(row_int, n), row)


# ------------------------------------------------------------- good machine
@pytest.mark.parametrize("n_patterns", PATTERN_COUNTS)
def test_net_values_bitwise_identical(design, n_patterns):
    simP, simU = _engines(design)
    v1, v2 = _random_pair(design, n_patterns, seed=n_patterns)
    assert np.array_equal(simP.simulate(v1), simU.simulate(v1))
    goodP = simP.simulate_pair(v1, v2)
    goodU = simU.simulate_pair(v1, v2)
    assert goodP.is_packed and not goodU.is_packed
    assert np.array_equal(goodP.v1, goodU.v1)
    assert np.array_equal(goodP.v2, goodU.v2)


@pytest.mark.parametrize("n_patterns", (37, 100))
def test_transition_masks_identical(design, n_patterns):
    simP, simU = _engines(design)
    v1, v2 = _random_pair(design, n_patterns, seed=41)
    goodP = simP.simulate_pair(v1, v2)
    goodU = simU.simulate_pair(v1, v2)
    assert np.array_equal(goodP.transitions(), goodU.transitions())
    assert np.array_equal(goodP.rising(), goodU.rising())
    assert np.array_equal(goodP.falling(), goodU.falling())
    # The packed mask words unpack to the boolean masks (tails are zero for
    # transitions since V1/V2 of a net share tail bits).
    assert np.array_equal(
        unpack_patterns(goodP.transitions_packed(), n_patterns).astype(bool),
        goodU.transitions(),
    )


def test_subset_stays_packed_and_identical(design):
    simP, simU = _engines(design)
    v1, v2 = _random_pair(design, 100, seed=8)
    goodP = simP.simulate_pair(v1, v2)
    goodU = simU.simulate_pair(v1, v2)
    cols = np.array([0, 3, 5, 66, 99])
    subP, subU = goodP.subset(cols), goodU.subset(cols)
    assert subP.is_packed and not subU.is_packed
    assert np.array_equal(subP.v1, subU.v1)
    assert np.array_equal(subP.v2, subU.v2)
    # Subsets must propagate identically too.
    fmP, fmU = FaultMachine(simP), FaultMachine(simU)
    for fault in enumerate_faults(design)[:40]:
        assert _same_detections(fmP.propagate(fault, subP), fmU.propagate(fault, subU))


# -------------------------------------------------------------- propagation
def _same_detections(a, b):
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


@pytest.mark.parametrize("n_patterns", PATTERN_COUNTS)
def test_propagate_detection_maps_identical(design, n_patterns):
    simP, simU = _engines(design)
    v1, v2 = _random_pair(design, n_patterns, seed=17)
    goodP = simP.simulate_pair(v1, v2)
    goodU = simU.simulate_pair(v1, v2)
    fmP, fmU = FaultMachine(simP), FaultMachine(simU)
    for fault in enumerate_faults(design):
        dP = fmP.propagate(fault, goodP)
        dU = fmU.propagate(fault, goodU)
        assert _same_detections(dP, dU), f"mismatch for {fault}"
        assert np.array_equal(fmP.detects(fault, goodP), fmU.detects(fault, goodU))


@pytest.mark.parametrize("n_patterns", (37, 128))
def test_propagate_multi_identical(design, n_patterns):
    simP, simU = _engines(design)
    v1, v2 = _random_pair(design, n_patterns, seed=23)
    goodP = simP.simulate_pair(v1, v2)
    goodU = simU.simulate_pair(v1, v2)
    fmP, fmU = FaultMachine(simP), FaultMachine(simU)
    faults = enumerate_faults(design)
    rng = np.random.default_rng(5)
    for _ in range(25):
        k = int(rng.integers(2, 6))
        group = [faults[i] for i in rng.choice(len(faults), size=k, replace=False)]
        assert _same_detections(
            fmP.propagate_multi(group, goodP), fmU.propagate_multi(group, goodU)
        )


def test_codegen_kernel_fallback_for_custom_cell():
    """A cell outside the library exercises the truth-table + kernel path."""
    nl = toy_netlist()
    # Clone NAND2 under a custom name with no hand-written packed kernel:
    # packed_eval must derive it and the cone codegen must call it (no
    # inline template exists for it).
    nand2 = cell("NAND2")
    custom = CellType(name="CUSTOM_NAND2", n_inputs=2, func=nand2.func)
    assert packed_expr(custom, ["a", "b"]) is None
    for g in nl.gates:
        if g.cell.name == "NAND2":
            g.cell = custom
    simP, simU = _engines(nl)
    v1, v2 = _random_pair(nl, 70, seed=2)
    goodP = simP.simulate_pair(v1, v2)
    goodU = simU.simulate_pair(v1, v2)
    assert np.array_equal(goodP.v1, goodU.v1)
    fmP, fmU = FaultMachine(simP), FaultMachine(simU)
    for fault in enumerate_faults(nl):
        assert _same_detections(fmP.propagate(fault, goodP), fmU.propagate(fault, goodU))


def test_derived_packed_kernel_matches_truth_table():
    """Truth-table derivation reproduces every library cell's kernel."""
    import itertools

    from repro.netlist.cells import CELL_LIBRARY, _truth_table_packed

    for ct in CELL_LIBRARY.values():
        derived = _truth_table_packed(ct.func, ct.n_inputs)
        native = packed_eval(ct)
        full = (1 << 8) - 1
        for bits in itertools.product((0, 0xA5, 0x3C, full), repeat=ct.n_inputs):
            assert derived(list(bits), full) & full == native(list(bits), full) & full


# ------------------------------------------------------ caching / topo sort
def test_topo_position_cache_and_invalidation(design):
    pos = design.topo_position()
    order = design.topo_order()
    assert [pos[g] for g in order] == list(range(design.n_gates))
    assert design.topo_position() is pos  # cached
    design.invalidate()
    pos2 = design.topo_position()
    assert pos2 is not pos and pos2 == pos  # recomputed, same content


def test_sort_gates_topologically_matches_order(design):
    rng = np.random.default_rng(11)
    gids = list(rng.choice(design.n_gates, size=30, replace=False))
    ordered = sort_gates_topologically(design, gids)
    pos = design.topo_position()
    assert ordered == sorted(gids, key=pos.__getitem__)
    assert sorted(ordered) == sorted(gids)


def test_cone_and_plan_memoization(design):
    sim = CompiledSimulator(design)
    starts = [g.id for g in design.gates[:3]]
    cone1 = sim.fanout_cone(starts)
    cone2 = sim.fanout_cone(list(reversed(starts)))  # order-insensitive key
    assert cone1 is cone2
    fn1 = sim.propagation_fn(starts)
    fn2 = sim.propagation_fn(tuple(reversed(starts)))
    assert fn1 is fn2
