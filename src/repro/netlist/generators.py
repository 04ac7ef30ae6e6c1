"""Synthetic gate-level benchmark generators.

The paper evaluates four designs (AES, Tate, netcard, leon3mp) synthesized
with a commercial flow.  Offline we cannot synthesize the original RTL, so
this module generates deterministic random-logic cores whose *structural
statistics* — gate-type mix, logic depth, fan-out skew, reconvergence, and
flop count — mimic each design's character at roughly 1/100 scale:

* ``aes_like``     — XOR-rich, round-structured datapath (crypto).
* ``tate_like``    — AND/XOR multiplier-tree arithmetic, deeper logic.
* ``netcard_like`` — MUX/AOI control logic, wide and shallow, flop-heavy.
* ``leon3mp_like`` — balanced mixture, the largest core.

Diagnosis behaviour depends on these statistics (cone sizes and overlap, how
candidates distribute over tiers), not on functional semantics, so this is
the substitution documented in DESIGN.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .builder import NetlistBuilder
from .netlist import Netlist

__all__ = ["Flavor", "GeneratorSpec", "generate", "toy_netlist", "FLAVORS"]


@dataclass(frozen=True)
class Flavor:
    """Structural personality of a generated core.

    Attributes:
        gate_mix: (cell name, weight) pairs for random gate selection.
        locality: Probability that a gate input comes from the recent-net
            window rather than anywhere in the existing logic; higher values
            make deeper, narrower logic.
        window: Size of the recent-net window.
    """

    name: str
    gate_mix: Tuple[Tuple[str, float], ...]
    locality: float
    window: int


FLAVORS: Dict[str, Flavor] = {
    "aes_like": Flavor(
        "aes_like",
        (
            ("XOR2", 0.28), ("XNOR2", 0.08), ("NAND2", 0.16), ("NOR2", 0.10),
            ("AND2", 0.10), ("OR2", 0.08), ("INV", 0.10), ("NAND3", 0.05),
            ("AOI21", 0.05),
        ),
        locality=0.70,
        window=64,
    ),
    "tate_like": Flavor(
        "tate_like",
        (
            ("AND2", 0.22), ("XOR2", 0.30), ("XOR3", 0.06), ("NAND2", 0.12),
            ("INV", 0.08), ("OR2", 0.08), ("NAND3", 0.07), ("NOR2", 0.07),
        ),
        locality=0.80,
        window=48,
    ),
    "netcard_like": Flavor(
        "netcard_like",
        (
            ("MUX2", 0.20), ("AOI21", 0.12), ("OAI21", 0.10), ("NAND2", 0.14),
            ("NOR2", 0.12), ("AND2", 0.10), ("OR2", 0.08), ("INV", 0.10),
            ("BUF", 0.04),
        ),
        locality=0.45,
        window=160,
    ),
    "leon3mp_like": Flavor(
        "leon3mp_like",
        (
            ("NAND2", 0.16), ("NOR2", 0.12), ("AND2", 0.10), ("OR2", 0.10),
            ("XOR2", 0.12), ("MUX2", 0.10), ("INV", 0.10), ("AOI21", 0.07),
            ("OAI21", 0.07), ("NAND3", 0.06),
        ),
        locality=0.60,
        window=96,
    ),
}


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one generated design."""

    name: str
    flavor: str
    n_gates: int
    n_flops: int
    n_pis: int
    n_pos: int
    seed: int


#: Gate count at or above which :func:`generate` switches to the
#: linear-time construction.  The classic path is kept verbatim below the
#: threshold so every existing spec (and its golden netlist) is
#: byte-identical; the paper-scale tier (98K–338K gates) would take
#: quadratic time there (set→tuple conversions per pin, full-netlist
#: rewiring scans).
LARGE_GATE_THRESHOLD = 20_000


def generate(spec: GeneratorSpec, rng: Optional[random.Random] = None) -> Netlist:
    """Generate a deterministic netlist from ``spec``.

    The construction guarantees:

    * the core is acyclic (gate inputs come only from already-created nets);
    * every PI and every flop Q net drives at least one gate;
    * every gate output either fans out, feeds a PO, or feeds a flop D pin.

    ``rng`` injects a pre-seeded generator in place of
    ``random.Random(spec.seed)``; the caller owns its state.

    Specs with ``n_gates >= LARGE_GATE_THRESHOLD`` use a linear-time
    construction (:func:`_generate_large`) with the same structural
    guarantees; below the threshold the original algorithm (and therefore
    every previously generated netlist) is unchanged byte-for-byte.

    Raises:
        ValueError: ``n_gates < n_flops + n_pos``; every flop D pin and
            every primary output needs a gate output of its own.
    """
    if spec.n_gates < spec.n_flops + spec.n_pos:
        raise ValueError(
            f"{spec.name}: n_gates={spec.n_gates} is below n_flops + n_pos = "
            f"{spec.n_flops + spec.n_pos}"
        )
    if spec.n_gates >= LARGE_GATE_THRESHOLD:
        return _generate_large(spec, rng)
    flavor = FLAVORS[spec.flavor]
    rng = rng if rng is not None else random.Random(spec.seed)
    b = NetlistBuilder(spec.name)

    pis = [b.add_primary_input(f"pi{i}") for i in range(spec.n_pis)]
    q_nets = [b.add_net(f"q{i}") for i in range(spec.n_flops)]
    inputs = pis + q_nets

    cells, weights = zip(*flavor.gate_mix)
    available: List[int] = list(inputs)
    unconsumed = set(inputs)

    from .cells import cell as _cell

    for i in range(spec.n_gates):
        cname = rng.choices(cells, weights=weights, k=1)[0]
        n_in = _cell(cname).n_inputs
        fanin: List[int] = []
        for _pin in range(n_in):
            # Distinct fanins: duplicated inputs create constant nets
            # (XOR(a,a) = 0) and untestable cones real synthesis would sweep.
            for _attempt in range(8):
                if unconsumed and rng.random() < 0.35:
                    # Bias toward consuming inputs that nothing reads yet so
                    # all PIs/flop outputs end up inside the logic.
                    pick = rng.choice(tuple(unconsumed))
                elif rng.random() < flavor.locality and len(available) > flavor.window:
                    pick = rng.choice(available[-flavor.window:])
                else:
                    pick = rng.choice(available)
                if pick not in fanin:
                    break
            fanin.append(pick)
            unconsumed.discard(pick)
        out = b.add_gate(cname, fanin, gate_name=f"{spec.name}_g{i}")
        available.append(out)
        unconsumed.add(out)

    # Bind flops and POs, preferring nets no gate consumes so nothing dangles.
    dangling = [n for n in available if n in unconsumed and n not in set(inputs)]
    rng.shuffle(dangling)
    n_slots = spec.n_flops + spec.n_pos

    # More dangling outputs than flop/PO slots (small/wide configurations):
    # rewire the surplus into later gates so no logic is dead.  A gate input
    # can absorb a dangling net when its current net keeps another consumer,
    # and acyclicity holds because nets only feed later-created gates.
    if len(dangling) > n_slots:
        consumers = {n: 0 for n in range(len(b._nets))}
        for g in b._gates:
            for n in g.fanin:
                consumers[n] += 1
        surplus = dangling[n_slots:]
        dangling = dangling[:n_slots]
        for d in surplus:
            driver = b._nets[d].driver
            hosts = [g for g in b._gates if g.id > driver and d not in g.fanin]
            rng.shuffle(hosts)
            rewired = False
            for g in hosts:
                for pin, old in enumerate(g.fanin):
                    if consumers[old] >= 2:
                        consumers[old] -= 1
                        consumers[d] = consumers.get(d, 0) + 1
                        g.fanin[pin] = d
                        rewired = True
                        break
                if rewired:
                    break
            if not rewired:
                dangling.append(d)  # give it a flop/PO slot after all

    pool = dangling + [n for n in reversed(available) if n not in set(inputs)]
    seen = set()
    sink_nets: List[int] = []
    for n in pool:
        if n not in seen:
            seen.add(n)
            sink_nets.append(n)
        if len(sink_nets) >= max(n_slots, len(dangling)):
            break
    while len(sink_nets) < n_slots:
        sink_nets.append(rng.choice(available[len(inputs):]))

    # Any dangling nets beyond the slot count observe through extra POs so
    # the netlist never contains dead logic.
    for i in range(spec.n_flops):
        b.add_flop_with_q(d_net=sink_nets[i], q_net=q_nets[i], name=f"{spec.name}_ff{i}")
    for i in range(spec.n_pos):
        b.mark_primary_output(sink_nets[spec.n_flops + i])
    for n in sink_nets[n_slots:]:
        b.mark_primary_output(n)
    return b.finish()


def _generate_large(spec: GeneratorSpec, rng: Optional[random.Random] = None) -> Netlist:
    """Linear-time generator for paper-scale cores (≥ ``LARGE_GATE_THRESHOLD``).

    Same structural recipe as :func:`generate` — flavor-weighted gate mix,
    locality-windowed fanin selection, a bias toward consuming not-yet-read
    nets — but every per-gate step is O(1):

    * the "unconsumed net" draw uses a swap-pop list with lazy invalidation
      instead of materializing ``tuple(set)`` per pin;
    * locality/global picks index into the net list directly instead of
      slicing a window copy;
    * surplus dangling outputs are observed through extra POs outright
      (the sub-threshold path first tries to rewire them into later gates,
      which needs a full-netlist consumer scan per net); only *inputs* that
      ended up unread get the targeted rewiring pass, and there are O(1) of
      those.

    The stream is intentionally distinct from the classic path — the
    threshold, not the caller, picks the algorithm, and all golden/pinned
    specs sit far below it.
    """
    flavor = FLAVORS[spec.flavor]
    rng = rng if rng is not None else random.Random(spec.seed)
    b = NetlistBuilder(spec.name)

    pis = [b.add_primary_input(f"pi{i}") for i in range(spec.n_pis)]
    q_nets = [b.add_net(f"q{i}") for i in range(spec.n_flops)]
    inputs = pis + q_nets
    input_set = set(inputs)

    cells, weights = zip(*flavor.gate_mix)
    cum_weights = []
    acc = 0.0
    for w in weights:
        acc += w
        cum_weights.append(acc)

    from .cells import cell as _cell

    n_inputs_by_cell = {name: _cell(name).n_inputs for name in cells}
    available: List[int] = list(inputs)
    consumed: set = set()
    #: Candidate nets for the consume-something-unread bias.  Entries whose
    #: net got consumed through another branch are skipped lazily on pop.
    pending: List[int] = list(inputs)

    def pop_unconsumed() -> Optional[int]:
        while pending:
            i = rng.randrange(len(pending))
            pending[i], pending[-1] = pending[-1], pending[i]
            net = pending.pop()
            if net not in consumed:
                return net
        return None

    window = flavor.window
    locality = flavor.locality
    for i in range(spec.n_gates):
        cname = rng.choices(cells, cum_weights=cum_weights, k=1)[0]
        n_in = n_inputs_by_cell[cname]
        fanin: List[int] = []
        for _pin in range(n_in):
            pick: Optional[int] = None
            for _attempt in range(8):
                if pending and rng.random() < 0.35:
                    pick = pop_unconsumed()
                if pick is None:
                    if rng.random() < locality and len(available) > window:
                        pick = available[len(available) - window + rng.randrange(window)]
                    else:
                        pick = available[rng.randrange(len(available))]
                if pick not in fanin:
                    break
                pick = None
            if pick is None:  # pragma: no cover - 8 collisions on >=window nets
                pick = available[rng.randrange(len(available))]
            fanin.append(pick)
            consumed.add(pick)
        out = b.add_gate(cname, fanin, gate_name=f"{spec.name}_g{i}")
        available.append(out)
        pending.append(out)

    # Inputs nothing read (rare at this scale): rewire them into a gate pin
    # whose current net keeps another consumer.  Acyclic by construction —
    # PIs and flop Q nets predate every gate.
    unread_inputs = [n for n in inputs if n not in consumed]
    if unread_inputs:
        from collections import Counter

        counts = Counter(n for g in b._gates for n in g.fanin)
        for net in unread_inputs:
            start = rng.randrange(len(b._gates))
            for off in range(len(b._gates)):
                g = b._gates[(start + off) % len(b._gates)]
                if net in g.fanin:
                    break
                done = False
                for pin, old in enumerate(g.fanin):
                    if counts[old] >= 2:
                        counts[old] -= 1
                        counts[net] += 1
                        g.fanin[pin] = net
                        consumed.add(net)
                        done = True
                        break
                if done:
                    break

    # Bind flops and POs to dangling outputs; surplus dangling nets become
    # extra observation POs so no logic is dead.
    dangling = [n for n in available if n not in consumed and n not in input_set]
    rng.shuffle(dangling)
    n_slots = spec.n_flops + spec.n_pos
    sink_nets = dangling[:n_slots]
    extra_pos = dangling[n_slots:]
    if len(sink_nets) < n_slots:
        seen = set(sink_nets)
        for n in reversed(available):
            if len(sink_nets) >= n_slots:
                break
            if n not in seen and n not in input_set:
                seen.add(n)
                sink_nets.append(n)
        while len(sink_nets) < n_slots:  # pragma: no cover - degenerate specs
            sink_nets.append(available[rng.randrange(len(inputs), len(available))])

    for i in range(spec.n_flops):
        b.add_flop_with_q(d_net=sink_nets[i], q_net=q_nets[i], name=f"{spec.name}_ff{i}")
    for i in range(spec.n_pos):
        b.mark_primary_output(sink_nets[spec.n_flops + i])
    for n in extra_pos:
        b.mark_primary_output(n)
    return b.finish()


def toy_netlist() -> Netlist:
    """A hand-written 6-gate core used throughout tests and the quickstart.

    Structure (c17-flavored, plus one flop)::

        pi0 ─┬─ NAND2(g0) ─┬─ NAND2(g2) ── po0
        pi1 ─┘             │
        pi2 ─┬─ NAND2(g1) ─┼─ NAND2(g3) ── XOR2(g4) ── ff0.D
        pi3 ─┘             │              │
        q0  ───────────────┴──────────────┘
    """
    b = NetlistBuilder("toy")
    pi = [b.add_primary_input(f"pi{i}") for i in range(4)]
    q0 = b.add_net("q0")
    n0 = b.add_gate("NAND2", [pi[0], pi[1]], gate_name="g0")
    n1 = b.add_gate("NAND2", [pi[2], pi[3]], gate_name="g1")
    n2 = b.add_gate("NAND2", [n0, n1], gate_name="g2")
    n3 = b.add_gate("NAND2", [n1, q0], gate_name="g3")
    n4 = b.add_gate("XOR2", [n3, q0], gate_name="g4")
    b.mark_primary_output(n2)
    b.add_flop_with_q(d_net=n4, q_net=q0, name="ff0")
    return b.finish()
