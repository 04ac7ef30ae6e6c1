"""Bit-parallel gate-level logic simulation.

Two engines share one compiled netlist:

* **Packed** (default): 64 test patterns per ``np.uint64`` word.  The
  compile step flattens the netlist into per-(topological level, cell type)
  groups of fanin/fanout index arrays, so each level evaluates as a handful
  of vectorized numpy gathers + word-parallel cell kernels instead of one
  Python call per gate.
* **uint8 reference** (``CompiledSimulator(nl, packed=False)``): the
  original one-byte-per-pattern, one-gate-at-a-time loop, kept as the
  differential-testing oracle.

For transition-delay-fault work the two vectors of a test pair (V1, V2) are
simulated independently and per-net transition masks are derived from both —
this realizes the paper's "simulation with multiple logic values" step that
memorizes which nodes switch under each pattern.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..netlist.cells import CellType, PackedFn, packed_eval, packed_expr
from ..netlist.netlist import EXTERNAL_DRIVER, Netlist
from ..netlist.topology import fanout_cone_gates
from .bitpack import WORD_BITS, n_words_for, pack_patterns, rows_to_ints, unpack_patterns

__all__ = ["CompiledSimulator", "TwoPatternResult"]

#: All-ones mask of one packed numpy word.
_FULL_WORD = np.uint64(0xFFFFFFFFFFFFFFFF)


class TwoPatternResult:
    """Good-machine values for a two-pattern (V1, V2) test set.

    Holds either unpacked uint8 matrices (one byte per pattern) or packed
    uint64 word matrices (64 patterns per word).  The unpacked views ``v1``
    / ``v2`` and the boolean mask methods are always available — packed
    results unpack lazily and cache — so downstream consumers
    (:meth:`repro.core.hetgraph.HetGraph.build`, the feature extractor,
    diagnosis) never need to know which engine produced the result.
    """

    def __init__(self, v1: Optional[np.ndarray] = None, v2: Optional[np.ndarray] = None) -> None:
        self._v1 = v1
        self._v2 = v2
        self._pv1: Optional[np.ndarray] = None
        self._pv2: Optional[np.ndarray] = None
        self._n_patterns: int = 0 if v1 is None else int(v1.shape[1])

    @classmethod
    def from_packed(cls, pv1: np.ndarray, pv2: np.ndarray, n_patterns: int) -> "TwoPatternResult":
        """Wrap packed word matrices of shape ``(n_nets, n_words)``."""
        res = cls()
        res._pv1 = pv1
        res._pv2 = pv2
        res._n_patterns = int(n_patterns)
        return res

    # Big-int row views (one arbitrary-precision int per net), derived
    # lazily and cached: the fault machine reuses them across every
    # propagate call against this result.
    _iv1: Optional[List[int]] = None
    _iv2: Optional[List[int]] = None

    # ----------------------------------------------------------------- views
    @property
    def is_packed(self) -> bool:
        """True when the result carries packed word matrices."""
        return self._pv1 is not None

    @property
    def v1(self) -> np.ndarray:
        """Net values under the first vectors, shape (n_nets, n_patterns)."""
        if self._v1 is None:
            self._v1 = unpack_patterns(self._pv1, self._n_patterns)
        return self._v1

    @property
    def v2(self) -> np.ndarray:
        """Net values under the second vectors, same shape as ``v1``."""
        if self._v2 is None:
            self._v2 = unpack_patterns(self._pv2, self._n_patterns)
        return self._v2

    @property
    def packed_v1(self) -> np.ndarray:
        """Packed V1 words, shape (n_nets, n_words); packs lazily if needed."""
        if self._pv1 is None:
            self._pv1 = pack_patterns(self._v1)
        return self._pv1

    @property
    def packed_v2(self) -> np.ndarray:
        if self._pv2 is None:
            self._pv2 = pack_patterns(self._v2)
        return self._pv2

    def v1_ints(self) -> List[int]:
        """Per-net big-int packed V1 rows (cached)."""
        if self._iv1 is None:
            self._iv1 = rows_to_ints(self.packed_v1)
        return self._iv1

    def v2_ints(self) -> List[int]:
        """Per-net big-int packed V2 rows (cached)."""
        if self._iv2 is None:
            self._iv2 = rows_to_ints(self.packed_v2)
        return self._iv2

    @property
    def n_words(self) -> int:
        """Packed words per net row."""
        return n_words_for(self._n_patterns)

    @property
    def full_mask(self) -> int:
        """All-ones big-int mask spanning every bit lane of a packed row."""
        return (1 << (self.n_words * WORD_BITS)) - 1

    @property
    def valid_mask(self) -> int:
        """Big-int mask of the *pattern-carrying* bit lanes only.

        Tail lanes beyond ``n_patterns`` hold engine-dependent junk (zeros
        when a row was re-packed from unpacked values, ones below inverting
        cells in a packed simulation), so every cross-representation
        comparison must be restricted to this mask.
        """
        return (1 << self._n_patterns) - 1

    @property
    def n_patterns(self) -> int:
        return self._n_patterns

    def subset(self, cols: np.ndarray) -> "TwoPatternResult":
        """A result restricted to the given pattern columns.

        The subset stays in the parent's representation: packed parents
        produce packed subsets (packing the few selected columns once is far
        cheaper than running every later ``propagate`` unpacked).
        """
        sub = TwoPatternResult(self.v1[:, cols], self.v2[:, cols])
        if self.is_packed:
            sub._pv1 = pack_patterns(sub._v1)
            sub._pv2 = pack_patterns(sub._v2)
        return sub

    # ----------------------------------------------------------------- masks
    def transitions(self) -> np.ndarray:
        """Boolean matrix: ``[net, pattern]`` is True when the net switches."""
        return self.v1 != self.v2

    def rising(self) -> np.ndarray:
        """Per-net, per-pattern 0→1 transition mask."""
        return (self.v1 == 0) & (self.v2 == 1)

    def falling(self) -> np.ndarray:
        """Per-net, per-pattern 1→0 transition mask."""
        return (self.v1 == 1) & (self.v2 == 0)

    def transitions_packed(self) -> np.ndarray:
        """Packed transition mask words (tail bits are zero)."""
        return self.packed_v1 ^ self.packed_v2


class _LevelGroup:
    """All gates of one cell type within one topological level."""

    __slots__ = ("cell", "out", "fanin")

    def __init__(self, cell: CellType, out: np.ndarray, fanin: np.ndarray) -> None:
        self.cell = cell
        self.out = out  # (n_group,) output net ids
        self.fanin = fanin  # (n_group, n_inputs) fanin net ids


class CompiledSimulator:
    """A netlist compiled for repeated bit-parallel evaluation.

    The compile step freezes the topological order, the per-gate fanin
    tables, and (for the packed engine) the level/cell-type group arrays;
    the netlist must not be structurally modified afterwards.

    Args:
        nl: The design to compile.
        packed: Use the bit-packed levelized engine (default).  ``False``
            selects the uint8 reference implementation.
    """

    def __init__(self, nl: Netlist, packed: bool = True) -> None:
        self.nl = nl
        self.packed = packed
        self.order: List[int] = nl.topo_order()
        self.input_nets: List[int] = nl.comb_inputs
        self._input_pos: Dict[int, int] = {n: i for i, n in enumerate(self.input_nets)}
        self._input_net_arr = np.asarray(self.input_nets, dtype=np.intp)
        #: Fan-out cones memoized by the (sorted) start-gate tuple; fault
        #: sites recur across patterns, configs, and multi-fault draws, so
        #: each cone is derived at most once per compiled simulator.
        self._cone_cache: Dict[Tuple[int, ...], List[int]] = {}
        #: Generated straight-line propagation functions per start-gate key.
        self._prop_fn_cache: Dict[Tuple[int, ...], object] = {}
        #: Marshaled code objects + kernel bindings for generated cone
        #: functions.  Unlike the function cache this *does* pickle, so a
        #: design loaded from the artifact cache (or a pool's shared-memory
        #: spill) skips the dominant ``compile()`` cost of warming cones.
        self._cone_code: Dict[Tuple[int, ...], Tuple[bytes, Tuple[Tuple[int, int], ...]]] = {}
        #: Per-gate packed kernels, resolved once so cone-function
        #: construction never hashes cell types per gate.
        self._gate_kernels: List[PackedFn] = [packed_eval(g.cell) for g in nl.gates]
        self._groups: List[_LevelGroup] = self._compile_levels() if packed else []

    # -------------------------------------------------------------- pickling
    def __getstate__(self):
        """Pickle (netlist, engine flag) plus the marshaled cone code.

        The compiled state holds generated straight-line functions and
        per-cell kernels (closures for truth-table-derived cells) that cannot
        pickle; those are rebuilt on load.  The *code objects* behind the
        generated cone functions, however, are the dominant preparation cost
        (``compile()`` of thousands of cones), so they travel as ``marshal``
        blobs: a design reloaded from the artifact cache — or materialized
        from a worker pool's shared-memory spill — re-binds them without
        recompiling.  Marshal blobs are interpreter-specific, so they are
        tagged with the Python version and silently dropped on mismatch
        (the cone is then recompiled from the netlist; correctness never
        depends on the cached code).
        """
        import sys

        return {
            "nl": self.nl,
            "packed": self.packed,
            "cone_code": self._cone_code,
            "cone_pyver": tuple(sys.version_info[:2]),
        }

    def __setstate__(self, state):
        import sys

        self.__init__(state["nl"], packed=state["packed"])
        if state.get("cone_pyver") == tuple(sys.version_info[:2]):
            self._cone_code.update(state.get("cone_code", {}))

    # --------------------------------------------------------------- compile
    def _compile_levels(self) -> List[_LevelGroup]:
        """Group gates by (topological level, cell type) into index arrays."""
        gates = self.nl.gates
        glevel = [0] * self.nl.n_gates
        nlevel = [0] * self.nl.n_nets
        for gid in self.order:
            g = gates[gid]
            lvl = 0
            for nid in g.fanin:
                lvl = max(lvl, nlevel[nid] + 1)
            glevel[gid] = lvl
            nlevel[g.out] = lvl
        buckets: Dict[Tuple[int, str], List[int]] = {}
        for gid in self.order:
            buckets.setdefault((glevel[gid], gates[gid].cell.name), []).append(gid)
        groups: List[_LevelGroup] = []
        for (lvl, _name), gids in sorted(buckets.items(), key=lambda kv: kv[0]):
            cell = gates[gids[0]].cell
            out = np.asarray([gates[g].out for g in gids], dtype=np.intp)
            fanin = np.asarray([gates[g].fanin for g in gids], dtype=np.intp)
            groups.append(_LevelGroup(cell, out, fanin))
        return groups

    @property
    def n_inputs(self) -> int:
        return len(self.input_nets)

    def _check_inputs(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.uint8)
        if inputs.ndim != 2 or inputs.shape[0] != self.n_inputs:
            raise ValueError(
                f"expected inputs of shape ({self.n_inputs}, n_patterns), got {inputs.shape}"
            )
        return inputs

    # -------------------------------------------------------------- evaluate
    def simulate(self, inputs: np.ndarray) -> np.ndarray:
        """Evaluate the core.

        Args:
            inputs: uint8 array of shape (n_inputs, n_patterns), rows ordered
                like ``Netlist.comb_inputs`` (PIs then flop Q nets).

        Returns:
            uint8 array of shape (n_nets, n_patterns) with every net's value.
        """
        inputs = self._check_inputs(inputs)
        if self.packed:
            n_pat = inputs.shape[1]
            return unpack_patterns(self.simulate_packed(inputs), n_pat)
        return self._simulate_u8(inputs)

    def _simulate_u8(self, inputs: np.ndarray) -> np.ndarray:
        """Reference engine: one uint8 byte per pattern, one gate at a time."""
        n_pat = inputs.shape[1]
        values = np.zeros((self.nl.n_nets, n_pat), dtype=np.uint8)
        for net_id, row in zip(self.input_nets, inputs):
            values[net_id] = row
        gates = self.nl.gates
        for gid in self.order:
            g = gates[gid]
            values[g.out] = g.cell.func([values[n] for n in g.fanin])
        return values

    def simulate_packed(self, inputs: np.ndarray) -> np.ndarray:
        """Evaluate the core in packed form.

        Args:
            inputs: uint8 array of shape (n_inputs, n_patterns).

        Returns:
            uint64 array of shape (n_nets, n_words) with 64 patterns per
            word.  Tail bits of inverting cells may be 1; unpack with
            :func:`repro.sim.bitpack.unpack_patterns` to discard them.
        """
        inputs = self._check_inputs(inputs)
        n_words = n_words_for(inputs.shape[1])
        values = np.zeros((self.nl.n_nets, n_words), dtype=np.uint64)
        if self.n_inputs:
            values[self._input_net_arr] = pack_patterns(inputs)
        for grp in self._groups:
            ins = values[grp.fanin]  # (n_group, n_inputs, n_words)
            fn = packed_eval(grp.cell)
            values[grp.out] = fn([ins[:, i] for i in range(ins.shape[1])], _FULL_WORD)
        return values

    def simulate_pair(self, v1_in: np.ndarray, v2_in: np.ndarray) -> TwoPatternResult:
        """Simulate both vectors of a two-pattern test set."""
        if self.packed:
            v1_in = self._check_inputs(v1_in)
            v2_in = self._check_inputs(v2_in)
            n_pat = v1_in.shape[1]
            return TwoPatternResult.from_packed(
                self.simulate_packed(v1_in), self.simulate_packed(v2_in), n_pat
            )
        return TwoPatternResult(self.simulate(v1_in), self.simulate(v2_in))

    # ----------------------------------------------------------------- cones
    def fanout_cone(self, start_gates: Sequence[int]) -> List[int]:
        """Topologically sorted fan-out cone, memoized per start-gate tuple."""
        key = tuple(sorted(set(start_gates)))
        cone = self._cone_cache.get(key)
        if cone is None:
            cone = fanout_cone_gates(self.nl, list(key))
            self._cone_cache[key] = cone
        return cone

    def resimulate_with_overrides(
        self,
        base_values: np.ndarray,
        start_gates: Sequence[int],
        input_override: Dict[Tuple[int, int], np.ndarray],
        net_override: Optional[Dict[int, np.ndarray]] = None,
    ) -> Dict[int, np.ndarray]:
        """Re-evaluate only the fan-out cone of a disturbance (uint8 values).

        Args:
            base_values: Good-machine values from :meth:`simulate`.
            start_gates: Gates whose inputs are disturbed.
            input_override: Faulty values seen by specific (gate, pin) inputs;
                models branch and MIV faults that affect a subset of sinks.
            net_override: Faulty values for whole nets (stem faults at the
                source, before any gate reads them).

        Returns:
            Mapping of net id → faulty values for every net whose value
            changed (copy-on-write overlay over ``base_values``).
        """
        net_override = dict(net_override or {})
        modified: Dict[int, np.ndarray] = dict(net_override)
        gates = self.nl.gates
        for gid in self.fanout_cone(start_gates):
            g = gates[gid]
            ins: List[np.ndarray] = []
            for pin, nid in enumerate(g.fanin):
                if (gid, pin) in input_override:
                    ins.append(input_override[(gid, pin)])
                elif nid in modified:
                    ins.append(modified[nid])
                else:
                    ins.append(base_values[nid])
            new = g.cell.func(ins)
            if np.array_equal(new, base_values[g.out]):
                modified.pop(g.out, None)
            else:
                modified[g.out] = new
        return modified

    def propagation_fn(self, start_gates: Sequence[int]):
        """Generated straight-line propagation function for one cone.

        The fault machine calls the same cones thousands of times (every
        fault of a site, every pattern batch), so each cone is compiled
        *once* into a specialized Python function: every gate becomes one
        inlined bitwise expression over big-int local variables — no plan
        tuples, no per-gate dict probes, no kernel dispatch — and only the
        cone's *observed* nets are compared against the base at the end.

        The generated function has signature ``fn(b, ov, full, vm)`` with
        ``b`` the per-net big-int base rows (V2), ``ov`` the ``(gate, pin)
        → faulty row`` override dict (pins absent from ``ov`` read their
        fault-free value), ``full`` the all-ones mask, and ``vm`` the
        valid-lane mask (:attr:`TwoPatternResult.valid_mask`) that strips
        tail-lane artifacts from the reported diffs.  It returns
        ``{observed net id → nonzero diff row}``: observed nets only.
        """
        key = tuple(sorted(set(start_gates)))
        fn = self._prop_fn_cache.get(key)
        if fn is None:
            cached = self._cone_code.get(key)
            if cached is not None:
                fn = self._bind_cone_code(key, cached)
            else:
                fn = self._build_propagation_fn(key)
            self._prop_fn_cache[key] = fn
        return fn

    def _bind_cone_code(
        self, key: Tuple[int, ...],
        cached: Tuple[bytes, Tuple[Tuple[int, int], ...]],
    ):
        """Re-bind a marshaled cone code object to this simulator's kernels."""
        import marshal

        blob, kernel_gids = cached
        ns: Dict[str, object] = {
            "_K": {idx: self._gate_kernels[gid] for idx, gid in kernel_gids}
        }
        exec(marshal.loads(blob), ns)
        return ns["_prop"]

    def _build_propagation_fn(self, key: Tuple[int, ...]):
        gates = self.nl.gates
        observed = set(self.nl.observed_nets)
        seeds = set(key)
        kernels: Dict[int, PackedFn] = {}
        lines = ["def _prop(b, ov, full, vm, _K=_K):"]
        defined: Dict[int, str] = {}
        cone = self.fanout_cone(key)
        for idx, gid in enumerate(cone):
            g = gates[gid]
            if gid in seeds:
                # Disturbed gate: each pin may carry an injected faulty row.
                args = []
                for pin, nid in enumerate(g.fanin):
                    src = defined.get(nid, f"b[{nid}]")
                    var = f"t{gid}_{pin}"
                    lines.append(f"    {var} = ov.get(({gid},{pin}))")
                    lines.append(f"    if {var} is None: {var} = {src}")
                    args.append(var)
            else:
                args = [defined.get(nid, f"b[{nid}]") for nid in g.fanin]
            expr = packed_expr(g.cell, args)
            if expr is None:
                kernels[idx] = self._gate_kernels[gid]
                expr = f"_K[{idx}](({', '.join(args)},), full)"
            lines.append(f"    v{g.out} = {expr}")
            defined[g.out] = f"v{g.out}"
        lines.append("    r = {}")
        for gid in cone:
            out = gates[gid].out
            if out in observed:
                lines.append(f"    d = (v{out} ^ b[{out}]) & vm")
                lines.append(f"    if d: r[{out}] = d")
        lines.append("    return r")
        kernel_gids: Dict[int, int] = {}
        for idx, gid in enumerate(cone):
            if idx in kernels:
                kernel_gids[idx] = gid
        code = compile("\n".join(lines), f"<cone-plan {key[:4]}>", "exec")
        import marshal

        self._cone_code[key] = (marshal.dumps(code), tuple(kernel_gids.items()))
        ns: Dict[str, object] = {"_K": kernels}
        exec(code, ns)
        return ns["_prop"]
