"""Transition-delay-fault simulation.

Implements the standard TDF detection approximation on top of the
bit-parallel good-machine values: launch (a matching transition at the fault
site) plus capture (the late value, modeled as the complemented V2 value at
the site, propagating to an observation point).  Only the fan-out cone of the
fault is re-evaluated per fault, with per-pin overrides so branch and MIV
faults disturb exactly their subset of sinks.

When the good-machine result is bit-packed (the default engine), the whole
launch/inject/propagate pipeline stays in packed uint64 words — 64 patterns
per word — and detection masks are unpacked only at the end, so the public
contract (boolean per-pattern masks) is unchanged.  Fault sites recur across
patterns, configurations, and multi-fault draws, so the machine caches each
site's start-gate tuple and the simulator memoizes the fan-out cones.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..atpg.faults import Fault, FaultSite, Polarity
from .bitpack import int_to_bits
from .logicsim import CompiledSimulator, TwoPatternResult

__all__ = ["FaultMachine"]


def _ints_to_masks(diffs: Dict[int, int], n_patterns: int, n_words: int) -> Dict[int, np.ndarray]:
    """Unpack per-observation big-int diffs into boolean masks in one shot."""
    if not diffs:
        return {}
    row_bytes = n_words * 8
    obs_ids = list(diffs)
    blob = b"".join(diffs[o].to_bytes(row_bytes, "little") for o in obs_ids)
    rows = np.frombuffer(blob, dtype=np.uint8).reshape(len(obs_ids), row_bytes)
    bits = np.unpackbits(rows, axis=1, bitorder="little", count=n_patterns).astype(bool)
    return {o: bits[i] for i, o in enumerate(obs_ids)}


class FaultMachine:
    """Simulates single TDFs against a fixed good-machine result."""

    def __init__(self, sim: CompiledSimulator) -> None:
        self.sim = sim
        self.nl = sim.nl
        self.observed: List[int] = self.nl.observed_nets
        self._observed_set = frozenset(self.observed)
        #: Per-fault-site start-gate tuples (sinks sorted/deduped once).
        self._site_starts: Dict[FaultSite, Tuple[int, ...]] = {}

    # ---------------------------------------------------------------- shared
    def _start_gates(self, site: FaultSite) -> Tuple[int, ...]:
        starts = self._site_starts.get(site)
        if starts is None:
            starts = tuple(sorted({g for (g, _p) in site.sinks}))
            self._site_starts[site] = starts
        return starts

    def activation_mask(self, fault: Fault, good: TwoPatternResult) -> np.ndarray:
        """Patterns whose transition at the site matches the fault polarity."""
        net = fault.site.net
        if fault.polarity is Polarity.SLOW_TO_RISE:
            return (good.v1[net] == 0) & (good.v2[net] == 1)
        return (good.v1[net] == 1) & (good.v2[net] == 0)

    def _activation_int(self, fault: Fault, good: TwoPatternResult) -> int:
        """Packed counterpart of :meth:`activation_mask` (tail bits zero).

        V1 and V2 of the same net carry identical tail bits, so the
        launch-transition word is tail-clean without explicit masking.
        """
        net = fault.site.net
        iv1, iv2 = good.v1_ints()[net], good.v2_ints()[net]
        if fault.polarity is Polarity.SLOW_TO_RISE:
            return (good.full_mask ^ iv1) & iv2
        return iv1 & (good.full_mask ^ iv2)

    # ------------------------------------------------------------- propagate
    def propagate(self, fault: Fault, good: TwoPatternResult) -> Dict[int, np.ndarray]:
        """Per-observation detection masks for one fault.

        Returns:
            Mapping observed-net id → boolean array over patterns, containing
            only observations where the fault is detected at least once.
        """
        if good.is_packed:
            return self._propagate_packed(fault, good)
        site = fault.site
        mask = self.activation_mask(fault, good)
        if not mask.any():
            return {}
        faulty_site = good.v2[site.net] ^ mask.astype(np.uint8)
        input_override = {(g, p): faulty_site for (g, p) in site.sinks}
        modified = self.sim.resimulate_with_overrides(
            good.v2, self._start_gates(site), input_override
        )
        detections: Dict[int, np.ndarray] = {}
        for obs in self.observed:
            diff = None
            if obs in modified:
                diff = modified[obs] != good.v2[obs]
            if site.observed_faulty and obs == site.net:
                site_diff = mask.copy()
                diff = site_diff if diff is None else (diff | site_diff)
            if diff is not None and diff.any():
                detections[obs] = diff
        return detections

    def _propagate_ints(self, fault: Fault, good: TwoPatternResult) -> Dict[int, int]:
        """Packed propagate core: observed-net id → big-int difference word."""
        return self._propagate_lanes(fault.site, self._activation_int(fault, good), good)

    def _propagate_lanes(
        self, site: FaultSite, act: int, good: TwoPatternResult
    ) -> Dict[int, int]:
        """Packed propagate of a flip of ``site`` in the pattern lanes ``act``.

        Lanes are independent, so flipping the lanes of both polarities at
        once yields each polarity's differences as ``diff & act_polarity``.
        """
        if not act:
            return {}
        iv2 = good.v2_ints()
        faulty_site = iv2[site.net] ^ act
        input_override = {(g, p): faulty_site for (g, p) in site.sinks}
        fn = self.sim.propagation_fn(self._start_gates(site))
        diffs: Dict[int, int] = fn(iv2, input_override, good.full_mask, good.valid_mask)
        if site.observed_faulty and site.net in self._observed_set:
            diffs[site.net] = diffs.get(site.net, 0) | act
        return diffs

    def _propagate_packed(self, fault: Fault, good: TwoPatternResult) -> Dict[int, np.ndarray]:
        diffs = self._propagate_ints(fault, good)
        return _ints_to_masks(diffs, good.n_patterns, good.n_words)

    def propagate_multi(
        self, faults: List[Fault], good: TwoPatternResult
    ) -> Dict[int, np.ndarray]:
        """Simultaneous propagation of several TDFs (tier-systematic defects).

        Each site's launch condition is evaluated on the good machine (a
        first-order approximation that ignores fault-on-fault activation
        changes, standard for diagnosis data generation); all faulty values
        are then injected together and the union fan-out cone re-evaluated,
        so downstream interaction and masking between the faults is exact.
        """
        if good.is_packed:
            return self._propagate_multi_packed(faults, good)
        input_override: Dict[tuple, np.ndarray] = {}
        start_gates: set = set()
        any_active = False
        observed_flip: Dict[int, np.ndarray] = {}
        for fault in faults:
            site = fault.site
            mask = self.activation_mask(fault, good)
            if not mask.any():
                continue
            any_active = True
            faulty_site = good.v2[site.net] ^ mask.astype(np.uint8)
            for g, p in site.sinks:
                input_override[(g, p)] = faulty_site
                start_gates.add(g)
            if site.observed_faulty:
                prev = observed_flip.get(site.net)
                observed_flip[site.net] = mask if prev is None else (prev | mask)
        if not any_active:
            return {}
        modified = self.sim.resimulate_with_overrides(
            good.v2, sorted(start_gates), input_override
        )
        detections: Dict[int, np.ndarray] = {}
        for obs in self.observed:
            diff = None
            if obs in modified:
                diff = modified[obs] != good.v2[obs]
            if obs in observed_flip:
                diff = observed_flip[obs] if diff is None else (diff | observed_flip[obs])
            if diff is not None and diff.any():
                detections[obs] = diff
        return detections

    def _propagate_multi_packed(
        self, faults: List[Fault], good: TwoPatternResult
    ) -> Dict[int, np.ndarray]:
        iv2 = good.v2_ints()
        input_override: Dict[Tuple[int, int], int] = {}
        start_gates: set = set()
        any_active = False
        observed_flip: Dict[int, int] = {}
        for fault in faults:
            site = fault.site
            act = self._activation_int(fault, good)
            if not act:
                continue
            any_active = True
            faulty_site = iv2[site.net] ^ act
            for g, p in site.sinks:
                input_override[(g, p)] = faulty_site
                start_gates.add(g)
            if site.observed_faulty:
                observed_flip[site.net] = observed_flip.get(site.net, 0) | act
        if not any_active:
            return {}
        fn = self.sim.propagation_fn(sorted(start_gates))
        diffs: Dict[int, int] = fn(iv2, input_override, good.full_mask, good.valid_mask)
        observed = self._observed_set
        for net, flip in observed_flip.items():
            if net in observed:
                merged = diffs.get(net, 0) | flip
                if merged:
                    diffs[net] = merged
        return _ints_to_masks(diffs, good.n_patterns, good.n_words)

    def detects(self, fault: Fault, good: TwoPatternResult) -> np.ndarray:
        """Boolean per-pattern mask: fault detected at any observation."""
        if good.is_packed:
            word = 0
            for diff in self._propagate_ints(fault, good).values():
                word |= diff
            if not word:
                return np.zeros(good.n_patterns, dtype=bool)
            return int_to_bits(word, good.n_patterns).astype(bool)
        out = np.zeros(good.n_patterns, dtype=bool)
        for diff in self.propagate(fault, good).values():
            out |= diff
        return out
