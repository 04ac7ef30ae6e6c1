"""Effect-cause TDF diagnosis — the commercial ATPG-diagnosis stand-in.

The classic multi-phase algorithm behind production diagnosis tools
(Huang, *VLSI Test Principles and Architectures*, ch. 7):

1. **Candidate extraction.**  For every erroneous response the defect must
   lie in the fan-in cone of the failing observation *and* switch under the
   failing pattern (TDF launch condition).  Nets are scored by how many
   erroneous responses they can explain; nets explaining (nearly) all of
   them become suspects.  Using a coverage count instead of a strict
   intersection keeps the tool usable for multi-fault chips and for
   compaction aliasing, mirroring commercial behaviour.

2. **Net screening.**  Every suspect net is fault-simulated once (stem
   fault) against a reduced pattern sample (the failing patterns plus a
   seeded sample of passing patterns) and ranked by match score.

3. **Candidate simulation.**  All fault sites (stem, branches, MIVs) on the
   top-ranked nets are fault-simulated for both polarities; predicted and
   observed failure logs are compared into TFSF / TFSP / TPSF counts and a
   match score.  Candidates are ranked and pruned to the near-best band,
   producing the ranked report the GNN framework post-processes.

Both phases run on packed words.  Candidate extraction ANDs per-observation
fan-in-cone rows with per-pattern transition rows; scoring folds big-int
propagation differences per observation and popcounts them against the
observed fail words.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..atpg.faults import Fault, FaultSite, Polarity, branch_site, site_tier, stem_site
from ..atpg.patterns import PatternSet
from ..dft.observation import ObservationMap
from ..m3d.miv import MIV, miv_fault_sites
from ..netlist.netlist import Netlist
from ..netlist.topology import fanin_cone_nets
from ..sim.faultsim import FaultMachine
from ..sim.logicsim import CompiledSimulator, TwoPatternResult
from ..tester.failure_log import FailureLog
from .report import Candidate, DiagnosisReport

__all__ = ["EffectCauseDiagnoser"]


class EffectCauseDiagnoser:
    """Ranked-candidate TDF diagnosis for one prepared design.

    Args:
        nl: Tier-assigned design.
        obsmap: Observation map the failure logs were recorded under.
        patterns: The TDF pattern set applied on the tester.
        mivs: The design's MIVs (adds MIV candidate sites).
        sim: Optional pre-compiled simulator to share.
        keep_ratio: Candidates scoring below ``keep_ratio * best`` are
            dropped from the report.
        max_detail_nets: Suspect nets surviving screening into per-site
            simulation.
        max_candidates: Cap on report length.
        explain_fraction: Relaxed suspect threshold (fraction of the best
            explained-response count) used when no net explains everything.
        n_passing_sample: Passing patterns sampled into the scoring subset.
        seed: Seed for the passing-pattern sample.
    """

    def __init__(
        self,
        nl: Netlist,
        obsmap: ObservationMap,
        patterns: PatternSet,
        mivs: Sequence[MIV] = (),
        sim: Optional[CompiledSimulator] = None,
        keep_ratio: float = 0.45,
        max_detail_nets: int = 64,
        max_candidates: int = 80,
        explain_fraction: float = 0.85,
        n_passing_sample: int = 16,
        seed: int = 0,
    ) -> None:
        self.nl = nl
        self.obsmap = obsmap
        self.sim = sim or CompiledSimulator(nl)
        self.machine = FaultMachine(self.sim)
        self.good = self.sim.simulate_pair(patterns.v1, patterns.v2)
        #: Row ``p``, bit ``n``: net ``n`` switches under pattern ``p``.
        self._transition_rows = np.packbits(
            self.good.transitions().T, axis=1, bitorder="little"
        )
        self.keep_ratio = keep_ratio
        self.max_detail_nets = max_detail_nets
        self.max_candidates = max_candidates
        self.explain_fraction = explain_fraction
        self.n_passing_sample = n_passing_sample
        self.seed = seed
        self._cone_rows: Dict[int, np.ndarray] = {}
        self._obs_of_net: Dict[int, List[int]] = {}
        for obs in obsmap.observations:
            for net in obs.nets:
                self._obs_of_net.setdefault(net, []).append(obs.id)
        self._or_obs = frozenset(
            obs.id for obs in obsmap.observations if obs.combine == "or"
        )
        self._miv_sites_by_net: Dict[int, List[FaultSite]] = {}
        for s in miv_fault_sites(nl, mivs):
            self._miv_sites_by_net.setdefault(s.net, []).append(s)
        self._observed = set(nl.observed_nets)

    # ------------------------------------------------------------ phase one
    def _cone_row(self, obs_id: int) -> np.ndarray:
        """Packed fan-in-cone membership row of one observation (lazy).

        Bit ``n`` is set when net ``n`` lies in the fan-in cone of any of the
        observation's nets; rows are built on first use, so memory follows
        the observations that actually fail.
        """
        row = self._cone_rows.get(obs_id)
        if row is None:
            member = np.zeros(self.nl.n_nets, dtype=bool)
            for obs_net in self.obsmap.observations[obs_id].nets:
                member[list(fanin_cone_nets(self.nl, obs_net))] = True
            row = np.packbits(member, bitorder="little")
            self._cone_rows[obs_id] = row
        return row

    def suspect_nets(self, log: FailureLog) -> List[int]:
        """Nets that can explain (nearly) every erroneous response."""
        n_entries = len(log.entries)
        if not n_entries:
            return []
        cones = np.stack([self._cone_row(e.observation) for e in log.entries])
        switching = self._transition_rows[[e.pattern for e in log.entries]]
        explains = np.unpackbits(
            cones & switching, axis=1, count=self.nl.n_nets, bitorder="little"
        )
        explain_count = explains.sum(axis=0)
        best = int(explain_count.max())
        if not best:
            return []
        threshold = n_entries if best == n_entries else max(
            1, int(np.ceil(self.explain_fraction * best))
        )
        return np.flatnonzero(explain_count >= threshold).tolist()

    # ------------------------------------------------------------ sub-sample
    def _pattern_subset(self, log: FailureLog) -> Tuple[np.ndarray, TwoPatternResult]:
        """Failing patterns plus a seeded sample of passing ones."""
        n_pat = self.good.n_patterns
        failing = np.asarray(log.failing_patterns, dtype=int)
        passing = np.setdiff1d(np.arange(n_pat), failing)
        rng = np.random.default_rng(self.seed + len(log.entries))
        if len(passing) > self.n_passing_sample:
            passing = np.sort(rng.choice(passing, self.n_passing_sample, replace=False))
        cols = np.concatenate([failing, passing])
        # subset() keeps the parent's representation: with the packed engine
        # the selected columns are re-packed once here, so every per-site
        # propagate below runs word-parallel.
        sub = self.good.subset(cols)
        return cols, sub

    def _fail_words(self, site: FaultSite, lanes: int, sub: TwoPatternResult) -> Dict[int, int]:
        """Predicted tester fails: observation id → packed word over ``sub``.

        ``site`` flips in the pattern lanes ``lanes``.  Member-net
        differences fold per observation exactly as the tester sees them:
        XOR for parity compaction, OR for a signature register.
        """
        words: Dict[int, int] = {}
        for net, diff in self.machine._propagate_lanes(site, lanes, sub).items():
            for obs_id in self._obs_of_net.get(net, ()):
                prev = words.get(obs_id)
                if prev is None:
                    words[obs_id] = diff
                elif obs_id in self._or_obs:
                    words[obs_id] = prev | diff
                else:
                    words[obs_id] = prev ^ diff
        return words

    # ------------------------------------------------------------ phase 2+3
    def _sites_of_net(self, net_id: int) -> List[FaultSite]:
        net = self.nl.nets[net_id]
        sites = [stem_site(self.nl, net_id)]
        n_dest = len(net.sinks) + (1 if net_id in self._observed else 0)
        if n_dest > 1:
            for gate_id, pin in net.sinks:
                sites.append(branch_site(self.nl, gate_id, pin))
        sites.extend(self._miv_sites_by_net.get(net_id, ()))
        return sites

    def _score_site(
        self,
        site: FaultSite,
        sub: TwoPatternResult,
        actual: Dict[int, int],
        n_actual: int,
    ) -> Optional[Candidate]:
        # Both polarities in one propagation: their launch lanes are disjoint,
        # so each polarity's fails are the shared words masked to its lanes.
        launch = [
            (polarity, self.machine._activation_int(Fault(site, polarity), sub))
            for polarity in (Polarity.SLOW_TO_RISE, Polarity.SLOW_TO_FALL)
        ]
        words = self._fail_words(site, launch[0][1] | launch[1][1], sub)
        best: Optional[Candidate] = None
        for polarity, lanes in launch:
            tfsf = tpsf = 0
            for obs_id, word in words.items():
                word &= lanes
                hit = word & actual.get(obs_id, 0)
                tfsf += hit.bit_count()
                tpsf += (word ^ hit).bit_count()
            if tfsf == 0:
                continue
            tfsp = n_actual - tfsf
            cand = Candidate(
                site=site,
                polarity=polarity,
                score=tfsf / (tfsf + tfsp + tpsf),
                tier=site_tier(self.nl, site),
                tfsf=tfsf,
                tfsp=tfsp,
                tpsf=tpsf,
            )
            if best is None or (cand.score, -cand.tpsf) > (best.score, -best.tpsf):
                best = cand
        return best

    def diagnose(self, log: FailureLog) -> DiagnosisReport:
        """Produce the ranked candidate report for one failure log."""
        if not log.entries:
            return DiagnosisReport(candidates=[])
        cols, sub = self._pattern_subset(log)
        # Observed fails as one packed word per observation over the subset
        # columns (bit i = pattern cols[i]).
        col_pos = {int(c): i for i, c in enumerate(cols)}
        actual: Dict[int, int] = {}
        for e in log.entries:
            pos = col_pos.get(e.pattern)
            if pos is not None:
                actual[e.observation] = actual.get(e.observation, 0) | (1 << pos)
        n_actual = sum(word.bit_count() for word in actual.values())
        suspects = self.suspect_nets(log)

        # Phase 2: one stem simulation per suspect net, rank nets by how many
        # observed fails they explain (recall first — a stem over-predicts for
        # branch defects, so precision would unfairly drop the true net).
        stem_cand: Dict[int, Candidate] = {}
        net_rank: List[Tuple[Tuple[int, int, float], int]] = []
        for net_id in suspects:
            cand = self._score_site(stem_site(self.nl, net_id), sub, actual, n_actual)
            if cand is not None:
                stem_cand[net_id] = cand
                net_rank.append(((-cand.tfsf, cand.tpsf, -cand.score), net_id))
        net_rank.sort()
        detail_nets = [net_id for _key, net_id in net_rank[: self.max_detail_nets]]

        # Phase 3: per-site scoring on the surviving nets (stems reuse phase 2).
        candidates: List[Candidate] = []
        for net_id in detail_nets:
            for site in self._sites_of_net(net_id):
                if site.kind == "stem":
                    candidates.append(stem_cand[net_id])
                    continue
                cand = self._score_site(site, sub, actual, n_actual)
                if cand is not None:
                    candidates.append(cand)
        if not candidates:
            return DiagnosisReport(candidates=[])
        # Rank in coarse confidence bands (commercial tools report equal-
        # confidence groups; ordering within a band is arbitrary), then trim
        # to the near-best band by raw score.
        candidates.sort(key=lambda c: (-self._band(c.score), c.site.label))
        best = max(c.score for c in candidates)
        kept = [c for c in candidates if c.score >= self.keep_ratio * best]
        return DiagnosisReport(candidates=kept[: self.max_candidates])

    @staticmethod
    def _band(score: float) -> int:
        """Quantize a match score into a ranking confidence band."""
        return int(score / 0.25)
