"""Differential oracle for the packed effect-cause scorer.

:class:`ReferenceDiagnoser` is the set-based scorer the packed one replaced,
kept here as the test-local specification: per-net fan-in cones as Python
sets, per-candidate detection masks from :meth:`FaultMachine.propagate`
folded through :meth:`ObservationMap.fail_masks`, and (pattern, observation)
sets compared into TFSF/TFSP/TPSF.  The production diagnoser must reproduce
its reports candidate for candidate — sites, polarities, float scores,
counts, order and trimming — and its suspect lists exactly, under every
observation mode (bypass, XOR-compacted, MISR) and both simulator engines.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np
import pytest

from repro.atpg.faults import Fault, FaultSite, Polarity, site_tier, stem_site
from repro.diagnosis import Candidate, DiagnosisReport, EffectCauseDiagnoser
from repro.m3d import DefectSampler
from repro.netlist.topology import fanin_cone_nets
from repro.sim import CompiledSimulator, TwoPatternResult
from repro.tester import FailureLog, InjectionCampaign

MODES = ("bypass", "compacted", "misr")
ENGINES = ("packed", "uint8")
N_SINGLE = 30
N_MULTI = 10


class ReferenceDiagnoser(EffectCauseDiagnoser):
    """Set-based effect-cause scoring: the oracle, not a production path."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._transitions = self.good.transitions()
        self._net_cones: Dict[int, Set[int]] = {}

    def _cone(self, obs_net: int) -> Set[int]:
        cone = self._net_cones.get(obs_net)
        if cone is None:
            cone = self._net_cones[obs_net] = fanin_cone_nets(self.nl, obs_net)
        return cone

    def suspect_nets(self, log: FailureLog) -> List[int]:
        explain_count: Dict[int, int] = {}
        n_entries = len(log.entries)
        for entry in log.entries:
            union: Set[int] = set()
            for obs_net in self.obsmap.observations[entry.observation].nets:
                union.update(self._cone(obs_net))
            for net in union:
                if self._transitions[net, entry.pattern]:
                    explain_count[net] = explain_count.get(net, 0) + 1
        if not explain_count:
            return []
        best = max(explain_count.values())
        threshold = n_entries if best == n_entries else max(
            1, int(np.ceil(self.explain_fraction * best))
        )
        return sorted(net for net, c in explain_count.items() if c >= threshold)

    def _predicted_fails(
        self, fault: Fault, sub: TwoPatternResult, cols: np.ndarray
    ) -> Set[Tuple[int, int]]:
        detections = self.machine.propagate(fault, sub)
        predicted: Set[Tuple[int, int]] = set()
        for obs_id, mask in self.obsmap.fail_masks(detections).items():
            for p in np.nonzero(mask)[0]:
                predicted.add((int(cols[p]), obs_id))
        return predicted

    @staticmethod
    def _match(
        predicted: Set[Tuple[int, int]], actual: Set[Tuple[int, int]]
    ) -> Tuple[float, int, int, int]:
        tfsf = len(predicted & actual)
        tfsp = len(actual - predicted)
        tpsf = len(predicted - actual)
        denom = tfsf + tfsp + tpsf
        return (tfsf / denom if denom else 0.0), tfsf, tfsp, tpsf

    def _ref_score_site(
        self,
        site: FaultSite,
        sub: TwoPatternResult,
        cols: np.ndarray,
        actual: Set[Tuple[int, int]],
    ) -> Optional[Candidate]:
        best: Optional[Candidate] = None
        for polarity in (Polarity.SLOW_TO_RISE, Polarity.SLOW_TO_FALL):
            predicted = self._predicted_fails(Fault(site, polarity), sub, cols)
            score, tfsf, tfsp, tpsf = self._match(predicted, actual)
            if tfsf == 0:
                continue
            cand = Candidate(
                site=site, polarity=polarity, score=score,
                tier=site_tier(self.nl, site), tfsf=tfsf, tfsp=tfsp, tpsf=tpsf,
            )
            if best is None or (cand.score, -cand.tpsf) > (best.score, -best.tpsf):
                best = cand
        return best

    def diagnose(self, log: FailureLog) -> DiagnosisReport:
        if not log.entries:
            return DiagnosisReport(candidates=[])
        cols, sub = self._pattern_subset(log)
        col_set = set(int(c) for c in cols)
        actual = {
            (e.pattern, e.observation) for e in log.entries if e.pattern in col_set
        }
        stem_cand: Dict[int, Candidate] = {}
        net_rank = []
        for net_id in self.suspect_nets(log):
            cand = self._ref_score_site(stem_site(self.nl, net_id), sub, cols, actual)
            if cand is not None:
                stem_cand[net_id] = cand
                net_rank.append(((-cand.tfsf, cand.tpsf, -cand.score), net_id))
        net_rank.sort()
        candidates: List[Candidate] = []
        for _key, net_id in net_rank[: self.max_detail_nets]:
            for site in self._sites_of_net(net_id):
                if site.kind == "stem":
                    candidates.append(stem_cand[net_id])
                    continue
                cand = self._ref_score_site(site, sub, cols, actual)
                if cand is not None:
                    candidates.append(cand)
        if not candidates:
            return DiagnosisReport(candidates=[])
        candidates.sort(key=lambda c: (-self._band(c.score), c.site.label))
        best = max(c.score for c in candidates)
        kept = [c for c in candidates if c.score >= self.keep_ratio * best]
        return DiagnosisReport(candidates=kept[: self.max_candidates])


@pytest.fixture(scope="module", params=MODES)
def chips(request, prepared):
    """Single- and multi-fault chips plus an empty log, for one mode."""
    obsmap = prepared.obsmap(request.param)
    sampler = DefectSampler(prepared.nl, prepared.mivs, seed=47)
    campaign = InjectionCampaign(prepared.machine, prepared.good, obsmap, sampler)
    logs = [s.log for s in campaign.single_fault_samples(N_SINGLE)]
    logs += [s.log for s in campaign.multi_fault_samples(N_MULTI)]
    logs.append(FailureLog(entries=[], compacted=obsmap.compacted))
    return obsmap, logs


@pytest.fixture(scope="module", params=ENGINES)
def sim(request, prepared):
    if request.param == "packed":
        return prepared.sim
    return CompiledSimulator(prepared.nl, packed=False)


def _pair(prepared, obsmap, sim):
    kwargs = dict(mivs=prepared.mivs, sim=sim)
    return (
        EffectCauseDiagnoser(prepared.nl, obsmap, prepared.patterns, **kwargs),
        ReferenceDiagnoser(prepared.nl, obsmap, prepared.patterns, **kwargs),
    )


def test_enough_chips(chips):
    _obsmap, logs = chips
    assert len(logs) == N_SINGLE + N_MULTI + 1
    assert sum(1 for log in logs if not log.entries) == 1


def test_reports_identical(prepared, chips, sim):
    obsmap, logs = chips
    packed, reference = _pair(prepared, obsmap, sim)
    n_nonempty = 0
    for i, log in enumerate(logs):
        got = packed.diagnose(log).candidates
        assert got == reference.diagnose(log).candidates, f"chip {i}"
        n_nonempty += bool(got)
    assert n_nonempty >= len(logs) // 2  # the oracle is not comparing empties


def test_suspects_identical(prepared, chips, sim):
    obsmap, logs = chips
    packed, reference = _pair(prepared, obsmap, sim)
    for i, log in enumerate(logs):
        assert packed.suspect_nets(log) == reference.suspect_nets(log), f"chip {i}"


def test_cone_rows_built_lazily(prepared, chips):
    obsmap, logs = chips
    diag = EffectCauseDiagnoser(
        prepared.nl, obsmap, prepared.patterns, mivs=prepared.mivs, sim=prepared.sim
    )
    assert not diag._cone_rows
    log = next(log for log in logs if log.entries)
    diag.suspect_nets(log)
    assert set(diag._cone_rows) == {e.observation for e in log.entries}
