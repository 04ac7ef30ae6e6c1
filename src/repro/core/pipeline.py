"""End-to-end M3D fault-localization framework (paper Fig. 1).

``M3DDiagnosisFramework.fit`` trains the three GNN models and derives the
PR-curve threshold ``Tp`` from the training data; ``policy_for`` binds the
trained models to a target design (the same models transfer across design
configurations without retraining); ``diagnose`` post-processes one ATPG
report.  A :class:`BackupDictionary` records pruned candidates so the flow
is guaranteed to reach ATPG-level accuracy when the PFA falls back to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.cache import ArtifactCache

from ..diagnosis.report import Candidate, DiagnosisReport
from ..nn.backends import get_backend
from ..nn.data import GraphData
from ..obs import SpanTracer, profiled
from ..runtime.instrument import RuntimeStats
from ..tester.failure_log import FailureLog
from ..data.datagen import PreparedDesign
from ..data.datasets import SampleSet
from .backtrace import backtrace
from .classifier import PruneReorderClassifier
from .miv_pinpointer import MivPinpointer
from .policy import PolicyResult, PruneReorderPolicy
from .pr_curve import precision_recall_curve, select_threshold
from .tier_predictor import TierPredictor

__all__ = ["BackupDictionary", "M3DDiagnosisFramework"]


class BackupDictionary:
    """Pruned-candidate store keyed by chip id (paper Section VI-A).

    Whenever the pruning step removes candidates from a report they are
    recorded here; if PFA cannot find the defect in the pruned report the
    engineer falls back to this dictionary, recovering full ATPG accuracy.
    """

    def __init__(self) -> None:
        self._entries: Dict[object, List[Candidate]] = {}

    def record(self, chip_id: object, pruned: Sequence[Candidate]) -> None:
        if pruned:
            self._entries[chip_id] = list(pruned)

    def restore(self, chip_id: object, report: DiagnosisReport) -> DiagnosisReport:
        """The report with this chip's pruned candidates appended at the end."""
        extra = self._entries.get(chip_id, [])
        return DiagnosisReport(candidates=list(report.candidates) + list(extra))

    def __len__(self) -> int:
        return len(self._entries)

    def size_bytes(self) -> int:
        """Approximate memory footprint (the paper reports ~246 kB worst case)."""
        per_candidate = 48  # site ref + polarity + score + tier
        return sum(len(v) * per_candidate for v in self._entries.values())


class M3DDiagnosisFramework:
    """Trains and deploys Tier-predictor, MIV-pinpointer, and Classifier.

    Args:
        min_precision: PR-curve precision target that sets ``Tp`` (paper: 99%).
        hidden: GCN widths shared by the models.
        epochs: Training epochs per model.
        seed: Global seed for weight init and shuffling.
        use_miv_pinpointer / use_classifier: Ablation switches (Table XI).
        nn_backend: Tensor backend for all three GNN models ("numpy",
            "torch", ...); None consults ``$REPRO_NN_BACKEND`` and falls
            back to the numpy oracle.  Model weights stay backend-neutral,
            so a framework trained on one backend deploys on any other.
    """

    def __init__(
        self,
        min_precision: float = 0.99,
        hidden: Sequence[int] = (32, 32),
        epochs: int = 40,
        seed: int = 0,
        use_miv_pinpointer: bool = True,
        use_classifier: bool = True,
        n_tiers: int = 2,
        nn_backend: Optional[str] = None,
    ) -> None:
        self.min_precision = min_precision
        self.hidden = tuple(hidden)
        self.epochs = epochs
        self.seed = seed
        self.use_miv_pinpointer = use_miv_pinpointer
        self.use_classifier = use_classifier
        self.n_tiers = n_tiers
        self.nn_backend = nn_backend
        self.tier_predictor = TierPredictor(
            n_tiers=n_tiers, hidden=self.hidden, epochs=epochs, seed=seed, backend=nn_backend
        )
        self.miv_pinpointer: Optional[MivPinpointer] = (
            MivPinpointer(hidden=self.hidden, epochs=epochs, seed=seed + 1, backend=nn_backend)
            if use_miv_pinpointer
            else None
        )
        self.classifier: Optional[PruneReorderClassifier] = None
        self.tp_threshold: float = 1.0
        self._fitted = False
        # Bound-policy cache: ``policy_for`` is on the serving hot path
        # (every diagnose call), so the policy object is built once per
        # (design identity, use_tier) and reused until the models change.
        self._policy_cache: Dict[
            Tuple[int, bool], Tuple[PreparedDesign, PruneReorderPolicy]
        ] = {}

    # ------------------------------------------------------------------ fit
    def _checkpoint_key(self, training_sets: Sequence[SampleSet]) -> Dict[str, object]:
        """Content-addressed identity of one fit: data fingerprints + params."""
        from ..runtime.cache import CODE_VERSION
        from ..runtime.fingerprint import sample_set_fingerprint

        return {
            "artifact": "fit_stage",
            "version": CODE_VERSION,
            "data": [sample_set_fingerprint(s) for s in training_sets],
            "params": {
                "min_precision": self.min_precision,
                "hidden": list(self.hidden),
                "epochs": self.epochs,
                "seed": self.seed,
                "use_miv_pinpointer": self.use_miv_pinpointer,
                "use_classifier": self.use_classifier,
                "n_tiers": self.n_tiers,
                # Resolved backend spec: checkpoints trained on different
                # backends are distinct artifacts (float trajectories differ).
                "nn_backend": get_backend(self.nn_backend).spec,
            },
        }

    def fit(
        self,
        training_sets: Sequence[SampleSet],
        stats_sink: Optional[RuntimeStats] = None,
        checkpoint: Optional["ArtifactCache"] = None,
        tracer: Optional[SpanTracer] = None,
    ) -> Dict[str, float]:
        """Train all models from (augmented) training sample sets.

        Args:
            training_sets: Injected sample sets (one per augmentation design).
            stats_sink: Optional shared :class:`RuntimeStats` receiving the
                ``fit.<stage>.resumed`` counters — the runtime and CLI pass
                theirs so training shows up next to dataset generation.
            checkpoint: Optional :class:`repro.runtime.ArtifactCache`.  Each
                training stage (tier / miv / threshold / classifier) is then
                checkpointed under a key derived from the training-set
                fingerprints and the hyperparameters; an interrupted fit
                re-invoked on the same data resumes, loading completed
                stages instead of retraining them (visible as
                ``fit.<stage>.resumed`` counters with no ``fit.<stage>``
                span and no ``fit_<stage>_s`` entry).
            tracer: Optional span tracer; each training stage records a
                ``fit.<stage>`` span (nested under the caller's active
                span) and honours the ``REPRO_PROFILE`` per-stage
                profiling hooks.  Span/checkpoint keys never mix: spans
                are excluded from checkpoint identity.

        Returns summary statistics: training accuracy of the Tier-predictor,
        the selected ``Tp``, the TP:FP imbalance seen by the Classifier, and
        ``fit_<stage>_s`` seconds for each stage this call trained.
        """
        counters = stats_sink if stats_sink is not None else RuntimeStats()
        tr = tracer if tracer is not None else SpanTracer()
        # Refitting replaces the models: every cached bound policy is stale.
        self._policy_cache.clear()
        # The stages record into a tracer private to this call, so the
        # returned seconds are this fit's alone even when the caller's tracer
        # already holds earlier fits; the buffer then joins the caller's tree.
        stages = SpanTracer()
        with tr.span("fit"):
            try:
                stats = self._fit_impl(training_sets, counters, stages, checkpoint)
            finally:
                spans = stages.export()
                tr.merge(spans)
        for stage, rec in spans.items():
            if "." not in stage:
                stats[f"fit_{stage}_s"] = float(rec["seconds"])  # type: ignore[arg-type]
        return stats

    def _fit_impl(
        self,
        training_sets: Sequence[SampleSet],
        counters: RuntimeStats,
        tr: SpanTracer,
        checkpoint: Optional["ArtifactCache"],
    ) -> Dict[str, float]:
        graphs: List[GraphData] = []
        for s in training_sets:
            graphs.extend(s.graphs)
        if not graphs:
            raise ValueError("no training graphs")

        ckpt_key = self._checkpoint_key(training_sets) if checkpoint is not None else None

        def stage_load(stage: str) -> Tuple[object, bool]:
            if checkpoint is None:
                return None, False
            payload, hit = checkpoint.get("fit_stage", {**ckpt_key, "stage": stage})
            if hit:
                counters.count(f"fit.{stage}.resumed")
            return payload, hit

        def stage_save(stage: str, payload: object) -> None:
            if checkpoint is not None:
                checkpoint.put("fit_stage", {**ckpt_key, "stage": stage}, payload)

        tier_graphs = [g for g in graphs if g.y >= 0]
        payload, hit = stage_load("tier")
        if hit:
            self.tier_predictor = payload
        else:
            with profiled("fit-tier", tr), tr.span("tier"):
                self.tier_predictor.fit(tier_graphs)
            stage_save("tier", self.tier_predictor)

        if self.miv_pinpointer is not None:
            payload, hit = stage_load("miv")
            if hit:
                self.miv_pinpointer = payload
            else:
                miv_graphs = [
                    g for g in graphs if g.node_mask is not None and g.node_mask.any()
                ]
                if miv_graphs:
                    with profiled("fit-miv", tr), tr.span("miv"):
                        self.miv_pinpointer.fit(miv_graphs)
                else:
                    self.miv_pinpointer = None
                stage_save("miv", self.miv_pinpointer)

        # PR curve on the training set → Tp.
        payload, hit = stage_load("threshold")
        if hit:
            self.tp_threshold, conf, correct = payload
        else:
            with profiled("fit-threshold", tr), tr.span("threshold"):
                proba = self.tier_predictor.predict_proba(tier_graphs)
                preds = np.argmax(proba, axis=1)
                conf = proba.max(axis=1)
                truth = np.asarray([g.y for g in tier_graphs])
                correct = preds == truth
                curve = precision_recall_curve(conf, correct)
                self.tp_threshold = select_threshold(curve, self.min_precision)
            stage_save("threshold", (self.tp_threshold, conf, correct))

        # Classifier on Predicted Positive samples.
        stats = {
            "tier_train_accuracy": float(np.mean(correct)),
            "tp_threshold": self.tp_threshold,
            "n_true_positive": 0.0,
            "n_false_positive": 0.0,
        }
        if self.use_classifier:
            payload, hit = stage_load("classifier")
            if hit:
                self.classifier, n_tp, n_fp = payload
            else:
                positive = conf > self.tp_threshold
                tp_graphs = [g for g, p, c in zip(tier_graphs, positive, correct) if p and c]
                fp_graphs = [g for g, p, c in zip(tier_graphs, positive, correct) if p and not c]
                n_tp, n_fp = len(tp_graphs), len(fp_graphs)
                if tp_graphs:
                    self.classifier = PruneReorderClassifier(
                        self.tier_predictor,
                        epochs=max(10, self.epochs // 2),
                        seed=self.seed + 2,
                        backend=self.nn_backend,
                    )
                    with profiled("fit-classifier", tr), tr.span("classifier"):
                        self.classifier.fit(tp_graphs, fp_graphs)
                stage_save("classifier", (self.classifier, n_tp, n_fp))
            stats["n_true_positive"] = float(n_tp)
            stats["n_false_positive"] = float(n_fp)
        self._fitted = True
        return stats

    # ------------------------------------------------------------ deployment
    def policy_for(self, design: PreparedDesign, use_tier: bool = True) -> PruneReorderPolicy:
        """Bind the trained models to a (possibly different) target design.

        The bound policy is cached per (design, use_tier): repeated
        ``diagnose`` calls against the same design — the serving hot path —
        reuse one policy object instead of rebuilding it per request.  The
        cache is invalidated by :meth:`fit` (the models it binds change) and
        keyed by object identity, so a re-prepared design gets a fresh
        binding.
        """
        if not self._fitted:
            raise RuntimeError("framework is not fitted")
        key = (id(design), use_tier)
        hit = self._policy_cache.get(key)
        if hit is not None and hit[0] is design:
            return hit[1]
        policy = PruneReorderPolicy(
            tier_predictor=self.tier_predictor,
            miv_pinpointer=self.miv_pinpointer,
            classifier=self.classifier,
            het=design.het,
            tp_threshold=self.tp_threshold,
            use_tier=use_tier,
        )
        self._policy_cache[key] = (design, policy)
        return policy

    def subgraph_for_log(
        self, design: PreparedDesign, mode: str, log: FailureLog
    ) -> Optional[GraphData]:
        """Back-trace one failure log into an unlabeled sub-graph."""
        mask = backtrace(design.het, design.obsmap(mode), log)
        if not mask.any():
            return None
        return design.extractor.subgraph(mask)

    def localize(
        self, design: PreparedDesign, mode: str, log: FailureLog
    ) -> Tuple[int, float, List[int]]:
        """Tier-level localization only (no ATPG report needed).

        Returns (predicted tier, confidence, flagged MIV ids); tier -1 when
        the back-trace is empty.
        """
        graph = self.subgraph_for_log(design, mode, log)
        if graph is None:
            return -1, 0.0, []
        proba = self.tier_predictor.predict_proba([graph])[0]
        tier = int(np.argmax(proba))
        mivs: List[int] = []
        if self.miv_pinpointer is not None:
            nodes = self.miv_pinpointer.predict_faulty_mivs(graph)
            mivs = [int(design.het.miv_id[v]) for v in nodes]
        return tier, float(proba[tier]), mivs

    def diagnose_batch(
        self,
        design: PreparedDesign,
        mode: str,
        logs: Sequence[FailureLog],
        atpg_reports: Sequence[DiagnosisReport],
        backup: Optional[BackupDictionary] = None,
        chip_ids: Optional[Sequence[object]] = None,
        graphs: Optional[Sequence[Optional[GraphData]]] = None,
        stats: Optional[RuntimeStats] = None,
    ) -> List[PolicyResult]:
        """Post-process many ATPG reports with batched GNN predictions.

        The serving entry point: every request's back-traced sub-graph is
        packed into one block-diagonal batch per model, so a full request
        batch costs three GNN forwards instead of three per request.
        :meth:`diagnose` is this with a batch of one — offline and serving
        numerics are one code path by construction.

        Args:
            design: Target design bundle (shared by the whole batch).
            mode: Observation mode of the logs.
            logs: One failure log per request.
            atpg_reports: One ATPG report per request.
            backup: Optional backup dictionary for pruned candidates.
            chip_ids: Backup-dictionary keys, one per request (None entries
                allowed); defaults to None keys when a backup is given.
            graphs: Pre-computed sub-graphs, one per request (None entries
                back-trace on demand).
            stats: Optional counter sink.  Empty back-traces — silent
                ``passthrough`` results the policy never sees — are recorded
                as ``diagnose.empty_backtrace`` so serving dashboards can
                alert on degenerate submissions.
        """
        n = len(logs)
        if len(atpg_reports) != n:
            raise ValueError(f"{n} log(s) but {len(atpg_reports)} report(s)")
        if graphs is not None and len(graphs) != n:
            raise ValueError(f"{n} log(s) but {len(graphs)} graph(s)")
        if chip_ids is not None and len(chip_ids) != n:
            raise ValueError(f"{n} log(s) but {len(chip_ids)} chip id(s)")

        resolved: List[Optional[GraphData]] = [
            (graphs[i] if graphs is not None and graphs[i] is not None
             else self.subgraph_for_log(design, mode, logs[i]))
            for i in range(n)
        ]
        results: List[Optional[PolicyResult]] = [None] * n
        for i, g in enumerate(resolved):
            if g is None:
                if stats is not None:
                    stats.count("diagnose.empty_backtrace")
                results[i] = PolicyResult(
                    report=atpg_reports[i],
                    action="passthrough",
                    pruned=[],
                    predicted_tier=-1,
                    confidence=0.0,
                )
        live = [i for i, g in enumerate(resolved) if g is not None]
        if live:
            outs = self.policy_for(design).apply_batch(
                [atpg_reports[i] for i in live], [resolved[i] for i in live]
            )
            for i, out in zip(live, outs):
                results[i] = out
        final = [r for r in results if r is not None]
        if backup is not None:
            keys: Sequence[object] = chip_ids if chip_ids is not None else [None] * n
            for key, out in zip(keys, final):
                backup.record(key, out.pruned)
        return final

    def diagnose(
        self,
        design: PreparedDesign,
        mode: str,
        log: FailureLog,
        atpg_report: DiagnosisReport,
        backup: Optional[BackupDictionary] = None,
        chip_id: object = None,
        graph: Optional[GraphData] = None,
        stats: Optional[RuntimeStats] = None,
    ) -> PolicyResult:
        """Post-process one ATPG report with the GNN predictions.

        Args:
            design: Target design bundle.
            mode: Observation mode of the log.
            log: The failure log.
            atpg_report: Report from the ATPG diagnosis tool.
            backup: Optional backup dictionary to record pruned candidates.
            chip_id: Key for the backup dictionary.
            graph: Pre-computed sub-graph (skips re-running back-trace).
            stats: Optional counter sink (``diagnose.empty_backtrace``).
        """
        return self.diagnose_batch(
            design, mode, [log], [atpg_report],
            backup=backup, chip_ids=[chip_id],
            graphs=[graph] if graph is not None else None,
            stats=stats,
        )[0]
