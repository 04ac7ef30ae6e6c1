"""The diagnosis service: datalog → back-trace → batched GNN → response.

:class:`DiagnosisService` is the batch processor behind both front-ends
(HTTP and stdin-JSONL).  One call receives a mixed slice of queued
submissions, validates each one independently (malformed requests become
structured error responses, never exceptions), groups the valid ones by
(design, mode), and runs **one** ``diagnose_batch`` per group — which packs
every request sub-graph of the group into one block-diagonal GCN forward
per model.

Per-request provenance records exactly which artifacts answered: the model
version and design config from the registry, the tensor backend, the batch
size the request rode in, and span timings (queue wait, ATPG, batched
inference).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.pipeline import BackupDictionary
from ..data.datagen import PreparedDesign
from ..diagnosis.effect_cause import EffectCauseDiagnoser
from ..obs import SpanTracer
from ..runtime.instrument import RuntimeStats
from ..tester.datalog import loads_datalog
from .batcher import BatchItem
from .protocol import (
    ProtocolError,
    Submission,
    error_response,
    parse_submission,
    result_response,
)
from .registry import ModelRegistry, UnknownModelError

__all__ = ["DesignContext", "DiagnosisService"]


@dataclass
class DesignContext:
    """One served design: the prepared bundle plus its diagnosis tooling."""

    name: str
    design: PreparedDesign
    default_mode: str = "bypass"
    backup: Optional[BackupDictionary] = None
    _diagnosers: Dict[str, EffectCauseDiagnoser] = field(
        default_factory=dict, repr=False
    )

    @property
    def config_name(self) -> str:
        """The design-configuration name models are registered under."""
        return self.design.config.name

    def diagnoser(self, mode: str) -> EffectCauseDiagnoser:
        """The (lazily built, cached) effect-cause diagnoser for one mode."""
        diag = self._diagnosers.get(mode)
        if diag is None:
            diag = EffectCauseDiagnoser(
                self.design.nl,
                self.design.obsmap(mode),
                self.design.patterns,
                mivs=self.design.mivs,
                sim=self.design.sim,
            )
            self._diagnosers[mode] = diag
        return diag


class DiagnosisService:
    """Registry + designs + the batch-processing callback.

    Args:
        registry: Versioned model store; requests resolve the *active*
            record for their design's configuration at batch time.
        designs: Served designs by name.
        stats: Counter sink shared with the front-ends.
        tracer: Span sink (``serve.batch`` / ``serve.atpg`` /
            ``serve.infer``).
    """

    def __init__(
        self,
        registry: ModelRegistry,
        designs: Dict[str, DesignContext],
        stats: Optional[RuntimeStats] = None,
        tracer: Optional[SpanTracer] = None,
    ) -> None:
        if not designs:
            raise ValueError("a diagnosis service needs at least one design")
        self.registry = registry
        self.designs = dict(designs)
        self.stats = stats if stats is not None else RuntimeStats()
        self.tracer = tracer if tracer is not None else SpanTracer()
        self._default_design = next(iter(designs)) if len(designs) == 1 else None

    # ------------------------------------------------------------ validation
    def _resolve(self, submission: Submission) -> Tuple[DesignContext, str]:
        """Pick the design context and mode, or raise a protocol error."""
        name = submission.design or self._default_design
        if name is None:
            raise ProtocolError(
                "bad_request",
                f"'design' is required (serving: {', '.join(sorted(self.designs))})",
            )
        ctx = self.designs.get(name)
        if ctx is None:
            raise ProtocolError(
                "unknown_design",
                f"unknown design {name!r} (serving: {', '.join(sorted(self.designs))})",
            )
        mode = submission.mode or ctx.default_mode
        if mode not in ctx.design.obsmaps:
            raise ProtocolError(
                "unknown_mode",
                f"unknown mode {mode!r} for design {name!r} "
                f"(have: {', '.join(sorted(ctx.design.obsmaps))})",
            )
        return ctx, mode

    # ---------------------------------------------------------- batch entry
    def process_batch(self, items: List[BatchItem]) -> List[Dict[str, Any]]:
        """Turn one drained queue slice into one response per item."""
        t_batch = time.perf_counter()
        with self.tracer.span("serve.batch"):
            return self._process_batch_impl(items, t_batch)

    def _process_batch_impl(
        self, items: List[BatchItem], t_batch: float
    ) -> List[Dict[str, Any]]:
        n = len(items)
        responses: List[Optional[Dict[str, Any]]] = [None] * n

        # Validate each submission independently; parse failures become
        # structured per-request errors and drop out of the batch.
        parsed: Dict[int, Tuple[Submission, DesignContext, str, str, Any]] = {}
        groups: Dict[Tuple[str, str], List[int]] = {}
        for i, item in enumerate(items):
            try:
                submission = (
                    item.payload
                    if isinstance(item.payload, Submission)
                    else parse_submission(item.payload)
                )
                ctx, mode = self._resolve(submission)
                chip_id, log = loads_datalog(
                    submission.datalog, ctx.design.obsmap(mode)
                )
            except ProtocolError as exc:
                self.stats.count("serve.rejected.bad_request")
                responses[i] = error_response(exc.kind, str(exc), _rid(item))
                continue
            except ValueError as exc:
                self.stats.count("serve.rejected.bad_datalog")
                responses[i] = error_response("bad_datalog", str(exc), _rid(item))
                continue
            parsed[i] = (submission, ctx, mode, chip_id, log)
            groups.setdefault((ctx.name, mode), []).append(i)

        # One diagnose_batch per (design, mode) group: the whole group's
        # sub-graphs share a block-diagonal forward per model.
        for (design_name, mode), members in groups.items():
            ctx = self.designs[design_name]
            try:
                record = self.registry.active(ctx.config_name)
            except UnknownModelError as exc:
                for i in members:
                    self.stats.count("serve.rejected.no_model")
                    responses[i] = error_response(
                        "no_model", str(exc), parsed[i][0].request_id
                    )
                continue

            logs = [parsed[i][4] for i in members]
            reports = []
            with self.tracer.span("serve.atpg"):
                t0 = time.perf_counter()
                for i in members:
                    submission = parsed[i][0]
                    if submission.report is not None:
                        reports.append(submission.report)
                    else:
                        reports.append(ctx.diagnoser(mode).diagnose(parsed[i][4]))
                atpg_s = time.perf_counter() - t0

            with self.tracer.span("serve.infer"):
                t0 = time.perf_counter()
                results = record.framework.diagnose_batch(
                    ctx.design, mode, logs, reports,
                    backup=ctx.backup,
                    chip_ids=[parsed[i][3] for i in members],
                    stats=self.stats,
                )
                infer_s = time.perf_counter() - t0

            for i, result in zip(members, results):
                submission, ctx_i, mode_i, chip_id, _log = parsed[i]
                provenance = {
                    "design": ctx_i.name,
                    "config": ctx_i.config_name,
                    "mode": mode_i,
                    "model_version": record.version,
                    "nn_backend": record.backend,
                    "batch_size": n,
                    "timings": {
                        "queue_s": round(t_batch - items[i].enqueued_at, 6),
                        "atpg_s": round(atpg_s, 6),
                        "infer_s": round(infer_s, 6),
                    },
                }
                responses[i] = result_response(
                    result, submission.request_id, chip_id, provenance
                )
                self.stats.count("serve.responses")

        # Every slot is filled by construction; make that an invariant.
        return [
            r if r is not None else error_response("internal", "unprocessed request")
            for r in responses
        ]


def _rid(item: BatchItem) -> Optional[str]:
    """Best-effort request id from an unvalidated payload (for error echo)."""
    payload = item.payload
    if isinstance(payload, Submission):
        return payload.request_id
    if isinstance(payload, dict):
        rid = payload.get("id")
        if isinstance(rid, (str, int)):
            return str(rid)
    return None
