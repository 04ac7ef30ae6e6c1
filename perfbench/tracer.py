"""Wrapper tracer: timed spans around each layer's public functions.

The benchmark never edits the program.  For a traced run it re-binds the
layer entry points listed in :data:`LAYER_TARGETS` to timing wrappers:

* module-level functions are wrapped once and the wrapper is bound under
  every name that held the original in any loaded ``repro`` module (so
  ``backtrace`` is traced whether it is called through ``data.datasets`` or
  ``core.pipeline``);
* methods (and classmethods) are wrapped on their class, so every instance
  and every importer sees the wrapper.

Each call records one span: name, start, end, parent span, the request id
it served (when it served one request) and the batch id (when it ran
inside a serve batch).  Self time is a span's duration minus the part its
child spans cover; :func:`aggregate` reduces spans to per-name self time,
total time, call count and item count.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "LAYER_TARGETS",
    "Tracer",
    "aggregate",
    "call_counts",
    "install",
    "selfcheck",
]

# Span record layout (a list, so the wrapper can fill the end in place).
NAME, START, END, PARENT, RID, BID, ITEMS = range(7)


def _n_arg(args: Sequence[Any], kwargs: Dict[str, Any], result: Any) -> int:
    """Length of the first argument after ``self`` (graphs, batch items)."""
    return len(args[1])


def _n_result(args: Sequence[Any], kwargs: Dict[str, Any], result: Any) -> int:
    return len(result)


@dataclass(frozen=True)
class Target:
    """One traced entry point: ``module:qualname`` recorded as ``span``."""

    module: str
    qualname: str
    span: str
    #: Item count of one call (graphs per forward, samples returned, ...).
    items: Optional[Callable[[Sequence[Any], Dict[str, Any], Any], int]] = None
    #: Request-context role, see :class:`Tracer` (``parse``, ``log``,
    #: ``uses_log``, ``rid_arg``, ``batch``, ``http``).
    role: Optional[str] = None


#: Every traced layer entry point.  Span names are ``<layer>.<what>``; the
#: layer is the repo package the code lives in.
LAYER_TARGETS: Tuple[Target, ...] = (
    # netlist / m3d / dft / analysis: design preparation controls.
    Target("repro.netlist.generators", "generate", "netlist.generate"),
    Target("repro.m3d.partition", "mincut_bipartition", "m3d.partition"),
    Target("repro.m3d.partition", "kway_partition", "m3d.partition"),
    Target("repro.m3d.partition", "apply_partition", "m3d.partition"),
    Target("repro.m3d.random_part", "random_bipartition", "m3d.partition"),
    Target("repro.m3d.spectral", "spectral_bipartition", "m3d.partition"),
    Target("repro.m3d.miv", "extract_mivs", "m3d.partition"),
    Target("repro.dft.scan", "build_scan_chains", "dft.scan"),
    Target("repro.dft.observation", "ObservationMap.bypass", "dft.scan"),
    Target("repro.dft.observation", "ObservationMap.compacted", "dft.scan"),
    Target("repro.dft.observation", "ObservationMap.misr", "dft.scan"),
    Target("repro.analysis.drc", "assert_clean", "analysis.drc"),
    # atpg / sim: pattern generation and fault simulation.
    Target("repro.atpg.tdf", "generate_tdf_patterns", "atpg.tdf"),
    Target("repro.atpg.podem", "Podem.generate_tdf_pair", "atpg.podem"),
    Target("repro.sim.faultsim", "FaultMachine.detects", "atpg.faultsim"),
    Target("repro.sim.faultsim", "FaultMachine.propagate", "sim.propagate"),
    Target("repro.sim.faultsim", "FaultMachine.propagate_multi", "sim.propagate"),
    Target("repro.sim.logicsim", "CompiledSimulator.simulate_pair", "sim.goodsim"),
    # core: graph construction, back-trace, featurization, policy.
    Target("repro.core.hetgraph", "HetGraph.build", "core.hetgraph"),
    Target("repro.core.backtrace", "backtrace", "core.backtrace"),
    Target("repro.core.features", "FeatureExtractor.subgraph", "core.subgraph"),
    Target("repro.core.pr_curve", "precision_recall_curve", "core.threshold"),
    Target("repro.core.pr_curve", "select_threshold", "core.threshold"),
    Target("repro.core.policy", "PruneReorderPolicy.apply_batch", "core.policy",
           items=_n_arg),
    Target("repro.core.pipeline", "M3DDiagnosisFramework.fit", "core.fit"),
    # tester: injection campaigns and datalog parsing.
    Target("repro.tester.injection", "InjectionCampaign.single_fault_samples",
           "tester.inject", items=_n_result),
    Target("repro.m3d.defects", "DefectSampler.sample_single", "tester.inject_try"),
    Target("repro.tester.datalog", "loads_datalog", "tester.parse", role="log"),
    # nn: training and batched inference.
    Target("repro.core.tier_predictor", "TierPredictor.fit", "nn.fit_tier"),
    Target("repro.core.miv_pinpointer", "MivPinpointer.fit", "nn.fit_miv"),
    Target("repro.core.classifier", "PruneReorderClassifier.fit", "nn.fit_classifier"),
    Target("repro.core.tier_predictor", "TierPredictor.predict_proba", "nn.infer",
           items=_n_arg),
    Target("repro.core.miv_pinpointer", "MivPinpointer.predict_node_proba_batch",
           "nn.infer", items=_n_arg),
    Target("repro.core.classifier", "PruneReorderClassifier.prune_probability",
           "nn.infer", items=_n_arg),
    # diagnosis: effect-cause ATPG diagnosis.
    Target("repro.diagnosis.effect_cause", "EffectCauseDiagnoser.diagnose",
           "diagnosis.effect_cause", role="uses_log"),
    Target("repro.diagnosis.effect_cause", "EffectCauseDiagnoser.suspect_nets",
           "diagnosis.suspects"),
    # runtime: the dataset runtime's two entry points (wall, not self).
    Target("repro.runtime.runtime", "DatasetRuntime.prepare_many", "runtime.prepare"),
    Target("repro.runtime.runtime", "DatasetRuntime.build_datasets", "runtime.dataset"),
    # serve: batcher callback, protocol, HTTP handler.
    Target("repro.serve.service", "DiagnosisService.process_batch", "serve.batch",
           items=_n_arg, role="batch"),
    Target("repro.serve.protocol", "parse_submission", "serve.parse", role="parse"),
    Target("repro.serve.protocol", "result_response", "serve.encode", role="rid_arg"),
    Target("repro.serve.protocol", "dumps_response", "serve.encode"),
    Target("repro.serve.server", "_Handler._diagnose", "serve.http", role="http"),
)


class Tracer:
    """In-memory span store plus the wrapper factory.

    Request context is thread-local.  ``serve.batch`` opens a batch id for
    everything under it; ``parse_submission`` names the request the batch
    thread is working on; the parsed log object remembers that request so
    effect-cause diagnosis of the same log (later, in the same batch) is
    billed to it; ``result_response`` carries the request id as an
    argument; the HTTP handler reads the client's ``X-Request-Id`` header.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self._local = threading.local()
        self._log_rids: Dict[int, Optional[str]] = {}
        self._batches = 0
        self._lock = threading.Lock()

    def _state(self) -> threading.local:
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.rid = None
            loc.bid = None
        return loc

    def wrap(self, fn: Callable[..., Any], target: Target) -> Callable[..., Any]:
        """A wrapper recording one span per call of ``fn``."""
        name, items, role = target.span, target.items, target.role
        spans, clock, tracer = self.spans, self.clock, self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            loc = tracer._state()
            rid, bid = loc.rid, loc.bid
            if role == "batch":
                with tracer._lock:
                    tracer._batches += 1
                    bid = loc.bid = tracer._batches
            elif role == "uses_log":
                rid = tracer._log_rids.get(id(args[1]), rid)
            elif role == "rid_arg":
                rid = args[1]
            elif role == "http":
                rid = args[0].headers.get("X-Request-Id")
            rec = [name, 0.0, 0.0, loc.stack[-1] if loc.stack else -1, rid, bid, 1]
            with tracer._lock:
                index = len(spans)
                spans.append(rec)
            loc.stack.append(index)
            result = None
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[END] = clock()
                loc.stack.pop()
                if items is not None and result is not None:
                    rec[ITEMS] = items(args, kwargs, result)
                if role == "batch":
                    loc.bid = loc.rid = None
                elif role == "parse" and result is not None:
                    loc.rid = rec[RID] = result.request_id
                elif role == "log" and result is not None:
                    rec[RID] = loc.rid
                    tracer._log_rids[id(result[1])] = loc.rid

        return traced

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()
            self._log_rids.clear()

    def export(self) -> List[list]:
        """Spans as JSON-ready lists (see the record layout constants)."""
        with self._lock:
            return [list(s) for s in self.spans]


def _resolve(target: Target) -> Tuple[Any, str, Any]:
    """(owner, attribute, raw attribute) for a target's qualname."""
    owner: Any = importlib.import_module(target.module)
    parts = target.qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


def install(tracer: Tracer, targets: Sequence[Target] = LAYER_TARGETS) -> None:
    """Wrap every target.

    Call after the program's modules are imported: module-level functions
    are re-bound in every loaded ``repro`` module that imported them.
    """
    for target in targets:
        owner, attr, raw = _resolve(target)
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, target)))
            else:
                setattr(owner, attr, tracer.wrap(raw, target))
            continue
        wrapper = tracer.wrap(raw, target)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, key, wrapper)


def aggregate(
    spans: Sequence[Sequence[Any]],
    scope: Optional[Callable[[str], bool]] = None,
) -> Dict[str, Dict[str, float]]:
    """Per span name: ``self_s``, ``total_s``, ``calls``, ``items``.

    Also keys ``<name>@<ancestor>`` for spans that ran under an ancestor
    span of another name (e.g. ``sim.propagate@diagnosis.effect_cause``),
    so one function can be billed to the layer that called it.  ``scope``
    keeps only spans whose root span's name it accepts.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    out: Dict[str, Dict[str, float]] = {}
    for i, s in enumerate(spans):
        keys = [s[NAME]]
        parent, root = s[PARENT], s[NAME]
        while parent >= 0:
            root = spans[parent][NAME]
            key = f"{s[NAME]}@{root}"
            if root != s[NAME] and key not in keys:
                keys.append(key)
            parent = spans[parent][PARENT]
        if scope is not None and not scope(root):
            continue
        total = s[END] - s[START]
        for key in keys:
            row = out.setdefault(key, {"self_s": 0.0, "total_s": 0.0, "calls": 0, "items": 0})
            row["self_s"] += total - child_time[i]
            row["total_s"] += total
            row["calls"] += 1
            row["items"] += s[ITEMS]
    return out


def call_counts(agg: Dict[str, Dict[str, float]]) -> Dict[str, int]:
    """Just the call counts, for run-to-run repeat checks."""
    return {k: int(v["calls"]) for k, v in sorted(agg.items())}


def selfcheck() -> List[str]:
    """Nested wrappers on a scripted clock: self = total - children.

    Returns a list of failures (empty when the tracer is sound).
    """
    now = [0.0]

    def clock() -> float:
        return now[0]

    tracer = Tracer(clock=clock)
    t_leaf = Target(__name__, "leaf", "t.leaf")
    t_mid = Target(__name__, "mid", "t.mid")
    t_top = Target(__name__, "top", "t.top")

    def leaf() -> None:
        now[0] += 2.0

    leaf_w = tracer.wrap(leaf, t_leaf)

    def mid() -> None:
        now[0] += 1.0
        leaf_w()
        leaf_w()
        now[0] += 0.5

    mid_w = tracer.wrap(mid, t_mid)

    def top() -> None:
        now[0] += 3.0
        mid_w()
        leaf_w()

    tracer.wrap(top, t_top)()
    agg = aggregate(tracer.export())
    expect = {
        "t.top": (3.0, 10.5, 1),
        "t.mid": (1.5, 5.5, 1),
        "t.leaf": (6.0, 6.0, 3),
        "t.leaf@t.mid": (4.0, 4.0, 2),
        "t.leaf@t.top": (6.0, 6.0, 3),
    }
    failures = []
    for key, (self_s, total_s, calls) in expect.items():
        row = agg.get(key)
        got = None if row is None else (row["self_s"], row["total_s"], row["calls"])
        if got != (self_s, total_s, calls):
            failures.append(f"{key}: expected {(self_s, total_s, calls)}, got {got}")
    # Self time of the whole tree must add up to the root's total.
    roots = sum(v["self_s"] for k, v in agg.items() if "@" not in k)
    if roots != agg["t.top"]["total_s"]:
        failures.append(f"self times sum to {roots}, root total {agg['t.top']['total_s']}")
    return failures
