"""Unified observability layer: spans, metrics export, profiling hooks.

Three self-contained pieces (no :mod:`repro` imports, so any layer can use
them without cycles):

* :mod:`~repro.obs.spans` — hierarchical span tracer: context-manager API,
  parent/child nesting via dotted paths, per-span wall-clock + counters,
  thread-safe recording, and worker-process buffers merged back through
  the runtime's existing result channel;
* :mod:`~repro.obs.metrics` — stable-schema JSON and Prometheus-textfile
  exporters fed from the span tree (the only timer) plus the
  :class:`repro.runtime.RuntimeStats` counters (the ``--stats-out`` flag,
  rendered by ``repro stats``);
* :mod:`~repro.obs.profile` — opt-in per-unit profiling
  (``REPRO_PROFILE=cprofile|spans``) wrapping runtime work units and
  ``pipeline.fit`` stages.

Everything here is observability *sideband*: span and metrics data are
never part of cache keys, artifact payloads, or dataset fingerprints, so
tracing a build cannot change its bytes.
"""

from .metrics import (
    METRICS_SCHEMA,
    load_metrics,
    metrics_document,
    render_metrics,
    render_prometheus,
    write_metrics,
    write_prometheus,
)
from .profile import PROFILE_DIR_ENV, PROFILE_ENV, profile_dir, profile_mode, profiled
from .spans import (
    SpanRecord,
    SpanTracer,
    diff_spans,
    get_tracer,
    render_span_tree,
    reset_tracer,
    set_tracer,
)

__all__ = [
    "METRICS_SCHEMA",
    "PROFILE_DIR_ENV",
    "PROFILE_ENV",
    "SpanRecord",
    "SpanTracer",
    "diff_spans",
    "get_tracer",
    "load_metrics",
    "metrics_document",
    "profile_dir",
    "profile_mode",
    "profiled",
    "render_metrics",
    "render_prometheus",
    "render_span_tree",
    "reset_tracer",
    "set_tracer",
    "write_metrics",
    "write_prometheus",
]
