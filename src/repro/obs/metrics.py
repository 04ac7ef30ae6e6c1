"""Metrics export: stable-schema JSON and Prometheus textfiles.

One *metrics document* snapshots everything the runtime knows about a run:
the span tree (:class:`repro.obs.SpanTracer`, the only wall-clock source),
the free-form counters (:class:`repro.runtime.RuntimeStats`), and derived
views (cache hit ratios per artifact kind, fault-tolerance, distributed-
runtime and serving events) that the ``repro stats`` renderer and
dashboards both want pre-computed.

The JSON schema is versioned (:data:`METRICS_SCHEMA`) and additive-only:
consumers pin ``schema`` and ignore unknown keys.  The Prometheus writer
emits the node-exporter *textfile collector* format — drop the file into
``--collector.textfile.directory`` and every span/counter scrapes as a
labelled counter.  Metrics are observability sideband: they are never
hashed into cache keys or dataset fingerprints.

Self-contained (no :mod:`repro` imports); stats objects are duck-typed via
:class:`StatsLike` so this module stays import-cycle-free.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Protocol, Union

from .spans import SpanExport, SpanTracer, render_span_tree

__all__ = [
    "METRICS_SCHEMA",
    "StatsLike",
    "load_metrics",
    "metrics_document",
    "render_metrics",
    "render_prometheus",
    "write_metrics",
    "write_prometheus",
]

#: Version of the JSON metrics schema.  Bump only on breaking shape changes;
#: additions are backwards-compatible and do not bump.  Schema 2 dropped the
#: ``stages`` view: every interval is a span path.
METRICS_SCHEMA = 2

#: File suffixes routed to the Prometheus-textfile writer by
#: :func:`write_metrics`; anything else gets JSON.
_PROM_SUFFIXES = (".prom", ".txt")


class StatsLike(Protocol):
    """Structural view of :class:`repro.runtime.RuntimeStats`."""

    counters: Dict[str, int]


def _cache_view(counters: Dict[str, int]) -> Dict[str, Any]:
    """Per-kind and overall hit/miss tallies from ``cache.<kind>.<event>``."""
    kinds: Dict[str, Dict[str, Any]] = {}
    for name, value in counters.items():
        parts = name.split(".")
        if len(parts) != 3 or parts[0] != "cache" or parts[2] not in ("hit", "miss"):
            continue
        entry = kinds.setdefault(parts[1], {"hits": 0, "misses": 0})
        entry["hits" if parts[2] == "hit" else "misses"] += value

    def ratio(hits: int, misses: int) -> Optional[float]:
        total = hits + misses
        return (hits / total) if total else None

    for entry in kinds.values():
        entry["hit_ratio"] = ratio(entry["hits"], entry["misses"])
    hits = sum(e["hits"] for e in kinds.values())
    misses = sum(e["misses"] for e in kinds.values())
    return {
        "hits": hits,
        "misses": misses,
        "hit_ratio": ratio(hits, misses),
        "kinds": {k: kinds[k] for k in sorted(kinds)},
    }


def _faulttol_view(counters: Dict[str, int]) -> Dict[str, Any]:
    """Fault-tolerance events: the full ``faulttol.*`` map plus per-event totals."""
    events = {k: v for k, v in counters.items() if k.startswith("faulttol.")}
    totals: Dict[str, int] = {}
    for name, value in events.items():
        event = name.rpartition(".")[2]
        totals[event] = totals.get(event, 0) + value
    return {
        "events": {k: events[k] for k in sorted(events)},
        "totals": {k: totals[k] for k in sorted(totals)},
    }


def _dist_view(counters: Dict[str, int]) -> Dict[str, Any]:
    """Distributed-runtime events: the ``dist.*`` map plus derived health.

    ``remote_share`` is the fraction of completed units that came back over
    the wire (vs. the local fallback ladder) — 1.0 means the cluster did all
    the work, 0.0 means every unit degraded to local execution.
    """
    events = {k: v for k, v in counters.items() if k.startswith("dist.")}
    remote = events.get("dist.results_remote", 0)
    local = events.get("dist.fallback_units", 0)
    done = remote + local
    return {
        "events": {k: events[k] for k in sorted(events)},
        "remote_share": (remote / done) if done else None,
    }


def _serving_view(counters: Dict[str, int]) -> Dict[str, Any]:
    """Serving-path health: admission, batching, and diagnosis anomalies.

    ``accepted``/``rejected`` tally queue admission decisions (the rejected
    map breaks them down by cause: queue_full backpressure, malformed
    requests, missing models).  ``mean_batch_size`` is the realized
    block-diagonal packing — 1.0 means the batcher never coalesced anything.
    ``empty_backtrace`` counts diagnoses that short-circuited because the
    failure log back-traced to nothing.
    """
    rejected = {
        k.split(".", 2)[2]: v
        for k, v in counters.items()
        if k.startswith("serve.rejected.")
    }
    batches = counters.get("serve.batches", 0)
    batched = counters.get("serve.batched", 0)
    return {
        "accepted": counters.get("serve.accepted", 0),
        "rejected": {k: rejected[k] for k in sorted(rejected)},
        "responses": counters.get("serve.responses", 0),
        "batches": batches,
        "batched_requests": batched,
        "batch_errors": counters.get("serve.batch_errors", 0),
        "mean_batch_size": (batched / batches) if batches else None,
        "empty_backtrace": counters.get("diagnose.empty_backtrace", 0),
    }


def metrics_document(stats: StatsLike, tracer: Optional[SpanTracer] = None,
                     spans: Optional[SpanExport] = None) -> Dict[str, Any]:
    """The stable-schema metrics document for one run.

    Args:
        stats: Event counters (any :class:`StatsLike`).
        tracer: Span source; ignored when ``spans`` is given explicitly.
        spans: Pre-exported span map (e.g. loaded from another process).
    """
    if spans is None:
        spans = tracer.export() if tracer is not None else {}
    return {
        "schema": METRICS_SCHEMA,
        "counters": {k: stats.counters[k] for k in sorted(stats.counters)},
        "spans": {k: spans[k] for k in sorted(spans)},
        "cache": _cache_view(stats.counters),
        "faulttol": _faulttol_view(stats.counters),
        "dist": _dist_view(stats.counters),
        "serving": _serving_view(stats.counters),
    }


# ------------------------------------------------------------------ writers
def _prom_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_lines(doc: Dict[str, Any]) -> Iterable[str]:
    series = (
        ("repro_span_seconds_total", "Accumulated wall-clock per span path.",
         "span", {k: v["seconds"] for k, v in doc["spans"].items()}),
        ("repro_span_calls_total", "Completed spans per span path.",
         "span", {k: v["calls"] for k, v in doc["spans"].items()}),
        ("repro_counter_total", "Free-form runtime event counters.",
         "name", doc["counters"]),
        ("repro_cache_hits_total", "Artifact-cache hits per kind.",
         "kind", {k: v["hits"] for k, v in doc["cache"]["kinds"].items()}),
        ("repro_cache_misses_total", "Artifact-cache misses per kind.",
         "kind", {k: v["misses"] for k, v in doc["cache"]["kinds"].items()}),
    )
    for metric, help_text, label, values in series:
        if not values:
            continue
        yield f"# HELP {metric} {help_text}"
        yield f"# TYPE {metric} counter"
        for key in sorted(values):
            value = values[key]
            formatted = f"{value:.9g}" if isinstance(value, float) else str(value)
            yield f'{metric}{{{label}="{_prom_escape(key)}"}} {formatted}'


def render_prometheus(doc: Dict[str, Any]) -> str:
    """Render ``doc`` in Prometheus exposition format (``GET /metrics``)."""
    return "\n".join(_prom_lines(doc)) + "\n"


def write_prometheus(path: Union[str, os.PathLike], doc: Dict[str, Any]) -> Path:
    """Write ``doc`` in Prometheus textfile-collector format."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_prometheus(doc), encoding="utf-8")
    return out


def write_metrics(path: Union[str, os.PathLike], stats: StatsLike,
                  tracer: Optional[SpanTracer] = None) -> Path:
    """Export one metrics snapshot to ``path``.

    ``.prom``/``.txt`` suffixes get the Prometheus textfile format; every
    other suffix gets the stable-schema JSON document.
    """
    doc = metrics_document(stats, tracer)
    out = Path(path)
    if out.suffix in _PROM_SUFFIXES:
        return write_prometheus(out, doc)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return out


def load_metrics(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    """Load and validate one JSON metrics document.

    Raises:
        ValueError: Not a metrics document, or an unsupported schema version.
    """
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or "schema" not in doc:
        raise ValueError(f"{path}: not a repro metrics document")
    if doc["schema"] != METRICS_SCHEMA:
        raise ValueError(
            f"{path}: unsupported metrics schema {doc['schema']!r} "
            f"(this build reads schema {METRICS_SCHEMA})"
        )
    return doc


# ----------------------------------------------------------------- renderer
def render_metrics(doc: Dict[str, Any], top: int = 10) -> str:
    """Human-readable rendering of a metrics document (``repro stats``).

    Sections: the span tree, the top-N span paths by total seconds, cache
    hit ratios per artifact kind, and fault-tolerance events (retries,
    timeouts, pool respawns, degradations, aborts) — the questions "where
    did the time go", "did the cache help", and "what went wrong" in one
    screen.
    """
    spans = doc.get("spans", {})
    lines = [render_span_tree(spans)]

    timed = {path: rec for path, rec in spans.items() if rec.get("calls")}
    if timed:
        ranked = sorted(timed.items(), key=lambda kv: (-kv[1]["seconds"], kv[0]))[:top]
        width = max(len(name) for name, _ in ranked)
        lines.append(f"\ntop {len(ranked)} span(s) by wall-clock:")
        for name, entry in ranked:
            lines.append(
                f"  {name:<{width}s} {entry['seconds']:9.3f}s {entry['calls']:6d} calls"
            )

    cache = doc.get("cache", {})
    kinds = cache.get("kinds", {})
    if kinds:
        lines.append("\ncache hit ratios:")
        width = max(len(k) for k in kinds)
        for kind in sorted(kinds):
            entry = kinds[kind]
            ratio = entry.get("hit_ratio")
            shown = f"{ratio * 100:5.1f}%" if ratio is not None else "   n/a"
            lines.append(
                f"  {kind:<{width}s} {shown}  ({entry['hits']} hit(s), "
                f"{entry['misses']} miss(es))"
            )
        overall = cache.get("hit_ratio")
        if overall is not None:
            lines.append(
                f"  overall: {overall * 100:.1f}% of {cache['hits'] + cache['misses']} "
                "lookup(s)"
            )

    events = doc.get("faulttol", {}).get("events", {})
    lines.append("\nfaulttol events:")
    if events:
        width = max(len(k) for k in events)
        for name in sorted(events):
            lines.append(f"  {name:<{width}s} {events[name]:6d}")
    else:
        lines.append("  (none — no retries, timeouts, respawns, or degradations)")

    dist = doc.get("dist", {})
    dist_events = dist.get("events", {})
    if dist_events:
        lines.append("\ndistributed runtime:")
        width = max(len(k) for k in dist_events)
        for name in sorted(dist_events):
            lines.append(f"  {name:<{width}s} {dist_events[name]:6d}")
        share = dist.get("remote_share")
        if share is not None:
            lines.append(f"  remote share: {share * 100:.1f}% of completed units")

    serving = doc.get("serving", {})
    if serving.get("accepted") or serving.get("rejected") or serving.get("responses"):
        lines.append("\nserving:")
        lines.append(
            f"  accepted: {serving.get('accepted', 0)}  "
            f"responses: {serving.get('responses', 0)}  "
            f"batch errors: {serving.get('batch_errors', 0)}"
        )
        mean = serving.get("mean_batch_size")
        if mean is not None:
            lines.append(
                f"  batches: {serving.get('batches', 0)} "
                f"(mean size {mean:.1f} request(s))"
            )
        rejected = serving.get("rejected", {})
        for cause in sorted(rejected):
            lines.append(f"  rejected.{cause}: {rejected[cause]}")
        empty = serving.get("empty_backtrace", 0)
        if empty:
            lines.append(f"  empty back-traces: {empty}")
    return "\n".join(lines)
