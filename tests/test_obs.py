"""Observability layer: span tracer, metrics export, profiling hooks.

Covers the tentpole (hierarchical spans, worker-buffer merging, JSON /
Prometheus export, ``repro stats`` rendering, ``REPRO_PROFILE`` hooks) and
the instrumentation bugfix sweep (cache-counter scoping, ``RuntimeStats``
pickling, report alignment, interrupt-path tmp collection).
"""

from __future__ import annotations

import json
import pickle
import re
import threading

import pytest

from repro.obs import (
    METRICS_SCHEMA,
    SpanTracer,
    diff_spans,
    load_metrics,
    metrics_document,
    profiled,
    render_metrics,
    render_span_tree,
    write_metrics,
)
from repro.runtime import DatasetRuntime, RuntimeStats, sample_set_fingerprint
from repro.runtime.instrument import null_progress

N_SAMPLES = 40  # 3 chunks at the default 16-sample grid
SEED = 4242


# ------------------------------------------------------------------ spans
def test_span_nesting_builds_dotted_paths():
    tr = SpanTracer()
    with tr.span("tables"):
        with tr.span("table9"):
            with tr.span("dataset"):
                pass
        with tr.span("table9"):
            pass
    spans = tr.export()
    assert set(spans) == {"tables", "tables.table9", "tables.table9.dataset"}
    assert spans["tables"]["calls"] == 1
    assert spans["tables.table9"]["calls"] == 2
    # A parent's wall-clock dominates its children's.
    assert spans["tables"]["seconds"] >= spans["tables.table9.dataset"]["seconds"]


def test_span_counters_attach_to_active_span():
    tr = SpanTracer()
    with tr.span("dataset"):
        tr.count("samples", 16)
        tr.count("samples", 8)
    tr.count("stray")  # outside any span: lands on the root record
    spans = tr.export()
    assert spans["dataset"]["counters"] == {"samples": 24}
    assert spans[""]["counters"] == {"stray": 1}
    assert "(root)" in render_span_tree(spans)


def test_span_dotted_names_add_levels():
    tr = SpanTracer()
    with tr.span("dataset"):
        with tr.span("cache.load"):
            pass
    assert "dataset.cache.load" in tr.export()
    tree = render_span_tree(tr.export())
    # The synthesized intermediate "cache" level nests "load" under it.
    assert re.search(r"^\s+cache\b", tree, re.M)
    assert re.search(r"^\s+load\b", tree, re.M)


def test_span_merge_reroots_worker_buffers_under_active_span():
    worker = SpanTracer()
    with worker.span("chunk"):
        worker.count("samples", 16)
    exported = worker.export()

    parent = SpanTracer()
    with parent.span("tables"):
        with parent.span("dataset"):
            parent.merge(exported)
            parent.merge(exported)
    spans = parent.export()
    assert spans["tables.dataset.chunk"]["calls"] == 2
    assert spans["tables.dataset.chunk"]["counters"] == {"samples": 32}


def test_span_merge_explicit_prefix_and_root():
    worker = SpanTracer()
    with worker.span("design"):
        pass
    parent = SpanTracer()
    parent.merge(worker.export(), prefix="prepare")
    parent.merge(worker.export(), prefix="")
    spans = parent.export()
    assert spans["prepare.design"]["calls"] == 1
    assert spans["design"]["calls"] == 1


def test_span_thread_safety_separate_stacks():
    tr = SpanTracer()
    barrier = threading.Barrier(2)

    def record(name: str) -> None:
        barrier.wait()
        for _ in range(50):
            with tr.span(name):
                with tr.span("inner"):
                    pass

    threads = [threading.Thread(target=record, args=(n,)) for n in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    spans = tr.export()
    # No cross-thread path pollution: each thread nested under its own root.
    assert spans["a"]["calls"] == 50 and spans["a.inner"]["calls"] == 50
    assert spans["b"]["calls"] == 50 and spans["b.inner"]["calls"] == 50
    assert not any(".a" in p or ".b" in p for p in spans)


def test_diff_spans_isolates_one_interval():
    tr = SpanTracer()
    with tr.span("fit"):
        with tr.span("tier"):
            pass
    before = tr.export()
    with tr.span("fit"):
        with tr.span("classifier"):
            tr.count("graphs", 3)
    delta = diff_spans(before, tr.export())
    assert set(delta) == {"fit", "fit.classifier"}
    assert delta["fit"]["calls"] == 1  # only the second fit interval
    assert delta["fit.classifier"]["counters"] == {"graphs": 3}


def test_render_span_tree_empty():
    assert "no recorded spans" in render_span_tree({})


# ------------------------------------------------- RuntimeStats bugfix sweep
def test_cache_hit_scoping_regression():
    """Only ``cache.*`` counters are cache traffic — not any ``*.hit/.miss``."""
    stats = RuntimeStats()
    stats.count("cache.design.hit", 2)
    stats.count("cache.sample_chunk.miss", 3)
    stats.count("retry.miss", 5)     # the over-match the old suffix check had
    stats.count("rate_limit.hit", 7)
    assert stats.cache_hits == 2
    assert stats.cache_misses == 3


def test_runtime_stats_pickles_with_lambda_progress_sink():
    stats = RuntimeStats()
    stats.progress = lambda msg: None  # non-module-level: unpicklable as-is
    stats.count("cache.design.hit")
    clone = pickle.loads(pickle.dumps(stats))
    assert clone.progress is null_progress
    clone.emit("no crash")  # the restored sink is callable
    assert clone.counters == stats.counters
    # The original object keeps its sink — only the wire copy drops it.
    assert stats.progress is not null_progress


def test_report_aligns_long_dotted_stage_names():
    stats = RuntimeStats()
    long = "faulttol.tables.table9.dataset.chunk.retries"
    assert len(long) > 28
    stats.count(long, 1)
    stats.count("short", 2)
    stats.count("cache.design.hit", 3)
    lines = stats.report().splitlines()[1:]
    # One shared name-column width sized to the longest key: each value is an
    # 8-char right-aligned field starting right after it.
    width = len(long)
    for ln in lines:
        name = ln[2 : 2 + width].rstrip()
        assert name in {long, "short", "cache.design.hit"}, ln
        value = ln[2 + width + 1 : 2 + width + 9]
        assert len(value) == 8 and value.lstrip()[0].isdigit(), f"misaligned: {ln!r}"


def test_runtime_stats_merge_and_timed_nesting():
    """Intervals nest and merge as spans; counters merge as RuntimeStats."""
    outer = SpanTracer()
    with outer.span("outer"):
        with outer.span("inner"):
            pass
    spans = outer.export()
    assert {p: r["calls"] for p, r in spans.items()} == {"outer": 1, "outer.inner": 1}
    assert spans["outer"]["seconds"] >= spans["outer.inner"]["seconds"]

    worker = SpanTracer()
    with worker.span("outer"):
        pass
    outer.merge(worker.export(), prefix="")
    assert outer.export()["outer"]["calls"] == 2

    stats, worker_stats = RuntimeStats(), RuntimeStats()
    worker_stats.count("cache.design.hit", 2)
    stats.merge(worker_stats)
    assert stats.counters["cache.design.hit"] == 2
    assert set(vars(stats)) == {"counters", "progress"}  # no timer state


# ---------------------------------------------------------- runtime + spans
def _span_calls(tracer):
    return {path: rec["calls"] for path, rec in tracer.export().items()}


def test_parallel_worker_span_merge_equals_serial(prepared):
    """The acceptance bar: 4-worker span tree ≡ serial tree in call counts."""
    serial_tracer = SpanTracer()
    serial = DatasetRuntime(workers=1, tracer=serial_tracer).build_dataset(
        prepared, "bypass", N_SAMPLES, SEED
    )
    par_tracer = SpanTracer()
    par = DatasetRuntime(workers=4, tracer=par_tracer).build_dataset(
        prepared, "bypass", N_SAMPLES, SEED
    )
    # Tracing enabled changes nothing about the bytes...
    assert sample_set_fingerprint(par) == sample_set_fingerprint(serial)
    # ...and the merged worker buffers reproduce the serial span tree
    # (modulo the pool-bookkeeping span that only parallel runs have).
    serial_calls = {p: c for p, c in _span_calls(serial_tracer).items()
                    if not p.endswith(("pool", "serial"))}
    par_calls = {p: c for p, c in _span_calls(par_tracer).items()
                 if not p.endswith(("pool", "serial"))}
    assert par_calls == serial_calls
    assert par_calls["dataset.chunk"] == 3  # 16+16+8 over the chunk grid
    chunk = par_tracer.export()["dataset.chunk"]
    assert chunk["counters"]["samples"] == len(par.items)


def test_cache_spans_nest_under_dataset(prepared, tmp_path):
    tracer = SpanTracer()
    rt = DatasetRuntime(workers=1, cache_dir=tmp_path, tracer=tracer)
    rt.build_dataset(prepared, "bypass", 16, SEED)
    warm = DatasetRuntime(workers=1, cache_dir=tmp_path, tracer=tracer)
    warm.build_dataset(prepared, "bypass", 16, SEED)
    spans = tracer.export()
    # Cache time stays visible per artifact kind.
    assert spans["dataset.cache.sample_chunk.store"]["calls"] == 1
    assert spans["dataset.cache.sample_chunk.load"]["calls"] == 1


# ----------------------------------------------------------------- metrics
def _sample_stats_and_tracer():
    stats = RuntimeStats()
    stats.count("cache.design.hit", 3)
    stats.count("cache.design.miss", 1)
    stats.count("cache.sample_chunk.miss", 2)
    stats.count("faulttol.chunk.retries", 2)
    stats.count("faulttol.prepare.retries", 1)
    tracer = SpanTracer()
    with tracer.span("tables"):
        with tracer.span("dataset"):
            tracer.count("samples", 40)
    tracer.add("dataset.chunk", 1.5)
    tracer.add("prepare.design", 4.0)
    return stats, tracer


def test_metrics_document_schema():
    stats, tracer = _sample_stats_and_tracer()
    doc = metrics_document(stats, tracer)
    assert doc["schema"] == METRICS_SCHEMA == 2
    assert "stages" not in doc  # spans are the only timer
    assert doc["spans"]["dataset.chunk"] == {"seconds": 1.5, "calls": 1, "counters": {}}
    assert doc["spans"]["tables.dataset"]["counters"] == {"samples": 40}
    assert doc["cache"]["kinds"]["design"] == {"hits": 3, "misses": 1, "hit_ratio": 0.75}
    assert doc["cache"]["kinds"]["sample_chunk"]["hit_ratio"] == 0.0
    assert doc["cache"]["hits"] == 3 and doc["cache"]["misses"] == 3
    assert doc["faulttol"]["totals"] == {"retries": 3}
    json.dumps(doc)  # JSON-serializable end to end


def test_write_and_load_json_metrics(tmp_path):
    stats, tracer = _sample_stats_and_tracer()
    out = write_metrics(tmp_path / "metrics.json", stats, tracer)
    doc = load_metrics(out)
    assert doc == metrics_document(stats, tracer)


def test_load_metrics_rejects_wrong_schema_and_shape(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": 999}))
    with pytest.raises(ValueError, match="unsupported metrics schema"):
        load_metrics(bad)
    bad.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ValueError, match="not a repro metrics document"):
        load_metrics(bad)


def test_prometheus_textfile_format(tmp_path):
    stats, tracer = _sample_stats_and_tracer()
    out = write_metrics(tmp_path / "metrics.prom", stats, tracer)
    text = out.read_text()
    assert "repro_stage_" not in text
    assert '# TYPE repro_span_seconds_total counter' in text
    assert 'repro_span_seconds_total{span="dataset.chunk"} 1.5' in text
    assert 'repro_span_calls_total{span="tables.dataset"} 1' in text
    assert 'repro_cache_hits_total{kind="design"} 3' in text
    assert 'repro_counter_total{name="faulttol.chunk.retries"} 2' in text
    # Every non-comment line is `name{label="value"} number`.
    for line in text.splitlines():
        if line and not line.startswith("#"):
            assert re.fullmatch(r'\w+\{\w+="[^"]*"\} [-+0-9.e]+', line), line


def test_render_metrics_sections():
    stats, tracer = _sample_stats_and_tracer()
    text = render_metrics(metrics_document(stats, tracer), top=1)
    assert "span tree:" in text
    assert "top 1 span(s)" in text and "prepare.design" in text
    assert "dataset.chunk" not in text.split("top 1")[1].split("cache")[0]
    assert "cache hit ratios:" in text and "75.0%" in text
    assert "faulttol events:" in text and "faulttol.chunk.retries" in text


def test_render_metrics_empty_run():
    text = render_metrics(metrics_document(RuntimeStats(), SpanTracer()))
    assert "no recorded spans" in text
    assert "(none" in text  # faulttol section present even when quiet


# ------------------------------------------------------------------- CLI
def test_cli_stats_renders_snapshot(tmp_path, capsys):
    from repro.cli import main

    stats, tracer = _sample_stats_and_tracer()
    path = write_metrics(tmp_path / "out.json", stats, tracer)
    assert main(["stats", str(path)]) == 0
    out = capsys.readouterr().out
    assert "span tree:" in out and "cache hit ratios:" in out


def test_cli_stats_bad_inputs(tmp_path, capsys):
    from repro.cli import main

    assert main(["stats", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["stats", str(bad)]) == 2


def test_tables_interrupt_collects_orphan_tmps_and_flushes_stats(
    tmp_path, monkeypatch, capsys
):
    """Ctrl-C mid-tables: *.tmp leftovers are collected, metrics still land."""
    import repro.cli as cli

    cache_dir = tmp_path / "cache"
    stats_out = tmp_path / "out.json"

    def interrupted_body(rt, *args, **kwargs):
        # Simulate a write interrupted mid-tempfile inside the cache tree.
        tmp = rt.cache.root / "sample_chunk" / "ab"
        tmp.mkdir(parents=True)
        (tmp / "stranded.tmp").write_bytes(b"partial")
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_tables_body", interrupted_body)
    code = cli.main(["tables", "--scale", "tiny", "--samples", "4",
                     "--only", "table3", "--cache-dir", str(cache_dir),
                     "--stats-out", str(stats_out)])
    assert code == 130
    assert not list(cache_dir.rglob("*.tmp"))
    assert load_metrics(stats_out)["schema"] == METRICS_SCHEMA
    err = capsys.readouterr().err
    assert "collected 1 orphaned tmp file(s)" in err
    assert "interrupted" in err


# ----------------------------------------------------------------- profiling
def _busy(tracer):
    with tracer.span("unit"):
        sum(range(1000))


def test_profiled_off_by_default(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    monkeypatch.setenv("REPRO_PROFILE_DIR", str(tmp_path))
    with profiled("unit-x"):
        pass
    assert not list(tmp_path.iterdir())


def test_profiled_cprofile_dumps_prof(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_PROFILE", "cprofile")
    monkeypatch.setenv("REPRO_PROFILE_DIR", str(tmp_path))
    tr = SpanTracer()
    with profiled("chunk-0-1-a0", tr):
        _busy(tr)
    prof = tmp_path / "chunk-0-1-a0.prof"
    assert prof.exists()
    import pstats

    assert pstats.Stats(str(prof)).total_calls > 0


def test_profiled_spans_dumps_per_unit_tree(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_PROFILE", "spans")
    monkeypatch.setenv("REPRO_PROFILE_DIR", str(tmp_path))
    tr = SpanTracer()
    with tr.span("earlier"):
        pass  # pre-existing span: must not leak into the unit dump
    with profiled("fit-tier", tr):
        _busy(tr)
    text = (tmp_path / "fit-tier.spans.txt").read_text()
    assert "unit: fit-tier" in text and "unit" in text
    assert "earlier" not in text


def test_profiled_rejects_unknown_mode(monkeypatch):
    monkeypatch.setenv("REPRO_PROFILE", "flamegraph")
    with pytest.raises(ValueError, match="bad REPRO_PROFILE"):
        with profiled("x"):
            pass


def test_profile_labels_sanitized(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_PROFILE", "spans")
    monkeypatch.setenv("REPRO_PROFILE_DIR", str(tmp_path))
    with profiled("design-aes/Syn 1-a0", SpanTracer()):
        pass
    assert (tmp_path / "design-aes_Syn_1-a0.spans.txt").exists()


# ------------------------------------------------------------ pipeline spans
@pytest.mark.slow
def test_fit_records_stage_spans(prepared):
    from repro.core.pipeline import M3DDiagnosisFramework

    train = DatasetRuntime(workers=1).build_dataset(prepared, "bypass", 24, SEED)
    tracer = SpanTracer()
    fw = M3DDiagnosisFramework(epochs=2, seed=0)
    stats = fw.fit([train], tracer=tracer)
    spans = tracer.export()
    assert spans["fit"]["calls"] == 1
    assert spans["fit.tier"]["calls"] == 1
    assert spans["fit.threshold"]["calls"] == 1
    # The returned stage seconds are read from these very spans.
    for stage in ("tier", "threshold"):
        assert stats[f"fit_{stage}_s"] == spans[f"fit.{stage}"]["seconds"]
