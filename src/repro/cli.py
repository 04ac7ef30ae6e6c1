"""Command-line interface.

Installed as the ``repro`` console script::

    repro info                      # library and benchmark-suite overview
    repro demo                      # end-to-end single-chip diagnosis demo
    repro tables --scale tiny ...   # regenerate paper tables/figures
    repro export --benchmark AES    # dump a generated benchmark netlist
    repro cache --cache-dir DIR     # inspect / clear the artifact cache
    repro doctor --cache-dir DIR    # audit / repair artifact-cache health
    repro stats out.json            # render a --stats-out metrics snapshot
    repro serve --http :8341        # diagnosis-as-a-service (batched GNN)
    repro check --self              # repro-lint the package sources
    repro check a.py d.bench p.pkl  # lint sources / DRC netlists & designs
    repro lint ...                  # alias for check

The table runner mirrors the pytest benchmark harness but prints straight to
stdout, which is convenient for quick looks without pytest.  ``demo`` and
``tables`` accept ``--workers N`` / ``--cache-dir DIR`` to fan dataset
generation out over a process pool and persist prepared designs and sample
chunks in the content-addressed artifact cache (results are byte-identical
for any worker count; see ``repro.runtime``).

Long runs are interruption-safe: with a cache directory configured,
``tables`` records each completed table in an atomic progress manifest and
model training checkpoints per stage, so Ctrl-C / SIGTERM tears the worker
pool down promptly, prints a resume hint, and re-running the same command
picks up from the last completed stage.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

__all__ = ["main", "build_parser"]

#: Table/figure ids accepted by ``repro tables --only``.
TABLE_CHOICES = (
    "table2", "table3", "table5", "table6", "table7", "table8",
    "table9", "table10", "table11", "fig5", "fig6", "fig10", "three-tier",
)


#: Smallest ``--gates`` the demo/serve designs can be generated at: they
#: have at least 16 flops and 16 primary outputs, each driven by a gate.
MIN_GATES = 32


def _gates(text: str) -> int:
    """argparse type for ``--gates``: an integer >= :data:`MIN_GATES`."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    if value < MIN_GATES:
        raise argparse.ArgumentTypeError(
            f"must be at least {MIN_GATES} (16 flops + 16 primary outputs), got {value}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GNN-based delay-fault localization for monolithic 3D ICs "
        "(DATE 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="library and benchmark-suite overview")

    def add_runtime_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, default=None, metavar="N",
                       help="dataset-generation worker processes (default: "
                            "$REPRO_WORKERS or 1; results are identical for any N)")
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="content-addressed artifact cache directory "
                            "(default: $REPRO_CACHE_DIR or no cache)")
        p.add_argument("--stats-out", default=None, metavar="FILE",
                       help="write a metrics snapshot (span tree, "
                            "cache/faulttol counters) on exit — "
                            "JSON by default, Prometheus textfile for "
                            ".prom/.txt; render with `repro stats FILE`")

    demo = sub.add_parser("demo", help="end-to-end single-chip diagnosis demo")
    demo.add_argument("--gates", type=_gates, default=400, help="design size")
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument("--nn-backend", default=None, metavar="SPEC",
                      help="tensor backend for the GNN models (numpy, torch, "
                           "torch-cpu, torch-cuda, auto); default consults "
                           "$REPRO_NN_BACKEND, then the numpy oracle")
    add_runtime_args(demo)

    tables = sub.add_parser("tables", help="regenerate paper tables/figures")
    tables.add_argument("--scale", choices=("default", "tiny"), default="tiny")
    tables.add_argument("--samples", type=int, default=20, help="test chips per point")
    tables.add_argument(
        "--only",
        default=None,
        help=f"comma-separated subset of: {', '.join(TABLE_CHOICES)}",
    )
    tables.add_argument(
        "--no-resume", dest="resume", action="store_false",
        help="ignore (and discard) any checkpoint manifest from an "
             "interrupted run with the same parameters",
    )
    add_runtime_args(tables)

    coordinator = sub.add_parser(
        "coordinator",
        help="run a tables build as a distributed coordinator",
        description="Serve dataset-generation work units to `repro worker` "
        "processes over the lease-based wire protocol while running the "
        "tables build.  Workers may connect at any time (they retry with "
        "backoff); a cluster that stalls or partitions degrades to the "
        "local fault-tolerant executor, so the build always completes — "
        "with fingerprints byte-identical to a serial run.",
    )
    coordinator.add_argument("--scale", choices=("default", "tiny"), default="tiny")
    coordinator.add_argument("--samples", type=int, default=20,
                             help="test chips per point")
    coordinator.add_argument(
        "--only", default=None,
        help=f"comma-separated subset of: {', '.join(TABLE_CHOICES)}",
    )
    coordinator.add_argument(
        "--no-resume", dest="resume", action="store_false",
        help="ignore (and discard) any checkpoint manifest from an "
             "interrupted run with the same parameters",
    )
    coordinator.add_argument("--host", default="127.0.0.1",
                             help="listen address (default: 127.0.0.1)")
    coordinator.add_argument("--port", type=int, default=0,
                             help="listen port (default: 0 = pick a free "
                                  "port, printed at startup)")
    coordinator.add_argument("--lease-timeout", type=float, default=10.0,
                             metavar="S",
                             help="lease lifetime without a worker heartbeat")
    coordinator.add_argument("--fallback-after", type=float, default=10.0,
                             metavar="S",
                             help="remote-progress silence before the build "
                                  "degrades to local execution")
    add_runtime_args(coordinator)

    worker = sub.add_parser(
        "worker",
        help="serve work units for a `repro coordinator`",
        description="Connect to a coordinator, lease work units, execute "
        "them, and push results back.  Reconnects with deterministic "
        "seeded backoff; exits 0 on coordinator-initiated shutdown, 3 when "
        "the reconnect budget is exhausted.",
    )
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator address")
    worker.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="local disk tier for fetched designs "
                             "(default: $REPRO_CACHE_DIR or none)")
    worker.add_argument("--max-reconnects", type=int, default=30, metavar="N",
                        help="consecutive failed connections tolerated "
                             "before giving up (default: 30)")

    export = sub.add_parser("export", help="dump a generated benchmark netlist")
    export.add_argument("--benchmark", choices=("AES", "Tate", "netcard", "leon3mp"),
                        default="AES")
    export.add_argument("--scale", choices=("default", "tiny", "large"),
                        default="default")
    export.add_argument("--format", choices=("verilog", "bench"), default="verilog")
    export.add_argument("--output", default="-", help="file path or - for stdout")

    cache = sub.add_parser("cache", help="inspect or clear the artifact cache")
    cache.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache directory (default: $REPRO_CACHE_DIR)")
    cache.add_argument("--clear", action="store_true",
                       help="delete every cached artifact")

    stats = sub.add_parser(
        "stats",
        help="render a metrics snapshot written by --stats-out",
        description="Render a JSON metrics document (written by the demo/"
        "tables --stats-out flag): the hierarchical span tree, the top-N "
        "span paths by wall-clock, per-kind cache hit ratios, and fault-"
        "tolerance events (retries, timeouts, pool respawns, degradations).",
    )
    stats.add_argument("metrics", metavar="FILE",
                       help="JSON metrics file (--stats-out output)")
    stats.add_argument("--top", type=int, default=10, metavar="N",
                       help="span paths to list in the wall-clock ranking "
                            "(default: 10)")

    serve = sub.add_parser(
        "serve",
        help="diagnosis-as-a-service: batched GNN inference over HTTP/stdin",
        description="Run a long-lived diagnosis server.  Failure-log "
        "submissions (JSON with a tester datalog, optionally a precomputed "
        "ATPG candidate list) arrive over HTTP (POST /diagnose, single "
        "object or JSONL) or stdin JSONL; concurrent requests are packed "
        "into block-diagonal GCN forwards by a bounded-queue batcher "
        "(full queue => HTTP 429, explicit backpressure).  Models are "
        "warm-loaded per design config into a versioned registry and can "
        "be swapped atomically via POST /models/activate.  GET /healthz, "
        "/metrics (Prometheus), /models for introspection.",
    )
    serve.add_argument("--http", default=None, metavar="HOST:PORT",
                       help="HTTP listen address (port 0 picks a free port, "
                            "printed at startup)")
    serve.add_argument("--stdin", dest="stdin_mode", action="store_true",
                       help="serve JSONL submissions from stdin, responses "
                            "to stdout (combinable with --http)")
    serve.add_argument("--gates", type=_gates, default=300, help="design size")
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--configs", default="Syn-1", metavar="LIST",
                       help="comma-separated design configs to serve "
                            "(Syn-1, TPI, Syn-2, Par; default: Syn-1)")
    serve.add_argument("--mode", choices=("bypass", "compacted"),
                       default="bypass", help="default observation mode")
    serve.add_argument("--framework", default=None, metavar="FILE.npz",
                       help="warm-load versioned framework weights instead "
                            "of training at startup")
    serve.add_argument("--model-version", default="v1", metavar="TAG",
                       help="version tag for the startup model (default: v1)")
    serve.add_argument("--train-samples", type=int, default=120, metavar="N",
                       help="training chips per config when no --framework "
                            "is given (default: 120)")
    serve.add_argument("--epochs", type=int, default=20)
    serve.add_argument("--max-batch", type=int, default=64, metavar="N",
                       help="most requests packed into one forward pass")
    serve.add_argument("--max-queue", type=int, default=256, metavar="N",
                       help="bounded request-queue capacity (full => 429)")
    serve.add_argument("--flush-interval", type=float, default=0.02,
                       metavar="S", help="batch-thread poll interval")
    serve.add_argument("--nn-backend", default=None, metavar="SPEC",
                       help="tensor backend for the GNN models (numpy, "
                            "torch, torch-cpu, torch-cuda, auto)")
    add_runtime_args(serve)

    doctor = sub.add_parser(
        "doctor",
        help="audit artifact-cache health (orphan tmps, desynced sidecars, "
             "leaked shared-memory segments, stale distributed-tier state)",
        description="Audit the content-addressed cache for damage an "
        "interrupted or faulty run can leave behind: orphaned *.tmp files, "
        "sidecars without payloads, payloads without (or with desynced) "
        "sidecars, and — with --deep — payloads that no longer unpickle.  "
        "Also scans for repro_* shared-memory segments whose owning process "
        "is dead (a crashed parallel build's spill/result planes), stale "
        "distributed-tier state (lease files of dead coordinators, orphaned "
        "result-store entries, stale run markers), and checkpoint manifests "
        "no current run key can match; --fix reaps them.  Exits 0 when "
        "healthy, 1 when problems were found.",
    )
    doctor.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cache directory (default: $REPRO_CACHE_DIR)")
    doctor.add_argument("--deep", action="store_true",
                        help="also unpickle every payload (slow; catches bit rot)")
    doctor.add_argument("--fix", action="store_true",
                        help="evict inconsistent entries and collect orphan tmps")

    check = sub.add_parser(
        "check",
        aliases=["lint"],
        help="static analysis: repro-lint sources, structural DRC on netlists",
        description="Run repro-lint (determinism/cache-safety rules RPL001…), "
        "the backend-purity analyzer (BPL001…), and the resource-lifecycle/"
        "fork-safety analyzer (RCL001…) over Python sources, and the "
        "structural DRC engine (rules DRC001…) over netlists and prepared "
        "designs.  Inline '# repro-lint: disable=' directives and the "
        "baseline file silence findings; dead suppressions surface as "
        "SUP001.  Exits 1 when anything fires.",
    )
    check.add_argument(
        "paths", nargs="*", metavar="PATH",
        help=".py file or directory (repro-lint + purity + lifecycle); "
        ".bench/.v netlist or .pkl pickled Netlist/PreparedDesign (DRC)")
    check.add_argument(
        "--self", dest="check_self", action="store_true",
        help="analyze the installed repro package sources (the CI gate): "
        "repro-lint everywhere, backend purity over nn/, lifecycle over "
        "runtime/, plus the unused-suppression audit")
    check.add_argument(
        "--no-deep", dest="deep", action="store_false",
        help="skip the Topedge re-verification (DRC031) on pickled designs")
    check.add_argument(
        "--rules", action="store_true",
        help="print the rule catalogs and exit")
    check.add_argument(
        "--format", dest="fmt", choices=("text", "json"), default="text",
        help="output format: human-readable text (default) or a JSON "
        "document with structured findings (rule, path, line, col, "
        "message, symbol) for CI annotation")
    check.add_argument(
        "--baseline", default=".repro-baseline.json", metavar="FILE",
        help="baseline file of acknowledged findings (default: "
        ".repro-baseline.json; a missing file is an empty baseline); "
        "baselined findings don't fail the run, stale entries do")
    return parser


def _configure_runtime(workers: Optional[int], cache_dir: Optional[str]):
    """Apply CLI runtime flags to the process-global dataset runtime."""
    from repro.runtime import configure

    rt = configure(workers=workers, cache_dir=cache_dir)
    rt.stats.progress = print  # surface fan-out / cache progress lines
    return rt


def _cmd_info() -> int:
    import repro
    from repro.experiments.benchmarks import BENCHMARKS

    print(f"repro {repro.__version__} — reproduction of Hung et al., DATE 2022")
    print("\nscaled benchmark suite (Syn-1 generation parameters):")
    print(f"{'design':10s} {'scale':8s} {'gates':>6s} {'flops':>6s} {'chains':>7s} {'maxpat':>7s}")
    for scale, suite in BENCHMARKS.items():
        for name, spec in suite.items():
            g = spec.generator
            print(
                f"{name:10s} {scale:8s} {g.n_gates:6d} {g.n_flops:6d} "
                f"{spec.n_chains:7d} {spec.max_patterns:7d}"
            )
    print("\nrun `repro tables --scale tiny` for a quick table sweep,")
    print("or `pytest benchmarks/ --benchmark-only` for the full harness.")
    return 0


def _resume_hint(cache_dir_used: bool) -> str:
    if cache_dir_used:
        return ("interrupted — cached artifacts and checkpoints are intact; "
                "re-run the same command to resume from the last completed stage")
    return ("interrupted — re-run with --cache-dir DIR to make the next "
            "interruption resumable")


def _print_trace(rt, heading: str) -> None:
    """The run's span tree (its only timer) followed by its counters."""
    from repro.obs import render_span_tree

    print(f"\n{heading}{render_span_tree(rt.tracer.export())}\n\n{rt.stats.report()}")


def _write_stats_out(rt, stats_out: Optional[str]) -> None:
    """Export the run's metrics snapshot (JSON or Prometheus textfile)."""
    if not stats_out:
        return
    from repro.obs import write_metrics

    out = write_metrics(stats_out, rt.stats, rt.tracer)
    print(f"wrote metrics snapshot to {out}", file=sys.stderr)


def _interrupted(rt, stats_out: Optional[str]) -> int:
    """Shared Ctrl-C/SIGTERM epilogue: clean the cache, flush metrics.

    The worker pool is already torn down by the time the interrupt
    propagates here (``run_units`` terminates it in its own handler), so no
    concurrent writer can own an in-flight tempfile: collect *all* ``*.tmp``
    leftovers (age 0) rather than stranding this run's until the next
    ``repro doctor``.  The metrics snapshot is still written — an
    interrupted run is exactly the one whose timings need inspecting.
    """
    if rt.cache is not None:
        removed = rt.cache.gc_orphans(0.0)
        if removed:
            print(f"collected {removed} orphaned tmp file(s)", file=sys.stderr)
    _write_stats_out(rt, stats_out)
    print(f"\n{_resume_hint(rt.cache is not None)}", file=sys.stderr)
    return 130


def _cmd_demo(gates: int, seed: int, workers: Optional[int] = None,
              cache_dir: Optional[str] = None,
              stats_out: Optional[str] = None,
              nn_backend: Optional[str] = None) -> int:
    from repro.runtime import handle_termination

    rt = _configure_runtime(workers, cache_dir)
    try:
        with handle_termination(), rt.tracer.span("demo"):
            code = _demo_body(rt, gates, seed, nn_backend)
    except KeyboardInterrupt:
        return _interrupted(rt, stats_out)
    _print_trace(rt, "")
    _write_stats_out(rt, stats_out)
    return code


def _demo_body(rt, gates: int, seed: int, nn_backend: Optional[str] = None) -> int:
    from repro import (
        DesignConfig,
        EffectCauseDiagnoser,
        GeneratorSpec,
        M3DDiagnosisFramework,
        first_hit_index,
        report_is_accurate,
    )

    t0 = time.perf_counter()
    spec = GeneratorSpec("demo", "aes_like", gates, max(16, gates // 8), 16, 16, seed=seed)
    design = rt.prepare(spec, DesignConfig.standard("Syn-1"), n_chains=4,
                        chains_per_channel=2, max_patterns=128)
    print(f"prepared {design.nl} with {len(design.mivs)} MIVs "
          f"({time.perf_counter() - t0:.1f}s)")
    train = rt.build_dataset(design, "bypass", 120, seed=0)
    chip = rt.build_dataset(design, "bypass", 1, seed=999).items[0]
    print(f"injected {chip.faults[0].label}; "
          f"{len(chip.sample.log)} failing responses")

    diag = EffectCauseDiagnoser(design.nl, design.obsmap("bypass"), design.patterns,
                                mivs=design.mivs, sim=design.sim)
    report = diag.diagnose(chip.sample.log)
    fw = M3DDiagnosisFramework(epochs=20, seed=0, nn_backend=nn_backend)
    fw.fit([train], stats_sink=rt.stats, tracer=rt.tracer)
    result = fw.diagnose(design, "bypass", chip.sample.log, report, graph=chip.graph)
    print(f"ATPG report: {report.resolution} candidates; after policy "
          f"({result.action}): {result.report.resolution}")
    print(f"accurate={report_is_accurate(result.report, chip.faults)} "
          f"first-hit={first_hit_index(result.report, chip.faults)} "
          f"predicted tier={result.predicted_tier} (p={result.confidence:.2f})")
    return 0


def _cmd_tables(scale: str, samples: int, only: Optional[str],
                workers: Optional[int] = None, cache_dir: Optional[str] = None,
                resume: bool = True, stats_out: Optional[str] = None) -> int:
    from repro.runtime import handle_termination

    rt = _configure_runtime(workers, cache_dir)
    try:
        with handle_termination(), rt.tracer.span("tables"):
            code = _tables_body(rt, scale, samples, only, resume)
    except KeyboardInterrupt:
        return _interrupted(rt, stats_out)
    if code == 0:
        _print_trace(rt, "================ runtime ================\n")
    _write_stats_out(rt, stats_out)
    return code


def _tables_body(rt, scale: str, samples: int, only: Optional[str],
                 resume: bool) -> int:
    from repro import experiments as ex
    from repro.experiments.three_tier import format_three_tier, three_tier_study
    from repro.runtime import ProgressManifest, manifest_path

    wanted = set(only.split(",")) if only else set(TABLE_CHOICES)
    unknown = wanted - set(TABLE_CHOICES)
    if unknown:
        print(f"unknown table ids: {sorted(unknown)}", file=sys.stderr)
        return 2

    # With a cache configured, each completed table is recorded in an
    # atomic progress manifest keyed by the run parameters: an interrupted
    # run re-invoked identically replays finished tables from the manifest
    # instead of regenerating them.
    manifest: Optional[ProgressManifest] = None
    if rt.cache is not None:
        run_key = {"command": "tables", "scale": scale, "samples": samples,
                   "only": sorted(wanted)}
        manifest = ProgressManifest(
            manifest_path(rt.cache.root, "tables", run_key), run_key,
            name="tables",
        )
        if not resume:
            manifest.discard()
        elif manifest.done_stages():
            print(f"[resume] {len(manifest.done_stages())} stage(s) already "
                  f"complete: {', '.join(manifest.done_stages())}")

    def run(tid: str, fn) -> None:
        if tid not in wanted:
            return
        if manifest is not None and manifest.is_done(tid):
            print(f"\n================ {tid} ================")
            payload = manifest.result(tid)
            if payload:
                print(payload)
            print(f"[{tid}: resumed from checkpoint]")
            return
        t0 = time.perf_counter()
        print(f"\n================ {tid} ================")
        with rt.tracer.span(tid):
            text = fn()
        print(text)
        print(f"[{tid}: {time.perf_counter() - t0:.1f}s]")
        if manifest is not None:
            manifest.mark_done(tid, payload=text)

    run("table3", lambda: ex.format_design_matrix(ex.design_matrix(scale=scale)))
    run("table5", lambda: ex.format_quality(
        ex.atpg_quality("bypass", n_samples=samples, scale=scale),
        "Table V: ATPG report quality (bypass)"))
    run("table6", lambda: ex.format_effectiveness(
        ex.effectiveness("bypass", n_samples=samples, scale=scale),
        "Table VI: effectiveness (bypass)"))
    run("table7", lambda: ex.format_quality(
        ex.atpg_quality("compacted", n_samples=samples, scale=scale),
        "Table VII: ATPG report quality (compacted)"))
    run("table8", lambda: ex.format_effectiveness(
        ex.effectiveness("compacted", n_samples=samples, scale=scale),
        "Table VIII: effectiveness (compacted)"))
    run("table9", lambda: ex.format_runtime(
        ex.runtime_table(n_samples=samples, scale=scale)))
    run("fig10", lambda: ex.format_pfa_savings(
        ex.pfa_savings(ex.runtime_table(n_samples=samples, scale=scale))))
    run("table10", lambda: ex.format_multifault(
        ex.multifault_study(n_test=samples, scale=scale)))
    run("table11", lambda: ex.format_standalone(
        ex.standalone_models(n_samples=samples, scale=scale)))
    run("table2", lambda: ex.format_significance(
        ex.feature_significance(n_samples=samples, scale=scale)))
    run("fig5", lambda: ex.format_pca_study(
        ex.pca_study(n_samples=samples, scale=scale)))
    run("fig6", lambda: ex.format_transferability(
        ex.transferability_study(n_samples=samples, scale=scale), "Tate"))
    run("three-tier", lambda: format_three_tier(
        three_tier_study(n_test=samples, n_train=max(120, samples * 3), scale=scale)))
    return 0


def _cmd_coordinator(scale: str, samples: int, only: Optional[str],
                     host: str, port: int, lease_timeout: float,
                     fallback_after: float, workers: Optional[int] = None,
                     cache_dir: Optional[str] = None, resume: bool = True,
                     stats_out: Optional[str] = None) -> int:
    from pathlib import Path

    from repro.runtime import Coordinator, DistPolicy, handle_termination

    rt = _configure_runtime(workers, cache_dir)
    policy = DistPolicy(lease_timeout_s=lease_timeout,
                        fallback_after_s=fallback_after)
    store_dir = Path(rt.cache.root) / "dist" if rt.cache is not None else None
    coordinator = Coordinator(
        host=host, port=port, workers=rt.workers, policy=policy,
        retry=rt.retry, stats=rt.stats, chaos=rt.chaos,
        store_dir=store_dir, tracer=rt.tracer,
    )
    rt.dist = coordinator
    print(f"coordinator listening on "
          f"{coordinator.address[0]}:{coordinator.address[1]}", file=sys.stderr)
    try:
        with handle_termination(), rt.tracer.span("tables"):
            code = _tables_body(rt, scale, samples, only, resume)
    except KeyboardInterrupt:
        coordinator.close()
        return _interrupted(rt, stats_out)
    finally:
        coordinator.close()
    _write_stats_out(rt, stats_out)
    return code


def _cmd_worker(connect: str, cache_dir: Optional[str],
                max_reconnects: int) -> int:
    import os

    from repro.runtime import run_worker

    cache_dir = cache_dir or os.environ.get("REPRO_CACHE_DIR") or None
    print(f"worker {os.getpid()} connecting to {connect}", file=sys.stderr)
    code = run_worker(connect, cache_dir=cache_dir,
                      max_reconnects=max_reconnects)
    if code == 0:
        print("worker: coordinator shut the cluster down", file=sys.stderr)
    else:
        print(f"worker: giving up after {max_reconnects} reconnect attempt(s)",
              file=sys.stderr)
    return code


def _cmd_cache(cache_dir: Optional[str], clear: bool) -> int:
    import os

    from repro.runtime import ArtifactCache

    cache_dir = cache_dir or os.environ.get("REPRO_CACHE_DIR")
    if not cache_dir:
        print("no cache directory (pass --cache-dir or set $REPRO_CACHE_DIR)",
              file=sys.stderr)
        return 2
    cache = ArtifactCache(cache_dir)
    by_kind = cache.entries()
    print(f"cache {cache_dir}: {sum(by_kind.values())} artifact(s), "
          f"{cache.size_bytes() / 1e6:.1f} MB")
    for kind in sorted(by_kind):
        print(f"  {kind:14s} {by_kind[kind]}")
    if clear:
        print(f"cleared {cache.clear()} artifact(s)")
    return 0


def _cmd_stats(metrics_file: str, top: int) -> int:
    from repro.obs import load_metrics, render_metrics

    try:
        doc = load_metrics(metrics_file)
    except OSError as exc:
        print(f"{metrics_file}: cannot read: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(render_metrics(doc, top=top))
    return 0


def _doctor_segments(fix: bool) -> int:
    """Audit (and with ``fix``, reap) orphaned shared-memory segments.

    A crashed run can strand its spill/result segments in ``/dev/shm``;
    they are attributed by the owner pid embedded in the segment name, so
    a *live* run's segments are never touched.  Returns the number of
    orphans found (0 on platforms without a shm file view).
    """
    from repro.runtime import reap_orphan_segments, scan_orphan_segments

    orphans = reap_orphan_segments() if fix else scan_orphan_segments()
    verb = "reaped" if fix else "found"
    total = sum(o.nbytes for o in orphans)
    print(f"shared memory: {verb} {len(orphans)} orphaned segment(s) "
          f"({total} bytes)")
    for o in orphans:
        print(f"  {o.name}  {o.nbytes} bytes  (dead pid {o.pid})")
    return len(orphans)


def _doctor_dist(cache_dir: str, fix: bool) -> int:
    """Audit the distributed tier + checkpoint manifests; returns problems."""
    from pathlib import Path

    from repro.runtime import audit_dist_store, audit_manifests

    dist_health = audit_dist_store(Path(cache_dir) / "dist", fix=fix)
    print("distributed tier:")
    print(dist_health.report())
    manifest_problems = audit_manifests(cache_dir, fix=fix)
    print(f"  unmatchable checkpoint manifests: {len(manifest_problems)}")
    for name, problem in manifest_problems:
        print(f"    manifests/{name}: {problem}")
    return dist_health.problems + len(manifest_problems)


def _cmd_serve(http: Optional[str], stdin_mode: bool, gates: int, seed: int,
               configs: str, mode: str, framework_path: Optional[str],
               model_version: str, train_samples: int, epochs: int,
               max_batch: int, max_queue: int, flush_interval: float,
               nn_backend: Optional[str], workers: Optional[int],
               cache_dir: Optional[str], stats_out: Optional[str]) -> int:
    import threading

    from repro import DesignConfig, GeneratorSpec, M3DDiagnosisFramework
    from repro.runtime import handle_termination
    from repro.serve import (
        DesignContext,
        DiagnosisService,
        ModelRegistry,
        RequestBatcher,
        serve_http,
        serve_stdin,
    )

    if not http and not stdin_mode:
        print("serve: need --http HOST:PORT and/or --stdin", file=sys.stderr)
        return 2
    config_names = [c.strip() for c in configs.split(",") if c.strip()]
    if not config_names:
        print("serve: --configs must name at least one design config",
              file=sys.stderr)
        return 2

    rt = _configure_runtime(workers, cache_dir)
    registry = ModelRegistry()
    designs = {}
    httpd = None
    batcher = None
    try:
        with handle_termination(), rt.tracer.span("serve"):
            for name in config_names:
                t0 = time.perf_counter()
                spec = GeneratorSpec(f"serve-{name.lower()}", "aes_like", gates,
                                     max(16, gates // 8), 16, 16, seed=seed)
                design = rt.prepare(spec, DesignConfig.standard(name),
                                    n_chains=4, chains_per_channel=2,
                                    max_patterns=128)
                designs[name] = DesignContext(
                    name=name, design=design, default_mode=mode
                )
                if framework_path is not None:
                    record = registry.load(name, model_version, framework_path,
                                           backend=nn_backend)
                else:
                    train = rt.build_dataset(design, mode, train_samples, seed=0)
                    fw = M3DDiagnosisFramework(epochs=epochs, seed=0,
                                               nn_backend=nn_backend)
                    fw.fit([train], stats_sink=rt.stats, tracer=rt.tracer)
                    record = registry.register(name, model_version, fw,
                                               source="<trained at startup>")
                print(f"serving {name}: {design.nl} [model {record.version}, "
                      f"backend {record.backend}] "
                      f"({time.perf_counter() - t0:.1f}s)", file=sys.stderr)
            print(f"warmed up {registry.warmup()} model record(s)",
                  file=sys.stderr)

            service = DiagnosisService(registry, designs, stats=rt.stats,
                                       tracer=rt.tracer)
            batcher = RequestBatcher(service.process_batch,
                                     max_batch=max_batch, max_queue=max_queue,
                                     flush_interval_s=flush_interval,
                                     stats=rt.stats).start()
            if http:
                host, _, port_s = http.partition(":")
                httpd = serve_http(service, batcher, host or "127.0.0.1",
                                   int(port_s or 0))
                bound = httpd.server_address
                # The ready line smoke clients wait for — stdout, flushed.
                print(f"listening on http://{bound[0]}:{bound[1]}", flush=True)
            if stdin_mode:
                if httpd is not None:
                    threading.Thread(target=httpd.serve_forever,
                                     name="repro-serve-http",
                                     daemon=True).start()
                n = serve_stdin(batcher, sys.stdin, sys.stdout)
                print(f"served {n} stdin submission(s)", file=sys.stderr)
            elif httpd is not None:
                httpd.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down", file=sys.stderr)
    finally:
        if httpd is not None:
            httpd.server_close()
        if batcher is not None:
            batcher.close(drain=False)
    _write_stats_out(rt, stats_out)
    return 0


def _cmd_doctor(cache_dir: Optional[str], deep: bool, fix: bool) -> int:
    import os

    from repro.runtime import ArtifactCache

    cache_dir = cache_dir or os.environ.get("REPRO_CACHE_DIR")
    if not cache_dir:
        print("no cache directory (pass --cache-dir or set $REPRO_CACHE_DIR)",
              file=sys.stderr)
        return 2
    cache = ArtifactCache(cache_dir)
    health = cache.doctor(deep=deep, fix=fix)
    print(f"cache {cache_dir}:")
    print(health.report())
    orphan_segments = _doctor_segments(fix)
    dist_problems = _doctor_dist(cache_dir, fix)
    problems = health.problems + orphan_segments + dist_problems
    if fix and problems:
        print(f"repaired {problems} problem(s)")
        return 0
    return 1 if problems else 0


def _check_netlist_file(path: str, deep: bool) -> List[str]:
    """DRC a ``.bench``/``.v`` netlist file; returns violation strings."""
    from repro.analysis import run_drc
    from repro.netlist import loads, loads_bench

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        if path.endswith(".bench"):
            nl = loads_bench(text, name=path)
        else:
            nl = loads(text)
    except ValueError as exc:
        return [f"unloadable netlist: {exc}"]
    return [str(v) for v in run_drc(nl, deep=deep)]


def _check_pickle_file(path: str, deep: bool) -> List[str]:
    """DRC a pickled Netlist / PreparedDesign / {nl, mivs, het} bundle."""
    import pickle

    from repro.analysis import run_drc
    from repro.netlist import Netlist

    with open(path, "rb") as fh:
        obj = pickle.load(fh)
    if isinstance(obj, dict):
        nl, mivs, het = obj.get("nl"), obj.get("mivs"), obj.get("het")
    elif isinstance(obj, Netlist):
        nl, mivs, het = obj, None, None
    else:
        nl = getattr(obj, "nl", None)
        mivs = getattr(obj, "mivs", None)
        het = getattr(obj, "het", None)
    if nl is None:
        return [f"unrecognized pickle payload {type(obj).__name__!r}: "
                "expected a Netlist, a PreparedDesign, or a dict with 'nl'"]
    return [str(v) for v in run_drc(nl, mivs=mivs, het=het, deep=deep)]


def _cmd_check(paths: List[str], check_self: bool, deep: bool, rules: bool,
               fmt: str = "text",
               baseline_path: str = ".repro-baseline.json") -> int:
    import json as _json
    import os

    import repro
    from repro.analysis import (
        DRC_RULES,
        LIFECYCLE_RULES,
        LINT_RULES,
        PURITY_RULES,
        UNUSED_SUPPRESSION_RULE,
        Baseline,
        Finding,
        analyze_lifecycle_source,
        analyze_purity_source,
        iter_python_files,
        lint_source,
        parse_suppressions,
        unused_suppressions,
    )
    from repro.analysis.lifecycle import iter_lifecycle_targets
    from repro.analysis.purity import iter_purity_targets

    if rules:
        catalog = {
            **LINT_RULES, **PURITY_RULES, **LIFECYCLE_RULES, **DRC_RULES,
            UNUSED_SUPPRESSION_RULE:
                "inline suppression whose rule never fires (dead directive)",
        }
        for rid, text in catalog.items():
            print(f"{rid}  {text}")
        return 0

    try:
        baseline = Baseline.load(baseline_path)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    findings: List[Finding] = []
    n_targets = 0

    # Netlist / pickle targets run the DRC engine; violations become
    # Finding records (line 0 anchors the file as a whole) so one report
    # format serves both source and design targets.
    lint_roots: List[str] = []
    for path in paths:
        if path.endswith((".bench", ".v", ".pkl", ".pickle")):
            n_targets += 1
            checker = (
                _check_netlist_file
                if path.endswith((".bench", ".v"))
                else _check_pickle_file
            )
            try:
                msgs = checker(path, deep)
            except OSError as exc:
                print(f"{path}: cannot read: {exc}", file=sys.stderr)
                return 2
            for msg in msgs:
                rule, _, rest = msg.partition(": ")
                if rule not in DRC_RULES:
                    rule, rest = "DRC000", msg
                findings.append(Finding(
                    rule=rule, path=path, line=0, col=0, message=rest,
                    symbol="<file>",
                ))
        else:
            lint_roots.append(path)

    # Source targets: every file gets repro-lint; the contract analyzers
    # attach where their contracts live (under --self: purity over nn/,
    # lifecycle over runtime/) and everywhere for explicit paths.
    engines: dict = {}

    def _attach(root, name, it) -> None:
        for f in it(root):
            engines.setdefault(f, set()).add(name)

    if check_self:
        n_targets += 1
        pkg = os.path.dirname(os.path.abspath(repro.__file__))
        _attach(pkg, "lint", iter_python_files)
        _attach(os.path.join(pkg, "nn"), "purity", iter_purity_targets)
        _attach(os.path.join(pkg, "runtime"), "lifecycle",
                iter_lifecycle_targets)
    for root in lint_roots:
        n_targets += 1
        _attach(root, "lint", iter_python_files)
        _attach(root, "purity", iter_purity_targets)
        _attach(root, "lifecycle", iter_lifecycle_targets)

    if not n_targets:
        print("nothing to check (pass paths or --self)", file=sys.stderr)
        return 2

    runners = {
        "lint": lint_source,
        "purity": analyze_purity_source,
        "lifecycle": analyze_lifecycle_source,
    }
    for f in sorted(engines):
        try:
            source = f.read_text(encoding="utf-8")
        except OSError as exc:
            print(f"{f}: cannot read: {exc}", file=sys.stderr)
            return 2
        raw: List[Finding] = []
        try:
            for name in sorted(engines[f]):
                raw.extend(runners[name](source, str(f), suppress=False))
        except SyntaxError as exc:
            findings.append(Finding(
                rule="RPL000", path=str(f), line=exc.lineno or 1,
                col=exc.offset or 0, message=f"syntax error: {exc.msg}",
            ))
            continue
        raw.sort(key=lambda v: (v.line, v.col, v.rule))
        findings.extend(parse_suppressions(source).apply(raw))
        findings.extend(unused_suppressions(source, str(f), raw))

    new, baselined = baseline.split(findings)
    stale = baseline.unused_entries(findings)
    n_problems = len(new) + len(stale)

    if fmt == "json":
        doc = {
            "findings": [v.to_json() for v in new],
            "baselined": [v.to_json() for v in baselined],
            "unused_baseline_entries": [
                {"rule": e.rule, "path": e.path, "symbol": e.symbol,
                 "reason": e.reason}
                for e in stale
            ],
            "problems": n_problems,
            "targets": n_targets,
        }
        print(_json.dumps(doc, indent=2, sort_keys=True))
    else:
        for v in new:
            print(v)
        for e in stale:
            print(f"{baseline_path}: stale baseline entry {e.rule} {e.path} "
                  f"({e.symbol}) matches nothing — delete it")
        if baselined:
            print(f"{len(baselined)} baselined finding(s) suppressed by "
                  f"{baseline_path}")
        print(f"repro check: {n_problems} problem(s) in {n_targets} target(s)")
    return 1 if n_problems else 0


def _cmd_export(benchmark_name: str, scale: str, fmt: str, output: str) -> int:
    from repro.experiments.benchmarks import benchmark
    from repro.netlist import dumps, dumps_bench, generate
    from repro.synth import resynthesize

    nl = generate(benchmark(benchmark_name, scale).generator)
    if fmt == "verilog":
        text = dumps(nl)
    else:
        # .bench cannot express MUX/AOI/OAI: flatten first.
        text = dumps_bench(resynthesize(nl, seed=0, rewrite_probability=1.0))
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)
        print(f"wrote {output}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "info":
        return _cmd_info()
    if args.command == "demo":
        return _cmd_demo(args.gates, args.seed, args.workers, args.cache_dir,
                         args.stats_out, args.nn_backend)
    if args.command == "tables":
        return _cmd_tables(args.scale, args.samples, args.only,
                           args.workers, args.cache_dir, args.resume,
                           args.stats_out)
    if args.command == "coordinator":
        return _cmd_coordinator(args.scale, args.samples, args.only,
                                args.host, args.port, args.lease_timeout,
                                args.fallback_after, args.workers,
                                args.cache_dir, args.resume, args.stats_out)
    if args.command == "worker":
        return _cmd_worker(args.connect, args.cache_dir, args.max_reconnects)
    if args.command == "export":
        return _cmd_export(args.benchmark, args.scale, args.format, args.output)
    if args.command == "cache":
        return _cmd_cache(args.cache_dir, args.clear)
    if args.command == "stats":
        return _cmd_stats(args.metrics, args.top)
    if args.command == "serve":
        return _cmd_serve(args.http, args.stdin_mode, args.gates, args.seed,
                          args.configs, args.mode, args.framework,
                          args.model_version, args.train_samples, args.epochs,
                          args.max_batch, args.max_queue, args.flush_interval,
                          args.nn_backend, args.workers, args.cache_dir,
                          args.stats_out)
    if args.command == "doctor":
        return _cmd_doctor(args.cache_dir, args.deep, args.fix)
    if args.command in ("check", "lint"):
        return _cmd_check(args.paths, args.check_self, args.deep, args.rules,
                          args.fmt, args.baseline)
    return 2


if __name__ == "__main__":
    sys.exit(main())
