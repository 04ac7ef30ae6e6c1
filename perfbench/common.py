"""Shared settings, paths, child-process environment and statistics.

Every number that shapes a workload lives here, so a run's context record
(see :func:`context`) states exactly what was measured.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CACHE = BENCH / ".cache"
WORK = BENCH / ".work"

#: BLAS / OpenMP pools pinned to one thread in every benchmark process: the
#: host has two cores and the load generator needs one of them.
BLAS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

# ---------------------------------------------------------------- the design
#: One fixed netlist for every workload.  The seed drives the injected
#: chips, training sets, datalogs and request order, never the netlist, so
#: a timing median always compares the same ATPG work.  The spec is the one
#: ``repro serve --gates GATES --seed DESIGN_SEED`` builds.
GATES = 200
DESIGN_SEED = 7
CONFIG = "Syn-1"
MODE = "bypass"
PREPARE_KW = {"n_chains": 4, "chains_per_channel": 2, "max_patterns": 128}

# ------------------------------------------------------- the build workload
#: Syn-1 plus this many Rand-k partitions: the paper's augmentation flow.
N_RANDOM = 2
TRAIN_PER_DESIGN = 60
EPOCHS = 10
#: Held-out Syn-1 chips (with precomputed effect-cause reports) used to
#: score each built framework after its timed build.
TEST_CHIPS = 400
#: Builds per second of ``--seconds``; each build is one fresh process.
BUILDS_PER_SECOND = 0.5
MIN_BUILDS = 3
#: A run stops starting new operations after this many times ``--seconds``
#: (a much slower program still ends well inside the 180 s run limit); the
#: context then records ``capped_after``.
CAP_FACTOR = 4

# ----------------------------------------------------------- served workloads
SERVE_TRAIN = 240
SERVE_TRAIN_SEED = 2000
SERVE_EPOCHS = 10
UNIQUE_CHIPS = 400
#: Client connections (= the host's two cores; one process, two threads).
CONNECTIONS = 2
#: Datalogs per triage lot (one JSONL body).
LOT_SIZE = 24
#: Requests (diagnose) or lots (triage) per second of ``--seconds``.
OPS_PER_SECOND = {"diagnose": 36, "triage": 25}
#: Server launches per run; the median launch-to-ready time is setup_s.
SETUP_LAUNCHES = 3


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def program_present() -> bool:
    """Whether the checkout holds the program the benchmark drives."""
    return (SRC / "repro" / "__init__.py").is_file()


def cache_tag(*parts: Any) -> str:
    """Short digest naming one cached input bundle.

    Covers the program sources and the benchmark's own settings and input
    generator, so a cached bundle is never reused across versions of either.
    """
    h = hashlib.sha256(json.dumps(parts).encode())
    h.update(src_digest().encode())
    for name in ("common.py", "inputs.py"):
        h.update((BENCH / name).read_bytes())
    return h.hexdigest()[:12]


@functools.lru_cache(maxsize=None)
def src_digest() -> str:
    """SHA-256 over the program sources (the checkout is not a git repo)."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def context(workload: str, seed: int, trace: bool, **extra: Any) -> Dict[str, Any]:
    """What was measured, where: host, revision, seed, sizes, BLAS setting."""
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "host": {
            "nproc": os.cpu_count(),
            "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
        },
        "git_revision": git_revision(),
        "src_digest": src_digest(),
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "design": {"gates": GATES, "design_seed": DESIGN_SEED, "config": CONFIG,
                   "mode": MODE, **PREPARE_KW},
        **extra,
    }


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Inclusive-interpolated percentile ``q`` in (0, 100)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the ``q``-th percentile."""
    return n - int(n * q / 100.0)


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def run_child(argv: List[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a benchmark child to completion in its own process group.

    The whole group is killed afterwards, so pool workers of a child that
    died or timed out cannot outlive the run; then the group is waited out.
    """
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        out, err = proc.communicate()
    finally:
        kill_group(proc.pid)
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def kill_group(pgid: int) -> None:
    """SIGKILL every process left in a group and wait until none remains."""
    import signal
    import time

    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


# ------------------------------------------------------------------ metrics
#: (name, unit) of every end-to-end metric, reported by every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("build_s", "s"),
    ("throughput_rps", "chips/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ok_rate", "fraction"),
    ("peak_rss_mb", "MB"),
    ("fault_coverage", "fraction"),
    ("pattern_count", "count"),
    ("train_accuracy", "fraction"),
    ("accuracy", "fraction"),
    ("resolution", "candidates"),
    ("fhi", "rank"),
)

#: (name, unit) of every per-layer metric, reported by every traced run.
#: ``_s`` metrics are self time per operation: per build on the build
#: workloads; per server launch for design-preparation layers and per chip
#: for request-path layers on the served workloads.
PER_LAYER = (
    ("atpg.faultsim_s", "s"),
    ("atpg.faultsim_calls", "count"),
    ("atpg.podem_s", "s"),
    ("atpg.podem_calls", "count"),
    ("atpg.self_s", "s"),
    ("sim.goodsim_s", "s"),
    ("netlist.generate_s", "s"),
    ("m3d.partition_s", "s"),
    ("dft.scan_s", "s"),
    ("core.hetgraph_s", "s"),
    ("analysis.drc_s", "s"),
    ("tester.inject_s", "s"),
    ("tester.inject_yield", "fraction"),
    ("core.backtrace_s", "s"),
    ("core.subgraph_s", "s"),
    ("nn.fit_tier_s", "s"),
    ("nn.fit_miv_s", "s"),
    ("nn.fit_classifier_s", "s"),
    ("core.threshold_s", "s"),
    ("runtime.prepare_wall_s", "s"),
    ("runtime.dataset_wall_s", "s"),
    ("runtime.speedup", "x"),
    ("diagnosis.suspects_s", "s"),
    ("diagnosis.score_s", "s"),
    ("diagnosis.propagate_s", "s"),
    ("diagnosis.propagate_calls", "count"),
    ("tester.parse_s", "s"),
    ("nn.infer_s", "s"),
    ("nn.graphs_per_forward", "graphs"),
    ("serve.encode_s", "s"),
    ("serve.http_s", "s"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.batch_size_mean", "requests"),
    ("trace.overhead_pct", "%"),
)


def metrics_doc(values: Dict[str, float], catalogue: Sequence[tuple]) -> Dict[str, Any]:
    """Values in catalogue order with units; every catalogue name required."""
    missing = [name for name, _unit in catalogue if name not in values]
    if missing:
        raise KeyError(f"metrics not measured: {', '.join(missing)}")
    return {name: metric(float(values[name]), unit) for name, unit in catalogue}


def result_doc(ctx, values, catalogue, attempted, failed, problems) -> Dict[str, Any]:
    """One run's outcome; ``correct`` only with no problem and no failure."""
    try:
        metrics = metrics_doc(values, catalogue)
    except KeyError as exc:
        problems.append(str(exc))
        metrics = {}
    return {
        "context": ctx,
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
    }


def layer_values(
    setup: Dict[str, Dict[str, float]],
    setup_ops: int,
    request: Dict[str, Dict[str, float]],
    request_ops: int,
) -> Dict[str, float]:
    """Per-layer metrics from two span aggregates.

    ``setup`` covers design preparation, training and the dataset runtime
    (per build, or per server launch); ``request`` covers spans that served
    requests (per chip; empty on the build workload).  Back-trace,
    sub-graph extraction and GNN inference run in both: they are read from
    the request scope on the served workloads (so start-up warm-up is not
    billed to requests) and from the build otherwise.
    """
    empty = {"self_s": 0.0, "total_s": 0.0, "calls": 0, "items": 0}
    served = bool(request)

    def row(key: str, scope: str) -> Tuple[Dict[str, float], int]:
        if scope == "request" or (scope == "either" and served):
            return request.get(key, empty), request_ops
        return setup.get(key, empty), setup_ops

    def per(key: str, field: str = "self_s", scope: str = "setup") -> float:
        values, n = row(key, scope)
        return values[field] / max(1, n)

    def ratio(num: str, num_field: str, den: str, den_field: str,
              scope: str = "setup") -> float:
        d = row(den, scope)[0][den_field]
        return row(num, scope)[0][num_field] / d if d else 0.0

    prepare, dataset = row("runtime.prepare", "setup")[0], row("runtime.dataset", "setup")[0]
    wall = prepare["total_s"] + dataset["total_s"]
    layer_time = wall - prepare["self_s"] - dataset["self_s"]
    return {
        "atpg.faultsim_s": per("atpg.faultsim"),
        "atpg.faultsim_calls": per("atpg.faultsim", "calls"),
        "atpg.podem_s": per("atpg.podem"),
        "atpg.podem_calls": per("atpg.podem", "calls"),
        "atpg.self_s": per("atpg.tdf"),
        "sim.goodsim_s": per("sim.goodsim"),
        "netlist.generate_s": per("netlist.generate"),
        "m3d.partition_s": per("m3d.partition"),
        "dft.scan_s": per("dft.scan"),
        "core.hetgraph_s": per("core.hetgraph"),
        "analysis.drc_s": per("analysis.drc"),
        "tester.inject_s": per("tester.inject", "total_s"),
        "tester.inject_yield": ratio("tester.inject", "items", "tester.inject_try", "calls"),
        "core.backtrace_s": per("core.backtrace", scope="either"),
        "core.subgraph_s": per("core.subgraph", scope="either"),
        "nn.fit_tier_s": per("nn.fit_tier"),
        "nn.fit_miv_s": per("nn.fit_miv"),
        "nn.fit_classifier_s": per("nn.fit_classifier"),
        "core.threshold_s": per("core.threshold"),
        "runtime.prepare_wall_s": per("runtime.prepare", "total_s"),
        "runtime.dataset_wall_s": per("runtime.dataset", "total_s"),
        "runtime.speedup": layer_time / wall if wall else 0.0,
        "diagnosis.suspects_s": per("diagnosis.suspects", scope="request"),
        "diagnosis.score_s": per("diagnosis.effect_cause", scope="request"),
        "diagnosis.propagate_s": per("sim.propagate@diagnosis.effect_cause", scope="request"),
        "diagnosis.propagate_calls": per("sim.propagate@diagnosis.effect_cause", "calls",
                                         "request"),
        "tester.parse_s": per("tester.parse", scope="request"),
        "nn.infer_s": per("nn.infer", scope="either"),
        "nn.graphs_per_forward": ratio("nn.infer", "items", "nn.infer", "calls", "either"),
        "serve.encode_s": per("serve.encode", scope="request"),
        "serve.batch_size_mean": ratio("serve.batch", "items", "serve.batch", "calls",
                                       "request"),
    }
