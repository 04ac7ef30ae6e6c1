"""The ``build`` workload: cold builds in fresh processes.

One operation is one build: a fresh process (``build_child.py``) that goes
from the design spec to a trained framework — Syn-1 plus Rand-k partitions
through ``DatasetRuntime(workers=1).prepare_many``, one training set each,
one ``M3DDiagnosisFramework.fit`` — with no artifact cache.  The number of
builds is fixed by ``--seconds``, not by how fast the program is, so every
run of a given length does the same work.  Traced builds repeat the build
through ``DatasetRuntime(workers=nproc)`` afterwards: that parallel pass
measures the pool / shared-memory tier and must reproduce the serial
fingerprints.
"""

from __future__ import annotations

import json
import math
import sys
import time
from typing import Any, Dict, List

import common as C
import inputs


def _one_build(ref_path: str, flags: List[str]) -> Dict[str, Any]:
    argv = [sys.executable, str(C.BENCH / "build_child.py"), ref_path, *flags]
    launched = time.perf_counter()
    proc = C.run_child(argv, timeout=170)
    if proc.returncode != 0:
        return {"error": proc.stderr[-2000:]}
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - launched
    return out


def _check(ref: Dict[str, Any], out: Dict[str, Any], problems: List[str], tag: str) -> None:
    """Exact-match gates against the serial reference build."""
    if out["fingerprints"] != ref["fingerprints"]:
        problems.append(f"{tag}: dataset fingerprints differ from the serial reference")
    if out.get("parallel_fingerprints", ref["fingerprints"]) != ref["fingerprints"]:
        problems.append(f"{tag}: workers=nproc dataset fingerprints differ from serial")
    for key in ("fault_coverage", "pattern_count", "train_accuracy", "train_chips"):
        if out[key] != ref[key]:
            problems.append(f"{tag}: {key} {out[key]!r} != reference {ref[key]!r}")
    for key in ("accuracy", "resolution", "fhi"):
        if out["quality"][key] != ref["quality"][key]:
            problems.append(f"{tag}: {key} {out['quality'][key]!r} "
                            f"!= reference {ref['quality'][key]!r}")


def run(workload: str, seed: int, seconds: int, trace: bool) -> Dict[str, Any]:
    ref = inputs.load("build", seed)
    n_builds = max(C.MIN_BUILDS, math.ceil(seconds * C.BUILDS_PER_SECOND))
    problems: List[str] = []
    ctx = C.context(workload, seed, trace, workers=1, builds=n_builds,
                    design_stats=ref["design"], train_chips=ref["train_chips"],
                    n_designs=1 + C.N_RANDOM, train_per_design=C.TRAIN_PER_DESIGN,
                    epochs=C.EPOCHS, test_chips=C.TEST_CHIPS,
                    # Every build of a run repeats the same inputs, each in a
                    # fresh process with no artifact cache: nothing is reused.
                    repeated_submission_share=(n_builds - 1) / n_builds)

    deadline = time.perf_counter() + C.CAP_FACTOR * seconds

    def gather(flags_for):
        outs = []
        for i in range(n_builds):
            if i >= 2 and time.perf_counter() > deadline:
                ctx["capped_after"] = i
                break
            out = _one_build(ref["path"], flags_for(i))
            if "error" in out:
                problems.append(f"build {i} failed: {out['error']}")
            else:
                _check(ref, out, problems, f"build {i}")
            outs.append(out)
        return outs

    if not trace:
        outs = gather(lambda i: [])
        good = [o for o in outs if "error" not in o]
        values = _end_to_end(good, len(outs)) if good else {}
        ctx["samples"] = len(good)
        return C.result_doc(ctx, values, C.END_TO_END, len(outs), len(outs) - len(good),
                            problems)

    # Traced run: alternate traced and untraced builds, so the overhead
    # compares like with like; per-layer numbers come from the traced ones.
    outs = gather(lambda i: ["--trace", "--parallel-pass"] if i % 2 == 0 else [])
    traced = [o for o in outs if "layers" in o]
    plain = [o for o in outs if "error" not in o and "layers" not in o]
    values: Dict[str, float] = {}
    if traced and plain:
        import tracer as T

        values = _layers(traced)
        values["trace.overhead_pct"] = 100.0 * (
            C.mean([o["build_s"] for o in traced]) / C.mean([o["build_s"] for o in plain]) - 1.0
        )
        counts = [T.call_counts(o["layers"]) for o in traced]
        if any(c != counts[0] for c in counts[1:]):
            problems.append("span call counts differ between traced builds of one seed")
        ctx["call_counts"] = counts[0]
        failures = T.selfcheck()
        problems.extend(f"tracer selfcheck: {f}" for f in failures)
    result = C.result_doc(ctx, values, C.PER_LAYER, len(outs),
                          len(outs) - len(traced) - len(plain), problems)
    result["call_counts"] = ctx.get("call_counts", {})
    return result


def _end_to_end(outs: List[Dict[str, Any]], attempted: int) -> Dict[str, float]:
    build_s = [o["build_s"] for o in outs]
    chips = outs[0]["train_chips"]
    # The build time is a mean, not a median: the host drifts between a fast
    # and a ~1.4x slower state every few seconds, and the median of a
    # handful of builds jumps between the two modes where the mean moves
    # with the share of time spent in each.
    return {
        "setup_s": C.median([o["setup_s"] for o in outs]),
        "build_s": C.mean(build_s),
        "throughput_rps": chips * len(build_s) / sum(build_s),
        "latency_p50_ms": 1000.0 * C.median(build_s),
        "latency_p90_ms": 1000.0 * C.percentile(build_s, 90),
        "ok_rate": len(outs) / attempted,
        "peak_rss_mb": max(o["peak_rss_mb"] for o in outs),
        "fault_coverage": outs[0]["fault_coverage"],
        "pattern_count": outs[0]["pattern_count"],
        "train_accuracy": outs[0]["train_accuracy"],
        "accuracy": outs[0]["quality"]["accuracy"],
        "resolution": outs[0]["quality"]["resolution"],
        "fhi": outs[0]["quality"]["fhi"],
    }


def _layers(traced: List[Dict[str, Any]]) -> Dict[str, float]:
    """Mean per-build layer metrics over the traced builds.

    The ``runtime`` walls come from the parallel pass; ``runtime.speedup``
    is the serial build's layer time over that pass's wall time.
    """
    n = len(traced)
    values = C.layer_values(_sum_aggs([o["layers"] for o in traced]), n, {}, 1)
    serial_layer_time = values["runtime.speedup"] * (
        values["runtime.prepare_wall_s"] + values["runtime.dataset_wall_s"])
    par = C.layer_values(_sum_aggs([o["parallel_layers"] for o in traced]), n, {}, 1)
    for name in ("runtime.prepare_wall_s", "runtime.dataset_wall_s"):
        values[name] = par[name]
    wall = par["runtime.prepare_wall_s"] + par["runtime.dataset_wall_s"]
    values["runtime.speedup"] = serial_layer_time / wall if wall else 0.0
    values["serve.http_s"] = values["serve.queue_wait_ms"] = 0.0
    return values


def _sum_aggs(aggs: List[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for agg in aggs:
        for key, row in agg.items():
            acc = out.setdefault(key, {"self_s": 0.0, "total_s": 0.0, "calls": 0, "items": 0})
            for field in acc:
                acc[field] += row[field]
    return out

