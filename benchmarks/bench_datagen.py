"""Bench: persistent-pool dataset generation — scaling sweep vs. serial.

Measures, on one prepared default-scale benchmark:

* serial (``workers=1``) injected-dataset build wall-clock,
* the same build over persistent pools of 1/2/4/8 workers (the scaling
  curve),
* a cold-cache build that also populates the artifact cache,
* a warm-cache rerun that must reload every chunk without simulating, and
* generation wall-clock of the ≥100K-gate ``large`` tier (linear-time
  generator path).

All datasets are verified byte-identical via their canonical SHA-256
fingerprints before anything is reported, and the measured numbers are
snapshotted to ``BENCH_datagen.json`` at the repo root.

Host reporting: the snapshot records both the logical CPU count and the
scheduler-affinity size, and raises an explicit ``core_gated`` flag when
fewer than 2 effective cores are available — on such hosts a process pool
cannot beat serial wall-clock, so the speedup floors are annotated rather
than silently meaningless.  With >= 4 effective cores the 4-worker build
must be at least 2x serial at ``REPRO_SCALE=default``; with >= 2 it must at
least not lose to serial.  ``REPRO_SCALE=tiny`` runs the same flow as a
smoke test without the speedup floors.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from conftest import run_once

from repro.data import DesignConfig
from repro.netlist import GeneratorSpec
from repro.netlist.generators import generate
from repro.obs import SpanTracer
from repro.runtime import DatasetRuntime, RuntimeStats, sample_set_fingerprint

REPO_ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = REPO_ROOT / "BENCH_datagen.json"

#: Default scale mirrors the AES-like point of the experiment suite's
#: design matrix (700 gates); tiny is a smoke-sized stand-in.
SPECS = {
    "default": GeneratorSpec("bench_datagen", "aes_like", 700, 80, 32, 32, seed=3),
    "tiny": GeneratorSpec("bench_datagen", "aes_like", 120, 12, 8, 8, seed=3),
}
PREPARE = {
    "default": dict(n_chains=8, chains_per_channel=4, max_patterns=192),
    "tiny": dict(n_chains=4, chains_per_channel=2, max_patterns=48),
}
N_SAMPLES = {"default": 256, "tiny": 48}
#: The paper-scale tier exercised for generation only (ATPG at 98K gates is
#: out of scope for a bench run); mirrors the ``large`` AES point.
LARGE_SPEC = GeneratorSpec("bench_large", "aes_like", 98_000, 10_800, 128, 128, seed=1)
SWEEP_WORKERS = (1, 2, 4, 8)
WORKERS = 4
SEED = 31337


def _effective_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _timed_build(rt, design, n_samples):
    t0 = time.perf_counter()
    ds = rt.build_dataset(design, "bypass", n_samples, SEED)
    return ds, time.perf_counter() - t0


def _bench_datagen(scale):
    spec = SPECS.get(scale, SPECS["tiny"])
    kwargs = PREPARE.get(scale, PREPARE["tiny"])
    n_samples = N_SAMPLES.get(scale, 48)

    with tempfile.TemporaryDirectory(prefix="repro_bench_cache_") as cache_dir:
        cold_stats = RuntimeStats()
        rt_cold = DatasetRuntime(workers=WORKERS, cache_dir=cache_dir, stats=cold_stats)
        t0 = time.perf_counter()
        design = rt_cold.prepare(spec, DesignConfig.standard("Syn-1"), **kwargs)
        t_prepare = time.perf_counter() - t0

        ds_serial, t_serial = _timed_build(DatasetRuntime(workers=1), design, n_samples)

        # Scaling curve over persistent pools.  Each width is measured on a
        # warmed pool (one throwaway build first) so the numbers reflect
        # steady-state dispatch, not one-time worker fork cost.
        scaling = {}
        digest = sample_set_fingerprint(ds_serial)
        for w in SWEEP_WORKERS:
            rt_w = DatasetRuntime(workers=w)
            if w > 1:
                rt_w.build_dataset(design, "bypass", min(n_samples, 48), SEED)
            ds_w, t_w = _timed_build(rt_w, design, n_samples)
            assert sample_set_fingerprint(ds_w) == digest
            scaling[str(w)] = {
                "seconds": t_w,
                "samples_per_s": n_samples / t_w,
                "speedup_vs_serial": t_serial / t_w,
            }
        t_par = scaling[str(WORKERS)]["seconds"]

        _ds_cold, t_cold = _timed_build(rt_cold, design, n_samples)
        assert sample_set_fingerprint(_ds_cold) == digest

        warm_stats, warm_tracer = RuntimeStats(), SpanTracer()
        rt_warm = DatasetRuntime(workers=1, cache_dir=cache_dir, stats=warm_stats,
                                 tracer=warm_tracer)
        t0 = time.perf_counter()
        design_warm = rt_warm.prepare(spec, DesignConfig.standard("Syn-1"), **kwargs)
        ds_warm, t_warm = _timed_build(rt_warm, design_warm, n_samples)
        assert sample_set_fingerprint(ds_warm) == digest

        warm_skipped_simulation = (
            warm_stats.counters.get("dataset.chunks_built", 0) == 0
            and warm_stats.counters.get("prepare.designs_built", 0) == 0
            and "dataset.chunk" not in warm_tracer.export()
        )

        t0 = time.perf_counter()
        large_nl = generate(LARGE_SPEC)
        t_large_gen = time.perf_counter() - t0

        cores = _effective_cores()
        return {
            "scale": scale,
            "workers": WORKERS,
            "host": {
                "cpu_logical": os.cpu_count() or 1,
                "cpu_affinity": cores,
            },
            "core_gated": cores < 2,
            "design": {
                "name": spec.name,
                "n_gates": design.nl.n_gates,
                "n_patterns": design.patterns.n_patterns,
                "n_samples": n_samples,
            },
            "prepare_seconds": t_prepare,
            "build": {
                "serial": {"seconds": t_serial, "samples_per_s": n_samples / t_serial},
                "parallel": {"seconds": t_par, "samples_per_s": n_samples / t_par},
                "cold_cache": {"seconds": t_cold, "samples_per_s": n_samples / t_cold},
                "warm_cache": {"seconds": t_warm, "samples_per_s": n_samples / t_warm},
            },
            "scaling": scaling,
            "speedup": {
                "parallel_vs_serial": t_serial / t_par,
                "warm_cache_vs_serial": t_serial / t_warm,
            },
            "warm_cache": {
                "chunk_hits": warm_stats.counters.get("cache.sample_chunk.hit", 0),
                "design_hits": warm_stats.counters.get("cache.design.hit", 0),
                "chunks_built": warm_stats.counters.get("dataset.chunks_built", 0),
                "skipped_simulation": warm_skipped_simulation,
            },
            "large_tier": {
                "name": LARGE_SPEC.name,
                "n_gates": large_nl.n_gates,
                "generate_seconds": t_large_gen,
            },
            "fingerprints_identical": True,
            "fingerprint": digest,
        }


def test_datagen_throughput(benchmark, scale):
    result = run_once(benchmark, _bench_datagen, scale)
    d = result["design"]
    host = result["host"]
    print(
        f"\n[{scale}] {d['n_gates']} gates, {d['n_patterns']} patterns, "
        f"{d['n_samples']} samples, {result['workers']} workers "
        f"(prepare {result['prepare_seconds']:.1f}s; host "
        f"{host['cpu_logical']} logical / {host['cpu_affinity']} effective cores)"
    )
    for name, row in result["build"].items():
        print(
            f"  build {name:10s}: {row['samples_per_s']:8.1f} samples/s "
            f"({row['seconds']:.2f}s)"
        )
    curve = ", ".join(
        f"{w}w {row['speedup_vs_serial']:.2f}x" for w, row in result["scaling"].items()
    )
    print(f"  scaling: {curve}")
    print(
        f"  speedup: parallel {result['speedup']['parallel_vs_serial']:.2f}x, "
        f"warm cache {result['speedup']['warm_cache_vs_serial']:.2f}x "
        f"({result['warm_cache']['chunk_hits']} chunk hits)"
    )
    print(
        f"  large tier: {result['large_tier']['n_gates']} gates generated in "
        f"{result['large_tier']['generate_seconds']:.2f}s"
    )
    assert result["fingerprints_identical"]
    assert result["warm_cache"]["skipped_simulation"]
    if scale == "default":
        # Only the paper-shaped run refreshes the committed snapshot; smoke
        # scales would clobber it with non-representative numbers.
        SNAPSHOT.write_text(json.dumps(result, indent=2) + "\n")
        assert result["speedup"]["warm_cache_vs_serial"] >= 2.0
        cores = result["host"]["cpu_affinity"]
        if result["core_gated"]:
            print("  (core-gated host: parallel speedup floors not enforced)")
        elif cores >= 4:
            assert result["speedup"]["parallel_vs_serial"] >= 2.0
        else:
            assert result["speedup"]["parallel_vs_serial"] >= 1.0
