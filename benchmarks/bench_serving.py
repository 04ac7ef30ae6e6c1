"""Bench: diagnosis-as-a-service latency and block-diagonal batching gains.

Four arms over the same pool of synthetic failure datalogs.  The first
three send each submission with its precomputed ATPG candidate list, so the
measured delta is the GNN inference + policy path the batcher actually
batches:

1. **sequential** — the serving core with ``max_batch=1``: every request
   pays its own three model forwards (the pre-batching regime);
2. **batched** — the same core with ``max_batch=64``: concurrent requests
   share block-diagonal forwards;
3. **http** — a live ``repro serve`` HTTP server fired at with the stdlib
   concurrent client, recording end-to-end p50/p99 latency and throughput;
4. **effect_cause** — the batched core again, with the reports stripped, so
   the server runs effect-cause diagnosis per chip; it records the
   effect-cause milliseconds per chip beside the end-to-end throughput.

At ``REPRO_SCALE=default`` the run floods the server with 1000 concurrent
synthetic datalogs, snapshots everything to ``BENCH_serving.json`` at the
repo root, and enforces the batching floor: batched core throughput must be
at least 2x the sequential baseline.  ``REPRO_SCALE=tiny`` is the same flow
as a smoke test without the floor.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from conftest import run_once

from repro.core import M3DDiagnosisFramework
from repro.data import DesignConfig, build_dataset, prepare_design
from repro.diagnosis import EffectCauseDiagnoser
from repro.netlist import GeneratorSpec
from repro.runtime.instrument import RuntimeStats
from repro.serve import (
    DesignContext,
    DiagnosisService,
    ModelRegistry,
    RequestBatcher,
    ServeClient,
    candidate_to_json,
    fire_concurrent,
    percentile,
    serve_http,
)
from repro.tester.datalog import dumps_datalog

REPO_ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = REPO_ROOT / "BENCH_serving.json"

#: Requests in flight / unique chips behind them, per scale.
N_REQUESTS = {"default": 1000, "tiny": 60}
N_CHIPS = {"default": 60, "tiny": 12}
EPOCHS = {"default": 10, "tiny": 4}
MAX_BATCH = 64
HTTP_CONCURRENCY = 64
SPEEDUP_FLOOR = 2.0


def _build_serving_state(scale):
    spec = GeneratorSpec("bench-serve", "aes_like", 200, 28, 14, 14, seed=11)
    design = prepare_design(
        spec, DesignConfig.standard("Syn-1"), n_chains=4,
        chains_per_channel=2, max_patterns=96,
    )
    train = build_dataset(design, "bypass", 60, seed=71)
    fw = M3DDiagnosisFramework(epochs=EPOCHS.get(scale, EPOCHS["tiny"]), seed=0)
    fw.fit([train])

    chips = build_dataset(
        design, "bypass", N_CHIPS.get(scale, N_CHIPS["tiny"]), seed=72
    ).items
    diag = EffectCauseDiagnoser(
        design.nl, design.obsmap("bypass"), design.patterns,
        mivs=design.mivs, sim=design.sim,
    )
    submissions = []
    n_requests = N_REQUESTS.get(scale, N_REQUESTS["tiny"])
    for i in range(n_requests):
        chip = chips[i % len(chips)]
        report = diag.diagnose(chip.sample.log)
        submissions.append({
            "id": f"r{i}",
            "datalog": dumps_datalog(
                chip.sample.log, f"r{i}", design.obsmap("bypass")
            ),
            "report": [candidate_to_json(c) for c in report.candidates],
        })
    return design, fw, submissions


def _core_arm(design, fw, submissions, max_batch):
    """Flood the serving core (no HTTP) and drain every future."""
    registry = ModelRegistry()
    registry.register("Syn-1", "v1", fw)
    registry.warmup()
    stats = RuntimeStats()
    service = DiagnosisService(
        registry, {"bench": DesignContext("bench", design)}, stats=stats
    )
    batcher = RequestBatcher(
        service.process_batch, max_batch=max_batch,
        max_queue=len(submissions) + 1, flush_interval_s=0.005, stats=stats,
    )
    futures = [batcher.submit(sub) for sub in submissions]  # all concurrent
    t0 = time.perf_counter()
    batcher.start()
    docs = [f.result() for f in futures]
    wall = time.perf_counter() - t0
    batcher.close()
    assert all(doc["ok"] for doc in docs), "serving arm produced errors"
    batches = stats.counters.get("serve.batches", 1)
    atpg = service.tracer.export()["serve.batch.serve.atpg"]
    return {
        "max_batch": max_batch,
        "n_requests": len(docs),
        "wall_s": round(wall, 6),
        "throughput_rps": round(len(docs) / wall, 3),
        "batches": batches,
        "mean_batch_size": round(len(docs) / batches, 2),
        "effect_cause_ms_per_chip": round(
            atpg["seconds"] / len(docs) * 1e3, 4
        ),
    }


def _http_arm(design, fw, submissions):
    """End-to-end HTTP latency under concurrent fire."""
    registry = ModelRegistry()
    registry.register("Syn-1", "v1", fw)
    registry.warmup()
    stats = RuntimeStats()
    service = DiagnosisService(
        registry, {"bench": DesignContext("bench", design)}, stats=stats
    )
    batcher = RequestBatcher(
        service.process_batch, max_batch=MAX_BATCH,
        max_queue=max(256, HTTP_CONCURRENCY * 4), flush_interval_s=0.005,
        stats=stats,
    ).start()
    httpd = serve_http(service, batcher)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    host, port = httpd.server_address
    client = ServeClient(f"http://{host}:{port}", timeout_s=120.0)
    fired = fire_concurrent(client, submissions, concurrency=HTTP_CONCURRENCY)
    httpd.shutdown()
    httpd.server_close()
    batcher.close()
    assert fired["n_errors"] == 0, "HTTP arm produced errors"
    fired.pop("responses")  # the snapshot keeps numbers, not payloads
    fired["concurrency"] = HTTP_CONCURRENCY
    batches = stats.counters.get("serve.batches", 1)
    fired["mean_batch_size"] = round(fired["n_requests"] / batches, 2)
    return fired


def _bench_serving(scale):
    design, fw, submissions = _build_serving_state(scale)
    sequential = _core_arm(design, fw, submissions, max_batch=1)
    batched = _core_arm(design, fw, submissions, max_batch=MAX_BATCH)
    http = _http_arm(design, fw, submissions)
    effect_cause = _core_arm(
        design, fw, [{k: v for k, v in sub.items() if k != "report"}
                     for sub in submissions],
        max_batch=MAX_BATCH,
    )
    return {
        "scale": scale,
        "workload": {
            "n_requests": len(submissions),
            "n_unique_chips": N_CHIPS.get(scale, N_CHIPS["tiny"]),
            "design_gates": design.nl.n_gates,
            "precomputed_reports": True,
        },
        "host": {"cpu_logical": os.cpu_count()},
        "sequential": sequential,
        "batched": batched,
        "http": http,
        "effect_cause": effect_cause,
        "speedup": {
            "batched_vs_sequential": round(
                batched["throughput_rps"] / sequential["throughput_rps"], 3
            ),
        },
    }


def test_serving_throughput(benchmark, scale):
    result = run_once(benchmark, _bench_serving, scale)
    w = result["workload"]
    print(
        f"\n[{scale}] {w['n_requests']} concurrent datalogs "
        f"({w['n_unique_chips']} unique chips, reports precomputed)"
    )
    for arm in ("sequential", "batched"):
        row = result[arm]
        print(
            f"  core {arm:10s} max_batch={row['max_batch']:3d}  "
            f"{row['throughput_rps']:9.1f} req/s  "
            f"(mean batch {row['mean_batch_size']:.1f})"
        )
    http = result["http"]
    print(
        f"  http end-to-end  {http['throughput_rps']:9.1f} req/s  "
        f"p50 {http['latency_p50_s'] * 1e3:.1f}ms  "
        f"p99 {http['latency_p99_s'] * 1e3:.1f}ms  "
        f"429 retries: {http['retries_429']}"
    )
    ec = result["effect_cause"]
    print(
        f"  core effect-cause per chip  {ec['throughput_rps']:9.1f} req/s  "
        f"effect-cause {ec['effect_cause_ms_per_chip']:.2f} ms/chip"
    )
    speedup = result["speedup"]["batched_vs_sequential"]
    print(f"  batched vs sequential core: {speedup:.2f}x")
    assert percentile([1.0, 2.0], 50) >= 1.0  # keep the helper honest
    if scale == "default":
        # Only the paper-shaped run refreshes the committed snapshot; smoke
        # scales would clobber it with non-representative numbers.
        SNAPSHOT.write_text(json.dumps(result, indent=2) + "\n")
        assert speedup >= SPEEDUP_FLOOR
