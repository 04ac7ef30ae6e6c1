"""The ``diagnose`` and ``triage`` workloads: ``repro serve --http`` under load.

The server runs in its own child process (``serve_launcher.py``) and
warm-loads the framework the input generator trained.  One load-generator
process drives it with ``CONNECTIONS`` keep-alive connections in a closed
loop (each connection sends its next operation when the previous reply
arrives):

* ``diagnose`` — one datalog per request and **no** precomputed report, so
  the server runs effect-cause diagnosis for every request;
* ``triage`` — one lot per request: a JSONL body of ``LOT_SIZE`` datalogs,
  each with its precomputed ATPG report, so effect-cause is bypassed.

The operation count is fixed by ``--seconds``.  After the timed phase every
response is checked, after ``canonical_response``, against the offline
``pipeline.diagnose`` bytes of the same chip.
"""

from __future__ import annotations

import http.client
import json
import selectors
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import common as C
import inputs

READY_TIMEOUT_S = 120.0


@dataclass
class Server:
    proc: subprocess.Popen
    out_path: str
    launched: float
    ready_at: float = 0.0
    host: str = ""
    port: int = 0
    drain: Optional[threading.Thread] = None

    @property
    def setup_s(self) -> float:
        return self.ready_at - self.launched



def launch(bundle: Dict[str, Any], trace: bool, tag: str) -> Server:
    """Start ``repro serve --http`` and wait for its ``listening on`` line."""
    out_path = str(C.WORK / f"server-{tag}.json")
    log = open(C.WORK / f"server-{tag}.log", "w")
    argv = [sys.executable, str(C.BENCH / "serve_launcher.py"), out_path]
    if trace:
        argv.append("--trace")
    npz = str(C.CACHE / bundle["framework"])
    argv += ["--", "serve", "--http", "127.0.0.1:0", "--gates", str(C.GATES),
             "--seed", str(C.DESIGN_SEED), "--configs", C.CONFIG, "--mode", C.MODE,
             "--framework", npz]
    launched = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=C.ROOT, env=C.child_env(), stdout=subprocess.PIPE,
                            stderr=log, text=True, start_new_session=True)
    log.close()
    server = Server(proc=proc, out_path=out_path, launched=launched)
    try:
        _await_ready(server)
    except BaseException:
        stop(server)
        raise
    return server


def _await_ready(server: Server) -> None:
    assert server.proc.stdout is not None
    deadline = time.monotonic() + READY_TIMEOUT_S
    with selectors.DefaultSelector() as sel:
        sel.register(server.proc.stdout, selectors.EVENT_READ)
        while True:
            if not sel.select(timeout=max(0.0, deadline - time.monotonic())):
                raise RuntimeError("server did not become ready in time")
            line = server.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"server exited before ready (rc={server.proc.poll()})")
            if line.startswith("listening on http://"):
                server.ready_at = time.perf_counter()
                host, port = line.strip().rsplit("/", 1)[1].rsplit(":", 1)
                server.host, server.port = host, int(port)
                break
    # Keep the pipe drained so a late print can never block the server.
    server.drain = threading.Thread(target=server.proc.stdout.read, daemon=True)
    server.drain.start()


def stop(server: Server) -> Dict[str, Any]:
    """SIGINT the server, reap it, and read what the launcher wrote."""
    proc = server.proc
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            C.kill_group(proc.pid)
            proc.wait()
    C.kill_group(proc.pid)
    if server.drain is not None:
        server.drain.join(timeout=10)
    if proc.stdout is not None:
        proc.stdout.close()
    try:
        with open(server.out_path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {"rc": proc.returncode}


# ------------------------------------------------------------------ load
@dataclass
class Op:
    rid: str
    chips: List[int]
    body: bytes
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    reply: bytes = b""
    error: str = ""


def make_ops(workload: str, bundle: Dict[str, Any], seed: int, n_ops: int) -> List[Op]:
    """The seeded operation stream (bodies built before the timed phase).

    Chips are drawn as consecutive seeded permutations of the unique chip
    set, so every chip is submitted before any repeats.
    """
    import random

    rng = random.Random(seed)
    chips = bundle["chips"]
    per_op = 1 if workload == "diagnose" else C.LOT_SIZE
    order: List[int] = []
    while len(order) < n_ops * per_op:
        perm = list(range(len(chips)))
        rng.shuffle(perm)
        order.extend(perm)
    ops = []
    for n in range(n_ops):
        picked = order[n * per_op:(n + 1) * per_op]
        if workload == "diagnose":
            c = chips[picked[0]]
            body = json.dumps({"id": f"q{n}", "datalog": c["datalog"]})
            ops.append(Op(f"q{n}", picked, body.encode()))
        else:
            lines = [json.dumps({"id": f"L{n}.{j}", "datalog": chips[i]["datalog"],
                                 "report": chips[i]["report"]})
                     for j, i in enumerate(picked)]
            ops.append(Op(f"L{n}", picked, ("\n".join(lines) + "\n").encode()))
    return ops


def fire(server: Server, ops: List[Op], cap_s: float) -> float:
    """Closed loop over ``CONNECTIONS`` keep-alive connections; returns wall s.

    No operation is started after ``cap_s`` seconds; unstarted ones keep
    ``sent == 0`` and are left out of the run.
    """
    lock = threading.Lock()
    cursor = [0]
    start = threading.Barrier(C.CONNECTIONS + 1)

    def worker() -> None:
        conn = http.client.HTTPConnection(server.host, server.port, timeout=120)
        try:
            start.wait()
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(ops) or time.perf_counter() > deadline:
                    return
                op = ops[i]
                op.sent = time.perf_counter()
                try:
                    conn.request("POST", "/diagnose", body=op.body,
                                 headers={"Content-Type": "application/json",
                                          "X-Request-Id": op.rid})
                    resp = conn.getresponse()
                    op.reply = resp.read()
                    op.status = resp.status
                except (OSError, http.client.HTTPException) as exc:
                    op.error = repr(exc)
                    conn.close()
                    conn = http.client.HTTPConnection(server.host, server.port, timeout=120)
                op.done = time.perf_counter()
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(C.CONNECTIONS)]
    for t in threads:
        t.start()
    t0 = time.perf_counter()
    deadline = t0 + cap_s
    start.wait()
    for t in threads:
        t.join()
    return time.perf_counter() - t0


# ---------------------------------------------------------- verification
@dataclass
class Checked:
    ok_chips: int = 0
    failed_chips: int = 0
    queue_s: List[float] = field(default_factory=list)
    #: Server-side time to build each answer: its batch's effect-cause and
    #: GNN-policy seconds (response provenance) over the batch size.
    build_s: List[float] = field(default_factory=list)
    first_docs: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


def verify(ops: List[Op], bundle: Dict[str, Any]) -> Checked:
    """Every response against the offline bytes of its chip."""
    from repro.serve import canonical_response, dumps_response

    out = Checked()
    chips = bundle["chips"]
    for op in ops:
        lines = op.reply.decode("utf-8", errors="replace").splitlines() if op.status == 200 else []
        if op.error or op.status != 200 or len(lines) != len(op.chips):
            out.failed_chips += len(op.chips)
            out.problems.append(f"{op.rid}: status {op.status} {op.error}".strip())
            continue
        for chip_index, line in zip(op.chips, lines):
            doc = json.loads(line)
            if not doc.get("ok"):
                out.failed_chips += 1
                out.problems.append(f"{op.rid}: {doc.get('error')}")
                continue
            out.ok_chips += 1
            prov = doc["provenance"]
            out.queue_s.append(prov["timings"]["queue_s"])
            out.build_s.append((prov["timings"]["atpg_s"] + prov["timings"]["infer_s"])
                               / prov["batch_size"])
            # The echoed id is the client's own; the offline reference was
            # encoded without one, which echoes the chip id instead.
            doc["id"] = doc["chip"]
            if dumps_response(canonical_response(doc)) != chips[chip_index]["expected"]:
                out.problems.append(f"{op.rid}: chip {chips[chip_index]['chip']} differs "
                                    "from offline pipeline.diagnose")
            out.first_docs.setdefault(chip_index, doc)
    return out


def served_quality(docs: Dict[int, Dict[str, Any]], bundle: Dict[str, Any]) -> Dict[str, float]:
    """Accuracy / resolution / FHI over the given chips' response documents."""
    from repro.serve import candidate_from_json

    pairs = []
    for chip_index, doc in sorted(docs.items()):
        cands = [candidate_from_json(c) for c in doc["candidates"]]
        truths = [candidate_from_json(t) for t in bundle["chips"][chip_index]["truth"]]
        pairs.append((cands, truths))
    return inputs.quality(pairs)


# ------------------------------------------------------------------ runs
def _load(workload: str, bundle: Dict[str, Any], seed: int, n_ops: int, server: Server,
          cap_s: float):
    ops = make_ops(workload, bundle, seed, n_ops)
    wall = fire(server, ops, cap_s)
    return [op for op in ops if op.sent], wall


def run(workload: str, seed: int, seconds: int, trace: bool) -> Dict[str, Any]:
    sys.path.insert(0, str(C.SRC))
    bundle = inputs.load("served", seed)
    n_ops = max(1, seconds * C.OPS_PER_SECOND[workload])
    per_op = 1 if workload == "diagnose" else C.LOT_SIZE
    problems: List[str] = []
    total_chips = n_ops * per_op
    ctx = C.context(
        workload, seed, trace, connections=C.CONNECTIONS, loop="closed",
        lot_size=per_op, operations=n_ops, unique_chips=len(bundle["chips"]),
        repeated_submission_share=max(0.0, 1.0 - len(bundle["chips"]) / total_chips),
        precomputed_reports=workload == "triage", design_stats=bundle["design"],
        serve_train_chips=C.SERVE_TRAIN, serve_epochs=C.SERVE_EPOCHS,
    )
    if trace:
        return _traced(workload, bundle, seed, seconds, n_ops, ctx, problems)

    # Every launch is timed for setup_s; the middle one takes the load, so
    # the launches sample the host before and after it.
    servers: List[Server] = []
    for k in range(C.SETUP_LAUNCHES):
        if k == C.SETUP_LAUNCHES // 2:
            servers.append(launch(bundle, False, f"{workload}-load"))
            try:
                ops, wall = _load(workload, bundle, seed, n_ops, servers[-1],
                                  C.CAP_FACTOR * seconds)
            finally:
                report = stop(servers[-1])
        else:
            servers.append(launch(bundle, False, f"{workload}-{k}"))
            stop(servers[-1])
    if len(ops) < n_ops:
        ctx["capped_after"] = len(ops)
    checked = verify(ops, bundle)
    problems.extend(checked.problems[:20])
    values = _end_to_end(servers, ops, wall, checked, bundle, report, problems)
    ctx["quality_chips"] = len(checked.first_docs)
    ctx["latency_samples"] = len(ops)
    ctx["latency_p90_samples_beyond"] = C.samples_beyond(len(ops), 90)
    return C.result_doc(ctx, values, C.END_TO_END, len(ops) * per_op, checked.failed_chips,
                        problems)


def _end_to_end(servers, ops, wall, checked, bundle, report, problems):
    ok_ops = [op for op in ops if op.status == 200 and not op.error]
    latency = [(op.done - op.sent) * 1000.0 for op in ok_ops]
    quality = served_quality(checked.first_docs, bundle)
    offline = served_quality({i: json.loads(bundle["chips"][i]["expected"])
                              for i in checked.first_docs}, bundle)
    for key in ("accuracy", "resolution", "fhi"):
        if quality[key] != offline[key]:
            problems.append(f"{key} {quality[key]!r} != offline {offline[key]!r}")
    attempted = len(ops) * len(ops[0].chips)
    return {
        "setup_s": C.median([s.setup_s for s in servers]),
        "build_s": C.mean(checked.build_s),
        "throughput_rps": checked.ok_chips / wall,
        "latency_p50_ms": C.percentile(latency, 50),
        "latency_p90_ms": C.percentile(latency, 90),
        "ok_rate": checked.ok_chips / attempted,
        "peak_rss_mb": report.get("peak_rss_mb", 0.0),
        "fault_coverage": bundle["fault_coverage"],
        "pattern_count": bundle["pattern_count"],
        "train_accuracy": bundle["train_accuracy"],
        "accuracy": quality["accuracy"],
        "resolution": quality["resolution"],
        "fhi": quality["fhi"],
    }


def _traced(workload, bundle, seed, seconds, n_ops, ctx, problems) -> Dict[str, Any]:
    """Half the operations untraced, half traced, on fresh servers."""
    import tracer as T

    half = max(1, n_ops // 2)
    runs = {}
    for mode in (False, True):
        server = launch(bundle, mode, f"{workload}-trace{int(mode)}")
        try:
            ops, wall = _load(workload, bundle, seed, half, server,
                              C.CAP_FACTOR * seconds / 2)
        finally:
            report = stop(server)
        checked = verify(ops, bundle)
        problems.extend(checked.problems[:20])
        runs[mode] = (ops, wall, checked, report)
    ops, wall, checked, report = runs[True]
    chips = max(1, checked.ok_chips)
    values = C.layer_values(report.get("setup", {}), 1, report.get("request", {}), chips)
    served_s = dict(report.get("http", []))
    gaps = [(op.done - op.sent) - served_s[op.rid] for op in ops if op.rid in served_s]
    values["serve.http_s"] = sum(gaps) / chips
    values["serve.queue_wait_ms"] = 1000.0 * sum(checked.queue_s) / chips
    plain = runs[False]
    values["trace.overhead_pct"] = 100.0 * (
        (wall / chips) / (plain[1] / max(1, plain[2].ok_chips)) - 1.0)
    problems.extend(f"tracer selfcheck: {f}" for f in T.selfcheck())
    if len(gaps) != len(ops):
        problems.append(f"{len(ops) - len(gaps)} operation(s) without an HTTP span")
    counts = T.call_counts(report.get("request", {}))
    # Batch composition depends on timing; per-request layers do not.
    ctx["call_counts"] = {k: v for k, v in counts.items()
                          if k.split("@")[0] in ("tester.parse", "diagnosis.effect_cause",
                                                 "diagnosis.suspects", "serve.parse")
                          or k == "sim.propagate@diagnosis.effect_cause"}
    failed = sum(r[2].failed_chips for r in runs.values())
    result = C.result_doc(ctx, values, C.PER_LAYER, 2 * half * len(ops[0].chips), failed,
                          problems)
    result["call_counts"] = ctx["call_counts"]
    return result

