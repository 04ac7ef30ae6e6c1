"""Diagnosis-as-a-service tests: batcher, registry, protocol, HTTP, stdin.

The e2e contract under test is the acceptance criterion of the serving PR:
a response produced by the live batched server is byte-identical (after
:func:`canonical_response` strips volatile timings) to the offline
``pipeline.diagnose`` serialization of the same datalog.
"""

import http.client
import io
import json
import socket
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import M3DDiagnosisFramework
from repro.data import build_dataset
from repro.diagnosis import EffectCauseDiagnoser
from repro.runtime.instrument import RuntimeStats
from repro.serve import (
    MAX_LINE_BYTES,
    DesignContext,
    DiagnosisService,
    ModelRegistry,
    ProtocolError,
    QueueFullError,
    RequestBatcher,
    ServeClient,
    UnknownModelError,
    candidate_from_json,
    candidate_to_json,
    canonical_float,
    canonical_response,
    dumps_response,
    fire_concurrent,
    parse_submission,
    percentile,
    result_response,
    serve_http,
    serve_stdin,
)
from repro.tester.datalog import dumps_datalog, loads_datalog


# ------------------------------------------------------------------ fixtures
@pytest.fixture(scope="module")
def fw(prepared):
    train = build_dataset(prepared, "bypass", 60, seed=61)
    framework = M3DDiagnosisFramework(epochs=10, seed=0)
    framework.fit([train])
    return framework


@pytest.fixture(scope="module")
def chips(prepared):
    """(items, reports, datalogs): ten failing chips ready to submit."""
    test = build_dataset(prepared, "bypass", 10, seed=62)
    diag = EffectCauseDiagnoser(
        prepared.nl,
        prepared.obsmap("bypass"),
        prepared.patterns,
        mivs=prepared.mivs,
        sim=prepared.sim,
    )
    reports = [diag.diagnose(item.sample.log) for item in test.items]
    datalogs = [
        dumps_datalog(item.sample.log, f"chip{i}", prepared.obsmap("bypass"))
        for i, item in enumerate(test.items)
    ]
    return test.items, reports, datalogs


@pytest.fixture
def serving(fw, prepared):
    """A live HTTP server around the module-scoped framework."""
    registry = ModelRegistry()
    record = registry.register("Syn-1", "v1", fw)
    stats = RuntimeStats()
    service = DiagnosisService(
        registry, {"small": DesignContext("small", prepared)}, stats=stats
    )
    batcher = RequestBatcher(
        service.process_batch, max_batch=8, max_queue=32,
        flush_interval_s=0.005, stats=stats,
    ).start()
    httpd = serve_http(service, batcher)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address
    client = ServeClient(f"http://{host}:{port}", timeout_s=30.0)
    yield client, service, batcher, record
    httpd.shutdown()
    httpd.server_close()
    batcher.close()


def _offline_doc(fw, prepared, record, item, report, rid, chip=None):
    """The offline pipeline.diagnose serialization the server must match."""
    result = fw.diagnose(prepared, "bypass", item.sample.log, report)
    provenance = {
        "design": "small",
        "config": "Syn-1",
        "mode": "bypass",
        "model_version": record.version,
        "nn_backend": record.backend,
    }
    return result_response(result, rid, chip if chip is not None else rid,
                           provenance)


# ------------------------------------------------------------------ protocol
class TestProtocol:
    def test_candidate_roundtrip(self, chips):
        _items, reports, _logs = chips
        report = next(r for r in reports if r.candidates)
        for cand in report.candidates[:5]:
            doc = candidate_to_json(cand)
            back = candidate_from_json(json.loads(json.dumps(doc)))
            assert candidate_to_json(back) == doc

    def test_canonical_float_is_idempotent_and_close(self):
        rng = np.random.default_rng(7)
        for x in rng.random(50):
            c = canonical_float(float(x))
            assert canonical_float(c) == c
            assert abs(c - x) < 1e-11

    @pytest.mark.parametrize("doc", [
        "not a dict", 17, [], {}, {"datalog": ""}, {"datalog": 3},
        {"datalog": "x", "id": {}}, {"datalog": "x", "design": 5},
        {"datalog": "x", "mode": []}, {"datalog": "x", "report": "nope"},
        {"datalog": "x", "report": [{"kind": "stem"}]},
    ])
    def test_malformed_submissions_raise_protocol_error(self, doc):
        with pytest.raises(ProtocolError):
            parse_submission(doc)

    def test_submission_with_precomputed_report(self, chips):
        _items, reports, logs = chips
        report = next(r for r in reports if r.candidates)
        sub = parse_submission({
            "datalog": logs[0],
            "report": [candidate_to_json(c) for c in report.candidates],
        })
        assert sub.report is not None
        assert sub.report.resolution == report.resolution

    def test_percentile(self):
        values = [float(i) for i in range(100)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 99) == 98.0
        with pytest.raises(ValueError):
            percentile([], 50)


# ------------------------------------------------------------------- batcher
class TestBatcher:
    def test_coalesces_queued_submissions(self):
        stats = RuntimeStats()
        batcher = RequestBatcher(
            lambda items: [item.payload * 2 for item in items],
            max_batch=16, max_queue=32, flush_interval_s=0.005, stats=stats,
        )
        futures = [batcher.submit(i) for i in range(5)]  # queued pre-start
        batcher.start()
        assert [f.result(timeout=10) for f in futures] == [0, 2, 4, 6, 8]
        batcher.close()
        assert stats.counters["serve.batches"] == 1  # one block-diagonal pass
        assert stats.counters["serve.batched"] == 5

    def test_bounded_queue_rejects_when_full(self):
        stats = RuntimeStats()
        batcher = RequestBatcher(
            lambda items: [None for _ in items],
            max_batch=1, max_queue=2, stats=stats,
        )  # never started: the queue can only fill
        batcher.submit("a")
        batcher.submit("b")
        with pytest.raises(QueueFullError):
            batcher.submit("c")
        assert stats.counters["serve.rejected.queue_full"] == 1
        assert stats.counters["serve.accepted"] == 2
        batcher.start()
        batcher.close()

    def test_processor_crash_fails_batch_not_loop(self):
        calls = []

        def process(items):
            calls.append(len(items))
            if any(item.payload == "boom" for item in items):
                raise RuntimeError("kaboom")
            return [item.payload for item in items]

        stats = RuntimeStats()
        batcher = RequestBatcher(
            process, max_batch=4, max_queue=16, flush_interval_s=0.005,
            stats=stats,
        ).start()
        bad = batcher.submit("boom")
        with pytest.raises(RuntimeError, match="kaboom"):
            bad.result(timeout=10)
        good = batcher.submit("fine")
        assert good.result(timeout=10) == "fine"  # the loop survived
        batcher.close()
        assert stats.counters["serve.batch_errors"] == 1

    def test_result_count_mismatch_is_an_error(self):
        batcher = RequestBatcher(
            lambda items: [], max_batch=4, max_queue=4, flush_interval_s=0.005
        ).start()
        future = batcher.submit("x")
        with pytest.raises(RuntimeError, match="0 result"):
            future.result(timeout=10)
        batcher.close()

    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            RequestBatcher(lambda items: [], max_batch=0)
        with pytest.raises(ValueError):
            RequestBatcher(lambda items: [], max_queue=0)


# ------------------------------------------------------------------ registry
class TestRegistry:
    def test_rejects_unfitted(self):
        registry = ModelRegistry()
        with pytest.raises(ValueError, match="unfitted"):
            registry.register("Syn-1", "v1", M3DDiagnosisFramework())

    def test_versioning_and_atomic_activation(self, fw):
        registry = ModelRegistry()
        registry.register("Syn-1", "v1", fw)
        registry.register("Syn-1", "v2", fw, activate=False)
        assert registry.active("Syn-1").version == "v1"
        registry.activate("Syn-1", "v2")
        assert registry.active("Syn-1").version == "v2"
        doc = registry.describe()
        assert doc["configs"]["Syn-1"]["versions"] == ["v1", "v2"]
        assert doc["configs"]["Syn-1"]["active"] == "v2"

    def test_unknown_lookups(self, fw):
        registry = ModelRegistry()
        with pytest.raises(UnknownModelError):
            registry.active("TPI")
        registry.register("Syn-1", "v1", fw)
        with pytest.raises(UnknownModelError):
            registry.activate("Syn-1", "v9")
        with pytest.raises(UnknownModelError):
            registry.activate("TPI", "v1")

    def test_warm_load_from_checkpoint(self, fw, tmp_path):
        from repro.core.io import save_framework

        path = tmp_path / "fw.npz"
        save_framework(fw, path)
        registry = ModelRegistry()
        record = registry.load("Syn-1", "v1", path)
        assert record.source == str(path)
        assert registry.warmup() == 1
        assert record.describe()["has_miv_pinpointer"] is True


# ------------------------------------------------------------- http frontend
class TestHTTP:
    def test_single_response_matches_offline_bytes(self, serving, fw, prepared,
                                                   chips):
        client, _service, _batcher, record = serving
        items, reports, logs = chips
        fired = client.diagnose({"id": "chip0", "datalog": logs[0]})
        assert fired.response["ok"] is True
        offline = _offline_doc(fw, prepared, record, items[0], reports[0], "chip0")
        assert (
            dumps_response(canonical_response(fired.response))
            == dumps_response(canonical_response(offline))
        )
        prov = fired.response["provenance"]
        assert prov["model_version"] == "v1"
        assert prov["config"] == "Syn-1"
        assert set(prov["timings"]) == {"queue_s", "atpg_s", "infer_s"}

    def test_concurrent_fire_matches_offline(self, serving, fw, prepared, chips):
        client, service, _batcher, record = serving
        items, reports, logs = chips
        subs = [{"id": f"chip{i}", "datalog": log} for i, log in enumerate(logs)]
        stats = fire_concurrent(client, subs, concurrency=10)
        assert stats["n_ok"] == len(subs)
        assert stats["latency_p99_s"] >= stats["latency_p50_s"]
        for i, resp in enumerate(stats["responses"]):
            offline = _offline_doc(fw, prepared, record, items[i], reports[i],
                                   f"chip{i}")
            assert (
                dumps_response(canonical_response(resp))
                == dumps_response(canonical_response(offline))
            )
        # Concurrency actually coalesced: fewer forwards than requests.
        assert service.stats.counters["serve.batches"] < len(subs)

    def test_precomputed_report_short_circuits_atpg(self, serving, fw, prepared,
                                                    chips):
        client, _service, _batcher, record = serving
        items, reports, logs = chips
        fired = client.diagnose({
            "id": "withrep", "datalog": logs[1],
            "report": [candidate_to_json(c) for c in reports[1].candidates],
        })
        offline = _offline_doc(fw, prepared, record, items[1], reports[1],
                               "withrep", chip="chip1")
        assert (
            dumps_response(canonical_response(fired.response))
            == dumps_response(canonical_response(offline))
        )

    def test_healthz_models_metrics(self, serving, chips):
        client, _service, _batcher, _record = serving
        _items, _reports, logs = chips
        health = client.healthz()
        assert health["ok"] is True and health["designs"] == ["small"]
        models = client.models()
        assert models["configs"]["Syn-1"]["active"] == "v1"
        client.diagnose({"datalog": logs[0]})
        metrics = client.metrics()
        assert 'repro_counter_total{name="serve.accepted"}' in metrics
        assert 'repro_counter_total{name="serve.responses"}' in metrics

    def test_model_swap_via_http(self, serving):
        client, service, _batcher, _record = serving
        service.registry.register(
            "Syn-1", "v2", service.registry.active("Syn-1").framework,
            activate=False,
        )
        swapped = client.activate("Syn-1", "v2")
        assert swapped["active"]["version"] == "v2"
        assert service.registry.active("Syn-1").version == "v2"
        with pytest.raises(urllib.error.HTTPError) as err:
            client.activate("Syn-1", "v99")
        assert err.value.code == 404

    def test_http_429_when_queue_full(self, fw, prepared, chips):
        _items, _reports, logs = chips
        registry = ModelRegistry()
        registry.register("Syn-1", "v1", fw)
        service = DiagnosisService(
            registry, {"small": DesignContext("small", prepared)}
        )
        # Not started: submissions only queue, so capacity 1 fills at once.
        batcher = RequestBatcher(service.process_batch, max_batch=8, max_queue=1)
        httpd = serve_http(service, batcher)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        host, port = httpd.server_address
        url = f"http://{host}:{port}/diagnose"
        body = json.dumps({"datalog": logs[0]}).encode()

        first_done = threading.Event()

        def occupant():
            try:
                urllib.request.urlopen(
                    urllib.request.Request(url, data=body, method="POST"),
                    timeout=30,
                )
            finally:
                first_done.set()

        t = threading.Thread(target=occupant, daemon=True)
        t.start()
        deadline = 100
        while batcher.queue_depth < 1 and deadline:
            deadline -= 1
            threading.Event().wait(0.01)
        assert batcher.queue_depth == 1
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                urllib.request.Request(url, data=body, method="POST"),
                timeout=30,
            )
        assert err.value.code == 429
        doc = json.loads(err.value.read())
        assert doc["error"]["type"] == "queue_full"
        batcher.start()  # drain the occupant before teardown
        assert first_done.wait(30)
        httpd.shutdown()
        httpd.server_close()
        batcher.close()

    def test_client_retries_429(self, fw, prepared, chips):
        _items, _reports, logs = chips
        registry = ModelRegistry()
        registry.register("Syn-1", "v1", fw)
        service = DiagnosisService(
            registry, {"small": DesignContext("small", prepared)}
        )
        batcher = RequestBatcher(service.process_batch, max_batch=8, max_queue=1)
        httpd = serve_http(service, batcher)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        host, port = httpd.server_address
        client = ServeClient(f"http://{host}:{port}", timeout_s=30.0,
                             backoff_s=0.02)
        occupant = threading.Thread(
            target=client.diagnose, args=({"datalog": logs[0]},), daemon=True
        )
        occupant.start()
        deadline = 100
        while batcher.queue_depth < 1 and deadline:
            deadline -= 1
            threading.Event().wait(0.01)
        starter = threading.Timer(0.2, batcher.start)
        starter.start()
        fired = client.diagnose({"datalog": logs[1]})
        assert fired.response["ok"] is True
        assert fired.retries >= 1
        occupant.join(timeout=30)
        starter.cancel()
        httpd.shutdown()
        httpd.server_close()
        batcher.close()


class _CountingWriter:
    """Wraps a handler's ``wfile`` and records the size of every write."""

    def __init__(self, raw, writes):
        self._raw = raw
        self._writes = writes

    def write(self, data):
        self._writes.append(len(data))
        return self._raw.write(data)

    def __getattr__(self, name):
        return getattr(self._raw, name)


class TestSingleWriteResponses:
    """No response can stall on Nagle + delayed ACK: checked by counting.

    Every accepted connection must carry TCP_NODELAY, and every response —
    single JSON, JSONL, metrics, errors — must leave the handler in exactly
    one write.  Writes are counted, never timed.
    """

    def test_nodelay_and_one_write_per_response(self, serving, chips, monkeypatch):
        from repro.serve import server as server_mod

        client, _service, _batcher, _record = serving
        _items, _reports, logs = chips
        connections = []  # (TCP_NODELAY value, write sizes) per connection
        setup = server_mod._Handler.setup

        def counting_setup(handler):
            setup(handler)
            writes = []
            nodelay = handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            )
            connections.append((nodelay, writes))
            handler.wfile = _CountingWriter(handler.wfile, writes)

        monkeypatch.setattr(server_mod._Handler, "setup", counting_setup)
        jsonl = "\n".join(
            json.dumps({"id": f"j{i}", "datalog": log}) for i, log in enumerate(logs[:2])
        )
        exchanges = [
            ("POST", "/diagnose", json.dumps({"datalog": logs[0]}), {}, 200),
            ("POST", "/diagnose", jsonl, {}, 200),
            ("GET", "/metrics", None, {}, 200),
            ("GET", "/healthz", None, {}, 200),
            ("GET", "/nope", None, {}, 404),
            ("POST", "/diagnose", "{broken", {}, 400),
            # Last: the unread oversized body leaves the connection unusable.
            ("POST", "/diagnose", "x", {"Content-Length": str(10**12)}, 413),
        ]
        host, port = client.base_url.rsplit("/", 1)[-1].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=60)
        try:
            for n_done, (method, path, body, headers, status) in enumerate(
                exchanges, start=1
            ):
                conn.request(method, path, body=body, headers=headers)
                resp = conn.getresponse()
                payload = resp.read()
                assert resp.status == status, (path, payload[:200])
                assert int(resp.getheader("Content-Length")) == len(payload)
                assert len(connections) == 1  # one keep-alive connection
                nodelay, writes = connections[0]
                assert nodelay, "accepted connection lacks TCP_NODELAY"
                assert len(writes) == n_done, f"{method} {path} took {writes}"
        finally:
            conn.close()


# ----------------------------------------------------- fuzz / malformed input
class TestMalformedSubmissions:
    def test_jsonl_batch_with_garbage_lines(self, serving, chips):
        """Every malformed line yields a structured error; valid lines work."""
        client, _service, _batcher, _record = serving
        _items, _reports, logs = chips
        lines = [
            json.dumps({"id": "good", "datalog": logs[0]}),
            "{truncated json",
            json.dumps({"id": "toolong", "datalog": "A" * (MAX_LINE_BYTES + 1)}),
            json.dumps(["not", "an", "object"]),
            json.dumps({"id": "nolog"}),
            json.dumps({"id": "badlog", "datalog": "not a datalog"}),
            json.dumps({"id": "baddesign", "datalog": logs[0],
                        "design": "nope"}),
            json.dumps({"id": "badmode", "datalog": logs[0], "mode": "warp"}),
        ]
        body = ("\n".join(lines) + "\n").encode()
        request = urllib.request.Request(
            client.base_url + "/diagnose", data=body,
            headers={"Content-Type": "application/x-ndjson"}, method="POST",
        )
        with urllib.request.urlopen(request, timeout=60) as resp:
            docs = [json.loads(ln) for ln in resp.read().decode().splitlines()]
        assert len(docs) == len(lines)
        assert docs[0]["ok"] is True and docs[0]["id"] == "good"
        expected = ["bad_json", "line_too_long", "bad_request", "bad_request",
                    "bad_datalog", "unknown_design", "unknown_mode"]
        for doc, kind in zip(docs[1:], expected):
            assert doc["ok"] is False
            assert doc["error"]["type"] == kind
        # The batch loop survived all of it.
        assert client.healthz()["ok"] is True
        assert client.diagnose({"datalog": logs[2]}).response["ok"] is True

    def test_empty_and_oversized_bodies(self, serving):
        client, _service, _batcher, _record = serving
        request = urllib.request.Request(
            client.base_url + "/diagnose", data=b"", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30)
        assert err.value.code == 400
        huge = urllib.request.Request(
            client.base_url + "/diagnose", data=b"x",
            headers={"Content-Length": str(10**12)}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(huge, timeout=30)
        assert err.value.code == 413

    def test_oversized_body_answers_413_then_closes(self, serving):
        """The unread body of a 413 must never parse as the next request."""
        client, _service, _batcher, _record = serving
        host, port = client.base_url.rsplit("/", 1)[-1].split(":")
        with socket.create_connection((host, int(port)), timeout=30) as sock:
            sock.sendall(
                b"POST /diagnose HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: " + str(10**12).encode() + b"\r\n\r\n"
                b"xyzGET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            received = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break  # EOF: the server closed the connection
                received += chunk
        assert received.startswith(b"HTTP/1.1 413 ")
        assert received.count(b"HTTP/1.1 ") == 1
        assert b"\r\nConnection: close\r\n" in received
        assert b"501" not in received and b"xyzGET" not in received

    def test_unknown_route_404(self, serving):
        client, _service, _batcher, _record = serving
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(client.base_url + "/nope", timeout=30)
        assert err.value.code == 404

    def test_fuzz_loads_datalog_never_crashes(self, prepared, chips):
        """Truncations, splices, and garbage: ValueError or success, only."""
        _items, _reports, logs = chips
        obsmap = prepared.obsmap("bypass")
        rng = np.random.default_rng(17)
        corpus = [
            logs[0],
            "",
            "\x00\xff garbage \n\n",
            "# repro failure datalog v1\n",
            "# repro failure datalog v1\nCHIP x\nMODE warp\n",
            "# repro failure datalog v1\nCHIP x\nMODE bypass\nFAIL pattern=",
            "# repro failure datalog v1\nCHIP x\nMODE bypass\n"
            "FAIL pattern=1 obs=po0 id=999999\n",
        ]
        for _ in range(60):
            base = logs[int(rng.integers(len(logs)))]
            cut = int(rng.integers(len(base)))
            mutated = base[:cut] + str(rng.integers(10)) + base[cut + 1:]
            corpus.append(mutated)
            corpus.append(base[:cut])
        parsed = failed = 0
        for text in corpus:
            try:
                chip_id, log = loads_datalog(text, obsmap)
                assert isinstance(chip_id, str)
                parsed += 1
            except ValueError:
                failed += 1
        assert parsed + failed == len(corpus)
        assert failed > 0  # the corpus did contain garbage


# ------------------------------------------------------------ stdin frontend
class TestStdinFrontend:
    def test_jsonl_in_order_with_inline_errors(self, fw, prepared, chips):
        items, reports, logs = chips
        registry = ModelRegistry()
        record = registry.register("Syn-1", "v1", fw)
        service = DiagnosisService(
            registry, {"small": DesignContext("small", prepared)}
        )
        batcher = RequestBatcher(
            service.process_batch, max_batch=4, max_queue=8,
            flush_interval_s=0.005, stats=service.stats,
        ).start()
        lines = [
            json.dumps({"id": "a", "datalog": logs[0]}),
            "garbage line",
            "",
            json.dumps({"id": "b", "datalog": logs[1]}),
        ]
        out = io.StringIO()
        n = serve_stdin(batcher, io.StringIO("\n".join(lines) + "\n"), out)
        batcher.close()
        docs = [json.loads(ln) for ln in out.getvalue().splitlines()]
        assert n == 3 and len(docs) == 3  # blank line skipped
        assert [d.get("id") for d in docs] == ["a", None, "b"]
        assert docs[0]["ok"] and not docs[1]["ok"] and docs[2]["ok"]
        for doc, item, report, rid, chip in (
            (docs[0], items[0], reports[0], "a", "chip0"),
            (docs[2], items[1], reports[1], "b", "chip1"),
        ):
            offline = _offline_doc(fw, prepared, record, item, report, rid,
                                   chip=chip)
            assert (
                dumps_response(canonical_response(doc))
                == dumps_response(canonical_response(offline))
            )


# ----------------------------------------------------------------- service
class TestService:
    def test_requires_designs(self, fw):
        registry = ModelRegistry()
        registry.register("Syn-1", "v1", fw)
        with pytest.raises(ValueError):
            DiagnosisService(registry, {})

    def test_no_active_model_is_structured(self, fw, prepared, chips):
        _items, _reports, logs = chips
        service = DiagnosisService(
            ModelRegistry(), {"small": DesignContext("small", prepared)}
        )
        batcher = RequestBatcher(
            service.process_batch, flush_interval_s=0.005, stats=service.stats
        ).start()
        doc = batcher.submit({"datalog": logs[0]}).result(timeout=30)
        batcher.close()
        assert doc["ok"] is False
        assert doc["error"]["type"] == "no_model"
        assert service.stats.counters["serve.rejected.no_model"] == 1

    def test_design_required_when_ambiguous(self, fw, prepared, chips):
        _items, _reports, logs = chips
        registry = ModelRegistry()
        registry.register("Syn-1", "v1", fw)
        service = DiagnosisService(registry, {
            "one": DesignContext("one", prepared),
            "two": DesignContext("two", prepared),
        })
        batcher = RequestBatcher(
            service.process_batch, flush_interval_s=0.005
        ).start()
        missing = batcher.submit({"datalog": logs[0]}).result(timeout=30)
        named = batcher.submit(
            {"datalog": logs[0], "design": "two"}
        ).result(timeout=30)
        batcher.close()
        assert missing["ok"] is False
        assert missing["error"]["type"] == "bad_request"
        assert named["ok"] is True
        assert named["provenance"]["design"] == "two"

    def test_serving_metrics_view(self, serving, chips):
        from repro.obs import metrics_document

        client, service, _batcher, _record = serving
        _items, _reports, logs = chips
        client.diagnose({"datalog": logs[0]})
        view = metrics_document(service.stats)["serving"]
        assert view["accepted"] >= 1
        assert view["responses"] >= 1
        assert view["mean_batch_size"] >= 1.0
