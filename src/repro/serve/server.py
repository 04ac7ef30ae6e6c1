"""Serving front-ends: HTTP and stdin-JSONL, one batcher behind both.

The HTTP front-end is a stdlib :class:`ThreadingHTTPServer` — one thread per
connection parks on its request future while the single batch thread packs
everything waiting into block-diagonal forwards.  Routes:

* ``POST /diagnose`` — one JSON submission or a JSONL stream of them; JSONL
  responses come back line-for-line in submission order, malformed lines as
  structured error lines.  A full queue answers 429 (single) or a
  ``queue_full`` error line (JSONL) — backpressure is explicit, nothing
  buffers unboundedly.
* ``GET /healthz`` — liveness plus queue depth and served designs.
* ``GET /metrics`` — Prometheus exposition of the runtime stats.
* ``GET /models`` — the registry listing (versions + active records).
* ``POST /models/activate`` — atomic active-version swap.

Every response leaves the handler in a single write on a ``TCP_NODELAY``
socket, so no response waits on the client's delayed ACK.

The stdin front-end (:func:`serve_stdin`) reads JSONL submissions, submits
each line eagerly so the batcher can coalesce, and writes responses in input
order.  Its backpressure is the pipe itself: when the queue is full the
reader stops consuming stdin until a slot frees.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from concurrent.futures import Future
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, IO, List, Optional, Tuple

from ..obs import metrics_document, render_prometheus
from .batcher import QueueFullError, RequestBatcher
from .protocol import MAX_LINE_BYTES, dumps_response, error_response
from .registry import UnknownModelError
from .service import DiagnosisService

__all__ = ["DiagnosisHTTPServer", "serve_http", "serve_stdin"]

#: Hard cap on one HTTP request body; large batches should stream JSONL
#: requests instead of growing a single body without bound.
MAX_BODY_BYTES = 64 * MAX_LINE_BYTES


def _parse_line(raw: str) -> Tuple[bool, Any]:
    """(ok, payload-or-error-doc) for one non-blank JSONL submission line."""
    if len(raw.encode("utf-8", errors="replace")) > MAX_LINE_BYTES:
        return False, error_response(
            "line_too_long",
            f"submission line exceeds {MAX_LINE_BYTES} bytes",
        )
    try:
        return True, json.loads(raw)
    except json.JSONDecodeError as exc:
        return False, error_response("bad_json", f"invalid JSON: {exc}")


class DiagnosisHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer wired to one service + batcher pair."""

    daemon_threads = True
    # The stdlib default backlog (5) resets connections under the
    # concurrent-client load this server exists for.
    request_queue_size = 128

    def __init__(
        self,
        address: Tuple[str, int],
        service: DiagnosisService,
        batcher: RequestBatcher,
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.batcher = batcher


class _Handler(BaseHTTPRequestHandler):
    server: DiagnosisHTTPServer
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted connection: with Nagle on, a response
    # split across segments waits out the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    # Route tables keep do_GET/do_POST flat.
    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        if self.path == "/healthz":
            self._send_json(200, self._healthz())
        elif self.path == "/metrics":
            self._send_metrics()
        elif self.path == "/models":
            self._send_json(200, self.server.service.registry.describe())
        else:
            self._send_json(404, error_response("not_found", self.path))

    def do_POST(self) -> None:  # noqa: N802
        if self.path == "/diagnose":
            self._diagnose()
        elif self.path == "/models/activate":
            self._activate()
        else:
            self._send_json(404, error_response("not_found", self.path))

    # ------------------------------------------------------------- endpoints
    def _healthz(self) -> Dict[str, Any]:
        service = self.server.service
        return {
            "ok": True,
            "queue_depth": self.server.batcher.queue_depth,
            "max_queue": self.server.batcher.max_queue,
            "max_batch": self.server.batcher.max_batch,
            "designs": sorted(service.designs),
            "configs": service.registry.configs(),
        }

    def _send_metrics(self) -> None:
        service = self.server.service
        doc = metrics_document(service.stats, service.tracer)
        body = render_prometheus(doc).encode("utf-8")
        self._send(200, body, "text/plain; version=0.0.4")

    def _activate(self) -> None:
        doc = self._read_json_body()
        if doc is None:
            return
        config = doc.get("config") if isinstance(doc, dict) else None
        version = doc.get("version") if isinstance(doc, dict) else None
        if not isinstance(config, str) or not isinstance(version, str):
            self._send_json(
                400,
                error_response(
                    "bad_request", "expected {'config': str, 'version': str}"
                ),
            )
            return
        try:
            record = self.server.service.registry.activate(config, version)
        except UnknownModelError as exc:
            self._send_json(404, error_response("unknown_model", str(exc)))
            return
        self._send_json(200, {"ok": True, "active": record.describe()})

    def _diagnose(self) -> None:
        body = self._read_body()
        if body is None:
            return
        text = body.decode("utf-8", errors="replace")
        stripped = [ln for ln in text.splitlines() if ln.strip()]
        if not stripped:
            self._send_json(
                400, error_response("bad_json", "expected a JSON object or JSONL")
            )
        elif len(stripped) == 1:
            self._diagnose_single(stripped[0])
        else:
            self._diagnose_jsonl(stripped)

    def _diagnose_single(self, raw: str) -> None:
        ok, payload = _parse_line(raw)
        if not ok:
            self._send_json(400, payload)
            return
        try:
            future = self.server.batcher.submit(payload)
        except QueueFullError as exc:
            self._send_json(429, error_response("queue_full", str(exc)))
            return
        response = future.result()
        status = 200 if response.get("ok") else 400
        self._send_json(status, response)

    def _diagnose_jsonl(self, lines: List[str]) -> None:
        # Submit every line before waiting on any: the point of the batcher
        # is that concurrent submissions share one forward pass.
        slots: List[Tuple[Optional["Future[Any]"], Optional[Dict[str, Any]]]] = []
        for raw in lines:
            ok, payload = _parse_line(raw)
            if not ok:
                slots.append((None, payload))
                continue
            try:
                slots.append((self.server.batcher.submit(payload), None))
            except QueueFullError as exc:
                slots.append((None, error_response("queue_full", str(exc))))
        out_lines = []
        for future, err in slots:
            doc = err if future is None else future.result()
            out_lines.append(dumps_response(doc))
        body = ("\n".join(out_lines) + "\n").encode("utf-8")
        self._send(200, body, "application/x-ndjson")

    # --------------------------------------------------------------- plumbing
    def _read_body(self) -> Optional[bytes]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            # The body stays unread and would parse as the next request:
            # answer, then close the connection.
            self._send_json(
                413,
                error_response(
                    "body_too_large",
                    f"request body must be 0..{MAX_BODY_BYTES} bytes",
                ),
                close=True,
            )
            return None
        return self.rfile.read(length)

    def _read_json_body(self) -> Optional[Any]:
        body = self._read_body()
        if body is None:
            return None
        try:
            return json.loads(body.decode("utf-8", errors="replace") or "{}")
        except json.JSONDecodeError as exc:
            self._send_json(400, error_response("bad_json", f"invalid JSON: {exc}"))
            return None

    def _send_json(self, status: int, doc: Dict[str, Any], close: bool = False) -> None:
        body = (dumps_response(doc) + "\n").encode("utf-8")
        self._send(status, body, "application/json", close)

    def _send(self, status: int, body: bytes, content_type: str,
              close: bool = False) -> None:
        """Write status line, headers and body in one ``wfile.write``.

        ``close`` announces ``Connection: close`` and ends the connection
        after this response.
        """
        self.log_request(status)
        head = (
            f"{self.protocol_version} {status} {self.responses[status][0]}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if close:
            self.close_connection = True
            head += "Connection: close\r\n"
        self.wfile.write((head + "\r\n").encode("latin-1") + body)

    def log_message(self, format: str, *args: Any) -> None:
        """Route access logs to stats instead of stderr noise."""
        self.server.service.stats.count("serve.http_requests")


def serve_http(
    service: DiagnosisService,
    batcher: RequestBatcher,
    host: str = "127.0.0.1",
    port: int = 0,
) -> DiagnosisHTTPServer:
    """Bind (not yet serving) an HTTP front-end; port 0 picks a free port."""
    return DiagnosisHTTPServer((host, port), service, batcher)


def serve_stdin(
    batcher: RequestBatcher,
    lines_in: IO[str],
    out: IO[str],
) -> int:
    """Serve JSONL submissions from a text stream until EOF.

    Responses are written to ``out`` in input order, one JSON line each,
    flushed per line so a piped client sees results as they complete.  The
    reader thread submits eagerly (so the batcher can coalesce) and blocks
    when the queue is full — the pipe is the backpressure.  Returns the
    number of response lines written.
    """
    done = object()
    pending: "deque[Any]" = deque()
    ready = threading.Condition()

    def reader() -> None:
        for raw in lines_in:
            if not raw.strip():
                continue
            ok, payload = _parse_line(raw)
            if ok:
                # block=True: stop consuming the pipe until a slot frees.
                item: Any = batcher.submit(payload, block=True)
            else:
                item = payload
            with ready:
                pending.append(item)
                ready.notify()
        with ready:
            pending.append(done)
            ready.notify()

    def next_item() -> Any:
        with ready:
            while not pending:
                ready.wait()
            return pending.popleft()

    thread = threading.Thread(target=reader, name="repro-serve-stdin", daemon=True)
    thread.start()
    written = 0
    while True:
        item = next_item()
        if item is done:
            break
        doc = item.result() if isinstance(item, Future) else item
        out.write(dumps_response(doc) + "\n")
        out.flush()
        written += 1
    thread.join()
    return written
