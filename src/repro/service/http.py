"""Stdlib HTTP/JSON API for the classification engine.

Endpoints:

* ``POST /classify`` — body ``{"qname": "x.example.com"}`` for a
  single verdict, or ``{"qnames": [...]}`` for a batch.  Both shapes
  go through the shared :class:`~repro.service.batching.MicroBatcher`,
  the one thread that calls the engine.
* ``GET /metrics`` — Prometheus-style text exposition of the request,
  engine and batcher counters and the verdict-table size.
* ``GET /healthz`` — liveness probe.

Built on ``http.server.ThreadingHTTPServer`` only — the repo has no
web-framework dependency and the daemon must not grow one.  Responses
go out with ``TCP_NODELAY``: the handler writes the headers and the
body separately, and with Nagle's algorithm on, the body waits for the
client to ACK the headers — up to a delayed-ACK timeout (~40 ms on
Linux) per request on a keep-alive connection.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from repro.service.batching import MicroBatcher
from repro.service.engine import ClassificationEngine

__all__ = ["ClassifyServer", "make_server", "MAX_BODY_BYTES",
           "MAX_BATCH_NAMES"]

#: Request-body size cap (bytes); larger posts get 413.
MAX_BODY_BYTES = 1_048_576

#: Per-request qname cap; larger batches get 400.
MAX_BATCH_NAMES = 10_000


class ClassifyServer(ThreadingHTTPServer):
    """Threaded HTTP server owning the engine and its micro-batcher."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int],
                 engine: ClassificationEngine) -> None:
        super().__init__(address, _ClassifyHandler)
        self.engine = engine
        self.batcher = MicroBatcher(engine.classify_batch)
        self._counter_lock = threading.Lock()
        self._requests: Dict[str, int] = {}
        self._errors = 0

    def count_request(self, endpoint: str) -> None:
        with self._counter_lock:
            self._requests[endpoint] = self._requests.get(endpoint, 0) + 1

    def count_error(self) -> None:
        with self._counter_lock:
            self._errors += 1

    def request_counts(self) -> Tuple[Dict[str, int], int]:
        with self._counter_lock:
            return dict(self._requests), self._errors

    def close(self) -> None:
        """Stop accepting, drain the batcher, release the socket."""
        self.shutdown()
        self.batcher.close()
        self.server_close()

    # -- metrics rendering ----------------------------------------------

    def render_metrics(self) -> str:
        """The Prometheus text exposition for ``GET /metrics``."""
        requests, errors = self.request_counts()
        lines: List[str] = [
            "# HELP repro_serve_requests_total "
            "HTTP requests handled, by endpoint.",
            "# TYPE repro_serve_requests_total counter",
        ]
        for endpoint in sorted(requests):
            lines.append(f'repro_serve_requests_total'
                         f'{{endpoint="{endpoint}"}} {requests[endpoint]}')
        lines.append("# HELP repro_serve_request_errors_total "
                     "Requests answered with a 4xx/5xx status.")
        lines.append("# TYPE repro_serve_request_errors_total counter")
        lines.append(f"repro_serve_request_errors_total {errors}")
        gauges = {"repro_serve_verdict_table_groups":
                  ("(zone, depth) groups in the verdict table.",
                   self.engine.table_groups)}
        counters = {}
        for name, value in self.engine.stats().items():
            counters[f"repro_serve_engine_{name}_total"] = (
                f"Engine {name.replace('_', ' ')}.", value)
        for name, value in self.batcher.stats().items():
            counters[f"repro_serve_batcher_{name}_total"] = (
                f"Micro-batcher {name.replace('_', ' ')}.", value)
        for name, (help_text, value) in sorted(counters.items()):
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {value}")
        for name, (help_text, value) in sorted(gauges.items()):
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {value}")
        return "\n".join(lines) + "\n"


class _ClassifyHandler(BaseHTTPRequestHandler):
    """Request handler; all state lives on the :class:`ClassifyServer`."""

    server: ClassifyServer
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    # -- plumbing -------------------------------------------------------

    def log_message(self, format: str, *args: object) -> None:
        """Silence per-request stderr logging (the daemon serves QPS,
        not logs; observability goes through /metrics)."""

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        if status >= 400:
            self.server.count_error()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: object) -> None:
        self._send(status, json.dumps(payload).encode("utf-8"),
                   "application/json")

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    # -- GET ------------------------------------------------------------

    def do_GET(self) -> None:
        if self.path == "/healthz":
            self.server.count_request("/healthz")
            self._send_json(200, {"status": "ok"})
        elif self.path == "/metrics":
            self.server.count_request("/metrics")
            self._send(200, self.server.render_metrics().encode("utf-8"),
                       "text/plain; version=0.0.4")
        else:
            self._send_error_json(404, f"unknown path {self.path!r}")

    # -- POST /classify --------------------------------------------------

    def _read_body(self) -> Optional[bytes]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self._send_error_json(400, "invalid Content-Length")
            return None
        if length <= 0:
            self._send_error_json(400, "missing request body")
            return None
        if length > MAX_BODY_BYTES:
            self._send_error_json(
                413, f"request body exceeds {MAX_BODY_BYTES} bytes")
            return None
        return self.rfile.read(length)

    def _parse_qnames(self, body: bytes) -> Optional[Tuple[List[str], bool]]:
        """``(qnames, is_batch)`` from the request document, or
        ``None`` after a 400 has been sent."""
        try:
            document = json.loads(body)
        except ValueError as exc:   # includes JSONDecodeError/Unicode
            self._send_error_json(400, f"invalid JSON body: {exc}")
            return None
        if not isinstance(document, dict):
            self._send_error_json(400, "request body must be a JSON object")
            return None
        has_single = "qname" in document
        has_batch = "qnames" in document
        if has_single == has_batch:
            self._send_error_json(
                400, "provide exactly one of 'qname' or 'qnames'")
            return None
        if has_single:
            qname = document["qname"]
            if not isinstance(qname, str):
                self._send_error_json(400, "'qname' must be a string")
                return None
            return [qname], False
        qnames = document["qnames"]
        if (not isinstance(qnames, list)
                or any(not isinstance(item, str) for item in qnames)):
            self._send_error_json(400, "'qnames' must be a list of strings")
            return None
        if len(qnames) > MAX_BATCH_NAMES:
            self._send_error_json(
                400, f"batch exceeds {MAX_BATCH_NAMES} qnames")
            return None
        return qnames, True

    def do_POST(self) -> None:
        if self.path != "/classify":
            self._send_error_json(404, f"unknown path {self.path!r}")
            return
        self.server.count_request("/classify")
        body = self._read_body()
        if body is None:
            return
        parsed = self._parse_qnames(body)
        if parsed is None:
            return
        qnames, is_batch = parsed
        verdicts = self.server.batcher.submit(qnames)
        if is_batch:
            self._send_json(200, {"verdicts": [verdict.to_json()
                                               for verdict in verdicts]})
        else:
            self._send_json(200, verdicts[0].to_json())


def make_server(engine: ClassificationEngine, host: str = "127.0.0.1",
                port: int = 0) -> ClassifyServer:
    """Bind a :class:`ClassifyServer`; ``port=0`` picks an ephemeral
    port (read it back from ``server.server_address``)."""
    return ClassifyServer((host, port), engine)
