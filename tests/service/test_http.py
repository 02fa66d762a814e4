"""End-to-end daemon test: real HTTP against an ephemeral port."""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service.http import MAX_BATCH_NAMES, make_server


@pytest.fixture
def server(tiny_engine):
    instance = make_server(tiny_engine, port=0)
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance.close()
    thread.join(timeout=5)


def _url(server, path: str) -> str:
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def _post(server, path: str, payload: object):
    request = urllib.request.Request(
        _url(server, path), data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def _get(server, path: str):
    with urllib.request.urlopen(_url(server, path),
                                timeout=10) as response:
        return response.status, response.read().decode("utf-8")


class TestClassify:
    def test_single_qname_matches_oracle(self, server, tiny_stream):
        qname = tiny_stream[0]
        oracle = server.engine.classify_one(qname).to_json()
        status, document = _post(server, "/classify", {"qname": qname})
        assert status == 200
        assert document == oracle

    def test_batch_matches_oracle(self, server, tiny_stream):
        qnames = tiny_stream[:25]
        oracle = [server.engine.classify_one(q).to_json() for q in qnames]
        status, document = _post(server, "/classify", {"qnames": qnames})
        assert status == 200
        assert document["verdicts"] == oracle

    @pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"),
                        reason="needs Linux TCP_QUICKACK")
    def test_keep_alive_posts_do_not_stall_on_delayed_acks(self, server,
                                                           tiny_stream):
        """A client that delays its ACKs must not add a delayed-ACK
        timeout (~40 ms) to every response: the server writes headers
        and body separately, which stalls under Nagle's algorithm."""
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        conn.connect()
        body = json.dumps({"qname": tiny_stream[0]}).encode("utf-8")
        requests = 20
        try:
            began = time.perf_counter()
            for _ in range(requests):
                conn.sock.setsockopt(socket.IPPROTO_TCP,
                                     socket.TCP_QUICKACK, 0)
                conn.request("POST", "/classify", body=body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                assert response.status == 200
                response.read()
            elapsed = time.perf_counter() - began
        finally:
            conn.close()
        assert elapsed < requests * 0.040 / 4

    def test_invalid_qname_is_a_verdict_not_an_error(self, server):
        status, document = _post(server, "/classify",
                                 {"qname": "bad..name"})
        assert status == 200
        assert document["reason"] == "invalid-name"


class TestMetricsAndHealth:
    def test_healthz(self, server):
        status, body = _get(server, "/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}

    def test_metrics_exposition(self, server, tiny_stream):
        _post(server, "/classify", {"qnames": tiny_stream[:10]})
        status, body = _get(server, "/metrics")
        assert status == 200
        assert 'repro_serve_requests_total{endpoint="/classify"} 1' in body
        assert "repro_serve_engine_names_classified_total 10" in body
        groups = server.engine.table_groups
        assert f"repro_serve_verdict_table_groups {groups}" in body
        assert "# TYPE repro_serve_verdict_table_groups gauge" in body
        assert "verdict_cache" not in body
        assert "repro_serve_batcher_batches_total" in body
        assert "repro_serve_request_errors_total 0" in body


class TestBadRequests:
    def _status_of(self, call):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call()
        return excinfo.value.code, json.loads(excinfo.value.read())

    def test_invalid_json(self, server):
        request = urllib.request.Request(
            _url(server, "/classify"), data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST")
        code, document = self._status_of(
            lambda: urllib.request.urlopen(request, timeout=10))
        assert code == 400
        assert "invalid JSON" in document["error"]

    def test_missing_body(self, server):
        request = urllib.request.Request(
            _url(server, "/classify"), data=b"", method="POST")
        code, document = self._status_of(
            lambda: urllib.request.urlopen(request, timeout=10))
        assert code == 400
        assert "missing request body" in document["error"]

    def test_both_qname_and_qnames(self, server):
        code, document = self._status_of(
            lambda: _post(server, "/classify",
                          {"qname": "a.com", "qnames": ["b.com"]}))
        assert code == 400
        assert "exactly one" in document["error"]

    def test_non_string_qname(self, server):
        code, _ = self._status_of(
            lambda: _post(server, "/classify", {"qname": 7}))
        assert code == 400

    def test_oversized_batch(self, server):
        qnames = ["x.example.com"] * (MAX_BATCH_NAMES + 1)
        code, document = self._status_of(
            lambda: _post(server, "/classify", {"qnames": qnames}))
        assert code == 400
        assert "batch exceeds" in document["error"]

    def test_unknown_paths_404(self, server):
        code, _ = self._status_of(lambda: _get(server, "/nope"))
        assert code == 404
        code, _ = self._status_of(
            lambda: _post(server, "/nope", {"qname": "a.com"}))
        assert code == 404

    def test_errors_are_counted(self, server):
        self._status_of(lambda: _get(server, "/nope"))
        _, body = _get(server, "/metrics")
        assert "repro_serve_request_errors_total 1" in body
