"""The ``classify-hot`` and ``classify-novel`` workloads: ``POST /classify``.

A ``repro serve --profile small`` daemon runs in a subprocess; the
benchmark talks to it over at most two keep-alive HTTP connections
(one per schedulable CPU) from one process.

* ``classify-hot`` sends single-qname ``{"qname": ...}`` requests drawn
  with replacement, weighted by frequency, from the reference day's
  below-resolver qnames.  Warm-up sends every distinct name once, so
  timed requests are verdict-memo hits and the transport and the
  ``MicroBatcher`` do almost all the work.
* ``classify-novel`` sends 64-qname ``{"qnames": [...]}`` requests of
  names never sent before: a seeded random leftmost label on a
  below-resolver name that sits inside a group (same zone, same
  depth), plus a seeded share of names under unknown zones and of
  invalid names.  Every name misses the memo.

Both are open loops (:mod:`openloop`) stepping through the rates in
:data:`LADDER`.  Every expected answer is computed before a step starts
by an in-process engine's ``classify_one`` oracle, built from the same
artifact cache as the daemon; its ``depth_groups`` walk and per-group
scoring, both pure functions of the immutable engine, are memoised so
the oracle keeps up with thousands of fresh names.  A response that is
not 200, times out, or differs from the oracle's verdict JSON fails.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import http.client
import json
import os
import queue
import random
import re
import shutil
import signal
import socket
import string
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from measure import median, tail_percentile
from openloop import StepResult, run_open_loop, schedule
from repro_runs import PROFILE, child_env, fill_artifact_cache

__all__ = ["LADDER", "LATENCY_RATE", "Daemon", "Client", "Oracle",
           "Request", "Traffic", "HotTraffic", "NovelTraffic",
           "batch_request", "ensure_artifact_cache", "Session", "verify"]

#: Open-loop rates (requests/s); latency is reported at LATENCY_RATE.
LADDER = (10, 30, 100, 300, 1000)
LATENCY_RATE = 30
#: Share of ``--seconds`` each step of the ladder lasts.
STEP_SHARE = {10: 0.05, 30: 0.8, 100: 0.05, 300: 0.05, 1000: 0.05}
#: Consecutive slices of the latency step whose tails give ``p99_ms``.
LATENCY_WINDOWS = 3
NOVEL_BATCH = 64
NOVEL_UNKNOWN_ZONE_SHARE = 0.05
NOVEL_INVALID_SHARE = 0.03
WARMUP_PER_CONNECTION = 4
CLOSED_LOOP_REQUESTS = 100
SETUP_STARTS = 5
REQUEST_TIMEOUT_S = 10.0
DAEMON_START_TIMEOUT_S = 120.0

_SERVING = re.compile(r"serving on http://([0-9.]+):(\d+)")
_LABEL_CHARS = string.ascii_lowercase + string.digits


# -- artifact cache ------------------------------------------------------


def _source_key() -> str:
    digest = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        digest.update(str(path).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure_artifact_cache(root: Path) -> Path:
    """An artifact cache filled for this source tree, kept across runs
    of the same checkout (keyed by a hash of ``src``)."""
    path = root / f"artifacts-{_source_key()}"
    if (path / "COMPLETE").exists():
        return path
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    fill_artifact_cache(child_env({"REPRO_ARTIFACT_CACHE": str(path)}),
                        root / "artifact-fill.log")
    (path / "COMPLETE").write_text("filled\n")
    return path


# -- the daemon ----------------------------------------------------------


class Daemon:
    """A ``repro serve`` subprocess; ``ready_s`` is start to /healthz."""

    def __init__(self, env: Mapping[str, str], log_path: Path,
                 trace_path: Optional[Path] = None) -> None:
        if trace_path is None:
            command = [sys.executable, "-u", "-m", "repro"]
        else:
            command = [sys.executable, "-u",
                       str(Path(__file__).resolve().parent / "layers.py"),
                       "--trace-out", str(trace_path), "--"]
        command += ["serve", "--profile", PROFILE, "--port", "0"]
        self._log = open(log_path, "ab")
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.peak_rss_mib = 0.0
        start = time.monotonic()
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     stderr=self._log, env=dict(env),
                                     text=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self.port = self._await_port(start)
            probe = Client(self.port)
            status, _ = probe.get("/healthz")
            probe.close()
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.monotonic() - start

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _await_port(self, start: float) -> int:
        while True:
            remaining = DAEMON_START_TIMEOUT_S - (time.monotonic() - start)
            line = self._lines.get(timeout=max(remaining, 0.001))
            if line is None:
                raise RuntimeError("daemon exited before serving")
            match = _SERVING.search(line)
            if match:
                return int(match.group(2))

    def metrics(self) -> Dict[str, float]:
        """``GET /metrics`` as name -> value (unlabelled samples)."""
        client = Client(self.port)
        _, body = client.get("/metrics")
        client.close()
        values: Dict[str, float] = {}
        for line in body.decode().splitlines():
            if line and not line.startswith("#") and "{" not in line:
                name, _, value = line.partition(" ")
                values[name] = float(value)
        return values

    def stop(self) -> None:
        """SIGTERM, wait (kill after 30 s) and record the peak RSS.

        Not SIGINT: a process started from a non-interactive shell's
        background job inherits SIGINT ignored, and the daemon would
        never see it."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + 30.0
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    self.proc.kill()
                    _, status, usage = os.wait4(self.proc.pid, 0)
                    break
                time.sleep(0.01)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_mib = usage.ru_maxrss / 1024.0
        self._reader.join(timeout=10.0)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


class Client:
    """One keep-alive HTTP connection; reconnects after a failure.

    Before every request the socket is put in delayed-ACK mode
    (``TCP_QUICKACK`` off, where the platform has it), the mode a busy
    request/response client is in.  Left to the kernel, a quick-ACK
    heuristic decides per connection and at random whether the client
    ACKs at once, which hides or shows a server that waits for an ACK
    between two small writes; the latency step then read ~4 ms on some
    runs and ~45 ms on others."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._conn = self._connect()

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=REQUEST_TIMEOUT_S)

    def _delay_acks(self) -> None:
        if self._conn.sock is None:
            self._conn.connect()
        if hasattr(socket, "TCP_QUICKACK"):
            self._conn.sock.setsockopt(socket.IPPROTO_TCP,
                                       socket.TCP_QUICKACK, 0)

    def _call(self, method: str, path: str,
              body: Optional[bytes] = None) -> Tuple[int, bytes]:
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            self._delay_acks()
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self._conn.close()
            self._conn = self._connect()
            return 0, b""

    def get(self, path: str) -> Tuple[int, bytes]:
        return self._call("GET", path)

    def post(self, body: bytes) -> Tuple[int, bytes]:
        return self._call("POST", "/classify", body)

    def close(self) -> None:
        self._conn.close()


# -- the oracle and the traffic ------------------------------------------


class Oracle:
    """Expected verdict JSON per qname, from ``classify_one``."""

    def __init__(self, engine: object) -> None:
        tree = getattr(engine, "_tree", None)
        if tree is not None and hasattr(tree, "depth_groups"):
            tree.depth_groups = functools.lru_cache(maxsize=None)(
                tree.depth_groups)
        score = getattr(engine, "_score_group", None)
        if score is not None:
            scored: Dict[Tuple[str, int], object] = {}

            def score_once(zone: str, depth: int, group: List[str]) -> object:
                key = (zone, depth)
                if key not in scored:
                    scored[key] = score(zone, depth, group)
                return scored[key]

            engine._score_group = score_once  # type: ignore[attr-defined]
        self._engine = engine
        self._answers: Dict[str, Dict[str, object]] = {}

    def expect(self, qname: str) -> Dict[str, object]:
        answer = self._answers.get(qname)
        if answer is None:
            answer = self._engine.classify_one(qname).to_json()  # type: ignore[attr-defined]
            self._answers[qname] = answer
        return answer


@dataclass
class Request:
    names: List[str]
    body: bytes
    expected: object


def batch_request(oracle: Oracle, names: List[str]) -> Request:
    return Request(names, json.dumps({"qnames": names}).encode(),
                   {"verdicts": [oracle.expect(name) for name in names]})


class Traffic:
    """A request stream; :meth:`warmup` requests precede the timed ones."""

    def warmup(self) -> List[Request]:
        return []

    def request(self) -> Request:
        raise NotImplementedError


class HotTraffic(Traffic):
    """Single-qname requests, frequency-weighted from the day."""

    def __init__(self, rows: Sequence[str], oracle: Oracle,
                 rng: random.Random) -> None:
        self._rows = list(rows)
        self._oracle = oracle
        self._rng = rng
        self.distinct = sorted(set(self._rows))

    def warmup(self) -> List[Request]:
        return [batch_request(self._oracle, self.distinct)]

    def request(self) -> Request:
        name = self._rng.choice(self._rows)
        return Request([name], json.dumps({"qname": name}).encode(),
                       self._oracle.expect(name))


class NovelTraffic(Traffic):
    """64-qname requests of never-seen names."""

    def __init__(self, rows: Sequence[str], oracle: Oracle,
                 rng: random.Random) -> None:
        self._oracle = oracle
        self._rng = rng
        self._used = set(rows)
        # Names inside a group: a fresh leftmost label keeps the zone
        # and the depth.  Weighted by frequency, like the day itself.
        members = {name for name in set(rows)
                   if oracle.expect(name)["reason"]
                   in ("classified", "small-group")}
        self._templates = [name for name in rows if name in members]

    def warmup(self) -> List[Request]:
        """One fresh name per group, so group verdicts are cached before
        timing and timed names miss only the per-qname memo."""
        suffixes = sorted({name.split(".", 1)[1]
                           for name in self._templates})
        return [batch_request(self._oracle,
                              [self._fresh_in(suffix) for suffix in suffixes])]

    def _fresh_in(self, suffix: str, separator: str = ".") -> str:
        while True:
            name = f"{self._label()}{separator}{suffix}"
            if name not in self._used:
                self._used.add(name)
                return name

    def _label(self) -> str:
        return "".join(self._rng.choice(_LABEL_CHARS)
                       for _ in range(self._rng.randint(8, 20)))

    def _fresh(self) -> str:
        draw = self._rng.random()
        if draw < NOVEL_UNKNOWN_ZONE_SHARE:
            tld = self._rng.choice(("com", "net", "org"))
            return self._fresh_in(f"{self._label()}.{tld}")
        suffix = self._rng.choice(self._templates).split(".", 1)[1]
        invalid = draw < NOVEL_UNKNOWN_ZONE_SHARE + NOVEL_INVALID_SHARE
        return self._fresh_in(suffix, ".." if invalid else ".")

    def request(self) -> Request:
        return batch_request(self._oracle,
                             [self._fresh() for _ in range(NOVEL_BATCH)])


# -- one daemon's session ------------------------------------------------


def verify(step: StepResult, requests: Sequence[Request]) -> None:
    """Mark each answered request ok iff its JSON equals the oracle's."""
    for outcome, request in zip(step.outcomes, requests):
        if outcome is None or outcome.status != 200:
            continue
        try:
            outcome.ok = json.loads(outcome.body) == request.expected
        except ValueError:
            outcome.ok = False


@dataclass
class Session:
    """Traffic against one running daemon."""

    daemon: Daemon
    traffic: Traffic
    n_conns: int
    steps: Dict[int, StepResult] = field(default_factory=dict)
    closed: Optional[StepResult] = None
    attempted: int = 0
    failed: int = 0

    def __post_init__(self) -> None:
        self.clients = [Client(self.daemon.port)
                        for _ in range(self.n_conns)]

    def _run(self, requests: Sequence[Request], dues: Sequence[float],
             end: float) -> StepResult:
        senders = [functools.partial(_send, client, requests)
                   for client in self.clients]
        gc.collect()
        gc.disable()
        try:
            step = run_open_loop(dues, senders, end)
        finally:
            gc.enable()
        verify(step, requests)
        self.attempted += len(step.sent)
        self.failed += step.failed()
        return step

    def warmup(self) -> None:
        requests = list(self.traffic.warmup())
        requests += [self.traffic.request()
                     for _ in range(WARMUP_PER_CONNECTION * self.n_conns)]
        now = time.monotonic()
        self._run(requests, [now] * len(requests), now + 120.0)

    def step(self, rate: int, offsets: Sequence[float],
             requests: Optional[List[Request]] = None) -> StepResult:
        """One open-loop step at ``rate``; ``offsets`` from
        :func:`openloop.schedule`, requests generated unless given."""
        if requests is None:
            requests = [self.traffic.request() for _ in offsets]
        duration = len(offsets) / rate
        time.sleep(0.2)
        start = time.monotonic() + 0.05
        step = self._run(requests, [start + o for o in offsets],
                         start + duration)
        self.steps[rate] = step
        return step

    def ladder(self, seconds: float, rng: random.Random) -> None:
        """Every step up to LATENCY_RATE, then on while steps pass."""
        for rate in LADDER:
            step = self.step(rate, schedule(rate, STEP_SHARE[rate] * seconds,
                                            rng))
            if rate >= LATENCY_RATE and not step.passes():
                break

    def closed_loop(self) -> float:
        """Wall time for a fixed request set pushed through every
        connection back to back."""
        requests = [self.traffic.request()
                    for _ in range(CLOSED_LOOP_REQUESTS)]
        time.sleep(0.2)
        start = time.monotonic()
        step = self._run(requests, [start] * len(requests), start + 600.0)
        self.closed = step
        return max(outcome.done for outcome in step.sent) - start

    def max_rate(self) -> float:
        """The rate the highest step that met the limit completed
        requests at (the first step's if none did): measured, so it
        reads near, not exactly, the step's rate."""
        passed = [rate for rate, step in self.steps.items()
                  if step.passes()]
        return self.steps[max(passed, default=LADDER[0])].completed_rate()

    def close(self) -> None:
        for client in self.clients:
            client.close()


def _send(client: Client, requests: Sequence[Request],
          index: int) -> Tuple[int, bytes]:
    return client.post(requests[index].body)


def latency_summary(step: StepResult) -> Dict[str, float]:
    tail, used = step.tail_ms()
    window_tail, window_used = step.window_tail_ms(LATENCY_WINDOWS)
    return {"p50_ms": step.p50_ms(), "tail_ms": tail,
            "tail_percentile": used, "window_tail_ms": window_tail,
            "window_tail_percentile": window_used,
            "samples": len(step.sent), "backlog": step.backlog,
            "passes": step.passes()}


def lag_tail_ms(step: StepResult) -> float:
    return tail_percentile([o.lag_ms for o in step.sent])[0]


def send_latency_p50_ms(step: StepResult) -> float:
    """Client-observed latency from the actual send, not the due time."""
    return median([(o.done - o.sent) * 1000.0 for o in step.sent
                   if o.status == 200])
