"""Open-loop request generation over a fixed number of connections.

Requests are due on a fixed seeded schedule.  Each connection has one
worker thread that takes the next request in due order, sleeps until it
is due, sends it and waits for the answer.  A request whose turn comes
while every connection is busy waits in the generator; its latency is
counted from when it was *due*, so a stalled server also charges the
requests queued behind the stall.  When the step's time is up, workers
stop taking requests; requests that were due but never sent are the
step's backlog.  How late the generator itself ran — send time past
both the due time and the moment a connection was free — is reported
separately so a slow generator cannot pass for a slow server.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from measure import median, tail_percentile

__all__ = ["Outcome", "StepResult", "schedule", "run_open_loop",
           "LATENCY_LIMIT_MS", "FAILED_LATENCY_MS"]

#: The p99 latency limit a ladder step must meet.
LATENCY_LIMIT_MS = 100.0

#: Latency charged to a failed request: it misses any limit.
FAILED_LATENCY_MS = float("inf")

#: One send: request index -> (HTTP status, body); status 0 = no answer.
Sender = Callable[[int], Tuple[int, bytes]]


@dataclass
class Outcome:
    due: float
    picked: float
    sent: float
    done: float
    status: int
    body: bytes
    ok: bool = True

    @property
    def latency_ms(self) -> float:
        if self.status != 200 or not self.ok:
            return FAILED_LATENCY_MS
        return (self.done - self.due) * 1000.0

    @property
    def lag_ms(self) -> float:
        return max(0.0, self.sent - max(self.due, self.picked)) * 1000.0


@dataclass
class StepResult:
    outcomes: List[Optional[Outcome]]
    backlog: int
    n_conns: int

    @property
    def sent(self) -> List[Outcome]:
        return [outcome for outcome in self.outcomes if outcome is not None]

    def latencies_ms(self) -> List[float]:
        return [outcome.latency_ms for outcome in self.sent]

    def p50_ms(self) -> float:
        return median(self.latencies_ms())

    def tail_ms(self) -> Tuple[float, float]:
        return tail_percentile(self.latencies_ms())

    def window_tail_ms(self, windows: int) -> Tuple[float, float]:
        """Median over ``windows`` consecutive, equal slices of the sent
        requests (in due order) of each slice's tail, and the tail
        percentile a slice supports.  A few scheduling hiccups of the
        host then move one slice's tail, not the reported value."""
        sent = sorted(self.sent, key=lambda outcome: outcome.due)
        size = len(sent) // windows
        if size == 0:
            return self.tail_ms()
        tails = [tail_percentile([o.latency_ms for o in
                                  sent[index * size:(index + 1) * size]])
                 for index in range(windows)]
        return median([value for value, _ in tails]), tails[0][1]

    def failed(self) -> int:
        return sum(1 for outcome in self.sent
                   if outcome.latency_ms == FAILED_LATENCY_MS)

    def passes(self) -> bool:
        """Meets the latency limit with a backlog that did not grow
        beyond one request per connection."""
        if not self.sent:
            return False
        return (self.tail_ms()[0] <= LATENCY_LIMIT_MS
                and self.backlog <= self.n_conns)

    def completed_rate(self) -> float:
        """Answered requests per second over the step's span."""
        sent = self.sent
        if not sent:
            return 0.0
        span = max(o.done for o in sent) - min(o.due for o in sent)
        return sum(1 for o in sent if o.status == 200) / max(span, 1e-9)


def schedule(rate: float, duration: float, rng: random.Random,
             jitter: float = 0.05) -> List[float]:
    """Due offsets (s) of ``rate * duration`` requests: one per slot of
    ``1 / rate``, at the slot's centre moved by a seeded ±``jitter`` of
    a slot, so the order is fixed and the offsets lie in the step."""
    count = max(1, round(rate * duration))
    return [(index + 0.5 + rng.uniform(-jitter, jitter)) / rate
            for index in range(count)]


def run_open_loop(dues: Sequence[float], senders: Sequence[Sender],
                  end: float,
                  clock: Callable[[], float] = time.monotonic,
                  sleep: Callable[[float], None] = time.sleep
                  ) -> StepResult:
    """Send request ``i`` at absolute time ``dues[i]`` over one worker
    per sender; stop taking requests at ``end``."""
    outcomes: List[Optional[Outcome]] = [None] * len(dues)
    cursor = [0]
    lock = threading.Lock()

    def work(send: Sender) -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= len(dues) or clock() >= end:
                    return
                cursor[0] = index + 1
            picked = clock()
            wait = dues[index] - picked
            if wait > 0:
                sleep(wait)
            sent = clock()
            status, body = send(index)
            outcomes[index] = Outcome(dues[index], picked, sent, clock(),
                                      status, body)

    workers = [threading.Thread(target=work, args=(send,), daemon=True)
               for send in senders]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    backlog = sum(1 for outcome in outcomes if outcome is None)
    return StepResult(outcomes, backlog, len(senders))
