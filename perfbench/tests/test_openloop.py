"""Open-loop accounting: latency runs from the due time."""

import random
import time

from openloop import (FAILED_LATENCY_MS, Outcome, StepResult, run_open_loop,
                      schedule)


def test_schedule_is_seeded_ordered_and_inside_the_step():
    first = schedule(30, 2.0, random.Random(7))
    assert first == schedule(30, 2.0, random.Random(7))
    assert len(first) == 60
    assert first == sorted(first)
    assert 0 < first[0] and first[-1] < 2.0


def test_a_stalled_server_charges_later_requests_from_their_due_time():
    # One connection, a request due every 10 ms, 2 ms service -- except
    # request 2, which stalls for 100 ms.  Requests 3.. were due while
    # the stall held the only connection, so their latency includes the
    # wait even though the server answers each of them in 2 ms.
    def send(index):
        time.sleep(0.1 if index == 2 else 0.002)
        return 200, b"{}"

    start = time.monotonic() + 0.02
    dues = [start + 0.01 * index for index in range(20)]
    step = run_open_loop(dues, [send], end=start + 5.0)
    latencies = step.latencies_ms()
    assert step.backlog == 0 and len(step.sent) == 20
    assert latencies[1] < 20
    assert latencies[2] >= 100
    # Request 3 was due 10 ms after 2 and went out after the stall.
    assert latencies[3] >= 90
    assert all(latencies[i] > latencies[i + 1] for i in range(3, 8))


def test_unsent_due_requests_are_backlog_and_failures_miss_the_limit():
    def send(index):
        time.sleep(0.05)
        return (500 if index == 0 else 200), b""

    start = time.monotonic()
    dues = [start + 0.001 * index for index in range(50)]
    step = run_open_loop(dues, [send, send], end=start + 0.12)
    assert step.backlog > 0
    assert step.backlog + len(step.sent) == 50
    assert step.latencies_ms()[0] == FAILED_LATENCY_MS
    assert step.failed() == 1
    assert not step.passes()


def test_generator_lag_excludes_waiting_for_a_connection():
    def send(index):
        time.sleep(0.03)
        return 200, b""

    start = time.monotonic()
    step = run_open_loop([start] * 4, [send], end=start + 5.0)
    # Each request waited for the single connection, but the generator
    # itself sent it as soon as the connection was free.
    assert all(outcome.lag_ms < 10 for outcome in step.sent)
    assert step.latencies_ms()[-1] >= 90


def test_window_tail_is_the_median_of_slice_tails():
    # 90 requests; only the middle third has hiccups (every other one
    # takes 50 ms).  The whole-step tail lands on a hiccup; the median
    # of the three slices' tails does not.
    outcomes = []
    for index in range(90):
        slow = 30 <= index < 60 and index % 2 == 0
        latency = 0.05 if slow else 0.004
        outcomes.append(Outcome(index, index, index, index + latency, 200,
                                b""))
    step = StepResult(outcomes, 0, 1)
    assert round(step.tail_ms()[0]) == 50
    tail, used = step.window_tail_ms(3)
    assert round(tail, 6) == 4.0
    assert round(used, 3) == round(100 * (1 - 10 / 30), 3)
