"""The request queue in front of the engine."""

from __future__ import annotations

import threading
import time
from typing import List, Sequence

import pytest

from repro.service.batching import MAX_DRAIN_NAMES, MicroBatcher
from repro.service.engine import Verdict


def fake_verdict(qname: str) -> Verdict:
    return Verdict(qname=qname, zone="", depth=0, reason="invalid-name",
                   disposable=False, score=0.0, probability=0.0,
                   group_size=0)


def fake_classify(qnames: Sequence[str]) -> List[Verdict]:
    return [fake_verdict(qname) for qname in qnames]


@pytest.fixture
def batcher():
    instance = MicroBatcher(fake_classify)
    yield instance
    instance.close()


class TestSubmit:
    def test_single_request_round_trip(self, batcher):
        verdicts = batcher.submit(["a.example.com", "b.example.com"])
        assert [v.qname for v in verdicts] == ["a.example.com",
                                               "b.example.com"]
        assert batcher.requests == 1
        assert batcher.names == 2
        assert batcher.batches >= 1

    def test_concurrent_requests_each_get_their_slice(self, batcher):
        results: dict = {}
        errors: List[BaseException] = []

        def worker(tag: str) -> None:
            try:
                results[tag] = batcher.submit([f"{tag}-{i}.example.com"
                                               for i in range(3)])
            except BaseException as exc:  # pragma: no cover - test guard
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(f"t{i}",))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for tag, verdicts in results.items():
            assert [v.qname for v in verdicts] == \
                [f"{tag}-{i}.example.com" for i in range(3)]
        assert batcher.requests == 6
        assert batcher.names == 18



def _wait_for_queue(batcher: MicroBatcher, length: int) -> None:
    """Block until ``length`` requests are queued (so the test queues
    them one at a time, in order)."""
    for _ in range(10_000):
        with batcher._cond:
            if len(batcher._queue) == length:
                return
        time.sleep(0.001)
    raise AssertionError(f"queue never reached {length} requests")


class TestDraining:
    """While the worker is inside ``classify``, later requests queue;
    the next engine call drains them together, up to the name cap."""

    def _drained_batches(self, request_sizes: List[int]) -> List[int]:
        """Names per engine call when ``request_sizes`` queue up behind
        one held request."""
        release = threading.Event()
        entered = threading.Event()
        batch_sizes: List[int] = []

        def gated(qnames: Sequence[str]) -> List[Verdict]:
            batch_sizes.append(len(qnames))
            entered.set()
            release.wait(10)
            return fake_classify(qnames)

        batcher = MicroBatcher(gated)
        threads = [threading.Thread(target=batcher.submit,
                                    args=(["held.example.com"],))]
        threads[0].start()
        try:
            assert entered.wait(10)
            for index, size in enumerate(request_sizes):
                thread = threading.Thread(
                    target=batcher.submit,
                    args=([f"r{index}-{i}.example.com"
                           for i in range(size)],))
                thread.start()
                threads.append(thread)
                _wait_for_queue(batcher, index + 1)
        finally:
            release.set()
            for thread in threads:
                thread.join(10)
            batcher.close()
        assert batcher.requests == 1 + len(request_sizes)
        return batch_sizes

    def test_queued_requests_coalesce_into_one_call(self):
        assert self._drained_batches([2, 3, 4]) == [1, 9]

    def test_name_cap_splits_batches(self):
        half = MAX_DRAIN_NAMES // 2
        # The first two requests reach the cap; the third waits for
        # the next call.  A request is never split.
        assert self._drained_batches([half, half, 1]) == \
            [1, 2 * half, 1]
        assert self._drained_batches([half + 1, MAX_DRAIN_NAMES, 3]) == \
            [1, half + 1 + MAX_DRAIN_NAMES, 3]


class TestErrorPropagation:
    def test_classify_exception_reaches_every_caller(self):
        def broken(qnames: Sequence[str]) -> List[Verdict]:
            raise RuntimeError("model on fire")

        batcher = MicroBatcher(broken)
        try:
            with pytest.raises(RuntimeError, match="model on fire"):
                batcher.submit(["a.example.com"])
            # The worker survives a failing batch.
            with pytest.raises(RuntimeError, match="model on fire"):
                batcher.submit(["b.example.com"])
        finally:
            batcher.close()

    def test_length_mismatch_is_an_error(self):
        def short(qnames: Sequence[str]) -> List[Verdict]:
            return []

        batcher = MicroBatcher(short)
        try:
            with pytest.raises(RuntimeError, match="0 verdicts"):
                batcher.submit(["a.example.com"])
        finally:
            batcher.close()


class TestLifecycle:
    def test_submit_after_close_rejected(self):
        batcher = MicroBatcher(fake_classify)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(["a.example.com"])

    def test_close_is_idempotent(self):
        batcher = MicroBatcher(fake_classify)
        batcher.close()
        batcher.close()

    def test_stats_keys(self, batcher):
        batcher.submit(["a.example.com"])
        stats = batcher.stats()
        assert set(stats) == {"batches", "requests", "names",
                              "coalesced_requests", "largest_batch"}
        assert stats["largest_batch"] >= 1
