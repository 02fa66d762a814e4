"""Request queue in front of the classification engine.

The HTTP layer handles each request on its own thread
(``ThreadingHTTPServer``); :class:`MicroBatcher` is the one thread that
calls the engine.  Request threads submit their qnames and block; the
worker drains whatever has queued (up to :data:`MAX_DRAIN_NAMES`
qnames), classifies the union in one engine call, and slices the
verdicts back per request.

There is no coalescing wait: a lone request is served at once, and
requests that arrive while the engine is busy ride the next call.  The
worker serialises all engine access, so the engine's counters need no
locking of their own.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence

from repro.service.engine import Verdict

__all__ = ["MicroBatcher", "MAX_DRAIN_NAMES"]

#: Soft cap on qnames per engine call.  Whole requests are never
#: split; draining stops once the cap is reached or passed.
MAX_DRAIN_NAMES = 512


class _PendingRequest:
    """One submitted request waiting for its verdicts."""

    __slots__ = ("qnames", "done", "verdicts", "error")

    def __init__(self, qnames: List[str]) -> None:
        self.qnames = qnames
        self.done = threading.Event()
        self.verdicts: Optional[List[Verdict]] = None
        self.error: Optional[BaseException] = None


class MicroBatcher:
    """Serves concurrent classify requests from one worker thread.

    ``classify`` is the batched classify function (one call per drained
    batch) — normally ``ClassificationEngine.classify_batch``.
    """

    def __init__(self,
                 classify: Callable[[Sequence[str]], List[Verdict]]) -> None:
        self._classify = classify
        self._cond = threading.Condition()
        self._queue: Deque[_PendingRequest] = deque()
        self._closed = False
        # Counters (ints; written by the worker thread only).
        self.batches = 0
        self.requests = 0
        self.names = 0
        self.coalesced_requests = 0
        self.largest_batch = 0
        self._worker = threading.Thread(target=self._run,
                                        name="repro-serve-batcher",
                                        daemon=True)
        self._worker.start()

    # -- request side ---------------------------------------------------

    def submit(self, qnames: Sequence[str]) -> List[Verdict]:
        """Classify ``qnames``; blocks until the worker answers."""
        request = _PendingRequest(list(qnames))
        with self._cond:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            self._queue.append(request)
            self._cond.notify_all()
        request.done.wait()
        if request.error is not None:
            raise request.error
        assert request.verdicts is not None
        return request.verdicts

    def close(self) -> None:
        """Drain outstanding requests and stop the worker thread."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._worker.join()

    # -- worker side ----------------------------------------------------

    def _run(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            self._serve(batch)

    def _next_batch(self) -> Optional[List[_PendingRequest]]:
        """Block for work and drain one batch of what has queued.

        Returns ``None`` when closed and fully drained.
        """
        with self._cond:
            while not self._queue:
                if self._closed:
                    return None
                self._cond.wait()
            batch: List[_PendingRequest] = []
            total = 0
            while self._queue and total < MAX_DRAIN_NAMES:
                request = self._queue.popleft()
                batch.append(request)
                total += len(request.qnames)
            return batch

    def _serve(self, batch: List[_PendingRequest]) -> None:
        qnames: List[str] = []
        for request in batch:
            qnames.extend(request.qnames)
        try:
            verdicts = self._classify(qnames)
            if len(verdicts) != len(qnames):
                raise RuntimeError(
                    f"classify returned {len(verdicts)} verdicts "
                    f"for {len(qnames)} qnames")
        except Exception as exc:  # propagated to every waiting caller
            for request in batch:
                request.error = exc
                request.done.set()
            return
        self.batches += 1
        self.requests += len(batch)
        self.names += len(qnames)
        self.coalesced_requests += len(batch) - 1
        self.largest_batch = max(self.largest_batch, len(qnames))
        offset = 0
        for request in batch:
            request.verdicts = verdicts[offset:offset + len(request.qnames)]
            offset += len(request.qnames)
            request.done.set()

    # -- metrics --------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {"batches": self.batches, "requests": self.requests,
                "names": self.names,
                "coalesced_requests": self.coalesced_requests,
                "largest_batch": self.largest_batch}
