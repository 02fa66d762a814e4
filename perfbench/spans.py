"""In-memory spans: recording, Chrome trace-event I/O and self time.

A :class:`Tracer` wraps callables so that each call records one span
(name, start, end, parent span, request id, thread) on the monotonic
clock.  Spans stay in memory until :meth:`Tracer.write` dumps them as
Chrome trace-event JSON (``chrome://tracing`` / Perfetto load it).

Self time is a span's duration minus the part of its interval that its
child spans cover.  Children may overlap each other (threads) or stick
out of the parent; only the covered part inside the parent counts, and
it counts once.

Generator functions get *accumulating* spans: the time of every resume
is summed into one span, so a lazily consumed iterator is charged its
own busy time and not the consumer's.  Such a span has ``acc`` set;
its ``end`` is ``start`` plus the summed busy time, and its parent
subtracts that busy time rather than an interval.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

__all__ = ["Span", "Tracer", "self_times", "layer_totals", "load_chrome",
           "covered_ns"]


class Span:
    """One recorded call.  Times are ``time.monotonic_ns`` values."""

    __slots__ = ("id", "parent", "rid", "name", "start", "end", "tid",
                 "acc", "attrs")

    def __init__(self, id: int, parent: Optional[int], rid: int, name: str,
                 start: int, end: int, tid: int, acc: bool = False,
                 attrs: Optional[Dict[str, float]] = None) -> None:
        self.id = id
        self.parent = parent
        self.rid = rid
        self.name = name
        self.start = start
        self.end = end
        self.tid = tid
        self.acc = acc
        self.attrs = attrs

    @property
    def duration(self) -> int:
        return self.end - self.start

    def __repr__(self) -> str:
        return (f"Span({self.id}, {self.name!r}, parent={self.parent}, "
                f"{self.start}..{self.end})")


CountFn = Callable[[tuple, dict, object], Mapping[str, float]]


class Tracer:
    """Records spans from wrapped callables, per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, acc: bool = False) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        span = Span(span_id, parent.id if parent else None,
                    parent.rid if parent else span_id, name, 0, 0,
                    threading.get_ident(), acc)
        with self._lock:
            self.spans.append(span)
        return span

    def wrap(self, name: str, fn: Callable,
             count: Optional[CountFn] = None) -> Callable:
        """``fn`` recording a ``name`` span per call.  ``count`` maps
        ``(args, kwargs, result)`` to attributes stored on the span."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            stack = tracer._stack()
            stack.append(span)
            span.start = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.monotonic_ns()
                stack.pop()
            if count is not None:
                span.attrs = dict(count(args, kwargs, result))
            return result

        traced.__wrapped_by_perfbench__ = True  # type: ignore[attr-defined]
        return traced

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            span: Optional[Span] = None
            busy = 0
            stack = tracer._stack()
            try:
                while True:
                    if span is None:
                        span = tracer._open(name, acc=True)
                    stack.append(span)
                    began = time.monotonic_ns()
                    if not busy:
                        span.start = began
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        busy += time.monotonic_ns() - began
                        span.end = span.start + busy
                        stack.pop()
                    yield item
            finally:
                inner.close()

        traced.__wrapped_by_perfbench__ = True  # type: ignore[attr-defined]
        return traced

    # -- output ---------------------------------------------------------

    def chrome(self, other: Optional[Mapping[str, object]] = None) -> dict:
        """The spans as a Chrome trace-event document."""
        pid = os.getpid()
        events = []
        with self._lock:
            spans = list(self.spans)
        for span in spans:
            args: Dict[str, object] = {"id": span.id, "parent": span.parent,
                                       "rid": span.rid}
            if span.acc:
                args["acc"] = True
            if span.attrs:
                args.update(span.attrs)
            events.append({"name": span.name,
                           "cat": span.name.split(".")[0],
                           "ph": "X", "ts": span.start / 1000.0,
                           "dur": span.duration / 1000.0,
                           "pid": pid, "tid": span.tid, "args": args})
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": dict(other or {})}

    def write(self, path: str,
              other: Optional[Mapping[str, object]] = None) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(self.chrome(other), handle)
        os.replace(tmp, path)


def load_chrome(path: str) -> Tuple[List[Span], Dict[str, object]]:
    """Spans and ``otherData`` back from a file :meth:`Tracer.write` made."""
    with open(path) as handle:
        document = json.load(handle)
    spans = []
    for event in document["traceEvents"]:
        args = dict(event["args"])
        start = round(event["ts"] * 1000)
        spans.append(Span(args.pop("id"), args.pop("parent"),
                          args.pop("rid"), event["name"], start,
                          start + round(event["dur"] * 1000), event["tid"],
                          bool(args.pop("acc", False)), args or None))
    return spans, document.get("otherData", {})


def covered_ns(start: int, end: int,
               intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(lo, start), min(hi, end))
                     for lo, hi in intervals)
    total = 0
    reach = start
    for lo, hi in clipped:
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Span id -> self time in ns (never negative)."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: Dict[int, int] = {}
    for span in spans:
        kids = children.get(span.id, ())
        if span.acc:
            # Busy time is not one interval: children ran inside the
            # resumes, so subtract their (sequential) durations.
            covered = sum(kid.duration for kid in kids)
        else:
            covered = covered_ns(
                span.start, span.end,
                ((kid.start, kid.end) for kid in kids if not kid.acc))
            covered += sum(kid.duration for kid in kids if kid.acc)
        result[span.id] = max(0, span.duration - covered)
    return result


def layer_totals(spans: Sequence[Span]) -> Dict[str, float]:
    """Span name -> summed self time in seconds."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.id] / 1e9
    return totals
