"""In-memory span recorder for the traced benchmark run.

Spans are recorded only from this directory's code, around the public
callables the benchmark calls into (or hands to the server, which calls
them on its behalf).  Nothing inside ``repro`` is edited: module-level
functions are called through a wrapped reference, engine methods are
shadowed by instance attributes, and :class:`DistanceCache`, which uses
``__slots__``, is timed through the :class:`TracedCache` subclass.

A span is ``(id, name, start, end, parent, rid)``.  ``parent`` is the
enclosing call span on the same thread (``None`` at top level); ``rid``
ties a client request span to the batch span that answered it through
:attr:`Tracer.members`.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.baselines.base import DistanceCache
from repro.bench.harness import latency_percentile

Span = Tuple[int, str, float, float, Optional[int], Optional[int]]

_clock = time.perf_counter


class Tracer:
    """Collects spans while :attr:`on`; wrappers are free when it is off."""

    def __init__(self) -> None:
        self.on = False
        self.spans: List[Span] = []
        #: batch span id -> request ids it answered
        self.members: Dict[int, List[Optional[int]]] = {}
        #: id(request object) -> request id, while the request is in flight
        self.rid_of: Dict[int, int] = {}
        #: request ids, unique across every session traced into this tracer
        self.rids = itertools.count()
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, batch: bool = False):
        """``fn`` recording one call span per invocation.

        With ``batch=True`` the first positional argument is a request
        sequence, and the span's member request ids are kept.
        """
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            if batch:
                rid_of = self.rid_of
                self.members[sid] = [rid_of.get(id(r)) for r in args[0]]
            stack.append(sid)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, None))

        return traced

    def record(self, name: str, t0: float, t1: float, rid: Optional[int]) -> None:
        """Add a span timed by the caller (client request spans)."""
        self.spans.append((next(self._ids), name, t0, t1, None, rid))

    def shadow(self, obj, prefix: str, methods: Iterable[str]):
        """Trace ``obj.<method>`` for each method; returns an undo callable."""
        names = list(methods)
        for m in names:
            setattr(obj, m, self.wrap(f"{prefix}.{m}", getattr(obj, m)))

        def undo() -> None:
            for m in names:
                delattr(obj, m)

        return undo

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s[1] == name]

    def write(self, path) -> None:
        """Write every span, then every batch's members, as JSON lines."""
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, rid in sorted(self.spans):
                fh.write(json.dumps([sid, name, t0, t1, parent, rid]) + "\n")
            for sid, rids in self.members.items():
                fh.write(json.dumps({"batch": sid, "rids": rids}) + "\n")


class TracedCache(DistanceCache):
    """``DistanceCache`` whose bulk lookups and stores record spans.

    ``DistanceCache`` declares ``__slots__``, so its bound methods cannot
    be shadowed on an instance; this subclass overrides them instead.
    """

    def __init__(self, tracer: Tracer, maxsize: int) -> None:
        super().__init__(maxsize)
        self._lookup = tracer.wrap("cache.lookup_many", super().lookup_many)
        self._store = tracer.wrap("cache.store_many", super().store_many)

    def lookup_many(self, keys):
        return self._lookup(keys)

    def store_many(self, items) -> None:
        self._store(items)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def durations(spans: Sequence[Span]) -> List[float]:
    return [s[3] - s[2] for s in spans]


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def child_time(spans: Sequence[Span], parents: Iterable[int]) -> float:
    """Summed duration of the spans whose parent is in ``parents``."""
    ids = set(parents)
    return sum(s[3] - s[2] for s in spans if s[4] in ids)


def tail_quantile(n: int) -> float:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    for q in (0.99, 0.95, 0.9, 0.75, 0.5):
        if n * (1.0 - q) >= 10:
            return q
    return 1.0


def median_and_tail(values: Iterable[float]) -> Tuple[float, float, float, int]:
    """``(p50, tail, tail quantile, samples)`` of ``values``."""
    ordered = sorted(values)
    q = tail_quantile(len(ordered))
    return (
        latency_percentile(ordered, 0.5),
        latency_percentile(ordered, q),
        q,
        len(ordered),
    )
