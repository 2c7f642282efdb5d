"""Lean closed-loop load generator and the two serving traffic shapes.

Each client coroutine draws its next request lazily from its own seeded
generator, awaits the answer, and only then sends again, so the offered
concurrency equals the client count.  Latencies go into one
``array('d')``; no task handles, pre-built request lists or per-request
result lists are kept (those put gen-2 collector pauses into the tail).
Only every ``sample_every``-th answer per client is kept, for the
correctness gate.
"""

from __future__ import annotations

import asyncio
import random
from array import array
from time import perf_counter
from typing import Callable, Iterator, List, Optional, Tuple

from repro.baselines.base import (
    DistanceRequest,
    OneToManyRequest,
    Request,
    TableRequest,
)

Stream = Iterator[Request]

#: Kept answers per session, for the served-vs-direct comparison.
SAMPLE_CAP = 2000


def _client_rng(seed: int, client: int) -> random.Random:
    return random.Random(seed * 1_000_003 + client)


def skewed_traffic(n: int, seed: int) -> Callable[[int], Stream]:
    """Dispatch/ETA traffic: hot order pools and a hot point set.

    75% one-to-many rows from a skewed source to one of four 40-target
    pools (Pareto-ranked, so one pool dominates), 25% point queries whose
    endpoints come from a 64-node Pareto-ranked hot set 80% of the time.
    """
    shared = random.Random(seed)
    pools = [tuple(shared.randrange(n) for _ in range(40)) for _ in range(4)]
    hot = [shared.randrange(n) for _ in range(64)]

    def stream(client: int) -> Stream:
        rng = _client_rng(seed, client)

        def node() -> int:
            if rng.random() < 0.8:
                return hot[min(int(rng.paretovariate(1.2)) - 1, len(hot) - 1)]
            return rng.randrange(n)

        while True:
            if rng.random() < 0.75:
                pool = pools[min(int(rng.paretovariate(1.5)) - 1, len(pools) - 1)]
                yield OneToManyRequest(node(), pool)
            else:
                yield DistanceRequest(node(), node())

    return stream


def uniform_traffic(n: int, seed: int) -> Callable[[int], Stream]:
    """Unshared traffic: every endpoint and target set is fresh.

    50% point queries, 40% one-to-many rows over 32 fresh targets, 10%
    8x8 tables over fresh sources and targets.
    """

    def stream(client: int) -> Stream:
        rng = _client_rng(seed, client)
        pick = rng.randrange
        while True:
            x = rng.random()
            if x < 0.5:
                yield DistanceRequest(pick(n), pick(n))
            elif x < 0.9:
                yield OneToManyRequest(pick(n), [pick(n) for _ in range(32)])
            else:
                yield TableRequest(
                    [pick(n) for _ in range(8)], [pick(n) for _ in range(8)]
                )

    return stream


class Session:
    """What one or more closed-loop slices measured, pooled."""

    def __init__(self) -> None:
        self.latencies = array("d")
        self.failed = 0
        self.samples: List[Tuple[Request, object]] = []
        #: summed wall seconds of every slice
        self.wall = 0.0
        #: ``(start, last answer, answers)`` of each slice
        self.windows: List[Tuple[float, float, int]] = []
        #: last answer of the slice running now
        self.last = 0.0

    @property
    def completed(self) -> int:
        return len(self.latencies)

    @property
    def throughput(self) -> float:
        return self.completed / self.wall if self.wall > 0 else 0.0

    def slice_rates(self) -> List[float]:
        """Answers per second of each slice."""
        return [n / (last - start) for start, last, n in self.windows if last > start]


async def closed_loop(
    server,
    streams: List[Stream],
    seconds: float,
    *,
    into: Optional[Session] = None,
    sample_every: int = 0,
    tracer=None,
) -> Session:
    """Run every stream as one client against ``server`` for ``seconds``.

    A client stops sending once the deadline has passed; requests still
    in flight then are awaited and counted.  Results are pooled into
    ``into`` when given (one session measured as several slices).  With
    a ``tracer`` whose ``on`` is set, each request records a
    ``client.gen`` span (drawing the request) and a ``server.submit``
    span (submit -> answer) under its own request id.
    """
    out = into if into is not None else Session()
    submit = server.submit
    answered = out.completed
    out.last = start = perf_counter()
    deadline = start + seconds

    async def client(stream: Stream) -> None:
        sent = 0
        lat = out.latencies
        while True:
            tg = perf_counter()
            request = next(stream)
            t0 = perf_counter()
            if t0 >= deadline:
                return
            traced = tracer is not None and tracer.on
            if traced:
                rid = next(tracer.rids)
                tracer.rid_of[id(request)] = rid
            try:
                result = await submit(request)
            except Exception:
                out.failed += 1
                continue
            finally:
                if traced:
                    del tracer.rid_of[id(request)]
            t1 = perf_counter()
            lat.append(t1 - t0)
            if t1 > out.last:
                out.last = t1
            if traced:
                tracer.record("client.gen", tg, t0, rid)
                tracer.record("server.submit", t0, t1, rid)
            sent += 1
            if sample_every and sent % sample_every == 0 and len(out.samples) < SAMPLE_CAP:
                out.samples.append((request, result))

    await asyncio.gather(*(client(s) for s in streams))
    out.wall += out.last - start
    out.windows.append((start, out.last, out.completed - answered))
    return out

