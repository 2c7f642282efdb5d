"""The benchmark's four workloads.

Each workload function in :data:`WORKLOADS` takes ``(seed, seconds,
trace)`` and returns an :class:`Outcome`.  Every workload measures every
end-to-end metric (``README.md`` says what each means on each
workload).  With ``trace`` it also runs traced units of work (build
rounds, serving slices, query slices) alternated with untraced ones of
the same shape, and measures the per-layer metrics of the layers it
exercises.
"""

from __future__ import annotations

import asyncio
import gc
import math
import random
import resource
import statistics
from array import array
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter as clock
from typing import Callable, Dict, List, Optional, Tuple

from repro.baselines.base import (
    DistanceCache,
    DistanceRequest,
    OneToManyRequest,
    QueryEngine,
    TableRequest,
)
from repro.baselines.ch import contract_graph
from repro.baselines.hl import HubLabelIndex
from repro.core.ah import AHIndex
from repro.core.serialize import bundle_bytes, inspect_bundle, load_bundle
from repro.datasets import dataset, estimate_lmax, generate_workloads
from repro.graph.path import validate_path
from repro.graph.traversal import dijkstra_distances
from repro.serve.pool import WorkerPool
from repro.serve.server import Server

import loadgen
from tracing import (
    TracedCache,
    Tracer,
    child_time,
    covered,
    durations,
    median_and_tail,
)

INF = float("inf")

#: paper-q sets up (DE graph + AH build) this many times per run;
#: ``setup_s`` is the median.
SETUPS = 3
#: build-wus runs at least this many build rounds whatever ``--seconds``
#: says, so its build, boot and latency figures are medians of several.
BUILD_ROUNDS = 3
#: Serving sessions run as this many slices, with one more set-up timed
#: after each, so set-up and serving samples spread over the run.  A
#: traced session alternates this many traced and untraced slices.
SLICES = 6
#: Untimed prefix of the same traffic before every serving session.
WARMUP_S = 0.5
CACHE_SIZE = 1 << 16

BUCKETS = tuple(range(3, 11))
SECTION_STREAMS = ("lengths", "hubs", "parents", "dists", "delta_dict_values")


@dataclass
class Outcome:
    """One workload run: metric values, attempt counts and context."""

    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    info: dict = field(default_factory=dict)
    #: the traced pass's spans, when there was one
    tracer: Optional[Tracer] = None


class Gate:
    """Counts correctness checks; a failing or raising check never aborts."""

    def __init__(self) -> None:
        self.checked = 0
        self.failed = 0
        self.first_failures: List[str] = []

    def check(self, what: str, ok: Callable[[], bool]) -> None:
        self.checked += 1
        try:
            passed = bool(ok())
        except Exception as exc:  # a crashing check is a failed check
            passed = False
            what = f"{what}: {type(exc).__name__}: {exc}"
        if not passed:
            self.failed += 1
            if len(self.first_failures) < 10:
                self.first_failures.append(what)

    def summary(self) -> dict:
        return {
            "checks": self.checked,
            "failed": self.failed,
            "first_failures": self.first_failures,
        }


def _close(a: float, b: float) -> bool:
    if a == b:
        return True
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= 1e-9 * max(
        1.0, abs(a), abs(b)
    )


def dijkstra_sample(
    gate: Gate, graph, distance, rng: random.Random, sources: int = 4, targets: int = 100
) -> None:
    """Index distances against full Dijkstra trees from seeded sources."""
    n = graph.n
    for _ in range(sources):
        s = rng.randrange(n)
        truth = dijkstra_distances(graph, s)
        for t in rng.sample(range(n), min(targets, n)):
            gate.check(
                f"dijkstra {s}->{t}",
                lambda s=s, t=t: _close(distance(s, t), truth.get(t, INF)),
            )


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _finish(out: Outcome, gate: Gate, operations: int, failed_ops: int) -> Outcome:
    out.metrics["peak_rss_mb"] = _peak_rss_mb()
    out.attempted = operations + gate.checked
    out.failed = failed_ops + gate.failed
    out.layers["error_rate"] = out.failed / out.attempted if out.attempted else 0.0
    out.info["gate"] = gate.summary()
    out.info["operations"] = operations
    return out


def _overhead(traced: List[float], plain: List[float]) -> float:
    """Median traced over median untraced time per unit of work, minus 1.

    Both lists come from units of the same shape, alternated in one pass.
    """
    return statistics.median(traced) / statistics.median(plain) - 1.0


# ----------------------------------------------------------------------
# build-wus
# ----------------------------------------------------------------------
BUILD_DATASET = "W-US"


def _build_once(graph, tracer: Optional[Tracer]):
    """graph -> (contraction, index, bundle bytes)."""
    contract, label, encode = contract_graph, HubLabelIndex, bundle_bytes
    if tracer is not None:
        contract = tracer.wrap("ch.contract_graph", contract)
        label = tracer.wrap("hl.HubLabelIndex", label)
        encode = tracer.wrap("serialize.bundle_bytes", encode)
    res = contract(graph)
    index = label(graph, contraction=res)
    return res, index, encode(index)


@dataclass
class _Rounds:
    """Build and boot seconds of the rounds of one kind (traced or not)."""

    builds: List[float] = field(default_factory=list)
    boots: List[float] = field(default_factory=list)


def _build_rounds(graph, seconds: float, setups: List[float], tracer=None):
    """Build and boot in rounds until ``seconds`` have passed.

    At least :data:`BUILD_ROUNDS` rounds run.  Each round times one
    build and one boot, with a graph generation timed into ``setups``
    before the build, between build and boot, and after the boot, so
    set-up samples spread over the whole run.  With a ``tracer`` every
    untraced round is followed by a traced one of the same shape.
    Returns ``(untraced rounds, traced rounds, contraction, built index,
    blob, loaded index)`` with the artifacts of the last round.
    """
    plain, traced = _Rounds(), _Rounds()
    kinds = (None,) if tracer is None else (None, tracer)
    end = clock() + seconds
    res = built = blob = loaded = None
    while len(plain.builds) < BUILD_ROUNDS or clock() < end:
        for tr in kinds:
            rounds = plain if tr is None else traced
            res = built = blob = loaded = None
            gc.collect()
            _time_graph(setups)
            if tr is not None:
                tr.on = True
            t0 = clock()
            res, built, blob = _build_once(graph, tr)
            rounds.builds.append(clock() - t0)
            _time_graph(setups)
            if tr is not None:
                # Paired with the verified boot right after it, so the
                # difference holds the verification cost.
                gc.collect()
                tr.wrap("serialize.load_bundle", load_bundle)(blob, verify=False)
            took, loaded = _boot(blob, tr)
            rounds.boots.append(took)
            if tr is not None:
                tr.on = False
            _time_graph(setups)
    return plain, traced, res, built, blob, loaded


def _time_graph(setups: List[float]):
    """Time one W-US graph generation (build-wus's set-up) into ``setups``."""
    t0 = clock()
    graph = dataset(BUILD_DATASET, use_cache=False)
    setups.append(clock() - t0)
    return graph


def run_build(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    gate = Gate()
    rng = random.Random(seed)
    setups: List[float] = []
    graph = _time_graph(setups)
    out.info["graph"] = {"dataset": BUILD_DATASET, "n": graph.n, "m": graph.m}

    tracer = Tracer() if trace else None
    plain, traced, res, built, blob, loaded = _build_rounds(
        graph, seconds, setups, tracer
    )
    out.metrics["setup_s"] = statistics.median(setups)
    out.metrics["build_s"] = statistics.median(plain.builds)
    out.metrics["boot_s"] = statistics.median(plain.boots)
    out.metrics["bundle_mb"] = len(blob) / 1e6
    out.info["build_s"] = list(plain.builds)
    out.info["traced_build_s"] = list(traced.builds)
    out.info["setups"] = len(setups)
    # A request here is one graph -> queryable index: a build and its boot.
    requests = [b + boot for b, boot in zip(plain.builds, plain.boots)]
    out.metrics["throughput_rps"] = len(requests) / sum(requests)
    _tail_metrics("latency", requests, 1e3, "ms", out)
    _identical_answers(gate, built, loaded, rng)
    dijkstra_sample(gate, graph, loaded.distance, rng)
    operations = 2 * len(plain.builds) + 3 * len(traced.builds)

    if trace:
        sections = inspect_bundle(blob)

        def span_median(name: str) -> float:
            return statistics.median(durations(tracer.by_name(name)))

        out.layers.update(
            {
                "trace.overhead": _overhead(traced.builds, plain.builds),
                "ch.contract_s": span_median("ch.contract_graph"),
                "ch.shortcuts": res.shortcut_count,
                "hl.label_s": span_median("hl.HubLabelIndex"),
                "hl.label_entries": built.label_count,
                "serialize.encode_s": span_median("serialize.bundle_bytes"),
                "serialize.load_s": span_median("serialize.load_bundle"),
                "serialize.verify_s": statistics.median(
                    b - a
                    for a, b in zip(
                        durations(tracer.by_name("serialize.load_bundle")),
                        durations(tracer.by_name("serialize.load_bundle.verify")),
                    )
                ),
            }
        )
        out.layers.update(_section_bytes(sections))
        out.tracer = tracer
    return _finish(out, gate, operations, 0)


def _boot(blob: bytes, tracer=None):
    """One timed ``load_bundle(verify=True)``: ``(seconds, loaded index)``."""
    load = load_bundle
    if tracer is not None:
        load = tracer.wrap("serialize.load_bundle.verify", load_bundle)
    gc.collect()
    t0 = clock()
    _, loaded = load(blob, verify=True)
    return clock() - t0, loaded


class _Queries:
    """Per-call timings of distance-then-path requests over cycling pairs.

    Calls are made in bursts (:meth:`burst`) that resume where the last
    one stopped, so bursts spread over a run still cover every pair.  A
    request is one pair: its ``distance`` call, then its ``shortest_path``
    call.
    """

    def __init__(self, pairs) -> None:
        self.pairs = pairs
        self.pos = 0
        self.dist = array("d")
        self.path = array("d")
        self.order = array("b")
        self.wall = 0.0

    def burst(self, distance, path, seconds: float) -> float:
        """Requests for ``seconds``; returns the burst's seconds per request."""
        pairs, pos = self.pairs, self.pos
        dist_s, path_s, order = self.dist, self.path, self.order
        done = len(order)
        start = t2 = clock()
        end = start + seconds
        while t2 < end:
            bucket, s, t = pairs[pos]
            pos = (pos + 1) % len(pairs)
            t0 = clock()
            distance(s, t)
            t1 = clock()
            path(s, t)
            t2 = clock()
            dist_s.append(t1 - t0)
            path_s.append(t2 - t1)
            order.append(bucket)
        self.pos = pos
        self.wall += t2 - start
        return (t2 - start) / (len(order) - done)

    def report(self, out: Outcome) -> int:
        """Fill ``distance_*``, ``path_*``, ``latency_*`` and
        ``throughput_rps``; returns the calls made."""
        _tail_metrics("distance", self.dist, 1e6, "us", out)
        _tail_metrics("path", self.path, 1e6, "us", out)
        out.metrics["throughput_rps"] = len(self.dist) / self.wall
        _tail_metrics(
            "latency", [d + p for d, p in zip(self.dist, self.path)], 1e3, "ms", out
        )
        return 2 * len(self.dist)


def _tail_metrics(prefix: str, samples, scale: float, unit: str, out: Outcome) -> None:
    """``<prefix>_p50_<unit>`` and ``<prefix>_p99_<unit>`` from samples.

    The ``p99`` slot holds the highest percentile with at least ten
    samples beyond it; ``info`` records which one and the sample count.
    """
    p50, tail, q, n = median_and_tail(samples)
    out.metrics[f"{prefix}_p50_{unit}"] = p50 * scale
    out.metrics[f"{prefix}_p99_{unit}"] = tail * scale
    out.info[f"{prefix}_samples"] = n
    out.info[f"{prefix}_tail_quantile"] = q


def _identical_answers(gate: Gate, built, loaded, rng: random.Random) -> None:
    """The built and the bundle-loaded index answer bit-identically."""
    n = built.graph.n
    for s, t in ((rng.randrange(n), rng.randrange(n)) for _ in range(200)):
        gate.check(
            f"loaded distance {s}->{t}",
            lambda: built.distance(s, t) == loaded.distance(s, t),
        )
    for _ in range(20):
        s = rng.randrange(n)
        targets = [rng.randrange(n) for _ in range(32)]
        gate.check(
            f"loaded one_to_many from {s}",
            lambda: built.one_to_many(s, targets) == loaded.one_to_many(s, targets),
        )


def _section_bytes(sections: List[dict]) -> Dict[str, float]:
    """Per-section and per-stream byte counts from ``inspect_bundle``."""
    out = {
        "serialize.graph_bytes": 0.0,
        "serialize.index_bytes": 0.0,
        "serialize.label_bytes": 0.0,
        "serialize.trailer_bytes": 0.0,
    }
    out.update({f"serialize.{s}_bytes": 0.0 for s in SECTION_STREAMS})
    for sec in sections:
        magic = sec["magic"]
        if magic.startswith("GCSR"):
            out["serialize.graph_bytes"] += sec["bytes"]
        elif magic == "BCRC1":
            out["serialize.trailer_bytes"] += sec["bytes"]
        else:
            out["serialize.index_bytes"] += sec["bytes"]
            detail = sec.get("detail", {})
            out["serialize.label_bytes"] += detail.get("label_bytes", 0)
            for side in detail.get("sides", ()):
                for stream, nbytes in side.get("streams", {}).items():
                    key = f"serialize.{stream}_bytes"
                    if key in out:
                        out[key] += nbytes
    return out


# ----------------------------------------------------------------------
# serve-skewed / serve-uniform-pool
# ----------------------------------------------------------------------
SERVE_DATASET = "CA"
SAMPLE_EVERY = 32
POOL_WORKERS = 1
HL_KERNELS = ("distance", "one_to_many", "distance_table")


async def _boot_server(pooled: bool, blob: bytes, cache):
    """Bundle bytes -> started server.

    Returns ``(server, pool, index, load_s, setup_s)``: ``index`` is the
    in-process index loaded from the same bytes (the one served inline,
    and the direct-call reference in pool mode); ``setup_s`` runs from
    the bytes to a server ready to answer.
    """
    t0 = clock()
    _, index = load_bundle(blob, verify=True)
    loaded = clock()
    pool = None
    if pooled:
        pool = WorkerPool(blob, workers=POOL_WORKERS, cache=cache)
        server = Server(None, pool=pool)
    else:
        server = Server(index, cache=cache)
    try:
        await server.start()
    except BaseException:
        await _shutdown(server, pool)
        raise
    ready = clock()
    return server, pool, index, loaded - t0, ready - (loaded if pooled else t0)


async def _shutdown(server, pool) -> None:
    await server.close()
    if pool is not None:
        pool.close()


def _answer(index: QueryEngine, request):
    if isinstance(request, DistanceRequest):
        return index.distance(request.source, request.target)
    if isinstance(request, OneToManyRequest):
        return index.one_to_many(request.source, request.targets)
    if isinstance(request, TableRequest):
        return index.distance_table(request.sources, request.targets)
    raise TypeError(type(request).__name__)


def _same(a, b) -> bool:
    """Bit-identical answers, whatever sequence types carry them."""
    if isinstance(a, float) or isinstance(b, float):
        return float(a) == float(b)
    a, b = list(a), list(b)
    return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))


def run_serve(pooled: bool, seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    gate = Gate()
    rng = random.Random(seed)
    graph = dataset(SERVE_DATASET, use_cache=False)
    out.info["graph"] = {"dataset": SERVE_DATASET, "n": graph.n, "m": graph.m}
    t0 = clock()
    blob = bundle_bytes(HubLabelIndex(graph))
    build_s = clock() - t0
    out.metrics["bundle_mb"] = len(blob) / 1e6
    gc.collect()
    index, sessions, boots = asyncio.run(
        _serve_main(pooled, blob, seed, seconds, trace, out)
    )
    out.metrics["build_s"] = build_s
    out.metrics["boot_s"] = statistics.median(boots)
    for session in sessions:
        for request, result in session.samples:
            gate.check(
                f"served {request!r}",
                lambda: _same(result, _answer(index, request)),
            )
    dijkstra_sample(gate, graph, index.distance, rng)
    served = sum(s.completed + s.failed for s in sessions)
    failed = sum(s.failed for s in sessions)
    return _finish(out, gate, 1 + len(boots) + served, failed)


async def _serve_main(pooled, blob, seed, seconds, trace, out: Outcome):
    """Boot, warm up, serve in slices; returns ``(index, sessions, boots)``.

    After each slice the server idles while one more set-up (a second
    server, booted and closed) is timed, so the set-up and serving
    samples spread over the run.
    """
    gc.collect()
    server, pool, index, boot_s, setup_s = await _boot_server(
        pooled, blob, DistanceCache(CACHE_SIZE)
    )
    boots, setups = [boot_s], [setup_s]

    factory = (loadgen.uniform_traffic if pooled else loadgen.skewed_traffic)(
        index.graph.n, seed
    )
    clients = 64 if pooled else 256
    out.info["clients"] = clients
    streams = [factory(c) for c in range(clients)]
    session = loadgen.Session()
    try:
        await loadgen.closed_loop(server, streams, WARMUP_S)
        for _ in range(SLICES):
            gc.collect()
            await loadgen.closed_loop(
                server, streams, seconds / SLICES, into=session, sample_every=SAMPLE_EVERY
            )
            # One more full set-up, served by nobody.
            gc.collect()
            spare = await _boot_server(pooled, blob, DistanceCache(CACHE_SIZE))
            await _shutdown(spare[0], spare[1])
            boots.append(spare[3])
            setups.append(spare[4])
            spare = None
    finally:
        await _shutdown(server, pool)
    out.metrics["setup_s"] = statistics.median(setups)
    out.metrics["throughput_rps"] = session.throughput
    _tail_metrics("latency", session.latencies, 1e3, "ms", out)
    sessions = [session]
    if trace:
        sessions += await _traced_session(pooled, blob, index, streams, seconds, out)
    return index, sessions, boots


async def _traced_session(pooled, blob, index, streams, seconds, out: Outcome):
    """A fresh server over the same index, with every layer call spanned.

    Traced and untraced slices of the same length alternate on it; the
    layer metrics come from the traced slices, and ``trace.overhead``
    from the two kinds' median rates.  Returns both sessions.
    """
    tracer = Tracer()
    cache = TracedCache(tracer, CACHE_SIZE)
    undo = None
    if pooled:
        pool = WorkerPool(blob, workers=POOL_WORKERS, cache=cache)
        server = Server(None, pool=pool)
        pool.execute = tracer.wrap("pool.execute", pool.execute, batch=True)
    else:
        pool = None
        server = Server(index, cache=cache)
        server.planner.execute = tracer.wrap(
            "planner.execute", server.planner.execute, batch=True
        )
        undo = tracer.shadow(index, "hl", HL_KERNELS)
    traced, plain = loadgen.Session(), loadgen.Session()
    counters: Dict[str, float] = {}
    each = seconds / (2 * SLICES)
    try:
        await server.start()
        await loadgen.closed_loop(server, streams, WARMUP_S)
        for _ in range(SLICES):
            gc.collect()
            before = _layer_counters(server, pool, index)
            tracer.on = True
            await loadgen.closed_loop(
                server,
                streams,
                each,
                into=traced,
                sample_every=SAMPLE_EVERY,
                tracer=tracer,
            )
            tracer.on = False
            after = _layer_counters(server, pool, index)
            for key, value in after.items():
                counters[key] = counters.get(key, 0.0) + value - before[key]
            gc.collect()
            await loadgen.closed_loop(
                server, streams, each, into=plain, sample_every=SAMPLE_EVERY
            )
    finally:
        await _shutdown(server, pool)
        if undo is not None:
            undo()
    out.layers.update(_serve_layers(tracer, traced, counters, pooled))
    out.layers["trace.overhead"] = _overhead(
        [1.0 / r for r in traced.slice_rates()], [1.0 / r for r in plain.slice_rates()]
    )
    out.tracer = tracer
    return [traced, plain]


def _layer_counters(server, pool, index) -> Dict[str, float]:
    """Cumulative counters the traced slices' deltas are taken from."""
    cache = (pool.cache if pool is not None else server.planner.cache).stats()
    snap = {"cache_hits": cache["hits"], "cache_misses": cache["misses"]}
    if pool is None:
        tinv = index.target_inversion_stats()
        snap["tinv_hits"] = tinv["hits"]
        snap["tinv_misses"] = tinv["misses"]
        return snap
    for stats in pool.worker_planner_stats():
        for kernel in HL_KERNELS:
            key = f"kernel_{kernel}"
            snap[key] = snap.get(key, 0) + stats[key]
    st = pool.stats()
    for key in ("pack_s", "send_s", "compute_s", "merge_s"):
        snap[key] = st["dispatch"][key]
    for side in ("request", "reply"):
        for lane in ("pipe", "shm"):
            snap[f"{side}_{lane}_bytes"] = st[f"{side}_path"][f"{lane}_bytes"]
    snap["busy_s"] = sum(w["busy_s"] for w in st["per_worker"])
    snap["retries"] = st["resilience"]["retry"]["attempts"]
    snap["respawns"] = st["respawns"]
    snap["watchdog_timeouts"] = st["resilience"]["watchdog_timeouts"]
    return snap


def _rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _serve_layers(tracer: Tracer, session, counters: Dict[str, float], pooled: bool):
    """Layer metrics of the traced slices in ``session``.

    ``counters`` holds the cumulative counters' growth over those slices.
    """
    layers: Dict[str, float] = {}
    prefix = "pool" if pooled else "planner"
    batches = tracer.by_name(f"{prefix}.execute")
    by_id = {span[0]: span for span in batches}
    batch_of = {}
    for sid, rids in tracer.members.items():
        span = by_id.get(sid)
        if span is not None:
            for rid in rids:
                batch_of[rid] = span
    waits, delivers = [], []
    for span in tracer.by_name("server.submit"):
        batch = batch_of.get(span[5])
        if batch is not None:
            waits.append(batch[2] - span[2])
            delivers.append(span[3] - batch[3])
    wait50, wait_tail, _, _ = median_and_tail(waits)
    busy = [(s[2], s[3]) for s in batches]
    busy += [(s[2], s[3]) for s in tracer.by_name("client.gen")]
    execute = durations(batches)
    exec50, exec_tail, _, _ = median_and_tail(execute)
    layers.update(
        {
            "server.queue_wait_ms.p50": wait50 * 1e3,
            "server.queue_wait_ms.p99": wait_tail * 1e3,
            "server.deliver_ms": median_and_tail(delivers)[0] * 1e3,
            "server.mean_batch": statistics.mean(
                len(tracer.members[s[0]]) for s in batches
            ),
            "server.unattributed_s": sum(
                last - start - covered(busy, start, last)
                for start, last, _ in session.windows
            ),
            f"{prefix}.execute_ms.p50": exec50 * 1e3,
            f"{prefix}.execute_ms.p99": exec_tail * 1e3,
            "cache.hit_rate": _rate(counters["cache_hits"], counters["cache_misses"]),
            "cache.lookup_s": sum(durations(tracer.by_name("cache.lookup_many"))),
            "cache.store_s": sum(durations(tracer.by_name("cache.store_many"))),
        }
    )
    if not pooled:
        layers["planner.self_s"] = sum(execute) - child_time(tracer.spans, by_id)
        for kernel in HL_KERNELS:
            spans = tracer.by_name(f"hl.{kernel}")
            layers[f"hl.{kernel}_s"] = sum(durations(spans))
            layers[f"hl.{kernel}_calls"] = len(spans)
        layers["hl.tinv_hit_rate"] = _rate(counters["tinv_hits"], counters["tinv_misses"])
        return layers
    # Kernels run inside the worker: only their call counts cross over,
    # and its inversion memo counters do not cross at all.
    for kernel in HL_KERNELS:
        layers[f"hl.{kernel}_calls"] = counters[f"kernel_{kernel}"]
    for key in (
        "pack_s",
        "send_s",
        "compute_s",
        "merge_s",
        "request_pipe_bytes",
        "request_shm_bytes",
        "reply_pipe_bytes",
        "reply_shm_bytes",
        "retries",
        "respawns",
        "watchdog_timeouts",
    ):
        layers[f"pool.{key}"] = counters[key]
    layers["pool.dispatch_overhead_s"] = sum(execute) - counters["compute_s"]
    layers["pool.worker_busy_frac"] = counters["busy_s"] / (session.wall * POOL_WORKERS)
    return layers


# ----------------------------------------------------------------------
# paper-q
# ----------------------------------------------------------------------
PAPER_DATASET = "DE"
PAIRS_PER_BUCKET = 1500
#: Pairs one source may give a bucket, so each bucket draws on many
#: sources and a seed's sources barely move the latency median.
PAIRS_PER_SOURCE = 2
#: Q-bucket pairs whose distance and path the gate checks.
GATE_PAIRS = 1000
PAPER_SLICES = 10


def _bucket_pairs(graph, seed: int) -> List[Tuple[int, int, int]]:
    """Shuffled ``(bucket, s, t)`` pairs, :data:`PAIRS_PER_BUCKET` per Q3..Q10.

    Each :func:`generate_workloads` call runs one Dijkstra tree from a
    seeded source.  The bucket bounds come from the graph's ``lmax``,
    which does not depend on the seed.
    """
    rng = random.Random(seed)
    lmax = estimate_lmax(graph)
    per_bucket: Dict[int, list] = {b: [] for b in BUCKETS}
    # Far more sources than needed; every bucket fills long before.
    for _ in range(100 * PAIRS_PER_BUCKET // PAIRS_PER_SOURCE):
        if all(len(p) == PAIRS_PER_BUCKET for p in per_bucket.values()):
            break
        sub = generate_workloads(
            graph,
            queries_per_bucket=PAIRS_PER_SOURCE,
            seed=rng.randrange(1 << 30),
            lmax=lmax,
            max_sweeps=1,
        )
        for b, pairs in per_bucket.items():
            room = PAIRS_PER_BUCKET - len(pairs)
            pairs.extend((b, s, t) for s, t in sub.bucket(b)[:room])
    else:
        raise RuntimeError(f"{PAPER_DATASET}: Q-buckets did not fill")
    pairs = [p for b in BUCKETS for p in per_bucket[b]]
    rng.shuffle(pairs)
    return pairs


def run_paper(seed: int, seconds: float, trace: bool) -> Outcome:
    """:data:`SETUPS` rounds of set-up, then queries with boots between.

    Each round's share of ``seconds`` is cut into :data:`PAPER_SLICES`
    query slices with one AH boot after each, so the set-up, query and
    boot samples all spread over the run.
    """
    out = Outcome()
    gate = Gate()
    rng = random.Random(seed)
    setups, builds, phases, boots = [], [], [], []
    queries = blob = None
    for _ in range(SETUPS):
        graph = ah = None
        gc.collect()
        t0 = clock()
        graph = dataset(PAPER_DATASET, use_cache=False)
        t1 = clock()
        ah = AHIndex(graph)
        setups.append(clock() - t0)
        builds.append(clock() - t1)
        phases.append(dict(ah.build_times))
        if queries is None:
            queries = _Queries(_bucket_pairs(graph, seed))
            blob = bundle_bytes(ah)
        gc.collect()
        for _ in range(PAPER_SLICES):
            queries.burst(ah.distance, ah.shortest_path, seconds / SETUPS / PAPER_SLICES)
            loaded = None
            t0 = clock()
            _, loaded = load_bundle(blob, verify=True)
            boots.append(clock() - t0)
    out.metrics["setup_s"] = statistics.median(setups)
    out.metrics["build_s"] = statistics.median(builds)
    out.metrics["boot_s"] = statistics.median(boots)
    out.metrics["bundle_mb"] = len(blob) / 1e6
    out.info["graph"] = {"dataset": PAPER_DATASET, "n": graph.n, "m": graph.m}
    pairs = queries.pairs
    out.info["pairs_per_bucket"] = {
        f"q{b}": sum(1 for p in pairs if p[0] == b) for b in BUCKETS
    }
    operations = queries.report(out) + len(boots)

    if trace:
        # Traced and untraced slices of the same length alternate.
        tracer = Tracer()
        traced, plain = _Queries(pairs), _Queries(pairs)
        distance = tracer.wrap("ah.distance", ah.distance)
        path = tracer.wrap("ah.shortest_path", ah.shortest_path)
        on, off = [], []
        each = seconds / (2 * PAPER_SLICES)
        for _ in range(PAPER_SLICES):
            gc.collect()
            tracer.on = True
            on.append(traced.burst(distance, path, each))
            tracer.on = False
            off.append(plain.burst(ah.distance, ah.shortest_path, each))
        operations += 2 * (len(traced.dist) + len(plain.dist))
        out.layers["trace.overhead"] = _overhead(on, off)
        for kind, name in (("distance", "ah.distance"), ("path", "ah.shortest_path")):
            per_bucket: Dict[int, List[float]] = {b: [] for b in BUCKETS}
            for bucket, span in zip(traced.order, tracer.by_name(name)):
                per_bucket[bucket].append(span[3] - span[2])
            for b, samples in per_bucket.items():
                out.layers[f"ah.{kind}_us.q{b}"] = median_and_tail(samples)[0] * 1e6
        for phase in ("levels", "ordering", "contraction"):
            out.layers[f"ah.{phase}_s"] = statistics.median(p[phase] for p in phases)
        out.tracer = tracer

    truth: Dict[int, Dict[int, float]] = {}
    for s, t in sorted({(s, t) for _, s, t in pairs[:GATE_PAIRS]}):
        if s not in truth:
            truth[s] = dijkstra_distances(graph, s)
        d = ah.distance(s, t)
        gate.check(f"AH {s}->{t} vs Dijkstra", lambda: _close(d, truth[s].get(t, INF)))
        gate.check(f"loaded AH {s}->{t}", lambda: loaded.distance(s, t) == d)
        found = ah.shortest_path(s, t)
        gate.check(f"AH path {s}->{t}", lambda: _valid_walk(graph, found, s, t, d))
    dijkstra_sample(gate, graph, ah.distance, rng)
    return _finish(out, gate, operations, 0)


def _valid_walk(graph, found, s: int, t: int, d: float) -> bool:
    """A path that walks real edges from ``s`` to ``t`` and weighs ``d``."""
    validate_path(graph, found.nodes, s, t, expected_length=d)
    return _close(found.length, d)


WORKLOADS = {
    "build-wus": run_build,
    "serve-skewed": partial(run_serve, False),
    "serve-uniform-pool": partial(run_serve, True),
    "paper-q": run_paper,
}
