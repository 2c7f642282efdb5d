"""Perf + parity guard for the multi-process worker tier.

Three A/Bs on ``NH``, all **parity-asserted before any clocks**.

**Pool serving**: the skewed closed-loop workload of
``test_serve_speed.py`` served by a 4-worker
:class:`repro.serve.pool.WorkerPool` behind the same
:class:`~repro.serve.Server`, against the single-process server.  Pool
results must be bit-identical to the single-process results (which are
themselves pinned bit-identical to per-query engine calls).

Results go to ``BENCH_pool.json`` with environment metadata *plus the
visible CPU count* — the speedup here is hardware-gated in a way the
single-process benches are not: on a 1-CPU container N workers
time-share one core and the IPC is pure overhead, so the recorded
ratio documents the machine as much as the code.  A pool win with 4
workers is only reachable with >= 4 cores; the pytest guard therefore
asserts parity, dispatch structure and crash-free operation
unconditionally, and the timing floor only when the box has enough
cores to make it physical.

The second A/B compares the **reply transports**: the same workload
served once over shared-memory reply lanes and once over the plain
pickle-over-pipe path.  Its headline metric — bytes moved over the
reply pipes — is hardware-independent, so the >= 10x reduction bar is
a *hard* assertion in every mode (the wall-clock delta stays
CPU-gated like everything else), and the run verifies that no
``/dev/shm`` segment outlives its pool.

The third is its mirror on the dispatch side, the **request
transports**: the same workload dispatched once through the
shared-memory request rings (packed REQCOL columns + ~60 B control
frames) and once over pickled-request pipes.  Request pipe bytes are
deterministic, so the >= 10x reduction bar is hard in every mode.

``--check`` (CI, both backend legs): 2 workers, small workload, parity
+ reply/request-path byte ratios + "every worker actually served"
only — no timing.  Writes ``BENCH_pool.check.json`` so the committed
timing record is never clobbered by a CI reproduction.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from repro import backend
from repro.baselines import DistanceCache, HubLabelIndex
from repro.bench.harness import ServeRecord, environment_metadata, run_closed_loop
from repro.core.serialize import bundle_bytes
from repro.datasets import dataset
from repro.serve import WorkerPool

from test_serve_speed import build_workload, sequential_reference, workload_pairs

INF = float("inf")
DATASET = "NH"
POOL_WORKERS = 4
CLIENTS = 1000
ROUNDS = 3
REPEATS = 3


def visible_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _served_flat(per_client):
    return [result for client in per_client for result in client]


def _single_process_run(hl, scripts):
    """One cold-cache single-process served run (the PR 4 tier)."""
    seconds, per_client, stats = run_closed_loop(
        hl, scripts, cache=DistanceCache(1 << 16)
    )
    return seconds, _served_flat(per_client), stats


def _pool_run(blob, scripts, workers, reply_transport="auto",
              request_transport="auto"):
    """One cold-cache pool-served run; fresh pool (fresh shared cache)."""
    pool = WorkerPool(
        blob,
        workers=workers,
        cache=DistanceCache(1 << 16),
        reply_transport=reply_transport,
        request_transport=request_transport,
    )
    lanes = pool.lane_names()
    try:
        seconds, per_client, stats = run_closed_loop(
            None, scripts, pool=pool
        )
    finally:
        pool.close()
    _assert_no_leaked_lanes(lanes)
    return seconds, _served_flat(per_client), stats


def _assert_no_leaked_lanes(names):
    """Every lane segment (reply and request) dies with its pool."""
    from multiprocessing import shared_memory

    for name in names:
        try:
            seg = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        seg.close()
        raise AssertionError(f"lane {name} outlived its pool")


def bench_reply_path(blob, scripts, reference, requests, workers=POOL_WORKERS):
    """Pipe-vs-shm reply transport A/B on the same served workload.

    Both runs are parity-asserted against the per-query reference.  The
    headline metric is *reply bytes moved over the pipes* — a
    hardware-independent count (control frames vs pickled payload
    blobs), so the >= 10x reduction bar is asserted here, hard, in every
    mode.  Wall times are recorded for the trajectory but not asserted
    (on a 1-CPU box they measure time-sharing, not transport).
    """
    out = {}
    for transport in ("shm", "pipe"):
        seconds, flat, stats = _pool_run(
            blob, scripts, workers, reply_transport=transport
        )
        assert flat == reference, (
            f"{transport}: pool served != per-query calls"
        )
        rp = stats["pool"]["reply_path"]
        assert rp["transport"] == transport
        out[transport] = {
            "seconds": round(seconds, 5),
            "requests_per_s": round(requests / seconds, 1),
            "reply_pipe_bytes": rp["pipe_bytes"],
            "reply_shm_bytes": rp["shm_bytes"],
            "oversized_replies": rp["oversized_replies"],
        }
    ratio = out["pipe"]["reply_pipe_bytes"] / max(
        1, out["shm"]["reply_pipe_bytes"]
    )
    assert ratio >= 10.0, (
        f"shm reply path moved only {ratio:.1f}x fewer pipe bytes: {out}"
    )
    return {
        "workers": workers,
        "pipe_vs_shm_reply_pipe_byte_ratio": round(ratio, 1),
        "no_leaked_segments": True,
        "transports": out,
    }


def bench_request_path(blob, scripts, reference, requests, workers=POOL_WORKERS):
    """Pipe-vs-shm *request* transport A/B — the PR 9 symmetric leg.

    Same contract as :func:`bench_reply_path`, pointed at the dispatch
    side: request bytes over the pipes (control frames vs pickled
    ``List[Request]`` batches) are deterministic, so the >= 10x
    reduction bar is hard in every mode.  Both runs are parity-asserted
    against the per-query reference first.
    """
    out = {}
    for transport in ("shm", "pipe"):
        seconds, flat, stats = _pool_run(
            blob, scripts, workers, request_transport=transport
        )
        assert flat == reference, (
            f"request {transport}: pool served != per-query calls"
        )
        rp = stats["pool"]["request_path"]
        assert rp["transport"] == transport
        assert rp["crc_failures"] == 0
        out[transport] = {
            "seconds": round(seconds, 5),
            "requests_per_s": round(requests / seconds, 1),
            "request_pipe_bytes": rp["pipe_bytes"],
            "request_shm_bytes": rp["shm_bytes"],
            "oversized_batches": rp["oversized_batches"],
            "pickled_batches": rp["pickled_batches"],
        }
    assert out["shm"]["pickled_batches"] == 0, out  # everything packed
    ratio = out["pipe"]["request_pipe_bytes"] / max(
        1, out["shm"]["request_pipe_bytes"]
    )
    assert ratio >= 10.0, (
        f"shm request path moved only {ratio:.1f}x fewer pipe bytes: {out}"
    )
    return {
        "workers": workers,
        "pipe_vs_shm_request_pipe_byte_ratio": round(ratio, 1),
        "no_leaked_segments": True,
        "transports": out,
    }


def bench_serving(hl, blob, scripts, reference, requests, workers=POOL_WORKERS):
    """Pool vs single-process closed loop, best-of-``REPEATS`` each."""
    single_s = INF
    single_stats = None
    for _ in range(REPEATS):
        seconds, flat, stats = _single_process_run(hl, scripts)
        assert flat == reference, "single-process served != per-query calls"
        if seconds < single_s:
            single_s, single_stats = seconds, stats

    pool_s = INF
    pool_stats = None
    for _ in range(REPEATS):
        seconds, flat, stats = _pool_run(blob, scripts, workers)
        assert flat == reference, "pool served != per-query calls"
        if seconds < pool_s:
            pool_s, pool_stats = seconds, stats

    record = ServeRecord(
        engine=hl.name,
        dataset=DATASET,
        clients=len(scripts),
        requests=requests,
        seconds=round(pool_s, 5),
        requests_per_s=round(requests / pool_s, 1),
        batches=pool_stats["batches"],
        mean_batch_size=pool_stats["mean_batch_size"],
        cache_hit_rate=round(pool_stats["pool"]["cache"]["hit_rate"], 4),
    )
    tier = pool_stats["pool"]
    return {
        "workers": workers,
        "single_process_s": round(single_s, 5),
        "single_process_req_per_s": round(requests / single_s, 1),
        "pool_s": round(pool_s, 5),
        "pool_req_per_s": round(requests / pool_s, 1),
        "pool_vs_single_speedup": round(single_s / pool_s, 3),
        "single_mean_batch": single_stats["mean_batch_size"],
        "pool_mean_batch": pool_stats["mean_batch_size"],
        "dispatch": {
            "dispatches": tier["dispatches"],
            "mean_imbalance": tier["mean_dispatch_imbalance"],
            "transport": tier["transport"],
            "per_worker_batches": [w["batches"] for w in tier["per_worker"]],
            "per_worker_busy_s": [w["busy_s"] for w in tier["per_worker"]],
        },
        "record": asdict(record),
    }


def build_and_verify(clients=CLIENTS, rounds=ROUNDS):
    graph = dataset(DATASET)
    hl = HubLabelIndex(graph)
    blob = bundle_bytes(hl)
    scripts = build_workload(graph, clients=clients, rounds=rounds)
    reference = sequential_reference(hl, scripts)
    result = {
        "dataset": DATASET,
        "n": graph.n,
        "m": graph.m,
        "environment": environment_metadata(),
        "visible_cpus": visible_cpus(),
        "bundle_bytes": len(blob),  # compact (HL2) — what workers boot from
        "bundle_bytes_flat": len(bundle_bytes(hl, compact=False)),
        "workload": {
            "clients": clients,
            "requests": clients * rounds,
            "underlying_pairs": workload_pairs(scripts),
            "shape": "ISSUE-4 skewed closed loop (75% one-to-many to hot "
            "order pools, pareto endpoints)",
        },
    }
    return hl, blob, scripts, reference, clients * rounds, result


def run_benchmark():
    hl, blob, scripts, reference, requests, result = build_and_verify()
    cpus = visible_cpus()
    backends = {}
    names = (["numpy"] if backend.HAS_NUMPY else []) + ["pure"]
    for name in names:
        with backend.forced(name):
            backends[backend.active()] = bench_serving(
                hl, blob, scripts, reference, requests
            )
    reply = bench_reply_path(blob, scripts, reference, requests)
    request = bench_request_path(blob, scripts, reference, requests)
    headline = {
        "note": "pool = Server over a %d-worker WorkerPool (bundle-booted "
        "replicas, group-preserving dispatch, shared dispatcher cache); "
        "single = the one-process Server.  Parity asserted before "
        "every clock.  The speedup is hardware-gated: this box exposes "
        "%d CPU(s); with fewer CPUs than workers the workers time-share "
        "and the recorded ratio is the cost of the IPC, not a multicore "
        "result." % (POOL_WORKERS, cpus),
        "visible_cpus": cpus,
        "reply_pipe_byte_reduction": reply["pipe_vs_shm_reply_pipe_byte_ratio"],
        "request_pipe_byte_reduction": request[
            "pipe_vs_shm_request_pipe_byte_ratio"
        ],
    }
    for name, rec in backends.items():
        headline[f"{name}_pool_vs_single"] = rec["pool_vs_single_speedup"]
        headline[f"{name}_pool_req_per_s"] = rec["pool_req_per_s"]
    result.update(
        {
            "method": "closed-loop, best-of-%d per side, cold cache and "
            "fresh pool per served repeat, backends A/B'd in one process; "
            "reply and request transports A/B'd on the identical "
            "workload" % REPEATS,
            "headline": headline,
            "serving": backends,
            "reply_path": reply,
            "request_path": request,
        }
    )
    return result


def run_check(workers=2):
    """CI mode: parity + structure only — no timing, no flake."""
    hl, blob, scripts, reference, requests, result = build_and_verify(
        clients=200, rounds=2
    )
    checks = {}
    names = (["numpy"] if backend.HAS_NUMPY else []) + ["pure"]
    for name in names:
        with backend.forced(name):
            _, flat, stats = _pool_run(blob, scripts, workers)
            assert flat == reference, f"{name}: pool served != per-query calls"
            tier = stats["pool"]
            per_worker = [w["batches"] for w in tier["per_worker"]]
            assert all(b > 0 for b in per_worker), (
                f"{name}: a worker served nothing: {per_worker}"
            )
            assert stats["worker_failed"] == 0, stats
            checks[backend.active()] = {
                "parity": "bit-identical to per-query distance() calls",
                "requests": requests,
                "workers": workers,
                "per_worker_batches": per_worker,
                "mean_dispatch_imbalance": tier["mean_dispatch_imbalance"],
                "respawns": tier["respawns"],
            }
    # Transport A/Bs: parity + the hard >= 10x pipe-byte bars on both
    # sides (byte counts are deterministic, so check mode gates them
    # too).
    result["reply_path"] = bench_reply_path(
        blob, scripts, reference, requests, workers=workers
    )
    result["request_path"] = bench_request_path(
        blob, scripts, reference, requests, workers=workers
    )
    result["mode"] = (
        "check (parity + structure + reply/request-path byte ratios; "
        "timings omitted)"
    )
    result["serving"] = checks
    return result


def write_json(result, path=None):
    if path is None:
        name = "BENCH_pool.check.json" if "mode" in result else "BENCH_pool.json"
        path = Path(__file__).resolve().parent.parent / name
    Path(path).write_text(json.dumps(result, indent=2) + "\n")
    return path


# ----------------------------------------------------------------------
# Pytest guard
# ----------------------------------------------------------------------
def test_pool_speed():
    """Pool tier: exactness and structure always; timing only when physical.

    Parity (pool == single-process == per-query) gates
    unconditionally.  The timing floor applies only on boxes with >= 4
    visible CPUs, where the pool ratio means something; on smaller
    boxes the run still records the honest numbers to BENCH_pool.json's
    shape without asserting them.
    """
    result = run_benchmark()
    for rec in result["serving"].values():
        assert rec["dispatch"]["dispatches"] > 0
        assert all(b > 0 for b in rec["dispatch"]["per_worker_batches"]), rec
    # PR 6 + PR 9: bytes-moved is hardware-independent — always hard.
    reply = result["reply_path"]
    assert reply["pipe_vs_shm_reply_pipe_byte_ratio"] >= 10.0, reply
    assert reply["no_leaked_segments"]
    request = result["request_path"]
    assert request["pipe_vs_shm_request_pipe_byte_ratio"] >= 10.0, request
    assert request["no_leaked_segments"]
    if result["visible_cpus"] >= POOL_WORKERS:
        # Deliberately conservative floors (the committed BENCH_pool.json
        # carries the real quiet-machine numbers).
        if backend.HAS_NUMPY:
            assert result["serving"]["numpy"]["pool_vs_single_speedup"] >= 1.5


if __name__ == "__main__":
    if "--check" in sys.argv[1:]:
        res = run_check()
    else:
        res = run_benchmark()
    out = write_json(res)
    print(json.dumps(res, indent=2))
    print(f"\nwrote {out}")
