"""Chaos suite for the resilience layer (PR 8).

The contract under test, end to end: **under every scripted fault
schedule, every answered request is bit-identical to the direct
``QueryPlanner`` path, and every unanswerable request fails with a
typed error — never a hang, never a wrong answer, never a leaked
process or ``/dev/shm`` segment.**

Layers:

* ``FaultPlan`` / backoff / breaker unit behaviour (no processes);
* single-fault episodes — kill, stall (watchdog ``WorkerStalled``),
  corrupted and truncated reply lanes (``ReplyCorrupted`` + retry),
  and their PR-9 request-side mirrors (``RequestCorrupted`` + a clean
  pickled retry) — each healing to planner-exact answers;
* hedged re-dispatch first-answer-wins with bit-parity between the
  duplicate answers;
* breaker quarantine -> single-process planner fallback -> recovery;
* torn / bit-flipped bundle files -> ``BundleCorrupted``;
* hypothesis-driven random schedules on both backends, asserting the
  full contract plus leak-freedom after ``close()``.
"""

import os
import signal
import time
import warnings
from multiprocessing import shared_memory

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import backend
from repro.baselines import HubLabelIndex
from repro.baselines.base import (
    DistanceRequest,
    OneToManyRequest,
    QueryPlanner,
    TableRequest,
)
from repro.core.serialize import BundleCorrupted, bundle_bytes, load_bundle
from repro.datasets import grid_city
from repro.serve import (
    BackoffPolicy,
    CircuitBreaker,
    FaultPlan,
    HedgeMismatch,
    ReplyCorrupted,
    RequestCorrupted,
    WorkerCrashed,
    WorkerPool,
    WorkerStalled,
)
from repro.serve import faults

#: Backends the chaos properties run under (both when numpy exists).
BACKENDS = (["numpy"] if backend.HAS_NUMPY else []) + ["pure"]


@pytest.fixture(scope="module")
def graph():
    return grid_city(6, 6, seed=8)


@pytest.fixture(scope="module")
def hl(graph):
    return HubLabelIndex(graph)


@pytest.fixture(scope="module")
def blob(hl):
    return bundle_bytes(hl)


@pytest.fixture(scope="module")
def reqs(graph):
    n = graph.n
    return [DistanceRequest(i, n - 1 - i) for i in range(10)] + [
        OneToManyRequest(3, (1, 5, 9, 3)),
        TableRequest((0, 7), (11, 2, 30)),
    ]


@pytest.fixture(scope="module")
def want(hl, reqs):
    return QueryPlanner(hl).execute(reqs)


def _shm_names(pool):
    return pool.lane_names()  # reply AND request segments


def _assert_no_leaks(pool, shm_names):
    """After close(): every worker process dead, every segment unlinked."""
    for h in pool.handles:
        assert h.process is None or not h.process.is_alive()
    for name in shm_names:
        with pytest.raises(FileNotFoundError):
            seg = shared_memory.SharedMemory(name=name)
            seg.close()  # pragma: no cover - only reached on a leak


def _load_quietly(source, **kwargs):
    """load_bundle with the CRC-less legacy warning silenced (torn files
    lose their trailer, so the legacy path may fire it first)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return load_bundle(source, **kwargs)


# ----------------------------------------------------------------------
# FaultPlan unit behaviour
# ----------------------------------------------------------------------
def test_fault_plan_is_deterministic_and_consumed_once():
    a = FaultPlan.random(7, dispatches=4, slots=3, rate=0.5)
    b = FaultPlan.random(7, dispatches=4, slots=3, rate=0.5)
    assert a.pending() == b.pending()  # same seed, same outage
    assert len(a) > 0
    key = next(iter(a.pending()))
    action = a.take(*key)
    assert action is not None and a.take(*key) is None  # consumed once
    assert a.injected == 1
    assert len(a) == len(b) - 1
    assert a.take(99, 99) is None and a.injected == 1  # miss doesn't count


def test_fault_plan_random_seed_changes_schedule():
    schedules = {
        tuple(sorted(FaultPlan.random(s, dispatches=6, slots=4).pending()))
        for s in range(8)
    }
    assert len(schedules) > 1  # the seed actually steers the outage


def test_fault_plan_validates_schedules():
    with pytest.raises(ValueError):
        FaultPlan({(0, 0): {"kind": "meteor-strike"}})
    with pytest.raises(ValueError):
        FaultPlan({(-1, 0): faults.kill()})
    with pytest.raises(ValueError):
        faults.stall(-1.0)
    with pytest.raises(ValueError):
        faults.truncate(0)
    with pytest.raises(ValueError):
        FaultPlan.random(1, dispatches=2, slots=2, rate=1.5)
    with pytest.raises(ValueError):
        FaultPlan.random(1, dispatches=2, slots=2, kinds=("gremlin",))


def test_apply_reply_damages_after_crc():
    blob = bytes(range(32))
    flipped = faults.apply_reply(faults.corrupt(offset=4), blob)
    assert flipped[4] == blob[4] ^ 0xFF and len(flipped) == len(blob)
    assert flipped[:4] == blob[:4] and flipped[5:] == blob[5:]
    short = faults.apply_reply(faults.truncate(drop=8), blob)
    assert short == blob[:-8]
    # stall/kill are pre-compute actions: reply passes through untouched
    assert faults.apply_reply(faults.stall(0.0), blob) == blob


def test_apply_request_mirrors_apply_reply():
    blob = bytes(range(32))
    flipped = faults.apply_request(faults.req_corrupt(offset=4), blob)
    assert flipped[4] == blob[4] ^ 0xFF and len(flipped) == len(blob)
    short = faults.apply_request(faults.req_truncate(drop=8), blob)
    assert short == blob[:-8]
    # reply-side kinds pass through the request applier untouched
    assert faults.apply_request(faults.corrupt(), blob) == blob
    assert faults.is_request_fault(faults.req_corrupt())
    assert not faults.is_request_fault(faults.corrupt())
    with pytest.raises(ValueError):
        faults.req_truncate(0)


# ----------------------------------------------------------------------
# Backoff / breaker unit behaviour (injected clock — no sleeping)
# ----------------------------------------------------------------------
def test_backoff_is_deterministic_capped_and_first_retry_free():
    p = BackoffPolicy(base_s=0.02, cap_s=0.5, jitter_frac=0.25)
    assert p.delay(0, 0) == 0.0  # first retry is free
    assert p.delay(1, 1) == p.delay(1, 1)  # no RNG state
    assert p.delay(1, 1) != p.delay(2, 1)  # jitter spreads across slots
    for attempt in range(1, 12):
        assert 0.0 < p.delay(0, attempt) <= 0.5 * 1.25  # capped
    with pytest.raises(ValueError):
        BackoffPolicy(jitter_frac=2.0)


def test_breaker_lifecycle_quarantine_halfopen_recovery():
    now = [0.0]
    b = CircuitBreaker(2, threshold=3, cooldown_s=1.0, clock=lambda: now[0])
    for _ in range(2):
        b.record_failure(0)
    assert b.allow(0)  # below threshold
    b.record_failure(0)
    assert not b.allow(0) and b.open_slots() == [0]
    assert b.allow(1)  # per-slot isolation
    now[0] = 1.5  # cooldown elapsed -> half-open probe allowed
    assert b.allow(0)
    b.record_failure(0)  # probe fails -> re-open, doubled cooldown
    assert not b.allow(0)
    now[0] = 2.5  # only 1.0s elapsed of the doubled 2.0s cooldown
    assert not b.allow(0)
    now[0] = 4.0
    assert b.allow(0)
    b.record_success(0)  # probe succeeds -> closed, counters reset
    assert b.allow(0) and b.open_slots() == []
    snap = b.snapshot()
    assert snap[0]["state"] == "closed" and snap[0]["trips"] == 2


def test_breaker_consecutive_counting_resets_on_success():
    b = CircuitBreaker(1, threshold=3, clock=lambda: 0.0)
    for _ in range(10):  # fail, fail, succeed, forever: never trips
        b.record_failure(0)
        b.record_failure(0)
        b.record_success(0)
    assert b.allow(0) and b.snapshot()[0]["trips"] == 0


# ----------------------------------------------------------------------
# Single-fault episodes: each kind injected, detected, healed
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "action",
    [
        faults.kill(),
        faults.corrupt(),
        faults.truncate(),
        faults.req_corrupt(),
        faults.req_truncate(),
    ],
    ids=["kill", "corrupt", "truncate", "req_corrupt", "req_truncate"],
)
def test_injected_fault_heals_via_retry(blob, reqs, want, action):
    plan = FaultPlan.scripted({(0, 0): dict(action)})
    with WorkerPool(blob, workers=2, fault_plan=plan) as pool:
        shm = _shm_names(pool)
        assert pool.execute(reqs) == want  # healed, planner-exact
        assert plan.injected == 1 and len(plan) == 0
        res = pool.stats()["resilience"]
        assert res["retry"]["attempts"] >= 1
        if action["kind"] in ("corrupt", "truncate"):
            assert pool.stats()["reply_path"]["crc_failures"] >= 1
        elif action["kind"].startswith("req_"):
            assert pool.stats()["request_path"]["crc_failures"] >= 1
            assert pool.stats()["reply_path"]["crc_failures"] == 0
        assert pool.execute(reqs) == want  # pool fully consistent after
    _assert_no_leaks(pool, shm)


def test_stall_trips_watchdog_and_heals(blob, reqs, want):
    plan = FaultPlan.scripted({(0, 0): faults.stall(1.0)})
    with WorkerPool(
        blob, workers=2, recv_timeout_s=0.2, fault_plan=plan
    ) as pool:
        assert pool.execute(reqs) == want  # retried clean after expiry
        assert pool.stats()["resilience"]["watchdog_timeouts"] >= 1


def test_exhausted_stall_fails_typed_as_worker_stalled(blob, hl):
    plan = FaultPlan.scripted({(0, 0): faults.stall(5.0)})
    with WorkerPool(
        blob, workers=1, max_retries=0, recv_timeout_s=0.2, fault_plan=plan
    ) as pool:
        with pytest.raises(WorkerStalled):
            pool.execute([DistanceRequest(0, 1)])
        # the slot came back live: the next dispatch is served exactly
        direct = QueryPlanner(hl).execute([DistanceRequest(0, 1)])
        assert pool.execute([DistanceRequest(0, 1)]) == direct


def test_failure_types_are_worker_crashed_subclasses():
    assert issubclass(WorkerStalled, WorkerCrashed)
    assert issubclass(ReplyCorrupted, WorkerCrashed)
    assert issubclass(HedgeMismatch, WorkerCrashed)
    # the request-side mirror heals through the same retry machinery
    assert issubclass(RequestCorrupted, ReplyCorrupted)


def test_sigstopped_worker_is_detected_and_replaced(blob, reqs, want):
    """A real SIGSTOP (not a scripted sleep): stalled-but-alive, the
    case EOF detection can never see — only the recv watchdog can."""
    with WorkerPool(blob, workers=2, recv_timeout_s=0.3) as pool:
        victim = pool.handles[0].pid
        os.kill(victim, signal.SIGSTOP)
        try:
            assert pool.execute(reqs) == want
        finally:
            try:
                os.kill(victim, signal.SIGCONT)
            except ProcessLookupError:
                pass
        assert pool.stats()["resilience"]["watchdog_timeouts"] >= 1
        assert pool.handles[0].pid != victim  # replaced, not waited on


def test_corrupt_reply_is_typed_when_retries_exhausted(blob):
    plan = FaultPlan.scripted(
        {(0, 0): faults.corrupt(), (1, 0): faults.corrupt()}
    )
    with WorkerPool(blob, workers=1, max_retries=0, fault_plan=plan) as pool:
        with pytest.raises(ReplyCorrupted):
            pool.execute([DistanceRequest(0, 1)])
        assert pool.stats()["reply_path"]["crc_failures"] >= 1


def test_corrupt_request_is_typed_when_retries_exhausted(blob, hl):
    plan = FaultPlan.scripted({(0, 0): faults.req_corrupt()})
    with WorkerPool(blob, workers=1, max_retries=0, fault_plan=plan) as pool:
        with pytest.raises(RequestCorrupted):
            pool.execute([DistanceRequest(0, 1)])
        stats = pool.stats()
        assert stats["request_path"]["crc_failures"] >= 1
        assert stats["reply_path"]["crc_failures"] == 0  # that check never ran
        # the worker kept serving: the very next dispatch is exact
        direct = QueryPlanner(hl).execute([DistanceRequest(0, 1)])
        assert pool.execute([DistanceRequest(0, 1)]) == direct


def test_request_fault_is_noop_on_pickled_path(blob, reqs, want):
    """No packed payload to damage on the pipe transport — documented."""
    plan = FaultPlan.scripted({(0, 0): faults.req_corrupt()})
    with WorkerPool(
        blob, workers=2, request_transport="pipe", fault_plan=plan
    ) as pool:
        assert pool.execute(reqs) == want
        assert plan.injected == 1  # consumed, even though harmless
        assert pool.stats()["request_path"]["crc_failures"] == 0
        assert pool.stats()["resilience"]["retry"]["attempts"] == 0


# ----------------------------------------------------------------------
# Hedging: first answer wins, duplicates bit-compared
# ----------------------------------------------------------------------
def test_hedge_first_answer_wins_with_parity(blob, hl):
    reqs = [DistanceRequest(i, 35 - i) for i in range(8)]
    want = QueryPlanner(hl).execute(reqs)
    # Stall slot 1: slot 0 finishes its own sub-batch, goes idle, and
    # picks up the hedge for the straggler.  First-answer-wins means
    # the batch returns without waiting out the stall; the losing
    # duplicate is drained — and bit-compared against the winner — by
    # a later dispatch's sweep, inside the grace window.
    plan = FaultPlan.scripted({(0, 1): faults.stall(0.4)})
    with WorkerPool(
        blob,
        workers=2,
        hedge_after_s=0.05,
        hedge_grace_s=5.0,
        recv_timeout_s=10.0,
        fault_plan=plan,
    ) as pool:
        t0 = time.monotonic()
        assert pool.execute(reqs) == want
        latency = time.monotonic() - t0
        assert latency < 0.35, latency  # did NOT wait out the 0.4s stall
        h = pool.stats()["resilience"]["hedge"]
        assert h["hedges"] >= 1 and h["wins"] >= 1
        assert h["draining"] == 1  # the loser is still in flight
        time.sleep(0.5)  # let the stalled duplicate finish, within grace
        assert pool.execute(reqs) == want  # sweep drains + bit-compares
        h = pool.stats()["resilience"]["hedge"]
        assert h["parity_checks"] >= 1 and h["draining"] == 0
        assert h["mismatches"] == 0
        assert pool.execute(reqs) == want  # no desync afterwards


def test_hedge_off_by_default(blob, reqs, want):
    with WorkerPool(blob, workers=2) as pool:
        assert pool.hedge_after_s is None
        assert pool.execute(reqs) == want
        assert pool.stats()["resilience"]["hedge"]["hedges"] == 0


# ----------------------------------------------------------------------
# Breaker quarantine -> degraded single-process fallback -> recovery
# ----------------------------------------------------------------------
def test_all_quarantined_degrades_to_planner_fallback(blob, reqs, want):
    now = [0.0]
    breaker = CircuitBreaker(
        2,
        threshold=1,
        cooldown_s=3600.0,
        cooldown_cap_s=7200.0,
        clock=lambda: now[0],
    )
    with WorkerPool(blob, workers=2, max_retries=0, breaker=breaker) as pool:
        for slot in range(2):
            breaker.record_failure(slot)  # quarantine everyone
        assert breaker.open_slots() == [0, 1]
        assert pool.execute(reqs) == want  # degraded mode, still exact
        res = pool.stats()["resilience"]["breaker"]
        assert res["fallback_batches"] >= 1
        assert res["quarantine_skips"] >= 2
        # cooldown elapses -> half-open probes -> workers serve again
        now[0] = 7200.0
        assert pool.execute(reqs) == want
        per_slot = pool.stats()["resilience"]["breaker"]["per_slot"]
        assert per_slot[0]["state"] == "closed"
        assert per_slot[1]["state"] == "closed"


def test_repeated_crashes_trip_the_breaker(blob, hl):
    plan = FaultPlan.scripted({(d, 0): faults.kill() for d in range(6)})
    now = [0.0]
    breaker = CircuitBreaker(
        1,
        threshold=2,
        cooldown_s=3600.0,
        cooldown_cap_s=7200.0,
        clock=lambda: now[0],
    )
    with WorkerPool(
        blob, workers=1, max_retries=0, breaker=breaker, fault_plan=plan
    ) as pool:
        for _ in range(2):
            with pytest.raises(WorkerCrashed):
                pool.execute([DistanceRequest(0, 1)])
        assert breaker.open_slots() == [0]
        # quarantined: the batch is answered by the planner fallback,
        # bit-identical to the direct path
        direct = QueryPlanner(hl).execute([DistanceRequest(0, 1)])
        assert pool.execute([DistanceRequest(0, 1)]) == direct
        assert pool.stats()["resilience"]["breaker"]["fallback_batches"] >= 1


# ----------------------------------------------------------------------
# Torn / bit-flipped bundles
# ----------------------------------------------------------------------
def test_torn_bundle_raises_bundle_corrupted(tmp_path, blob):
    path = str(tmp_path / "ok.bundle")
    with open(path, "wb") as fh:
        fh.write(blob)
    torn = faults.torn_copy(path, str(tmp_path / "torn.bundle"))
    with pytest.raises(BundleCorrupted):
        _load_quietly(torn)
    # the pristine original still loads
    load_bundle(path)


def test_flipped_bundle_names_the_failing_section(tmp_path, blob):
    path = str(tmp_path / "ok.bundle")
    with open(path, "wb") as fh:
        fh.write(blob)
    flip = faults.flipped_copy(path, str(tmp_path / "flip.bundle"))
    with pytest.raises(BundleCorrupted) as exc_info:
        load_bundle(flip)
    assert exc_info.value.section in ("GCSR1", "HLIDX1", "HLIDX2", "AHIDX1")
    assert "CRC mismatch" in exc_info.value.detail
    # bytes and mmap sources fail identically
    with open(flip, "rb") as fh:
        damaged = fh.read()
    with pytest.raises(BundleCorrupted):
        load_bundle(damaged)
    with pytest.raises(BundleCorrupted):
        load_bundle(flip, mmap=True)


def test_worker_boot_from_damaged_bundle_fails_typed(tmp_path, blob):
    path = str(tmp_path / "ok.bundle")
    with open(path, "wb") as fh:
        fh.write(blob)
    flip = faults.flipped_copy(path, str(tmp_path / "flip.bundle"))
    # the worker's boot error surfaces in the parent at spawn time,
    # typed — not as a hang, not as a generic crash
    with pytest.raises(BundleCorrupted):
        WorkerPool(flip, workers=1)


# ----------------------------------------------------------------------
# Hypothesis chaos: random schedules, both backends, full contract
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", BACKENDS)
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_chaos_schedule_full_contract(graph, hl, blob, name, seed):
    """Random schedules over every fault kind (kill/stall, reply and
    request corrupt/truncate): survivors bit-exact, casualties typed,
    pool consistent, nothing leaked."""
    node = graph.n - 1
    reqs = [DistanceRequest(i % graph.n, node - i % graph.n) for i in range(9)]
    reqs += [OneToManyRequest(seed % graph.n, (0, 5, node))]
    plan = FaultPlan.random(
        seed, dispatches=3, slots=2, rate=0.4, stall_s=0.4
    )
    scheduled = len(plan)
    with backend.forced(name):
        want = QueryPlanner(hl).execute(reqs)
        pool = WorkerPool(
            blob,
            workers=2,
            backend_name=name,
            recv_timeout_s=0.25,
            fault_plan=plan,
        )
        try:
            shm = _shm_names(pool)
            for _ in range(3):
                out = pool.execute(reqs, return_exceptions=True)
                for got, expect in zip(out, want):
                    if isinstance(got, BaseException):
                        assert isinstance(got, WorkerCrashed)  # typed, never raw
                    else:
                        assert got == expect  # bit-parity of survivors
            # consumed-once accounting adds up
            assert plan.injected + len(plan) == scheduled
            # the pool stays fully serviceable after the outage
            assert pool.execute(reqs) == want
            assert all(h.process.is_alive() for h in pool.handles)
        finally:
            pool.close()
        _assert_no_leaks(pool, shm)


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_request_chaos_never_wrong_answer(graph, hl, blob, seed):
    """Random request-lane damage: every answer exact or typed, never
    silently wrong, and the lane keeps serving after every heal."""
    node = graph.n - 1
    reqs = [DistanceRequest(i % graph.n, node - i % graph.n) for i in range(9)]
    reqs += [TableRequest((seed % graph.n, 7), (2, node))]
    plan = FaultPlan.random(
        seed,
        dispatches=3,
        slots=2,
        rate=0.6,
        kinds=("req_corrupt", "req_truncate"),
    )
    scheduled = len(plan)
    want = QueryPlanner(hl).execute(reqs)
    pool = WorkerPool(blob, workers=2, recv_timeout_s=0.25, fault_plan=plan)
    try:
        shm = _shm_names(pool)
        for _ in range(3):
            out = pool.execute(reqs, return_exceptions=True)
            for got, expect in zip(out, want):
                if isinstance(got, BaseException):
                    assert isinstance(got, WorkerCrashed)  # typed, never raw
                else:
                    assert got == expect  # bit-parity of survivors
        assert plan.injected + len(plan) == scheduled
        assert pool.execute(reqs) == want  # fully healed
        stats = pool.stats()["request_path"]
        assert stats["transport"] == "shm"
        assert stats["crc_failures"] <= plan.injected
    finally:
        pool.close()
    _assert_no_leaks(pool, shm)
