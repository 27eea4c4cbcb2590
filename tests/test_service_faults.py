"""Chaos suite for the fault-tolerant evaluation service.

Every recovery path the service claims is proven here against real
injected faults (`repro.service.faults`): client deadlines against hung
and delayed servers, retry/backoff absorbing dropped replies, bounded
admission shedding bursts with a ``retry_after`` contract, worker-crash
pool rebuilds under a restart budget (and the degrade-to-serial
endgame), torn disk-cache tails repaired on reload, and — the
end-to-end acceptance — ``campaign run --via-service`` producing a
byte-identical store under faults, including failing mid-run and
resuming.
"""

from __future__ import annotations

import contextlib
import random
import socket
import threading
import time

import pytest

from repro.campaign import ResultStore, get_preset, run_campaign
from repro.evaluate import TaskFailure, evaluate
from repro.exceptions import (
    CampaignError,
    ServiceError,
    ServiceOverloaded,
    ServiceTimeout,
    ServiceUnavailable,
)
from repro.mapping.examples import single_communication
from repro.service import (
    CoalescingQueue,
    DiskScoreCache,
    EvaluationEngine,
    FaultInjector,
    RetryPolicy,
    ServiceClient,
    serve_in_thread,
    wait_for_service,
)

from test_service import pattern_task, smoke_tasks


@contextlib.contextmanager
def served(engine: EvaluationEngine, **kwargs):
    """A running server around ``engine``; yields the server."""
    server, thread = serve_in_thread(engine, **kwargs)
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        engine.close()
        thread.join(timeout=5)


@contextlib.contextmanager
def silent_listener():
    """A TCP endpoint that accepts connections but never says a word.

    The pathological peer of the deadline tests: a half-started or
    wedged server whose accept queue works while its handlers don't.
    """
    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen(8)
    srv.settimeout(0.05)
    stop = threading.Event()
    conns: list[socket.socket] = []

    def run() -> None:
        while not stop.is_set():
            try:
                conn, _ = srv.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            conns.append(conn)  # read nothing, reply nothing

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        yield srv.getsockname()
    finally:
        stop.set()
        thread.join(timeout=5)
        for conn in conns:
            conn.close()
        srv.close()


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_deterministic_backoff_schedule(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=2.0, max_delay=1.0, jitter=0.25
        )
        a = [policy.delay(k, rng=random.Random(7)) for k in range(4)]
        b = [policy.delay(k, rng=random.Random(7)) for k in range(4)]
        assert a == b  # same seed, same schedule
        # Exponential growth inside the jitter envelope, capped at max.
        for k, d in enumerate(a):
            base = min(1.0, 0.1 * 2.0**k)
            assert 0.75 * base <= d <= 1.25 * base

    def test_retry_after_is_a_floor(self):
        policy = RetryPolicy(base_delay=0.01, jitter=0.0)
        assert policy.delay(0) == 0.01
        assert policy.delay(0, retry_after=0.5) == 0.5

    def test_max_delay_caps_backoff(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.4, jitter=0.0)
        assert policy.delay(10) == 0.4

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="delays"):
            RetryPolicy(base_delay=-1.0)


# ----------------------------------------------------------------------
# FaultInjector
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_counted_budget(self):
        inj = FaultInjector({"drop": 2})
        assert inj.take("drop") and inj.take("drop")
        assert not inj.take("drop")  # budget spent
        assert not inj.take("crash")  # never armed
        assert inj.fired == {
            "drop": 2, "delay": 0, "crash": 0, "torn_tail": 0,
        }
        assert inj.stats()["armed"] == {}

    def test_spec_parsing(self):
        inj = FaultInjector.from_spec("drop:2, crash:1, delay:3:0.5")
        assert inj.armed("drop") == 2
        assert inj.armed("crash") == 1
        assert inj.armed("delay") == 3
        assert inj.delay_s == 0.5
        with pytest.raises(ServiceError, match="unknown fault kind"):
            FaultInjector.from_spec("meteor:1")
        with pytest.raises(ServiceError, match="fault spec"):
            FaultInjector.from_spec("drop")
        with pytest.raises(ServiceError, match="third SECONDS field"):
            FaultInjector.from_spec("drop:1:0.5")
        with pytest.raises(ServiceError, match="count"):
            FaultInjector.from_spec("drop:many")

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert FaultInjector.from_env() is None
        monkeypatch.setenv("REPRO_FAULTS", "drop:1")
        assert FaultInjector.from_env().armed("drop") == 1

    def test_tear_cache_tail_halves_the_final_record(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b'{"fingerprint": "aa", "value": 1.0}\n'
                         b'{"fingerprint": "bb", "value": 2.0}\n')
        assert FaultInjector().tear_cache_tail(path)
        raw = path.read_bytes()
        assert raw.startswith(b'{"fingerprint": "aa", "value": 1.0}\n')
        assert not raw.endswith(b"\n")  # the tail is mid-record
        # The crash-safe loader drops exactly the torn record.
        cache = DiskScoreCache(path)
        assert len(cache) == 1
        assert cache.dropped_lines == 1
        # Nothing to tear on an empty file.
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        assert not FaultInjector().tear_cache_tail(empty)
        assert not FaultInjector().tear_cache_tail(tmp_path / "missing")


class TestFaultSpecValidation:
    """Spec-parse validation: bad clauses fail loudly, naming themselves."""

    def test_zero_count_rejected_naming_clause(self):
        with pytest.raises(ServiceError, match=r"drop:0.*count"):
            FaultInjector.from_spec("drop:0")

    def test_negative_count_rejected_naming_clause(self):
        with pytest.raises(ServiceError, match=r"crash:-2.*count"):
            FaultInjector.from_spec("drop:1, crash:-2")

    def test_negative_seconds_rejected_naming_clause(self):
        with pytest.raises(ServiceError, match=r"delay:1:-0\.5"):
            FaultInjector.from_spec("delay:1:-0.5")

    def test_nan_seconds_rejected(self):
        with pytest.raises(ServiceError, match="seconds"):
            FaultInjector.from_spec("delay:1:nan")

    def test_non_numeric_seconds_rejected(self):
        with pytest.raises(ServiceError, match="seconds"):
            FaultInjector.from_spec("delay:1:soon")


# ----------------------------------------------------------------------
# Coalescing queue under failure (satellite regression)
# ----------------------------------------------------------------------
class TestQueueFailureDiscipline:
    def test_resolve_is_idempotent(self):
        queue = CoalescingQueue()
        fut, _ = queue.claim("k")
        queue.resolve("k", fut, 1.0)
        queue.resolve("k", fut, 2.0)  # the failure sweep re-resolving
        assert fut.result(timeout=1) == 1.0  # first resolution wins
        assert queue.in_flight() == 0

    def test_leader_exception_frees_all_followers(self, monkeypatch):
        # A leader whose evaluator pass raises (a bug, not a recorded
        # task failure) must resolve every claimed key: concurrent
        # identical submissions all finish — failure-typed — and the
        # queue drains. This is the poisoned-leader regression.
        import repro.service.workers as workers_mod

        engine = EvaluationEngine()
        task = pattern_task(2, 3)

        def boom(*args, **kwargs):
            raise RuntimeError("evaluator exploded")

        monkeypatch.setattr(workers_mod, "evaluate_tasks", boom)
        n = 6
        barrier = threading.Barrier(n)
        outcomes: list[tuple[str, object]] = []
        lock = threading.Lock()

        def submit() -> None:
            barrier.wait()
            try:
                (value,), _stats = engine.run_batch([task])
            except RuntimeError as exc:
                with lock:
                    outcomes.append(("raised", str(exc)))
            else:
                with lock:
                    outcomes.append(("value", value))

        threads = [threading.Thread(target=submit) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(outcomes) == n  # nobody hung
        assert engine.queue.in_flight() == 0  # nothing stranded
        raised = [o for o in outcomes if o[0] == "raised"]
        assert raised  # every leader propagated the bug...
        for kind, value in outcomes:
            if kind == "value":  # ...and every follower got a failure
                assert isinstance(value, TaskFailure)
                assert value.error == "RuntimeError"
        # With the bug gone the same engine serves the same key again.
        monkeypatch.undo()
        (value,), stats = engine.run_batch([task])
        assert not isinstance(value, TaskFailure)
        assert stats["executed"] == 1


# ----------------------------------------------------------------------
# Client deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_hung_server_raises_service_timeout(self):
        with silent_listener() as (host, port):
            client = ServiceClient(host, port, timeout=0.3)
            t0 = time.monotonic()
            with pytest.raises(ServiceTimeout, match="no reply within"):
                client.ping()
            assert time.monotonic() - t0 < 3.0
            client.close()

    def test_per_op_timeout_overrides_client_default(self):
        # timeout=None on the client (wait forever) must still be
        # overridable per request — the deadline stays armed across the
        # whole exchange, not just the connect.
        with silent_listener() as (host, port):
            client = ServiceClient(host, port, connect_timeout=5.0)
            assert client.timeout is None
            t0 = time.monotonic()
            with pytest.raises(ServiceTimeout):
                client.ping(timeout=0.3)
            assert time.monotonic() - t0 < 3.0
            client.close()

    def test_delayed_reply_trips_the_deadline_then_recovers(self):
        faults = FaultInjector({"delay": 1}, delay_s=1.0)
        engine = EvaluationEngine()
        with served(engine, faults=faults) as server:
            host, port = server.endpoint
            with ServiceClient(host, port, timeout=5.0) as client:
                t0 = time.monotonic()
                with pytest.raises(ServiceTimeout):
                    client.evaluate(pattern_task(2, 2), timeout=0.2)
                assert time.monotonic() - t0 < 1.0  # beat the 1 s delay
                # Budget spent: the retried request answers normally,
                # from work the dropped-deadline attempt already paid
                # for (the engine memo), on a fresh connection.
                value = client.evaluate(pattern_task(2, 2))
                assert value == evaluate(
                    single_communication(2, 2, comm_time=1.0),
                    solver="deterministic",
                )
        assert faults.fired["delay"] == 1

    def test_wait_for_service_respects_overall_deadline(self):
        # A server that accepts but never replies must exhaust
        # wait_for_service's total budget, not hang it on one socket.
        with silent_listener() as (host, port):
            t0 = time.monotonic()
            with pytest.raises(ServiceError):
                wait_for_service(host, port, timeout=1.0, interval=0.1)
            assert time.monotonic() - t0 < 4.0

    def test_wait_for_service_returns_first_ping(self):
        engine = EvaluationEngine()
        with served(engine) as server:
            host, port = server.endpoint
            reply = wait_for_service(host, port, timeout=5.0)
        assert reply["version"]
        assert reply["counters"]["requests"]["units"] == 0


# ----------------------------------------------------------------------
# Retry / backoff against dropped replies
# ----------------------------------------------------------------------
class TestRetries:
    def test_dropped_replies_absorbed_by_retries(self):
        faults = FaultInjector({"drop": 2})
        engine = EvaluationEngine()
        with served(engine, faults=faults) as server:
            policy = RetryPolicy(max_attempts=4, base_delay=0.01, seed=0)
            with ServiceClient(*server.endpoint, retry=policy) as client:
                value = client.evaluate(pattern_task(2, 3))
        assert value == evaluate(
            single_communication(2, 3, comm_time=1.0), solver="deterministic"
        )
        assert client.retries == 2  # one per dropped reply
        assert faults.fired["drop"] == 2
        # Idempotency: the server did the work once; the two retried
        # requests were answered by the memo, not recomputed.
        assert engine.executed == 1
        assert engine.memo_hits == 2

    def test_retries_exhausted_raises_the_transient_error(self):
        faults = FaultInjector({"drop": 5})
        engine = EvaluationEngine()
        with served(engine, faults=faults) as server:
            policy = RetryPolicy(max_attempts=2, base_delay=0.01, seed=0)
            with ServiceClient(*server.endpoint, retry=policy) as client:
                with pytest.raises(ServiceUnavailable, match="closed"):
                    client.evaluate(pattern_task(2, 3))
        assert client.retries == 1
        assert faults.armed("drop") == 3  # 2 attempts consumed 2 drops

    def test_explicit_retry_none_disables_the_client_policy(self):
        faults = FaultInjector({"drop": 1})
        engine = EvaluationEngine()
        with served(engine, faults=faults) as server:
            policy = RetryPolicy(max_attempts=5, base_delay=0.01, seed=0)
            with ServiceClient(*server.endpoint, retry=policy) as client:
                with pytest.raises(ServiceUnavailable):
                    client.request(
                        {"op": "evaluate", "task": pattern_task(2, 3)},
                        retry=None,
                    )
        assert client.retries == 0


# ----------------------------------------------------------------------
# Bounded admission / load shedding
# ----------------------------------------------------------------------
class TestOverload:
    def test_burst_is_shed_with_retry_after_within_deadline(self):
        engine = EvaluationEngine()
        with served(engine, capacity=1, retry_after=0.05) as server:
            host, port = server.endpoint
            slow = pattern_task(3, 4, solver="exponential")
            slow["model"] = "strict"  # ~0.3 s marking chain
            holder_value: dict = {}

            def hold() -> None:
                with ServiceClient(host, port) as c:
                    holder_value["value"] = c.evaluate(slow)

            holder = threading.Thread(target=hold)
            holder.start()
            deadline = time.monotonic() + 5
            while server.in_flight == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert server.in_flight >= 1

            # 1. A no-retry client is rejected instantly, typed, with
            #    the server's back-off hint — far inside its deadline.
            with ServiceClient(host, port, timeout=5.0) as client:
                t0 = time.monotonic()
                with pytest.raises(ServiceOverloaded) as excinfo:
                    client.evaluate(pattern_task(2, 2))
                elapsed = time.monotonic() - t0
                assert elapsed < 1.0  # shed, not queued
                assert excinfo.value.retry_after == 0.05
                assert server.shed >= 1

                # 2. The control plane stays reachable while overloaded.
                assert client.ping()["version"]
                stats = client.stats()
                assert stats["capacity"] == 1
                assert stats["shed"] >= 1
                assert stats["retry_after"] == 0.05
                assert stats["stopping"] is False

            # 3. A client with a retry policy rides the burst out:
            #    back off (honouring retry_after), get admitted, finish.
            policy = RetryPolicy(
                max_attempts=20, base_delay=0.05, max_delay=0.5, seed=0
            )
            with ServiceClient(host, port, retry=policy) as patient:
                value = patient.evaluate(pattern_task(2, 2))
            assert value == evaluate(
                single_communication(2, 2, comm_time=1.0),
                solver="deterministic",
            )
            holder.join(timeout=30)
            assert "value" in holder_value

    def test_ping_and_stats_surface_liveness(self):
        engine = EvaluationEngine()
        with served(engine, capacity=3, retry_after=0.5) as server:
            with ServiceClient(*server.endpoint) as client:
                reply = client.ping()
                assert reply["uptime_s"] >= 0.0
                assert reply["in_flight"] >= 1  # the ping itself
                assert reply["counters"]["pool"] == {
                    "n_jobs": 1, "restarts": 0, "max_restarts": 3,
                    "degraded": False, "active": False,
                }
                stats = client.stats()
                assert stats["capacity"] == 3
                assert stats["shed"] == 0
                assert stats["counters"]["faults"] is None


# ----------------------------------------------------------------------
# Worker-crash recovery
# ----------------------------------------------------------------------
class TestWorkerCrashRecovery:
    def test_crashed_worker_pool_is_rebuilt_once(self):
        faults = FaultInjector({"crash": 1})
        engine = EvaluationEngine(n_jobs=2, faults=faults)
        tasks = [pattern_task(2, 3), pattern_task(3, 2)]
        try:
            results, stats = engine.run_batch(tasks)
        finally:
            engine.close()
        expected = [
            evaluate(single_communication(2, 3, comm_time=1.0),
                     solver="deterministic"),
            evaluate(single_communication(3, 2, comm_time=1.0),
                     solver="deterministic"),
        ]
        assert results == expected  # nothing lost to the crash
        assert stats["failures"] == 0
        assert engine.pool_restarts == 1  # counter-asserted recovery
        assert not engine.degraded
        assert faults.fired["crash"] == 1
        assert engine.status()["pool"]["restarts"] == 1

    def test_restart_budget_exhaustion_degrades_to_serial(self):
        faults = FaultInjector({"crash": 10})
        engine = EvaluationEngine(
            n_jobs=2, max_pool_restarts=2, faults=faults
        )
        tasks = [pattern_task(2, 3), pattern_task(3, 2)]
        try:
            results, stats = engine.run_batch(tasks)
            # Degraded: no new pool is ever spawned, crash faults can't
            # fire (they need a pool), and requests keep being served.
            assert engine._get_pool() is None
            again, stats2 = engine.run_batch(
                [pattern_task(2, 2), pattern_task(4, 2)]
            )
        finally:
            engine.close()
        assert not any(isinstance(r, TaskFailure) for r in results)
        assert not any(isinstance(r, TaskFailure) for r in again)
        assert engine.degraded
        assert engine.pool_restarts == engine.max_pool_restarts + 1 == 3
        assert faults.fired["crash"] == 3  # one per discarded pool
        status = engine.status()["pool"]
        assert status["degraded"] and status["active"] is False

    def test_crash_recovery_over_the_wire(self):
        # End to end: a served engine whose worker dies mid-batch still
        # answers the request; the operator sees the restart in stats.
        faults = FaultInjector({"crash": 1})
        engine = EvaluationEngine(n_jobs=2, faults=faults)
        with served(engine) as server:
            with ServiceClient(*server.endpoint) as client:
                values, failures, _stats = client.evaluate_batch(
                    [pattern_task(2, 3), pattern_task(3, 2)]
                )
                assert failures == []
                assert all(v is not None for v in values)
                stats = client.stats()
                assert stats["counters"]["pool"]["restarts"] == 1
                assert stats["counters"]["faults"]["fired"]["crash"] == 1


# ----------------------------------------------------------------------
# Torn disk-cache tail
# ----------------------------------------------------------------------
class TestTornTailRecovery:
    def test_torn_tail_recomputes_only_the_lost_record(self, tmp_path):
        path = tmp_path / "svc.jsonl"
        tasks = smoke_tasks()
        faults = FaultInjector({"torn_tail": 1})
        engine = EvaluationEngine(disk=DiskScoreCache(path), faults=faults)
        first, _ = engine.run_batch(tasks)
        engine.close()  # "crash" during the final append
        assert faults.fired["torn_tail"] == 1

        reloaded = DiskScoreCache(path)
        assert reloaded.dropped_lines == 1
        assert len(reloaded) == len(tasks) - 1

        restarted = EvaluationEngine(disk=reloaded)
        second, stats = restarted.run_batch(tasks)
        restarted.close()
        assert second == first  # bit-identical answers
        assert stats["disk_hits"] == len(tasks) - 1
        assert stats["executed"] == 1  # only the torn record recomputed
        # The repair is durable: a third load sees every record intact.
        final = DiskScoreCache(path)
        assert len(final) == len(tasks)
        assert final.dropped_lines == 0


# ----------------------------------------------------------------------
# Campaigns through a faulty service (the end-to-end acceptance)
# ----------------------------------------------------------------------
class TestChaosCampaign:
    def test_recovered_faults_keep_the_store_byte_identical(self, tmp_path):
        spec = get_preset("smoke")
        clean = tmp_path / "clean.jsonl"
        run_campaign(spec, ResultStore(clean))

        faults = FaultInjector({"drop": 2})
        engine = EvaluationEngine()
        chaotic = tmp_path / "chaotic.jsonl"
        with served(engine, faults=faults) as server:
            policy = RetryPolicy(max_attempts=4, base_delay=0.01, seed=0)
            with ServiceClient(*server.endpoint, retry=policy) as client:
                summary = run_campaign(
                    spec, ResultStore(chaotic), client=client
                )
        assert summary.executed == 4
        assert client.retries == 2  # the faults actually fired...
        assert faults.armed("drop") == 0
        # ...and the store is indistinguishable from a fault-free run.
        assert chaotic.read_bytes() == clean.read_bytes()

    def test_failed_run_resumes_to_byte_identical_store(self, tmp_path):
        spec = get_preset("smoke")
        clean = tmp_path / "clean.jsonl"
        run_campaign(spec, ResultStore(clean))

        faults = FaultInjector({"drop": 8})
        engine = EvaluationEngine()
        chaotic = tmp_path / "chaotic.jsonl"
        with served(engine, faults=faults) as server:
            # Phase 1: the drop budget outlasts the retry budget — the
            # run dies with a typed campaign error, leaving a valid
            # prefix of the clean store (possibly empty) on disk.
            short = RetryPolicy(max_attempts=2, base_delay=0.01, seed=0)
            with ServiceClient(*server.endpoint, retry=short) as client:
                with pytest.raises(
                    CampaignError, match="service execution failed"
                ):
                    run_campaign(spec, ResultStore(chaotic), client=client)
            persisted = chaotic.read_bytes() if chaotic.exists() else b""
            assert clean.read_bytes().startswith(persisted)

            # Phase 2: resume with a budget that outlasts the faults.
            patient = RetryPolicy(max_attempts=10, base_delay=0.01, seed=0)
            with ServiceClient(*server.endpoint, retry=patient) as client:
                summary = run_campaign(
                    spec, ResultStore(chaotic), client=client, resume=True
                )
        assert summary.executed + summary.skipped == 4
        assert faults.armed("drop") == 0  # all 8 faults were exercised
        assert chaotic.read_bytes() == clean.read_bytes()
        # The work behind the dropped replies was never redone: every
        # retried unit came from the engine's caches.
        assert engine.executed == 4

    def test_partial_store_resume_through_faulty_service(self, tmp_path):
        # An interrupted local run (first half of the store) resumed
        # through a fault-injected service completes byte-identically.
        spec = get_preset("smoke")
        clean = tmp_path / "clean.jsonl"
        run_campaign(spec, ResultStore(clean))
        lines = clean.read_bytes().splitlines(keepends=True)
        partial = tmp_path / "partial.jsonl"
        partial.write_bytes(b"".join(lines[:2]))

        faults = FaultInjector({"drop": 1})
        engine = EvaluationEngine()
        with served(engine, faults=faults) as server:
            policy = RetryPolicy(max_attempts=4, base_delay=0.01, seed=0)
            with ServiceClient(*server.endpoint, retry=policy) as client:
                summary = run_campaign(
                    spec, ResultStore(partial), client=client, resume=True
                )
        assert summary.skipped == 2
        assert summary.executed == 2
        assert faults.fired["drop"] == 1
        assert partial.read_bytes() == clean.read_bytes()

    def test_deadline_failure_surfaces_as_typed_campaign_error(self, tmp_path):
        faults = FaultInjector({"delay": 5}, delay_s=1.0)
        engine = EvaluationEngine()
        with served(engine, faults=faults) as server:
            client = ServiceClient(
                *server.endpoint, timeout=0.2, retry=None
            )
            with pytest.raises(CampaignError, match="deadline exceeded"):
                run_campaign(
                    get_preset("smoke"),
                    ResultStore(tmp_path / "c.jsonl"),
                    client=client,
                )
            client.close()
