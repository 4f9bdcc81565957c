"""The chaos battery: injected faults, hardened clients, bit-exact recovery.

Every recovery path in :mod:`repro.resilience` and its hooks through the
serving stack is failed on purpose here, deterministically: fault plans
round-trip and replay, the watchdog restarts crashed and hung workers
and requeues their jobs, retrying clients survive dropped sockets and
garbled frames, idempotency keys keep retries from ever simulating
twice, and a torn cache write costs exactly the torn record.  The
headline asserts are always the same: the faulted run's results equal
the fault-free run's, bit for bit.

No pytest-asyncio in the container: async scenarios run under
``asyncio.run`` inside plain sync tests.
"""

import asyncio
import json
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from tests.conftest import ServerInThread

from repro.configs.suite import paper_suite
from repro.core.fsm import FSM
from repro.evolution.fitness import (
    evaluate_population,
    evaluation_cache_key,
    suite_fingerprint,
)
from repro.grids import make_grid
from repro.resilience import (
    CircuitBreaker,
    CircuitOpenError,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    RetryBudgetExceeded,
    RetryPolicy,
    faults_installed,
)
from repro.resilience.faults import (
    CRASH,
    DISCONNECT,
    DISPATCH_ERROR,
    GARBAGE_FRAME,
    HANG,
    PARTIAL_FRAME,
    SITE_CACHE_APPEND,
    SITE_DISPATCH,
    SITE_POOL_JOB,
    SITE_TRANSPORT_SEND,
    SLOW,
    TORN_WRITE,
    active_injector,
)
from repro.service import (
    AsyncEvaluationServer,
    CacheStore,
    ClientOptions,
    EvaluationService,
    IdempotencyRegistry,
    ServiceClient,
    TCPServiceClient,
    WorkerCrashError,
    WorkerHangError,
    WorkerJobError,
    WorkerPool,
)
from repro.service.jsonl import ServeSession

T_MAX = 60


def tiny_workload(n_fsms=2, kind="T", size=8):
    """A small deterministic (grid, suite, fsms) triple."""
    grid = make_grid(kind, size)
    suite = paper_suite(grid, 4, n_random=3, seed=5)
    fsms = [
        FSM.random(np.random.default_rng(900 + i), name=f"g{i}")
        for i in range(n_fsms)
    ]
    return grid, suite, fsms


def tiny_spec(fsms, kind="T", size=8):
    """:func:`tiny_workload`'s suite and ``fsms`` as one wire spec."""
    return {
        "grid": kind, "size": size, "agents": 4, "fields": 3, "seed": 5,
        "t_max": T_MAX,
        "fsm": [{"genome": fsm.genome().tolist()} for fsm in fsms],
    }


def _square(payload):
    """Worker job for the pool tests (must be module-level to pickle)."""
    return payload * payload


class TestFaultPlan:
    def test_round_trip_preserves_plan(self, tmp_path):
        plan = FaultPlan(
            [
                FaultSpec(SITE_POOL_JOB, CRASH, at=2),
                FaultSpec(SITE_TRANSPORT_SEND, DISCONNECT, at=1),
                FaultSpec(SITE_POOL_JOB, SLOW, at=3, seconds=0.5),
            ],
            seed=None,
            name="pinned",
        )
        path = plan.save(tmp_path / "plan.json")
        assert FaultPlan.load(path) == plan

    def test_random_plans_are_seed_deterministic(self):
        assert FaultPlan.random(7) == FaultPlan.random(7)
        assert FaultPlan.random(7) != FaultPlan.random(8)

    def test_invalid_specs_fail_loudly(self):
        with pytest.raises(FaultPlanError):
            FaultSpec("no.such.site", CRASH, at=1)
        with pytest.raises(FaultPlanError):
            FaultSpec(SITE_CACHE_APPEND, CRASH, at=1)  # wrong kind
        with pytest.raises(FaultPlanError):
            FaultSpec(SITE_POOL_JOB, CRASH, at=0)  # 1-based
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json({"version": 99, "faults": []})

    def test_injector_fires_on_nth_hit_exactly_once(self):
        plan = FaultPlan([FaultSpec(SITE_POOL_JOB, CRASH, at=3)])
        with faults_installed(plan) as injector:
            assert injector.fire(SITE_POOL_JOB) is None
            assert injector.fire(SITE_POOL_JOB) is None
            fault = injector.fire(SITE_POOL_JOB)
            assert fault is not None and fault.kind == CRASH
            assert injector.fire(SITE_POOL_JOB) is None  # at most once
            assert [f["at"] for f in injector.fired] == [3]
            assert injector.pending() == []
        assert active_injector() is None  # context exit disarms

    def test_fired_faults_are_mirrored_to_the_log(self, tmp_path):
        log = tmp_path / "faults.jsonl"
        plan = FaultPlan([FaultSpec(SITE_DISPATCH, DISPATCH_ERROR, at=1)])
        with faults_installed(plan, log_path=str(log)) as injector:
            injector.fire(SITE_DISPATCH)
        entries = [json.loads(line) for line in open(log)]
        assert [e["site"] for e in entries] == [SITE_DISPATCH]
        assert entries[0]["kind"] == DISPATCH_ERROR


class TestRetryPolicy:
    def test_delay_schedule_is_seed_deterministic(self):
        policy = RetryPolicy(max_attempts=5, seed=11)
        assert policy.delays() == policy.delays()
        assert policy.delays() != RetryPolicy(max_attempts=5, seed=12).delays()
        unjittered = RetryPolicy(
            max_attempts=4, base_delay=0.1, multiplier=2.0, jitter=0.0,
            max_delay=0.3,
        )
        assert unjittered.delays() == [0.1, 0.2, 0.3]  # capped at max_delay

    def test_transient_failures_are_retried_to_success(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise ConnectionError("transient")
            return "ok"

        policy = RetryPolicy(max_attempts=4, seed=0)
        assert policy.run(flaky, sleep=lambda _: None) == "ok"
        assert len(calls) == 3

    def test_non_retryable_and_vetoed_errors_propagate_at_once(self):
        policy = RetryPolicy(max_attempts=4, seed=0)
        with pytest.raises(KeyError):
            policy.run(
                lambda: (_ for _ in ()).throw(KeyError("x")),
                retryable=(ConnectionError,),
                sleep=lambda _: None,
            )

        calls = []

        def fail():
            calls.append(1)
            raise ConnectionError("nope")

        with pytest.raises(ConnectionError):
            policy.run(
                fail, should_retry=lambda exc: False, sleep=lambda _: None
            )
        assert len(calls) == 1  # the veto fired before any retry

    def test_exhausted_attempts_raise_with_cause(self):
        def always_fail():
            raise ConnectionError("down")

        with pytest.raises(RetryBudgetExceeded) as info:
            RetryPolicy(max_attempts=2, seed=0).run(
                always_fail, sleep=lambda _: None
            )
        assert isinstance(info.value.__cause__, ConnectionError)

    def test_sleep_budget_caps_total_backoff(self):
        def always_fail():
            raise ConnectionError("down")

        policy = RetryPolicy(
            max_attempts=10, base_delay=1.0, jitter=0.0, budget=1.5, seed=0
        )
        slept = []
        with pytest.raises(RetryBudgetExceeded):
            policy.run(always_fail, sleep=slept.append)
        assert sum(slept) <= 1.5

    def test_arun_mirrors_run(self):
        calls = []

        async def flaky():
            calls.append(1)
            if len(calls) < 2:
                raise ConnectionError("transient")
            return "ok"

        policy = RetryPolicy(max_attempts=3, base_delay=0.001, seed=0)
        assert asyncio.run(policy.arun(flaky)) == "ok"
        assert len(calls) == 2

    def test_server_retry_after_hint_floors_the_backoff(self):
        # the 429 contract: the server's Retry-After beats our own
        # (smaller) exponential schedule, but a hostile hint can never
        # exceed max_delay
        policy = RetryPolicy(
            max_attempts=3, base_delay=0.01, jitter=0.0, max_delay=2.0,
            seed=0,
        )
        calls, slept = [], []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                exc = ConnectionError("busy")
                exc.retry_after = 0.5 if len(calls) == 1 else 86400.0
                raise exc
            return "ok"

        assert policy.run(
            flaky, sleep=slept.append,
            retry_after=lambda exc: getattr(exc, "retry_after", None),
        ) == "ok"
        assert slept == [0.5, 2.0]

    def test_retry_after_hint_is_ignored_when_smaller_than_backoff(self):
        policy = RetryPolicy(
            max_attempts=2, base_delay=1.0, jitter=0.0, seed=0
        )
        slept = []

        def flaky():
            if not slept:
                exc = ConnectionError("busy")
                exc.retry_after = 0.001   # politely early; our schedule
                raise exc                 # is the floor, not the hint
            return "ok"

        assert policy.run(
            flaky, sleep=slept.append,
            retry_after=lambda exc: getattr(exc, "retry_after", None),
        ) == "ok"
        assert slept == [1.0]


class TestCircuitBreaker:
    def test_trips_after_threshold_and_half_opens_after_timeout(self):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=2, reset_timeout=5.0, clock=lambda: now[0]
        )

        def fail():
            raise ConnectionError("down")

        for _ in range(2):
            with pytest.raises(ConnectionError):
                breaker.call(fail)
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: "never sent")
        assert breaker.refusals == 1

        now[0] = 6.0  # past reset_timeout: one probe is admitted
        assert breaker.call(lambda: "probe") == "probe"
        assert breaker.state == "closed"
        assert breaker.probes == 1

    def test_failed_probe_reopens(self):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=5.0, clock=lambda: now[0]
        )
        with pytest.raises(ConnectionError):
            breaker.call(lambda: (_ for _ in ()).throw(ConnectionError()))
        now[0] = 6.0
        with pytest.raises(ConnectionError):
            breaker.call(lambda: (_ for _ in ()).throw(ConnectionError()))
        assert breaker.state == "open"
        assert breaker.trips == 2
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: "refused")


class TestWorkerWatchdog:
    def test_crashed_workers_are_restarted_and_jobs_requeued(self):
        payloads = list(range(8))
        plan = FaultPlan([
            FaultSpec(SITE_POOL_JOB, CRASH, at=2),
            FaultSpec(SITE_POOL_JOB, CRASH, at=5),
        ])
        with WorkerPool(2, job_timeout=60.0) as pool:
            with faults_installed(plan) as injector:
                results = pool.map_ordered(_square, payloads)
            assert results == [p * p for p in payloads]
            assert len(injector.fired) == 2
            assert pool.crash_recoveries >= 1
            assert pool.requeued_jobs >= 1
            assert pool.health()["alive"] is True

    def test_a_worker_dying_mid_submission_is_recovered(self):
        # with this many jobs the crash is noticed while later jobs are
        # still being submitted: submit() itself raises, and the pool
        # must recover as from any crash instead of staying broken
        payloads = list(range(3000))
        plan = FaultPlan([FaultSpec(SITE_POOL_JOB, CRASH, at=1)])
        with WorkerPool(2, job_timeout=60.0) as pool:
            with faults_installed(plan):
                results = pool.map_ordered(_square, payloads)
            assert results == [p * p for p in payloads]
            assert pool.crash_recoveries == 1
            assert pool.map_ordered(_square, [5]) == [25]

    def test_hung_worker_is_detected_and_its_job_requeued(self):
        plan = FaultPlan(
            [FaultSpec(SITE_POOL_JOB, HANG, at=1, seconds=60.0)]
        )
        with WorkerPool(2, job_timeout=0.5) as pool:
            with faults_installed(plan):
                results = pool.map_ordered(_square, [3, 4])
            assert results == [9, 16]
            assert pool.hang_recoveries == 1
            assert pool.requeued_jobs >= 1

    def test_restart_budget_exhaustion_surfaces_typed_errors(self):
        crash_every = FaultPlan([
            FaultSpec(SITE_POOL_JOB, CRASH, at=at) for at in range(1, 3)
        ])
        with WorkerPool(2, job_timeout=60.0, max_restarts=0) as pool:
            with faults_installed(crash_every):
                with pytest.raises(WorkerCrashError):
                    pool.map_ordered(_square, [1, 2])
            # the pool was rebuilt and remains usable afterwards
            assert pool.map_ordered(_square, [5]) == [25]

        hang_now = FaultPlan(
            [FaultSpec(SITE_POOL_JOB, HANG, at=1, seconds=60.0)]
        )
        with WorkerPool(2, job_timeout=0.3, max_restarts=0) as pool:
            with faults_installed(hang_now):
                with pytest.raises(WorkerHangError):
                    pool.map_ordered(_square, [1])

    def test_poison_job_raises_without_tripping_the_watchdog(self):
        with WorkerPool(2, job_timeout=60.0) as pool:
            with pytest.raises(WorkerJobError):
                pool.map_ordered(_fail_job, [1])
            assert pool.crash_recoveries == 0
            assert pool.restarts == 0


def _fail_job(payload):
    """A job that fails in-band (no process death)."""
    raise ValueError(f"poison payload {payload}")


class TestDispatchFaults:
    def test_retrying_client_survives_transient_dispatch_error(self):
        grid, suite, fsms = tiny_workload(n_fsms=2)
        serial = evaluate_population(grid, fsms, suite, t_max=T_MAX)
        plan = FaultPlan(
            [FaultSpec(SITE_DISPATCH, DISPATCH_ERROR, at=1)]
        )
        with EvaluationService(n_workers=1) as service:
            client = ServiceClient(service, options=ClientOptions(
                retry_policy=RetryPolicy(base_delay=0.001, seed=0),
            ))
            with faults_installed(plan) as injector:
                outcomes = client.evaluate(**tiny_spec(fsms))
            assert outcomes == serial
            assert len(injector.fired) == 1
            # the faulted attempt simulated nothing: one pass total
            assert service.stats.simulated_fsms == len(fsms)

    def test_unretried_dispatch_error_surfaces(self):
        grid, suite, fsms = tiny_workload(n_fsms=1)
        plan = FaultPlan(
            [FaultSpec(SITE_DISPATCH, DISPATCH_ERROR, at=1)]
        )
        with EvaluationService(n_workers=1) as service:
            bare = ServiceClient(service)
            with faults_installed(plan):
                with pytest.raises(Exception):
                    bare.evaluate(**tiny_spec(fsms))

    @hyp_settings(deadline=None, max_examples=8, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_any_dispatch_fault_plan_within_budget_is_bit_exact(self, seed):
        """Property: seeded dispatch-fault schedules never change results
        and never cause double simulation, as long as retries cover the
        injected failures."""
        import random

        rng = random.Random(seed)
        faults = [
            FaultSpec(SITE_DISPATCH, DISPATCH_ERROR, at=rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))
        ]
        plan = FaultPlan(faults, seed=seed, name=f"dispatch-{seed}")

        grid, suite, fsms = tiny_workload(n_fsms=2)
        serial = evaluate_population(grid, fsms, suite, t_max=T_MAX)
        with EvaluationService(n_workers=1) as service:
            client = ServiceClient(service, options=ClientOptions(
                retry_policy=RetryPolicy(
                    max_attempts=8, base_delay=0.001, seed=seed
                ),
            ))
            with faults_installed(plan):
                outcomes = client.evaluate(**tiny_spec(fsms))
            assert outcomes == serial
            assert service.stats.simulated_fsms == len(fsms)


class TestIdempotency:
    def test_registry_dedupes_by_key(self):
        registry = IdempotencyRegistry()
        submissions = []

        def submit():
            future = Future()
            submissions.append(future)
            return future

        first = registry.resolve("k", submit)
        second = registry.resolve("k", submit)
        assert len(submissions) == 1  # one real submission
        submissions[0].set_result(41)
        assert first.result(1) == 41
        assert second.result(1) == 41
        assert registry.stats()["hits"] == 1
        assert registry.stats()["misses"] == 1

    def test_cancelling_one_consumer_never_cancels_the_original(self):
        registry = IdempotencyRegistry()
        original = Future()
        a = registry.resolve("k", lambda: original)
        b = registry.resolve("k", lambda: original)
        assert a.cancel() is True
        original.set_result("late")
        assert b.result(1) == "late"
        assert not original.cancelled()

    def test_eviction_bounds_the_window(self):
        registry = IdempotencyRegistry(max_entries=2)
        for key in ("a", "b", "c"):
            registry.resolve(key, Future)
        assert registry.stats()["entries"] == 2
        # "a" was evicted: resolving it again is a miss, not a hit
        registry.resolve("a", Future)
        assert registry.stats()["hits"] == 0


# the in-thread TCP server now lives in the shared conftest
_ServerInThread = ServerInThread


class TestTransportChaos:
    def run_tcp(self, specs, plan, n_clients=3, **client_kwargs):
        """Outcomes for ``specs`` via ``n_clients`` hardened clients."""
        outcomes = [None] * len(specs)
        with EvaluationService(n_workers=1) as service:
            with _ServerInThread(service) as server:
                per_client = [specs[i::n_clients] for i in range(n_clients)]

                def drive(index):
                    policy = RetryPolicy(
                        seed=index, base_delay=0.01, max_delay=0.5
                    )
                    with TCPServiceClient(
                        server.address,
                        options=ClientOptions(retry_policy=policy,
                                              **client_kwargs),
                    ) as client:
                        for offset, spec in enumerate(per_client[index]):
                            response = client.request(dict(spec))
                            outcomes[index + offset * n_clients] = (
                                response["outcomes"]
                            )

                with faults_installed(plan) as injector:
                    threads = [
                        threading.Thread(target=drive, args=(i,))
                        for i in range(n_clients)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()
                    fired = len(injector.fired)
        return outcomes, fired

    def specs(self, n):
        return [
            {
                "grid": "T", "size": 8, "agents": 4, "fields": 3,
                "seed": 5, "t_max": T_MAX,
                "fsm": {
                    "genome": FSM.random(
                        np.random.default_rng(900 + i)
                    ).genome().tolist()
                },
            }
            for i in range(n)
        ]

    def test_socket_chaos_is_bit_exact_versus_fault_free(self):
        specs = self.specs(6)
        clean, _ = self.run_tcp(specs, FaultPlan([]))
        plan = FaultPlan([
            FaultSpec(SITE_TRANSPORT_SEND, DISCONNECT, at=1),
            FaultSpec(SITE_TRANSPORT_SEND, GARBAGE_FRAME, at=2),
            FaultSpec(SITE_TRANSPORT_SEND, PARTIAL_FRAME, at=3),
        ])
        chaos, fired = self.run_tcp(specs, plan)
        assert fired == 3
        assert chaos == clean

    def test_disconnected_clients_fail_fast_despite_forked_workers(self):
        """Regression: pool workers forked mid-connection hold inherited
        socket fds; a server-side close must still emit FIN so the peer
        sees EOF instantly instead of stalling out its socket timeout."""
        specs = self.specs(4)
        spec = dict(specs[0], fsm=["published", "evolved"])
        for one in specs:
            one["fsm"] = ["published", "evolved"]  # 2 fsms: forks the pool
        plan = FaultPlan(
            [FaultSpec(SITE_TRANSPORT_SEND, DISCONNECT, at=2)]
        )
        started = time.monotonic()
        outcomes = [None] * len(specs)
        with EvaluationService(n_workers=2) as service:
            with _ServerInThread(service) as server:
                # a pre-fault request forces the worker fork while our
                # connections are open, reproducing the inherited-fd state
                with TCPServiceClient(server.address) as warm:
                    warm.request(dict(spec))

                def drive(index):
                    policy = RetryPolicy(
                        seed=index, base_delay=0.01, max_delay=0.2
                    )
                    with TCPServiceClient(
                        server.address,
                        options=ClientOptions(timeout=30.0,
                                              retry_policy=policy),
                    ) as client:
                        outcomes[index] = client.request(
                            dict(specs[index])
                        )["outcomes"]

                with faults_installed(plan):
                    threads = [
                        threading.Thread(target=drive, args=(i,))
                        for i in range(len(specs))
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()
        assert all(o is not None for o in outcomes)
        assert all(o == outcomes[0] for o in outcomes)
        # nobody waited out the 30s socket timeout on the dropped frame
        assert time.monotonic() - started < 25.0

    def test_auto_idempotency_keys_never_collide_across_clients(self):
        """Regression: per-connection request ids ("c0", "c1", ...) are
        not unique across clients; deriving idempotency keys from them
        once handed one client another client's result."""
        specs = self.specs(2)
        expected = [
            self.run_tcp([spec], FaultPlan([]), n_clients=1)[0][0]
            for spec in specs
        ]
        assert expected[0] != expected[1]  # distinct genomes, distinct bits
        with EvaluationService(n_workers=1) as service:
            with _ServerInThread(service) as server:
                got = []
                for spec in specs:  # fresh client each: ids restart at c0
                    policy = RetryPolicy(seed=0, base_delay=0.01)
                    with TCPServiceClient(
                        server.address,
                        options=ClientOptions(retry_policy=policy),
                    ) as client:
                        got.append(client.request(dict(spec))["outcomes"])
        assert got == expected


class TestHealthOps:
    def test_in_process_session_health(self):
        with EvaluationService(n_workers=1) as service:
            session = ServeSession(service)
            payload = session.handle_op({"op": "health", "id": "h"})
            health = payload["health"]
            assert health["pool"]["alive"] is True
            assert "idempotency" in health
            assert payload["id"] == "h"

    def test_tcp_health_includes_pool_and_transport(self):
        with EvaluationService(n_workers=1) as service:
            with _ServerInThread(service) as server:
                with TCPServiceClient(server.address) as client:
                    health = client.health()
        assert health["pool"]["alive"] is True
        assert health["transport"]["connections_opened"] >= 1
        assert "idempotency" in health

    def test_api_connect_health(self):
        from repro import api

        with api.connect(n_workers=1) as conn:
            health = conn.health()
        assert health["pool"]["alive"] is True


class TestTornCacheWrites:
    def test_torn_append_costs_exactly_the_torn_record(self, tmp_path):
        grid, suite, fsms = tiny_workload(n_fsms=3)
        outcomes = evaluate_population(grid, fsms, suite, t_max=T_MAX)
        fingerprint = suite_fingerprint(suite)
        keys = [
            evaluation_cache_key(grid, fingerprint, T_MAX, fsm)
            for fsm in fsms
        ]
        path = tmp_path / "store.jsonl"
        plan = FaultPlan([FaultSpec(SITE_CACHE_APPEND, TORN_WRITE, at=2)])
        with faults_installed(plan) as injector:
            with CacheStore(path) as store:
                for key, outcome in zip(keys, outcomes):
                    store.append(key, outcome)
                assert store.torn_writes == 1
            assert len(injector.fired) == 1
        # the next append cuts the torn line first: recovery keeps
        # every record but the torn one
        revived = CacheStore(path)
        records = revived.load()
        assert [key for key, _ in records] == [keys[0], keys[2]]
        assert records[0][1] == outcomes[0]
        assert records[1][1] == outcomes[2]
        assert revived.dropped_bytes == 0
