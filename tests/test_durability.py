"""The durability battery: write-ahead journal, supervision, failover.

Extends the chaos battery (``test_resilience.py``) up the stack: a
server's accepted requests survive its death.  The write-ahead journal
replays exactly the uncommitted suffix after a crash (asserted via the
``simulated_fsms == G - recovered_records`` counter identity), the
supervisor restarts a killed or crash-looping ``serve --tcp`` child on
its pinned address and exits nonzero with a diagnosis when the budget
runs out, hardened clients fail over through a ``kill -9`` invisibly,
the new client-side fault sites recover bit-exactly, and a compacting
cache store never loses a live writer's records.

No pytest-asyncio in the container: async scenarios run under
``asyncio.run`` inside plain sync tests.
"""

import asyncio
import json
import os
import threading
import time

import numpy as np
import pytest

from tests.conftest import ServerInThread

from repro.configs.suite import paper_suite
from repro.core.fsm import FSM
from repro.evolution.fitness import evaluate_population
from repro.grids import make_grid
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    RequestJournal,
    RetryPolicy,
    faults_installed,
    shrink_plan,
)
from repro.resilience.chaos import ChaosResult, chaos_sweep
from repro.resilience.durability import (
    decode_record,
    encode_accept,
    encode_commit,
)
from repro.resilience.faults import (
    CRASH,
    DISCONNECT,
    DISPATCH_ERROR,
    GARBAGE_FRAME,
    HANG,
    SITE_CACHE_APPEND,
    SITE_CLIENT_CONNECT,
    SITE_CLIENT_RECV,
    SITE_CLIENT_SEND,
    SITE_DISPATCH,
    SITE_POOL_JOB,
    SITE_TRANSPORT_SEND,
    TORN_WRITE,
)
from repro.results import EvaluationResult
from repro.service import (
    AsyncEvaluationServer,
    AsyncServiceClient,
    CacheStore,
    EvaluationService,
    EXIT_BUDGET_EXHAUSTED,
    IdempotencyRegistry,
    PersistentEvaluationCache,
    Supervisor,
    SupervisorError,
    TCPServiceClient,
    TransportError,
)
from repro.service.jsonl import ServeSession
from repro.service.supervisor import _pin_address

T_MAX = 60


def tiny_specs(n, idem_prefix=None):
    """``n`` distinct single-FSM wire specs on the tiny pinned workload."""
    specs = []
    for index in range(n):
        spec = {
            "grid": "T", "size": 8, "agents": 4, "fields": 3,
            "seed": 5, "t_max": T_MAX,
            "fsm": {
                "genome": FSM.random(
                    np.random.default_rng(900 + index)
                ).genome().tolist()
            },
        }
        if idem_prefix is not None:
            spec["idem"] = f"{idem_prefix}-{index}"
        specs.append(spec)
    return specs


def reference_outcomes(n):
    """Fault-free expected results for :func:`tiny_specs`, in order."""
    grid = make_grid("T", 8)
    suite = paper_suite(grid, 4, n_random=3, seed=5)
    fsms = [FSM.random(np.random.default_rng(900 + i)) for i in range(n)]
    return evaluate_population(grid, fsms, suite, t_max=T_MAX)


class TestRequestJournal:
    def test_accept_commit_replay_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RequestJournal(path) as journal:
            journal.accept("a", {"grid": "T", "n": 1})
            journal.accept("b", {"grid": "S", "n": 2})
            journal.accept("c", {"grid": "T", "n": 3})
            journal.commit("b")
        revived = RequestJournal(path)
        assert revived.replay_entries() == [
            ("a", {"grid": "T", "n": 1}),
            ("c", {"grid": "T", "n": 3}),
        ]
        stats = revived.stats()
        assert stats["recovered_accepts"] == 3
        assert stats["recovered_commits"] == 1
        assert stats["dropped_bytes"] == 0

    def test_first_accept_wins_on_duplicate_keys(self, tmp_path):
        with RequestJournal(tmp_path / "j.jsonl") as journal:
            journal.accept("k", {"v": 1})
            journal.accept("k", {"v": 2})
            assert journal.replay_entries() == [("k", {"v": 1})]

    def test_torn_tail_is_truncated_and_journal_continues(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RequestJournal(path) as journal:
            journal.accept("a", {"v": 1})
            journal.accept("b", {"v": 2})
        # a writer died mid-line: garbage glued to the tail
        with open(path, "ab") as handle:
            handle.write(b'{"v":1,"t":"accept","idem":"c","sp')
        revived = RequestJournal(path)
        assert [idem for idem, _ in revived.replay_entries()] == ["a", "b"]
        assert revived.stats()["dropped_bytes"] > 0
        # the truncated journal keeps accepting
        revived.accept("d", {"v": 4})
        revived.close()
        third = RequestJournal(path)
        assert [i for i, _ in third.replay_entries()] == ["a", "b", "d"]

    def test_unterminated_last_accept_is_torn_and_no_later_accept_is_lost(
        self, tmp_path
    ):
        path = tmp_path / "j.jsonl"
        with RequestJournal(path) as journal:
            journal.accept("a", {"v": 1})
        # a complete record whose newline never reached the disk
        with open(path, "ab") as handle:
            handle.write(encode_accept("b", {"v": 2}).encode())
        revived = RequestJournal(path)
        assert [i for i, _ in revived.replay_entries()] == ["a"]
        assert revived.stats()["dropped_bytes"] > 0
        # the later accepts land on a clean tail instead of fusing onto "b"
        revived.accept("c", {"v": 3})
        revived.accept("d", {"v": 4})
        revived.close()
        third = RequestJournal(path)
        assert [i for i, _ in third.replay_entries()] == ["a", "c", "d"]

    def test_compact_drops_committed_pairs(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = RequestJournal(path)
        for key in ("a", "b", "c"):
            journal.accept(key, {"k": key})
        journal.commit("a")
        journal.commit("c")
        dropped = journal.compact()
        assert dropped == 4  # two accept+commit pairs reclaimed
        journal.close()
        revived = RequestJournal(path)
        assert [i for i, _ in revived.replay_entries()] == ["b"]

    def test_decode_rejects_malformed_records(self):
        assert decode_record(encode_accept("k", {"a": 1}))[0] == "accept"
        assert decode_record(encode_commit("k"))[0] == "commit"
        for bad in (
            "not json",
            json.dumps({"v": 99, "t": "accept", "idem": "k", "spec": {}}),
            json.dumps({"v": 1, "t": "noop", "idem": "k"}),
            json.dumps({"v": 1, "t": "accept", "idem": 7, "spec": {}}),
            json.dumps({"v": 1, "t": "accept", "idem": "k", "spec": []}),
        ):
            with pytest.raises(ValueError):
                decode_record(bad)

    def test_open_surfaces_bad_paths_early(self, tmp_path):
        with pytest.raises(OSError):
            RequestJournal(tmp_path / "no" / "dir" / "j.jsonl").open()


class TestIdempotencyResubmit:
    def test_failed_future_is_resubmitted_not_replayed(self):
        """Regression: a pinned *failed* future once made every retry of
        that key fail forever -- fatal once TCP retries carry stable
        idempotency keys across dispatch faults."""
        from concurrent.futures import Future

        registry = IdempotencyRegistry()
        broken = Future()
        broken.set_exception(RuntimeError("injected"))
        assert registry.resolve("k", lambda: broken) is not None
        fixed = Future()
        fixed.set_result("ok")
        retry = registry.resolve("k", lambda: fixed)
        assert retry.result(1) == "ok"
        assert registry.stats()["resubmitted"] == 1

    def test_successful_future_still_dedupes(self):
        from concurrent.futures import Future

        registry = IdempotencyRegistry()
        done = Future()
        done.set_result("first")
        registry.resolve("k", lambda: done)
        again = registry.resolve("k", lambda: pytest.fail("resubmitted"))
        assert again.result(1) == "first"
        assert registry.stats()["resubmitted"] == 0


#: One plan per PR-4 fault site that can fire in an in-process session.
#: (transport/client sites need a socket; they are exercised below.)
_LIFE1_PLANS = {
    "dispatch-error": dict(
        plan=FaultPlan([FaultSpec(SITE_DISPATCH, DISPATCH_ERROR, at=1)]),
        n_workers=1, job_timeout=None,
    ),
    "pool-crash": dict(
        plan=FaultPlan([FaultSpec(SITE_POOL_JOB, CRASH, at=1)]),
        n_workers=2, job_timeout=30.0,
    ),
    "pool-hang": dict(
        plan=FaultPlan([FaultSpec(SITE_POOL_JOB, HANG, at=1, seconds=60.0)]),
        n_workers=2, job_timeout=1.5,
    ),
    "cache-torn": dict(
        plan=FaultPlan([FaultSpec(SITE_CACHE_APPEND, TORN_WRITE, at=1)]),
        n_workers=1, job_timeout=None,
    ),
}


class TestJournalReplay:
    """Two lives of a journaled session: crash under a fault, replay."""

    @pytest.mark.parametrize("name", sorted(_LIFE1_PLANS))
    def test_replay_resimulates_only_uncommitted_work(self, tmp_path, name):
        scenario = _LIFE1_PLANS[name]
        n = 3
        specs = tiny_specs(n, idem_prefix=f"replay-{name}")
        expected = reference_outcomes(n)
        store_path = tmp_path / "cache.jsonl"
        journal_path = tmp_path / "journal.jsonl"

        # -- life 1: submit everything under the fault plan ----------------
        cache = PersistentEvaluationCache(store_path)
        journal = RequestJournal(journal_path)
        with faults_installed(scenario["plan"]) as injector:
            with EvaluationService(
                n_workers=scenario["n_workers"], lane_block=8,
                cache=cache, job_timeout=scenario["job_timeout"],
            ) as service:
                session = ServeSession(service, journal=journal)
                futures = [session.submit_spec(s)[1] for s in specs]
                failed = 0
                for future in futures:
                    try:
                        future.result(timeout=120)
                    except Exception:
                        failed += 1
            assert injector.fired, "the plan never fired; test is vacuous"
        cache.close()
        journal.close()

        # -- life 2: replay, then clients re-request everything ------------
        cache2 = PersistentEvaluationCache(store_path)
        journal2 = RequestJournal(journal_path)
        with EvaluationService(n_workers=1, cache=cache2) as service2:
            session2 = ServeSession(service2, journal=journal2)
            replayed = session2.replay_journal()
            retries = [session2.submit_spec(dict(s))[1] for s in specs]
            got = [future.result(timeout=120) for future in retries]
            snapshot = session2.stats()
        cache2.close()
        journal2.close()

        assert got == [[outcome] for outcome in expected]
        recovered = snapshot["cache"]["persistent"]["recovered_records"]
        # the headline identity: replay re-simulates exactly the work
        # whose results did not survive -- never the committed suffix
        assert snapshot["simulated_fsms"] == n - recovered
        assert snapshot["journal"]["replayed"] == replayed
        if failed:
            assert replayed >= 1   # a failed future is an uncommitted entry
        if name == "pool-crash":
            # watchdog recovered life 1 in place: everything committed
            assert recovered == n and replayed == 0

    def test_tcp_restart_replays_via_async_server(self, tmp_path):
        """Same two-life story through the real TCP server: life 2's
        ``start()`` replays before binding, and a client re-issuing its
        original idempotency key attaches without re-simulation."""
        n = 2
        specs = tiny_specs(n, idem_prefix="tcp-replay")
        expected = reference_outcomes(n)
        store_path = tmp_path / "cache.jsonl"
        journal_path = tmp_path / "journal.jsonl"

        plan = FaultPlan([FaultSpec(SITE_DISPATCH, DISPATCH_ERROR, at=1)])
        cache = PersistentEvaluationCache(store_path)
        journal = RequestJournal(journal_path)
        with faults_installed(plan):
            with EvaluationService(n_workers=1, cache=cache) as service:
                with _ServerInThread(service, journal=journal) as server:
                    with TCPServiceClient(server.address) as client:
                        for spec in specs:
                            try:
                                client.request(dict(spec))
                            except TransportError:
                                pass   # injected fault: stays uncommitted
        cache.close()
        journal.close()

        cache2 = PersistentEvaluationCache(store_path)
        journal2 = RequestJournal(journal_path)
        with EvaluationService(n_workers=1, cache=cache2) as service2:
            with _ServerInThread(service2, journal=journal2) as server:
                with TCPServiceClient(server.address) as client:
                    got = [client.evaluate(**spec) for spec in specs]
                    stats = client.stats()
        cache2.close()
        journal2.close()
        assert got == [[outcome] for outcome in expected]
        stats = stats.get("service", stats)   # TCP stats nest the session
        recovered = stats["cache"]["persistent"]["recovered_records"]
        assert stats["simulated_fsms"] == n - recovered
        assert "journal" in stats


# the in-thread TCP server now lives in the shared conftest
_ServerInThread = ServerInThread


class TestClientFaultSites:
    """The new ``client.*`` injection sites recover bit-exactly."""

    def run_hardened(self, specs, plan):
        outcomes = []
        with EvaluationService(n_workers=1) as service:
            with _ServerInThread(service) as server:
                with faults_installed(plan) as injector:
                    policy = RetryPolicy(seed=0, base_delay=0.01,
                                         max_delay=0.2)
                    with TCPServiceClient(
                        server.address, retry_policy=policy
                    ) as client:
                        for spec in specs:
                            outcomes.append(client.evaluate(**dict(spec)))
                    fired = len(injector.fired)
        return outcomes, fired

    @pytest.mark.parametrize("fault", [
        FaultSpec(SITE_CLIENT_CONNECT, DISCONNECT, at=1),
        FaultSpec(SITE_CLIENT_SEND, DISCONNECT, at=1),
        FaultSpec(SITE_CLIENT_RECV, DISCONNECT, at=1),
        FaultSpec(SITE_CLIENT_RECV, GARBAGE_FRAME, at=1),
    ], ids=lambda f: f"{f.site}-{f.kind}")
    def test_sync_client_recovers_from_each_site(self, fault):
        specs = tiny_specs(2)
        expected = reference_outcomes(2)
        got, fired = self.run_hardened(specs, FaultPlan([fault]))
        assert fired == 1
        assert got == [[outcome] for outcome in expected]

    def test_async_client_failover_with_interleaved_responses(self):
        """A server-side disconnect while several requests are in flight:
        every waiter fails at once, and each request reconnects and
        re-issues under its original idempotency key -- bit-exact, with
        nothing simulated twice."""
        n = 4
        specs = tiny_specs(n, idem_prefix="async-failover")
        expected = reference_outcomes(n)
        # drop the server->client socket on the second response write
        plan = FaultPlan([FaultSpec(SITE_TRANSPORT_SEND, DISCONNECT, at=2)])

        async def drive(address):
            client = await AsyncServiceClient.connect(
                address, retry_policy=RetryPolicy(
                    seed=1, base_delay=0.01, max_delay=0.2
                ),
            )
            try:
                return await asyncio.gather(
                    *(client.evaluate(**dict(spec)) for spec in specs)
                )
            finally:
                await client.aclose()

        with EvaluationService(n_workers=1) as service:
            with _ServerInThread(service) as server:
                with faults_installed(plan) as injector:
                    got = asyncio.run(drive(server.address))
                    assert len(injector.fired) == 1
                snapshot = service.snapshot()
        assert got == [[outcome] for outcome in expected]
        # idempotency keys kept the re-issued requests from re-simulating
        assert snapshot["simulated_fsms"] == n

    def test_async_client_reconnect_survives_connect_fault(self):
        """A recv fault breaks the connection; the first reconnect is
        refused too (client.connect fault) and the retry still lands."""
        specs = tiny_specs(1)
        expected = reference_outcomes(1)
        plan = FaultPlan([
            FaultSpec(SITE_CLIENT_RECV, DISCONNECT, at=1),
            FaultSpec(SITE_CLIENT_CONNECT, DISCONNECT, at=1),
        ])

        async def drive(address):
            client = await AsyncServiceClient.connect(
                address, retry_policy=RetryPolicy(
                    seed=2, base_delay=0.01, max_delay=0.2
                ),
            )
            try:
                # install after connect(): the initial dial must succeed
                with faults_installed(plan) as injector:
                    result = await client.evaluate(**dict(specs[0]))
                    return result, len(injector.fired)
            finally:
                await client.aclose()

        with EvaluationService(n_workers=1) as service:
            with _ServerInThread(service) as server:
                got, fired = asyncio.run(drive(server.address))
        assert fired == 2
        assert got == [expected[0]]


def _result(value):
    return EvaluationResult(
        fitness=float(value), mean_time=float(value),
        n_fields=1, n_successful_fields=1,
    )


def _key(index):
    return ("T", 8, f"fp{index}", T_MAX, bytes([index % 256]))


class TestCompactUnderLiveWriter:
    def test_append_reopens_after_concurrent_compact(self, tmp_path):
        """Regression: an appender's O_APPEND descriptor kept pointing at
        the pre-compact inode, so its records vanished into the replaced
        file.  The inode check must reopen and land the write."""
        path = tmp_path / "store.jsonl"
        writer = CacheStore(path)
        writer.append(_key(0), _result(0))
        compactor = CacheStore(path)
        compactor.compact()          # os.replace()s the file under `writer`
        writer.append(_key(1), _result(1))
        assert writer.append_reopens == 1
        keys = [key for key, _ in CacheStore(path).load()]
        assert keys == [_key(0), _key(1)]
        writer.close()
        compactor.close()

    def test_no_records_lost_compacting_under_a_live_writer(self, tmp_path):
        path = tmp_path / "store.jsonl"
        n = 60
        writer = CacheStore(path)
        compactor = CacheStore(path)
        stop = threading.Event()

        def compact_loop():
            while not stop.is_set():
                compactor.compact()

        thread = threading.Thread(target=compact_loop)
        thread.start()
        try:
            for index in range(n):
                writer.append(_key(index), _result(index))
                time.sleep(0.001)
        finally:
            stop.set()
            thread.join(30)
        writer.close()
        compactor.close()
        final = CacheStore(path)
        keys = {key for key, _ in final.load()}
        assert keys == {_key(index) for index in range(n)}
        assert compactor.compactions > 1


@pytest.mark.net
class TestSupervisor:
    def test_pin_address_rewrites_both_flag_forms(self):
        assert _pin_address(
            ["serve", "--tcp", "127.0.0.1:0"], "--tcp", "127.0.0.1", 7013
        ) == ["serve", "--tcp", "127.0.0.1:7013"]
        assert _pin_address(
            ["serve", "--tcp=0.0.0.0:0"], "--tcp", "0.0.0.0", 8
        ) == ["serve", "--tcp=0.0.0.0:8"]
        assert _pin_address(
            ["serve", "--http", "127.0.0.1:0"], "--http", "127.0.0.1", 80
        ) == ["serve", "--http", "127.0.0.1:80"]
        with pytest.raises(SupervisorError):
            _pin_address(["serve"], "--tcp", "h", 1)

    def test_rejects_unsupervisable_children(self):
        with pytest.raises(SupervisorError):
            Supervisor(["bench"])
        with pytest.raises(SupervisorError):
            Supervisor(["serve"])          # no --tcp: nothing to probe
        with pytest.raises(SupervisorError):
            Supervisor([])

    def test_budget_exhaustion_exits_nonzero_with_diagnosis(self, tmp_path):
        # --cache into a missing directory: serve exits 2 before listening
        lines = []
        supervisor = Supervisor(
            ["serve", "--tcp", "127.0.0.1:0",
             "--cache", str(tmp_path / "no" / "dir" / "cache.jsonl")],
            max_restarts=1, backoff_base=0.01, backoff_max=0.02,
            start_timeout=30.0, log=lines.append,
        )
        code = supervisor.run()
        assert code == EXIT_BUDGET_EXHAUSTED
        assert supervisor.restarts == 1
        assert "restart budget exhausted" in supervisor.diagnosis
        assert "exit code 2" in supervisor.diagnosis
        assert supervisor.diagnosis in lines

    def test_cli_supervise_rejects_bad_child(self, capsys):
        from repro.cli import main

        assert main(["supervise", "--", "bench"]) == 2
        assert "supervise" in capsys.readouterr().err


@pytest.mark.slow
@pytest.mark.net
class TestKillNineUnderSupervision:
    def test_kill_dash_nine_is_invisible_to_fifty_clients(self, tmp_path):
        """The acceptance scenario: 50 hardened clients, the server killed
        with SIGKILL mid-batch under supervision, every result bit-exact,
        and the reborn server re-simulating only uncommitted work."""
        n_clients, n_genomes = 50, 8
        specs = tiny_specs(n_genomes, idem_prefix="kill9")
        expected = reference_outcomes(n_genomes)
        supervisor = Supervisor(
            ["serve", "--tcp", "127.0.0.1:0", "--workers", "1",
             "--cache", str(tmp_path / "cache.jsonl"),
             "--journal", str(tmp_path / "journal.jsonl")],
            max_restarts=5, backoff_base=0.1, backoff_max=1.0,
            health_interval=0.25, log=lambda line: None,
        )
        outcomes = [None] * n_clients
        errors = []
        responded = threading.Event()

        def drive(index):
            spec = dict(specs[index % n_genomes])
            policy = RetryPolicy(seed=index, max_attempts=12,
                                 base_delay=0.05, max_delay=0.5, budget=60.0)
            try:
                with TCPServiceClient(
                    supervisor.address, timeout=60.0, retry_policy=policy
                ) as client:
                    outcomes[index] = client.evaluate(**spec)
                    responded.set()
            except Exception as exc:
                errors.append(f"client {index}: {exc!r}")

        def assassin():
            responded.wait(timeout=60.0)
            supervisor.kill_server()

        with supervisor.start():
            threading.Thread(target=assassin, daemon=True).start()
            threads = [
                threading.Thread(target=drive, args=(index,))
                for index in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors, errors[:3]
            probe_policy = RetryPolicy(seed=99, base_delay=0.05)
            with TCPServiceClient(
                supervisor.address, timeout=15.0, retry_policy=probe_policy
            ) as probe:
                stats = probe.stats()
            restarts = supervisor.restarts
        assert restarts >= 1
        for index, got in enumerate(outcomes):
            assert got == [expected[index % n_genomes]]
        # the reborn server simulated exactly the genomes whose results
        # were not yet in the persistent cache at the moment of the kill
        stats = stats.get("service", stats)   # TCP stats nest the session
        recovered = stats["cache"]["persistent"]["recovered_records"]
        assert stats["simulated_fsms"] == n_genomes - recovered
        assert "journal" in stats and "pool" in stats


class TestStatsWiring:
    def test_session_stats_and_health_carry_journal_and_pool(self, tmp_path):
        journal = RequestJournal(tmp_path / "j.jsonl")
        with EvaluationService(n_workers=1) as service:
            session = ServeSession(service, journal=journal)
            stats = session.stats()
            health = session.health()
        journal.close()
        assert stats["journal"]["path"] == str(tmp_path / "j.jsonl")
        assert "restarts" in stats["pool"]
        assert "resubmitted" in stats["idempotency"]
        assert "journal" in health

    def test_stats_op_returns_full_snapshot(self):
        with EvaluationService(n_workers=1) as service:
            session = ServeSession(service)
            payload = session.handle_op({"op": "stats", "id": "s"})
        assert "pool" in payload["stats"]
        assert "idempotency" in payload["stats"]


class TestChaosHarness:
    def test_shrink_plan_is_greedy_ddmin(self):
        plan = FaultPlan([
            FaultSpec(SITE_POOL_JOB, CRASH, at=1),
            FaultSpec(SITE_TRANSPORT_SEND, DISCONNECT, at=1),
            FaultSpec(SITE_CACHE_APPEND, TORN_WRITE, at=1),
        ], seed=7, name="trio")
        still_fails = lambda p: any(  # noqa: E731
            f.site == SITE_TRANSPORT_SEND for f in p.faults
        )
        minimal = shrink_plan(plan, still_fails)
        assert [f.site for f in minimal] == [SITE_TRANSPORT_SEND]
        assert minimal.seed == 7

    def test_sweep_writes_replayable_artifacts_on_failure(
        self, tmp_path, monkeypatch
    ):
        """A failing seed must leave everything needed to replay it:
        the drawn plan, the shrunk plan, and the fired-fault log."""
        import repro.resilience.chaos as chaos_module

        def fake_run_plan(plan, workload=None, log_path=None, n_clients=3):
            if log_path:
                with open(log_path, "w") as handle:
                    handle.write('{"site":"pool.job"}\n')
            # only plans still containing a pool.job fault "fail"
            failing = any(f.site == SITE_POOL_JOB for f in plan.faults)
            return ChaosResult(plan=plan, ok=not failing,
                               mismatches=1 if failing else 0)

        monkeypatch.setattr(chaos_module, "run_plan", fake_run_plan)
        monkeypatch.setattr(
            chaos_module, "pinned_workload", lambda: None
        )
        # seed chosen so FaultPlan.random draws at least one pool.job fault
        seed = next(
            s for s in range(100)
            if any(f.site == SITE_POOL_JOB
                   for f in FaultPlan.random(s, n_faults=4).faults)
        )
        results = chaos_module.chaos_sweep(
            [seed], out_dir=str(tmp_path), log=lambda line: None
        )
        assert len(results) == 1 and not results[0].ok
        plan_file = tmp_path / f"seed{seed}_plan.json"
        min_file = tmp_path / f"seed{seed}_min_plan.json"
        log_file = tmp_path / f"seed{seed}_faults.jsonl"
        assert plan_file.exists() and log_file.exists()
        minimal = FaultPlan.load(min_file)
        assert len(minimal) == 1
        assert minimal.faults[0].site == SITE_POOL_JOB

    def test_one_real_seed_is_bit_exact(self):
        from repro.resilience.chaos import pinned_workload, run_plan

        workload = pinned_workload()
        result = run_plan(FaultPlan.random(1), workload=workload)
        assert result.ok, (result.errors, result.mismatches)


@pytest.mark.net
class TestCLIJournalFlag:
    def test_stdio_serve_replays_journal(self, tmp_path, capsys,
                                         monkeypatch):
        import io

        from repro.cli import main

        journal_path = tmp_path / "j.jsonl"
        cache_path = tmp_path / "c.jsonl"
        spec = tiny_specs(1, idem_prefix="cli")[0]
        with RequestJournal(journal_path) as journal:
            journal.accept(spec["idem"], spec)   # uncommitted: must replay
        lines = [
            json.dumps({"op": "stats", "id": "s1"}),
            json.dumps(dict(spec, id="r1")),   # attaches to the replay
        ]
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("\n".join(lines) + "\n")
        )
        code = main([
            "serve", "--workers", "1", "--max-requests", "1",
            "--cache", str(cache_path), "--journal", str(journal_path),
        ])
        out = capsys.readouterr()
        assert code == 0
        assert "replayed 1 uncommitted" in out.err
        responses = [
            json.loads(line) for line in out.out.strip().splitlines()
        ]
        stats = next(r for r in responses if r.get("op") == "stats")["stats"]
        assert stats["journal"]["replayed"] == 1
        final = next(r for r in responses if r.get("id") == "r1")
        assert "outcomes" in final
        # the replayed result was committed: the commit callback runs on
        # the dispatcher thread, so give it a beat before asserting
        revived = RequestJournal(journal_path)
        deadline = time.time() + 10
        while revived.replay_entries() and time.time() < deadline:
            time.sleep(0.05)
        assert revived.replay_entries() == []

    def test_bad_journal_path_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "serve", "--workers", "1",
            "--journal", str(tmp_path / "no" / "dir" / "j.jsonl"),
        ])
        assert code == 2
        assert "journal" in capsys.readouterr().err
