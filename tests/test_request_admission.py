"""Request admission: one suite hash per suite, registry only for client keys.

* a :class:`ConfigSuite` hashes its configurations once and keeps the
  digest, which equals a fresh hash of the same configurations;
* a :class:`ServeSession` answering many requests over one workload
  hashes that workload's suite once, and the shared workload memo
  behind it stays bounded however many seeds clients send;
* bare journaled requests are journaled (accept, then commit) but never
  enter the idempotency registry, so they cannot push a client's key out;
* a settled keyed entry holds its outcome, not its consumers.
"""

import gc
import json
import pickle
import random
import sys
import threading
import weakref
from concurrent.futures import CancelledError, Future

import numpy as np
import pytest

from tests.test_batch_setup import (
    _OBSTACLE_DIGESTS,
    _OBSTACLES,
    _PAPER_SUITE_DIGESTS,
)

import repro.configs.suite as suite_module
import repro.evolution.fitness as fitness_module
from repro.configs.random_configs import random_configurations
from repro.configs.suite import ConfigSuite, digest_configurations, paper_suite
from repro.core.environment import Environment
from repro.core.fsm import FSM
from repro.evolution.fitness import (
    EvaluationCache,
    evaluate_population,
    suite_fingerprint,
)
from repro.grids import make_grid
from repro.resilience.durability import (
    RECORD_ACCEPT,
    RECORD_COMMIT,
    RequestJournal,
)
from repro.service import EvaluationService, IdempotencyRegistry
from repro.service.jsonl import (
    WORKLOAD_MEMO_SIZE,
    ServeSession,
    paper_workload,
)

T_MAX = 60


def _wrap(grid, n_agents, seed, configurations):
    suite = ConfigSuite.from_configurations(configurations, grid, seed=seed)
    assert suite.n_agents == n_agents
    return suite


def _spec(index, idem=None):
    """One single-FSM wire spec on a tiny workload; distinct per index."""
    spec = {
        "grid": "T", "size": 8, "agents": 4, "fields": 3, "seed": 5,
        "t_max": T_MAX,
        "fsm": {"genome": FSM.random(
            np.random.default_rng(700 + index)
        ).genome().tolist()},
    }
    if idem is not None:
        spec["idem"] = idem
    return spec


def _expected(index):
    grid = make_grid("T", 8)
    suite = paper_suite(grid, 4, n_random=3, seed=5)
    fsm = FSM.random(np.random.default_rng(700 + index))
    return evaluate_population(grid, [fsm], suite, t_max=T_MAX)


def _journal_records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class _StalledService:
    """A service whose dispatcher never runs: accepted work stays open."""

    def __init__(self):
        self.cache = EvaluationCache()   # empty: every request is journaled

    def submit(self, request):
        return Future()


# -- (a) the cached digest ----------------------------------------------------


class TestSuiteDigest:
    @pytest.mark.parametrize("kind, n_agents", sorted(_PAPER_SUITE_DIGESTS))
    def test_cyclic_suite_digest_is_the_fresh_hash(self, kind, n_agents):
        suite = paper_suite(make_grid(kind, 16), n_agents, seed=2013)
        assert suite.fingerprint == digest_configurations(list(suite))
        assert suite_fingerprint(suite) == _PAPER_SUITE_DIGESTS[kind, n_agents]
        assert suite_fingerprint(list(suite)) == suite.fingerprint

    @pytest.mark.parametrize("key", sorted(_OBSTACLE_DIGESTS))
    def test_obstacle_suite_digest_is_the_fresh_hash(self, key):
        kind, n_agents, n_fields, seed = key
        grid = make_grid(kind, 16)
        configurations = random_configurations(
            grid, n_agents, n_fields, seed,
            environment=Environment(grid, obstacles=_OBSTACLES),
        )
        suite = _wrap(grid, n_agents, seed, configurations)
        assert suite.fingerprint == _OBSTACLE_DIGESTS[key]
        assert suite_fingerprint(suite) == digest_configurations(configurations)

    def test_digest_survives_a_pickle_round_trip(self):
        suite = paper_suite(make_grid("T", 16), 8, n_random=20, seed=3)
        digest = suite.fingerprint
        revived = pickle.loads(pickle.dumps(suite))
        assert revived == suite
        assert revived.fingerprint == digest
        assert suite_fingerprint(revived) == digest_configurations(list(suite))
        # a suite pickled before its first use hashes on arrival
        fresh = pickle.loads(pickle.dumps(
            paper_suite(make_grid("T", 16), 8, n_random=20, seed=3)
        ))
        assert fresh.fingerprint == digest

    def test_one_changed_configuration_changes_the_digest(self):
        grid = make_grid("S", 16)
        base = paper_suite(grid, 8, n_random=10, seed=11)
        other = paper_suite(grid, 8, n_random=10, seed=12)
        swapped = list(base)
        swapped[4] = other[4]
        changed = _wrap(grid, 8, 11, swapped)
        assert changed[:4] == base[:4]
        assert base.fingerprint != changed.fingerprint
        assert changed.fingerprint == digest_configurations(swapped)
        assert base.fingerprint == digest_configurations(list(base))

    def test_suite_hashes_once(self, monkeypatch):
        calls = []

        def counting(configurations):
            calls.append(1)
            return digest_configurations(configurations)

        monkeypatch.setattr(suite_module, "digest_configurations", counting)
        suite = paper_suite(make_grid("T", 8), 4, n_random=5, seed=1)
        first = suite_fingerprint(suite)
        assert all(suite_fingerprint(suite) == first for _ in range(5))
        assert len(calls) == 1


# -- (b) a served workload is hashed once -------------------------------------


def test_hits_through_one_session_hash_the_suite_once(monkeypatch):
    calls = []

    def counting(configurations):
        calls.append(1)
        return digest_configurations(configurations)

    monkeypatch.setattr(suite_module, "digest_configurations", counting)
    monkeypatch.setattr(fitness_module, "digest_configurations", counting)
    paper_workload.cache_clear()   # the memo is shared process-wide
    n_requests = 12
    with EvaluationService(n_workers=1) as service:
        session = ServeSession(service)
        for _ in range(n_requests):
            _, future = session.submit_spec(_spec(0))
            assert future.result(timeout=120) == _expected(0)
        stats = session.stats()
    assert stats["simulated_fsms"] == 1
    assert stats["cache"]["hits"] == n_requests - 1
    assert len(calls) == 1


def test_a_session_fed_many_seeds_keeps_a_bounded_memo():
    session = ServeSession(_StalledService())
    watch = weakref.ref(session.build_request(dict(_spec(0), seed=0)).suite)
    for seed in range(1, WORKLOAD_MEMO_SIZE + 5):
        session.build_request(dict(_spec(0), seed=seed))
    assert paper_workload.cache_info().currsize <= WORKLOAD_MEMO_SIZE
    # neither the session nor the memo still holds the first seed's suite
    gc.collect()
    assert watch() is None


# -- (c) bare journaled requests ----------------------------------------------


class TestBareJournaledRequests:
    def test_journaled_but_never_registered(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        n = 4
        journal = RequestJournal(path)
        with EvaluationService(n_workers=1) as service:
            session = ServeSession(service, journal=journal)
            futures = [session.submit_spec(_spec(i))[1] for i in range(n)]
            got = [future.result(timeout=120) for future in futures]
            registry = session.idempotency.stats()
        journal.close()
        assert got == [_expected(i) for i in range(n)]
        assert registry["entries"] == 0
        assert registry["misses"] == 0
        records = _journal_records(path)
        accepts = [r["idem"] for r in records if r["t"] == RECORD_ACCEPT]
        commits = [r["idem"] for r in records if r["t"] == RECORD_COMMIT]
        assert len(set(accepts)) == n
        assert sorted(commits) == sorted(accepts)
        assert RequestJournal(path).replay_entries() == []

    def test_replay_simulates_each_uncommitted_request_once(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        n = 3
        # life 1: accepted durably, then the process dies before dispatch
        journal = RequestJournal(path)
        session = ServeSession(_StalledService(), journal=journal)
        for i in range(n):
            session.submit_spec(_spec(i))
        journal.close()
        assert len(RequestJournal(path).replay_entries()) == n

        # life 2: replay on a fresh service and cache
        journal2 = RequestJournal(path)
        with EvaluationService(n_workers=1) as service:
            session2 = ServeSession(service, journal=journal2)
            pending = [idem for idem, _ in journal2.replay_entries()]
            assert session2.replay_journal() == n
            futures = [session2.idempotency.get(idem) for idem in pending]
            got = [future.result(timeout=120) for future in futures]
        journal2.close()
        assert got == [_expected(i) for i in range(n)]
        assert service.stats.simulated_fsms == n
        assert RequestJournal(path).replay_entries() == []


# -- (d) bare traffic cannot evict a client's key -----------------------------


def test_bare_traffic_does_not_evict_a_keyed_entry(tmp_path):
    journal = RequestJournal(tmp_path / "journal.jsonl")
    with EvaluationService(n_workers=1) as service:
        session = ServeSession(service, journal=journal)
        session.idempotency = IdempotencyRegistry(max_entries=2)
        first = session.submit_spec(_spec(0, idem="client-key"))[1]
        assert first.result(timeout=120) == _expected(0)
        for i in range(1, 6):
            session.submit_spec(_spec(i))[1].result(timeout=120)
        retry = session.submit_spec(_spec(0, idem="client-key"))[1]
        assert retry.result(timeout=120) == _expected(0)
        registry = session.idempotency.stats()
    journal.close()
    assert registry["entries"] == 1
    assert registry["hits"] == 1
    assert registry["misses"] == 1


# -- (e) a settled entry holds its outcome, not its consumers -----------------


class TestSettledEntries:
    def test_consumer_copy_is_collectable_after_settling(self):
        registry = IdempotencyRegistry()
        original = Future()
        consumer = registry.resolve("k", lambda: original)
        watch = weakref.ref(consumer)
        original.set_result("done")
        assert consumer.result(1) == "done"
        del original, consumer   # the dispatcher and the client let go
        gc.collect()
        assert watch() is None
        # the key still dedupes: a retry attaches, nothing is resubmitted
        retry = registry.resolve("k", lambda: pytest.fail("resubmitted"))
        assert retry.result(1) == "done"
        assert registry.stats()["hits"] == 1

    @pytest.mark.parametrize("outcome", ["exception", "cancelled"])
    def test_failed_or_cancelled_entries_are_still_resubmitted(self, outcome):
        registry = IdempotencyRegistry()
        original = Future()
        registry.resolve("k", lambda: original)
        if outcome == "cancelled":
            original.cancel()
        else:
            original.set_exception(RuntimeError("injected"))
        entry = registry.get("k")
        assert entry is not original and entry.done()
        expected = CancelledError if outcome == "cancelled" else RuntimeError
        assert isinstance(entry.exception(), expected)
        fixed = Future()
        fixed.set_result("ok")
        assert registry.resolve("k", lambda: fixed).result(1) == "ok"
        assert registry.stats()["resubmitted"] == 1

    def test_concurrent_resolves_and_settles_submit_each_key_once(self):
        """Threads resolving shared keys race the threads settling them;
        every key still runs once and every entry ends as its outcome."""
        registry = IdempotencyRegistry()
        keys = [f"k{i}" for i in range(40)]
        originals = {}
        lock = threading.Lock()

        def submit(key):
            future = Future()
            with lock:
                assert key not in originals, f"{key} submitted twice"
                originals[key] = future
            if int(key[1:]) % 2:
                future.set_result(key)   # settles inside resolve()
            else:
                threading.Timer(0.001, future.set_result, (key,)).start()
            return future

        errors = []

        def client(seed):
            order = list(keys)
            random.Random(seed).shuffle(order)
            try:
                for key in order:
                    future = registry.resolve(key, lambda: submit(key))
                    assert future.result(timeout=10) == key
            except Exception as exc:   # surfaced by the main thread below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sorted(originals) == sorted(keys)
        stats = registry.stats()
        assert stats["misses"] == len(keys)
        assert stats["hits"] == 8 * len(keys) - len(keys)
        for key in keys:
            entry = registry.get(key)
            assert entry is not originals[key]
            assert entry.result(timeout=0) == key

    def test_cancel_reaches_an_unsettled_original(self):
        original = Future()

        class _Service:
            def submit(self, request):
                return original

        session = ServeSession(_Service())
        consumer = session.submit_spec(_spec(0, idem="hedge"))[1]
        assert session.idempotency.get("hedge") is original
        assert session.cancel_idem("hedge") is True
        assert original.cancelled()
        assert isinstance(consumer.exception(timeout=1), CancelledError)

    def test_served_consumer_is_collectable(self):
        with EvaluationService(n_workers=1) as service:
            session = ServeSession(service)
            _, consumer = session.submit_spec(_spec(0, idem="k"))
            assert consumer.result(timeout=120) == _expected(0)
            watch = weakref.ref(consumer)
            del consumer
            again = session.submit_spec(_spec(0, idem="k"))[1]
            assert again.result(timeout=120) == _expected(0)
            assert service.stats.simulated_fsms == 1
            # the idle dispatcher has let go of its last round; only the
            # session (and its registry entry under "k") is left
            gc.collect()
            assert watch() is None
            assert session.idempotency.stats()["entries"] == 1
