"""The evaluation service: batching, cache sharing, faults -- bit-exact.

The concurrency/determinism battery for :mod:`repro.service`: batched
and coalesced requests must return exactly what the serial
``evaluate_population`` returns, cache replays must hit without
re-simulating, completion out of submission order must not mix results
up, and a poisoned request must fail alone while the queue stays
drainable.
"""

import json
import os
import threading

import numpy as np
import pytest

from repro.configs.suite import paper_suite
from repro.core.fsm import FSM
from repro.core.published import published_fsm
from repro.evolution.fitness import (
    EvaluationCache,
    SuiteEvaluator,
    evaluate_population,
    evaluation_cache_key,
    suite_fingerprint,
)
from repro.grids import make_grid
from repro.service import (
    AdaptiveBatchPolicy,
    CacheStore,
    EvaluationRequest,
    EvaluationService,
    PersistentEvaluationCache,
    ServiceClient,
    ServiceError,
    WorkerCrashError,
    WorkerJobError,
    WorkerPool,
)
from repro.service.cache_store import decode_key, encode_key


# -- worker-pool job fixtures (top-level: workers pickle by reference) ------

def _double(x):
    return 2 * x


def _boom(x):
    raise ValueError(f"boom {x}")


def _die(x):
    os._exit(13)


class PoisonFSM(FSM):
    """A pill: ``key()``/pickling behave, simulating it raises.

    ``n_states`` is what :class:`BatchSimulator` reads first; arming the
    instance makes that read raise, so the failure happens mid-batch --
    inline or inside a worker process -- rather than at submission.
    """

    armed = False

    @property
    def n_states(self):
        if self.armed:
            raise RuntimeError("poison-pill FSM: refusing to simulate")
        return self.__dict__["n_states"]

    @n_states.setter
    def n_states(self, value):
        self.__dict__["n_states"] = value


@pytest.fixture(scope="module")
def setup():
    grid = make_grid("T", 8)
    suite = paper_suite(grid, 4, n_random=6, seed=1)
    fsms = [published_fsm("T")] + [
        FSM.random(np.random.default_rng(seed)) for seed in range(4)
    ]
    return grid, suite, fsms


def poison_fsm():
    base = published_fsm("T")
    pill = PoisonFSM(base.next_state, base.set_color, base.move, base.turn)
    pill.armed = True
    return pill


class TestWorkerPool:
    def test_inline_pool_runs_and_wraps_errors(self):
        pool = WorkerPool(1)
        assert pool.inline
        assert pool.map_ordered(_double, [1, 2, 3]) == [2, 4, 6]
        with pytest.raises(WorkerJobError):
            pool.map_ordered(_boom, [1])

    def test_sharded_results_keep_submission_order(self):
        with WorkerPool(2) as pool:
            assert pool.map_ordered(_double, list(range(7))) == [
                2 * x for x in range(7)
            ]
            assert pool.map_calls(
                [(_double, (10,), None), (_double, (20,), None)]
            ) == [20, 40]

    def test_job_error_leaves_pool_usable(self):
        with WorkerPool(2) as pool:
            with pytest.raises(WorkerJobError) as excinfo:
                pool.map_ordered(_boom, [1, 2])
            assert "boom" in str(excinfo.value)
            # the queue is drainable, not hung
            assert pool.map_ordered(_double, [5]) == [10]

    def test_worker_death_rebuilds_pool(self):
        with WorkerPool(2) as pool:
            with pytest.raises(WorkerCrashError):
                pool.map_ordered(_die, [1])
            assert pool.map_ordered(_double, [3, 4]) == [6, 8]


class TestServiceBitExact:
    def test_single_request_equals_serial(self, setup):
        grid, suite, fsms = setup
        serial = evaluate_population(grid, fsms, suite, t_max=60)
        with EvaluationService(n_workers=1) as service:
            batched = ServiceClient(service).evaluate(
                grid="T", size=8, agents=4, fields=6, seed=1, t_max=60,
                fsm=[{"genome": fsm.genome().tolist()} for fsm in fsms],
            )
        assert batched == serial

    def test_duplicate_fsms_resolved_per_slot(self, setup):
        grid, suite, fsms = setup
        doubled = [fsms[0], fsms[1], fsms[0], fsms[1], fsms[0]]
        serial = evaluate_population(grid, doubled, suite, t_max=60)
        with EvaluationService(n_workers=1) as service:
            batched = service.evaluate(grid, doubled, suite, t_max=60)
            assert batched == serial
            # duplicates simulated once
            assert service.stats.simulated_fsms == 2

    def test_coalesced_burst_equals_per_request_serial(self, setup):
        grid, suite, fsms = setup
        serial = [
            evaluate_population(grid, [fsm], suite, t_max=60)[0]
            for fsm in fsms
        ]
        service = EvaluationService(n_workers=1, autostart=False)
        with service:
            futures = [
                service.submit(EvaluationRequest(grid, [fsm], suite, t_max=60))
                for fsm in fsms
            ]
            service.start()
            batched = [future.result(timeout=60)[0] for future in futures]
            assert batched == serial
            # the whole burst ran as one coalesced batch
            assert service.stats.batches == 1
            assert service.stats.coalesced_requests == len(fsms) - 1
            assert service.stats.completed == len(fsms)

    def test_generator_suite_is_read_once_and_evaluated_whole(self, setup):
        """Regression: fingerprinting consumed a generator suite, so the
        request counted 0 lanes and would have evaluated nothing."""
        grid, suite, fsms = setup
        fields = list(suite)
        request = EvaluationRequest(
            grid, fsms, (config for config in fields), t_max=60
        )
        assert request.n_lanes == len(fsms) * len(fields)
        assert request.suite_fp == EvaluationRequest(
            grid, fsms, suite, t_max=60
        ).suite_fp
        serial = evaluate_population(grid, fsms, suite, t_max=60)
        with EvaluationService(n_workers=1) as service:
            assert service.submit(request).result(timeout=60) == serial

    def test_sharded_service_equals_serial(self, setup):
        grid, suite, fsms = setup
        serial = evaluate_population(grid, fsms, suite, t_max=60)
        with EvaluationService(n_workers=2) as service:
            assert service.evaluate(grid, fsms, suite, t_max=60) == serial

    def test_threaded_submissions_all_complete(self, setup):
        grid, suite, fsms = setup
        serial = evaluate_population(grid, fsms[:2], suite, t_max=60)
        results = {}
        with EvaluationService(n_workers=1) as service:
            def submit(index):
                results[index] = service.evaluate(
                    grid, fsms[:2], suite, t_max=60, timeout=60
                )

            threads = [
                threading.Thread(target=submit, args=(index,))
                for index in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert all(results[index] == serial for index in range(4))


class TestCacheSharing:
    def test_replay_hits_cache_without_resimulating(self, setup):
        grid, suite, fsms = setup
        with EvaluationService(n_workers=1) as service:
            first = service.evaluate(grid, fsms, suite, t_max=60)
            simulated = service.stats.simulated_fsms
            hits_before = service.cache.hits
            replay = service.evaluate(grid, fsms, suite, t_max=60)
            assert replay == first
            assert service.stats.simulated_fsms == simulated
            assert service.cache.hits > hits_before

    def test_t_max_is_part_of_the_key(self, setup):
        grid, suite, fsms = setup
        fsm = fsms[0]
        with EvaluationService(n_workers=1) as service:
            generous = service.evaluate(grid, [fsm], suite, t_max=200)[0]
            starved = service.evaluate(grid, [fsm], suite, t_max=2)[0]
            # a stale cross-serve would have returned the generous result
            assert service.stats.simulated_fsms == 2
            assert starved != generous
            assert not starved.completely_successful

    def test_suite_contents_are_part_of_the_key(self, setup):
        grid, suite, fsms = setup
        other = paper_suite(grid, 4, n_random=6, seed=99)
        assert suite_fingerprint(suite) != suite_fingerprint(other)
        with EvaluationService(n_workers=1) as service:
            service.evaluate(grid, [fsms[0]], suite, t_max=60)
            service.evaluate(grid, [fsms[0]], other, t_max=60)
            assert service.stats.simulated_fsms == 2

    def test_grid_type_is_part_of_the_key(self, setup):
        _, _, fsms = setup
        s_grid, t_grid = make_grid("S", 8), make_grid("T", 8)
        # one config list valid on both grids: headings < 4 fit S and T
        configs = list(paper_suite(s_grid, 3, n_random=4, seed=5))
        fsm = published_fsm("S")
        key_s = evaluation_cache_key(
            s_grid, suite_fingerprint(configs), 60, fsm
        )
        key_t = evaluation_cache_key(
            t_grid, suite_fingerprint(configs), 60, fsm
        )
        assert key_s != key_t
        with EvaluationService(n_workers=1) as service:
            on_s = service.evaluate(s_grid, [fsm], configs, t_max=60)[0]
            on_t = service.evaluate(t_grid, [fsm], configs, t_max=60)[0]
            assert service.stats.simulated_fsms == 2
            assert on_s != on_t  # the S-agent behaves differently on T


class TestSuiteEvaluatorKeys:
    """Regression: the memo key covers every result-changing knob."""

    def test_shared_cache_is_safe_across_t_max(self, setup):
        grid, suite, fsms = setup
        cache = EvaluationCache()
        generous = SuiteEvaluator(grid, suite, t_max=200, cache=cache)
        starved = SuiteEvaluator(grid, suite, t_max=2, cache=cache)
        a = generous(fsms[0])
        b = starved(fsms[0])
        assert a != b
        assert generous.evaluations == 1 and starved.evaluations == 1

    def test_shared_cache_reuses_identical_knobs(self, setup):
        grid, suite, fsms = setup
        cache = EvaluationCache()
        first = SuiteEvaluator(grid, suite, t_max=60, cache=cache)
        second = SuiteEvaluator(grid, suite, t_max=60, cache=cache)
        outcomes = first.evaluate_many(fsms)
        assert second.evaluate_many(fsms) == outcomes
        assert second.evaluations == 0  # everything served from the share

    def test_lane_block_and_workers_do_not_key(self, setup):
        grid, suite, fsms = setup
        cache = EvaluationCache()
        chunky = SuiteEvaluator(
            grid, suite, t_max=60, lane_block=7, cache=cache
        )
        plain = SuiteEvaluator(grid, suite, t_max=60, cache=cache)
        assert chunky(fsms[1]) == plain(fsms[1])
        assert plain.evaluations == 0  # layout knobs share one cache slot


class TestOutOfOrderCompletion:
    def test_groups_complete_out_of_submission_order(self, setup):
        grid, suite, fsms = setup
        other = paper_suite(grid, 4, n_random=6, seed=42)
        completion_order = []
        service = EvaluationService(n_workers=1, autostart=False)
        with service:
            def tracked(request_id, request):
                future = service.submit(request)
                future.add_done_callback(
                    lambda _: completion_order.append(request_id)
                )
                return future

            f1 = tracked(1, EvaluationRequest(grid, [fsms[0]], suite, t_max=60))
            f2 = tracked(2, EvaluationRequest(grid, [fsms[0]], other, t_max=60))
            f3 = tracked(3, EvaluationRequest(grid, [fsms[1]], suite, t_max=60))
            service.start()
            results = {
                1: f1.result(timeout=60),
                2: f2.result(timeout=60),
                3: f3.result(timeout=60),
            }
        # requests 1 and 3 coalesce; 3 overtakes 2 despite later submission
        assert completion_order == [1, 3, 2]
        assert results[1] == evaluate_population(
            grid, [fsms[0]], suite, t_max=60
        )
        assert results[2] == evaluate_population(
            grid, [fsms[0]], other, t_max=60
        )
        assert results[3] == evaluate_population(
            grid, [fsms[1]], suite, t_max=60
        )


class TestFaultPaths:
    def test_poisoned_request_fails_alone_queue_drains(self, setup):
        grid, suite, fsms = setup
        service = EvaluationService(n_workers=1, autostart=False)
        with service:
            bad = service.submit(
                EvaluationRequest(grid, [poison_fsm()], suite, t_max=60)
            )
            good = service.submit(
                EvaluationRequest(grid, [fsms[1]], suite, t_max=60)
            )
            service.start()
            with pytest.raises(ServiceError) as excinfo:
                bad.result(timeout=60)
            assert "poison" in str(excinfo.value)
            # the queue drained past the failure
            assert good.result(timeout=60) == evaluate_population(
                grid, [fsms[1]], suite, t_max=60
            )
            assert service.stats.failed == 1
            assert service.stats.completed == 1

    def test_poison_in_worker_process_surfaces_and_drains(self, setup):
        grid, suite, fsms = setup
        pills = [poison_fsm(), poison_fsm()]
        with EvaluationService(n_workers=2) as service:
            with pytest.raises(ServiceError):
                service.evaluate(grid, pills, suite, t_max=60, timeout=60)
            follow_up = service.evaluate(
                grid, fsms[:2], suite, t_max=60, timeout=60
            )
            assert follow_up == evaluate_population(
                grid, fsms[:2], suite, t_max=60
            )

    def test_submit_after_close_raises(self, setup):
        grid, suite, fsms = setup
        service = EvaluationService(n_workers=1)
        service.close()
        with pytest.raises(ServiceError):
            service.submit(EvaluationRequest(grid, [fsms[0]], suite))


class TestServeCli:
    def test_json_lines_round_trip(self, setup, monkeypatch, capsys):
        import io

        from repro.cli import main

        lines = [
            json.dumps({"id": "a", "grid": "T", "size": 8, "agents": 4,
                        "fields": 5, "t_max": 80}),
            json.dumps({"id": "b", "grid": "T", "size": 8, "agents": 4,
                        "fields": 5, "t_max": 80}),
            json.dumps({"id": "c", "grid": "S", "size": 8, "agents": 4,
                        "fields": 5, "t_max": 200, "fsm": "evolved"}),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["serve", "--workers", "1", "--stats"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        responses = {row["id"]: row for row in map(json.loads, out)}
        assert set(responses) == {"a", "b", "c"}
        assert responses["a"]["outcomes"] == responses["b"]["outcomes"]
        for row in responses.values():
            assert row["outcomes"][0]["completely_successful"] is True

    def test_bad_line_reports_error_and_exit_code(self, monkeypatch, capsys):
        import io

        from repro.cli import main

        stream = "{\"grid\": \"X\"}\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(stream))
        assert main(["serve", "--workers", "1"]) == 1
        out = capsys.readouterr().out
        assert "error" in out


class TestAdaptiveBatchPolicy:
    """Unit behavior of the width controller, no service involved."""

    def test_grows_double_under_pressure_capped(self):
        policy = AdaptiveBatchPolicy(
            min_lanes=4, initial_lanes=4, max_lanes=16
        )
        policy.observe(batch_lanes=4, n_groups=1, pressure=True)
        assert policy.width == 8
        policy.observe(batch_lanes=8, n_groups=1, pressure=True)
        policy.observe(batch_lanes=16, n_groups=1, pressure=True)
        assert policy.width == 16   # capped at max_lanes
        assert policy.grows == 2    # the capped round did not count

    def test_shrinks_halve_on_mixed_groups_floored(self):
        policy = AdaptiveBatchPolicy(
            min_lanes=4, initial_lanes=16, max_lanes=16
        )
        policy.observe(batch_lanes=8, n_groups=2, pressure=False)
        assert policy.width == 8
        policy.observe(batch_lanes=8, n_groups=3, pressure=False)
        policy.observe(batch_lanes=4, n_groups=2, pressure=False)
        assert policy.width == 4    # floored at min_lanes
        assert policy.shrinks == 2

    def test_steady_state_leaves_width_alone(self):
        policy = AdaptiveBatchPolicy(
            min_lanes=4, initial_lanes=8, max_lanes=16
        )
        policy.observe(batch_lanes=6, n_groups=1, pressure=False)
        assert policy.width == 8
        assert (policy.grows, policy.shrinks, policy.rounds) == (0, 0, 1)

    def test_rejects_inconsistent_bounds(self):
        with pytest.raises(ValueError):
            AdaptiveBatchPolicy(min_lanes=8, initial_lanes=4, max_lanes=16)

    def test_snapshot_reports_history(self):
        policy = AdaptiveBatchPolicy(
            min_lanes=4, initial_lanes=4, max_lanes=16
        )
        policy.observe(batch_lanes=4, n_groups=1, pressure=True)
        snap = policy.snapshot()
        assert snap["width"] == 8
        assert snap["grows"] == 1
        assert snap["rounds"] == 1
        assert snap["recent_widths"] == [4]
        assert snap["recent_batch_lanes"] == [4]


class TestAdaptiveService:
    """The policy inside a live dispatcher: adapts, never changes results."""

    def test_width_grows_under_queue_pressure(self, setup):
        grid, suite, fsms = setup
        lanes = len(suite)   # one single-FSM request = len(suite) lanes
        policy = AdaptiveBatchPolicy(
            min_lanes=lanes, initial_lanes=lanes, max_lanes=4 * lanes
        )
        serial = [
            evaluate_population(grid, [fsm], suite, t_max=60)[0]
            for fsm in fsms
        ]
        with EvaluationService(
            n_workers=1, autostart=False, batch_policy=policy
        ) as service:
            futures = [
                service.submit(EvaluationRequest(grid, [fsm], suite, t_max=60))
                for fsm in fsms
            ]
            service.start()
            assert [f.result(60)[0] for f in futures] == serial
        assert policy.grows >= 1
        assert policy.width > lanes
        assert service.snapshot()["adaptive"]["width"] == policy.width

    def test_width_shrinks_on_mixed_batch_keys(self, setup):
        grid, suite, fsms = setup
        lanes = len(suite)
        policy = AdaptiveBatchPolicy(
            min_lanes=lanes, initial_lanes=8 * lanes, max_lanes=8 * lanes
        )
        with EvaluationService(
            n_workers=1, autostart=False, batch_policy=policy
        ) as service:
            futures = [
                service.submit(
                    EvaluationRequest(grid, [fsms[0]], suite, t_max=t_max)
                )
                for t_max in (50, 60)   # distinct keys: two batch groups
            ]
            service.start()
            for future in futures:
                future.result(60)
        assert policy.shrinks >= 1
        assert policy.width < 8 * lanes

    def test_tiny_fixed_width_stays_bit_exact(self, setup):
        grid, suite, fsms = setup
        lanes = len(suite)
        policy = AdaptiveBatchPolicy(
            min_lanes=lanes, initial_lanes=lanes, max_lanes=lanes
        )
        serial = evaluate_population(grid, fsms, suite, t_max=60)
        with EvaluationService(
            n_workers=1, autostart=False, batch_policy=policy
        ) as service:
            futures = [
                service.submit(EvaluationRequest(grid, [fsm], suite, t_max=60))
                for fsm in fsms
            ]
            service.start()
            assert [f.result(60)[0] for f in futures] == serial
        assert policy.rounds >= len(fsms)   # one request per round at most

    @pytest.mark.parametrize("fixed", [False, True])
    def test_mixed_kinds_and_budgets_stay_bit_exact(self, setup, fixed):
        # alternating grid kinds and step budgets: no two neighbouring
        # requests may share a batch, whatever width the policy runs at
        _, _, fsms = setup
        grids = {kind: make_grid(kind, 8) for kind in ("S", "T")}
        suites = {
            kind: paper_suite(grid, 4, n_random=6, seed=1)
            for kind, grid in grids.items()
        }
        workload = [
            ("ST"[index % 2], (50, 60)[index // 2 % 2], fsm)
            for index, fsm in enumerate(fsms * 2)
        ]
        serial = [
            evaluate_population(grids[kind], [fsm], suites[kind],
                                t_max=t_max)[0]
            for kind, t_max, fsm in workload
        ]
        lanes = len(suites["T"])
        policy = (
            AdaptiveBatchPolicy(
                min_lanes=lanes, initial_lanes=lanes, max_lanes=lanes
            )
            if fixed else AdaptiveBatchPolicy()
        )
        with EvaluationService(
            n_workers=1, autostart=False, batch_policy=policy
        ) as service:
            futures = [
                service.submit(EvaluationRequest(
                    grids[kind], [fsm], suites[kind], t_max=t_max
                ))
                for kind, t_max, fsm in workload
            ]
            service.start()
            assert [f.result(60)[0] for f in futures] == serial
        assert service.stats.simulated_fsms == len(workload)


class TestPersistentCache:
    """The JSONL store: survives processes, writers, and torn tails."""

    def _keys(self, grid, suite, fsms, t_max=60):
        fingerprint = suite_fingerprint(suite)
        return [
            evaluation_cache_key(grid, fingerprint, t_max, fsm)
            for fsm in fsms
        ]

    def test_pickled_cache_is_a_fresh_store_on_the_same_file(
        self, setup, tmp_path
    ):
        """Regression: pickling raised on the store's lock."""
        import pickle

        grid, suite, fsms = setup
        keys = self._keys(grid, suite, fsms[:2])
        outcomes = evaluate_population(grid, fsms[:2], suite, t_max=60)
        cache = PersistentEvaluationCache(tmp_path / "store.jsonl")
        cache.put(keys[0], outcomes[0])
        copy = pickle.loads(pickle.dumps(cache))
        assert copy.get(keys[0]) == outcomes[0]
        copy.put(keys[1], outcomes[1])
        cache.close()
        copy.close()
        revived = PersistentEvaluationCache(tmp_path / "store.jsonl")
        assert revived.warm() == 2

    def test_round_trip_across_instances(self, setup, tmp_path):
        grid, suite, fsms = setup
        path = tmp_path / "store.jsonl"
        serial = evaluate_population(grid, fsms, suite, t_max=60)

        with EvaluationService(
            n_workers=1, cache=PersistentEvaluationCache(path)
        ) as service:
            assert service.evaluate(grid, fsms, suite, t_max=60) == serial
            assert service.stats.simulated_fsms == len(fsms)

        # a "new process": a fresh cache instance over the same file
        revived = PersistentEvaluationCache(path)
        assert revived.warm() == len(fsms)
        with EvaluationService(n_workers=1, cache=revived) as service:
            assert service.evaluate(grid, fsms, suite, t_max=60) == serial
            assert service.stats.simulated_fsms == 0   # all store hits

    def test_membership_and_len_load_a_reopened_store(self, setup, tmp_path):
        grid, suite, fsms = setup
        path = tmp_path / "store.jsonl"
        key, other = self._keys(grid, suite, fsms[:2])
        outcome = evaluate_population(grid, fsms[:1], suite, t_max=60)[0]
        with CacheStore(path) as store:
            store.append(key, outcome)
        for probe in (lambda cache: key in cache, len):
            revived = PersistentEvaluationCache(path)
            assert probe(revived) == 1   # no get() has loaded it first
            assert revived.stats()["persistent"]["loaded"]
            revived.close()
        revived = PersistentEvaluationCache(path)
        assert other not in revived
        stats = revived.stats()
        assert (stats["hits"], stats["misses"]) == (0, 0)   # not lookups
        revived.close()

    def test_torn_tail_is_truncated_and_store_continues(
        self, setup, tmp_path
    ):
        grid, suite, fsms = setup
        path = tmp_path / "store.jsonl"
        outcomes = evaluate_population(grid, fsms[:2], suite, t_max=60)
        keys = self._keys(grid, suite, fsms[:2])
        with CacheStore(path) as store:
            for key, outcome in zip(keys, outcomes):
                store.append(key, outcome)
        intact_size = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b'{"v":1,"k":["T",8')   # a writer died mid-append

        revived = PersistentEvaluationCache(path)
        assert revived.warm() == 2
        assert revived.store.recovered_records == 2
        assert revived.store.dropped_bytes > 0
        assert path.stat().st_size == intact_size   # tail truncated away
        assert revived.get(keys[0]) == outcomes[0]

        # the truncated store keeps accepting appends
        extra_key = self._keys(grid, suite, [fsms[2]])[0]
        extra = evaluate_population(grid, [fsms[2]], suite, t_max=60)[0]
        revived.put(extra_key, extra)
        revived.close()
        third = PersistentEvaluationCache(path)
        assert third.warm() == 3
        assert third.get(extra_key) == extra

    def test_concurrent_writers_all_records_survive(self, setup, tmp_path):
        grid, suite, fsms = setup
        path = tmp_path / "store.jsonl"
        outcomes = evaluate_population(grid, fsms, suite, t_max=60)
        keys = self._keys(grid, suite, fsms)
        caches = [PersistentEvaluationCache(path) for _ in range(2)]

        def writer(cache, pairs):
            for key, outcome in pairs:
                cache.put(key, outcome)

        pairs = list(zip(keys, outcomes))
        threads = [
            threading.Thread(target=writer, args=(cache, pairs[i::2]))
            for i, cache in enumerate(caches)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for cache in caches:
            cache.close()

        merged = PersistentEvaluationCache(path)
        assert merged.warm() == len(fsms)
        for key, outcome in pairs:
            assert merged.get(key) == outcome

    def test_put_does_not_reappend_store_served_values(
        self, setup, tmp_path
    ):
        grid, suite, fsms = setup
        path = tmp_path / "store.jsonl"
        key = self._keys(grid, suite, fsms[:1])[0]
        outcome = evaluate_population(grid, fsms[:1], suite, t_max=60)[0]

        cache = PersistentEvaluationCache(path)
        cache.put(key, outcome)
        cache.put(key, outcome)   # idempotent: the store already has it
        cache.close()
        with open(path) as handle:
            assert len(handle.read().splitlines()) == 1

        again = PersistentEvaluationCache(path)
        again.warm()
        again.put(key, outcome)   # store-served value: still no re-append
        again.close()
        with open(path) as handle:
            assert len(handle.read().splitlines()) == 1

    def test_key_codec_round_trips(self, setup):
        grid, suite, fsms = setup
        key = self._keys(grid, suite, fsms[:1])[0]
        assert decode_key(json.loads(json.dumps(encode_key(key)))) == key

    def test_stats_expose_persistence(self, setup, tmp_path):
        grid, suite, fsms = setup
        path = tmp_path / "store.jsonl"
        cache = PersistentEvaluationCache(path)
        assert cache.stats()["persistent"]["loaded"] is False
        cache.warm()
        counters = cache.stats()["persistent"]
        assert counters["loaded"] is True
        assert counters["path"] == str(path)


class TestLegacyTimeoutSpelling:
    """``request_timeout=`` (the transport-side spelling) forwards."""

    def test_request_timeout_forwards_with_a_deprecation_warning(self):
        import warnings

        with EvaluationService(n_workers=1) as service:
            client = ServiceClient(service)
            spec = {
                "grid": "T", "size": 8, "agents": 4, "fields": 2,
                "seed": 77, "t_max": 40, "fsm": "published",
            }
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                results = client.evaluate(request_timeout=60.0, **spec)
            assert len(results) == 1
            deprecations = [
                w for w in caught
                if issubclass(w.category, DeprecationWarning)
                and "request_timeout" in str(w.message)
            ]
            assert len(deprecations) == 1
            assert "timeout" in str(deprecations[0].message)
            # the modern spelling stays silent
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                again = client.evaluate(timeout=60.0, **spec)
            assert again == results
            assert not [
                w for w in caught
                if issubclass(w.category, DeprecationWarning)
            ]

    def test_legacy_retry_policy_spelling_warns_and_forwards(self):
        from repro.resilience import RetryPolicy

        policy = RetryPolicy(seed=0)
        service = EvaluationService(n_workers=1, autostart=False)
        try:
            with pytest.warns(DeprecationWarning, match="retry_policy"):
                client = ServiceClient(service, retry_policy=policy)
            assert client.options.retry_policy is policy
            assert client.retry_policy is policy
        finally:
            service.close()

    def test_legacy_spelling_still_enforces_the_timeout(self):
        service = EvaluationService(n_workers=1, autostart=False)
        try:
            client = ServiceClient(service)
            spec = {
                "grid": "T", "size": 8, "agents": 4, "fields": 2,
                "seed": 78, "t_max": 40, "fsm": "published",
            }
            # dispatcher never started: the forwarded budget must fire
            with pytest.warns(DeprecationWarning, match="request_timeout"):
                with pytest.raises(Exception):
                    client.evaluate(request_timeout=0.1, **spec)
        finally:
            service.close()
