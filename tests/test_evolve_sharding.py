"""``evolve`` on a run-owned worker pool is the serial GA, bit for bit.

Each generation's fresh FSMs go to at most as many worker shards as the
serial block loop would run batches (``count_batches``); the run owns
the pool, forks it lazily, joins it before returning, and forks nothing
when only one core is available.
"""

import functools
import multiprocessing
import os
import shutil
from types import SimpleNamespace

import numpy as np
import pytest

from tests.conftest import GatewayInThread

from repro.configs.suite import paper_suite
from repro.core.fsm import FSM
from repro.core.vectorized import BatchSimulator
from repro.evolution.fitness import (
    count_batches,
    evaluate_population,
    kernel_wrapped,
)
from repro.evolution.runner import EvolutionSettings, evolve
from repro.grids import make_grid
from repro.resilience.checkpoint import load_checkpoint
from repro.service import EvaluationService, HTTPServiceClient
from repro.service import pool as pool_module
from repro.service.pool import WorkerPool, available_cores

SETTINGS = EvolutionSettings(n_generations=6, t_max=60, seed=3)
#: small enough that 10 offspring over the suite need two batches
SHARDING_BLOCK = 64


@pytest.fixture(scope="module")
def problem():
    grid = make_grid("T", 8)
    return grid, paper_suite(grid, 5, n_random=10, seed=1)


@pytest.fixture
def pool_jobs(monkeypatch):
    """Counts the jobs every :class:`WorkerPool` is handed."""
    jobs = []
    original = WorkerPool.map_ordered

    def counting(self, fn, payloads):
        payloads = list(payloads)
        jobs.append(len(payloads))
        return original(self, fn, payloads)

    monkeypatch.setattr(WorkerPool, "map_ordered", counting)
    return jobs


def assert_same_run(got, want):
    assert got.history == want.history
    mine, theirs = got.population, want.population
    assert [i.fsm.key() for i in mine.individuals] == [
        i.fsm.key() for i in theirs.individuals
    ]
    assert [i.fitness for i in mine.individuals] == [
        i.fitness for i in theirs.individuals
    ]
    assert mine.rng.bit_generator.state == theirs.rng.bit_generator.state
    assert mine.evaluator.cache._store == theirs.evaluator.cache._store


class TestBatchCount:
    def test_paper_offspring_split_and_test_suites_stay_inline(self):
        paper = [SimpleNamespace(n_agents=8)] * 1003
        assert count_batches(10, paper) == 3     # 4 + 4 + 2 FSMs of 4096
        assert count_batches(20, paper) == 5
        assert count_batches(10, paper[:53]) == 1
        assert count_batches(0, paper) == 0
        assert count_batches(10, []) == 0

    @pytest.mark.parametrize("lane_block", ["auto", None, 1, 7, 20, 64])
    def test_equals_the_batches_the_block_loop_runs(self, problem,
                                                    lane_block):
        grid, suite = problem
        fsms = [FSM.random(np.random.default_rng(i)) for i in range(7)]
        stats = {}
        evaluate_population(grid, fsms, suite, t_max=5,
                            lane_block=lane_block, stream_stats=stats)
        assert count_batches(len(fsms), suite, lane_block) == stats[
            "n_blocks"]


class TestShardedEvolve:
    def test_sharded_run_equals_serial(self, problem, pool_jobs):
        grid, suite = problem
        serial = evolve(grid, suite, SETTINGS, n_workers=1,
                        lane_block=SHARDING_BLOCK)
        assert pool_jobs == []
        sharded = evolve(grid, suite, SETTINGS, n_workers=2,
                         lane_block=SHARDING_BLOCK)
        # generation 0 and every offspring generation went to 2 shards
        assert pool_jobs == [2] * (SETTINGS.n_generations + 1)
        assert_same_run(sharded, serial)
        assert not multiprocessing.active_children()
        evaluator = sharded.population.evaluator
        assert evaluator.pool is None and evaluator.n_workers == 1

    def test_one_batch_generations_never_fork(self, problem, pool_jobs):
        grid, suite = problem
        evolve(grid, suite, SETTINGS, n_workers=2)
        assert pool_jobs == []

    def test_owned_pool_no_larger_than_generation_zero(self, problem,
                                                       monkeypatch):
        grid, suite = problem
        lane_block = 100
        cap = count_batches(SETTINGS.pool_size, suite, lane_block)
        assert 1 < cap < 4
        sizes, alive = [], []

        class Recording(WorkerPool):
            def __init__(self, n_workers=None, **kwargs):
                sizes.append(n_workers)
                super().__init__(n_workers, **kwargs)

        def count_workers(record):
            alive.append(len(multiprocessing.active_children()))

        monkeypatch.setattr(pool_module, "WorkerPool", Recording)
        serial = evolve(grid, suite, SETTINGS, n_workers=1,
                        lane_block=lane_block)
        sharded = evolve(grid, suite, SETTINGS, n_workers=4,
                         lane_block=lane_block, progress=count_workers)
        assert sizes == [cap]
        assert max(alive) == cap
        assert_same_run(sharded, serial)

    def test_wrapped_kernel_keeps_the_default_run_in_process(
            self, problem, pool_jobs, monkeypatch):
        grid, suite = problem
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        runs = []
        original = BatchSimulator.run

        @functools.wraps(original)
        def counted(self, *args, **kwargs):
            runs.append(1)
            return original(self, *args, **kwargs)

        assert not kernel_wrapped()
        monkeypatch.setattr(BatchSimulator, "run", counted)
        assert kernel_wrapped()
        serial = evolve(grid, suite, SETTINGS, n_workers=1,
                        lane_block=SHARDING_BLOCK)
        in_process = len(runs)
        default = evolve(grid, suite, SETTINGS, lane_block=SHARDING_BLOCK)
        assert pool_jobs == []
        assert len(runs) == 2 * in_process
        assert_same_run(default, serial)

    def test_checkpoint_resumed_under_the_pool(self, problem, tmp_path):
        grid, suite = problem

        def checkpointed(name, n_workers):
            checkpoint = tmp_path / f"{name}.ckpt"
            mid_run = tmp_path / f"{name}-gen-3.ckpt"

            def copy_mid_run(record):
                # generation 4's record lands after the gen-3 snapshot
                if record.generation == 4:
                    shutil.copy(checkpoint, mid_run)

            result = evolve(grid, suite, SETTINGS, n_workers=n_workers,
                            lane_block=SHARDING_BLOCK,
                            checkpoint_path=checkpoint,
                            progress=copy_mid_run)
            return result, mid_run

        serial, serial_mid = checkpointed("serial", 1)
        pooled, pooled_mid = checkpointed("pooled", 2)
        assert_same_run(pooled, serial)
        assert load_checkpoint(pooled_mid, kind="evolve")[
            "population"].evaluator.pool is None
        for mid_run in (serial_mid, pooled_mid):
            resumed = evolve(grid, suite, SETTINGS, n_workers=2,
                             lane_block=SHARDING_BLOCK, resume_from=mid_run)
            assert_same_run(resumed, serial)
        assert not multiprocessing.active_children()

    def test_workers_exit_when_the_run_raises(self, problem):
        grid, suite = problem

        def fail_at_generation_two(record):
            if record.generation == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            evolve(grid, suite, SETTINGS, n_workers=2,
                   lane_block=SHARDING_BLOCK,
                   progress=fail_at_generation_two)
        assert not multiprocessing.active_children()


def refuse(*args, **kwargs):
    raise AssertionError("built a worker pool or forked")


class TestServedEvolve:
    def test_served_evolve_runs_serially(self, monkeypatch):
        with EvaluationService(n_workers=1) as service:
            monkeypatch.setattr(pool_module, "WorkerPool", refuse)
            with GatewayInThread(service) as gw:
                with HTTPServiceClient(gw.address) as client:
                    result = client.evolve(
                        grid="T", size=8, agents=4, fields=2, seed=5,
                        n_generations=2, pool_size=4, exchange_width=1,
                        t_max=30,
                    )
        assert result["generations"] == 3


class TestAvailableCores:
    def test_affinity_bounds_the_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3},
                            raising=False)
        assert available_cores() == 1
        assert WorkerPool().n_workers == 1

    def test_one_core_neither_forks_nor_builds_a_pool(self, problem,
                                                      monkeypatch):
        grid, suite = problem
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(pool_module, "WorkerPool", refuse)
        monkeypatch.setattr(os, "fork", refuse)
        serial = evolve(grid, suite, SETTINGS, n_workers=1,
                        lane_block=SHARDING_BLOCK)
        default = evolve(grid, suite, SETTINGS, lane_block=SHARDING_BLOCK)
        assert_same_run(default, serial)


class TestPoolClose:
    def test_close_joins_the_workers(self):
        pool = WorkerPool(2)
        assert pool.map_ordered(abs, [-1, -2, -3]) == [1, 2, 3]
        assert multiprocessing.active_children()
        pool.close()
        assert not multiprocessing.active_children()
