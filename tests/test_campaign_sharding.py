"""Sharded experiment protocols are bit-exact versus their serial paths.

Every sharded code path -- ``evaluate_population`` lane chunks,
``multi_run`` whole-run jobs, the Table 1 / 33 x 33 cell jobs, and the
end-to-end ``run_campaign`` -- must produce *exactly* the result of the
serial loop, because sharding only relocates independent work.  The
hypothesis sweep drives the core claim across grid kind, agent count,
lane chunking and worker counts with one seeded, derandomized net.
"""

import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.configs.suite import paper_suite
from repro.core.fsm import FSM
from repro.evolution.fitness import evaluate_population
from repro.evolution.runner import EvolutionSettings, multi_run
from repro.experiments.campaign import CampaignSettings, run_campaign
from repro.experiments.grid33 import run_grid33
from repro.experiments.table1 import run_table1
from repro.grids import make_grid
from repro.service import WorkerPool


TINY_EVOLUTION = EvolutionSettings(
    n_generations=2, pool_size=6, exchange_width=2, t_max=40, seed=3
)

TINY_CAMPAIGN = CampaignSettings(
    n_random=2, ablation_fields=2, seed=7, t_max=60,
    include_grid33=False, include_ablations=True,
)


def history_rows(results):
    return [result.history for result in results]


class TestMultiRunSharding:
    def test_sharded_runs_equal_serial(self):
        grid = make_grid("T", 6)
        suite = paper_suite(grid, 2, n_random=2, seed=5)
        serial_results, serial_candidates = multi_run(
            grid, suite, n_runs=3, settings=TINY_EVOLUTION, n_workers=1
        )
        sharded_results, sharded_candidates = multi_run(
            grid, suite, n_runs=3, settings=TINY_EVOLUTION, n_workers=2
        )
        assert not multiprocessing.active_children()   # pool joined
        assert history_rows(sharded_results) == history_rows(serial_results)
        assert [r.best.fsm.key() for r in sharded_results] == [
            r.best.fsm.key() for r in serial_results
        ]
        assert [c.key() for c in sharded_candidates] == [
            c.key() for c in serial_candidates
        ]
        assert [c.name for c in sharded_candidates] == [
            c.name for c in serial_candidates
        ]

    def test_external_pool_is_honoured(self):
        grid = make_grid("S", 6)
        suite = paper_suite(grid, 2, n_random=2, seed=5)
        serial = multi_run(
            grid, suite, n_runs=2, settings=TINY_EVOLUTION, n_workers=1
        )
        with WorkerPool(2) as pool:
            pooled = multi_run(
                grid, suite, n_runs=2, settings=TINY_EVOLUTION, pool=pool
            )
        assert history_rows(pooled[0]) == history_rows(serial[0])
        assert [c.key() for c in pooled[1]] == [c.key() for c in serial[1]]


class TestExperimentSharding:
    def test_table1_cells_shard_bit_exact(self):
        serial = run_table1(
            size=8, agent_counts=(2, 4), n_random=2, seed=9, t_max=80
        )
        with WorkerPool(2) as pool:
            sharded = run_table1(
                size=8, agent_counts=(2, 4), n_random=2, seed=9, t_max=80,
                pool=pool,
            )
        assert sharded == serial

    def test_grid33_kinds_shard_bit_exact(self):
        serial = run_grid33(n_agents=4, size=12, n_random=2, seed=9,
                            t_max=150)
        with WorkerPool(2) as pool:
            sharded = run_grid33(n_agents=4, size=12, n_random=2, seed=9,
                                 t_max=150, pool=pool)
        assert sharded.mean_time == serial.mean_time
        assert sharded.reliable == serial.reliable
        assert sharded.n_fields == serial.n_fields


class TestCampaignSharding:
    def test_sharded_campaign_report_equals_serial(self):
        quiet = lambda *_: None
        serial = run_campaign(TINY_CAMPAIGN, log=quiet).to_dict()
        sharded = run_campaign(
            TINY_CAMPAIGN, log=quiet, n_workers=2
        ).to_dict()
        assert not multiprocessing.active_children()   # pool joined
        serial.pop("wall_seconds", None)
        sharded.pop("wall_seconds", None)
        assert sharded == serial


# -- the seeded property sweep over the core sharded evaluator --------------

_BASELINES = {}


def _monolithic(kind, size, k, seed):
    """Serial, unchunked, single-process reference outcomes (memoized)."""
    case = (kind, size, k, seed)
    if case not in _BASELINES:
        grid = make_grid(kind, size)
        suite = paper_suite(grid, k, n_random=3, seed=seed)
        fsms = [
            FSM.random(np.random.default_rng(1000 + seed + i))
            for i in range(4)
        ]
        outcomes = evaluate_population(
            grid, fsms, suite, t_max=30, lane_block=None, n_workers=1
        )
        _BASELINES[case] = (grid, suite, fsms, outcomes)
    return _BASELINES[case]


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["S", "T"]),
    size=st.integers(min_value=5, max_value=6),
    k=st.integers(min_value=2, max_value=4),
    lane_block=st.sampled_from([None, 1, 5, 17]),
    n_workers=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2),
)
def test_sweep_layouts_never_change_results(kind, size, k, lane_block,
                                            n_workers, seed):
    grid, suite, fsms, expected = _monolithic(kind, size, k, seed)
    got = evaluate_population(
        grid, fsms, suite, t_max=30, lane_block=lane_block,
        n_workers=n_workers,
    )
    assert got == expected
