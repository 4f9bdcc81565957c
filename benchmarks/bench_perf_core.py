"""Bench the optimized batch-simulator hot path against the frozen baseline.

The paper's stepping workload at reduced size (16 x 16, ``k = 8``, the
published controller; fewer random fields so the tier-2 suite stays
fast).  The optimized stepper must beat the pre-optimization
:class:`LegacyBatchSimulator` on the same workload, and the chunked /
sharded population evaluation must match the monolithic path while it is
being timed.
"""

import time

import numpy as np
from conftest import run_once

from repro.configs.suite import paper_suite
from repro.core.fsm import FSM
from repro.core.published import published_fsm
from repro.core.vectorized import BatchSimulator
from repro.evolution.fitness import evaluate_population
from repro.grids import make_grid
from repro.perf.reference import LegacyBatchSimulator

N_FIELDS = 200


def _steps_per_sec(simulator_cls, kind):
    """Lanes and steps per second of one timed ``run()`` on the suite."""
    grid = make_grid(kind, 16)
    configs = list(paper_suite(grid, 8, n_random=N_FIELDS, seed=2013))
    simulator = simulator_cls(grid, published_fsm(kind), configs)
    start = time.perf_counter()
    result = simulator.run(t_max=200)
    return len(configs), result.steps_executed / (time.perf_counter() - start)


def _speedup_over_baseline(benchmark, kind):
    n_lanes, rate = run_once(benchmark, _steps_per_sec, BatchSimulator, kind)
    _, baseline = _steps_per_sec(LegacyBatchSimulator, kind)
    speedup = rate / baseline
    print()
    print(
        f"{kind}16_k8 ({n_lanes} lanes): {rate:.0f} steps/s vs "
        f"baseline {baseline:.0f} steps/s -> {speedup:.2f}x"
    )
    return speedup


def test_optimized_stepper_beats_baseline_s(benchmark):
    assert _speedup_over_baseline(benchmark, "S") > 1.5


def test_optimized_stepper_beats_baseline_t(benchmark):
    assert _speedup_over_baseline(benchmark, "T") > 1.5


def test_lane_compaction_on_solving_population(benchmark):
    # published controllers solve every field, exercising retirement
    grid = make_grid("T", 16)
    configs = list(paper_suite(grid, 8, n_random=N_FIELDS, seed=2013))
    fsm = published_fsm("T")

    def run():
        simulator = BatchSimulator(grid, fsm, configs)
        result = simulator.run(t_max=200)
        return simulator.counters, result

    counters, result = run_once(benchmark, run)
    assert result.success.all()
    assert counters.retired_lanes == len(configs)
    assert counters.lane_steps < len(configs) * counters.steps


def test_chunked_population_evaluation(benchmark):
    grid = make_grid("T", 8)
    suite = paper_suite(grid, 5, n_random=30, seed=1)
    fsms = [FSM.random(np.random.default_rng(seed)) for seed in range(10)]
    chunked = run_once(
        benchmark, evaluate_population, grid, fsms, suite,
        t_max=100, lane_block=64,
    )
    monolithic = evaluate_population(grid, fsms, suite, t_max=100,
                                     lane_block=None)
    assert chunked == monolithic


def test_sharded_population_evaluation(benchmark):
    grid = make_grid("T", 8)
    suite = paper_suite(grid, 5, n_random=30, seed=1)
    fsms = [FSM.random(np.random.default_rng(seed)) for seed in range(10)]
    sharded = run_once(
        benchmark, evaluate_population, grid, fsms, suite,
        t_max=100, n_workers=2,
    )
    serial = evaluate_population(grid, fsms, suite, t_max=100)
    assert sharded == serial
