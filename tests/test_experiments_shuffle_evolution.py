"""Time-shuffled pair evolution (prior-work claim [8] re-examined)."""

import numpy as np
import pytest

from repro.configs.random_configs import random_configuration
from repro.core.fsm import FSM
from repro.evolution.fitness import SuiteEvaluator
from repro.experiments.shuffle_evolution import (
    FSMPair,
    format_shuffle_evolution,
    mutate_pair,
    run_shuffle_evolution,
)
from repro.extensions.timeshuffle import TimeShuffledBatchSimulator, TimeShuffledSimulation
from repro.grids import make_grid


class TestFSMPair:
    def test_random_pair_shares_state_count(self, rng):
        pair = FSMPair.random(rng)
        assert pair.even.n_states == pair.odd.n_states == pair.n_states

    def test_rejects_mismatched_halves(self, rng):
        with pytest.raises(ValueError):
            FSMPair(FSM.random(rng, n_states=4), FSM.random(rng, n_states=2))

    def test_key_covers_both_halves(self, rng):
        pair = FSMPair.random(rng)
        other = FSMPair(pair.even.copy(), FSM.random(rng))
        assert pair.key() != other.key()

    def test_copy_is_independent(self, rng):
        pair = FSMPair.random(rng)
        clone = pair.copy()
        clone.even.move[0] = 1 - clone.even.move[0]
        assert pair.key() != clone.key()

    def test_mutate_pair_touches_both_halves(self, rng):
        pair = FSMPair.random(rng)
        from repro.evolution.genome import MutationRates

        child = mutate_pair(pair, rng, MutationRates(1.0, 1.0, 1.0, 1.0))
        assert (child.even.move == 1 - pair.even.move).all()
        assert (child.odd.move == 1 - pair.odd.move).all()


class TestPairEvaluator:
    def test_matches_reference_shuffled_simulation(self, rng):
        grid = make_grid("S", 8)
        configs = [
            random_configuration(grid, 4, np.random.default_rng(seed))
            for seed in range(4)
        ]
        pair = FSMPair.random(np.random.default_rng(3))
        evaluator = SuiteEvaluator(grid, configs, t_max=100)
        outcome = evaluator(pair)
        successes = 0
        for config in configs:
            result = TimeShuffledSimulation(
                grid, pair.even, pair.odd, config
            ).run(t_max=100)
            successes += result.success
        assert outcome.n_successful_fields == successes

    def test_caching(self, rng):
        grid = make_grid("S", 8)
        configs = [random_configuration(grid, 4, rng)]
        evaluator = SuiteEvaluator(grid, configs, t_max=50)
        pair = FSMPair.random(rng)
        evaluator(pair)
        evaluator(pair.copy())
        assert evaluator.evaluations == 1
        evaluator.evaluate_many([pair.copy(), FSMPair(pair.even, pair.even)])
        assert evaluator.evaluations == 2  # only the new odd half is fresh


class TestPerLanePairs:
    def test_batch_supports_per_lane_pairs(self):
        grid = make_grid("T", 8)
        config = random_configuration(grid, 4, np.random.default_rng(0))
        pair_a = FSMPair.random(np.random.default_rng(1))
        pair_b = FSMPair.random(np.random.default_rng(2))
        joint = TimeShuffledBatchSimulator(
            grid,
            [pair_a.even, pair_b.even],
            [pair_a.odd, pair_b.odd],
            [config, config],
        ).run(t_max=120)
        for lane, pair in enumerate((pair_a, pair_b)):
            alone = TimeShuffledSimulation(
                grid, pair.even, pair.odd, config
            ).run(t_max=120)
            assert bool(joint.success[lane]) == alone.success
            if alone.success:
                assert int(joint.t_comm[lane]) == alone.t_comm

    def test_rejects_unequal_lists(self, rng):
        grid = make_grid("S", 8)
        config = random_configuration(grid, 3, rng)
        with pytest.raises(ValueError, match="even FSMs"):
            TimeShuffledBatchSimulator(
                grid, [FSM.random(rng)], [FSM.random(rng)] * 2, [config]
            )


class TestComparison:
    def test_small_comparison_runs(self):
        results = run_shuffle_evolution(
            n_agents=4, n_random=8, n_generations=4, pool_size=8, t_max=120,
        )
        assert set(results) == {"single FSM (paper)", "time-shuffled pair [8]"}
        budgets = {result.evaluations for result in results.values()}
        assert len(budgets) == 1
        text = format_shuffle_evolution(results)
        assert "equal budgets" in text
