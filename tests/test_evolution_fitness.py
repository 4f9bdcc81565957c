"""Suite evaluation: batch fitness vs the reference simulator, caching."""

import numpy as np
import pytest

from repro.configs.suite import ConfigSuite, paper_suite
from repro.core.environment import Environment
from repro.core.fsm import FSM
from repro.core.metrics import fitness as scalar_fitness
from repro.core.published import published_fsm
from repro.core.simulation import Simulation
from repro.evolution.fitness import (
    EvaluationCache,
    SuiteEvaluator,
    evaluate_fsm,
    evaluate_population,
    evaluation_cache_key,
    suite_fingerprint,
)
from repro.grids import SquareGrid
from repro.service.cache_store import decode_key, encode_key


@pytest.fixture
def small_suite():
    return paper_suite(SquareGrid(8), 4, n_random=12, seed=3)


class TestEvaluateFsm:
    def test_matches_reference_simulation(self, small_suite):
        grid = SquareGrid(8)
        fsm = published_fsm("S")
        outcome = evaluate_fsm(grid, fsm, small_suite, t_max=150)
        reference_results = [
            Simulation(grid, fsm, config).run(t_max=150) for config in small_suite
        ]
        expected = sum(scalar_fitness(r) for r in reference_results) / len(
            reference_results
        )
        assert outcome.fitness == pytest.approx(expected)
        assert outcome.n_fields == len(small_suite)
        assert outcome.n_successful_fields == sum(
            r.success for r in reference_results
        )

    def test_completely_successful_flag(self, small_suite):
        outcome = evaluate_fsm(SquareGrid(8), published_fsm("S"), small_suite, t_max=500)
        assert outcome.completely_successful == (
            outcome.n_successful_fields == outcome.n_fields
        )


class TestEvaluatePopulation:
    def test_matches_individual_evaluation(self, small_suite):
        grid = SquareGrid(8)
        rng = np.random.default_rng(7)
        fsms = [published_fsm("S")] + [FSM.random(rng) for _ in range(3)]
        pooled = evaluate_population(grid, fsms, small_suite, t_max=100)
        for fsm, outcome in zip(fsms, pooled):
            alone = evaluate_fsm(grid, fsm, small_suite, t_max=100)
            assert outcome.fitness == pytest.approx(alone.fitness)
            assert outcome.n_successful_fields == alone.n_successful_fields

    def test_one_outcome_per_fsm(self, small_suite):
        rng = np.random.default_rng(1)
        fsms = [FSM.random(rng) for _ in range(5)]
        assert len(evaluate_population(SquareGrid(8), fsms, small_suite)) == 5


class TestSuiteEvaluator:
    def test_caches_by_genome(self, small_suite):
        evaluator = SuiteEvaluator(SquareGrid(8), small_suite, t_max=100)
        fsm = published_fsm("S")
        first = evaluator(fsm)
        second = evaluator(fsm.copy())  # same genome, different object
        assert first is second
        assert evaluator.evaluations == 1

    def test_evaluate_many_skips_cached(self, small_suite):
        evaluator = SuiteEvaluator(SquareGrid(8), small_suite, t_max=100)
        rng = np.random.default_rng(2)
        fsms = [FSM.random(rng) for _ in range(3)]
        evaluator.evaluate_many(fsms)
        assert evaluator.evaluations == 3
        evaluator.evaluate_many(fsms + [FSM.random(rng)])
        assert evaluator.evaluations == 4

    def test_evaluate_many_handles_duplicates_in_one_call(self, small_suite):
        evaluator = SuiteEvaluator(SquareGrid(8), small_suite, t_max=100)
        fsm = published_fsm("S")
        outcomes = evaluator.evaluate_many([fsm, fsm.copy()])
        assert evaluator.evaluations == 1
        assert outcomes[0] is outcomes[1]

    def test_results_consistent_with_direct_evaluation(self, small_suite):
        grid = SquareGrid(8)
        evaluator = SuiteEvaluator(grid, small_suite, t_max=100)
        fsm = published_fsm("S")
        via_evaluator = evaluator(fsm)
        direct = evaluate_fsm(grid, fsm, small_suite, t_max=100)
        assert via_evaluator.fitness == pytest.approx(direct.fitness)


class TestWorldKeys:
    """The world an evaluator runs in is part of its cache identity."""

    @pytest.fixture
    def worlds(self, small_suite):
        grid = SquareGrid(8)
        return grid, {
            "cyclic": Environment.cyclic(grid),
            "bordered": Environment(grid, bordered=True),
            "obstacle": Environment(grid, obstacles=[(0, 0)]),
            "carpet": Environment(grid, initial_colors=np.eye(8)),
            "alphabet": Environment(grid, n_colors=3),
        }

    def test_bordered_and_cyclic_never_share_a_result(self, small_suite):
        grid = SquareGrid(8)
        cache = EvaluationCache()
        cyclic = SuiteEvaluator(grid, small_suite, t_max=100, cache=cache)
        bordered = SuiteEvaluator(grid, small_suite, t_max=100, cache=cache,
                                  environment=Environment(grid, bordered=True))
        fsm = published_fsm("S")
        on_torus = cyclic(fsm)
        on_walls = bordered(fsm)
        assert cyclic.evaluations == bordered.evaluations == 1
        assert on_walls == evaluate_fsm(
            grid, fsm, small_suite, t_max=100,
            environment=Environment(grid, bordered=True))
        assert on_walls != on_torus
        assert bordered.evaluate_many([fsm, fsm.copy()]) == [on_walls] * 2
        assert cyclic.evaluate_many([fsm]) == [on_torus]
        assert len(cache) == 2

    def test_cyclic_keys_are_the_plain_keys(self, small_suite, worlds):
        grid, world = worlds
        fsm = published_fsm("S")
        plain = (grid.kind, grid.size, small_suite.fingerprint, 100,
                 fsm.key())
        assert evaluation_cache_key(
            grid, suite_fingerprint(small_suite), 100, fsm) == plain
        for environment in (None, world["cyclic"]):
            evaluator = SuiteEvaluator(grid, small_suite, t_max=100,
                                       environment=environment)
            assert evaluator._key(fsm) == plain

    def test_every_decoration_keys_apart(self, small_suite, worlds):
        grid, world = worlds
        fsm = published_fsm("S")
        keys = {
            name: SuiteEvaluator(grid, small_suite, t_max=100,
                                 environment=environment)._key(fsm)
            for name, environment in world.items()
        }
        assert len(set(keys.values())) == len(keys)
        # the same world built twice keys alike, and every key stays
        # the 5-tuple the durable cache store writes
        again = SuiteEvaluator(grid, small_suite, t_max=100,
                               environment=Environment(grid, bordered=True))
        assert again._key(fsm) == keys["bordered"]
        for key in keys.values():
            assert decode_key(encode_key(key)) == key

    def test_list_suite_is_encoded_once(self, small_suite):
        evaluator = SuiteEvaluator(SquareGrid(8), list(small_suite),
                                   t_max=100)
        assert isinstance(evaluator.suite, ConfigSuite)
        assert evaluator.suite.fingerprint == small_suite.fingerprint
