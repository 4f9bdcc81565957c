"""Multicolour batch simulation and the colour-alphabet experiment."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.configs.random_configs import random_configuration
from repro.configs.suite import ConfigSuite, paper_suite
from repro.experiments import multicolor_exp
from repro.core.vectorized import BatchSimulator
from repro.evolution.fitness import SuiteEvaluator
from repro.experiments.multicolor_exp import (
    format_multicolor,
    run_multicolor_comparison,
)
from repro.extensions.multicolor import MulticolorFSM, MulticolorSimulation
from repro.grids import make_grid


class TestMulticolorBatchEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(["S", "T"]),
        fsm_seed=st.integers(0, 10_000),
        config_seed=st.integers(0, 10_000),
        n_colors=st.integers(2, 5),
    )
    def test_batch_matches_reference(self, kind, fsm_seed, config_seed, n_colors):
        grid = make_grid(kind, 8)
        fsm = MulticolorFSM.random(
            np.random.default_rng(fsm_seed), n_states=4, n_colors=n_colors
        )
        config = random_configuration(grid, 5, np.random.default_rng(config_seed))
        reference = MulticolorSimulation(grid, fsm, config).run(t_max=60)
        batch = BatchSimulator(grid, fsm, [config]).run(t_max=60)
        assert bool(batch.success[0]) == reference.success
        if reference.success:
            assert int(batch.t_comm[0]) == reference.t_comm

    def test_batch_rejects_mixed_color_alphabets(self, rng):
        grid = make_grid("S", 8)
        config = random_configuration(grid, 3, rng)
        fsms = [
            MulticolorFSM.random(rng, n_colors=2),
            MulticolorFSM.random(rng, n_colors=3),
        ]
        with pytest.raises(ValueError, match="colour alphabet"):
            BatchSimulator(grid, fsms, [config, config])

    def test_colors_above_one_appear_on_the_grid(self, rng):
        grid = make_grid("S", 8)
        fsm = MulticolorFSM.random(rng, n_colors=4)
        fsm.set_color[:] = 3
        config = random_configuration(grid, 4, rng)
        simulator = BatchSimulator(grid, fsm, [config])
        simulator.step()
        assert (simulator.colors == 3).any()


class TestMulticolorEvaluator:
    def test_caches_by_genome(self, rng):
        grid = make_grid("S", 8)
        configs = [random_configuration(grid, 4, rng) for _ in range(3)]
        evaluator = SuiteEvaluator(grid, configs, t_max=60)
        fsm = MulticolorFSM.random(rng, n_colors=3)
        first = evaluator(fsm)
        second = evaluator(fsm.copy())
        assert first is second
        assert evaluator.evaluations == 1
        assert evaluator.evaluate_many([fsm.copy()])[0] is first

    def test_outcome_fields(self, rng):
        grid = make_grid("S", 8)
        configs = [random_configuration(grid, 4, rng) for _ in range(3)]
        evaluator = SuiteEvaluator(grid, configs, t_max=60)
        outcome = evaluator(MulticolorFSM.random(rng, n_colors=2))
        assert outcome.n_fields == 3
        assert 0 <= outcome.n_successful_fields <= 3


class TestColorComparison:
    @pytest.fixture(scope="class")
    def results(self):
        return run_multicolor_comparison(
            color_counts=(2, 3), n_random=10, n_generations=3,
            pool_size=8, t_max=120,
        )

    def test_one_arm_per_alphabet(self, results):
        assert set(results) == {2, 3}

    def test_table_sizes_scale_quadratically(self, results):
        assert results[2].table_size == 32
        assert results[3].table_size == 72

    def test_histories_improve(self, results):
        for result in results.values():
            assert result.history[-1] <= result.history[0]

    def test_format(self, results):
        text = format_multicolor(results)
        assert "colour" in text
        assert "32" in text and "72" in text

    def test_arms_share_one_array_suite(self, monkeypatch):
        settings = dict(color_counts=(2, 3), n_random=10, n_generations=2,
                        pool_size=6, t_max=80)
        seen = []

        class Recording(SuiteEvaluator):
            def __init__(self, grid, suite, **kwargs):
                seen.append(suite)
                super().__init__(grid, suite, **kwargs)

        monkeypatch.setattr(multicolor_exp, "SuiteEvaluator", Recording)
        results = run_multicolor_comparison(**settings)
        assert len(seen) == 2 and seen[0] is seen[1]
        assert isinstance(seen[0], ConfigSuite)
        # the suite gives the results its configuration list gave
        monkeypatch.setattr(
            multicolor_exp, "paper_suite",
            lambda *args, **kwargs: list(paper_suite(*args, **kwargs)),
        )
        assert repr(run_multicolor_comparison(**settings)) == repr(results)
