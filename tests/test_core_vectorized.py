"""Batch simulator: bit-exact equivalence with the reference simulator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.gossip import packed_gossip_time
from repro.configs.random_configs import random_configuration
from repro.configs.special import packed_configuration, special_configurations
from repro.configs.types import InitialConfiguration
from repro.core.fsm import FSM
from repro.core.published import published_fsm
from repro.core.simulation import Simulation
from repro.core.vectorized import BatchResult, BatchSimulator, _full_mask, _pack_identity
from repro.grids import SquareGrid, TriangulateGrid, make_grid
from repro.perf import StepCounters


def reference_trajectory(grid, fsm, config, steps):
    """Step the reference simulator and collect full state per step."""
    simulation = Simulation(grid, fsm, config)
    trajectory = []
    for _ in range(steps):
        simulation.step()
        trajectory.append(
            (
                [agent.position for agent in simulation.agents],
                [agent.direction for agent in simulation.agents],
                [agent.state for agent in simulation.agents],
                [agent.knowledge for agent in simulation.agents],
                simulation.colors.copy(),
            )
        )
    return trajectory


def batch_knowledge_as_ints(batch_simulator, lane):
    """Packed knowledge words of one lane as Python integers."""
    words = batch_simulator.knowledge[lane]
    values = []
    for agent_words in words:
        value = 0
        for index, word in enumerate(agent_words):
            value |= int(word) << (64 * index)
        values.append(value)
    return values


class TestStepForStepEquivalence:
    @pytest.mark.parametrize("kind", ["S", "T"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_published_fsm_random_config(self, kind, seed):
        grid = make_grid(kind, 8)
        fsm = published_fsm(kind)
        config = random_configuration(grid, 6, np.random.default_rng(seed))
        steps = 40
        reference = reference_trajectory(grid, fsm, config, steps)
        batch = BatchSimulator(grid, fsm, [config])
        for positions, directions, states, knowledge, colors in reference:
            if batch.done.all():
                break
            batch.step()
            for agent in range(6):
                assert (
                    int(batch.px[0, agent]), int(batch.py[0, agent])
                ) == positions[agent]
                assert int(batch.direction[0, agent]) == directions[agent]
                assert int(batch.state[0, agent]) == states[agent]
            assert batch_knowledge_as_ints(batch, 0) == knowledge
            assert (
                batch.colors[0].reshape(grid.size, grid.size) == colors
            ).all()

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(["S", "T"]),
        fsm_seed=st.integers(0, 10_000),
        config_seed=st.integers(0, 10_000),
        n_agents=st.integers(1, 10),
    )
    def test_random_fsm_random_config_same_t_comm(
        self, kind, fsm_seed, config_seed, n_agents
    ):
        grid = make_grid(kind, 8)
        fsm = FSM.random(np.random.default_rng(fsm_seed))
        config = random_configuration(
            grid, n_agents, np.random.default_rng(config_seed)
        )
        reference = Simulation(grid, fsm, config).run(t_max=60)
        batch = BatchSimulator(grid, fsm, [config]).run(t_max=60)
        assert bool(batch.success[0]) == reference.success
        if reference.success:
            assert int(batch.t_comm[0]) == reference.t_comm

    @pytest.mark.parametrize("kind", ["S", "T"])
    def test_special_configurations_agree(self, kind):
        grid = make_grid(kind, 16)
        fsm = published_fsm(kind)
        for config in special_configurations(grid, 8):
            reference = Simulation(grid, fsm, config).run(t_max=500)
            batch = BatchSimulator(grid, fsm, [config]).run(t_max=500)
            assert bool(batch.success[0]) == reference.success
            assert int(batch.t_comm[0]) == reference.t_comm


class TestManyLanes:
    def test_lanes_are_independent(self):
        grid = SquareGrid(8)
        fsm = published_fsm("S")
        configs = [
            random_configuration(grid, 4, np.random.default_rng(seed))
            for seed in range(20)
        ]
        joint = BatchSimulator(grid, fsm, configs).run(t_max=300)
        for lane, config in enumerate(configs):
            alone = BatchSimulator(grid, fsm, [config]).run(t_max=300)
            assert bool(joint.success[lane]) == bool(alone.success[0])
            assert int(joint.t_comm[lane]) == int(alone.t_comm[0])

    def test_per_lane_fsms(self):
        grid = SquareGrid(8)
        rng = np.random.default_rng(0)
        config = random_configuration(grid, 4, rng)
        fsm_a = published_fsm("S")
        fsm_b = FSM.random(rng)
        joint = BatchSimulator(grid, [fsm_a, fsm_b], [config, config]).run(t_max=200)
        alone_a = BatchSimulator(grid, fsm_a, [config]).run(t_max=200)
        alone_b = BatchSimulator(grid, fsm_b, [config]).run(t_max=200)
        assert bool(joint.success[0]) == bool(alone_a.success[0])
        assert bool(joint.success[1]) == bool(alone_b.success[0])
        if joint.success[0]:
            assert joint.t_comm[0] == alone_a.t_comm[0]
        if joint.success[1]:
            assert joint.t_comm[1] == alone_b.t_comm[0]


class TestPackedGrid:
    @pytest.mark.parametrize("kind,expected", [("S", 15), ("T", 9)])
    def test_table1_column_256(self, kind, expected):
        # Table 1: the packed 16 x 16 grid needs diameter - 1 steps
        grid = make_grid(kind, 16)
        batch = BatchSimulator(grid, published_fsm(kind), [packed_configuration(grid)])
        result = batch.run(t_max=50)
        assert bool(result.success[0])
        assert int(result.t_comm[0]) == expected
        assert expected == packed_gossip_time(grid)

    @pytest.mark.parametrize("kind", ["S", "T"])
    @pytest.mark.parametrize("size", [4, 8])
    def test_packed_equals_diameter_minus_one_any_size(self, kind, size):
        grid = make_grid(kind, size)
        batch = BatchSimulator(grid, published_fsm(kind), [packed_configuration(grid)])
        result = batch.run(t_max=50)
        assert int(result.t_comm[0]) == packed_gossip_time(grid)


class TestValidation:
    def test_rejects_empty_lanes(self):
        grid = SquareGrid(8)
        with pytest.raises(ValueError, match="lane"):
            BatchSimulator(grid, published_fsm("S"), [])

    def test_rejects_mixed_agent_counts(self):
        grid = SquareGrid(8)
        configs = [
            InitialConfiguration(((0, 0),), (0,)),
            InitialConfiguration(((0, 0), (1, 1)), (0, 0)),
        ]
        with pytest.raises(ValueError, match="same number of agents"):
            BatchSimulator(grid, published_fsm("S"), configs)

    def test_rejects_wrong_fsm_count(self):
        grid = SquareGrid(8)
        config = InitialConfiguration(((0, 0),), (0,))
        with pytest.raises(ValueError, match="FSMs"):
            BatchSimulator(grid, [published_fsm("S")] * 2, [config])

    def test_rejects_bad_direction(self):
        grid = SquareGrid(8)
        config = InitialConfiguration(((0, 0),), (5,))
        with pytest.raises(ValueError, match="direction"):
            BatchSimulator(grid, published_fsm("S"), [config])

    def test_rejects_overlapping_agents_after_wrap(self):
        grid = SquareGrid(8)
        config = InitialConfiguration(((0, 0), (8, 0)), (0, 0))
        with pytest.raises(ValueError, match="two agents"):
            BatchSimulator(grid, published_fsm("S"), [config])


class TestPackingHelpers:
    def test_identity_packing_one_bit_per_agent(self):
        knowledge = _pack_identity(2, 5)
        assert knowledge.shape == (2, 5, 1)
        assert [int(knowledge[0, agent, 0]) for agent in range(5)] == [1, 2, 4, 8, 16]

    def test_identity_packing_across_words(self):
        knowledge = _pack_identity(1, 70)
        assert knowledge.shape == (1, 70, 2)
        assert int(knowledge[0, 64, 0]) == 0
        assert int(knowledge[0, 64, 1]) == 1

    def test_full_mask_partial_word(self):
        mask = _full_mask(5)
        assert mask.tolist() == [31]

    def test_full_mask_exact_word(self):
        mask = _full_mask(64)
        assert mask.tolist() == [0xFFFFFFFFFFFFFFFF]

    def test_full_mask_multi_word(self):
        mask = _full_mask(70)
        assert mask.tolist() == [0xFFFFFFFFFFFFFFFF, 63]


class TestBatchResult:
    def test_fitness_penalizes_uninformed_agents(self):
        result = BatchResult(
            success=np.array([True, False]),
            t_comm=np.array([10, -1]),
            informed_agents=np.array([4, 1]),
            steps_executed=200,
            n_agents=4,
        )
        fitness = result.fitness()
        assert fitness[0] == 10
        assert fitness[1] == 3 * 10_000 + 200

    def test_mean_time_ignores_failures(self):
        result = BatchResult(
            success=np.array([True, False, True]),
            t_comm=np.array([10, -1, 20]),
            informed_agents=np.array([2, 0, 2]),
            steps_executed=100,
            n_agents=2,
        )
        assert result.mean_time() == 15.0

    def test_mean_time_all_failed_is_inf(self):
        result = BatchResult(
            success=np.array([False]),
            t_comm=np.array([-1]),
            informed_agents=np.array([0]),
            steps_executed=100,
            n_agents=2,
        )
        assert result.mean_time() == float("inf")

    def test_to_simulation_results(self):
        result = BatchResult(
            success=np.array([True, False]),
            t_comm=np.array([7, -1]),
            informed_agents=np.array([3, 1]),
            steps_executed=50,
            n_agents=3,
        )
        converted = result.to_simulation_results()
        assert converted[0].success and converted[0].t_comm == 7
        assert not converted[1].success and converted[1].t_comm is None
        assert converted[1].informed_agents == 1

    def test_completely_successful_flag(self):
        result = BatchResult(
            success=np.array([True, True]),
            t_comm=np.array([5, 6]),
            informed_agents=np.array([2, 2]),
            steps_executed=50,
            n_agents=2,
        )
        assert result.completely_successful


class TestCounters:
    def test_counters_accumulate(self):
        grid = SquareGrid(8)
        fsm = published_fsm("S")
        configs = [
            random_configuration(grid, 4, np.random.default_rng(seed))
            for seed in range(6)
        ]
        simulator = BatchSimulator(grid, fsm, configs)
        assert isinstance(simulator.counters, StepCounters)
        assert simulator.counters.steps == 0
        result = simulator.run(t_max=150)
        counters = simulator.counters
        assert counters.steps == result.steps_executed
        assert 0 < counters.lane_steps <= len(configs) * counters.steps
        assert counters.exchanges >= counters.steps
        assert counters.retired_lanes == int(result.success.sum())
        as_dict = counters.as_dict()
        assert as_dict["steps"] == counters.steps
        assert set(as_dict) == {
            "steps", "lane_steps", "exchanges", "exchange_early_outs",
            "compactions", "retired_lanes", "cycled_lanes", "dense_exchanges",
            "contested_steps",
        }
