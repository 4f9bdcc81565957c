"""Fast-path mechanics of the batch simulator.

The optimized stepper (precomputed neighbour kernels, scratch buffers,
lane compaction, exchange early-out) must stay bit-exact with both the
scalar reference :class:`Simulation` and the frozen pre-optimization
:class:`LegacyBatchSimulator`, across every environment variant and FSM
assignment mode -- including the combinations the basic equivalence
tests do not sweep together.
"""

import numpy as np
import pytest

from repro.baselines.trivial import always_straight_fsm
from repro.configs.random_configs import random_configuration
from repro.configs.types import InitialConfiguration
from repro.core.environment import Environment, random_obstacles
from repro.core.fsm import FSM
from repro.core.published import published_fsm
from repro.core.vectorized import BatchSimulator
from repro.extensions.species import HeterogeneousSimulation
from repro.grids import SquareGrid, make_grid
from repro.perf.reference import LegacyBatchSimulator


def _environments(grid, seed=7):
    rng = np.random.default_rng(seed)
    return {
        "cyclic": None,
        "bordered": Environment(grid, bordered=True),
        "obstacles": Environment(
            grid, obstacles=random_obstacles(grid, 5, rng)
        ),
        "walled_obstacles": Environment(
            grid, bordered=True,
            obstacles=random_obstacles(grid, 4, np.random.default_rng(seed + 1)),
        ),
    }


class TestLegacyEquivalence:
    """Optimized vs frozen pre-optimization stepper, bit for bit."""

    @pytest.mark.parametrize("kind", ["S", "T"])
    @pytest.mark.parametrize(
        "env_name", ["cyclic", "bordered", "obstacles", "walled_obstacles"]
    )
    def test_random_fsms_all_environments(self, kind, env_name):
        grid = make_grid(kind, 8)
        environment = _environments(grid)[env_name]
        fsms = [FSM.random(np.random.default_rng(seed)) for seed in range(8)]
        configs = [
            random_configuration(
                grid, 5, np.random.default_rng(100 + seed),
                environment=environment,
            )
            for seed in range(8)
        ]
        new = BatchSimulator(grid, fsms, configs, environment=environment)
        old = LegacyBatchSimulator(grid, fsms, configs, environment=environment)
        for _ in range(60):
            if old.done.all():
                break
            new.step()
            old.step()
            assert (new.px == old.px).all()
            assert (new.py == old.py).all()
            assert (new.direction == old.direction).all()
            assert (new.state == old.state).all()
            assert (new.colors == old.colors).all()
            assert (new.knowledge == old.knowledge).all()
            assert (new.done == old.done).all()
            assert (new.t_comm == old.t_comm).all()

    def test_multiword_knowledge_lane(self):
        # 70 agents -> two knowledge words and the minimum.at conflict path
        grid = SquareGrid(12)
        fsm = published_fsm("S")
        config = random_configuration(grid, 70, np.random.default_rng(3))
        new = BatchSimulator(grid, fsm, [config]).run(t_max=120)
        old = LegacyBatchSimulator(grid, fsm, [config]).run(t_max=120)
        assert (new.success == old.success).all()
        assert (new.t_comm == old.t_comm).all()
        assert (new.informed_agents == old.informed_agents).all()


class TestFeatureTriple:
    """Borders + obstacles + per-agent species lanes, all at once."""

    @pytest.mark.parametrize("kind", ["S", "T"])
    def test_species_with_borders_and_obstacles(self, kind):
        grid = make_grid(kind, 8)
        environment = Environment(
            grid, bordered=True,
            obstacles=random_obstacles(grid, 4, np.random.default_rng(11)),
        )
        species = [FSM.random(np.random.default_rng(seed)) for seed in range(4)]
        configs = [
            random_configuration(
                grid, 4, np.random.default_rng(200 + seed),
                environment=environment,
            )
            for seed in range(6)
        ]
        joint = BatchSimulator(
            grid, configs=configs, agent_fsms=species, environment=environment
        ).run(t_max=120)
        for lane, config in enumerate(configs):
            reference = HeterogeneousSimulation(
                grid, species, config, environment=environment
            ).run(t_max=120)
            assert bool(joint.success[lane]) == reference.success
            assert int(joint.informed_agents[lane]) == reference.informed_agents
            if reference.success:
                assert int(joint.t_comm[lane]) == reference.t_comm

    @pytest.mark.parametrize("kind", ["S", "T"])
    def test_species_triple_matches_legacy(self, kind):
        grid = make_grid(kind, 8)
        environment = Environment(
            grid, bordered=True,
            obstacles=random_obstacles(grid, 4, np.random.default_rng(13)),
        )
        species = [FSM.random(np.random.default_rng(seed)) for seed in range(5)]
        configs = [
            random_configuration(
                grid, 5, np.random.default_rng(300 + seed),
                environment=environment,
            )
            for seed in range(6)
        ]
        new = BatchSimulator(
            grid, configs=configs, agent_fsms=species, environment=environment
        ).run(t_max=100)
        old = LegacyBatchSimulator(
            grid, configs=configs, agent_fsms=species, environment=environment
        ).run(t_max=100)
        assert (new.success == old.success).all()
        assert (new.t_comm == old.t_comm).all()
        assert (new.informed_agents == old.informed_agents).all()


class TestLaneCompaction:
    """Solved lanes leave the working set without disturbing results."""

    def test_staggered_completion_keeps_lane_order(self):
        grid = SquareGrid(8)
        fsm = published_fsm("S")
        configs = [
            random_configuration(grid, 4, np.random.default_rng(seed))
            for seed in range(24)
        ]
        joint = BatchSimulator(grid, fsm, configs)
        result = joint.run(t_max=300)
        assert joint.n_active_lanes == int((~result.success).sum())
        for lane, config in enumerate(configs):
            alone = BatchSimulator(grid, fsm, [config]).run(t_max=300)
            assert bool(result.success[lane]) == bool(alone.success[0])
            assert int(result.t_comm[lane]) == int(alone.t_comm[0])

    def test_finished_lanes_freeze_their_state(self):
        # once a lane retires its public views must stop changing
        grid = SquareGrid(8)
        fsm = published_fsm("S")
        configs = [
            random_configuration(grid, 4, np.random.default_rng(seed))
            for seed in range(12)
        ]
        simulator = BatchSimulator(grid, fsm, configs)
        frozen = {}
        for _ in range(300):
            if simulator.done.all():
                break
            simulator.step()
            for lane in np.nonzero(simulator.done)[0]:
                lane = int(lane)
                snapshot = (
                    simulator.px[lane].copy(), simulator.py[lane].copy(),
                    simulator.state[lane].copy(),
                    simulator.knowledge[lane].copy(),
                )
                if lane not in frozen:
                    frozen[lane] = snapshot
                else:
                    for before, now in zip(frozen[lane], snapshot):
                        assert (before == now).all()
        assert frozen  # at least one lane finished mid-run

    def test_counters_show_compaction_and_early_outs(self):
        grid = SquareGrid(16)
        fsm = published_fsm("S")
        configs = [
            random_configuration(grid, 8, np.random.default_rng(seed))
            for seed in range(40)
        ]
        simulator = BatchSimulator(grid, fsm, configs)
        result = simulator.run(t_max=200)
        counters = simulator.counters
        assert counters.steps == result.steps_executed
        assert counters.retired_lanes == int(result.success.sum())
        # compaction shed finished lanes: strictly less work than B x steps
        assert counters.lane_steps < len(configs) * counters.steps
        assert counters.exchanges >= counters.steps

    def test_early_out_fires_when_knowledge_is_static(self):
        # two always-straight agents orbiting disjoint rows never exchange
        grid = SquareGrid(8)
        config = InitialConfiguration(((0, 0), (4, 4)), (0, 0), states=(0, 0))
        simulator = BatchSimulator(grid, always_straight_fsm(), [config])
        for _ in range(16):
            simulator.step()
        assert simulator.counters.exchange_early_outs > 0
        assert not simulator.done.any()


class TestScratchBuffers:
    """Steady-state stepping reuses the construction-time buffers."""

    def test_buffers_are_stable_across_steps(self):
        grid = make_grid("T", 8)
        fsm = published_fsm("T")
        configs = [
            random_configuration(grid, 6, np.random.default_rng(seed))
            for seed in range(5)
        ]
        simulator = BatchSimulator(grid, fsm, configs)
        exchange = simulator._exchange
        tracked = (
            simulator._w_gather, exchange.index, exchange.occupant,
            exchange.words, simulator._winner,
            simulator._b_idx, simulator._b_wide, simulator._b_color,
            simulator._b_occ, simulator._b_move, simulator._b_next,
            simulator._b_turn, simulator._m_req, simulator._m_informed,
        )
        before = [buffer.__array_interface__["data"][0] for buffer in tracked]
        for _ in range(20):
            simulator.step()
        simulator.informed_counts()
        after = [buffer.__array_interface__["data"][0] for buffer in tracked]
        assert before == after

    def test_informed_counts_matches_mask_definition(self):
        grid = SquareGrid(8)
        fsm = published_fsm("S")
        configs = [
            random_configuration(grid, 5, np.random.default_rng(seed))
            for seed in range(4)
        ]
        simulator = BatchSimulator(grid, fsm, configs)
        for _ in range(30):
            simulator.step()
        know = simulator.knowledge
        expected = (know == simulator._mask[None, None, :]).all(axis=2).sum(axis=1)
        assert (simulator.informed_counts() == expected).all()
        # repeated calls are pure
        assert (simulator.informed_counts() == expected).all()
