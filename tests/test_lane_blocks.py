"""The one evaluation loop: agent-lane blocks, their layout and exactness.

Every entry point runs :func:`repro.evolution.fitness._evaluate_blocks`,
whose default batch holds ``32768 // k`` lanes.  Blocked runs must equal
one monolithic batch bit for bit -- also for time-shuffled pairs, which
bring their own simulator, and in an obstacle world -- and the layout of
the paper's GA batches (4 FSMs x 1003 fields at k = 8) and of the
bordered-world and time-shuffled GAs must not move.
"""

import numpy as np
import pytest

import repro.evolution.fitness as fitness
import repro.experiments.shuffle_evolution as shuffle_evolution
from repro.cli import _build_service, build_parser
from repro.configs.random_configs import random_configuration, random_configurations
from repro.configs.suite import paper_suite
from repro.core.environment import Environment, random_obstacles
from repro.core.fsm import FSM
from repro.core.published import published_fsm
from repro.core.vectorized import BatchSimulator
from repro.evolution.fitness import (
    AGENT_LANE_BLOCK,
    default_lane_block,
    evaluate_fsm,
    evaluate_population,
)
from repro.experiments.environments import run_border_evolution_comparison
from repro.experiments.shuffle_evolution import FSMPair, run_shuffle_evolution
from repro.grids import make_grid


def _exact(got, want):
    assert got.fitness == want.fitness
    assert got.mean_time == want.mean_time
    assert got.n_fields == want.n_fields
    assert got.n_successful_fields == want.n_successful_fields


def _record(monkeypatch, module, name):
    """Swap ``module.name``, a simulator class, for a subclass that
    records the ``(lanes, agents)`` of every instance; returns the list."""
    seen = []

    class Recording(getattr(module, name)):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seen.append((self.n_lanes, self.n_agents))

    monkeypatch.setattr(module, name, Recording)
    return seen


@pytest.fixture
def batch_lanes(monkeypatch):
    """``(lanes, agents)`` of every batch the evaluation loop runs."""
    return _record(monkeypatch, fitness, "BatchSimulator")


@pytest.fixture
def pair_lanes(monkeypatch):
    """``(lanes, agents)`` of every time-shuffled batch an
    :class:`FSMPair` population runs."""
    return _record(monkeypatch, shuffle_evolution,
                   "TimeShuffledBatchSimulator")


class TestDefaultRule:
    def test_rule(self):
        assert AGENT_LANE_BLOCK == 32768
        assert default_lane_block(8) == fitness.DEFAULT_LANE_BLOCK == 4096
        assert default_lane_block(32) == 1024
        assert default_lane_block(256) == 128
        assert default_lane_block(10**6) == 1

    def test_serve_flag_defaults_to_the_rule(self):
        args = build_parser().parse_args(["serve", "--workers", "1"])
        assert args.lane_block == "auto"
        service = _build_service(args)
        try:
            assert service.lane_block == "auto"
        finally:
            service.close()
        pinned = build_parser().parse_args(["serve", "--lane-block", "512"])
        assert pinned.lane_block == 512

    def test_bare_serve_runs_one_inline_worker(self, capsys):
        service = _build_service(build_parser().parse_args(["serve"]))
        try:
            assert service.pool.n_workers == 1
        finally:
            service.close()
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--help"])
        assert "(default: 1, inline in the server process)" in " ".join(
            capsys.readouterr().out.split())


class TestBitExact:
    @pytest.mark.parametrize("kind,n_agents", [
        ("S", 256), ("T", 256), ("T", 2),
    ])
    def test_blocked_table1_cell_equals_monolithic(self, kind, n_agents):
        grid = make_grid(kind, 16)
        suite = paper_suite(grid, n_agents, n_random=1000, seed=2013)
        fsm = published_fsm(kind)
        blocked = evaluate_fsm(grid, fsm, suite, t_max=1000)
        monolithic = evaluate_population(
            grid, [fsm], suite, t_max=1000, lane_block=None
        )[0]
        _exact(blocked, monolithic)
        batch = BatchSimulator(grid, fsm, suite).run(t_max=1000)
        assert blocked.fitness == batch.mean_fitness()
        assert blocked.mean_time == batch.mean_time()
        assert blocked.n_successful_fields == int(batch.success.sum())

    def test_multi_word_generator_suite_equals_materialised(self):
        # k = 200 needs four 64-bit knowledge words; the default block is
        # 163 lanes, so 3 FSMs over 60 streamed fields run in two blocks
        grid = make_grid("T", 16)
        fsms = [published_fsm("T")] + [
            FSM.random(np.random.default_rng(seed)) for seed in range(2)
        ]
        fields = [
            random_configuration(grid, 200, np.random.default_rng(90 + index))
            for index in range(60)
        ]
        stats = {}
        streamed = evaluate_population(
            grid, fsms, (config for config in fields), t_max=40,
            stream_stats=stats,
        )
        materialised = evaluate_population(
            grid, fsms, fields, t_max=40, lane_block=None
        )
        assert stats["n_blocks"] == 2
        assert stats["max_lanes_in_flight"] <= default_lane_block(200)
        for got, want in zip(streamed, materialised):
            _exact(got, want)


class TestGenomesAndWorlds:
    """Field blocks and FSM groups (3 lanes a batch: groups of 3 and 1
    FSMs, one field each) equal one monolithic batch for a genome that
    brings its own simulator and for a world with obstacles."""

    def test_pair_population_blocked_equals_monolithic(self, pair_lanes):
        grid = make_grid("S", 8)
        fields = [
            random_configuration(grid, 4, np.random.default_rng(seed))
            for seed in range(6)
        ]
        pairs = [FSMPair.random(np.random.default_rng(seed))
                 for seed in range(4)]
        blocked = evaluate_population(grid, pairs, fields, t_max=80,
                                      lane_block=3)
        assert pair_lanes == [(3, 4), (1, 4)] * 6
        monolithic = evaluate_population(grid, pairs, fields, t_max=80,
                                         lane_block=None)
        assert pair_lanes[-1] == (24, 4)
        for got, want in zip(blocked, monolithic):
            _exact(got, want)

    def test_obstacle_world_blocked_equals_monolithic(self, batch_lanes):
        grid = make_grid("T", 8)
        world = Environment(grid, obstacles=random_obstacles(
            grid, 6, np.random.default_rng(0)))
        fields = random_configurations(grid, 4, 6, 1, environment=world)
        fsms = [published_fsm("T")] + [
            FSM.random(np.random.default_rng(seed)) for seed in range(3)
        ]
        blocked = evaluate_population(grid, fsms, fields, t_max=80,
                                      lane_block=3, environment=world)
        assert batch_lanes == [(3, 4), (1, 4)] * 6
        monolithic = evaluate_population(grid, fsms, fields, t_max=80,
                                         lane_block=None, environment=world)
        for got, want in zip(blocked, monolithic):
            _exact(got, want)
        # the world is simulated, not ignored
        cyclic = evaluate_population(grid, fsms, fields, t_max=80)
        assert cyclic != monolithic


class TestLayout:
    def test_default_batches_stay_within_the_agent_lane_budget(
            self, batch_lanes):
        for kind, n_agents, n_fsms in (("T", 8, 10), ("S", 256, 3)):
            grid = make_grid(kind, 16)
            suite = paper_suite(grid, n_agents, n_random=1000, seed=2013)
            fsms = [
                FSM.random(np.random.default_rng(seed))
                for seed in range(n_fsms)
            ]
            evaluate_population(grid, fsms, suite, t_max=2)
        assert batch_lanes
        assert all(
            lanes * agents <= AGENT_LANE_BLOCK
            for lanes, agents in batch_lanes
        )

    def test_paper_ga_batches_pack_four_fsms(self, batch_lanes):
        grid = make_grid("T", 16)
        suite = paper_suite(grid, 8, n_random=1000, seed=2013)
        fsms = [FSM.random(np.random.default_rng(seed)) for seed in range(10)]
        evaluate_population(grid, fsms, suite, t_max=2)
        assert [lanes for lanes, _ in batch_lanes] == [4012, 4012, 2006]

    def test_border_ga_batches_hold_each_generations_fresh_pool(
            self, batch_lanes):
        # 20 FSMs, then 10 offspring a generation, over 43 k = 8 fields:
        # well under one 4096-lane block, so one batch per call
        run_border_evolution_comparison()
        arm = [(860, 8)] + [(430, 8)] * 15
        assert batch_lanes == arm + arm

    def test_shuffle_ga_batches_hold_each_generations_fresh_pool(
            self, batch_lanes, pair_lanes):
        run_shuffle_evolution()
        arm = [(860, 8)] + [(430, 8)] * 20
        assert batch_lanes == arm       # single FSMs
        assert pair_lanes == arm        # time-shuffled pairs

    def test_packed_cell_runs_in_field_blocks(self, batch_lanes):
        # one FSM over the packed k = 256 suite exceeds a 128-lane block
        grid = make_grid("T", 16)
        suite = paper_suite(grid, 256, n_random=1000, seed=2013)
        evaluate_fsm(grid, published_fsm("T"), suite, t_max=2)
        lanes = [lanes for lanes, _ in batch_lanes]
        assert sum(lanes) == len(suite)
        assert max(lanes) <= 128


class TestEmpty:
    def test_no_fsms_over_a_generator_suite(self):
        grid = make_grid("T", 8)
        fields = (
            random_configuration(grid, 4, np.random.default_rng(index))
            for index in range(3)
        )
        assert evaluate_population(grid, [], fields, t_max=10) == []

    def test_no_fsms_over_a_materialised_suite(self):
        grid = make_grid("T", 8)
        suite = paper_suite(grid, 4, n_random=3, seed=1)
        assert evaluate_population(grid, [], suite, t_max=10) == []
