"""Batch set-up: suites and simulators built once per distinct field and FSM.

Suites are arrays drawn once per suite, and ``BatchSimulator`` reads a
suite's arrays directly, gives every distinct FSM object one table row and
reads every distinct configuration object of a sequence once.  These tests
pin the suites to their recorded digests, check that an array suite is the
stream of single draws and simulates exactly like its configurations, check
that every construction error still reads the same, and check that shared
rows change no result and no public view.
"""

import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.configs.random_configs import (
    random_configuration,
    random_configurations,
)
from repro.configs.special import special_configurations
from repro.configs.suite import ConfigSuite, digest_configurations, paper_suite
from repro.configs.types import InitialConfiguration, InitialStateScheme
from repro.core.backends import numba_available
from repro.core.environment import Environment, random_obstacles
from repro.core.fsm import FSM
from repro.core.inputs import N_INPUT_COMBOS
from repro.core.published import published_fsm
from repro.core.vectorized import BatchSimulator
from repro.evolution.fitness import (
    evaluate_fsm,
    evaluate_population,
    suite_fingerprint,
)
from repro.extensions.multicolor import MulticolorFSM
from repro.extensions.timeshuffle import (
    TimeShuffledBatchSimulator,
    TimeShuffledSimulation,
)
from repro.grids import SquareGrid, make_grid
from repro.perf.reference import LegacyBatchSimulator

_BACKENDS = ["numpy", "pykernel"] + (["numba"] if numba_available() else [])

_VIEWS = ("px", "py", "direction", "state", "colors", "occupancy", "knowledge")

#: ``suite_fingerprint`` of ``paper_suite(make_grid(kind, 16), k, seed=2013)``
#: for every Table 1 cell, recorded from builders that predate both the
#: vectorized draw and the array suites, so a change to the draw order or
#: to the digest fails here.
_PAPER_SUITE_DIGESTS = {
    ("S", 2): "face95ed23fbac4fe10ae3cb95816b13d19c28f0f808fb9bcc05311fa6374d7e",
    ("S", 4): "8c271e0c4a13886afe6cdc78bf12060a3dae499b68c3506e5fe54067690f4bff",
    ("S", 8): "8b82e35fbb28b46e61235b29e95b786822dfef059f81e025272aee41c2d8d20b",
    ("S", 16): "d922b6acbb743a95b7e4de653f5e31ccfaa7fb729b83d5c8d52546c5f1614ec1",
    ("S", 32): "db3d18823a75d68c4ad0de54d48b8b3cd8fb7bd4ee99aa34158060170e695c1c",
    ("S", 256): "de78973f8a440272f037af56af03a52cee224c1d658e990c123873348b7aff7f",
    ("T", 2): "8c39da997fef4456128a6f19ecffe5862d8b14c2a722ed7e873b021c7ae83603",
    ("T", 4): "3c4a6b02a5b478163df2009b62db0551f06d892ea60e20304e4b9cac59dcf21a",
    ("T", 8): "eddd9cf868e5346857f8920c9b1ebe55e6a2a38f08dd51ae185661491161f826",
    ("T", 16): "5b4809fd8a9adfd36ff85797732cc0fb6762e7cd8287dc2071b11257458c1bd5",
    ("T", 32): "94ac4238fef1dcee9017980fc63a2b1c85acbeeca52a229a670527340521d7b8",
    ("T", 256): "05a25a738c7a33ead83b5db8617e0ffcdc954a62b94336aba7cd7ba8a33df641",
}

#: The same for ``random_configurations`` around five obstacles.
_OBSTACLE_DIGESTS = {
    ("S", 16, 50, 2013): (
        "68d7744ab8527b830a64c850e7f03e1b4493d79e5219406713c175809bc54703"
    ),
    ("T", 16, 50, 2013): (
        "59ffb51813196bb21f6ccb7ed99c7c97ed4fe54e4cc8a27fd19465974e79b761"
    ),
    ("S", 250, 20, 7): (
        "7acc5820478556f04657827252392c29cc6002681ec07f4c806b03ca27d22504"
    ),
    ("T", 250, 20, 7): (
        "66459ff02969f9f5f8d1277f7026c98984bc6802fbff5bb3240a3468664c86aa"
    ),
}

_OBSTACLES = [(3, 4), (0, 0), (15, 15), (7, 9), (8, 8)]


# -- suites -------------------------------------------------------------------


@pytest.mark.parametrize("kind, n_agents", sorted(_PAPER_SUITE_DIGESTS))
def test_paper_suite_matches_pinned_digest(kind, n_agents):
    suite = paper_suite(make_grid(kind, 16), n_agents, seed=2013)
    assert suite_fingerprint(suite) == _PAPER_SUITE_DIGESTS[kind, n_agents]


@pytest.mark.parametrize("key", sorted(_OBSTACLE_DIGESTS))
def test_obstacle_suite_matches_pinned_digest(key):
    kind, n_agents, n_fields, seed = key
    grid = make_grid(kind, 16)
    environment = Environment(grid, obstacles=_OBSTACLES)
    suite = random_configurations(
        grid, n_agents, n_fields, seed, environment=environment
    )
    assert suite_fingerprint(suite) == _OBSTACLE_DIGESTS[key]
    assert not any(
        cell in environment.obstacles
        for config in suite for cell in config.positions
    )


def test_suite_is_the_stream_of_single_draws():
    grid = make_grid("T", 16)
    suite = random_configurations(grid, 8, 5, seed=3)
    rng = np.random.default_rng([3, 16, 8, 1])
    assert suite == [
        random_configuration(grid, 8, rng, name=f"random-{index}")
        for index in range(5)
    ]


def _obstacle_environment(grid, n_obstacles, seed):
    if not n_obstacles:
        return None
    return Environment(grid, obstacles=random_obstacles(
        grid, n_obstacles, np.random.default_rng(seed)
    ))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from("ST"), size=st.integers(3, 8),
       n_fields=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       n_obstacles=st.integers(0, 4), data=st.data())
def test_array_suite_is_the_stream_of_single_draws(kind, size, n_fields, seed,
                                                   n_obstacles, data):
    grid = make_grid(kind, size)
    environment = _obstacle_environment(grid, n_obstacles, seed)
    n_agents = data.draw(st.integers(1, grid.n_cells - n_obstacles),
                         label="n_agents")
    rng = np.random.default_rng([seed, size, n_agents, "ST".index(kind)])
    stream = [
        random_configuration(grid, n_agents, rng, name=f"random-{index}",
                             environment=environment)
        for index in range(n_fields)
    ]
    assert random_configurations(
        grid, n_agents, n_fields, seed, environment=environment
    ) == stream
    if environment is None:
        suite = paper_suite(grid, n_agents, n_random=n_fields, seed=seed)
        fields = stream + special_configurations(grid, n_agents)
        assert list(suite) == fields
        assert [suite[row] for row in range(-len(suite), 0)] == fields
        assert suite.fingerprint == digest_configurations(fields)


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from("ST"), size=st.integers(3, 8),
       n_fields=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       n_obstacles=st.integers(0, 3), data=st.data())
def test_simulator_reads_a_suite_as_its_configurations(kind, size, n_fields,
                                                       seed, n_obstacles,
                                                       data):
    grid = make_grid(kind, size)
    environment = _obstacle_environment(grid, n_obstacles, seed)
    n_agents = data.draw(st.integers(1, min(12, grid.n_cells - n_obstacles)),
                         label="n_agents")
    stated = data.draw(st.lists(st.booleans(), min_size=n_fields,
                                max_size=n_fields), label="stated")
    states = np.random.default_rng(seed).integers(0, 4, (n_fields, n_agents))
    configs = [
        replace(config, states=tuple(row.tolist())) if flag else config
        for config, flag, row in zip(
            random_configurations(grid, n_agents, n_fields, seed,
                                  environment=environment),
            stated, states,
        )
    ]
    suite = ConfigSuite.from_configurations(configs, grid, seed=seed)
    assert list(suite) == configs
    assert suite.fingerprint == digest_configurations(configs)
    revived = pickle.loads(pickle.dumps(suite))
    assert revived == suite and revived.fingerprint == suite.fingerprint
    # two FSMs over the suite: FSM-major lanes, as evaluate_population
    # lays them out
    fsms = [_fsm(), FSM.random(np.random.default_rng(seed), n_states=4)]
    lane_fsms = [fsm for fsm in fsms for _ in configs]
    simulators = [
        BatchSimulator(grid, lane_fsms, suite.tile(2),
                       environment=environment),
        BatchSimulator(grid, lane_fsms, list(suite) * 2,
                       environment=environment),
        LegacyBatchSimulator(grid, lane_fsms, configs * 2,
                             environment=environment),
    ]
    for _ in range(15):
        for other in simulators[1:]:
            _assert_same_views(simulators[0], other)
        for simulator in simulators:
            simulator.step()
    first, *others = [simulator.run(t_max=60) for simulator in simulators]
    for result in others:
        assert (first.success == result.success).all()
        assert (first.t_comm == result.t_comm).all()
        assert (first.informed_agents == result.informed_agents).all()


def test_suite_paths_build_no_configuration_objects(monkeypatch):
    built = []
    check = InitialConfiguration.__post_init__

    def counting(config):
        built.append(config.name)
        check(config)

    monkeypatch.setattr(InitialConfiguration, "__post_init__", counting)
    grid = make_grid("T", 8)
    suite = paper_suite(grid, 4, n_random=6, seed=3)
    built.clear()   # the manual fields are built as objects, then stored
    fsms = [_fsm(), FSM.random(np.random.default_rng(9), n_states=4)]
    single = evaluate_fsm(grid, fsms[0], suite, t_max=40)
    chunked = evaluate_population(grid, fsms, suite, t_max=40, lane_block=18)
    assert suite.fingerprint
    assert built == []
    assert chunked[0] == single
    assert len(suite[2:4]) == 2 and built == ["random-2", "random-3"]


# -- construction errors --------------------------------------------------------


def _fsm(n_states=4):
    return FSM.random(np.random.default_rng(n_states), n_states=n_states)


_GOOD = InitialConfiguration(((0, 0), (2, 3)), (0, 1))


@pytest.mark.parametrize("shared", [False, True], ids=["fresh", "repeated"])
@pytest.mark.parametrize("bad, message, environment", [
    (InitialConfiguration(((1, 1), (2, 3)), (0, 1)),
     "a configuration places an agent on an obstacle",
     lambda grid: Environment(grid, obstacles=[(1, 1)])),
    (InitialConfiguration(((0, 0), (8, 0)), (0, 0)),
     "a configuration places two agents on one cell", None),
    (InitialConfiguration(((0, 0), (2, 3)), (0, 4)),
     "a configuration direction is out of range for this grid", None),
    (InitialConfiguration(((0, 0), (2, 3)), (0, -1)),
     "a configuration direction is out of range for this grid", None),
    (InitialConfiguration(((0, 0), (2, 3)), (0, 1), states=(0, 4)),
     "an initial control state is out of range for this FSM", None),
    (InitialConfiguration(((0, 0), (2, 3)), (0, 1), states=(-1, 0)),
     "an initial control state is out of range for this FSM", None),
], ids=["obstacle", "double", "direction", "negative-direction", "state",
        "negative-state"])
def test_bad_configuration_rejected(bad, message, environment, shared):
    # the bad field sits behind a good one; "repeated" spreads both fields
    # over two FSMs, so each configuration object covers two lanes
    grid = SquareGrid(8)
    env = environment(grid) if environment else None
    fsms = [_fsm(), _fsm(4).copy()]
    if shared:
        lane_fsms = [fsm for fsm in fsms for _ in range(2)]
        configs = [_GOOD, bad] * 2
    else:
        lane_fsms, configs = fsms, [_GOOD, bad]
    with pytest.raises(ValueError, match=re.escape(message)):
        BatchSimulator(grid, lane_fsms, configs, environment=env)


class _TooHighScheme:
    """A state scheme naming a state no FSM has."""

    def states_for(self, n_agents, n_states):
        return tuple(n_states for _ in range(n_agents))


def test_out_of_range_scheme_state_rejected():
    with pytest.raises(ValueError, match=re.escape(
        "an initial control state is out of range for this FSM"
    )):
        BatchSimulator(SquareGrid(8), _fsm(), [_GOOD],
                       state_scheme=_TooHighScheme())


@pytest.mark.parametrize("scheme, default", [
    (None, [0, 1]), (InitialStateScheme.ALL_ONE, [1, 1]),
])
def test_explicit_states_mix_with_the_default(scheme, default):
    explicit = InitialConfiguration(((0, 0), (2, 3)), (0, 1), states=(3, 2))
    simulator = BatchSimulator(SquareGrid(8), _fsm(), [_GOOD, explicit, _GOOD],
                               state_scheme=scheme)
    assert simulator.state.tolist() == [default, [3, 2], default]


def test_suite_for_another_grid_size_rejected():
    suite = paper_suite(make_grid("S", 16), 2, n_random=2)
    with pytest.raises(ValueError, match=re.escape(
        "a 16 x 16 suite on a 8 x 8 grid"
    )):
        BatchSimulator(SquareGrid(8), _fsm(), suite)


def test_fsm_lane_count_mismatch_rejected():
    with pytest.raises(ValueError, match=re.escape("3 FSMs for 2 lanes")):
        BatchSimulator(SquareGrid(8), [_fsm()] * 3, [_GOOD, _GOOD])


def test_mixed_agent_counts_rejected():
    configs = [_GOOD, InitialConfiguration(((0, 0),), (0,))]
    with pytest.raises(ValueError, match=re.escape(
        "all lanes must have the same number of agents"
    )):
        BatchSimulator(SquareGrid(8), _fsm(), configs)


@pytest.mark.parametrize("agent_fsms", [False, True])
def test_mixed_state_counts_across_distinct_fsms_rejected(agent_fsms):
    four, two = _fsm(4), _fsm(2)
    grid = SquareGrid(8)
    with pytest.raises(ValueError, match=re.escape(
        "all lane FSMs must have the same state count"
    )):
        if agent_fsms:
            BatchSimulator(grid, configs=[_GOOD] * 3, agent_fsms=[four, two])
        else:
            BatchSimulator(grid, [four, four, two, two], [_GOOD] * 4)


@pytest.mark.parametrize("agent_fsms", [False, True])
def test_mixed_colour_alphabets_across_distinct_fsms_rejected(agent_fsms):
    rng = np.random.default_rng(1)
    binary = MulticolorFSM.random(rng, n_states=4, n_colors=2)
    ternary = MulticolorFSM.random(rng, n_states=4, n_colors=3)
    grid = SquareGrid(8)
    with pytest.raises(ValueError, match=re.escape(
        "all lane FSMs must share the colour alphabet"
    )):
        if agent_fsms:
            BatchSimulator(grid, configs=[_GOOD] * 3,
                           agent_fsms=[binary, ternary])
        else:
            BatchSimulator(grid, [binary, binary, ternary, ternary],
                           [_GOOD] * 4)


# -- shared rows ------------------------------------------------------------------


def _table_rows(simulator):
    """FSM rows behind a simulator's composite tables (the odd-step ones
    too, when time-shuffled), each holding one block of inputs x headings
    x states per row."""
    block = N_INPUT_COMBOS * simulator._n_directions * simulator.n_states
    tables = (simulator._move_bit, simulator._set_color,
              simulator._next_code) + getattr(simulator, "_tables_odd", ())
    for table in tables:
        assert table.size == block * simulator._n_rows
    return simulator._n_rows


def _species(simulator):
    """The table row of every working (lane, agent), read off its code."""
    return simulator._code // simulator.n_states % simulator._n_rows


def _assert_same_views(simulator, other):
    for view in _VIEWS:
        assert (getattr(simulator, view) == getattr(other, view)).all(), view
    assert (simulator.done == other.done).all()
    assert (simulator.t_comm == other.t_comm).all()


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("kind", ["S", "T"])
def test_shared_rows_equal_per_lane_copies(kind, backend):
    grid = make_grid(kind, 8)
    fsms = [published_fsm(kind)] + [
        FSM.random(np.random.default_rng(seed)) for seed in range(3)
    ]
    fields = random_configurations(grid, 6, 5, seed=11)
    lane_configs = fields * len(fsms)
    shared = BatchSimulator(
        grid, [fsm for fsm in fsms for _ in fields], lane_configs,
        backend=backend,
    )
    copies = BatchSimulator(
        grid, [fsm.copy() for fsm in fsms for _ in fields], lane_configs,
        backend=backend,
    )
    legacy = LegacyBatchSimulator(
        grid, [fsm for fsm in fsms for _ in fields], lane_configs
    )
    assert _table_rows(shared) == len(fsms)
    assert _table_rows(copies) == len(lane_configs)
    assert (_species(shared) == np.repeat(np.arange(4), 5)[:, None]).all()
    for _ in range(40):
        _assert_same_views(shared, copies)
        _assert_same_views(shared, legacy)
        shared.step()
        copies.step()
        legacy.step()
    shared_result = shared.run(t_max=120)
    copies_result = copies.run(t_max=120)
    legacy_result = legacy.run(t_max=120)
    for result in (copies_result, legacy_result):
        assert (shared_result.success == result.success).all()
        assert (shared_result.t_comm == result.t_comm).all()
        assert (shared_result.informed_agents == result.informed_agents).all()
    _assert_same_views(shared, copies)


@pytest.mark.parametrize("backend", _BACKENDS)
def test_shared_agent_fsms_equal_legacy(backend):
    grid = make_grid("T", 8)
    pair = [published_fsm("T"), FSM.random(np.random.default_rng(4))]
    agent_fsms = [pair[agent % 2] for agent in range(6)]
    configs = random_configurations(grid, 6, 4, seed=5)
    shared = BatchSimulator(grid, configs=configs, agent_fsms=agent_fsms,
                            backend=backend)
    legacy = LegacyBatchSimulator(grid, configs=configs,
                                  agent_fsms=agent_fsms)
    assert _table_rows(shared) == 2
    assert (_species(shared) == np.arange(6) % 2).all()
    for _ in range(30):
        _assert_same_views(shared, legacy)
        shared.step()
        legacy.step()
    _assert_same_views(shared, legacy)


def test_shared_even_fsm_keeps_each_lanes_odd_fsm():
    # both lanes share one even FSM object (and one field) but not their
    # odd FSM: sharing rows on the even FSM alone would run lane 1 on
    # lane 0's odd table
    grid = make_grid("T", 8)
    even = published_fsm("T")
    odds = [FSM.random(np.random.default_rng(seed)) for seed in (21, 22)]
    config = random_configuration(grid, 6, np.random.default_rng(8))
    batch = TimeShuffledBatchSimulator(
        grid, [even, even], odds, [config, config]
    )
    assert _table_rows(batch) == 2
    references = [
        TimeShuffledSimulation(grid, even, odd, config) for odd in odds
    ]
    for _ in range(40):
        for lane, reference in enumerate(references):
            agents = reference.agents
            assert list(batch.px[lane]) == [agent.x for agent in agents]
            assert list(batch.py[lane]) == [agent.y for agent in agents]
            assert list(batch.direction[lane]) == [
                agent.direction for agent in agents
            ]
            assert list(batch.state[lane]) == [agent.state for agent in agents]
            assert (
                batch.colors[lane] == reference.colors.reshape(-1)
            ).all()
            if not batch.done[lane]:
                reference.step()
        batch.step()
    assert (batch.px[0] != batch.px[1]).any() or (
        batch.state[0] != batch.state[1]
    ).any()


def test_shared_pairs_share_rows():
    grid = make_grid("S", 8)
    even, odd = published_fsm("S"), FSM.random(np.random.default_rng(3))
    configs = random_configurations(grid, 4, 3, seed=9)
    batch = TimeShuffledBatchSimulator(
        grid, [even] * 3 + [odd] * 3, [odd] * 3 + [even] * 3, configs * 2
    )
    assert _table_rows(batch) == 2
    shared = batch.run(t_max=150)
    for lane, config in enumerate(configs * 2):
        pair = (even, odd) if lane < 3 else (odd, even)
        reference = TimeShuffledSimulation(grid, *pair, config).run(t_max=150)
        assert bool(shared.success[lane]) == reference.success
        if reference.success:
            assert int(shared.t_comm[lane]) == reference.t_comm
        assert int(shared.informed_agents[lane]) == reference.informed_agents
