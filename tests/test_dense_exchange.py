"""Dense-field knowledge exchange and the step that skips the conflict arena.

On the numpy backend a world whose occupancy reaches ``DENSE_OCCUPANCY``
exchanges knowledge as a lane-blocked cell stencil (one OR per direction
over a halo-padded knowledge field) instead of per-agent gathers, and a
step in which nobody requests a free front cell skips conflict
resolution and the occupancy scatters.  Both must be invisible: every
public view, ``done`` and ``t_comm`` are checked step by step against
:class:`LegacyBatchSimulator` (the frozen per-agent stepper), the scalar
:class:`Simulation`, and the per-lane kernels of the pykernel and numba
backends, on both sides of the density threshold.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.configs.random_configs import random_configurations
from repro.configs.suite import paper_suite
from repro.configs.types import InitialConfiguration
from repro.core.backends import numba_available, numpy_backend
from repro.core.backends.numpy_backend import DENSE_OCCUPANCY
from repro.core.environment import Environment
from repro.core.fsm import FSM
from repro.core.inputs import N_INPUT_COMBOS
from repro.core.published import published_fsm
from repro.core.simulation import Simulation
from repro.core.vectorized import BatchSimulator
from repro.extensions.timeshuffle import (
    TimeShuffledBatchSimulator,
    TimeShuffledSimulation,
)
from repro.grids import make_grid
from repro.perf.reference import LegacyBatchSimulator

_BACKENDS = ["numpy", "pykernel"] + (["numba"] if numba_available() else [])

_VIEWS = ("px", "py", "direction", "state", "colors", "occupancy", "knowledge")

#: Lanes per batch; ``test_resident_field_matches_the_kernel_twin``
#: shrinks the stencil block to cover partial last blocks.
_LANES = 34

_ENVIRONMENTS = ("cyclic", "bordered", "obstacles", "walled")


def _environment(grid, name):
    """A cyclic, bordered, obstacle or walled (bordered + obstacles) world."""
    size = grid.size
    obstacles = [(1, 1), (size - 2, 2), (2, size - 1), (size // 2, size // 2)]
    if name == "cyclic":
        return Environment.cyclic(grid)
    if name == "bordered":
        return Environment(grid, bordered=True)
    return Environment(grid, bordered=name == "walled", obstacles=obstacles)


def _dense_threshold(environment):
    """The smallest agent count that takes the stencil."""
    return math.ceil(DENSE_OCCUPANCY * environment.n_free_cells)


def _fsms(kind, n_lanes, seed):
    """The published FSM on lane 0, random FSMs elsewhere."""
    rng = np.random.default_rng(seed)
    return [published_fsm(kind)] + [
        FSM.random(rng) for _ in range(n_lanes - 1)
    ]


def _assert_same_views(simulator, other):
    for view in _VIEWS:
        assert (getattr(simulator, view) == getattr(other, view)).all(), view
    assert (simulator.done == other.done).all()
    assert (simulator.t_comm == other.t_comm).all()


def _lockstep(simulator, other, steps):
    for _ in range(steps):
        _assert_same_views(simulator, other)
        simulator.step()
        other.step()
    _assert_same_views(simulator, other)


def _pair(grid, fsms, configs, environment, backend, **kwargs):
    """The simulator under test and its legacy oracle."""
    return (
        BatchSimulator(grid, fsms, configs, environment=environment,
                       backend=backend, **kwargs),
        LegacyBatchSimulator(grid, fsms, configs, environment=environment,
                             **kwargs),
    )


def _assert_path(simulator, dense):
    """The exchange path the numpy backend took on ``simulator``."""
    counters = simulator.counters
    if dense and simulator.backend_name == "numpy":
        assert counters.dense_exchanges == counters.exchanges > 0
    else:
        assert counters.dense_exchanges == 0


# -- both sides of the threshold ------------------------------------------------


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("density", ["below", "threshold", "full"])
@pytest.mark.parametrize("env_name", _ENVIRONMENTS)
@pytest.mark.parametrize("kind", ["S", "T"])
def test_matches_legacy_across_the_threshold(kind, env_name, density,
                                              backend):
    grid = make_grid(kind, 6)
    environment = _environment(grid, env_name)
    threshold = _dense_threshold(environment)
    n_agents = {
        "below": threshold - 1,
        "threshold": threshold,
        "full": environment.n_free_cells,
    }[density]
    configs = random_configurations(grid, n_agents, _LANES, seed=n_agents,
                                    environment=environment)
    simulator, legacy = _pair(grid, _fsms(kind, _LANES, 3), configs,
                              environment, backend)
    _lockstep(simulator, legacy, 25)
    _assert_path(simulator, density != "below")


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("env_name", ["cyclic", "walled"])
@pytest.mark.parametrize("kind", ["S", "T"])
@pytest.mark.parametrize("full", [False, True])
def test_multi_word_knowledge(kind, env_name, full, backend):
    # k > 64: two (the threshold, 70-72) and three (a full 12x12)
    # knowledge words
    grid = make_grid(kind, 12)
    environment = _environment(grid, env_name)
    n_agents = (
        environment.n_free_cells if full else _dense_threshold(environment)
    )
    assert n_agents > 64
    configs = random_configurations(grid, n_agents, 3, seed=5,
                                    environment=environment)
    simulator, legacy = _pair(grid, _fsms(kind, 3, 4), configs, environment,
                              backend)
    _lockstep(simulator, legacy, 12)
    _assert_path(simulator, True)


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("bordered", [False, True])
@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("kind", ["S", "T"])
def test_tiny_worlds(kind, size, bordered, backend):
    # on a 2- or 3-torus opposite neighbours coincide, or wrap onto the
    # agent's own row; the halo must wrap exactly like the gather table
    grid = make_grid(kind, size)
    environment = Environment(grid, bordered=bordered)
    for n_agents in range(_dense_threshold(environment), size * size + 1):
        configs = random_configurations(grid, n_agents, _LANES, seed=size,
                                        environment=environment)
        simulator, legacy = _pair(grid, _fsms(kind, _LANES, n_agents),
                                  configs, environment, backend)
        _lockstep(simulator, legacy, 10)
        _assert_path(simulator, True)


# -- lanes leaving the working set ----------------------------------------------


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("kind", ["S", "T"])
def test_lanes_retire_mid_run(kind, backend):
    grid = make_grid(kind, 8)
    environment = Environment.cyclic(grid)
    configs = random_configurations(grid, 40, 70, seed=8)
    fsms = [published_fsm(kind)] * 70
    simulator, legacy = _pair(grid, fsms, configs, environment, backend)
    result = simulator.run(t_max=200)
    legacy_result = legacy.run(t_max=200)
    # lanes solve at different steps, so the working set shrinks mid-run
    assert len(set(result.t_comm[result.success].tolist())) > 1
    assert (result.success == legacy_result.success).all()
    assert (result.t_comm == legacy_result.t_comm).all()
    assert (result.informed_agents == legacy_result.informed_agents).all()
    _assert_same_views(simulator, legacy)
    _assert_path(simulator, True)


def _walled_halves(grid):
    """A bordered world cut in two by a full obstacle column: knowledge
    can never cross it, so no lane ever solves."""
    column = grid.size // 2
    return Environment(
        grid, bordered=True,
        obstacles=[(column, y) for y in range(grid.size)],
    )


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("kind", ["S", "T"])
def test_cycle_parking_on_full_walled_halves(kind, backend):
    grid = make_grid(kind, 6)
    environment = _walled_halves(grid)
    configs = random_configurations(grid, environment.n_free_cells, _LANES,
                                    seed=12, environment=environment)
    simulator, legacy = _pair(grid, _fsms(kind, _LANES, 6), configs,
                              environment, backend)
    result = simulator.run(t_max=120)
    legacy_result = legacy.run(t_max=120)
    assert simulator.counters.cycled_lanes > 0
    assert not result.success.any()
    assert (result.informed_agents == legacy_result.informed_agents).all()
    assert simulator.t == legacy.t == 120
    _assert_same_views(simulator, legacy)
    _assert_path(simulator, True)


# -- other FSM assignments ------------------------------------------------------


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("kind", ["S", "T"])
def test_agent_fsms_lanes(kind, backend):
    grid = make_grid(kind, 6)
    environment = _environment(grid, "obstacles")
    n_agents = _dense_threshold(environment) + 4
    pool = _fsms(kind, 3, 9)
    agent_fsms = [pool[agent % 3] for agent in range(n_agents)]
    configs = random_configurations(grid, n_agents, _LANES, seed=2,
                                    environment=environment)
    simulator, legacy = _pair(grid, None, configs, environment, backend,
                              agent_fsms=agent_fsms)
    _lockstep(simulator, legacy, 25)
    _assert_path(simulator, True)


def _knowledge_int(words):
    """One agent's packed knowledge words as a Python int."""
    return sum(int(word) << (64 * index) for index, word in enumerate(words))


def _assert_lane_matches_scalar(batch, lane, reference):
    agents = reference.agents
    assert list(batch.px[lane]) == [agent.x for agent in agents]
    assert list(batch.py[lane]) == [agent.y for agent in agents]
    assert list(batch.direction[lane]) == [agent.direction for agent in agents]
    assert list(batch.state[lane]) == [agent.state for agent in agents]
    assert (batch.colors[lane] == reference.colors.reshape(-1)).all()
    assert [
        _knowledge_int(words) for words in batch.knowledge[lane]
    ] == [agent.knowledge for agent in agents]


@pytest.mark.parametrize("kind", ["S", "T"])
def test_time_shuffled_lanes_match_the_scalar_reference(kind):
    grid = make_grid(kind, 6)
    environment = _environment(grid, "walled")
    n_agents = _dense_threshold(environment) + 6
    configs = random_configurations(grid, n_agents, 4, seed=21,
                                    environment=environment)
    rng = np.random.default_rng(22)
    evens = [published_fsm(kind)] + [FSM.random(rng) for _ in range(3)]
    odds = [FSM.random(rng) for _ in range(4)]
    batch = TimeShuffledBatchSimulator(grid, evens, odds, configs,
                                       environment=environment)
    references = [
        TimeShuffledSimulation(grid, even, odd, config,
                               environment=environment)
        for even, odd, config in zip(evens, odds, configs)
    ]
    for _ in range(30):
        for lane, reference in enumerate(references):
            _assert_lane_matches_scalar(batch, lane, reference)
            if not batch.done[lane]:
                reference.step()
        batch.step()
    _assert_path(batch, True)


@pytest.mark.parametrize("kind", ["S", "T"])
def test_table1_k256_fields_match_the_scalar_simulation(kind):
    grid = make_grid(kind, 16)
    fsm = published_fsm(kind)
    suite = paper_suite(grid, 256, seed=2013)
    fields = [suite[0], suite[len(suite) - 1]]
    batch = BatchSimulator(grid, fsm, fields)
    result = batch.run(t_max=1000)
    for lane, field in enumerate(fields):
        reference = Simulation(grid, fsm, field)
        expected = reference.run(t_max=1000)
        assert bool(result.success[lane]) == expected.success
        assert int(result.t_comm[lane]) == expected.t_comm
        assert int(result.informed_agents[lane]) == expected.informed_agents
        _assert_lane_matches_scalar(batch, lane, reference)
    # a full torus floods in diameter - 1 steps: 15 on S16, 9 on T16
    assert set(result.t_comm.tolist()) == {15 if kind == "S" else 9}
    _assert_path(batch, True)


# -- the step that skips the conflict arena ----------------------------------------


def _table_fsm(n_states, move_state, name):
    """Counts its control state up by one each step and turns when
    blocked; requests a move only in ``move_state`` (never when None)."""
    rows = np.arange(n_states * N_INPUT_COMBOS)
    state, x = rows % n_states, rows // n_states
    return FSM(
        next_state=((state + 1) % n_states).astype(np.int8),
        set_color=((x >> 1) & 1 ^ 1).astype(np.int8),
        move=(state == move_state).astype(np.int8),
        turn=(x & 1).astype(np.int8),
        name=name,
    )


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("kind", ["S", "T"])
@pytest.mark.parametrize("n_agents", [6, 40])
def test_nobody_requests_a_free_cell(kind, n_agents, backend):
    grid = make_grid(kind, 8)
    environment = Environment.cyclic(grid)
    fsm = _table_fsm(2, None, "never-moves")
    configs = random_configurations(grid, n_agents, _LANES, seed=14)
    simulator, legacy = _pair(grid, fsm, configs, environment, backend)
    _lockstep(simulator, legacy, 20)
    if backend == "numpy":
        # the conflict arena was never touched
        assert (simulator._winner == n_agents).all()


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("kind", ["S", "T"])
@pytest.mark.parametrize("env_name", ["cyclic", "walled"])
def test_requests_appear_and_vanish_between_steps(kind, env_name, backend):
    # every agent starts in state 0 and moves only in state 3 of 4, so
    # steps with requests alternate with steps without, two by two
    grid = make_grid(kind, 8)
    environment = _environment(grid, env_name)
    fsm = _table_fsm(4, 3, "moves-every-fourth-step")
    configs = [
        InitialConfiguration(config.positions, config.directions,
                             states=(0,) * config.n_agents)
        for config in random_configurations(grid, 12, _LANES, seed=31,
                                            environment=environment)
    ]
    simulator, legacy = _pair(grid, fsm, configs, environment, backend)
    moved = []
    for _ in range(24):
        _assert_same_views(simulator, legacy)
        before = simulator.px.copy(), simulator.py.copy()
        simulator.step()
        legacy.step()
        moved.append(bool((simulator.px != before[0]).any()
                          or (simulator.py != before[1]).any()))
    _assert_same_views(simulator, legacy)
    assert moved == [t % 4 == 3 for t in range(24)]


# -- observability ----------------------------------------------------------------


@pytest.mark.parametrize("kind", ["S", "T"])
def test_dense_exchanges_counter(kind):
    grid = make_grid(kind, 16)
    sparse = BatchSimulator(grid, published_fsm(kind),
                            paper_suite(grid, 8, n_random=20, seed=2013))
    sparse.run(t_max=200)
    assert sparse.counters.exchanges > 0
    assert sparse.counters.dense_exchanges == 0
    packed = BatchSimulator(grid, published_fsm(kind),
                            paper_suite(grid, 256, n_random=20, seed=2013))
    packed.run(t_max=200)
    assert packed.counters.dense_exchanges == packed.counters.exchanges > 0


# -- the kernel backends on the same dense inputs ------------------------------


@pytest.mark.parametrize(
    "backend", ["pykernel"] + (["numba"] if numba_available() else [])
)
@pytest.mark.parametrize("env_name", ["cyclic", "walled"])
@pytest.mark.parametrize("kind", ["S", "T"])
@pytest.mark.parametrize("size, full", [(8, True), (9, False)])
def test_stencil_matches_the_kernels(kind, env_name, size, full, backend):
    grid = make_grid(kind, size)
    environment = _environment(grid, env_name)
    n_agents = environment.n_free_cells if full else 70
    configs = random_configurations(grid, n_agents, _LANES, seed=size,
                                    environment=environment)
    fsms = _fsms(kind, _LANES, 17)
    stencil, kernel = (
        BatchSimulator(grid, fsms, configs, environment=environment,
                       backend=name)
        for name in ("numpy", backend)
    )
    assert kernel.backend_name == backend
    _lockstep(stencil, kernel, 15)
    _assert_path(stencil, True)


# -- the resident field against the kernel twin, read at random steps -----------

#: Counters whose meaning every backend shares.
_SHARED_COUNTERS = ("steps", "lane_steps", "exchanges", "exchange_early_outs",
                    "compactions", "retired_lanes", "cycled_lanes")


def _assert_same_outcomes(simulator, twin):
    _assert_same_views(simulator, twin)
    assert (simulator.informed_counts() == twin.informed_counts()).all()
    for name in _SHARED_COUNTERS:
        assert getattr(simulator.counters, name) == getattr(
            twin.counters, name), name


def _check_dense_run(kind, size, env_name, obstacles, n_agents, n_lanes,
                     lanes_per_block, seed, delayed, t_max, reads):
    """Step numpy and pykernel side by side on one dense world, comparing
    them at the steps in ``reads``; ``reads=None`` runs both with
    ``run(t_max)`` and compares them only when it returns.  ``delayed``
    lanes stand still for their first steps and then start moving."""
    grid = make_grid(kind, size)
    environment = (
        Environment(grid, obstacles=obstacles) if env_name == "obstacles"
        else Environment(grid, bordered=env_name == "bordered")
    )
    configs = random_configurations(grid, n_agents, n_lanes, seed=seed,
                                    environment=environment)
    if delayed:
        fsms = _table_fsm(6, 5, "moves-from-the-fifth-step")
        configs = [
            InitialConfiguration(config.positions, config.directions,
                                 states=(0,) * n_agents)
            for config in configs
        ]
    else:
        rng = np.random.default_rng(seed)
        fsms = [FSM.random(rng) for _ in range(n_lanes)]
    words = (size + 2) ** 2 * ((n_agents + 63) // 64)
    with mock.patch.object(numpy_backend, "_STENCIL_BLOCK",
                           lanes_per_block * words):
        simulator, twin = (
            BatchSimulator(grid, fsms, configs, environment=environment,
                           backend=name)
            for name in ("numpy", "pykernel")
        )
        if reads is None:
            result, expected = simulator.run(t_max), twin.run(t_max)
            assert (result.success == expected.success).all()
            assert (result.t_comm == expected.t_comm).all()
            assert (result.informed_agents == expected.informed_agents).all()
        else:
            for t in range(t_max):
                if t in reads:
                    _assert_same_outcomes(simulator, twin)
                simulator.step()
                twin.step()
        _assert_same_outcomes(simulator, twin)
    _assert_path(simulator, True)
    return simulator


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_resident_field_matches_the_kernel_twin(data):
    kind = data.draw(st.sampled_from(["S", "T"]), label="kind")
    size = data.draw(st.integers(min_value=3, max_value=8), label="size")
    env_name = data.draw(
        st.sampled_from(["cyclic", "bordered", "obstacles"]), label="world"
    )
    obstacles = data.draw(st.sets(
        st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
        min_size=1, max_size=3,
    ), label="obstacles") if env_name == "obstacles" else ()
    free_cells = size * size - len(obstacles)
    n_agents = data.draw(st.integers(
        min_value=math.ceil(DENSE_OCCUPANCY * free_cells),
        max_value=free_cells,
    ), label="k")
    t_max = data.draw(st.integers(min_value=1, max_value=30), label="t_max")
    reads = data.draw(st.one_of(
        st.none(), st.sets(st.integers(min_value=0, max_value=t_max - 1)),
    ), label="reads")
    _check_dense_run(
        kind, size, env_name, obstacles, n_agents,
        n_lanes=data.draw(st.integers(1, 5), label="lanes"),
        lanes_per_block=data.draw(st.integers(1, 3), label="block"),
        seed=data.draw(st.integers(0, 2**16), label="seed"),
        delayed=data.draw(st.booleans(), label="delayed"),
        t_max=t_max, reads=reads,
    )


@pytest.mark.parametrize("kind", ["S", "T"])
def test_resident_field_unread_until_run_returns(kind):
    # full and half-full worlds, nothing read before run() has returned
    for n_agents in (36, 20):
        simulator = _check_dense_run(kind, 6, "cyclic", (), n_agents, 5, 2,
                                     seed=n_agents, delayed=False, t_max=40,
                                     reads=None)
        assert simulator.counters.exchanges > 1


@pytest.mark.parametrize("env_name", ["cyclic", "bordered"])
@pytest.mark.parametrize("kind", ["S", "T"])
def test_resident_field_through_the_first_moves(kind, env_name):
    # five still steps in the resident field, then the first movers
    simulator = _check_dense_run(kind, 6, env_name, (), 24, 5, 2, seed=3,
                                 delayed=True, t_max=12, reads={0, 5, 9})
    start = random_configurations(simulator.grid, 24, 5, seed=3,
                                  environment=simulator.environment)
    assert any(
        list(zip(px, py)) != list(config.positions)
        for px, py, config in zip(simulator.px, simulator.py, start)
    )


def _never_moving_twins(grid, environment, configs):
    fsm = _table_fsm(2, None, "never-moves")
    return (
        BatchSimulator(grid, fsm, configs, environment=environment,
                       backend=name)
        for name in ("numpy", "pykernel")
    )


def test_static_checkerboard_is_an_early_out():
    # on an S checkerboard nobody is a neighbour, so no knowledge ever
    # changes; across the wrap each cell's merged halo mirror sees a
    # diagonal cell, which must not count as a change
    grid = make_grid("S", 6)
    environment = Environment.cyclic(grid)
    cells = [(x, y) for x in range(6) for y in range(6) if (x + y) % 2 == 0]
    configs = [InitialConfiguration(cells, (0,) * len(cells))] * 3
    simulator, twin = _never_moving_twins(grid, environment, configs)
    _lockstep(simulator, twin, 8)
    assert simulator.counters.exchange_early_outs == 8
    _assert_same_outcomes(simulator, twin)


def test_cycle_check_reads_the_resident_field():
    # a full bordered S 10 x 10 floods in 17 steps while every agent's
    # state, heading and colour repeat with a period dividing 12: the
    # check at t = 13 must see the knowledge gained since t = 1
    grid = make_grid("S", 10)
    environment = Environment(grid, bordered=True)
    configs = random_configurations(grid, 100, 3, seed=4,
                                    environment=environment)
    simulator, twin = _never_moving_twins(grid, environment, configs)
    result, expected = simulator.run(t_max=25), twin.run(t_max=25)
    assert result.success.all() and (result.t_comm == 17).all()
    assert (result.t_comm == expected.t_comm).all()
    _assert_same_outcomes(simulator, twin)
