"""Direction-major knowledge exchange and the one-scatter conflict arena.

On the numpy backend a sparse world exchanges knowledge by gathering all
4 (S) or 6 (T) neighbour directions of a lane block at once and
OR-reducing over the direction axis, and resolves move conflicts with
one scatter and one gather, plus a ``minimum.at`` fix-up only where two
agents requested one cell.  Both must be invisible: every public view,
``done`` and ``t_comm`` are checked step by step against
:class:`LegacyBatchSimulator` (the frozen per-agent stepper) and the
per-lane kernels of the pykernel and numba backends.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.configs.random_configs import random_configurations
from repro.configs.types import InitialConfiguration
from repro.core.backends import numba_available
from repro.core.backends import numpy_backend
from repro.core.environment import Environment
from repro.core.fsm import FSM
from repro.core.inputs import N_INPUT_COMBOS
from repro.core.published import published_fsm
from repro.core.vectorized import BatchSimulator
from repro.grids import make_grid
from repro.perf.reference import LegacyBatchSimulator

_BACKENDS = ["numpy", "pykernel"] + (["numba"] if numba_available() else [])

_KERNELS = ["pykernel"] + (["numba"] if numba_available() else [])

_VIEWS = ("px", "py", "direction", "state", "colors", "occupancy", "knowledge")

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


def _assert_exchange_indices_in_range(simulator):
    """Every index the exchange gathers with ``mode="clip"`` is in range.

    Clipping would silently map a bad index to the first or last
    element, so the indices the three gathers will use are rebuilt here
    and bounds-checked instead.
    """
    if not isinstance(getattr(simulator, "_exchange", None),
                      numpy_backend._AgentExchange):
        return
    n = simulator.n_active_lanes
    pos = simulator._pos[:n]
    assert pos.min(initial=0) >= 0
    assert pos.max(initial=0) < simulator._neigh_table.shape[1]
    cells = simulator._neigh_table[:, pos] + simulator._row_pad[:n]
    assert cells.min(initial=0) >= 0
    assert cells.max(initial=0) < simulator._occ_pad.size
    occupant = simulator._occ_pad.reshape(-1)[cells]
    assert occupant.min(initial=0) >= 0
    assert occupant.max(initial=0) <= simulator.n_agents
    rows = occupant + simulator._row_know[:n]
    assert rows.max(initial=0) < simulator._know_padded.shape[0] * (
        simulator.n_agents + 1
    )


def _lockstep(simulator, other, steps):
    # a step ends with the exchange, so its indices are checked against
    # the state it left, before any view can show a bad gather
    _assert_exchange_indices_in_range(simulator)
    _assert_same_views(simulator, other)
    for _ in range(steps):
        simulator.step()
        other.step()
        _assert_exchange_indices_in_range(simulator)
        _assert_same_views(simulator, other)


def _pair(grid, fsms, configs, environment, backend):
    """The simulator under test and its legacy oracle."""
    return (
        BatchSimulator(grid, fsms, configs, environment=environment,
                       backend=backend),
        LegacyBatchSimulator(grid, fsms, configs, environment=environment),
    )


def _assert_sparse(simulator):
    """The simulator exchanged by per-agent gathers, not the stencil."""
    assert simulator.counters.dense_exchanges == 0
    if simulator.backend_name == "numpy":
        assert isinstance(simulator._exchange, numpy_backend._AgentExchange)


# -- worlds and agent counts --------------------------------------------------


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("n_agents", [1, 5, 12])
@pytest.mark.parametrize("env_name", _ENVIRONMENTS)
@pytest.mark.parametrize("kind", ["S", "T"])
def test_matches_legacy(kind, env_name, n_agents, backend):
    grid = make_grid(kind, 8)
    environment = _environment(grid, env_name)
    configs = random_configurations(grid, n_agents, 9, seed=n_agents,
                                    environment=environment)
    simulator, legacy = _pair(grid, _fsms(kind, 9, n_agents), configs,
                              environment, backend)
    _lockstep(simulator, legacy, 30)
    _assert_sparse(simulator)


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("bordered", [False, True])
@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("kind", ["S", "T"])
def test_tiny_worlds(kind, size, bordered, backend):
    # on a 2- or 3-torus two directions reach one neighbour cell, which
    # is then ORed in twice; a 2-torus even wraps onto the agent's own row
    grid = make_grid(kind, size)
    environment = Environment(grid, bordered=bordered)
    below = math.ceil(numpy_backend.DENSE_OCCUPANCY * size * size)
    for n_agents in range(1, below):
        configs = random_configurations(grid, n_agents, 12, seed=size,
                                        environment=environment)
        simulator, legacy = _pair(grid, _fsms(kind, 12, n_agents), configs,
                                  environment, backend)
        _lockstep(simulator, legacy, 12)
        _assert_sparse(simulator)


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("env_name", ["cyclic", "walled"])
@pytest.mark.parametrize("n_agents", [80, 130])
@pytest.mark.parametrize("kind", ["S", "T"])
def test_multi_word_knowledge(kind, n_agents, env_name, backend):
    # two (k = 80) and three (k = 130) knowledge words in a sparse world
    grid = make_grid(kind, 32)
    environment = _environment(grid, env_name)
    configs = random_configurations(grid, n_agents, 3, seed=n_agents,
                                    environment=environment)
    simulator, legacy = _pair(grid, _fsms(kind, 3, 5), configs, environment,
                              backend)
    assert simulator._mask.size == (n_agents + 63) // 64
    _lockstep(simulator, legacy, 15)
    _assert_sparse(simulator)


# -- lane blocks --------------------------------------------------------------


@pytest.mark.parametrize("n_agents", [3, 70])
@pytest.mark.parametrize("env_name", ["cyclic", "walled"])
@pytest.mark.parametrize("kind", ["S", "T"])
def test_blocks_with_a_partial_last_block(kind, env_name, n_agents,
                                          monkeypatch):
    grid = make_grid(kind, 16)
    environment = _environment(grid, env_name)
    n_words = (n_agents + 63) // 64
    # three lanes per block, 11 lanes: blocks of 3, 3, 3 and 2
    monkeypatch.setattr(numpy_backend, "_EXCHANGE_BLOCK",
                        3 * grid.n_directions * n_agents * n_words)
    configs = random_configurations(grid, n_agents, 11, seed=4,
                                    environment=environment)
    simulator, legacy = _pair(grid, _fsms(kind, 11, 6), configs,
                              environment, "numpy")
    assert simulator._exchange.lanes == 3
    _lockstep(simulator, legacy, 20)
    _assert_sparse(simulator)


@pytest.mark.parametrize("kind", ["S", "T"])
def test_blocks_while_lanes_retire(kind, monkeypatch):
    # lanes solve at different steps, so the working set -- and with it
    # the size of the last block -- shrinks mid-run
    grid = make_grid(kind, 8)
    monkeypatch.setattr(numpy_backend, "_EXCHANGE_BLOCK",
                        5 * grid.n_directions * 8)
    configs = random_configurations(grid, 8, 23, seed=8)
    fsms = [published_fsm(kind)] * 23
    simulator, legacy = _pair(grid, fsms, configs,
                              Environment.cyclic(grid), "numpy")
    assert simulator._exchange.lanes == 5
    result = simulator.run(t_max=200)
    legacy_result = legacy.run(t_max=200)
    assert len(set(result.t_comm[result.success].tolist())) > 1
    assert (result.success == legacy_result.success).all()
    assert (result.t_comm == legacy_result.t_comm).all()
    assert (result.informed_agents == legacy_result.informed_agents).all()
    _assert_same_views(simulator, legacy)


def test_a_block_holds_at_least_one_lane(monkeypatch):
    grid = make_grid("T", 8)
    monkeypatch.setattr(numpy_backend, "_EXCHANGE_BLOCK", 1)
    configs = random_configurations(grid, 6, 4, seed=3)
    simulator, legacy = _pair(grid, _fsms("T", 4, 3), configs,
                              Environment.cyclic(grid), "numpy")
    assert simulator._exchange.lanes == 1
    _lockstep(simulator, legacy, 15)


def test_block_scratch_is_capped():
    # a big batch gets block-sized scratch, not batch-sized scratch
    grid = make_grid("T", 16)
    configs = random_configurations(grid, 8, 3000, seed=1)
    simulator = BatchSimulator(grid, published_fsm("T"), configs)
    exchange = simulator._exchange
    assert exchange.lanes < 3000
    assert exchange.words.size <= numpy_backend._EXCHANGE_BLOCK
    assert exchange.index.size <= numpy_backend._EXCHANGE_BLOCK


# -- the conflict arena -------------------------------------------------------


def _always_moves(n_states=2):
    """Requests a move on every step and never turns."""
    size = n_states * N_INPUT_COMBOS
    return FSM(
        next_state=np.arange(size) % n_states,
        set_color=np.arange(size) % 2,
        move=np.ones(size, dtype=np.int8),
        turn=np.zeros(size, dtype=np.int8),
        name="always-moves",
    )


def _contest(grid, n_agents, ids, directions, seed):
    """A configuration in which agents ``ids`` all face the free centre
    cell, from the neighbours in ``directions``; the other agents stand
    off its neighbour cells."""
    size = grid.size
    dx, dy = grid.direction_deltas()
    centre = (size // 2, size // 2)
    positions = [None] * n_agents
    headings = [0] * n_agents
    for agent, d in zip(ids, directions):
        positions[agent] = ((centre[0] - dx[d]) % size,
                            (centre[1] - dy[d]) % size)
        headings[agent] = int(d)
    near = {centre} | {
        ((centre[0] + ex) % size, (centre[1] + ey) % size)
        for ex, ey in zip(dx, dy)
    }
    far = [(x, y) for x in range(size) for y in range(size)
           if (x, y) not in near]
    rng = np.random.default_rng(seed)
    others = [agent for agent in range(n_agents) if positions[agent] is None]
    for agent, cell in zip(others, rng.permutation(len(far))):
        positions[agent] = far[cell]
        headings[agent] = int(rng.integers(grid.n_directions))
    return InitialConfiguration(tuple(positions), tuple(headings),
                                states=(0,) * n_agents), centre


def _contests(grid, n_agents):
    """One lane per contest size, 2 .. degree requesters.  The winner
    (the lowest id) is neither agent 0 nor agent k - 1, and from three
    requesters on it is neither the first nor the last around the cell."""
    rng = np.random.default_rng(n_agents)
    lanes = []
    for n_requesters in range(2, grid.n_directions + 1):
        ids = sorted(rng.choice(np.arange(1, n_agents - 1), n_requesters,
                                replace=False).tolist())
        if n_requesters > 2:
            ids = [ids[1], ids[0]] + ids[2:]  # lowest id second
        directions = rng.permutation(grid.n_directions)[:n_requesters]
        config, centre = _contest(grid, n_agents, ids, directions,
                                  seed=n_requesters)
        lanes.append((config, centre, ids))
    return lanes


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("n_agents", [8, 32, 40, 126, 127])
@pytest.mark.parametrize("kind", ["S", "T"])
def test_lowest_id_wins_a_contest(kind, n_agents, backend):
    grid = make_grid(kind, 20)
    lanes = _contests(grid, n_agents)
    configs = [config for config, _, _ in lanes]
    simulator, legacy = _pair(grid, _always_moves(), configs,
                              Environment.cyclic(grid), backend)
    # k = 127 is the first agent count whose arena needs int16
    assert simulator._winner.dtype == (np.int16 if n_agents >= 127
                                       else np.int8)
    _lockstep(simulator, legacy, 1)
    px, py = simulator.px, simulator.py
    for lane, (config, centre, ids) in enumerate(lanes):
        winner = min(ids)
        assert (px[lane, winner], py[lane, winner]) == centre
        for agent in ids:
            if agent != winner:
                assert (px[lane, agent], py[lane, agent]) \
                    == config.positions[agent]
    if backend == "numpy":
        assert simulator.counters.contested_steps == 1
    _lockstep(simulator, legacy, 6)
    _assert_sparse(simulator)


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("kind", ["S", "T"])
def test_contests_in_a_crowded_bordered_world(kind, backend):
    # many agents that always move: contests, wall fronts and chains of
    # agents stepping into cells being vacated on the same step
    grid = make_grid(kind, 10)
    environment = _environment(grid, "walled")
    configs = random_configurations(grid, 30, 16, seed=19,
                                    environment=environment)
    simulator, legacy = _pair(grid, _always_moves(3), configs, environment,
                              backend)
    _lockstep(simulator, legacy, 25)
    _assert_sparse(simulator)
    if backend == "numpy":
        assert simulator.counters.contested_steps > 0


# -- observability ------------------------------------------------------------


@pytest.mark.parametrize("kind", ["S", "T"])
def test_contested_steps_counter(kind):
    grid = make_grid(kind, 16)
    # two agents a row apart, heading the same way: both move on every
    # step, and they never meet or face one cell
    convoy = InitialConfiguration(((0, 0), (0, 5)), (0, 0))
    apart = BatchSimulator(grid, _always_moves(), [convoy] * 4)
    apart.run(t_max=30)
    assert not apart.done.any()
    assert (apart.px != [[0, 0]]).any() or (apart.py != [[0, 5]]).any()
    assert apart.counters.contested_steps == 0
    crowd = BatchSimulator(
        grid, _always_moves(), random_configurations(grid, 32, 20, seed=2)
    )
    crowd.run(t_max=30)
    assert 0 < crowd.counters.contested_steps <= crowd.counters.steps
    kernel = BatchSimulator(
        grid, _always_moves(), random_configurations(grid, 32, 20, seed=2),
        backend="pykernel",
    )
    kernel.run(t_max=10)
    assert kernel.counters.contested_steps == 0


# -- numpy against the kernels ------------------------------------------------


@pytest.mark.parametrize("backend", _KERNELS)
@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["S", "T"]),
    size=st.integers(min_value=2, max_value=9),
    env_name=st.sampled_from(_ENVIRONMENTS),
    density=st.floats(min_value=0.0, max_value=0.36),
    n_lanes=st.integers(min_value=1, max_value=7),
    lanes_per_block=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_numpy_matches_the_kernels(backend, kind, size, env_name, density,
                                   n_lanes, lanes_per_block, seed):
    grid = make_grid(kind, size)
    environment = (
        _environment(grid, env_name) if size >= 5
        else Environment(grid, bordered=env_name != "cyclic")
    )
    n_agents = max(1, int(density * environment.n_free_cells))
    configs = random_configurations(grid, n_agents, n_lanes, seed=seed,
                                    environment=environment)
    rng = np.random.default_rng(seed)
    fsms = [FSM.random(rng) for _ in range(n_lanes)]
    block = lanes_per_block * grid.n_directions * n_agents
    with mock.patch.object(numpy_backend, "_EXCHANGE_BLOCK", block):
        numpy_sim, kernel = (
            BatchSimulator(grid, fsms, configs, environment=environment,
                           backend=name)
            for name in ("numpy", backend)
        )
    assert kernel.backend_name == backend
    _lockstep(numpy_sim, kernel, 15)
    _assert_sparse(numpy_sim)
