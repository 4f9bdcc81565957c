"""The fused control code and the composite transition tables.

The batch simulator keeps each agent's heading, FSM table row and control
state in one integer, ``code = (heading * R + row) * S + state``, and
steps it through three composite tables indexed by ``x * D*R*S + code``
(``x`` the input, blocked bit included): the move bit, the set colour and
the next code, into which the heading rotation is folded.  These tests
check every table entry against that definition, and step the numpy and
kernel backends against the scalar reference simulators -- random FSMs,
multicolour FSMs, per-agent species and time-shuffled pairs, on S and T,
in cyclic, bordered and obstacle worlds -- comparing the decoded
``direction`` and ``state`` views on every step.
"""

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.configs.random_configs import random_configurations
from repro.core.backends import numba_available
from repro.core.environment import Environment
from repro.core.fsm import FSM
from repro.core.simulation import Simulation
from repro.core.vectorized import BatchSimulator
from repro.extensions.multicolor import MulticolorFSM, MulticolorSimulation
from repro.extensions.species import HeterogeneousSimulation
from repro.extensions.timeshuffle import (
    TimeShuffledBatchSimulator,
    TimeShuffledSimulation,
)
from repro.grids import make_grid

_BACKENDS = ["numpy", "pykernel"] + (["numba"] if numba_available() else [])

_ENVIRONMENTS = ("cyclic", "bordered", "obstacles")

_MODES = ("lanes", "multicolor", "species", "shuffled")


def _environment(grid, name):
    size = grid.size
    if name == "bordered":
        return Environment(grid, bordered=True)
    if name == "obstacles":
        obstacles = [(1, 1), (size - 2, 2), (2, size - 1)]
        return Environment(grid, obstacles=obstacles)
    return Environment.cyclic(grid)


def _world(mode, kind, size, env_name, n_agents, n_lanes, n_states, seed,
           backend):
    """A batch simulator of ``mode``, one scalar reference per lane, and
    the FSM behind each table row (and each odd-step row, or None)."""
    grid = make_grid(kind, size)
    environment = _environment(grid, env_name)
    configs = random_configurations(grid, n_agents, n_lanes, seed=seed,
                                    environment=environment)
    rng = np.random.default_rng(seed)

    def batch(fsms=None, **kwargs):
        return BatchSimulator(grid, fsms, configs, environment=environment,
                              backend=backend, **kwargs)

    def scalar(cls, *args):
        return [cls(grid, *args, config, environment=environment)
                for config in configs]

    if mode == "lanes":
        # two lanes share each FSM object, so rows are shared too
        pool = [FSM.random(rng, n_states) for _ in range((n_lanes + 1) // 2)]
        fsms = [pool[lane // 2] for lane in range(n_lanes)]
        references = [Simulation(grid, fsm, config, environment=environment)
                      for fsm, config in zip(fsms, configs)]
        return _with_rows(batch(fsms), references, fsms)
    if mode == "multicolor":
        n_colors = int(rng.integers(2, 5))
        fsms = [MulticolorFSM.random(rng, n_states=n_states, n_colors=n_colors)
                for _ in range(n_lanes)]
        references = [
            MulticolorSimulation(grid, fsm, config, environment=environment)
            for fsm, config in zip(fsms, configs)
        ]
        return _with_rows(batch(fsms), references, fsms)
    if mode == "species":
        pool = [FSM.random(rng, n_states) for _ in range(3)]
        agent_fsms = [pool[agent % 3] for agent in range(n_agents)]
        return _with_rows(batch(agent_fsms=agent_fsms),
                          scalar(HeterogeneousSimulation, agent_fsms),
                          agent_fsms)
    even = [FSM.random(rng, n_states) for _ in range(n_lanes)]
    odd = [FSM.random(rng, n_states) for _ in range(n_lanes)]
    # the simulator has no backend argument; it follows REPRO_BACKEND
    with mock.patch.dict(os.environ, {"REPRO_BACKEND": backend}):
        shuffled = TimeShuffledBatchSimulator(grid, even, odd, configs,
                                              environment=environment)
    references = [
        TimeShuffledSimulation(grid, fsm_even, fsm_odd, config,
                               environment=environment)
        for fsm_even, fsm_odd, config in zip(even, odd, configs)
    ]
    return _with_rows(shuffled, references, even, odd)


def _with_rows(simulator, references, given, odd=None):
    """Attach the FSM of every table row: row r holds the FSM at index
    ``_row_sources[r]`` of the sequence the simulator was given."""
    rows = [given[index] for index in simulator._row_sources]
    odd_rows = (None if odd is None
                else [odd[index] for index in simulator._row_sources])
    return simulator, references, rows, odd_rows


def _assert_lane_matches(simulator, lane, reference):
    agents = reference.agents
    size = simulator.grid.size
    assert list(simulator.direction[lane]) == [a.direction for a in agents]
    assert list(simulator.state[lane]) == [a.state for a in agents]
    assert list(simulator.px[lane]) == [a.x for a in agents]
    assert list(simulator.py[lane]) == [a.y for a in agents]
    assert (simulator.colors[lane] == reference.colors.reshape(-1)).all()
    assert (
        simulator.occupancy[lane] == reference.occupancy.reshape(size * size)
    ).all()
    assert bool(simulator.done[lane]) == reference.all_informed()


def _lockstep(simulator, references, steps):
    for _ in range(steps):
        for lane, reference in enumerate(references):
            _assert_lane_matches(simulator, lane, reference)
        simulator.step()
        for reference in references:
            if not reference.all_informed():
                reference.step()
    for lane, reference in enumerate(references):
        _assert_lane_matches(simulator, lane, reference)
        if reference.all_informed():
            assert simulator.t_comm[lane] == reference.t


# -- stepping against the scalar reference ------------------------------------


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("mode", _MODES)
@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(["S", "T"]),
    size=st.integers(min_value=5, max_value=8),
    env_name=st.sampled_from(_ENVIRONMENTS),
    n_agents=st.integers(min_value=1, max_value=9),
    n_lanes=st.integers(min_value=1, max_value=4),
    n_states=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_views_match_the_scalar_reference(backend, mode, kind, size,
                                          env_name, n_agents, n_lanes,
                                          n_states, seed):
    simulator, references, _, _ = _world(mode, kind, size, env_name,
                                         n_agents, n_lanes, n_states, seed,
                                         backend)
    assert simulator.backend_name == backend
    _lockstep(simulator, references, 20)


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("mode", _MODES)
@pytest.mark.parametrize("env_name", _ENVIRONMENTS)
@pytest.mark.parametrize("kind", ["S", "T"])
def test_crowded_worlds_match_the_scalar_reference(kind, env_name, mode,
                                                   backend):
    # a third of the cells taken: blocked fronts and contests on most steps
    simulator, references, _, _ = _world(mode, kind, 6, env_name, 11, 3, 3,
                                         seed=41, backend=backend)
    _lockstep(simulator, references, 25)


# -- the composite tables against their definition ----------------------------


def _assert_tables_match(simulator, fsms, move_bit, set_color, next_code):
    """Every entry ``x * D*R*S + code`` of the three tables, against the
    FSM of row ``r`` at table index ``x * S + s``, with the heading
    turned by the grid's own ``turn``."""
    grid = simulator.grid
    n_directions, n_states = grid.n_directions, simulator.n_states
    n_rows = len(fsms)
    span = n_directions * n_rows * n_states
    n_inputs = fsms[0].next_state.size // n_states
    for table in (move_bit, set_color, next_code):
        assert table.shape == (n_inputs * span,)
    assert move_bit.dtype == bool
    assert set_color.dtype == simulator._colors_pad.dtype
    for x in range(n_inputs):
        for heading in range(n_directions):
            for row, fsm in enumerate(fsms):
                for state in range(n_states):
                    code = (heading * n_rows + row) * n_states + state
                    entry = x * span + code
                    i = x * n_states + state
                    turned = grid.turn(heading, int(fsm.turn[i]))
                    assert move_bit[entry] == (fsm.move[i] == 1)
                    assert set_color[entry] == fsm.set_color[i]
                    assert next_code[entry] == (
                        (turned * n_rows + row) * n_states
                        + int(fsm.next_state[i])
                    )


def _assert_index_parts(simulator):
    """The colour scales and the code -> heading-base gather."""
    span = simulator._code_span
    n_colors = simulator.n_colors
    colors = np.arange(n_colors)
    assert (simulator._color_scale == 2 * colors * span).all()
    assert (simulator._frontcolor_scale == 2 * n_colors * colors * span).all()
    codes = np.arange(span)
    per_heading = simulator._n_rows * simulator.n_states
    assert (
        simulator._heading_base == codes // per_heading * simulator._n_cells
    ).all()


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["S", "T"]),
    mode=st.sampled_from(_MODES),
    n_lanes=st.integers(min_value=1, max_value=4),
    n_states=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_tables_match_their_definition(kind, mode, n_lanes, n_states, seed):
    simulator, _, rows, odd_rows = _world(mode, kind, 5, "cyclic", 4,
                                          n_lanes, n_states, seed, "numpy")
    assert simulator._n_rows == len(rows)
    _assert_tables_match(simulator, rows, simulator._move_bit,
                         simulator._set_color, simulator._next_code)
    if odd_rows is not None:
        _assert_tables_match(simulator, odd_rows, *simulator._tables_odd)
    _assert_index_parts(simulator)


@pytest.mark.parametrize("kind", ["S", "T"])
def test_code_decodes_to_the_public_views(kind):
    grid = make_grid(kind, 8)
    rng = np.random.default_rng(3)
    fsms = [FSM.random(rng, 3) for _ in range(4)]
    configs = random_configurations(grid, 6, 4, seed=3)
    simulator = BatchSimulator(grid, fsms, configs)
    per_heading = simulator._n_rows * simulator.n_states
    for _ in range(10):
        code = simulator._by_lane(simulator._code)
        assert (simulator.direction == code // per_heading).all()
        assert (simulator.state == code % simulator.n_states).all()
        # lane l runs FSM l, so its agents' row is l throughout
        rows = code // simulator.n_states % simulator._n_rows
        assert (rows == np.arange(4)[:, None]).all()
        simulator.step()
