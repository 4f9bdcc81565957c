"""Narrow cell-field storage at its dtype boundaries.

The batch simulator stores occupancy and the conflict arena in int8 while
``k + 1 <= 127`` and in int16 above, and colours in int8 while
``n_colors <= 127`` and in int16 above.  The extreme stored values sit
exactly at those limits -- the wall is ``k + 1``, obstacles are ``-1``,
the arena's "nobody" is ``k`` -- so these cases step agent counts and
colour alphabets on either side of each limit, on every backend that can
run here, bit-exact against the scalar reference and the frozen legacy
stepper.
"""

import numpy as np
import pytest

from repro.configs.random_configs import random_configuration
from repro.core.backends import numba_available
from repro.core.environment import Environment, random_obstacles
from repro.core.fsm import FSM
from repro.core.simulation import Simulation
from repro.core.vectorized import BatchSimulator
from repro.extensions.multicolor import MulticolorFSM, MulticolorSimulation
from repro.grids import make_grid
from repro.perf.reference import LegacyBatchSimulator

_BACKENDS = ["numpy", "pykernel"] + (["numba"] if numba_available() else [])

_VIEWS = ("px", "py", "direction", "state", "colors", "occupancy")


def _environment(grid, name):
    if name == "bordered":
        return Environment(grid, bordered=True)
    if name == "obstacles":
        rng = np.random.default_rng(5)
        return Environment(grid, obstacles=random_obstacles(grid, 6, rng))
    return None


def _knowledge_ints(simulator, lane):
    """Per-agent knowledge of one lane as Python ints (scalar form)."""
    words = simulator.knowledge[lane]
    return [
        sum(int(word) << (64 * index) for index, word in enumerate(row))
        for row in words
    ]


def _assert_matches_scalar(simulator, lane, scalar):
    """Lane ``lane`` of ``simulator`` equals the scalar reference."""
    size = simulator.grid.size
    agents = scalar.agents
    assert list(simulator.px[lane]) == [agent.x for agent in agents]
    assert list(simulator.py[lane]) == [agent.y for agent in agents]
    assert list(simulator.direction[lane]) == [a.direction for a in agents]
    assert list(simulator.state[lane]) == [agent.state for agent in agents]
    assert _knowledge_ints(simulator, lane) == [a.knowledge for a in agents]
    assert (simulator.colors[lane] == scalar.colors.reshape(size * size)).all()
    occupancy = scalar.occupancy.reshape(size * size)
    assert (simulator.occupancy[lane] == occupancy).all()
    assert bool(simulator.done[lane]) == scalar.all_informed()


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("env_name", ["cyclic", "bordered", "obstacles"])
@pytest.mark.parametrize("kind", ["S", "T"])
@pytest.mark.parametrize(
    "n_agents, arena_dtype", [(126, np.int8), (127, np.int16)]
)
def test_agent_count_boundary(n_agents, arena_dtype, kind, env_name,
                              backend):
    grid = make_grid(kind, 12)
    environment = _environment(grid, env_name)
    fsms = [FSM.random(np.random.default_rng(seed)) for seed in range(2)]
    configs = [
        random_configuration(
            grid, n_agents, np.random.default_rng(30 + seed),
            environment=environment,
        )
        for seed in range(2)
    ]
    simulator = BatchSimulator(
        grid, fsms, configs, environment=environment, backend=backend
    )
    assert simulator._occ_pad.dtype == arena_dtype
    assert simulator._winner.dtype == arena_dtype
    legacy = LegacyBatchSimulator(
        grid, fsms, configs, environment=environment
    )
    scalars = [
        Simulation(grid, fsm, config, environment=environment)
        for fsm, config in zip(fsms, configs)
    ]
    for _ in range(25):
        if simulator.done.all():
            break
        for lane, scalar in enumerate(scalars):
            if not simulator.done[lane]:
                scalar.step()
        simulator.step()
        legacy.step()
        for view in _VIEWS:
            assert (
                getattr(simulator, view) == getattr(legacy, view)
            ).all(), view
        assert (simulator.knowledge == legacy.knowledge).all()
        assert (simulator.t_comm == legacy.t_comm).all()
        for lane, scalar in enumerate(scalars):
            _assert_matches_scalar(simulator, lane, scalar)


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("kind", ["S", "T"])
def test_colour_alphabet_beyond_int8(kind, backend):
    # 130 colours: set colours up to 129 overflow int8, so colour fields,
    # set-colour tables and the cycle-parking snapshot widen to int16
    grid = make_grid(kind, 6)
    rng = np.random.default_rng(17)
    fsms = [
        MulticolorFSM.random(rng, n_states=2, n_colors=130) for _ in range(3)
    ]
    configs = [random_configuration(grid, 5, rng) for _ in range(3)]
    simulator = BatchSimulator(grid, fsms, configs, backend=backend)
    for field in (simulator._colors_pad, simulator._set_color,
                  simulator._cyc_colors):
        assert field.dtype == np.int16
    # the composite set-colour table holds every FSM's colours, once per
    # heading, and needs the wide dtype
    assert simulator._set_color.size == (
        2 * 130 * 130 * grid.n_directions * len(fsms) * 2
    )
    assert simulator._set_color.max() > 127
    result = simulator.run(t_max=80)
    for lane, (fsm, config) in enumerate(zip(fsms, configs)):
        scalar = MulticolorSimulation(grid, fsm, config)
        reference = scalar.run(t_max=80)
        assert bool(result.success[lane]) == reference.success
        if reference.success:
            assert int(result.t_comm[lane]) == reference.t_comm
        assert int(result.informed_agents[lane]) == reference.informed_agents
        # solved lanes froze when they solved; the rest ran to t_max
        _assert_matches_scalar(simulator, lane, scalar)
    assert (simulator.colors > 127).any()
