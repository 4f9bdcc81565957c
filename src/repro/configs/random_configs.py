"""Randomly generated initial configurations (positions and directions)."""

import numpy as np

from repro.configs.types import configurations_from_arrays


def _free_cells(grid, n_agents, environment):
    """The flat cells ``x * M + y`` agents may start on, ascending."""
    if n_agents < 1:
        raise ValueError("need at least one agent")
    free = np.ones(grid.n_cells, dtype=bool)
    if environment is not None:
        for x, y in environment.obstacles:
            free[x * grid.size + y] = False
    free_cells = np.flatnonzero(free)
    if n_agents > free_cells.size:
        raise ValueError(
            f"{n_agents} agents do not fit on {free_cells.size} free cells"
        )
    return free_cells


def _draw_fields(grid, n_agents, n_fields, rng, environment):
    """``(cells, directions)``, each ``(n_fields, n_agents)`` int64: row
    ``i`` is one placement, drawn with ``rng.choice`` and then
    ``rng.integers`` -- this call order fixes every suite's fields."""
    free_cells = _free_cells(grid, n_agents, environment)
    chosen = np.empty((n_fields, n_agents), dtype=np.int64)
    directions = np.empty_like(chosen)
    for row in range(n_fields):
        chosen[row] = rng.choice(free_cells.size, size=n_agents, replace=False)
        directions[row] = rng.integers(0, grid.n_directions, size=n_agents)
    return free_cells[chosen], directions


def random_configuration(grid, n_agents, rng, name="", environment=None):
    """One random placement: distinct cells, independent random headings.

    With an ``environment`` carrying obstacles, agents are only placed on
    free cells.
    """
    cells, directions = _draw_fields(grid, n_agents, 1, rng, environment)
    (config,) = configurations_from_arrays(grid.size, cells, directions,
                                           [name])
    return config


def random_fields(grid, n_agents, n_fields, seed, environment=None):
    """``(cells, directions, names)`` of ``n_fields`` reproducible random
    fields, as :class:`repro.configs.ConfigSuite` stores them.

    The generator is seeded with ``(seed, size, n_agents)`` plus a grid
    tag, so every (grid, agent count) pair gets its own independent but
    repeatable stream -- re-running an experiment regenerates the same
    fields.  Field ``i`` is exactly the ``i``-th
    :func:`random_configuration` drawn from that stream.
    """
    kind_tag = 0 if grid.kind == "S" else 1
    rng = np.random.default_rng([seed, grid.size, n_agents, kind_tag])
    cells, directions = _draw_fields(grid, n_agents, n_fields, rng,
                                     environment)
    names = tuple(f"random-{index}" for index in range(n_fields))
    return cells, directions, names


def random_configurations(grid, n_agents, n_fields, seed, environment=None):
    """The fields of :func:`random_fields` as a list of configurations."""
    return list(configurations_from_arrays(
        grid.size, *random_fields(grid, n_agents, n_fields, seed, environment)
    ))
