"""Randomly generated initial configurations (positions and directions)."""

import numpy as np

from repro.configs.types import InitialConfiguration


def _free_cells(grid, n_agents, environment):
    """The cells agents may start on, as ``(x, y)`` tuples in flat order.

    Computed once per suite; every configuration drawn from the list
    shares its tuples, so a suite holds one tuple per cell, not one per
    placed agent.
    """
    if n_agents < 1:
        raise ValueError("need at least one agent")
    obstacles = environment.obstacles if environment is not None else frozenset()
    free_cells = [
        cell for cell in map(grid.unflat, range(grid.n_cells))
        if cell not in obstacles
    ]
    if n_agents > len(free_cells):
        raise ValueError(
            f"{n_agents} agents do not fit on {len(free_cells)} free cells"
        )
    return free_cells


def _draw(free_cells, n_agents, n_directions, rng, name):
    """One placement from ``free_cells``: ``rng.choice``, then
    ``rng.integers`` -- this call order fixes every suite's fields."""
    chosen = rng.choice(len(free_cells), size=n_agents, replace=False)
    directions = rng.integers(0, n_directions, size=n_agents)
    return InitialConfiguration(
        positions=tuple(map(free_cells.__getitem__, chosen.tolist())),
        directions=tuple(directions.tolist()),
        name=name,
    )


def random_configuration(grid, n_agents, rng, name="", environment=None):
    """One random placement: distinct cells, independent random headings.

    With an ``environment`` carrying obstacles, agents are only placed on
    free cells.
    """
    free_cells = _free_cells(grid, n_agents, environment)
    return _draw(free_cells, n_agents, grid.n_directions, rng, name)


def random_configurations(grid, n_agents, n_fields, seed, environment=None):
    """A reproducible list of ``n_fields`` random configurations.

    The generator is seeded with ``(seed, size, n_agents)`` plus a grid
    tag, so every (grid, agent count) pair gets its own independent but
    repeatable stream -- re-running an experiment regenerates the same
    fields.  Field ``i`` is exactly the ``i``-th
    :func:`random_configuration` drawn from that stream.
    """
    kind_tag = 0 if grid.kind == "S" else 1
    rng = np.random.default_rng([seed, grid.size, n_agents, kind_tag])
    free_cells = _free_cells(grid, n_agents, environment)
    return [
        _draw(free_cells, n_agents, grid.n_directions, rng, f"random-{index}")
        for index in range(n_fields)
    ]
