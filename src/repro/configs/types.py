"""The initial-configuration value type shared by the simulators."""

import enum
from dataclasses import dataclass
from typing import Optional, Tuple


class InitialStateScheme(enum.Enum):
    """How agents' initial control states are assigned (paper Sect. 4).

    The paper could not find reliable uniform agents with everyone
    starting in state 0 (or 3); starting even-ID agents in state 0 and
    odd-ID agents in state 1 breaks the symmetry and is the scheme the
    published FSMs rely on.
    """

    ID_MOD_2 = "id_mod_2"
    ALL_ZERO = "all_zero"
    ALL_ONE = "all_one"
    ID_MOD_N = "id_mod_n"

    def states_for(self, n_agents, n_states):
        """Materialize the initial control states for ``n_agents`` agents."""
        if self is InitialStateScheme.ALL_ZERO:
            return tuple(0 for _ in range(n_agents))
        if self is InitialStateScheme.ALL_ONE:
            return tuple(1 % n_states for _ in range(n_agents))
        if self is InitialStateScheme.ID_MOD_2:
            return tuple(ident % min(2, n_states) for ident in range(n_agents))
        return tuple(ident % n_states for ident in range(n_agents))


@dataclass(frozen=True)
class InitialConfiguration:
    """Where the agents start: positions, headings, optional control states.

    ``states=None`` lets the simulator apply the default
    :attr:`InitialStateScheme.ID_MOD_2` scheme.
    """

    positions: Tuple[Tuple[int, int], ...]
    directions: Tuple[int, ...]
    states: Optional[Tuple[int, ...]] = None
    name: str = ""

    def __post_init__(self):
        if len(self.positions) != len(self.directions):
            raise ValueError(
                f"{len(self.positions)} positions vs {len(self.directions)} directions"
            )
        if self.states is not None and len(self.states) != len(self.positions):
            raise ValueError(
                f"{len(self.positions)} positions vs {len(self.states)} states"
            )
        if len(set(self.positions)) != len(self.positions):
            raise ValueError(f"duplicate agent positions in {self.name or 'config'}")

    @property
    def n_agents(self):
        return len(self.positions)

    def with_states(self, scheme, n_states):
        """A copy with explicit initial control states from ``scheme``."""
        return InitialConfiguration(
            positions=self.positions,
            directions=self.directions,
            states=scheme.states_for(self.n_agents, n_states),
            name=self.name,
        )


def configurations_from_arrays(size, cells, directions, names, stated=None,
                               states=None):
    """The :class:`InitialConfiguration` of each row, built lazily.

    ``cells`` and ``directions`` are ``(F, k)`` arrays of flat start cells
    ``x * size + y`` and headings, and ``names`` holds one name per row.
    ``states``, when given, is ``(F, k)`` and read only on the rows
    flagged in the ``(F,)`` bool array ``stated``; every other row gets
    ``states=None``.
    """
    # one (x, y) tuple per cell, shared by every position on it
    cell = [divmod(flat, size) for flat in range(size * size)].__getitem__
    if stated is None:
        explicit = [None] * len(cells)
    else:
        explicit = [
            tuple(row) if flag else None
            for flag, row in zip(stated.tolist(), states.tolist())
        ]
    for row, heading, state, name in zip(
        cells.tolist(), directions.tolist(), explicit, names
    ):
        yield InitialConfiguration(
            tuple(map(cell, row)), tuple(heading), state, name
        )
