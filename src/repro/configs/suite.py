"""Configuration suites: the paper's 1000 random + 3 manual fields."""

import hashlib
import itertools
from functools import cached_property

import numpy as np

from repro.configs.random_configs import random_fields
from repro.configs.special import special_configurations
from repro.configs.types import configurations_from_arrays

#: Agent counts evaluated in Table 1 / Fig. 5 (16 x 16 grid).
PAPER_AGENT_COUNTS = (2, 4, 8, 16, 32, 256)

#: Default number of random fields per suite.
DEFAULT_N_RANDOM = 1000

#: Default base seed; any fixed value reproduces identical suites.
DEFAULT_SEED = 2013


def digest_configurations(configurations):
    """SHA-256 hex digest over an iterable of initial configurations.

    Hashes every configuration's positions, headings and initial control
    states, in order, so two sequences share a digest exactly when they
    would make any FSM behave identically.  This is the one hashing of
    suite contents; :attr:`ConfigSuite.fingerprint` and
    :func:`repro.evolution.fitness.suite_fingerprint` both go through it.
    A :class:`ConfigSuite` is hashed from its arrays, with no
    configuration object built, to the digest of its configurations.
    """
    if isinstance(configurations, ConfigSuite):
        texts = _field_texts(configurations)
    else:
        texts = (
            repr((config.positions, config.directions, config.states))
            for config in configurations
        )
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode())
    return digest.hexdigest()


def _tuple_text(texts):
    """The ``repr`` of a tuple whose items' ``repr`` are ``texts``."""
    return "(" + ", ".join(texts) + ("," if len(texts) == 1 else "") + ")"


def _field_texts(suite):
    """``repr((positions, directions, states))`` of every field of
    ``suite`` -- what :func:`digest_configurations` hashes for its
    configuration -- written from the arrays, with one text per cell."""
    size = suite.grid_size
    cell = [repr(divmod(flat, size)) for flat in range(size * size)]
    if suite.stated is None:
        states = ["None"] * suite.n_fields
    else:
        states = [
            _tuple_text(list(map(repr, row))) if flag else "None"
            for flag, row in zip(suite.stated.tolist(), suite.states.tolist())
        ]
    for cells, directions, state in zip(
        suite.cells.tolist(), suite.directions.tolist(), states
    ):
        positions = _tuple_text(list(map(cell.__getitem__, cells)))
        headings = _tuple_text(list(map(repr, directions)))
        yield f"({positions}, {headings}, {state})"


def configuration_arrays(configurations, size):
    """``(cells, directions, stated, states)`` of a list of
    configurations, the arrays a :class:`ConfigSuite` holds.

    Positions are reduced modulo ``size``, as on the torus.  Each distinct
    configuration object is read once, and rows repeating one are copies
    of its row.
    """
    if not configurations:
        raise ValueError("need at least one configuration lane")
    n_agents = configurations[0].n_agents
    if any(config.n_agents != n_agents for config in configurations):
        raise ValueError("all lanes must have the same number of agents")
    # rows in order of first appearance
    rows = {}
    lane_rows = [rows.setdefault(id(config), len(rows))
                 for config in configurations]
    distinct = list({id(config): config for config in configurations}.values())
    count = len(distinct) * n_agents
    flatten = itertools.chain.from_iterable
    coords = np.fromiter(
        flatten(flatten(config.positions for config in distinct)),
        dtype=np.int64, count=2 * count,
    )
    np.remainder(coords, size, out=coords)
    cells = coords[0::2] * size
    cells += coords[1::2]
    del coords  # freed before the next array is allocated
    directions = np.fromiter(
        flatten(config.directions for config in distinct),
        dtype=np.int64, count=count,
    )
    stated = np.fromiter(
        (config.states is not None for config in distinct),
        dtype=bool, count=len(distinct),
    )
    states = None
    if stated.any():
        states = np.zeros((len(distinct), n_agents), dtype=np.int64)
        states[stated] = np.fromiter(
            flatten(config.states for config in distinct
                    if config.states is not None),
            dtype=np.int64, count=int(stated.sum()) * n_agents,
        ).reshape(-1, n_agents)
    else:
        stated = None
    arrays = (cells.reshape(-1, n_agents), directions.reshape(-1, n_agents),
              stated, states)
    if len(distinct) == len(configurations):
        return arrays
    return tuple(None if array is None else array[lane_rows]
                 for array in arrays)


def _compact(array):
    """``array`` in the narrowest signed integer dtype that holds every
    one of its values."""
    if array is None or not array.size:
        return array
    low, high = int(array.min()), int(array.max())
    for dtype in (np.int8, np.int16, np.int32):
        info = np.iinfo(dtype)
        if info.min <= low and high <= info.max:
            return array.astype(dtype, copy=False)
    return array


class ConfigSuite:
    """An evaluation suite: metadata plus its fields, stored as arrays.

    Field ``i`` is row ``i`` of

    * ``cells`` -- ``(F, k)``, each agent's start cell ``x * M + y``;
    * ``directions`` -- ``(F, k)``, each agent's heading;
    * ``states`` -- ``None`` when no field sets its agents' initial
      control states, else ``(F, k)``, read only on the rows flagged in
      the ``(F,)`` bool array ``stated`` (the other rows start from the
      simulator's state scheme);
    * ``names``, a tuple of ``F`` strings.

    The integer arrays are stored in the narrowest signed dtype that
    holds their values (int16 cells and int8 headings on the paper's
    grids), so a suite and every tiled copy of it stay small; readers
    widen them.

    :class:`repro.core.vectorized.BatchSimulator` reads the arrays
    directly.  :class:`InitialConfiguration` objects are built only on
    demand: by ``suite[i]`` and by iteration, which is how the scalar
    :class:`repro.core.simulation.Simulation` path gets its fields.
    :meth:`from_configurations` builds a suite from configurations.

    The suite is immutable (its arrays are read-only), so its content
    digest (:attr:`fingerprint`) is computed on first use and kept: every
    evaluation request, cache key and batch key over one suite object
    hashes its fields once, not once per use.
    """

    def __init__(self, grid_kind, grid_size, seed, cells, directions, names,
                 stated=None, states=None):
        self.grid_kind = grid_kind
        self.grid_size = grid_size
        self.seed = seed
        self.cells = _compact(cells)
        self.directions = _compact(directions)
        self.names = tuple(names)
        self.stated = stated
        self.states = _compact(states)
        for array in (self.cells, self.directions, stated, self.states):
            if array is not None:
                array.setflags(write=False)

    @classmethod
    def from_configurations(cls, configurations, grid, seed=None):
        """The suite holding ``configurations`` (any iterable), in order,
        for ``grid``; see :func:`configuration_arrays`."""
        configurations = list(configurations)
        cells, directions, stated, states = configuration_arrays(
            configurations, grid.size
        )
        return cls(grid.kind, grid.size, seed, cells, directions,
                   [config.name for config in configurations],
                   stated=stated, states=states)

    @property
    def n_agents(self):
        return self.cells.shape[1]

    @property
    def n_fields(self):
        return self.cells.shape[0]

    @cached_property
    def fingerprint(self):
        """:func:`digest_configurations` of the suite, cached.

        Stored in the instance ``__dict__``, so it travels with the suite
        through pickling.
        """
        return digest_configurations(self)

    def _map_rows(self, rows, names):
        """The suite with every array replaced by ``rows(array)``."""
        def apply(array):
            return None if array is None else rows(array)

        return ConfigSuite(
            self.grid_kind, self.grid_size, self.seed, apply(self.cells),
            apply(self.directions), names, stated=apply(self.stated),
            states=apply(self.states),
        )

    def tile(self, times):
        """The suite's fields repeated ``times`` times, in order: the
        lanes of ``times`` FSMs, laid out FSM-major.  The suite itself
        when ``times == 1``."""
        if times == 1:
            return self
        return self._map_rows(lambda array: np.concatenate([array] * times),
                              self.names * times)

    def block(self, start, stop):
        """Fields ``[start, stop)`` as a suite over views of the arrays;
        the suite itself when that is every field."""
        if start <= 0 and stop >= self.n_fields:
            return self
        return self._map_rows(lambda array: array[start:stop],
                              self.names[start:stop])

    def _configurations(self, rows):
        """The configurations of ``rows``, a sequence of row indices."""
        explicit = () if self.stated is None else (
            self.stated[rows], self.states[rows]
        )
        return configurations_from_arrays(
            self.grid_size, self.cells[rows], self.directions[rows],
            [self.names[row] for row in rows], *explicit,
        )

    def __iter__(self):
        return self._configurations(range(self.n_fields))

    def __len__(self):
        return self.n_fields

    def __getitem__(self, index):
        rows = range(self.n_fields)[index]
        if isinstance(rows, range):
            return tuple(self._configurations(rows))
        (config,) = self._configurations([rows])
        return config

    def __eq__(self, other):
        if not isinstance(other, ConfigSuite):
            return NotImplemented
        return (
            (self.grid_kind, self.grid_size, self.seed, self.names)
            == (other.grid_kind, other.grid_size, other.seed, other.names)
            and all(
                np.array_equal(mine, theirs) for mine, theirs in zip(
                    (self.cells, self.directions, self.stated, self.states),
                    (other.cells, other.directions, other.stated,
                     other.states),
                )
            )
        )

    def __repr__(self):
        return (
            f"ConfigSuite(grid_kind={self.grid_kind!r}, "
            f"grid_size={self.grid_size}, n_agents={self.n_agents}, "
            f"seed={self.seed}, n_fields={self.n_fields})"
        )


def paper_suite(grid, n_agents, n_random=DEFAULT_N_RANDOM, seed=DEFAULT_SEED):
    """The paper's evaluation suite for one (grid, agent count) pair.

    ``n_random`` random fields plus the manual cases that fit -- with the
    defaults this is the paper's ``N_fields = 1003`` (1000 random, 3
    manual) whenever ``n_agents <= M``, and 1002 for larger counts where
    the diagonal case does not exist.
    """
    cells, directions, names = random_fields(grid, n_agents, n_random, seed)
    manual = special_configurations(grid, n_agents)
    manual_cells, manual_directions, _, _ = configuration_arrays(
        manual, grid.size
    )
    return ConfigSuite(
        grid.kind, grid.size, seed,
        np.concatenate([cells, manual_cells]),
        np.concatenate([directions, manual_directions]),
        names + tuple(config.name for config in manual),
    )
