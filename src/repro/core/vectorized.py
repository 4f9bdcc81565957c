"""Numpy batch simulator: many configurations (and many FSMs) in lock-step.

Evaluating an FSM the paper's way means simulating 1003 initial
configurations; evolving FSMs means doing that for a whole population per
generation.  This module runs ``B`` independent simulation *lanes*
simultaneously -- each lane is one (FSM, initial configuration) pair on a
shared grid with a shared agent count -- with every per-step quantity
vectorized over ``(lane, agent)``.

Semantics are identical to :class:`repro.core.simulation.Simulation`
(the test suite checks bit-exact equivalence of trajectories, colours,
control states, knowledge and communication times).  Knowledge vectors
are bit-packed into ``uint64`` words, so any agent count works.

The per-step inner loop (move / exchange / informed-check) is pluggable:
it lives behind the :class:`repro.core.backends.StepBackend` interface,
with the vectorized numpy path as the default and an optional compiled
numba kernel (``backend="numba"`` or ``REPRO_BACKEND=numba``) for big
worlds; see :mod:`repro.core.backends`.  The simulator shell here owns
all state, scratch buffers, lane compaction and counters, so every
backend is bit-exact by construction and differs only in throughput.

The stepper is built for throughput:

* **Precomputed neighbour kernels** -- per-cell x per-direction flat
  lookup tables for exchange neighbours and front cells, and a
  (heading, turn) rotation table, are built once at construction, with
  torus wrap, border walls and obstacles folded in; the hot loop is pure
  ``take``/gather with no modulo arithmetic.
* **Narrow cell fields** -- the colour field, the occupancy field and the
  conflict arena are stored in the narrowest signed integer that holds
  their values: colours in int8 while ``n_colors <= 127`` (else int16),
  occupancy and arena, which hold ``-1 .. k + 1``, in int8 while
  ``k + 1 <= 127`` (else int16).  The FSM tables follow the same rule
  and hold one row per distinct FSM object, not one per lane (4 rows
  for a population of 4 FSMs over 1003 fields).  At thousands of lanes
  an int64 field or table no longer fits the L2 cache, so this cuts
  gather and scatter traffic.  It stays exact because every stored value
  fits its dtype, and every table index built from a narrow value is
  computed in int64.
* **Zero-allocation stepping** -- every per-step temporary (gathered
  knowledge, conflict winners, request masks, table indices) lives in a
  scratch buffer allocated once; steady-state ``step()`` performs no
  heap allocation of per-lane arrays.
* **Lane compaction** -- lanes that solved the task are physically
  swapped to the back of the working arrays, so late steps only pay for
  the unsolved lanes (the expensive tail of a 1003-field suite).
* **Exchange early-out** -- when a step changes no lane's knowledge the
  success check is skipped entirely.
* **Call-lean exchange** -- exchange computes, for every agent, the OR
  of its own and its neighbours' knowledge.  The numpy backend gathers
  all 4 (S) or 6 (T) directions of a block of lanes at once and
  OR-reduces over the direction axis, a handful of numpy calls per
  block, so small batches do not pay per-direction call overhead.  In
  worlds with at least ``DENSE_OCCUPANCY`` (0.5) agents per free cell
  -- Table 1's k = 256 on the 16x16 torus is full -- it computes that OR
  for every cell at once instead, as a CA neighbourhood stencil over a
  halo-padded knowledge field, in small lane blocks.  OR is order-free
  and empty, obstacle and border cells hold 0, so both are bit-exact;
  see :mod:`repro.core.backends.numpy_backend`.  Conflicts are resolved
  with one scatter and one gather, plus a ``minimum.at`` fix-up only on
  steps where two agents request one cell, and steps in which nobody
  requests a free front cell skip conflict resolution altogether.
* **Cycle parking** -- a lane on a finite torus is a finite deterministic
  system, so every unsolved lane ends in a cycle, and once its whole
  state (positions, headings, control states, colours, knowledge)
  repeats its knowledge can never change again.  ``run(t_max)`` checks
  at the step times ``t`` with ``(t_max - t) % CYCLE_PERIOD == 0`` whether
  a lane's state equals its snapshot from ``t - CYCLE_PERIOD``, and parks
  such lanes outside the working set.  The check is exact: transitions
  are deterministic and the rule varies in time only with a period that
  divides ``CYCLE_PERIOD`` (time-shuffling alternates by parity), so a
  repeat proves a period dividing ``CYCLE_PERIOD``; the check times are
  aligned to ``t_max``, so the parked state *is* the lane's state at
  ``t_max``.  ``run`` then reports ``t = t_max`` exactly as if the lanes
  had been stepped, and returns them to the working set.

Two padded sentinel cells per lane make borders branch-free: cell ``N``
is the *void* (exchange across a border reaches nothing), cell ``N + 1``
is the *wall* (a front across a border is blocked and reads colour 0).

Throughput counters are kept in :class:`repro.perf.counters.StepCounters`
(``simulator.counters``); ``repro-a2a bench`` uses them to report
lane-steps per second.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from repro.core.backends import resolve_backend
from repro.core.bits import popcount
from repro.core.environment import Environment
from repro.core.metrics import FITNESS_WEIGHT
from repro.core.simulation import SimulationResult
from repro.perf.counters import StepCounters

#: Bits per knowledge word.
_WORD_BITS = 64

#: Step distance of the cycle-parking check; any lane period dividing it
#: (fixed points, period 2, 3, 4 and 6 spins, 12-step loops) is caught.
CYCLE_PERIOD = 12

#: Rows per fancy-index copy when compacting or comparing snapshots,
#: bounding the temporaries when thousands of lanes park at once.
_ROW_CHUNK = 128


def _narrow_int(top):
    """The narrowest signed integer dtype holding every value in
    ``-1 .. top``."""
    for dtype in (np.int8, np.int16, np.int32):
        if top <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _share_rows(keys):
    """One row per distinct key, in order of first appearance.

    Returns the index of each row's first key and, as an int64 array, the
    row of every key.
    """
    first = {}
    for index, key in enumerate(keys):
        first.setdefault(key, index)
    row_of = {key: row for row, key in enumerate(first)}
    rows = np.fromiter(map(row_of.__getitem__, keys), dtype=np.int64,
                       count=len(keys))
    return list(first.values()), rows


def _set_identity(knowledge):
    """Initial knowledge, written into ``knowledge`` of shape ``(B, k, W)``
    (all zero): agent ``i`` holds exactly bit ``i``."""
    agent = np.arange(knowledge.shape[1])
    knowledge[:, agent, agent // _WORD_BITS] = np.uint64(1) << (
        agent % _WORD_BITS
    ).astype(np.uint64)


def _pack_identity(n_lanes, n_agents):
    """Initial knowledge: agent ``i`` holds exactly bit ``i``."""
    n_words = (n_agents + _WORD_BITS - 1) // _WORD_BITS
    knowledge = np.zeros((n_lanes, n_agents, n_words), dtype=np.uint64)
    _set_identity(knowledge)
    return knowledge


def _full_mask(n_agents):
    """The ``11...1`` vector as packed words."""
    n_words = (n_agents + _WORD_BITS - 1) // _WORD_BITS
    mask = np.zeros(n_words, dtype=np.uint64)
    full_words, rest = divmod(n_agents, _WORD_BITS)
    mask[:full_words] = np.uint64(0xFFFFFFFFFFFFFFFF)
    if rest:
        mask[full_words] = (np.uint64(1) << np.uint64(rest)) - np.uint64(1)
    return mask


@dataclass
class BatchResult:
    """Per-lane outcomes of a batch run."""

    success: np.ndarray          # (B,) bool
    t_comm: np.ndarray           # (B,) int; valid where success
    informed_agents: np.ndarray  # (B,) int
    steps_executed: int
    n_agents: int

    @property
    def n_lanes(self):
        return self.success.size

    @property
    def completely_successful(self):
        """True when every lane solved the task within the step limit."""
        return bool(self.success.all())

    def times(self):
        """Communication times of the successful lanes."""
        return self.t_comm[self.success]

    def mean_time(self):
        """Mean communication time over successful lanes (inf if none)."""
        times = self.times()
        return float(times.mean()) if times.size else float("inf")

    def fitness(self, weight=FITNESS_WEIGHT):
        """Per-lane paper fitness ``F_i`` (lower is better)."""
        time_term = np.where(self.success, self.t_comm, self.steps_executed)
        uninformed = self.n_agents - self.informed_agents
        return weight * uninformed + time_term

    def mean_fitness(self, weight=FITNESS_WEIGHT):
        """Suite fitness ``F = sum(F_i) / N_fields``."""
        return float(self.fitness(weight).mean())

    def to_simulation_results(self):
        """Per-lane :class:`SimulationResult` objects, for shared reporting."""
        results = []
        for lane in range(self.n_lanes):
            success = bool(self.success[lane])
            results.append(
                SimulationResult(
                    success=success,
                    t_comm=int(self.t_comm[lane]) if success else None,
                    steps_executed=self.steps_executed,
                    informed_agents=int(self.informed_agents[lane]),
                    n_agents=self.n_agents,
                )
            )
        return results


class BatchSimulator:
    """Lock-step simulation of ``B`` (FSM, configuration) lanes.

    Parameters
    ----------
    grid:
        The shared torus.
    fsms:
        One :class:`repro.core.fsm.FSM` shared by all lanes, or a
        sequence of ``B`` FSMs (one per lane, equal state counts) -- the
        form used to evaluate a whole GA population at once.  Lanes given
        the same FSM object share one table row.
    configs:
        Sequence of ``B`` initial configurations with equal agent counts.
    environment:
        Optional :class:`repro.core.environment.Environment` (borders,
        obstacles, initial colours) shared by every lane; defaults to the
        paper's plain cyclic environment.
    agent_fsms:
        Alternative to ``fsms``: a sequence of ``k`` FSMs assigning one
        behaviour per *agent slot*, the same in every lane -- the paper's
        "different species" symmetry-breaking option (Sect. 4, item 3).
        Mutually exclusive with a per-lane ``fsms`` list.
    backend:
        Step backend name or instance (see :mod:`repro.core.backends`);
        ``None`` follows ``REPRO_BACKEND`` and defaults to ``"numpy"``.
        Every backend is bit-exact; only throughput differs.

    The colour and occupancy fields are stored narrow (see "Narrow cell
    fields" in the module docstring); the public ``colors`` and
    ``occupancy`` views always read as ``int64``.

    Lanes are compacted as they finish (and while ``run`` has them
    parked), so the row order of the internal working arrays is *not*
    the lane order; the public views (``px``, ``py``, ``direction``,
    ``state``, ``colors``, ``knowledge``) always present lanes in their
    original order.  ``done`` and ``t_comm`` are
    plain per-lane arrays in original order.
    """

    def __init__(self, grid, fsms=None, configs=(), state_scheme=None,
                 environment=None, agent_fsms=None, backend=None):
        configs = list(configs)
        if not configs:
            raise ValueError("need at least one configuration lane")
        self._backend = resolve_backend(backend)
        self.grid = grid
        self.environment = environment or Environment.cyclic(grid)
        self.n_lanes = len(configs)
        self.n_agents = configs[0].n_agents
        if any(config.n_agents != self.n_agents for config in configs):
            raise ValueError("all lanes must have the same number of agents")

        # FSM tables hold one row per distinct FSM object; _species maps
        # every (lane, agent) to the row of the behaviour controlling it,
        # and row r holds FSM _row_sources[r] of the sequence given
        if agent_fsms is not None:
            if fsms is not None:
                raise ValueError("pass either fsms or agent_fsms, not both")
            agent_list = list(agent_fsms)
            if len(agent_list) != self.n_agents:
                raise ValueError(
                    f"{len(agent_list)} agent FSMs for {self.n_agents} agents"
                )
            self._row_sources, agent_rows = _share_rows(
                list(map(id, agent_list))
            )
            species_list = [agent_list[agent] for agent in self._row_sources]
            self._species = np.tile(agent_rows, (self.n_lanes, 1))
        elif isinstance(fsms, (list, tuple)):
            if len(fsms) != self.n_lanes:
                raise ValueError(f"{len(fsms)} FSMs for {self.n_lanes} lanes")
            self._row_sources, lane_rows = _share_rows(self._row_keys(fsms))
            species_list = [fsms[lane] for lane in self._row_sources]
            self._species = np.repeat(lane_rows[:, None], self.n_agents, axis=1)
        elif fsms is not None:
            self._row_sources = [0]
            species_list = [fsms]
            self._species = np.zeros(
                (self.n_lanes, self.n_agents), dtype=np.int64
            )
        else:
            raise ValueError("one of fsms or agent_fsms is required")
        self.n_states = species_list[0].n_states
        if any(fsm.n_states != self.n_states for fsm in species_list):
            raise ValueError("all lane FSMs must have the same state count")
        # colour alphabet: 2 for the paper's FSMs; MulticolorFSM widens it
        self.n_colors = getattr(species_list[0], "n_colors", 2)
        if any(
            getattr(fsm, "n_colors", 2) != self.n_colors for fsm in species_list
        ):
            raise ValueError("all lane FSMs must share the colour alphabet")
        self._color_dtype = _narrow_int(self.n_colors)
        # occupancy and conflict arena: -1 obstacle .. k + 1 wall
        self._occ_dtype = _narrow_int(self.n_agents + 1)

        size = grid.size
        self._n_cells = size * size
        self._turn_increments = np.asarray(grid.turn_table(), dtype=np.int64)
        self._n_turns = self._turn_increments.size

        # FSM tables, each in the narrowest dtype of its range (set colours
        # share the colour field's), so the tables stay cache resident
        def table(field, top):
            rows = [getattr(fsm, field) for fsm in species_list]
            return np.stack(rows).astype(_narrow_int(top))

        self._next_state = table("next_state", self.n_states)
        self._set_color = table("set_color", self.n_colors)
        self._move = table("move", 1)
        self._turn = table("turn", self._n_turns)

        dx, dy = grid.direction_deltas()
        self._dx, self._dy = dx, dy
        self._n_directions = grid.n_directions
        # heading after a turn: _rotate[direction * n_turns + turn_code]
        self._rotate = (
            np.arange(self._n_directions, dtype=np.int64)[:, None]
            + self._turn_increments[None, :]
        ).reshape(-1) % self._n_directions
        self._bordered = self.environment.bordered

        n_lanes, n_agents, n_cells = self.n_lanes, self.n_agents, self._n_cells

        # -- precomputed kernels ------------------------------------------
        # Flat lookup tables, indexed by [direction, cell].  Wrap and
        # border logic are folded in once; two sentinel cells per lane
        # keep the hot loop branch-free:
        #   cell N      void: an exchange partner that relays nothing
        #   cell N + 1  wall: a front cell that blocks and reads colour 0
        # Obstacles never move and relay nothing, so exchange neighbours
        # that are obstacles are redirected to the void as well.
        cell = np.arange(n_cells, dtype=np.int64)
        self._cell_x = cell // size
        self._cell_y = cell % size
        self._void = n_cells
        self._wall = n_cells + 1
        self._n_padded = n_cells + 2
        neigh = np.empty((self._n_directions, n_cells), dtype=np.int64)
        front = np.empty_like(neigh)
        for d in range(self._n_directions):
            raw_x = self._cell_x + dx[d]
            raw_y = self._cell_y + dy[d]
            wrapped = (raw_x % size) * size + raw_y % size
            if self._bordered:
                exists = (
                    (raw_x >= 0) & (raw_x < size) & (raw_y >= 0) & (raw_y < size)
                )
                neigh[d] = np.where(exists, wrapped, self._void)
                front[d] = np.where(exists, wrapped, self._wall)
            else:
                neigh[d] = wrapped
                front[d] = wrapped
        obstacle = np.zeros(n_cells + 1, dtype=bool)  # + 1: the void
        for ox, oy in self.environment.obstacles:
            obstacle[ox * size + oy] = True
        neigh[obstacle[neigh]] = self._void
        self._neigh_table = neigh
        self._front_flat = front.reshape(-1)

        # -- agent state, shape (B, k); positions kept flat ----------------
        self._pos, self._direction, self._state = self._agent_state(
            configs, state_scheme
        )

        # -- fields, shape (B, N + 2) with the two sentinel columns --------
        starting = self.environment.starting_colors().reshape(-1).astype(np.int64)
        self._colors_pad = np.zeros(
            (n_lanes, self._n_padded), dtype=self._color_dtype
        )
        self._colors_pad[:, :n_cells] = starting
        self._occ_pad = np.zeros(
            (n_lanes, self._n_padded), dtype=self._occ_dtype
        )
        for ox, oy in self.environment.obstacles:
            self._occ_pad[:, ox * size + oy] = -1
        self._occ_pad[:, self._wall] = n_agents + 1

        # per-row flat offsets, full (B, k) shape: a same-shape add is
        # several times faster than a (B, 1) broadcast
        lanes = np.arange(n_lanes, dtype=np.int64)[:, None]
        self._row_pad = np.repeat(lanes * self._n_padded, n_agents, axis=1)
        self._row_know = np.repeat(lanes * (n_agents + 1), n_agents, axis=1)
        self._agent_ids = np.tile(
            np.arange(n_agents, dtype=self._occ_dtype), (n_lanes, 1)
        )

        occ_flat = self._occ_pad.reshape(-1)
        placement = self._pos + self._row_pad
        if (occ_flat[placement] < 0).any():
            raise ValueError("a configuration places an agent on an obstacle")
        occ_flat[placement] = self._agent_ids + 1
        occupied_counts = (self._occ_pad[:, :n_cells] > 0).sum(axis=1)
        if (occupied_counts != n_agents).any():
            raise ValueError("a configuration places two agents on one cell")

        # knowledge, shape (B, k + 1, W); row 0 of the padded view is all-zero
        self._mask = _full_mask(n_agents)
        # the mask once per agent, so a compare against a lane's whole
        # (k, W) knowledge block runs as one contiguous loop
        self._mask_rows = np.tile(self._mask, (n_agents, 1))
        self._know_padded = np.zeros(
            (n_lanes, n_agents + 1, self._mask.size), dtype=np.uint64
        )
        _set_identity(self._know_padded[:, 1:, :])

        # -- scratch buffers: allocated once, sliced to the active lanes --
        n_words = self._mask.size
        ints = lambda: np.empty((n_lanes, n_agents), dtype=np.int64)  # noqa: E731
        bools = lambda: np.empty((n_lanes, n_agents), dtype=bool)     # noqa: E731
        self._b_idx = ints()      # generic index scratch
        self._b_front = ints()    # front cell per agent
        self._b_here_g = ints()   # global padded-field index of the own cell
        self._b_front_g = ints()  # global padded-field index of the front cell
        self._b_wide = ints()     # int64 copy of a narrow value / row offset
        self._b_tidx = ints()     # table index
        # narrow scratch, one per field or table dtype
        narrow = lambda like: np.empty((n_lanes, n_agents), dtype=like.dtype)  # noqa: E731
        self._b_color = narrow(self._colors_pad)       # own colour / set colour
        self._b_frontcolor = narrow(self._colors_pad)  # front cell colour
        self._b_occ = narrow(self._occ_pad)  # occupant / winner / new value
        self._b_move = narrow(self._move)
        self._b_next = narrow(self._next_state)
        self._b_turn = narrow(self._turn)
        self._m_req = bools()     # move requests
        self._m_focc = bools()    # front occupied / blocked front
        self._m_lost = bools()    # lost the conflict
        self._m_blk = bools()     # blocked input bit
        self._m_mov = bools()     # actually moving
        self._m_not = bools()     # negation scratch
        self._m_informed = bools()
        self._b_solved = np.empty(n_lanes, dtype=bool)
        self._w_gather = np.empty((n_lanes, n_agents, n_words), dtype=np.uint64)
        # per-word compare flags: knowledge changed / word complete
        self._w_flags = np.empty(self._w_gather.shape, dtype=bool)
        # conflict arena: never cleared wholesale -- the numpy backend
        # writes every requested front cell before reading it back, and
        # the kernels reset each front cell before contesting it
        self._winner = np.full(
            (n_lanes, self._n_padded), n_agents, dtype=self._occ_dtype
        )

        # -- cycle-parking snapshot: each active row's state at _cycle_t --
        self._cyc_key = ints()  # (pos * dirs + dir) * states + state
        self._cyc_known = np.empty(n_lanes, dtype=np.int64)  # knowledge bits
        self._cyc_colors = np.empty(
            (n_lanes, n_cells), dtype=self._color_dtype
        )
        self._cycle_t = None

        # -- lane compaction bookkeeping (original order is public) -------
        self._lane_order = np.arange(n_lanes, dtype=np.int64)
        self._n_active = n_lanes
        self._row_arrays = (
            self._pos, self._direction, self._state, self._species,
            self._lane_order, self._colors_pad, self._occ_pad,
            self._know_padded, self._cyc_key, self._cyc_known,
            self._cyc_colors,
        )

        self.counters = StepCounters()
        self.t = 0
        self.done = np.zeros(n_lanes, dtype=bool)
        self.t_comm = np.full(n_lanes, -1, dtype=np.int64)
        self._backend.bind(self)
        # the exchange right after placement is not counted
        self._exchange_and_check(initial=True)

    def _row_keys(self, fsms):
        """What lanes must share to share a table row: the FSM object."""
        return list(map(id, fsms))

    def _agent_state(self, configs, state_scheme):
        """Flat positions, headings and control states, each ``(B, k)``.

        Every distinct configuration object is read once, straight from
        its tuples, and lanes repeating one get copies of its rows.
        """
        n_agents, size = self.n_agents, self.grid.size
        sources, lane_rows = _share_rows(list(map(id, configs)))
        distinct = [configs[lane] for lane in sources]
        count = len(distinct) * n_agents
        flatten = itertools.chain.from_iterable
        coords = np.fromiter(
            flatten(flatten(config.positions for config in distinct)),
            dtype=np.int64, count=2 * count,
        )
        np.remainder(coords, size, out=coords)
        pos = coords[0::2] * size
        pos += coords[1::2]
        del coords  # freed before the next (B, k) array is allocated
        direction = np.fromiter(
            flatten(config.directions for config in distinct),
            dtype=np.int64, count=count,
        )
        if state_scheme is not None:
            default = state_scheme.states_for(n_agents, self.n_states)
        else:
            default = [ident % min(2, self.n_states) for ident in range(n_agents)]
        state = np.empty((len(distinct), n_agents), dtype=np.int64)
        state[:] = default
        explicit = [row for row, config in enumerate(distinct)
                    if config.states is not None]
        if explicit:
            state[explicit] = np.fromiter(
                flatten(distinct[row].states for row in explicit),
                dtype=np.int64, count=len(explicit) * n_agents,
            ).reshape(len(explicit), n_agents)
        if (direction >= self._n_directions).any() or (direction < 0).any():
            raise ValueError("a configuration direction is out of range for this grid")
        if (state >= self.n_states).any() or (state < 0).any():
            raise ValueError("an initial control state is out of range for this FSM")
        arrays = [pos.reshape(state.shape), direction.reshape(state.shape),
                  state]
        if len(distinct) < self.n_lanes:
            arrays = [array[lane_rows] for array in arrays]
        return arrays

    # -- views ---------------------------------------------------------------

    def _by_lane(self, working):
        """Scatter a working-row array back into original lane order."""
        ordered = np.empty_like(working)
        ordered[self._lane_order] = working
        return ordered

    @property
    def px(self):
        """Per-agent x coordinates, shape ``(B, k)``, original lane order."""
        return self._by_lane(self._cell_x[self._pos])

    @property
    def py(self):
        """Per-agent y coordinates, shape ``(B, k)``, original lane order."""
        return self._by_lane(self._cell_y[self._pos])

    @property
    def direction(self):
        """Per-agent headings, shape ``(B, k)``, original lane order."""
        return self._by_lane(self._direction)

    @property
    def state(self):
        """Per-agent control states, shape ``(B, k)``, original lane order."""
        return self._by_lane(self._state)

    @property
    def backend_name(self):
        """Name of the step backend actually running this simulator."""
        return self._backend.name

    @property
    def colors(self):
        """Colour fields, shape ``(B, M * M)``, original lane order, as
        ``int64`` whatever the narrow storage dtype."""
        return self._by_lane(
            self._colors_pad[:, : self._n_cells].astype(np.int64)
        )

    @property
    def occupancy(self):
        """Occupancy fields, shape ``(B, M * M)``, original lane order, as
        ``int64`` whatever the narrow storage dtype."""
        return self._by_lane(self._occ_pad[:, : self._n_cells].astype(np.int64))

    @property
    def knowledge(self):
        """Packed knowledge words, shape ``(B, k, W)``, original lane order."""
        return self._by_lane(self._know_padded[:, 1:, :])

    @property
    def n_active_lanes(self):
        """Lanes still being stepped (the rest solved and were compacted)."""
        return self._n_active

    def informed_counts(self):
        """Per-lane number of fully informed agents, original lane order."""
        complete = self._w_flags
        np.equal(self._know_padded[:, 1:, :], self._mask_rows, out=complete)
        informed = self._m_informed
        np.logical_and.reduce(complete, axis=2, out=informed)
        return self._by_lane(informed.sum(axis=1))

    # -- dynamics --------------------------------------------------------------

    def _exchange_and_check(self, initial=False):
        """Knowledge exchange + success bookkeeping for the active lanes."""
        n = self._n_active
        if n == 0:
            return
        self.counters.exchanges += 1
        changed = self._backend.exchange_active(self, n)
        if not initial and not changed:
            # knowledge is monotone, so an unchanged exchange cannot newly
            # solve an (unsolved) active lane
            self.counters.exchange_early_outs += 1
            return
        solved = self._backend.solved_active(self, n)
        if solved.any():
            self._retire(solved)

    def _retire(self, solved):
        """Record and compact the newly solved active lanes."""
        n = self._n_active
        finished = self._lane_order[:n][solved]
        self.done[finished] = True
        self.t_comm[finished] = self.t
        self._n_active = self._sink(0, solved)
        self.counters.compactions += 1
        self.counters.retired_lanes += n - self._n_active

    def _sink(self, start, sinking):
        """Move the flagged rows of ``[start, start + len(sinking))`` behind
        the unflagged ones; returns the first flagged row afterwards.

        Compaction is swap-based: each flagged row in the surviving head is
        exchanged with an unflagged row from the tail, so the copy cost is
        proportional to the rows moving, not the batch size.
        """
        boundary = start + sinking.size - int(np.count_nonzero(sinking))
        dst = np.flatnonzero(sinking[: boundary - start]) + start
        src = np.flatnonzero(~sinking[boundary - start:]) + boundary
        for lo in range(0, dst.size, _ROW_CHUNK):
            d, s = dst[lo:lo + _ROW_CHUNK], src[lo:lo + _ROW_CHUNK]
            for array in self._row_arrays:
                array[d], array[s] = array[s], array[d]
        return boundary

    def _park_cycles(self):
        """Park the active lanes whose state repeats ``CYCLE_PERIOD`` steps
        after the last snapshot, then snapshot every active row.

        Agents are compared by one key each and knowledge by its bit count
        (knowledge only gains bits, so equal counts mean equal knowledge);
        colours are compared only where both of those already match.
        Returns the number of lanes parked.
        """
        n = self._n_active
        key = self._b_idx[:n]
        np.multiply(self._pos[:n], self._n_directions, out=key)
        np.add(key, self._direction[:n], out=key)
        np.multiply(key, self.n_states, out=key)
        np.add(key, self._state[:n], out=key)
        known = np.empty(n, dtype=np.int64)
        for lo in range(0, n, _ROW_CHUNK):
            hi = min(n, lo + _ROW_CHUNK)
            known[lo:hi] = popcount(self._know_padded[lo:hi]).sum(axis=(1, 2))
        colors = self._colors_pad[:n, : self._n_cells]
        cycled = None
        if self._cycle_t == self.t - CYCLE_PERIOD:
            cycled = (key == self._cyc_key[:n]).all(axis=1)
            cycled &= known == self._cyc_known[:n]
            rows = np.flatnonzero(cycled)
            for lo in range(0, rows.size, _ROW_CHUNK):
                chunk = rows[lo:lo + _ROW_CHUNK]
                cycled[chunk] = (
                    colors[chunk] == self._cyc_colors[chunk]
                ).all(axis=1)
        self._cyc_key[:n] = key
        self._cyc_known[:n] = known
        self._cyc_colors[:n] = colors
        self._cycle_t = self.t
        if cycled is None or not cycled.any():
            return 0
        # a parked row's snapshot equals its state at every later check
        # time of this run, so it stays valid while the row is parked
        self._n_active = self._sink(0, cycled)
        self.counters.compactions += 1
        self.counters.cycled_lanes += n - self._n_active
        return n - self._n_active

    def step(self):
        """Advance every unfinished lane by one synchronous CA step."""
        n = self._n_active
        if n == 0:
            return
        self._backend.step_active(self, n)
        self.t += 1
        self.counters.steps += 1
        self.counters.lane_steps += n
        self._exchange_and_check()

    def run(self, t_max=200):
        """Simulate until every lane solved the task or ``t_max`` is hit.

        Lanes proven periodic are parked instead of stepped (see "Cycle
        parking" in the module docstring); results, ``t`` and every public
        view are exactly those of stepping them, and parked lanes are
        active again when ``run`` returns.
        """
        parked = 0
        while self._n_active and self.t < t_max:
            if (t_max - self.t) % CYCLE_PERIOD == 0:
                parked += self._park_cycles()
            self.step()
        if parked:
            self.t = t_max
            n = self._n_active
            self._n_active = self._sink(n, self.done[self._lane_order[n:]])
        return BatchResult(
            success=self.done.copy(),
            t_comm=self.t_comm.copy(),
            informed_agents=np.asarray(self.informed_counts()),
            steps_executed=self.t,
            n_agents=self.n_agents,
        )
