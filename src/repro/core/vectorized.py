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
  lookup tables for exchange neighbours and front cells are built once at
  construction, with torus wrap and border walls folded in; the hot loop
  is pure ``take``/gather with no modulo arithmetic.
* **Zero-allocation stepping** -- every per-step temporary (gathered
  knowledge, conflict winners, request masks, table indices) lives in a
  scratch buffer allocated once; steady-state ``step()`` performs no
  heap allocation of per-lane arrays.
* **Lane compaction** -- lanes that solved the task are physically
  swapped to the back of the working arrays, so late steps only pay for
  the unsolved lanes (the expensive tail of a 1003-field suite).
* **Exchange early-out** -- when a step changes no lane's knowledge the
  success check is skipped entirely.
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


def _pack_identity(n_lanes, n_agents):
    """Initial knowledge: agent ``i`` holds exactly bit ``i``."""
    n_words = (n_agents + _WORD_BITS - 1) // _WORD_BITS
    knowledge = np.zeros((n_lanes, n_agents, n_words), dtype=np.uint64)
    agent = np.arange(n_agents)
    knowledge[:, agent, agent // _WORD_BITS] = np.uint64(1) << (
        agent % _WORD_BITS
    ).astype(np.uint64)
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
        form used to evaluate a whole GA population at once.
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
    color_dtype:
        Storage dtype of the colour fields (default ``int64``).  Pass
        ``numpy.float32`` to halve the field footprint on big worlds;
        colours are small exact integers, so results are unchanged and
        the public ``colors`` view still reads as ``int64``.

    Lanes are compacted as they finish (and while ``run`` has them
    parked), so the row order of the internal working arrays is *not*
    the lane order; the public views (``px``, ``py``, ``direction``,
    ``state``, ``colors``, ``knowledge``) always present lanes in their
    original order.  ``done`` and ``t_comm`` are
    plain per-lane arrays in original order.
    """

    def __init__(self, grid, fsms=None, configs=(), state_scheme=None,
                 environment=None, agent_fsms=None, backend=None,
                 color_dtype=None):
        configs = list(configs)
        if not configs:
            raise ValueError("need at least one configuration lane")
        self._backend = resolve_backend(backend)
        self._color_dtype = np.dtype(np.int64 if color_dtype is None
                                     else color_dtype)
        self.grid = grid
        self.environment = environment or Environment.cyclic(grid)
        self.n_lanes = len(configs)
        self.n_agents = configs[0].n_agents
        if any(config.n_agents != self.n_agents for config in configs):
            raise ValueError("all lanes must have the same number of agents")

        # species tables: shape (n_species, table_size); _species maps
        # every (lane, agent) to the row of the behaviour controlling it
        if agent_fsms is not None:
            if fsms is not None:
                raise ValueError("pass either fsms or agent_fsms, not both")
            species_list = list(agent_fsms)
            if len(species_list) != self.n_agents:
                raise ValueError(
                    f"{len(species_list)} agent FSMs for {self.n_agents} agents"
                )
            self._species = np.tile(
                np.arange(self.n_agents, dtype=np.int64), (self.n_lanes, 1)
            )
        elif isinstance(fsms, (list, tuple)):
            species_list = list(fsms)
            if len(species_list) != self.n_lanes:
                raise ValueError(
                    f"{len(species_list)} FSMs for {self.n_lanes} lanes"
                )
            self._species = np.repeat(
                np.arange(self.n_lanes, dtype=np.int64)[:, None],
                self.n_agents, axis=1,
            )
        elif fsms is not None:
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

        size = grid.size
        self._n_cells = size * size
        self._next_state = np.stack(
            [f.next_state for f in species_list]
        ).astype(np.int64)
        self._set_color = np.stack([f.set_color for f in species_list]).astype(np.int64)
        self._move = np.stack([f.move for f in species_list]).astype(np.int64)
        self._turn = np.stack([f.turn for f in species_list]).astype(np.int64)

        dx, dy = grid.direction_deltas()
        self._dx, self._dy = dx, dy
        self._turn_increments = np.asarray(grid.turn_table(), dtype=np.int64)
        self._n_directions = grid.n_directions
        self._bordered = self.environment.bordered

        n_lanes, n_agents, n_cells = self.n_lanes, self.n_agents, self._n_cells

        # -- precomputed kernels ------------------------------------------
        # Flat lookup tables, indexed by [direction, cell].  Wrap and
        # border logic are folded in once; two sentinel cells per lane
        # keep the hot loop branch-free:
        #   cell N      void: an exchange partner that relays nothing
        #   cell N + 1  wall: a front cell that blocks and reads colour 0
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
        self._neigh_table = neigh
        self._front_flat = front.reshape(-1)

        # -- agent state, shape (B, k); positions kept flat ----------------
        self._pos = np.empty((n_lanes, n_agents), dtype=np.int64)
        self._direction = np.empty_like(self._pos)
        self._state = np.empty_like(self._pos)
        for lane, config in enumerate(configs):
            for agent, (x, y) in enumerate(config.positions):
                self._pos[lane, agent] = (x % size) * size + y % size
            self._direction[lane] = np.asarray(config.directions, dtype=np.int64)
            states = config.states
            if states is None and state_scheme is not None:
                states = state_scheme.states_for(n_agents, self.n_states)
            if states is None:
                states = [
                    ident % min(2, self.n_states) for ident in range(n_agents)
                ]
            self._state[lane] = np.asarray(states, dtype=np.int64)
        if (self._direction >= self._n_directions).any() or (self._direction < 0).any():
            raise ValueError("a configuration direction is out of range for this grid")
        if (self._state >= self.n_states).any() or (self._state < 0).any():
            raise ValueError("an initial control state is out of range for this FSM")

        # -- fields, shape (B, N + 2) with the two sentinel columns --------
        starting = self.environment.starting_colors().reshape(-1).astype(np.int64)
        self._colors_pad = np.zeros(
            (n_lanes, self._n_padded), dtype=self._color_dtype
        )
        self._colors_pad[:, :n_cells] = starting
        self._occ_pad = np.zeros((n_lanes, self._n_padded), dtype=np.int64)
        for ox, oy in self.environment.obstacles:
            self._occ_pad[:, ox * size + oy] = -1
        self._occ_pad[:, self._wall] = n_agents + 1

        self._row_pad = (
            np.arange(n_lanes, dtype=np.int64) * self._n_padded
        )[:, None]
        self._row_void = self._row_pad + self._void
        self._row_know = (
            np.arange(n_lanes, dtype=np.int64) * (n_agents + 1)
        )[:, None]
        self._agent_ids = np.tile(
            np.arange(n_agents, dtype=np.int64), (n_lanes, 1)
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
        self._know_padded = np.zeros(
            (n_lanes, n_agents + 1, self._mask.size), dtype=np.uint64
        )
        self._know_padded[:, 1:, :] = _pack_identity(n_lanes, n_agents)

        # -- scratch buffers: allocated once, sliced to the active lanes --
        n_words = self._mask.size
        ints = lambda: np.empty((n_lanes, n_agents), dtype=np.int64)  # noqa: E731
        bools = lambda: np.empty((n_lanes, n_agents), dtype=bool)     # noqa: E731
        self._b_idx = ints()      # generic index scratch
        self._b_front = ints()    # front cell per agent
        self._b_here_g = ints()   # global padded-field index of the own cell
        self._b_front_g = ints()  # global padded-field index of the front cell
        self._b_val = ints()      # colour / move output / occupancy value
        self._b_val2 = ints()     # front colour / conflict winner
        self._b_x = ints()        # FSM input combination
        self._b_tidx = ints()     # table index / turn increment
        self._b_sbase = ints()    # species row offset into the flat tables
        self._b_next = ints()
        self._b_setc = ints()
        self._b_turn = ints()
        self._b_occ = ints()
        self._m_req = bools()     # move requests
        self._m_focc = bools()    # front occupied / blocked front
        self._m_lost = bools()    # lost the conflict
        self._m_blk = bools()     # blocked input bit
        self._m_mov = bools()     # actually moving
        self._m_not = bools()     # negation scratch
        self._m_changed = bools()
        self._m_informed = bools()
        self._m_tmp = bools()
        self._b_solved = np.empty(n_lanes, dtype=bool)
        if self._color_dtype != np.int64:
            # colour gathers land here before the lossless int64 cast
            self._b_fcolor = np.empty(
                (n_lanes, n_agents), dtype=self._color_dtype
            )
        self._w_gather = np.empty((n_lanes, n_agents, n_words), dtype=np.uint64)
        self._w_dir = np.empty_like(self._w_gather)
        # conflict arena: never cleared wholesale -- each step scatter-resets
        # exactly the (at most B * k) front cells it is about to contest
        self._winner = np.full(
            (n_lanes, self._n_padded), n_agents, dtype=np.int64
        )

        # -- cycle-parking snapshot: each active row's state at _cycle_t --
        self._cyc_key = ints()  # (pos * dirs + dir) * states + state
        self._cyc_known = np.empty(n_lanes, dtype=np.int64)  # knowledge bits
        # colours lie in 0 .. n_colors - 1: int8 holds up to 128 exactly
        self._cyc_colors = np.empty(
            (n_lanes, n_cells),
            dtype=np.int8 if self.n_colors <= 128 else self._color_dtype,
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
        """Colour fields, shape ``(B, M * M)``, original lane order.

        Always ``int64``, whatever the storage ``color_dtype``.
        """
        colors = self._colors_pad[:, : self._n_cells]
        if colors.dtype != np.int64:
            colors = colors.astype(np.int64)
        return self._by_lane(colors)

    @property
    def occupancy(self):
        """Occupancy fields, shape ``(B, M * M)``, original lane order."""
        return self._by_lane(self._occ_pad[:, : self._n_cells])

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
        know = self._know_padded[:, 1:, :]
        informed = self._m_informed
        np.equal(know[:, :, 0], self._mask[0], out=informed)
        for word in range(1, self._mask.size):
            np.equal(know[:, :, word], self._mask[word], out=self._m_tmp)
            np.logical_and(informed, self._m_tmp, out=informed)
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
