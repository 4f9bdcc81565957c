"""The default vectorized step backend: the numpy fast path.

One synchronous CA step over all active lanes at once, as a fixed
sequence of whole-array ``take`` gathers, scatters and elementwise ufuncs
over the simulator's preallocated scratch buffers: precomputed neighbour
kernels, composite transition tables and zero-allocation stepping.
Every operation writes into an ``out=`` buffer, and the choice among
ufuncs is made by measured cost per lane-step:

* each agent's heading, FSM table row and control state are one int64
  control code, and the FSM tables are composed with the heading
  rotation into three composite tables indexed by ``x * D*R*S + code``
  (see :mod:`repro.core.vectorized`).  The front cell is one gather of
  the code's heading block plus the position; the free-front table index
  is one gather per colour (the narrow colours index small int64 scale
  tables, so no narrow arithmetic can overflow and nothing is widened by
  copy) plus the code; the move request is ``move_bit > front_occupied``;
* masked copies are written as arithmetic selects,
  ``a + mask * (b - a)``, which numpy runs several times faster than
  ``copyto(..., where=mask)``;
* the slices of the step's arrays to the active rows are cached and
  rebuilt only when the active count changes, and per-step "any" tests
  are ``np.count_nonzero``, which costs a third of ``ndarray.any()`` on
  a small mask;
* gathers call the ``ndarray.take`` method, which skips the Python-level
  dispatch of ``np.take``.  The three gathers of the direction-major
  exchange also pass ``mode="clip"``, which writes straight into ``out``
  where the default ``"raise"`` fills a fresh copy of it and copies that
  back.  Clipping relies on every index being non-negative and in range
  (obstacles are folded into the void, whose occupancy is 0): an
  out-of-range index would read a wrong row instead of raising, so
  ``tests/test_agent_exchange.py`` checks those indices on every step.

A step over a small batch (tens of lanes, as one genome's miss in the
service) costs about as much per numpy call as per element, so the
sparse paths are built to make few calls per step, whatever the batch
size.

Knowledge exchange -- each agent's new knowledge is the OR of its own
word(s) and its neighbours' -- takes one of two exact paths, chosen once
per simulator from the world's occupancy:

* **Direction-major exchange** (sparse worlds).  For a block of lanes,
  the neighbour cells of every agent in all 4 (S) or 6 (T) directions
  are gathered at once into a ``(directions, lanes, agents)`` index
  block; the occupants of those cells are gathered and widened into
  knowledge rows (empty, obstacle and void cells read the all-zero row
  0), the knowledge words are gathered in one call, and one
  ``bitwise_or.reduce`` over the direction axis, plus the agent's own
  words, gives the result: about 8 numpy calls per block, whatever the
  number of directions.  Blocks hold at most ``_EXCHANGE_BLOCK``
  elements, so a large batch's scratch stays cache resident.
* **Dense-field exchange.**  In a dense world it is cheaper to compute
  the OR for every cell at once, as a CA neighbourhood stencil over a
  knowledge field that lays the words out over the lattice plus a
  one-cell halo (empty, obstacle and border cells hold 0, and the halo
  wraps on a cyclic world).  OR is commutative and idempotent and empty
  cells contribute 0, so every agent gets exactly the bits the per-agent
  gathers give it, including on 2- and 3-cell worlds where two
  directions reach the same neighbour.  The stencil costs per cell and
  the gathers per agent, so the choice is made from ``k / free cells``:
  the stencil from ``DENSE_OCCUPANCY`` = 0.5 on.  That crossover was
  measured on 16x16 T worlds at 1003 lanes when the stencil still
  gathered its field in and out on every step and the gathers made one
  pass per direction (T broke even at k = 128 and the stencil was 1.4x
  faster at k = 256).  As both paths stand now, the stencil wins where
  nobody moves; in 16x16 worlds whose agents move (k = 128 to 255) the
  direction-major exchange mostly measured faster, by up to a third.

  - *Residency.*  The field of the whole batch is loaded from the
    agents' rows once, by one gather through the occupancy field, and
    then exchanged in place: the merged words are compared with the
    field (the ``changed`` early-out) and written back while a lane
    block is cache resident, and a cyclic world's halo is refreshed by
    slice copies.  A lane is solved when its field equals the goal
    field: the full mask at every cell an agent holds (or mirrors), 0
    elsewhere.  A world with a cell no agent holds (empty, obstacle, or
    a bordered world's halo) builds that goal per lane as it loads, and
    ANDs each merge with it, which keeps the unheld cells at 0.  Every
    operation runs over a lane block's whole flat run of cells, halo
    included, which numpy streams several times faster than strided
    lattice views.
  - *Sync on read.*  The agents' rows are brought up to date from the
    field only when something reads them (``sync_knowledge``): before a
    step's occupancy scatters when somebody moves (pre-move positions),
    before the cycle check's popcount, before a compaction swaps rows,
    and for the ``knowledge`` view and ``informed_counts``, which
    ``run`` calls as it returns.  A move or a compaction drops the
    field, and the next exchange reloads it.
  - *T in three ORs.*  T's neighbourhood {0, +-a, +-b, +-(a + b)} is the
    Minkowski sum {0, a} + {0, b} + {0, -(a + b)}, so three ORs over
    slightly wider flat runs replace six, and every read stays inside
    the halo; S's {0, +-a, +-b} takes four.

Phase 2 reads the table row of the actual input, one block of ``D*R*S``
further on when the agent is blocked: one gather gives the set colour,
written to the agent's own cell, and one writes the next code -- new
heading, same row, next state -- straight into the code array.  Moves go
through a conflict arena, one cell field per lane in which the lowest
requesting agent ID wins each contested free cell:

* **One-scatter arena.**  Every requester writes its ID to its front
  cell in one scatter (non-requesters write to their own cell, which no
  requester targets, since requested cells are free), and one gather
  reads the cells back.  Whatever order numpy applies duplicate writes
  in, each requested cell then holds one of its requesters' IDs, and
  every other requester of it reads a foreign ID, while a non-requester
  always reads its own.  The agents reading a foreign ID are exactly the
  losers of a contest, and a ``minimum.at`` over only their cells and
  IDs, plus a second gather, leaves the lowest ID in every contested
  cell.  Every cell is written before it is read, so the arena is never
  reset.
* **No-request steps.**  When no agent requests a free front cell,
  nobody can lose a conflict or move, so the conflict arena and both
  occupancy scatters are skipped and ``blocked`` is just "front cell
  occupied".
* **Full-world steps.**  When every free cell holds an agent (a property
  of the input, as on Table 1's k = 256 torus), every front cell is an
  agent's, an obstacle or the wall, so every agent is blocked: the
  step skips the front-occupancy gather, the move bits, the request
  count and the blocked multiply, and adds the constant ``D*R*S``
  instead.
* **Two-scatter moves.**  No winner's target is any agent's old cell, so
  a move clears every agent's old cell and then writes every agent's new
  one (a staying agent's new cell is its old one).

The fast-path and backend test suites pin it bit-exact against the
scalar reference simulation, the frozen legacy stepper and the
interpreted kernel twin; ``tests/test_agent_exchange.py`` and
``tests/test_dense_exchange.py`` cover the two exchange paths and the
arena, and ``tests/test_control_code.py`` the control code and its
tables.
"""

import numpy as np

from repro.core.backends import StepBackend

#: Occupancy (agents per free cell) from which knowledge exchange runs as
#: a cell stencil instead of per-agent gathers; see "Dense-field
#: exchange" above for where the value comes from.
DENSE_OCCUPANCY = 0.5

#: Words (padded cells x knowledge words x lanes) per stencil block: 32
#: lanes of Table 1's 16x16 field at k = 256.  A block's part of the
#: knowledge field and its one or two pass buffers stay cache resident
#: (0.7 MB on S and 1 MB on T) from the ORs to the write-back, and small
#: worlds take many lanes per block, so they pay few numpy calls.
_STENCIL_BLOCK = 32 * 18 * 18 * 4

#: Elements (directions x lanes x agents x words) per direction-major
#: exchange block.  At the cap a block's index and word scratch take
#: 1 MB; smaller blocks cost more calls per step at thousands of lanes,
#: and larger ones fall out of cache (measurements in CHANGES.md).
_EXCHANGE_BLOCK = 65536


class _AgentExchange:
    """Lane-block scratch of one simulator's direction-major exchange.

    The index, occupant and word buffers are flat, sized for one full
    block, and viewed as ``(directions, lanes, agents[, words])``.
    Knowledge lives in the agents' rows only, so :meth:`sync` has
    nothing to do.
    """

    def __init__(self, sim):
        n_directions, n_agents = sim._n_directions, sim.n_agents
        n_words = sim._mask.size
        self.lanes = max(
            1, _EXCHANGE_BLOCK // (n_directions * n_agents * n_words)
        )
        size = n_directions * min(self.lanes, sim.n_lanes) * n_agents
        self.index = np.empty(size, dtype=np.int64)
        self.occupant = np.empty(size, dtype=sim._occ_pad.dtype)
        self.words = np.empty(size * n_words, dtype=np.uint64)
        self.n = None
        self.know_views = _ActiveViews(
            sim._w_gather, sim._know_padded[:, 1:], sim._w_flags,
            sim._b_solved,
        )

    def _blocks(self, sim, n):
        """Per lane block of rows ``[0, n)``: the block's rows of the
        simulator arrays and its views of the scratch, cached until the
        active count changes."""
        if n != self.n:
            n_directions, n_agents = sim._n_directions, sim.n_agents
            n_words = sim._mask.size
            self.n, self.blocks = n, []
            for lo in range(0, n, self.lanes):
                hi = min(n, lo + self.lanes)
                shape = (n_directions, hi - lo, n_agents)
                size = n_directions * (hi - lo) * n_agents
                self.blocks.append((
                    sim._pos[lo:hi], sim._row_pad[lo:hi],
                    sim._row_know[lo:hi], sim._w_gather[lo:hi],
                    sim._know_padded[lo:hi, 1:],
                    self.index[:size].reshape(shape),
                    self.occupant[:size].reshape(shape),
                    self.words[:size * n_words].reshape(shape + (n_words,)),
                ))
        return self.blocks

    def exchange(self, sim, n):
        """Each agent's own knowledge OR its neighbours'; True when any
        word of rows ``[0, n)`` changed."""
        occ_flat = sim._occ_pad.reshape(-1)
        know_rows = sim._know_padded.reshape(-1, sim._mask.size)
        for (pos, row_pad, row_know, gather, own, index, occupant,
             words) in self._blocks(sim, n):
            # every direction's neighbour cell, then its occupant's
            # knowledge row (agent i holds row i + 1; empty, obstacle and
            # void cells read the all-zero row 0 of their lane)
            sim._neigh_table.take(pos, axis=1, out=index, mode="clip")
            np.add(index, row_pad, out=index)
            occ_flat.take(index, out=occupant, mode="clip")
            np.copyto(index, occupant)
            np.add(index, row_know, out=index)
            know_rows.take(index, axis=0, out=words, mode="clip")
            np.bitwise_or.reduce(words, axis=0, out=gather)
            np.bitwise_or(gather, own, out=gather)
        # one contiguous compare finds whether any word changed
        gather, know, changed, _ = self.know_views(n)
        np.not_equal(gather, know, out=changed)
        if not np.count_nonzero(changed):
            return False
        np.copyto(know, gather)
        return True

    def solved(self, sim, n):
        """Which of rows ``[0, n)`` have every agent fully informed."""
        _, know, informed, solved = self.know_views(n)
        np.equal(know, sim._mask_rows, out=informed)
        informed.reshape(n, -1).all(axis=1, out=solved)
        return solved

    def sync(self, sim, release):
        """Nothing to do: the exchange writes the agents' rows."""


class _CellStencil:
    """The batch's knowledge in field layout, and its dense exchange.

    Knowledge is laid out over the lattice plus a one-cell halo, one
    ``(M + 2)**2``-cell field of words per lane, flat with row length
    ``M + 2``, so each direction's neighbour sits at a constant flat
    offset (every direction is a unit step on S and T).  The lanes' fields
    are stored back to back, and every operation runs over a whole lane
    block's flat run of cells: the halo cells between the lattice rows
    are computed too, which costs less than striding around them.

    The field is loaded from the agents' rows once and then exchanged in
    place for as long as nobody moves and no row is swapped; the rows
    are brought up to date from it only when something reads them
    (:meth:`sync`).
    """

    def __init__(self, sim):
        size = sim.grid.size
        side = self.side = size + 2
        padded = self.padded = side * side
        coord = np.arange(-1, size + 1)
        x, y = coord[:, None], coord[None, :]
        # the cell each padded cell loads: the halo wraps on a cyclic
        # world and reads the void (occupancy 0) on a bordered one, and
        # obstacles read the void too
        source = (x % size) * size + y % size
        if sim._bordered:
            outside = (x < 0) | (x >= size) | (y < 0) | (y >= size)
            source[outside] = sim._void
        for ox, oy in sim.environment.obstacles:
            source[source == ox * size + oy] = sim._void
        self.source = source.reshape(-1)
        self.wrap = not sim._bordered
        self.cell_at = (sim._cell_x + 1) * side + sim._cell_y + 1
        # a cell no agent holds (empty, an obstacle, or a bordered
        # world's halo) must keep the all-zero word, so such a world
        # masks each merge by occupancy
        self.masked = sim._bordered or sim.n_agents < sim._n_cells

        # the neighbourhood as a Minkowski sum of passes, each ORing its
        # input with itself shifted by the pass's offsets.  S's {0, +-a,
        # +-b} is one pass of four ORs; T's {0, +-a, +-b, +-(a + b)} is
        # {0, a} + {0, b} + {0, -(a + b)}: three ORs instead of six
        steps = list(zip(sim._dx.tolist(), sim._dy.tolist()))
        if len(steps) == 6:
            dx, dy = next((dx, dy) for dx, dy in steps if dx and dy)
            self.passes = [[dx * side], [dy], [-(dx * side + dy)]]
        else:
            self.passes = [[dx * side + dy for dx, dy in steps]]
        # a pass covers the flat run from padded cell (1, 1) to (M, M),
        # widened by what the later passes read from it; the first pass's
        # reads stay inside the lane's halo-padded field
        start, stop = side + 1, size * side + size + 1
        self.ranges = []
        for index in range(len(self.passes)):
            later = [o for p in self.passes[index + 1:] for o in p]
            self.ranges.append((
                start + sum(min(o, 0) for o in later),
                stop - padded + sum(max(o, 0) for o in later),
            ))

        n_lanes, n_agents = sim.n_lanes, sim.n_agents
        n_words = sim._mask.size
        self.lanes = max(1, _STENCIL_BLOCK // (padded * n_words))
        block = min(self.lanes, n_lanes)
        # the lanes' fields back to back, then one all-zero word row
        self.field = np.zeros((n_lanes * padded + 1, n_words),
                              dtype=np.uint64)
        # a solved lane's field: the mask at every cell an agent holds (in
        # the halo: mirrors), 0 elsewhere; per lane unless every cell of
        # every lane is held
        if self.masked:
            self.goal = np.empty_like(self.field)
            self.goal_words = np.stack([np.zeros_like(sim._mask), sim._mask])
            self.held = np.empty((block, padded), dtype=bool)
        else:
            self.goal = np.tile(sim._mask, (block * padded, 1))
        # the halo words of a block, whose merged values are not compared
        halo = np.ones((side, side, n_words), dtype=bool)
        halo[1:-1, 1:-1] = False
        self.halo = np.tile(halo.reshape(-1), block)

        # lane-block scratch: the passes alternate between two buffers
        self.occupant = np.empty((block, padded), dtype=sim._occ_pad.dtype)
        self.rows = np.empty((block, padded), dtype=np.int64)
        lanes = np.arange(block, dtype=np.int64)[:, None]
        self.row_base = np.repeat(lanes * (n_agents + 1), padded, axis=1)
        work = [
            np.empty((block * padded, n_words), dtype=np.uint64)
            for _ in range(min(2, len(self.passes)))
        ]
        self.outputs = [work[i % 2] for i in range(len(self.passes))]
        self.flags = np.empty(block * padded * n_words, dtype=bool)
        # the field row of each agent's cell, after the zero row that
        # fills each lane's all-zero knowledge row 0
        self.cells = np.empty((block, n_agents), dtype=np.int64)
        self.at = np.full((block, n_agents + 1), n_lanes * padded)
        self.at_base = np.repeat(
            np.arange(0, n_lanes * padded, padded)[:, None], n_agents, axis=1
        )
        self.loaded = False   # the field holds rows [0, n_active) ...
        self.stale = False    # ... and is newer than the agents' rows

    def _blocks(self, n):
        """Per lane block of rows ``[0, n)``: its bounds and its cells'
        bounds in the flat field."""
        for lo in range(0, n, self.lanes):
            hi = min(n, lo + self.lanes)
            yield lo, hi, lo * self.padded, hi * self.padded

    def _load(self, sim, lo, hi, first, last):
        """The field of rows ``[lo, hi)``, from the agents' rows."""
        lanes = hi - lo
        # the knowledge row of each padded cell's occupant: agent i holds
        # row i + 1, and empty and void cells read the all-zero row 0
        occupant = self.occupant[:lanes]
        sim._occ_pad[lo:hi].take(self.source, axis=1, out=occupant)
        rows = self.rows[:lanes]
        np.add(occupant, self.row_base[:lanes], out=rows)
        sim._know_padded[lo:hi].reshape(-1, sim._mask.size).take(
            rows.reshape(-1), axis=0, out=self.field[first:last],
        )
        if self.masked:
            held = self.held[:lanes]
            np.not_equal(occupant, 0, out=held)
            self.goal_words.take(held.reshape(-1).view(np.int8), axis=0,
                                 out=self.goal[first:last])

    def exchange(self, sim, n):
        """Each occupied cell's knowledge OR its neighbours', in place in
        the field; True when any word of rows ``[0, n)`` changed.  A
        dropped field is reloaded block by block, while it is in cache."""
        sim.counters.dense_exchanges += 1
        changed = False
        for lo, hi, first, last in self._blocks(n):
            if not self.loaded:
                self._load(sim, lo, hi, first, last)
            size = last - first
            source = self.field[first:last]
            for offsets, (begin, end), output in zip(
                self.passes, self.ranges, self.outputs
            ):
                end += size
                out = output[begin:end]
                np.bitwise_or(source[begin:end],
                              source[begin + offsets[0]:end + offsets[0]],
                              out=out)
                for offset in offsets[1:]:
                    np.bitwise_or(out, source[begin + offset:end + offset],
                                  out=out)
                source = output
            merged = source[:size]
            if self.masked:
                np.bitwise_and(merged, self.goal[first:last], out=merged)
            # the compare and write-back run while the block is in cache
            field = self.field[first:last]
            flags = self.flags[:field.size]
            np.not_equal(merged.reshape(-1), field.reshape(-1), out=flags)
            if self.wrap:
                # the merged halo is not refreshed until it is written back
                np.greater(flags, self.halo[:flags.size], out=flags)
            if np.count_nonzero(flags):
                changed = True
                np.copyto(field, merged)
                if self.wrap:
                    self._wrap(field.reshape(hi - lo, self.side, self.side,
                                             -1))
        self.loaded = True
        self.stale |= changed
        return changed

    @staticmethod
    def _wrap(padded):
        """Refresh a cyclic field's halo from the lattice edges it wraps
        to: rows first, then whole columns, which fills the corners."""
        padded[:, 0, 1:-1] = padded[:, -2, 1:-1]
        padded[:, -1, 1:-1] = padded[:, 1, 1:-1]
        padded[:, :, 0] = padded[:, :, -2]
        padded[:, :, -1] = padded[:, :, 1]

    def solved(self, sim, n):
        """Which of rows ``[0, n)`` have every agent fully informed: the
        lanes whose whole field equals the goal field."""
        solved = sim._b_solved[:n]
        for lo, hi, first, last in self._blocks(n):
            flags = self.flags[:(last - first) * sim._mask.size]
            goal = self.goal[first:last] if self.masked else self.goal
            np.equal(self.field[first:last].reshape(-1),
                     goal[:last - first].reshape(-1), out=flags)
            flags.reshape(hi - lo, -1).all(axis=1, out=solved[lo:hi])
        return solved

    def sync(self, sim, release):
        """Gather the field back into the agents' rows if it is newer, at
        the agents' current cells; ``release`` drops the field, to be
        reloaded at the next exchange."""
        if self.stale:
            n_words = sim._mask.size
            for lo, hi, _, _ in self._blocks(sim._n_active):
                cells, at = self.cells[:hi - lo], self.at[:hi - lo]
                self.cell_at.take(sim._pos[lo:hi], out=cells)
                np.add(cells, self.at_base[lo:hi], out=at[:, 1:])
                self.field.take(
                    at.reshape(-1), axis=0,
                    out=sim._know_padded[lo:hi].reshape(-1, n_words),
                )
            self.stale = False
        if release:
            self.loaded = False


class _ActiveViews:
    """Arrays sliced to their first ``n`` working rows, cached.

    Compaction swaps row contents in place, so a slice stays valid until
    the active count changes; the slices are rebuilt only then.
    """

    def __init__(self, *arrays):
        self.arrays = arrays
        self.n = None
        self.views = None

    def __call__(self, n):
        if n != self.n:
            self.n = n
            self.views = tuple(array[:n] for array in self.arrays)
        return self.views


def _resolve_conflicts(sim, requests, front_occupied, here_g, step,
                       agent_ids, target, won, lost, blocked, movers):
    """The lowest agent ID wins each contested front cell; fills the
    ``blocked`` and ``movers`` masks.  ``step`` is front minus own cell."""
    winner_flat = sim._winner.reshape(-1)
    # requesters write to their front cell and everyone else to their
    # own cell, which no requester targets (requested cells are free):
    # target = here + requesting * (front - here)
    np.multiply(step, requests, out=target)
    np.add(target, here_g, out=target)
    # each requested cell keeps one of its requesters' ids and each own
    # cell its agent's, so the agents reading another id back are
    # exactly the losers of a contest
    winner_flat[target] = agent_ids
    winner_flat.take(target, out=won)
    np.not_equal(won, agent_ids, out=lost)
    if np.count_nonzero(lost):
        # a contested cell holds one requester's id, and every other
        # requester lost: the minimum over the losers is the lowest id
        sim.counters.contested_steps += 1
        np.minimum.at(winner_flat, target[lost], agent_ids[lost])
        winner_flat.take(target, out=won)
        np.not_equal(won, agent_ids, out=lost)
    np.logical_or(front_occupied, lost, out=blocked)
    np.greater(requests, lost, out=movers)  # == move & not blocked


class NumpyStepBackend(StepBackend):
    """Vectorized ``take``/gather stepping over the shared scratch buffers."""

    name = "numpy"

    def bind(self, sim):
        # dense worlds take the cell stencil, sparse ones the
        # direction-major gathers; each allocates only its own scratch
        free_cells = sim.environment.n_free_cells
        dense = sim.n_agents >= DENSE_OCCUPANCY * free_cells
        sim._exchange = (_CellStencil if dense else _AgentExchange)(sim)
        # with every free cell held, every front cell is an agent's, an
        # obstacle or the wall: nobody can ever move
        sim._full_world = sim.n_agents == free_cells
        sim._step_views = _ActiveViews(
            sim._pos, sim._code, sim._row_pad, sim._agent_ids,
            sim._occupant_ids, sim._b_idx, sim._b_here_g, sim._b_front_g,
            sim._b_off, sim._b_tidx, sim._b_color, sim._b_frontcolor,
            sim._b_occ, sim._m_move, sim._m_req, sim._m_focc, sim._m_lost,
            sim._m_blk, sim._m_mov,
        )

    def step_active(self, sim, n):
        (pos, code, row_pad, agent_ids, occupant_ids, idx, here_g, front_g,
         off, tidx, color, frontcolor, occupant, move_bit, requests,
         front_occupied, lost, blocked_buf, movers) = sim._step_views(n)
        colors_flat = sim._colors_pad.reshape(-1)
        occ_flat = sim._occ_pad.reshape(-1)

        # front cell via the precomputed kernel: front_flat[heading * N +
        # pos], the heading's block read off the code
        sim._heading_base.take(code, out=idx)
        np.add(idx, pos, out=idx)
        sim._front_flat.take(idx, out=front_g)
        np.add(front_g, row_pad, out=front_g)
        np.add(pos, row_pad, out=here_g)

        colors_flat.take(here_g, out=color)
        colors_flat.take(front_g, out=frontcolor)

        # phase 1: desire = move bit of the free-front input, at table
        # index x * D*R*S + code with x = 2 * (color + n_colors *
        # frontcolor) (for the paper's two colours, the Fig. 3 bit
        # packing); the x term is one gather per colour
        sim._color_scale.take(color, out=tidx)
        sim._frontcolor_scale.take(frontcolor, out=off)
        np.add(tidx, off, out=tidx)
        np.add(tidx, code, out=tidx)
        if sim._full_world:
            # every agent is blocked: no request, no move, and the actual
            # table row is one block of D*R*S further on
            moving = 0
            np.add(tidx, sim._code_span, out=tidx)
        else:
            occ_flat.take(front_g, out=occupant)
            np.not_equal(occupant, 0, out=front_occupied)
            sim._move_bit.take(tidx, out=move_bit)
            np.greater(move_bit, front_occupied, out=requests)

            # nobody requesting a free front cell means no conflict, no
            # move, and blocked == front occupied: the conflict arena and
            # both occupancy scatters are skipped
            moving = np.count_nonzero(requests)
            if moving:
                step = idx  # the front-cell index is not read again
                np.subtract(front_g, here_g, out=step)
                blocked = blocked_buf
                _resolve_conflicts(
                    sim, requests, front_occupied, here_g, step, agent_ids,
                    off, occupant, lost, blocked, movers,
                )
            else:
                blocked = front_occupied

            # phase 2: the actual table row, x + blocked, one block of
            # D*R*S further on when blocked
            np.multiply(blocked, sim._code_span, out=off)
            np.add(tidx, off, out=tidx)
        # the next code carries the new heading and state
        sim._set_color.take(tidx, out=color)  # own colour is not read again
        sim._next_code.take(tidx, out=code)

        # setcolor always rewrites the flag of the cell the agent stands on
        colors_flat[here_g] = color

        if moving:
            # the agents' rows must hold their knowledge before the cells
            # they stand on change
            self.sync_knowledge(sim, release=True)
            # simultaneous movement: winners are unique per target cell,
            # and no target coincides with any agent's (occupied) old
            # cell, so clearing every old cell and writing every new one
            # is exact.  movers * (front - here) moves both the flat
            # position and its global field index
            occ_flat[here_g] = 0
            np.multiply(step, movers, out=step)
            np.add(here_g, step, out=here_g)
            occ_flat[here_g] = occupant_ids
            np.add(pos, step, out=pos)

    def exchange_active(self, sim, n):
        return sim._exchange.exchange(sim, n)

    def solved_active(self, sim, n):
        return sim._exchange.solved(sim, n)

    def sync_knowledge(self, sim, release=False):
        sim._exchange.sync(sim, release)
