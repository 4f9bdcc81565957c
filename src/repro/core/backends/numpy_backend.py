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
  the OR for every cell at once, as a CA neighbourhood stencil.  One
  gather through the occupancy field lays the knowledge out over the
  lattice plus a one-cell halo (empty, obstacle and border cells read
  the all-zero knowledge row 0, and the halo wraps on a cyclic world);
  the 4 or 6 shifted views of that field are ORed together, and the
  result is gathered back at the agents' positions.  OR is commutative
  and idempotent and empty cells contribute 0, so every agent gets
  exactly the bits the per-agent gathers give it, including on 2- and
  3-cell worlds where two directions reach the same neighbour.  Lanes
  are processed in blocks of ``_LANE_BLOCK`` so the scratch stays cache
  resident.  The stencil costs per cell and the gathers per agent, so
  the choice is made from ``k / free cells``: the stencil from
  ``DENSE_OCCUPANCY`` = 0.5 on.  That is the measured crossover on
  16x16 T worlds at 1003 lanes against the direction-major exchange
  (T breaks even at k = 128 and the stencil is 1.4x faster at k = 256;
  S breaks even only at k = 176, so S worlds between 0.5 and 0.69
  would still exchange faster by gathers).

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
* **No-request steps.**  When no agent requests a free front cell -- on
  a full torus, never -- nobody can lose a conflict or move, so the
  conflict arena and both occupancy scatters are skipped and ``blocked``
  is just "front cell occupied".
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

#: Lanes per stencil block.  A block's padded knowledge field and its
#: merged copy stay cache resident (about 0.6 MB at k = 256 on 16x16);
#: a whole-batch field would not, and would add tens of MB of scratch.
_LANE_BLOCK = 32

#: Elements (directions x lanes x agents x words) per direction-major
#: exchange block.  At the cap a block's index and word scratch take
#: 1 MB; smaller blocks cost more calls per step at thousands of lanes,
#: and larger ones fall out of cache (measurements in CHANGES.md).
_EXCHANGE_BLOCK = 65536


class _AgentExchange:
    """Lane-block scratch of one simulator's direction-major exchange.

    The index, occupant and word buffers are flat, sized for one full
    block, and viewed as ``(directions, lanes, agents[, words])``.
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
        """Each agent's own knowledge OR its neighbours', into
        ``sim._w_gather[:n]``."""
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


class _CellStencil:
    """Index maps and lane-block scratch of one simulator's dense exchange.

    Knowledge is laid out over the lattice plus a one-cell halo, flat
    with row length ``M + 2``, so each direction's neighbour sits at a
    constant flat offset (every direction is a unit step on S and T).
    """

    def __init__(self, sim):
        size = sim.grid.size
        side = size + 2
        coord = np.arange(-1, size + 1)
        x, y = coord[:, None], coord[None, :]
        # the cell each padded cell reads: the halo wraps on a cyclic
        # world and reads the void (occupancy 0) on a bordered one
        source = (x % size) * size + y % size
        if sim._bordered:
            outside = (x < 0) | (x >= size) | (y < 0) | (y >= size)
            source[outside] = sim._void
        self.source = source.reshape(-1)
        # the flat run from padded cell (1, 1) to (M, M) holds the lattice,
        # and the halo columns inside it are merged but never read
        self.start = side + 1
        self.span = (size - 1) * side + size
        self.offsets = [
            int(dx) * side + int(dy) for dx, dy in zip(sim._dx, sim._dy)
        ]
        self.cell_at = sim._cell_x * side + sim._cell_y  # cell -> run index

        block = min(_LANE_BLOCK, sim.n_lanes)
        n_agents, n_words = sim.n_agents, sim._mask.size
        padded = side * side
        lanes = np.arange(block, dtype=np.int64)[:, None]
        self.occupant = np.empty((block, padded), dtype=sim._occ_pad.dtype)
        self.rows = np.empty((block, padded), dtype=np.int64)
        self.row_base = np.repeat(lanes * (n_agents + 1), padded, axis=1)
        self.field = np.empty((block, padded, n_words), dtype=np.uint64)
        self.merged = np.empty((block, self.span, n_words), dtype=np.uint64)
        self.at = np.empty((block, n_agents), dtype=np.int64)
        self.at_base = np.repeat(lanes * self.span, n_agents, axis=1)

    def exchange(self, sim, n):
        """Each agent's own knowledge OR its neighbours', into
        ``sim._w_gather[:n]``."""
        sim.counters.dense_exchanges += 1
        n_words = sim._mask.size
        start, span = self.start, self.span
        for lo in range(0, n, _LANE_BLOCK):
            hi = min(n, lo + _LANE_BLOCK)
            lanes = hi - lo
            # the knowledge row of each padded cell's occupant: agent i
            # holds row i + 1, and empty, obstacle (-1) and void cells
            # read the all-zero row 0
            occupant = self.occupant[:lanes]
            sim._occ_pad[lo:hi].take(self.source, axis=1, out=occupant)
            np.maximum(occupant, 0, out=occupant)
            rows = self.rows[:lanes]
            np.copyto(rows, occupant)
            np.add(rows, self.row_base[:lanes], out=rows)
            field = self.field[:lanes]
            sim._know_padded[lo:hi].reshape(-1, n_words).take(
                rows.reshape(-1), axis=0, out=field.reshape(-1, n_words),
            )
            merged = self.merged[:lanes]
            np.copyto(merged, field[:, start:start + span])
            for offset in self.offsets:
                first = start + offset
                np.bitwise_or(
                    merged, field[:, first:first + span], out=merged
                )
            at = self.at[:lanes]
            self.cell_at.take(sim._pos[lo:hi], out=at)
            np.add(at, self.at_base[:lanes], out=at)
            merged.reshape(-1, n_words).take(
                at.reshape(-1), axis=0,
                out=sim._w_gather[lo:hi].reshape(-1, n_words),
            )


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
        sim._step_views = _ActiveViews(
            sim._pos, sim._code, sim._row_pad, sim._agent_ids,
            sim._occupant_ids, sim._b_idx, sim._b_here_g, sim._b_front_g,
            sim._b_off, sim._b_tidx, sim._b_color, sim._b_frontcolor,
            sim._b_occ, sim._m_move, sim._m_req, sim._m_focc, sim._m_lost,
            sim._m_blk, sim._m_mov,
        )
        sim._know_views = _ActiveViews(
            sim._w_gather, sim._know_padded[:, 1:], sim._w_flags,
            sim._b_solved,
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
        occ_flat.take(front_g, out=occupant)
        np.not_equal(occupant, 0, out=front_occupied)

        # phase 1: desire = move bit of the free-front input, at table
        # index x * D*R*S + code with x = 2 * (color + n_colors *
        # frontcolor) (for the paper's two colours, the Fig. 3 bit
        # packing); the x term is one gather per colour
        sim._color_scale.take(color, out=tidx)
        sim._frontcolor_scale.take(frontcolor, out=off)
        np.add(tidx, off, out=tidx)
        np.add(tidx, code, out=tidx)
        sim._move_bit.take(tidx, out=move_bit)
        np.greater(move_bit, front_occupied, out=requests)

        # nobody requesting a free front cell (always so on a full torus)
        # means no conflict, no move, and blocked == front occupied: the
        # conflict arena and both occupancy scatters are skipped
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

        # phase 2: the actual table row, x + blocked, one block of D*R*S
        # further on; the next code carries the new heading and state
        np.multiply(blocked, sim._code_span, out=off)
        np.add(tidx, off, out=tidx)
        sim._set_color.take(tidx, out=color)  # own colour is not read again
        sim._next_code.take(tidx, out=code)

        # setcolor always rewrites the flag of the cell the agent stands on
        colors_flat[here_g] = color

        if moving:
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
        # both exchange paths leave each agent's new knowledge in
        # _w_gather; one contiguous compare finds whether any word changed
        sim._exchange.exchange(sim, n)
        gather, know, changed, _ = sim._know_views(n)
        np.not_equal(gather, know, out=changed)
        if not np.count_nonzero(changed):
            return False
        np.copyto(know, gather)
        return True

    def solved_active(self, sim, n):
        # a lane is solved when every word of every agent equals the mask
        _, know, informed, solved = sim._know_views(n)
        np.equal(know, sim._mask_rows, out=informed)
        informed.reshape(n, -1).all(axis=1, out=solved)
        return solved
