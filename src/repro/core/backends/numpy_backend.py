"""The default vectorized step backend: the numpy fast path.

One synchronous CA step over all active lanes at once, as a fixed
sequence of whole-array ``take`` gathers, scatters and elementwise ufuncs
over the simulator's preallocated scratch buffers: precomputed neighbour
and rotation kernels, zero-allocation stepping, and a one-word knowledge
fast path.  Every operation writes into an ``out=`` buffer, and the
choice among ufuncs is made by measured cost per lane-step:

* cell fields and FSM tables are gathered into scratch of their own
  narrow dtype (int8/int16); a narrow value that builds a table index is
  first copied into int64 scratch, so no narrow arithmetic can overflow
  (and a widening copy plus a same-dtype ufunc beats a mixed-dtype one);
* masked copies are written as arithmetic selects,
  ``a + mask * (b - a)``, which numpy runs several times faster than
  ``copyto(..., where=mask)``;
* the heading update is one gather from the rotation table rather than
  an add and a ``remainder``.

Two paths depend on the world's occupancy, and both are exact:

* **Dense-field exchange.**  Each agent's new knowledge is the OR of its
  own word(s) and its neighbours'.  Per-agent, that is one gather of
  neighbour cells, occupants and knowledge per direction: 4 (S) or 6 (T)
  times ``k`` gathers per lane.  In a dense world it is cheaper to
  compute the OR for every cell at once, as a CA neighbourhood stencil.
  One gather through the occupancy field lays the knowledge out over the
  lattice plus a one-cell halo (empty, obstacle and border cells read
  the all-zero knowledge row 0, and the halo wraps on a cyclic world);
  the 4 or 6 shifted views of that field are ORed together, and the
  result is gathered back at the agents' positions.  OR is commutative
  and idempotent and empty cells contribute 0, so every agent gets
  exactly the bits the per-agent gathers give it, including on 2- and
  3-cell worlds where two directions reach the same neighbour.  Lanes
  are processed in blocks of ``_LANE_BLOCK`` so the scratch stays cache
  resident.  The stencil costs per cell and the gathers per agent, so
  the choice is made once per simulator from ``k / free cells``: the
  stencil from ``DENSE_OCCUPANCY`` = 0.375 on.  That is the measured
  crossover on 16x16 worlds at 1003 lanes (S breaks even at k = 96, T
  already at k = 80, and at k = 256 the stencil is 3-4x faster).
* **No-request steps.**  When no agent requests a free front cell -- on
  a full torus, never -- nobody can lose a conflict or move, so the
  conflict arena and both occupancy scatters are skipped and ``blocked``
  is just "front cell occupied".

The fast-path and backend test suites pin it bit-exact against the
scalar reference simulation, the frozen legacy stepper and the
interpreted kernel twin; ``tests/test_dense_exchange.py`` covers both
occupancy paths.
"""

import numpy as np

from repro.core.backends import StepBackend

#: Occupancy (agents per free cell) from which knowledge exchange runs as
#: a cell stencil instead of per-agent gathers; see "Dense-field
#: exchange" above for where the value comes from.
DENSE_OCCUPANCY = 0.375

#: Lanes per stencil block.  A block's padded knowledge field and its
#: merged copy stay cache resident (about 0.6 MB at k = 256 on 16x16);
#: a whole-batch field would not, and would add tens of MB of scratch.
_LANE_BLOCK = 32


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
        n_words = sim._mask.size
        start, span = self.start, self.span
        for lo in range(0, n, _LANE_BLOCK):
            hi = min(n, lo + _LANE_BLOCK)
            lanes = hi - lo
            # the knowledge row of each padded cell's occupant: agent i
            # holds row i + 1, and empty, obstacle (-1) and void cells
            # read the all-zero row 0
            occupant = self.occupant[:lanes]
            np.take(sim._occ_pad[lo:hi], self.source, axis=1, out=occupant)
            np.maximum(occupant, 0, out=occupant)
            rows = self.rows[:lanes]
            np.copyto(rows, occupant)
            np.add(rows, self.row_base[:lanes], out=rows)
            field = self.field[:lanes]
            np.take(
                sim._know_padded[lo:hi].reshape(-1, n_words),
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
            np.take(self.cell_at, sim._pos[lo:hi], out=at)
            np.add(at, self.at_base[:lanes], out=at)
            np.take(
                merged.reshape(-1, n_words), at.reshape(-1), axis=0,
                out=sim._w_gather[lo:hi].reshape(-1, n_words),
            )


def _resolve_conflicts(sim, n, front, front_g, requests, front_occupied):
    """The lowest agent ID wins each contested front cell; returns the
    ``(blocked, movers)`` masks of rows ``[0, n)``."""
    n_agents = sim.n_agents
    agent_ids = sim._agent_ids[:n]
    not_buf = sim._m_not[:n]
    winner_flat = sim._winner.reshape(-1)
    winner_flat[front_g] = n_agents  # reset only the contested cells
    np.logical_not(requests, out=not_buf)
    if n_agents <= 32:
        # write requesters' ids in descending agent order; the last
        # (lowest) id written to a contested cell wins.  Non-requesters
        # are redirected to their lane's void cell, which nobody reads:
        # target = front_g + not_requesting * (void - front)
        target = sim._b_idx[:n]
        np.subtract(sim._void, front, out=target)
        np.multiply(target, not_buf, out=target)
        np.add(target, front_g, out=target)
        for agent in range(n_agents - 1, -1, -1):
            winner_flat[target[:, agent]] = agent
    else:
        # candidate = agent id, or n_agents (never wins) when not
        # requesting.  minimum.at keeps its fast path only for 1-D
        # operands with values in the arena's dtype
        candidate = sim._b_occ[:n]
        np.subtract(n_agents, agent_ids, out=candidate)
        np.multiply(candidate, not_buf, out=candidate)
        np.add(candidate, agent_ids, out=candidate)
        np.minimum.at(
            winner_flat, front_g.reshape(-1), candidate.reshape(-1)
        )
    won = sim._b_occ[:n]
    np.take(winner_flat, front_g, out=won)
    lost = sim._m_lost[:n]
    np.not_equal(won, agent_ids, out=lost)
    np.logical_and(lost, requests, out=lost)
    blocked = sim._m_blk[:n]
    np.logical_or(front_occupied, lost, out=blocked)
    movers = sim._m_mov[:n]
    np.logical_not(lost, out=not_buf)
    np.logical_and(requests, not_buf, out=movers)  # == move & not blocked
    return blocked, movers


def _exchange_by_agent(sim, n):
    """Each agent ORs in its neighbours' knowledge, one gather per
    direction."""
    n_words = sim._mask.size
    pos = sim._pos[:n]
    nbr = sim._b_idx[:n]
    gidx = sim._b_front_g[:n]
    occupant = sim._b_occ[:n]
    row_pad = sim._row_pad[:n]
    row_know = sim._row_know[:n]
    occ_flat = sim._occ_pad.reshape(-1)
    gather = sim._w_gather[:n]
    np.copyto(gather, sim._know_padded[:n, 1:, :])
    if n_words == 1:
        # one-word fast path (any k <= 64): flat 1-D gathers throughout
        know_flat = sim._know_padded.reshape(-1)
        gather_2d = gather[:, :, 0]
        direction_words = sim._w_dir[:n, :, 0]
    else:
        know_rows = sim._know_padded.reshape(-1, n_words)
        direction_words = sim._w_dir[:n]
    for d in range(sim._n_directions):
        np.take(sim._neigh_table[d], pos, out=nbr)
        np.add(nbr, row_pad, out=gidx)
        # neighbour agent ids; obstacle neighbours read the void's 0
        np.take(occ_flat, gidx, out=occupant)
        np.copyto(gidx, occupant)
        np.add(gidx, row_know, out=gidx)
        if n_words == 1:
            np.take(know_flat, gidx, out=direction_words)
            np.bitwise_or(gather_2d, direction_words, out=gather_2d)
        else:
            np.take(know_rows, gidx, axis=0, out=direction_words)
            np.bitwise_or(gather, direction_words, out=gather)


class NumpyStepBackend(StepBackend):
    """Vectorized ``take``/gather stepping over the shared scratch buffers."""

    name = "numpy"

    def bind(self, sim):
        # dense worlds take the cell stencil, and only they get its scratch
        free_cells = sim.environment.n_free_cells
        sim._stencil = (
            _CellStencil(sim)
            if sim.n_agents >= DENSE_OCCUPANCY * free_cells else None
        )

    def step_active(self, sim, n):
        n_cells = sim._n_cells
        n_states = sim.n_states
        table_size = sim._move.shape[1]

        pos = sim._pos[:n]
        direction = sim._direction[:n]
        state = sim._state[:n]
        species = sim._species[:n]
        agent_ids = sim._agent_ids[:n]
        row_pad = sim._row_pad[:n]
        colors_flat = sim._colors_pad.reshape(-1)
        occ_flat = sim._occ_pad.reshape(-1)

        # front cell via the precomputed kernel: front_flat[direction * N + pos]
        idx = sim._b_idx[:n]
        front = sim._b_front[:n]
        np.multiply(direction, n_cells, out=idx)
        np.add(idx, pos, out=idx)
        np.take(sim._front_flat, idx, out=front)

        here_g = sim._b_here_g[:n]
        front_g = sim._b_front_g[:n]
        np.add(pos, row_pad, out=here_g)
        np.add(front, row_pad, out=front_g)

        color = sim._b_color[:n]
        frontcolor = sim._b_frontcolor[:n]
        np.take(colors_flat, here_g, out=color)
        np.take(colors_flat, front_g, out=frontcolor)
        occupant = sim._b_occ[:n]
        np.take(occ_flat, front_g, out=occupant)
        front_occupied = sim._m_focc[:n]
        np.not_equal(occupant, 0, out=front_occupied)

        # phase 1: desire = move output assuming not blocked.  The table
        # row is x * n_states + state with x = blocked + 2 * (color +
        # n_colors * frontcolor) (for the paper's two colours, the Fig. 3
        # bit packing); the colours are widened by copy before any
        # arithmetic, so it all runs in int64
        tidx = sim._b_tidx[:n]
        wide = sim._b_wide[:n]
        np.copyto(tidx, frontcolor)
        np.multiply(tidx, sim.n_colors, out=tidx)
        np.copyto(wide, color)
        np.add(tidx, wide, out=tidx)
        np.multiply(tidx, 2 * n_states, out=tidx)
        np.add(tidx, state, out=tidx)
        np.multiply(species, table_size, out=wide)
        np.add(tidx, wide, out=tidx)
        move_out = sim._b_move[:n]
        np.take(sim._move.reshape(-1), tidx, out=move_out)
        requests = sim._m_req[:n]
        not_buf = sim._m_not[:n]
        np.equal(move_out, 1, out=requests)
        np.logical_not(front_occupied, out=not_buf)
        np.logical_and(requests, not_buf, out=requests)

        # nobody requesting a free front cell (always so on a full torus)
        # means no conflict, no move, and blocked == front occupied: the
        # conflict arena and both occupancy scatters are skipped
        moving = requests.any()
        if moving:
            blocked, movers = _resolve_conflicts(
                sim, n, front, front_g, requests, front_occupied
            )
        else:
            blocked = front_occupied

        # phase 2: the actual FSM row, x + blocked (x_free is even, so
        # | blocked == +), i.e. the phase-1 index + blocked * n_states
        np.multiply(blocked, n_states, out=wide)
        np.add(tidx, wide, out=tidx)
        set_color = sim._b_color[:n]  # own colour is not read again
        turn_code = sim._b_turn[:n]
        np.take(sim._set_color.reshape(-1), tidx, out=set_color)
        np.take(sim._turn.reshape(-1), tidx, out=turn_code)
        next_state = sim._b_next[:n]
        np.take(sim._next_state.reshape(-1), tidx, out=next_state)
        np.copyto(state, next_state)

        # setcolor always rewrites the flag of the cell the agent stands on
        colors_flat[here_g] = set_color

        if moving:
            # simultaneous movement: winners are unique per target cell,
            # and no target coincides with any agent's (occupied) old
            # cell.  step = movers * (front - pos) moves both the flat
            # position and its global field index
            occ_value = sim._b_occ[:n]
            np.logical_not(movers, out=not_buf)
            np.add(agent_ids, 1, out=occ_value)
            np.multiply(occ_value, not_buf, out=occ_value)
            occ_flat[here_g] = occ_value
            step = front  # the front cell is not read again this step
            np.subtract(front, pos, out=step)
            np.multiply(step, movers, out=step)
            target = sim._b_idx[:n]
            np.add(here_g, step, out=target)
            np.add(agent_ids, 1, out=occ_value)
            occ_flat[target] = occ_value
            np.add(pos, step, out=pos)

        # heading: one gather from the (direction, turn) rotation table
        rotate_idx = sim._b_tidx[:n]
        np.multiply(direction, sim._n_turns, out=rotate_idx)
        np.copyto(wide, turn_code)
        np.add(rotate_idx, wide, out=rotate_idx)
        np.take(sim._rotate, rotate_idx, out=direction)

    def exchange_active(self, sim, n):
        if sim._stencil is not None:
            sim._stencil.exchange(sim, n)
            sim.counters.dense_exchanges += 1
        else:
            _exchange_by_agent(sim, n)

        # both paths leave each agent's new knowledge in _w_gather
        n_words = sim._mask.size
        gather = sim._w_gather[:n]
        know = sim._know_padded[:n, 1:, :]
        changed = sim._m_changed[:n]
        tmp = sim._m_tmp[:n]
        np.not_equal(gather[:, :, 0], know[:, :, 0], out=changed)
        for word in range(1, n_words):
            np.not_equal(gather[:, :, word], know[:, :, word], out=tmp)
            np.logical_or(changed, tmp, out=changed)
        if not changed.any():
            return False
        np.copyto(know, gather)
        return True

    def solved_active(self, sim, n):
        know = sim._know_padded[:n, 1:, :]
        informed = sim._m_informed[:n]
        tmp = sim._m_tmp[:n]
        np.equal(know[:, :, 0], sim._mask[0], out=informed)
        for word in range(1, sim._mask.size):
            np.equal(know[:, :, word], sim._mask[word], out=tmp)
            np.logical_and(informed, tmp, out=informed)
        return informed.all(axis=1)
