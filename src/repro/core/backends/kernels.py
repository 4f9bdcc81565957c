"""Per-lane scalar step kernels: one source, compiled and interpreted.

:func:`_build_kernels` writes the batch simulator's inner loop as plain
scalar Python over the simulator's preallocated buffers and returns the
three kernels (step / exchange / solved) after passing each through a
caller-supplied ``decorate``.  Two backends instantiate it:

* :class:`NumbaKernelBackend` decorates with ``numba.njit`` -- the
  compiled fast path, with a packed-knowledge popcount informed-check;
* :class:`PythonKernelBackend` decorates with the identity -- the very
  same kernel code run by the interpreter.  Far too slow for real
  workloads, but it makes the kernel *logic* testable bit-exact against
  the numpy backend in environments without numba (CI's default job),
  so the compiled path cannot silently drift.

The kernels preserve the synchronous-update semantics by phase
separation inside each lane: pass 1 precomputes front cells and resets
the conflict arena, pass 2 reads the (unmodified) fields and finalizes
the lowest-id conflict winners, pass 3 performs all writes using only
the pass-2 captures.  Agents occupy distinct cells and movement targets
are unoccupied by construction, so the pass-3 writes never alias.

Each agent's heading, table row and control state are one fused control
code, and the FSM tables are the simulator's composite tables indexed by
``x * D*R*S + code`` (see :mod:`repro.core.vectorized`): one lookup gives
the move bit, another the set colour, a third the next code with the
turn folded in.  The colour, occupancy and conflict-arena fields are
narrow integers (int8, or int16 for big alphabets and agent counts); the
kernels read them as plain integers and every value they store fits, so
every backend stays bit-exact.
"""

from repro.core.backends import StepBackend
from repro.core.bits import popcount64


def _build_kernels(decorate):
    """The (step, exchange, solved) kernels, each wrapped by ``decorate``."""
    popcount_word = decorate(popcount64)

    def step_kernel(n, n_agents, n_colors, code_span, pos, code,
                    heading_base, move_tbl, set_color_tbl, next_code_tbl,
                    front_flat, colors_pad, occ_pad, winner, front_buf,
                    row_buf, req_buf, focc_buf):
        for lane in range(n):
            # pass 1: front cells + conflict-arena reset (reset must
            # precede every winner update for this lane's step)
            for agent in range(n_agents):
                front = front_flat[
                    heading_base[code[lane, agent]] + pos[lane, agent]
                ]
                front_buf[lane, agent] = front
                winner[lane, front] = n_agents
            # pass 2: read-only field inputs + lowest-id winner per cell
            for agent in range(n_agents):
                here = pos[lane, agent]
                front = front_buf[lane, agent]
                color = int(colors_pad[lane, here])
                frontcolor = int(colors_pad[lane, front])
                front_occupied = occ_pad[lane, front] != 0
                # the free-front table row: x * D*R*S + code
                row = (
                    2 * (color + n_colors * frontcolor) * code_span
                    + code[lane, agent]
                )
                request = move_tbl[row] and not front_occupied
                row_buf[lane, agent] = row
                req_buf[lane, agent] = request
                focc_buf[lane, agent] = front_occupied
                if request and agent < winner[lane, front]:
                    winner[lane, front] = agent
            # pass 3: table row + writes, using only pre-captured inputs
            for agent in range(n_agents):
                here = pos[lane, agent]
                front = front_buf[lane, agent]
                request = req_buf[lane, agent]
                lost = request and winner[lane, front] != agent
                blocked = focc_buf[lane, agent] or lost
                row = row_buf[lane, agent]
                if blocked:
                    row += code_span
                # setcolor always rewrites the flag of the agent's own
                # cell; own cells are distinct, targets are unoccupied,
                # so none of these writes alias across agents
                colors_pad[lane, here] = set_color_tbl[row]
                if request and not lost:
                    occ_pad[lane, here] = 0
                    occ_pad[lane, front] = agent + 1
                    pos[lane, agent] = front
                else:
                    occ_pad[lane, here] = agent + 1
                code[lane, agent] = next_code_tbl[row]

    def exchange_kernel(n, n_agents, n_words, n_directions,
                        pos, neigh_table, occ_pad, know_padded, gather):
        changed = False
        for lane in range(n):
            # gather the full lane before committing: every read must see
            # the pre-exchange knowledge (row 0 of know_padded is the
            # all-zero void row, and border neighbours resolve to void)
            for agent in range(n_agents):
                for word in range(n_words):
                    gather[lane, agent, word] = know_padded[
                        lane, agent + 1, word
                    ]
            for agent in range(n_agents):
                here = pos[lane, agent]
                for d in range(n_directions):
                    neighbour = occ_pad[lane, neigh_table[d, here]]
                    if neighbour > 0:  # 0 empty/void, -1 obstacle
                        for word in range(n_words):
                            gather[lane, agent, word] |= know_padded[
                                lane, neighbour, word
                            ]
            for agent in range(n_agents):
                for word in range(n_words):
                    value = gather[lane, agent, word]
                    if value != know_padded[lane, agent + 1, word]:
                        know_padded[lane, agent + 1, word] = value
                        changed = True
        return changed

    def solved_kernel(n, n_agents, n_words, know_padded, solved_buf):
        # knowledge words never carry bits outside the k-bit mask, so an
        # agent is fully informed exactly when its popcount reaches k
        for lane in range(n):
            lane_solved = True
            for agent in range(n_agents):
                known = 0
                for word in range(n_words):
                    known += popcount_word(know_padded[lane, agent + 1, word])
                if known != n_agents:
                    lane_solved = False
                    break
            solved_buf[lane] = lane_solved

    return step_kernel, exchange_kernel, solved_kernel


class _KernelBackend(StepBackend):
    """Shared dispatch from the simulator's buffers into the kernels."""

    @staticmethod
    def _decorate(function):
        raise NotImplementedError

    def __init__(self):
        kernels = _build_kernels(self._decorate)
        self._step_kernel, self._exchange_kernel, self._solved_kernel = kernels

    def step_active(self, sim, n):
        self._step_kernel(
            n, sim.n_agents, sim.n_colors, sim._code_span, sim._pos,
            sim._code, sim._heading_base, sim._move_bit, sim._set_color,
            sim._next_code, sim._front_flat, sim._colors_pad, sim._occ_pad,
            sim._winner, sim._b_idx, sim._b_tidx, sim._m_req, sim._m_focc,
        )

    def exchange_active(self, sim, n):
        return self._exchange_kernel(
            n, sim.n_agents, sim._mask.size, sim._n_directions,
            sim._pos, sim._neigh_table, sim._occ_pad, sim._know_padded,
            sim._w_gather,
        )

    def solved_active(self, sim, n):
        self._solved_kernel(
            n, sim.n_agents, sim._mask.size, sim._know_padded, sim._b_solved
        )
        return sim._b_solved[:n]


class PythonKernelBackend(_KernelBackend):
    """The kernel source executed by the interpreter (testing twin)."""

    name = "pykernel"

    @staticmethod
    def _decorate(function):
        return function


class NumbaKernelBackend(_KernelBackend):
    """The kernel source compiled with ``numba.njit``.

    Construction requires numba (:func:`repro.core.backends.
    resolve_backend` handles the graceful numpy fallback); the first
    step on a new argument-type signature pays the JIT compilation,
    after which stepping is pure compiled code.
    """

    name = "numba"

    @staticmethod
    def _decorate(function):
        import numba

        return numba.njit(function)
