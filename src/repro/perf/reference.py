"""The pre-optimization batch simulator, kept as the measured baseline.

This is the batch stepper exactly as it stood before the fast path
landed in :mod:`repro.core.vectorized`: wrap/flat neighbour indices are
recomputed with per-step modulo arithmetic, every step allocates fresh
``(lanes, M * M)`` and ``(lanes, k, W)`` temporaries, and finished lanes
keep occupying rows of the working arrays until the whole batch ends.

It exists for two reasons:

* ``benchmarks/bench_perf_core.py`` times it next to the optimized
  stepper on the same machine, so the speedup is a measured same-host
  ratio instead of a stale constant;
* the test suite checks the optimized stepper bit-exact against it (in
  addition to the scalar :class:`repro.core.simulation.Simulation`),
  which pins the fast path to the exact pre-optimization semantics.

Do not use it for real workloads; it is deliberately frozen.
"""

import numpy as np

from repro.core.environment import Environment
from repro.core.vectorized import BatchResult, _full_mask, _pack_identity


class LegacyBatchSimulator:
    """Lock-step simulation of ``B`` lanes, pre-optimization edition.

    Constructor contract matches :class:`repro.core.vectorized.
    BatchSimulator`; see there for parameter semantics.
    """

    backend_name = "legacy"

    def __init__(self, grid, fsms=None, configs=(), state_scheme=None,
                 environment=None, agent_fsms=None):
        configs = list(configs)
        if not configs:
            raise ValueError("need at least one configuration lane")
        self.grid = grid
        self.environment = environment or Environment.cyclic(grid)
        self.n_lanes = len(configs)
        self.n_agents = configs[0].n_agents
        if any(config.n_agents != self.n_agents for config in configs):
            raise ValueError("all lanes must have the same number of agents")

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
        self._turn_increments = grid.turn_table()
        self._n_directions = grid.n_directions

        self.px = np.empty((self.n_lanes, self.n_agents), dtype=np.int64)
        self.py = np.empty_like(self.px)
        self.direction = np.empty_like(self.px)
        self.state = np.empty_like(self.px)
        for lane, config in enumerate(configs):
            for agent, (x, y) in enumerate(config.positions):
                self.px[lane, agent] = x % size
                self.py[lane, agent] = y % size
            self.direction[lane] = np.asarray(config.directions, dtype=np.int64)
            states = config.states
            if states is None and state_scheme is not None:
                states = state_scheme.states_for(self.n_agents, self.n_states)
            if states is None:
                states = [
                    ident % min(2, self.n_states) for ident in range(self.n_agents)
                ]
            self.state[lane] = np.asarray(states, dtype=np.int64)
        if (self.direction >= self._n_directions).any() or (self.direction < 0).any():
            raise ValueError("a configuration direction is out of range for this grid")
        if (self.state >= self.n_states).any() or (self.state < 0).any():
            raise ValueError("an initial control state is out of range for this FSM")

        starting = self.environment.starting_colors().reshape(-1).astype(np.int64)
        self.colors = np.tile(starting, (self.n_lanes, 1))
        self.occupancy = np.zeros((self.n_lanes, self._n_cells), dtype=np.int64)
        for ox, oy in self.environment.obstacles:
            self.occupancy[:, ox * size + oy] = -1
        lane_index = np.arange(self.n_lanes)[:, None]
        flat = self.px * size + self.py
        if (self.occupancy[lane_index, flat] < 0).any():
            raise ValueError("a configuration places an agent on an obstacle")
        self.occupancy[lane_index, flat] = np.arange(1, self.n_agents + 1)[None, :]
        occupied_counts = (self.occupancy > 0).sum(axis=1)
        if (occupied_counts != self.n_agents).any():
            raise ValueError("a configuration places two agents on one cell")
        self._bordered = self.environment.bordered

        self._mask = _full_mask(self.n_agents)
        self._know_padded = np.zeros(
            (self.n_lanes, self.n_agents + 1, self._mask.size), dtype=np.uint64
        )
        self._know_padded[:, 1:, :] = _pack_identity(self.n_lanes, self.n_agents)

        self.t = 0
        self.done = np.zeros(self.n_lanes, dtype=bool)
        self.t_comm = np.full(self.n_lanes, -1, dtype=np.int64)
        self._exchange_and_check(np.arange(self.n_lanes))

    @property
    def knowledge(self):
        """Packed knowledge words, shape ``(B, k, W)``."""
        return self._know_padded[:, 1:, :]

    def informed_counts(self):
        """Per-lane number of fully informed agents."""
        informed = (self.knowledge == self._mask[None, None, :]).all(axis=2)
        return informed.sum(axis=1)

    def _exchange_and_check(self, lanes):
        """Knowledge exchange + success bookkeeping for the given lanes."""
        if lanes.size == 0:
            return
        size = self.grid.size
        px = self.px[lanes]
        py = self.py[lanes]
        occupancy = self.occupancy[lanes]
        know = self._know_padded[lanes]
        rows = np.arange(lanes.size)[:, None]
        gathered = know[:, 1:, :].copy()
        for dx, dy in zip(self._dx, self._dy):
            raw_x, raw_y = px + dx, py + dy
            neighbor_flat = (raw_x % size) * size + raw_y % size
            neighbor_ids = occupancy[rows, neighbor_flat]
            neighbor_ids = np.maximum(neighbor_ids, 0)  # obstacles relay nothing
            if self._bordered:
                exists = (
                    (raw_x >= 0) & (raw_x < size) & (raw_y >= 0) & (raw_y < size)
                )
                neighbor_ids = np.where(exists, neighbor_ids, 0)
            gathered |= know[rows, neighbor_ids, :]
        self._know_padded[lanes, 1:, :] = gathered
        informed = (gathered == self._mask[None, None, :]).all(axis=2)
        solved = informed.all(axis=1)
        solved_lanes = lanes[solved]
        self.done[solved_lanes] = True
        self.t_comm[solved_lanes] = self.t

    def step(self):
        """Advance every unfinished lane by one synchronous CA step."""
        lanes = np.nonzero(~self.done)[0]
        if lanes.size == 0:
            return
        size = self.grid.size
        n_states = self.n_states
        rows = np.arange(lanes.size)[:, None]
        agent_ids = np.arange(self.n_agents)[None, :]

        px = self.px[lanes]
        py = self.py[lanes]
        direction = self.direction[lanes]
        state = self.state[lanes]
        colors = self.colors[lanes]
        occupancy = self.occupancy[lanes]
        lane_col = lanes[:, None]
        species = self._species[lanes]

        here = px * size + py
        raw_fx = px + self._dx[direction]
        raw_fy = py + self._dy[direction]
        front = (raw_fx % size) * size + raw_fy % size
        color = colors[rows, here]
        frontcolor = colors[rows, front]
        front_occupied = occupancy[rows, front] != 0
        if self._bordered:
            front_exists = (
                (raw_fx >= 0) & (raw_fx < size) & (raw_fy >= 0) & (raw_fy < size)
            )
            frontcolor = np.where(front_exists, frontcolor, 0)
            front_occupied = front_occupied | ~front_exists

        x_free = 2 * (color + self.n_colors * frontcolor)
        desire = self._move[species, x_free * n_states + state] == 1
        requests = desire & ~front_occupied

        winner = np.full((lanes.size, self._n_cells), self.n_agents, dtype=np.int64)
        req_rows = np.broadcast_to(rows, requests.shape)[requests]
        req_agents = np.broadcast_to(agent_ids, requests.shape)[requests]
        np.minimum.at(winner, (req_rows, front[requests]), req_agents)
        lost = requests & (winner[rows, front] != agent_ids)
        blocked = front_occupied | lost

        x = blocked.astype(np.int64) | x_free
        table_index = x * n_states + state
        next_state = self._next_state[species, table_index]
        set_color = self._set_color[species, table_index]
        turn_code = self._turn[species, table_index]
        movers = requests & ~lost

        self.colors[lane_col, here] = set_color

        self.occupancy[lane_col, here] = np.where(
            movers, 0, self.occupancy[lane_col, here]
        )
        move_rows = np.broadcast_to(rows, movers.shape)[movers]
        move_agents = np.broadcast_to(agent_ids, movers.shape)[movers]
        self.occupancy[lanes[move_rows], front[movers]] = move_agents + 1
        self.px[lanes] = np.where(movers, front // size, px)
        self.py[lanes] = np.where(movers, front % size, py)

        self.direction[lanes] = (
            direction + self._turn_increments[turn_code]
        ) % self._n_directions
        self.state[lanes] = next_state

        self.t += 1
        self._exchange_and_check(lanes)

    def run(self, t_max=200):
        """Simulate until every lane solved the task or ``t_max`` is hit."""
        while not self.done.all() and self.t < t_max:
            self.step()
        return BatchResult(
            success=self.done.copy(),
            t_comm=self.t_comm.copy(),
            informed_agents=np.asarray(self.informed_counts()),
            steps_executed=self.t,
            n_agents=self.n_agents,
        )
