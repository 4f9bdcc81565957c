"""Time-shuffling: two FSMs alternating in time (prior work [8]).

The paper's earlier investigations found that *time-shuffling* -- the
whole swarm switches between two behaviours by step parity -- speeds up
all-to-all communication (Sect. 1: 406 steps with two shuffled 6-state
FSMs vs considerably worse single machines of the same size).  Shuffling
is a temporal inhomogeneity, so it is also one more way to break the
symmetries that make uniform agents unreliable.

Both simulators are provided; they are checked equivalent by the tests.
"""

from repro.core.simulation import Simulation
from repro.core.vectorized import BatchSimulator

import numpy as np


def _check_pair(fsm_even, fsm_odd):
    if fsm_even.n_states != fsm_odd.n_states:
        raise ValueError(
            "time-shuffled FSMs share the state register and must have "
            f"equal state counts ({fsm_even.n_states} vs {fsm_odd.n_states})"
        )


class TimeShuffledSimulation(Simulation):
    """Reference simulator alternating two FSMs by step parity.

    ``fsm_even`` drives the step taken from even ``t`` (i.e. steps
    1, 3, ... are *decided* at t = 0, 2, ...), ``fsm_odd`` the others.
    """

    def __init__(self, grid, fsm_even, fsm_odd, config, recorder=None,
                 environment=None):
        _check_pair(fsm_even, fsm_odd)
        self.fsm_even = fsm_even
        self.fsm_odd = fsm_odd
        super().__init__(grid, fsm_even, config, recorder=recorder,
                         environment=environment)

    @property
    def active_fsm(self):
        """The FSM deciding the upcoming step."""
        return self.fsm_even if self.t % 2 == 0 else self.fsm_odd

    def _desires_move(self, agent, color, frontcolor):
        return self.active_fsm.desires_move(agent.state, color, frontcolor)

    def _decide(self, agent, blocked, color, frontcolor):
        x = (blocked & 1) | ((color & 1) << 1) | ((frontcolor & 1) << 2)
        return self.active_fsm.transition(x, agent.state)


class TimeShuffledBatchSimulator(BatchSimulator):
    """Batch simulator alternating two FSMs by step parity.

    ``fsm_even`` / ``fsm_odd`` are either one FSM each (shared by all
    lanes) or two equal-length lists of per-lane FSMs -- the form used to
    evaluate a whole population of *pairs* at once.  Implementation: both
    table stacks are kept and swapped in before each step, so the hot
    loop is unchanged.  Lanes share a table row when they share both the
    even and the odd FSM object, so the two stacks have the same rows.
    """

    def __init__(self, grid, fsm_even, fsm_odd, configs, state_scheme=None,
                 environment=None):
        even_list = fsm_even if isinstance(fsm_even, (list, tuple)) else [fsm_even]
        odd_list = fsm_odd if isinstance(fsm_odd, (list, tuple)) else [fsm_odd]
        if len(even_list) != len(odd_list):
            raise ValueError(
                f"{len(even_list)} even FSMs vs {len(odd_list)} odd FSMs"
            )
        for even, odd in zip(even_list, odd_list):
            _check_pair(even, odd)
        self._odd_fsms = odd_list
        super().__init__(grid, fsm_even, configs, state_scheme=state_scheme,
                         environment=environment)
        self._tables_even = (
            self._next_state, self._set_color, self._move, self._turn,
        )
        odd_rows = [odd_list[source] for source in self._row_sources]
        self._tables_odd = tuple(
            np.stack([getattr(fsm, field) for fsm in odd_rows]).astype(
                even.dtype
            )
            for field, even in zip(
                ("next_state", "set_color", "move", "turn"), self._tables_even
            )
        )

    def _row_keys(self, fsms):
        """Lanes share a table row only when both their FSMs are shared."""
        return list(zip(map(id, fsms), map(id, self._odd_fsms)))

    def step(self):
        tables = self._tables_even if self.t % 2 == 0 else self._tables_odd
        self._next_state, self._set_color, self._move, self._turn = tables
        super().step()
