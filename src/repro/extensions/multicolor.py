"""More than two cell colours (the paper's "more colors" further work).

The core model carries one colour bit per cell.  Generalizing to
``n_colors`` values, the FSM input becomes

    x = blocked + 2 * (color + n_colors * frontcolor),

which for ``n_colors = 2`` is *exactly* the paper's packing (blocked is
bit 0, own colour bit 1, front colour bit 2), so the standard model is
the special case.  The table has ``2 * n_colors**2 * n_states`` entries
and the ``setcolor`` output ranges over ``0 .. n_colors - 1``.

Richer colours give agents a bigger indirect-communication alphabet
(e.g. distinguishable street markings) at an exponentially larger search
space -- the trade-off the conclusion hints at.
"""

import numpy as np

from repro.core.actions import Action, N_TURN_CODES
from repro.core.simulation import Simulation


def encode_multicolor_input(blocked, color, frontcolor, n_colors):
    """Pack observations into the generalized input index."""
    if not 0 <= color < n_colors or not 0 <= frontcolor < n_colors:
        raise ValueError(
            f"colour observations must be in 0..{n_colors - 1}, "
            f"got {color}/{frontcolor}"
        )
    return (blocked & 1) + 2 * (color + n_colors * frontcolor)


class MulticolorFSM:
    """A Mealy machine over the ``n_colors``-generalized input alphabet."""

    def __init__(self, next_state, set_color, move, turn, n_colors=2, name=None):
        self.n_colors = int(n_colors)
        if self.n_colors < 2:
            raise ValueError("need at least two colours")
        self.next_state = np.asarray(next_state, dtype=np.int16).copy()
        self.set_color = np.asarray(set_color, dtype=np.int16).copy()
        self.move = np.asarray(move, dtype=np.int16).copy()
        self.turn = np.asarray(turn, dtype=np.int16).copy()
        self.name = name
        inputs = self.n_inputs
        if self.next_state.size % inputs:
            raise ValueError(
                f"table size {self.next_state.size} is not a multiple of "
                f"{inputs} inputs"
            )
        self.n_states = self.next_state.size // inputs
        self.validate()

    @property
    def n_inputs(self):
        """Distinct input combinations: ``2 * n_colors ** 2``."""
        return 2 * self.n_colors * self.n_colors

    @property
    def table_size(self):
        return self.n_states * self.n_inputs

    def validate(self):
        size = self.table_size
        for field in ("next_state", "set_color", "move", "turn"):
            array = getattr(self, field)
            if array.shape != (size,):
                raise ValueError(f"{field} has shape {array.shape}, want ({size},)")
        if ((self.next_state < 0) | (self.next_state >= self.n_states)).any():
            raise ValueError("next_state entries must be valid states")
        if ((self.set_color < 0) | (self.set_color >= self.n_colors)).any():
            raise ValueError(f"set_color entries must be in 0..{self.n_colors - 1}")
        if ((self.move < 0) | (self.move > 1)).any():
            raise ValueError("move entries must be 0 or 1")
        if ((self.turn < 0) | (self.turn >= N_TURN_CODES)).any():
            raise ValueError("turn entries must be turn codes 0..3")
        return self

    def index(self, x, state):
        if not 0 <= x < self.n_inputs:
            raise ValueError(f"input index {x} out of range 0..{self.n_inputs - 1}")
        if not 0 <= state < self.n_states:
            raise ValueError(f"state {state} out of range")
        return x * self.n_states + state

    def transition(self, x, state):
        i = self.index(x, state)
        action = Action(
            move=int(self.move[i]),
            turn=int(self.turn[i]),
            setcolor=int(self.set_color[i]),
        )
        return int(self.next_state[i]), action

    def react(self, state, blocked, color, frontcolor):
        x = encode_multicolor_input(blocked, color, frontcolor, self.n_colors)
        return self.transition(x, state)

    def desires_move(self, state, color, frontcolor):
        _, action = self.react(state, 0, color, frontcolor)
        return bool(action.move)

    @classmethod
    def random(cls, rng, n_states=4, n_colors=2, name=None):
        size = n_states * 2 * n_colors * n_colors
        return cls(
            next_state=rng.integers(0, n_states, size=size),
            set_color=rng.integers(0, n_colors, size=size),
            move=rng.integers(0, 2, size=size),
            turn=rng.integers(0, N_TURN_CODES, size=size),
            n_colors=n_colors,
            name=name,
        )

    @classmethod
    def from_standard(cls, fsm, name=None):
        """Embed a core 2-colour :class:`repro.core.fsm.FSM` losslessly."""
        return cls(
            next_state=fsm.next_state,
            set_color=fsm.set_color,
            move=fsm.move,
            turn=fsm.turn,
            n_colors=2,
            name=name or fsm.name,
        )

    def copy(self, name=None):
        """An independent copy, optionally renamed."""
        return MulticolorFSM(
            self.next_state, self.set_color, self.move, self.turn,
            n_colors=self.n_colors,
            name=self.name if name is None else name,
        )

    def key(self):
        return (
            self.n_colors,
            self.next_state.tobytes(), self.set_color.tobytes(),
            self.move.tobytes(), self.turn.tobytes(),
        )

    def __eq__(self, other):
        return isinstance(other, MulticolorFSM) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"MulticolorFSM({self.n_states} states, {self.n_colors} colors)"


def mutate_multicolor(fsm, rng, rate=0.18):
    """The paper's cyclic-increment mutation, generalized to more colours."""

    def bump(values, modulus):
        flips = rng.random(values.shape) < rate
        return np.where(flips, (values + 1) % modulus, values).astype(values.dtype)

    return MulticolorFSM(
        next_state=bump(fsm.next_state, fsm.n_states),
        set_color=bump(fsm.set_color, fsm.n_colors),
        move=bump(fsm.move, 2),
        turn=bump(fsm.turn, N_TURN_CODES),
        n_colors=fsm.n_colors,
    )


class MulticolorSimulation(Simulation):
    """Reference simulator over an ``n_colors``-valued colour field.

    The base class is colour-agnostic (it stores ints and routes raw
    observations through the decision hooks), so only the hooks change.
    """

    def __init__(self, grid, fsm, config, recorder=None, environment=None):
        if not isinstance(fsm, MulticolorFSM):
            raise TypeError("MulticolorSimulation needs a MulticolorFSM")
        super().__init__(grid, fsm, config, recorder=recorder,
                         environment=environment)
        if fsm.n_colors - 1 > np.iinfo(self.colors.dtype).max:
            # the base colour field is int8; wider alphabets need more
            self.colors = self.colors.astype(np.int64)

    def _desires_move(self, agent, color, frontcolor):
        return self.fsm.desires_move(agent.state, color, frontcolor)

    def _decide(self, agent, blocked, color, frontcolor):
        x = encode_multicolor_input(
            blocked, color, frontcolor, self.fsm.n_colors
        )
        return self.fsm.transition(x, agent.state)
