"""Cycle parking in ``BatchSimulator.run``.

``run(t_max)`` parks lanes whose whole state repeated after
``CYCLE_PERIOD`` steps instead of stepping them.  ``step()`` never parks,
so a plain step loop to ``t_max`` is the oracle: outcomes, ``t`` and
every public view must match it bit for bit, on every environment,
FSM assignment mode and backend.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.configs.random_configs import random_configuration
from repro.configs.types import InitialConfiguration
from repro.core.environment import Environment, random_obstacles
from repro.core.fsm import FSM
from repro.core.inputs import N_INPUT_COMBOS
from repro.core.published import published_fsm
from repro.core.vectorized import CYCLE_PERIOD, BatchSimulator
from repro.extensions.multicolor import MulticolorFSM
from repro.extensions.timeshuffle import TimeShuffledBatchSimulator
from repro.grids import make_grid

_VIEWS = ("px", "py", "direction", "state", "colors", "knowledge")


def _stuck_fsm(turn, n_states=2):
    """An agent that never moves or colours and turns ``turn`` notches a
    step: a fixed point for ``turn=0``, a spin in place otherwise."""
    size = n_states * N_INPUT_COMBOS
    return FSM(
        next_state=np.tile(np.arange(n_states), N_INPUT_COMBOS),
        set_color=np.zeros(size, dtype=np.int8),
        move=np.zeros(size, dtype=np.int8),
        turn=np.full(size, turn, dtype=np.int8),
        name=f"stuck-turn{turn}",
    )


def _walker(toggle, n_states=2):
    """An agent that always moves straight ahead; with ``toggle`` it flips
    the colour of every cell it leaves, otherwise it never colours."""
    size = n_states * N_INPUT_COMBOS
    color = (np.repeat(np.arange(N_INPUT_COMBOS), n_states) >> 1) & 1
    return FSM(
        next_state=np.tile(np.arange(n_states), N_INPUT_COMBOS),
        set_color=(1 - color) if toggle else np.zeros(size, dtype=np.int8),
        move=np.ones(size, dtype=np.int8),
        turn=np.zeros(size, dtype=np.int8),
        name="toggling-walker" if toggle else "walker",
    )


def _pair(grid, fsm, config):
    """Two identical one-lane simulators (run side, oracle side)."""
    return [BatchSimulator(grid, fsm, [config]) for _ in range(2)]


def _step_to(simulator, t_max):
    """The oracle: the plain step loop ``run`` short-cuts."""
    while simulator.n_active_lanes and simulator.t < t_max:
        simulator.step()


def _assert_same(parked, oracle, result=None):
    """``parked`` (driven by ``run``) equals the step-loop ``oracle``."""
    assert parked.t == oracle.t
    assert (parked.done == oracle.done).all()
    assert (parked.t_comm == oracle.t_comm).all()
    assert (parked.informed_counts() == oracle.informed_counts()).all()
    assert parked.n_active_lanes == oracle.n_active_lanes
    for view in _VIEWS:
        assert (getattr(parked, view) == getattr(oracle, view)).all(), view
    if result is not None:
        assert result.steps_executed == oracle.t
        assert (result.success == oracle.done).all()
        assert (result.t_comm == oracle.t_comm).all()
        assert (result.informed_agents == oracle.informed_counts()).all()


def _environment(grid, name, rng):
    if name == "bordered":
        return Environment(grid, bordered=True)
    if name == "obstacles":
        return Environment(grid, obstacles=random_obstacles(grid, 3, rng))
    return None


def _fsm_pool(rng, n_states, count):
    """Random small FSMs (which cycle quickly) plus the two stuck ones."""
    pool = [FSM.random(rng, n_states=n_states) for _ in range(count)]
    pool += [_stuck_fsm(0, n_states), _stuck_fsm(1, n_states)]
    return [pool[i] for i in rng.permutation(len(pool))[:count]]


def _build(mode, grid, n_agents, n_lanes, n_states, environment, seed,
           backend=None):
    """Two identical simulators (run side, oracle side) for one case."""
    rng = np.random.default_rng(seed)
    configs = [
        random_configuration(grid, n_agents, rng, environment=environment)
        for _ in range(n_lanes)
    ]
    if mode == "shuffled":
        even = _fsm_pool(rng, n_states, n_lanes)
        odd = _fsm_pool(rng, n_states, n_lanes)
        return [
            TimeShuffledBatchSimulator(grid, even, odd, configs,
                                       environment=environment)
            for _ in range(2)
        ]
    if mode == "species":
        kwargs = {"agent_fsms": _fsm_pool(rng, n_states, n_agents)}
    elif mode == "multicolor":
        kwargs = {"fsms": [
            MulticolorFSM.random(rng, n_states=n_states, n_colors=3)
            for _ in range(n_lanes)
        ]}
    elif mode == "shared":
        kwargs = {"fsms": _fsm_pool(rng, n_states, 1)[0]}
    else:
        kwargs = {"fsms": _fsm_pool(rng, n_states, n_lanes)}
    return [
        BatchSimulator(grid, configs=configs, environment=environment,
                       backend=backend, **kwargs)
        for _ in range(2)
    ]


class TestRunMatchesStepLoop:
    """Property battery: ``run`` with parking == the plain step loop."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["S", "T"]),
        env_name=st.sampled_from(["cyclic", "bordered", "obstacles"]),
        mode=st.sampled_from(
            ["lanes", "shared", "species", "multicolor", "shuffled"]
        ),
        n_agents=st.integers(1, 70),
        n_lanes=st.integers(1, 6),
        n_states=st.integers(1, 4),
        t_max=st.integers(0, 90),
        seed=st.integers(0, 2**16),
    )
    def test_numpy(self, kind, env_name, mode, n_agents, n_lanes, n_states,
                   t_max, seed):
        size = max(5, math.isqrt(2 * n_agents) + 2)
        grid = make_grid(kind, size)
        environment = _environment(grid, env_name,
                                   np.random.default_rng(seed + 1))
        parked, oracle = _build(mode, grid, n_agents, n_lanes, n_states,
                                environment, seed)
        result = parked.run(t_max)
        _step_to(oracle, t_max)
        _assert_same(parked, oracle, result)
        assert parked.counters.retired_lanes == int(oracle.done.sum())

    @settings(max_examples=8, deadline=None)
    @given(
        kind=st.sampled_from(["S", "T"]),
        env_name=st.sampled_from(["cyclic", "bordered", "obstacles"]),
        mode=st.sampled_from(["lanes", "species"]),
        n_agents=st.integers(1, 4),
        t_max=st.integers(0, 40),
        seed=st.integers(0, 2**16),
    )
    def test_pykernel(self, kind, env_name, mode, n_agents, t_max, seed):
        grid = make_grid(kind, 5)
        environment = _environment(grid, env_name,
                                   np.random.default_rng(seed + 1))
        parked, oracle = _build(mode, grid, n_agents, 3, 2, environment,
                                seed, backend="pykernel")
        result = parked.run(t_max)
        _step_to(oracle, t_max)
        _assert_same(parked, oracle, result)

    @settings(max_examples=15, deadline=None)
    @given(
        kind=st.sampled_from(["S", "T"]),
        n_agents=st.integers(1, 8),
        t_first=st.integers(0, 60),
        t_second=st.integers(0, 120),
        extra_steps=st.integers(0, 15),
        seed=st.integers(0, 2**16),
    )
    def test_resumed_runs_and_steps(self, kind, n_agents, t_first, t_second,
                                    extra_steps, seed):
        # a second run with another t_max, then plain steps, stay exact
        grid = make_grid(kind, 6)
        parked, oracle = _build("lanes", grid, n_agents, 5, 2, None, seed)
        parked.run(t_first)
        result = parked.run(t_second)
        _step_to(oracle, t_first)
        _step_to(oracle, t_second)
        _assert_same(parked, oracle, result)
        for _ in range(extra_steps):
            parked.step()
            oracle.step()
        _assert_same(parked, oracle)


def _stuck_lanes(kind, turn, n_lanes=300):
    """Many lanes of two stuck agents that never meet: all unsolvable.

    More lanes than one compaction chunk, so parking and un-parking
    move rows in several chunks.
    """
    grid = make_grid(kind, 8)
    rng = np.random.default_rng(5)
    configs = []
    while len(configs) < n_lanes:
        config = random_configuration(grid, 2, rng)
        (x0, y0), (x1, y1) = config.positions
        if min(abs(x0 - x1), 8 - abs(x0 - x1)) > 1 and min(
            abs(y0 - y1), 8 - abs(y0 - y1)
        ) > 1:
            configs.append(config)
    fsm = _stuck_fsm(turn)
    return [BatchSimulator(grid, fsm, configs) for _ in range(2)]


class TestParking:
    """Deterministic cases: what parks, what does not, and resumption."""

    def test_fixed_point_and_spins_park(self):
        t_max = 100
        for kind in ("S", "T"):
            for turn in (0, 1):
                parked, oracle = _stuck_lanes(kind, turn)
                result = parked.run(t_max)
                _step_to(oracle, t_max)
                _assert_same(parked, oracle, result)
                counters = parked.counters
                assert counters.cycled_lanes == parked.n_lanes
                assert counters.retired_lanes == 0
                assert counters.lane_steps < parked.n_lanes * t_max
                # parked on the second aligned check, 2 * CYCLE_PERIOD in
                assert counters.lane_steps <= parked.n_lanes * (
                    t_max % CYCLE_PERIOD + CYCLE_PERIOD
                )
                # every unsolved lane is active again after run()
                assert parked.n_active_lanes == parked.n_lanes

    def test_spin_periods(self):
        # the spinner's heading has period 4 on S and 6 on T
        for kind, period in (("S", 4), ("T", 6)):
            simulator = _stuck_lanes(kind, 1, n_lanes=1)[0]
            start = simulator.direction.copy()
            for step in range(1, period + 1):
                simulator.step()
                repeated = (simulator.direction == start).all()
                assert repeated == (step == period)

    def test_published_fsms_park_nothing(self):
        for kind in ("S", "T"):
            grid = make_grid(kind, 16)
            rng = np.random.default_rng(11)
            configs = [random_configuration(grid, 8, rng) for _ in range(40)]
            simulator = BatchSimulator(grid, published_fsm(kind), configs)
            result = simulator.run(t_max=300)
            assert result.completely_successful
            assert simulator.counters.cycled_lanes == 0

    def test_step_after_run_matches_oracle(self):
        parked, oracle = _stuck_lanes("T", 1, n_lanes=20)
        parked.run(100)
        _step_to(oracle, 100)
        for _ in range(7):
            parked.step()
            oracle.step()
        _assert_same(parked, oracle)

    def test_run_then_longer_run_matches_oracle(self):
        grid = make_grid("T", 8)
        rng = np.random.default_rng(3)
        fsms = [FSM.random(rng, n_states=2) for _ in range(40)]
        configs = [random_configuration(grid, 4, rng) for _ in range(40)]
        parked = BatchSimulator(grid, fsms, configs)
        oracle = BatchSimulator(grid, fsms, configs)
        parked.run(100)
        result = parked.run(200)
        _step_to(oracle, 200)
        _assert_same(parked, oracle, result)
        assert parked.counters.cycled_lanes > 0

    def test_colours_decide(self):
        # on a 12-torus the walkers' agent keys repeat every 12 steps, but
        # the toggled colours only every 24: nothing may park
        for kind in ("S", "T"):
            grid = make_grid(kind, 12)
            config = InitialConfiguration(((0, 0), (6, 3)), (0, 0))
            parked, oracle = _pair(grid, _walker(toggle=True), config)
            result = parked.run(100)
            _step_to(oracle, 100)
            _assert_same(parked, oracle, result)
            assert parked.counters.cycled_lanes == 0

    def test_knowledge_decides(self):
        # a still chain of 20 agents keeps relaying knowledge for ~20
        # steps while every key is fixed; a lone agent keeps it unsolved
        for kind in ("S", "T"):
            grid = make_grid(kind, 24)
            positions = tuple((x, 0) for x in range(20)) + ((10, 12),)
            config = InitialConfiguration(positions, (0,) * 21)
            parked, oracle = _pair(grid, _stuck_fsm(0), config)
            result = parked.run(100)
            _step_to(oracle, 100)
            _assert_same(parked, oracle, result)
            assert parked.counters.cycled_lanes == 1

    def test_snapshot_rows_follow_compaction(self):
        # lane 0 solves between two checks and is swapped with the last
        # stuck lane; that lane must still park on the second check
        grid = make_grid("S", 16)
        solver = InitialConfiguration(((0, 0), (12, 0)), (0, 2))
        stuck = InitialConfiguration(((0, 8), (8, 8)), (0, 0))
        fsms = [_walker(toggle=False)] + [_stuck_fsm(0)] * 10
        configs = [solver] + [stuck] * 10
        parked = BatchSimulator(grid, fsms, configs)
        oracle = BatchSimulator(grid, fsms, configs)
        result = parked.run(100)
        _step_to(oracle, 100)
        _assert_same(parked, oracle, result)
        t_solved = int(oracle.t_comm[0])
        assert 100 % CYCLE_PERIOD < t_solved <= 100 % CYCLE_PERIOD + 12
        assert parked.counters.cycled_lanes == 10
        assert parked.counters.lane_steps == 10 * 16 + t_solved

    def test_stale_snapshot_is_never_compared(self):
        # walkers on a 7-torus have period 7; run(205) checks at times
        # 21 steps after run(100)'s last snapshot, and 7 divides 21 but
        # not the 96 steps left to t_max
        grid = make_grid("S", 7)
        config = InitialConfiguration(((0, 0), (3, 2)), (0, 0))
        parked, oracle = _pair(grid, _walker(toggle=False), config)
        parked.run(100)
        result = parked.run(205)
        _step_to(oracle, 205)
        _assert_same(parked, oracle, result)
        assert parked.counters.cycled_lanes == 0

    def test_control_states_decide(self):
        # still agents counting their control state modulo 5: only the
        # state register changes, with a period that does not divide 12
        n_states = 5
        size = n_states * N_INPUT_COMBOS
        counter = FSM(
            next_state=np.tile((np.arange(n_states) + 1) % n_states,
                               N_INPUT_COMBOS),
            set_color=np.zeros(size, dtype=np.int8),
            move=np.zeros(size, dtype=np.int8),
            turn=np.zeros(size, dtype=np.int8),
        )
        config = InitialConfiguration(((0, 0), (4, 4)), (0, 0), states=(0, 2))
        parked, oracle = _pair(make_grid("S", 8), counter, config)
        result = parked.run(100)
        _step_to(oracle, 100)
        _assert_same(parked, oracle, result)
        assert parked.counters.cycled_lanes == 0

    def test_headings_decide(self):
        # a spinner time-shuffled with a still machine turns every other
        # step: on S its heading has period 8, which does not divide 12
        grid = make_grid("S", 8)
        config = InitialConfiguration(((0, 0), (4, 4)), (0, 0))
        parked, oracle = (
            TimeShuffledBatchSimulator(grid, _stuck_fsm(1), _stuck_fsm(0),
                                       [config])
            for _ in range(2)
        )
        result = parked.run(100)
        _step_to(oracle, 100)
        _assert_same(parked, oracle, result)
        assert parked.counters.cycled_lanes == 0
