"""The pluggable step backends: registry, bit-exactness, streaming.

Three guarantees anchor the backend layer:

* every backend (numpy, the interpreted kernel twin, numba when
  installed) is **bit-exact** against the numpy reference and the frozen
  pre-optimization oracle -- asserted step by step and property-swept
  over random grids, suites and seeds;
* the registry resolves names deterministically (argument >
  ``REPRO_BACKEND`` > numpy) and degrades loudly: a missing numba warns
  once and falls back, a misspelled name raises;
* suites too large to materialise stream through
  ``evaluate_population`` with bounded lanes in flight, producing the
  same bits as the materialised path.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.backends as backends_module
from repro.configs.random_configs import random_configuration
from repro.configs.suite import paper_suite
from repro.core.backends import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    StepBackend,
    available_backends,
    make_batch_simulator,
    normalize_backend_name,
    numba_available,
    resolve_backend,
)
from repro.core.environment import Environment, random_obstacles
from repro.core.fsm import FSM
from repro.core.published import published_fsm
from repro.core.vectorized import BatchSimulator
from repro.evolution.fitness import evaluate_population
from repro.grids import SquareGrid, make_grid
from repro.perf.reference import LegacyBatchSimulator


def _kernel_backend_names():
    """Every kernel backend runnable here: pykernel always, numba if able."""
    names = ["pykernel"]
    if numba_available():
        names.append("numba")
    return names


def _assert_states_equal(a, b):
    assert (a.px == b.px).all()
    assert (a.py == b.py).all()
    assert (a.direction == b.direction).all()
    assert (a.state == b.state).all()
    assert (a.colors == b.colors).all()
    assert (a.knowledge == b.knowledge).all()
    assert (a.done == b.done).all()
    assert (a.t_comm == b.t_comm).all()


class TestRegistry:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert normalize_backend_name() == DEFAULT_BACKEND == "numpy"
        assert resolve_backend().name == "numpy"

    def test_environment_variable_selects(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "pykernel")
        assert normalize_backend_name() == "pykernel"
        assert resolve_backend().name == "pykernel"

    def test_argument_beats_environment(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "pykernel")
        assert normalize_backend_name("numpy") == "numpy"

    def test_names_are_case_insensitive(self):
        assert normalize_backend_name("  NumPy ") == "numpy"

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown step backend"):
            normalize_backend_name("cuda")
        with pytest.raises(ValueError):
            resolve_backend("cuda")

    def test_instance_passes_through(self):
        instance = resolve_backend("pykernel")
        assert resolve_backend(instance) is instance

    def test_instances_are_cached_flyweights(self):
        assert resolve_backend("numpy") is resolve_backend("numpy")

    def test_legacy_needs_the_factory(self):
        with pytest.raises(ValueError, match="make_batch_simulator"):
            resolve_backend("legacy")

    def test_available_backends(self):
        names = available_backends()
        assert names[0] == "numpy"
        assert "pykernel" in names and "legacy" in names
        assert ("numba" in names) == numba_available()

    @pytest.mark.skipif(
        numba_available(), reason="numba installed: no fallback to observe"
    )
    def test_missing_numba_warns_once_and_falls_back(self, monkeypatch):
        monkeypatch.setattr(backends_module, "_warned", set())
        with pytest.warns(RuntimeWarning, match="falling back"):
            backend = resolve_backend("numba")
        assert backend.name == "numpy"
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # second request: silent
            assert resolve_backend("numba").name == "numpy"


class TestFactory:
    def _workload(self):
        grid = make_grid("T", 8)
        fsm = published_fsm("T")
        configs = [
            random_configuration(grid, 5, np.random.default_rng(seed))
            for seed in range(3)
        ]
        return grid, fsm, configs

    def test_default_builds_numpy_batch_simulator(self):
        grid, fsm, configs = self._workload()
        simulator = make_batch_simulator(grid, fsm, configs)
        assert isinstance(simulator, BatchSimulator)
        assert simulator.backend_name == "numpy"

    def test_pykernel_by_name(self):
        grid, fsm, configs = self._workload()
        simulator = make_batch_simulator(
            grid, fsm, configs, backend="pykernel"
        )
        assert simulator.backend_name == "pykernel"

    def test_legacy_builds_the_frozen_oracle(self):
        grid, fsm, configs = self._workload()
        simulator = make_batch_simulator(grid, fsm, configs, backend="legacy")
        assert isinstance(simulator, LegacyBatchSimulator)
        assert simulator.backend_name == "legacy"

    def test_narrow_field_storage(self):
        grid, fsm, configs = self._workload()
        simulator = make_batch_simulator(grid, fsm, configs)
        for field in (simulator._colors_pad, simulator._occ_pad,
                      simulator._winner, simulator._cyc_colors):
            assert field.dtype == np.int8
        legacy = make_batch_simulator(grid, fsm, configs, backend="legacy")
        simulator.run(t_max=30)
        legacy.run(t_max=30)
        # the public views stay int64 and hold the reference values
        assert simulator.colors.dtype == np.int64
        assert simulator.occupancy.dtype == np.int64
        assert (simulator.colors == legacy.colors).all()
        assert (simulator.occupancy == legacy.occupancy).all()

    def test_instance_backend_accepted(self):
        grid, fsm, configs = self._workload()
        simulator = make_batch_simulator(
            grid, fsm, configs, backend=resolve_backend("pykernel")
        )
        assert simulator.backend_name == "pykernel"


class TestKernelEquivalence:
    """The kernel backends against the numpy reference, step by step."""

    @pytest.mark.parametrize("backend", _kernel_backend_names())
    @pytest.mark.parametrize("kind", ["S", "T"])
    def test_stepwise_bit_exact(self, backend, kind):
        grid = make_grid(kind, 8)
        rng = np.random.default_rng(11)
        environment = Environment(
            grid, bordered=True, obstacles=random_obstacles(grid, 4, rng)
        )
        fsms = [FSM.random(np.random.default_rng(seed)) for seed in range(6)]
        configs = [
            random_configuration(
                grid, 5, np.random.default_rng(200 + seed),
                environment=environment,
            )
            for seed in range(6)
        ]
        reference = BatchSimulator(
            grid, fsms, configs, environment=environment
        )
        candidate = BatchSimulator(
            grid, fsms, configs, environment=environment, backend=backend
        )
        for _ in range(60):
            if reference.done.all():
                break
            reference.step()
            candidate.step()
            _assert_states_equal(reference, candidate)

    @pytest.mark.parametrize("backend", _kernel_backend_names())
    def test_multiword_knowledge(self, backend):
        # 70 agents: two knowledge words, the conflict-heavy regime
        grid = SquareGrid(12)
        fsm = published_fsm("S")
        config = random_configuration(grid, 70, np.random.default_rng(3))
        reference = BatchSimulator(grid, fsm, [config]).run(t_max=120)
        candidate = BatchSimulator(
            grid, fsm, [config], backend=backend
        ).run(t_max=120)
        assert (reference.success == candidate.success).all()
        assert (reference.t_comm == candidate.t_comm).all()
        assert (
            reference.informed_agents == candidate.informed_agents
        ).all()


class TestPropertySweep:
    """Random small worlds: every engine, one truth."""

    @settings(max_examples=12, deadline=None)
    @given(
        kind=st.sampled_from(["S", "T"]),
        size=st.sampled_from([6, 8]),
        n_agents=st.integers(2, 6),
        n_lanes=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_numpy_matches_legacy(self, kind, size, n_agents, n_lanes, seed):
        grid = make_grid(kind, size)
        fsms = [
            FSM.random(np.random.default_rng(seed + index))
            for index in range(n_lanes)
        ]
        configs = [
            random_configuration(
                grid, n_agents, np.random.default_rng(seed + 1000 + index)
            )
            for index in range(n_lanes)
        ]
        new = BatchSimulator(grid, fsms, configs).run(t_max=50)
        old = LegacyBatchSimulator(grid, fsms, configs).run(t_max=50)
        assert (new.success == old.success).all()
        assert (new.t_comm == old.t_comm).all()
        assert (new.informed_agents == old.informed_agents).all()
        assert new.steps_executed == old.steps_executed

    @settings(max_examples=8, deadline=None)
    @given(
        kind=st.sampled_from(["S", "T"]),
        n_agents=st.integers(2, 5),
        seed=st.integers(0, 2**16),
        backend=st.sampled_from(_kernel_backend_names()),
    )
    def test_kernels_match_numpy(self, kind, n_agents, seed, backend):
        grid = make_grid(kind, 6)
        fsms = [
            FSM.random(np.random.default_rng(seed + index))
            for index in range(3)
        ]
        configs = [
            random_configuration(
                grid, n_agents, np.random.default_rng(seed + 1000 + index)
            )
            for index in range(3)
        ]
        reference = BatchSimulator(grid, fsms, configs)
        candidate = BatchSimulator(grid, fsms, configs, backend=backend)
        for _ in range(40):
            if reference.done.all():
                break
            reference.step()
            candidate.step()
            _assert_states_equal(reference, candidate)


class TestStreamedEvaluation:
    def _workload(self, n_fields=23):
        grid = make_grid("T", 8)
        fsms = [
            FSM.random(np.random.default_rng(seed)) for seed in range(7)
        ]
        fields = [
            random_configuration(grid, 4, np.random.default_rng(500 + index))
            for index in range(n_fields)
        ]
        return grid, fsms, fields

    def test_streamed_equals_materialised(self):
        grid, fsms, fields = self._workload()
        materialised = evaluate_population(grid, fsms, fields, t_max=60)
        stats = {}
        streamed = evaluate_population(
            grid, fsms, iter(fields), t_max=60, lane_block=32,
            stream_stats=stats,
        )
        assert len(streamed) == len(materialised) == len(fsms)
        for got, want in zip(streamed, materialised):
            assert got.fitness == want.fitness
            assert got.mean_time == want.mean_time
            assert got.n_fields == want.n_fields
            assert got.n_successful_fields == want.n_successful_fields
        assert stats["n_fields"] == len(fields)
        assert stats["n_blocks"] > 1   # genuinely incremental
        assert stats["max_lanes_in_flight"] <= 32

    def test_lanes_in_flight_bounded_by_block(self):
        grid, fsms, fields = self._workload(n_fields=9)
        stats = {}
        evaluate_population(
            grid, fsms, iter(fields), t_max=30, lane_block=7,
            stream_stats=stats,
        )
        # one field per block (7 // 7 fsms), seven lanes alive at a time
        assert stats["max_lanes_in_flight"] == len(fsms)
        assert stats["n_blocks"] == 9

    def test_streamed_empty_suite_raises(self):
        grid, fsms, _ = self._workload()
        with pytest.raises(ValueError):
            evaluate_population(grid, fsms, iter(()), t_max=30)

    @pytest.mark.parametrize("backend", _kernel_backend_names())
    def test_streamed_backends_bit_exact(self, backend):
        grid, fsms, fields = self._workload(n_fields=5)
        reference = evaluate_population(grid, fsms, fields, t_max=40)
        streamed = evaluate_population(
            grid, fsms, iter(fields), t_max=40, lane_block=8,
            backend=backend,
        )
        for got, want in zip(streamed, reference):
            assert got.fitness == want.fitness
            assert got.mean_time == want.mean_time


class TestBackendPlumbing:
    """The backend choice travels the stack without changing the bits."""

    def test_api_evaluate_accepts_backend(self):
        from repro.api import evaluate

        reference = evaluate(grid="T", size=8, agents=4, fields=5, t_max=60)
        candidate = evaluate(
            grid="T", size=8, agents=4, fields=5, t_max=60,
            backend="pykernel",
        )
        assert candidate.fitness == reference.fitness
        assert candidate.mean_time == reference.mean_time

    def test_service_batch_key_separates_backends(self):
        from repro.service.service import EvaluationRequest

        grid = make_grid("T", 8)
        fsm = published_fsm("T")
        suite = paper_suite(grid, 4, n_random=3, seed=1)
        default = EvaluationRequest(grid, [fsm], suite, t_max=50)
        compiled = EvaluationRequest(
            grid, [fsm], suite, t_max=50, backend="pykernel"
        )
        assert default.backend == "numpy"
        assert compiled.backend == "pykernel"
        assert default.batch_key != compiled.batch_key

    def test_suite_evaluator_survives_old_pickles(self):
        from repro.evolution.fitness import SuiteEvaluator

        evaluator = SuiteEvaluator.__new__(SuiteEvaluator)
        assert evaluator.backend is None   # class default for old pickles

    def test_step_backend_base_is_abstract(self):
        backend = StepBackend()
        simulator = object()
        with pytest.raises(NotImplementedError):
            backend.step_active(simulator, 0)
        with pytest.raises(NotImplementedError):
            backend.exchange_active(simulator, 0)
        with pytest.raises(NotImplementedError):
            backend.solved_active(simulator, 0)


@pytest.mark.skipif(not numba_available(), reason="numba not installed")
class TestCompiledBigworld:
    """The compiled engine on big worlds, bit-exact against numpy."""

    def test_t33_k64_bit_exact(self):
        grid = make_grid("T", 33)
        fsm = published_fsm("T")
        configs = list(paper_suite(grid, 64, n_random=2, seed=2013))
        reference = BatchSimulator(grid, fsm, configs).run(t_max=120)
        compiled = BatchSimulator(
            grid, fsm, configs, backend="numba"
        ).run(t_max=120)
        assert (compiled.success == reference.success).all()
        assert (compiled.t_comm == reference.t_comm).all()
        assert (compiled.informed_agents == reference.informed_agents).all()
        assert compiled.steps_executed == reference.steps_executed

    def test_streamed_64x64_k1024_bounded_and_bit_exact(self):
        grid = make_grid("T", 64)
        fsm = published_fsm("T")

        def fields():
            # never materialised: lanes in flight are set by lane_block
            for index in range(2):
                yield random_configuration(
                    grid, 1024, np.random.default_rng(2013 + index)
                )

        outcomes = {}
        stats = {}
        for backend in ("numpy", "numba"):
            stats[backend] = {}
            outcomes[backend] = evaluate_population(
                grid, [fsm], fields(), t_max=15, lane_block=2,
                backend=backend, stream_stats=stats[backend],
            )
        assert outcomes["numba"] == outcomes["numpy"]
        assert stats["numba"]["n_fields"] == 2
        assert stats["numba"]["max_lanes_in_flight"] <= 2
