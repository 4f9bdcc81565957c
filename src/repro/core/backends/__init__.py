"""Pluggable step backends for the batch simulator.

The per-step inner loop of :class:`repro.core.vectorized.BatchSimulator`
-- the move/exchange/informed-check trio -- lives behind the
:class:`StepBackend` interface, so the same simulator shell (lane
compaction, retirement bookkeeping, counters, public views) can run on
interchangeable compute engines:

``numpy``
    The default: the vectorized fast path exactly as it stood before
    this refactor, bit for bit.
``numba``
    Compiled per-lane scalar kernels (:mod:`.kernels`) jitted with
    numba, including a packed-knowledge popcount informed-check.
    Feature-gated: when numba is not installed the resolver emits a
    one-line :class:`RuntimeWarning` and falls back to ``numpy``.
``pykernel``
    The *same* kernel functions executed by the interpreter.  Slow, but
    it lets a numba-free environment (CI's default job, this test
    suite) assert the kernels bit-exact against the numpy path, so the
    compiled backend's logic is pinned even where numba is absent.
``legacy``
    The frozen pre-optimization :class:`repro.perf.reference.
    LegacyBatchSimulator`, the reference oracle.  It is a separate
    simulator class, so only :func:`make_batch_simulator` can build it.

Selection order: an explicit ``backend=`` argument wins, then the
``REPRO_BACKEND`` environment variable, then ``numpy``.  Every backend
is bit-exact-asserted against ``numpy`` in the test suite
(``tests/test_backends.py``).
"""

import os
import warnings

#: Backend chosen when neither an argument nor the environment says.
DEFAULT_BACKEND = "numpy"

#: Environment variable consulted when no explicit backend is passed.
BACKEND_ENV_VAR = "REPRO_BACKEND"

_BACKEND_NAMES = ("numpy", "numba", "pykernel", "legacy")


class StepBackend:
    """One engine for the batch simulator's per-step inner loop.

    Implementations are stateless flyweights: every method receives the
    simulator (which owns all state and scratch buffers) and the number
    ``n`` of active working rows, and must be bit-exact with the numpy
    reference semantics.
    """

    #: Registry / display name of the backend.
    name = "abstract"

    def bind(self, simulator):
        """One-time hook after the simulator's buffers are allocated."""

    def step_active(self, simulator, n):
        """One synchronous CA step over working rows ``[0, n)``."""
        raise NotImplementedError

    def exchange_active(self, simulator, n):
        """Knowledge exchange over rows ``[0, n)``; True when any word
        changed (the unchanged case is the caller's early-out)."""
        raise NotImplementedError

    def solved_active(self, simulator, n):
        """Bool array of length ``n``: which active rows are fully
        informed (every agent holds all ``k`` identifier bits)."""
        raise NotImplementedError

    def sync_knowledge(self, simulator, release=False):
        """Bring the agents' knowledge rows up to date before anything
        reads them.  ``release`` says that rows are about to be swapped,
        so any other copy of the knowledge must be rebuilt from the rows
        afterwards.  A no-op for backends that exchange in the rows.
        """


def numba_available():
    """True when the numba backend can actually compile."""
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def normalize_backend_name(name=None):
    """The canonical backend name for ``name`` (or the environment).

    ``None`` falls back to ``REPRO_BACKEND``, then ``numpy``.  Raises
    :class:`ValueError` for unknown names -- misspelling a backend must
    never silently run a different engine.
    """
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    name = str(name).strip().lower()
    if name not in _BACKEND_NAMES:
        raise ValueError(
            f"unknown step backend {name!r}; choose from {_BACKEND_NAMES}"
        )
    return name


def available_backends():
    """Backend names usable right now, in preference order."""
    names = ["numpy"]
    if numba_available():
        names.append("numba")
    names.extend(["pykernel", "legacy"])
    return tuple(names)


_warned = set()
_instances = {}


def _warn_once(message):
    if message not in _warned:
        _warned.add(message)
        warnings.warn(message, RuntimeWarning, stacklevel=4)


def resolve_backend(name=None):
    """A ready :class:`StepBackend` instance for ``name``.

    Accepts an instance (returned unchanged), a name, or ``None``
    (argument > ``REPRO_BACKEND`` > ``numpy``).  Requesting ``numba``
    without numba installed warns once and falls back to ``numpy``; the
    returned instance's ``name`` tells the truth about what will run.
    """
    if isinstance(name, StepBackend):
        return name
    name = normalize_backend_name(name)
    if name == "legacy":
        raise ValueError(
            "the legacy backend is a separate frozen simulator; build it "
            "via make_batch_simulator(..., backend='legacy')"
        )
    if name == "numba" and not numba_available():
        _warn_once(
            "backend 'numba' requested but numba is not installed; "
            "falling back to the numpy backend"
        )
        name = "numpy"
    instance = _instances.get(name)
    if instance is None:
        if name == "numpy":
            from repro.core.backends.numpy_backend import NumpyStepBackend
            instance = NumpyStepBackend()
        elif name == "numba":
            from repro.core.backends.kernels import NumbaKernelBackend
            instance = NumbaKernelBackend()
        else:
            from repro.core.backends.kernels import PythonKernelBackend
            instance = PythonKernelBackend()
        _instances[name] = instance
    return instance


def make_batch_simulator(grid, fsms=None, configs=(), state_scheme=None,
                         environment=None, agent_fsms=None, backend=None):
    """A batch simulator on the chosen backend; the one constructor to use.

    Every backend returns an object with the shared simulator surface
    (``run`` / ``step`` / ``done`` / ``t_comm`` / ``knowledge`` /
    ``informed_counts``).  ``backend="legacy"`` builds the frozen
    :class:`repro.perf.reference.LegacyBatchSimulator`; everything else
    is a :class:`repro.core.vectorized.BatchSimulator` bound to that
    backend.
    """
    if isinstance(backend, StepBackend):
        from repro.core.vectorized import BatchSimulator
        return BatchSimulator(
            grid, fsms, configs, state_scheme=state_scheme,
            environment=environment, agent_fsms=agent_fsms,
            backend=backend,
        )
    name = normalize_backend_name(backend)
    if name == "legacy":
        from repro.perf.reference import LegacyBatchSimulator
        return LegacyBatchSimulator(
            grid, fsms, configs, state_scheme=state_scheme,
            environment=environment, agent_fsms=agent_fsms,
        )
    from repro.core.vectorized import BatchSimulator
    return BatchSimulator(
        grid, fsms, configs, state_scheme=state_scheme,
        environment=environment, agent_fsms=agent_fsms, backend=name,
    )
