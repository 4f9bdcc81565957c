"""Fitness evaluation of FSMs over configuration suites.

Evaluation is simulation: an FSM's fitness is the paper's
``F = mean_i [ W (k - a_i) + t_i ]`` over every field of a suite
(:mod:`repro.core.metrics`).  The heavy lifting happens in the batch
simulator; every entry point and every GA in the package -- the paper's
``evolve`` and the colour-alphabet, bordered-world and time-shuffled-pair
experiments alike, each through one :class:`SuiteEvaluator` -- runs the
FSMs x fields lanes through one block loop, :func:`_evaluate_blocks`.
The simulator follows from the inputs: :class:`BatchSimulator` in the
given ``environment`` (the paper's cyclic world by default), or the
genome's own ``batch_simulator`` when its type names one (a
time-shuffled :class:`repro.experiments.shuffle_evolution.FSMPair`).
The loop's batches hold at most
``lane_block`` lanes -- by default as many as fit in
:data:`AGENT_LANE_BLOCK` agent-lanes, ``32768 // k`` at ``k`` agents per
field, so a batch's state stays cache-sized whatever ``k`` is.  Its one
layout rule: when the whole suite fits in a block, whole FSMs are packed
per batch, FSM-major; when it does not (the packed ``k = 256`` fields,
or a suite streamed from a generator), the fields are tiled and each
block holds every FSM on a run of fields.  Per-FSM sums accumulate as
integers and are divided once; the paper fitness is integer-valued per
lane and lanes are independent, so every layout is bit-identical to one
monolithic batch.  Peak memory is bounded by the block, not the suite,
which is what makes 64x64 / k=1024 workloads viable.

With ``n_workers`` the FSMs are split into contiguous shards evaluated by
a pool of worker processes, each running the same loop; outcomes are
merged back in input order, so results are deterministic and identical
to the serial path.

Every entry point takes a ``backend=`` selecting the simulator's step
backend (:mod:`repro.core.backends`); backends are bit-exact, so cache
keys deliberately ignore the choice.
"""

import hashlib
import itertools
import threading

import numpy as np

from repro._compat import renamed_kwargs, warn_deprecated
from repro.configs.suite import ConfigSuite, digest_configurations
from repro.core.metrics import FITNESS_WEIGHT
from repro.core.vectorized import BatchSimulator
from repro.results import EvaluationResult

#: Default ceiling on agent-lanes per batch (lanes x agents per field).
AGENT_LANE_BLOCK = 32768


def default_lane_block(n_agents):
    """Lanes per batch under ``lane_block="auto"`` at ``n_agents`` agents
    per field: ``AGENT_LANE_BLOCK // n_agents``, at least one."""
    return max(1, AGENT_LANE_BLOCK // n_agents)


#: The default lane block at the paper's k = 8 (4096 lanes).
DEFAULT_LANE_BLOCK = default_lane_block(8)


def __getattr__(name):
    # the old result-shape name resolves to the shared dataclass but warns
    if name == "EvaluationOutcome":
        warn_deprecated(
            "repro.evolution.fitness.EvaluationOutcome",
            "repro.results.EvaluationResult",
        )
        return EvaluationResult
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _lane_sums(batch, n_fsms):
    """``(3, n_fsms)`` integer sums of an FSM-major batch (``n_fsms``
    equal runs of lanes): per-lane fitness, successful times, successes."""
    shape = (n_fsms, batch.n_lanes // n_fsms)
    success = batch.success.reshape(shape)
    return np.stack([
        batch.fitness(FITNESS_WEIGHT).reshape(shape).sum(axis=1),
        np.where(success, batch.t_comm.reshape(shape), 0).sum(axis=1),
        success.sum(axis=1),
    ])


def _outcomes(sums, n_fields):
    """One :class:`EvaluationResult` per column of :func:`_lane_sums`
    totals over ``n_fields`` fields.  Every sum is an integer below
    2 ** 53, so each mean is the monolithic batch's to the last bit."""
    return [
        EvaluationResult(
            fitness=float(fitness / n_fields),
            mean_time=float(time / successes) if successes else float("inf"),
            n_fields=n_fields,
            n_successful_fields=int(successes),
        )
        for fitness, time, successes in sums.T
    ]


def _field_blocks(suite, grid, n_fields):
    """``suite`` as consecutive sub-suites of at most ``n_fields`` fields."""
    if isinstance(suite, ConfigSuite):
        for start in range(0, suite.n_fields, n_fields):
            yield suite.block(start, start + n_fields)
        return
    fields = iter(suite)
    while True:
        block = list(itertools.islice(fields, n_fields))
        if not block:
            return
        yield ConfigSuite.from_configurations(block, grid)


def _block_layout(n_fsms, n_fields, n_agents, lane_block):
    """``(group, block_fields)``: the FSMs and the fields of one batch of
    :func:`_evaluate_blocks`; ``n_fields`` is ``None`` for a stream."""
    if lane_block == "auto" or not (lane_block or n_fields):
        # the default, and a stream's cap when none is given
        lanes = default_lane_block(n_agents)
    else:
        lanes = lane_block or n_fsms * n_fields     # None / 0: one batch
    if n_fields is not None and n_fields <= lanes:
        return min(n_fsms, lanes // n_fields), n_fields
    group = min(n_fsms, lanes)
    return group, lanes // group


def count_batches(n_fsms, suite, lane_block="auto"):
    """Batches :func:`_evaluate_blocks` runs for ``n_fsms`` FSMs over the
    sized ``suite`` (0 when either is empty).  Sharders take it as their
    cap -- shards <= the serial batch count -- so a one-batch call never
    forks.  A shard may still run more batches than its share: 10
    offspring over 1003 fields are 3 batches serially, 4 over 2 shards."""
    if isinstance(suite, ConfigSuite):
        n_fields, n_agents = suite.cells.shape
    else:
        n_fields = len(suite)
        n_agents = suite[0].n_agents if n_fields else 0
    if not (n_fsms and n_fields):
        return 0
    group, block_fields = _block_layout(n_fsms, n_fields, n_agents,
                                        lane_block)
    return -(-n_fields // block_fields) * -(-n_fsms // group)


def kernel_wrapped(backend=None):
    """Whether this process has wrapped a method of the simulator or of
    ``backend``'s step class.  A ``functools.wraps`` wrapper (a tracer's,
    a profiler's) leaves ``__wrapped__`` and sees only the calls made in
    this process, none of a forked worker's."""
    from repro.core.backends import resolve_backend

    owners = (BatchSimulator, type(resolve_backend(backend)))
    return any(hasattr(value, "__wrapped__")
               for owner in owners for value in vars(owner).values())


def _evaluate_blocks(grid, fsms, suite, t_max, lane_block, backend=None,
                     stream_stats=None, environment=None):
    """The one evaluation loop (see the module docstring): every FSM of
    ``fsms`` over ``suite``, a :class:`ConfigSuite`, any other sized
    collection of configurations, or an unsized iterable consumed once.
    Field blocks split into FSM groups only when there are more FSMs
    than lanes in a batch.  A batch runs on the genomes'
    ``batch_simulator`` if they have one, else on :class:`BatchSimulator`;
    either takes the lane genomes (one bare, or one per lane), the block
    and ``environment=`` / ``backend=``.
    """
    n_fsms = len(fsms)
    if not n_fsms:
        return []
    simulator = getattr(fsms[0], "batch_simulator", BatchSimulator)
    sized = hasattr(suite, "__len__")
    if sized:
        if not isinstance(suite, ConfigSuite):
            suite = ConfigSuite.from_configurations(suite, grid)
        n_fields, n_agents = suite.cells.shape
    else:
        fields = iter(suite)
        first = next(fields, None)
        if first is None:
            raise ValueError("a streamed suite produced no configurations")
        suite = itertools.chain([first], fields)
        n_fields, n_agents = None, first.n_agents
    if n_fields == 0:
        raise ValueError("a suite with no configurations")
    group, block_fields = _block_layout(n_fsms, n_fields, n_agents, lane_block)

    sums = np.zeros((3, n_fsms), dtype=np.int64)
    n_seen = n_batches = max_lanes = 0
    for block in _field_blocks(suite, grid, block_fields):
        width = block.n_fields
        for start in range(0, n_fsms, group):
            chunk = fsms[start:start + group]
            # a lone FSM goes in bare: one table row, no per-lane row index
            lane_fsms = chunk[0] if len(chunk) == 1 else [
                fsm for fsm in chunk for _ in range(width)
            ]
            batch = simulator(
                grid, lane_fsms, block.tile(len(chunk)),
                environment=environment, backend=backend,
            ).run(t_max=t_max)
            sums[:, start:start + len(chunk)] += _lane_sums(batch, len(chunk))
            n_batches += 1
            max_lanes = max(max_lanes, batch.n_lanes)
        n_seen += width
    if stream_stats is not None:
        stream_stats.update(
            n_fields=n_seen, n_blocks=n_batches,
            max_lanes_in_flight=max_lanes, block_fields=block_fields,
        )
    return _outcomes(sums, n_seen)


@renamed_kwargs(tmax="t_max")
def evaluate_fsm(grid, fsm, suite, t_max=200, backend=None, environment=None):
    """Evaluate one FSM over every configuration of ``suite``, in
    blocks of the default size (field blocks at Table 1's ``k = 256``);
    the outcome equals one monolithic batch."""
    return _evaluate_blocks(grid, [fsm], suite, t_max, "auto",
                            backend=backend, environment=environment)[0]


def _shard_worker(payload):
    """Worker entry point: evaluate one contiguous FSM shard serially."""
    grid, fsms, suite, t_max, lane_block, backend, environment = payload
    return _evaluate_blocks(grid, fsms, suite, t_max, lane_block,
                            backend=backend, environment=environment)


@renamed_kwargs(tmax="t_max", workers="n_workers")
def evaluate_population(grid, fsms, suite, t_max=200, lane_block="auto",
                        n_workers=None, pool=None, backend=None,
                        stream_stats=None, environment=None):
    """Evaluate many FSMs over one suite, in blocks and optionally sharded.

    Returns one :class:`repro.results.EvaluationResult` per FSM, in input
    order.  ``lane_block`` bounds the lanes (FSMs x fields) of one batch:
    the default ``"auto"`` is :func:`default_lane_block` (4096 lanes at
    the paper's k = 8, 128 at k = 256), an int is taken as given, and
    ``None`` or 0 evaluates a materialised suite as one batch.
    ``n_workers`` splits the FSMs into that many contiguous shards, each
    run through the same block loop by a worker process; ``pool`` may be
    a persistent :class:`repro.service.WorkerPool`, whose workers are
    then reused (``n_workers`` defaults to its size).  Without one, the
    call shards over a transient pool that it joins before returning.
    Every layout returns results identical to the monolithic
    single-process evaluation.

    A ``suite`` without ``len`` (a generator of configurations) is
    *streamed*: consumed block by block (at the default block when
    ``lane_block`` is ``None`` or 0) and never materialised -- the way
    to run big-world workloads (64x64, k up to 1024).  With
    ``n_workers > 1`` it is materialised first so it can be shipped to
    the shards.  Any other suite that is not a :class:`ConfigSuite` is
    turned into one.  ``stream_stats``, if a dict, receives ``n_fields``
    / ``n_blocks`` (batches run) / ``max_lanes_in_flight`` /
    ``block_fields`` after a serial run.

    ``backend`` picks the simulator step backend
    (:mod:`repro.core.backends`); every backend returns bit-identical
    results.  ``environment`` is the world every lane runs in (borders,
    obstacles, initial colours; the paper's cyclic grid when ``None``).
    A genome type may name its own simulator (see
    :func:`_evaluate_blocks`).
    """
    fsms = list(fsms)
    if pool is not None and n_workers is None:
        n_workers = pool.n_workers
    n_workers = min(n_workers or 1, len(fsms))
    if n_workers <= 1:
        return _evaluate_blocks(grid, fsms, suite, t_max, lane_block,
                                backend=backend, stream_stats=stream_stats,
                                environment=environment)
    if not isinstance(suite, ConfigSuite):
        suite = ConfigSuite.from_configurations(suite, grid)
    # ship the backend by name: compiled backend instances hold jit
    # dispatchers that do not pickle
    backend_name = (
        backend if backend is None or isinstance(backend, str)
        else backend.name
    )
    shard_size = (len(fsms) + n_workers - 1) // n_workers
    payloads = [
        (grid, fsms[start:start + shard_size], suite, t_max, lane_block,
         backend_name, environment)
        for start in range(0, len(fsms), shard_size)
    ]
    from repro.service.pool import owned_pool

    if pool is not None and pool.inline:
        pool = None
    with owned_pool(pool, len(payloads)) as shard_pool:
        shard_outcomes = shard_pool.map_ordered(_shard_worker, payloads)
    return [outcome for shard in shard_outcomes for outcome in shard]


def suite_fingerprint(suite):
    """Content digest identifying a suite for evaluation-cache keys.

    Hashes every configuration's positions, headings and initial control
    states (:func:`repro.configs.suite.digest_configurations`), so two
    suites share a fingerprint exactly when they would make any FSM
    behave identically -- regardless of how the suite object was built
    or what it is named.  A :class:`repro.configs.ConfigSuite` hashes
    once and returns its cached :attr:`~repro.configs.ConfigSuite.fingerprint`
    on every later call; any other iterable of configurations is hashed
    afresh, to the same digest.
    """
    if isinstance(suite, ConfigSuite):
        return suite.fingerprint
    return digest_configurations(suite)


def evaluation_cache_key(grid, suite_fp, t_max, fsm):
    """The full cache identity of one evaluation result.

    Covers every knob that can change an outcome: the grid type and
    size, the suite contents (via :func:`suite_fingerprint`), the step
    budget and the genome.  ``lane_block`` / ``n_workers`` are absent on
    purpose -- they only re-layout the work, never the results.
    """
    return (grid.kind, grid.size, suite_fp, int(t_max), fsm.key())


def _world_fingerprint(suite_fp, environment):
    """The suite slot of a cache key for ``suite_fp`` run in
    ``environment``: ``suite_fp`` itself in the paper's cyclic world, so
    those keys are the plain :func:`evaluation_cache_key`, else a digest
    of it with the border flag, obstacles, initial colours and colour
    alphabet."""
    if environment is None:
        return suite_fp
    colors = environment.initial_colors
    world = (environment.bordered, sorted(environment.obstacles),
             None if colors is None else colors.tolist(),
             environment.n_colors)
    if world == (False, [], None, 2):
        return suite_fp
    return hashlib.sha256(repr((suite_fp, world)).encode()).hexdigest()


class EvaluationCache:
    """A thread-safe evaluation memo shareable across evaluators/requests.

    Keys are full :func:`evaluation_cache_key` tuples, so one cache can
    safely back many :class:`SuiteEvaluator` instances and every request
    of an :class:`repro.service.EvaluationService` without ever serving
    a result computed under different knobs.  ``hits`` / ``misses``
    count lookups.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._store = {}
        self.hits = 0
        self.misses = 0

    def get(self, key):
        with self._lock:
            outcome = self._store.get(key)
            if outcome is None:
                self.misses += 1
            else:
                self.hits += 1
            return outcome

    def put(self, key, outcome):
        with self._lock:
            self._store[key] = outcome

    def __len__(self):
        return len(self._store)

    def __contains__(self, key):
        return key in self._store

    def stats(self):
        """Counters snapshot: ``{"entries", "hits", "misses"}``."""
        with self._lock:
            return {
                "entries": len(self._store),
                "hits": self.hits,
                "misses": self.misses,
            }

    # locks do not pickle; a cache crossing a process boundary (e.g.
    # inside an EvolutionResult returned by a multi_run worker) re-arms
    # its lock on arrival.
    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()


class SuiteEvaluator:
    """Callable evaluator with memoization by full evaluation identity.

    Fitness is deterministic for a fixed suite, so re-evaluating an
    unchanged genome (survivors stay in the pool across generations) is
    wasted simulation; the cache makes each behaviour cost one batch run
    ever.  Cache keys are full :func:`evaluation_cache_key` tuples --
    grid type and size, suite contents, ``t_max`` and genome -- so a
    single :class:`EvaluationCache` passed as ``cache=`` can safely be
    shared by evaluators over *different* suites or step budgets (the
    service does exactly that) and can never serve a stale result.

    ``environment`` is the world the suite runs in, like ``grid`` a
    problem input; a world other than the paper's cyclic one is folded
    into the key's suite slot.  A genome is anything whose ``key()``
    names its behaviour, and it may bring its own ``batch_simulator``
    (a time-shuffled pair).  A sized suite that is not a
    :class:`ConfigSuite` is encoded into one here, once.

    ``lane_block``, ``n_workers``, ``pool`` and ``backend`` are
    forwarded to :func:`evaluate_population`; none affects results or
    the cache keys, only how the simulation work is laid out (backends
    are bit-exact by construction).  A call's fresh FSMs go to at most
    ``n_workers`` shards (by default the ``pool``'s size) and at most
    :func:`count_batches`, so one batch of work never forks.  A pickled
    evaluator (a checkpoint) leaves its ``pool`` behind.
    """

    # class-level defaults so evaluators unpickled from checkpoints
    # written before the backend and environment options keep working
    backend = None
    environment = None

    def __init__(self, grid, suite, t_max=200,
                 lane_block="auto", n_workers=None,
                 pool=None, cache=None, backend=None, environment=None):
        if hasattr(suite, "__len__") and not isinstance(suite, ConfigSuite):
            suite = ConfigSuite.from_configurations(suite, grid)
        self.grid = grid
        self.suite = suite
        self.t_max = t_max
        self.lane_block = lane_block
        self.n_workers = n_workers
        self.pool = pool
        self.backend = backend
        self.environment = environment
        self.cache = cache if cache is not None else EvaluationCache()
        self._suite_fp = _world_fingerprint(suite_fingerprint(suite),
                                            environment)
        self.evaluations = 0

    def _key(self, fsm):
        return evaluation_cache_key(self.grid, self._suite_fp, self.t_max, fsm)

    def _shards(self, n_fsms):
        workers = self.n_workers or (self.pool.n_workers if self.pool else 1)
        return min(workers, count_batches(n_fsms, self.suite, self.lane_block))

    def __getstate__(self):
        state = self.__dict__.copy()
        state["pool"] = None
        return state

    def __call__(self, fsm):
        key = self._key(fsm)
        cached = self.cache.get(key)
        if cached is None:
            cached = evaluate_fsm(self.grid, fsm, self.suite,
                                  t_max=self.t_max, backend=self.backend,
                                  environment=self.environment)
            self.cache.put(key, cached)
            self.evaluations += 1
        return cached

    def evaluate_many(self, fsms):
        """Evaluate a batch of FSMs, simulating only the unseen genomes."""
        fsms = list(fsms)
        resolved = {}
        fresh, fresh_keys = [], []
        for fsm in fsms:
            key = self._key(fsm)
            if key in resolved:
                continue
            cached = self.cache.get(key)
            if cached is not None:
                resolved[key] = cached
            elif key not in fresh_keys:
                fresh.append(fsm)
                fresh_keys.append(key)
        if fresh:
            outcomes = evaluate_population(
                self.grid, fresh, self.suite, t_max=self.t_max,
                lane_block=self.lane_block, n_workers=self._shards(len(fresh)),
                pool=self.pool, backend=self.backend,
                environment=self.environment,
            )
            for key, outcome in zip(fresh_keys, outcomes):
                self.cache.put(key, outcome)
                resolved[key] = outcome
            self.evaluations += len(fresh)
        return [resolved[self._key(fsm)] for fsm in fsms]
