"""Fitness evaluation of FSMs over configuration suites.

Evaluation is simulation: an FSM's fitness is the paper's
``F = mean_i [ W (k - a_i) + t_i ]`` over every field of a suite
(:mod:`repro.core.metrics`).  The heavy lifting happens in the batch
simulator; a whole population is evaluated as ``population x fields``
lanes, split two ways for scale:

* **lane blocks** -- lanes are chunked into blocks of at most
  ``lane_block`` (a 20-FSM pool over the paper's 1003 fields would
  otherwise materialise >20k lanes of ``(B, M * M)`` state at once);
  chunking is bit-exact because lanes are independent.
* **worker shards** (opt-in) -- with ``n_workers`` the FSMs are split
  into contiguous shards evaluated by a pool of worker processes, one
  :class:`BatchSimulator` chain per worker; outcomes are merged back in
  input order, so results are deterministic and identical to the serial
  path.
* **streamed suites** -- a suite passed as a generator (anything
  without ``len``) is consumed incrementally in field blocks sized so
  that at most ``lane_block`` lanes are ever alive, with per-FSM sums
  accumulated across blocks.  Peak memory is bounded by the block, not
  the suite, which is what makes 64x64 / k=1024 workloads viable; the
  paper fitness is integer-valued per lane, so the accumulated means
  are bit-identical to the materialised path.

Every entry point takes a ``backend=`` selecting the simulator's step
backend (:mod:`repro.core.backends`); backends are bit-exact, so cache
keys deliberately ignore the choice.
"""

import multiprocessing
import threading

import numpy as np

from repro._compat import renamed_kwargs, warn_deprecated
from repro.configs.suite import ConfigSuite, digest_configurations
from repro.core.metrics import FITNESS_WEIGHT
from repro.core.vectorized import BatchSimulator
from repro.results import EvaluationResult

#: Default ceiling on simultaneous lanes per batch (FSMs x suite fields).
DEFAULT_LANE_BLOCK = 4096


def __getattr__(name):
    # the old result-shape name resolves to the shared dataclass but warns
    if name == "EvaluationOutcome":
        warn_deprecated(
            "repro.evolution.fitness.EvaluationOutcome",
            "repro.results.EvaluationResult",
        )
        return EvaluationResult
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _outcome_from_batch(batch):
    return EvaluationResult(
        fitness=batch.mean_fitness(),
        mean_time=batch.mean_time(),
        n_fields=batch.n_lanes,
        n_successful_fields=int(batch.success.sum()),
    )


@renamed_kwargs(tmax="t_max")
def evaluate_fsm(grid, fsm, suite, t_max=200, backend=None):
    """Evaluate one FSM over every configuration of ``suite``."""
    simulator = BatchSimulator(grid, fsm, list(suite), backend=backend)
    batch = simulator.run(t_max=t_max)
    return _outcome_from_batch(batch)


def _slice_outcomes(batch, n_fsms, n_fields):
    """Per-FSM outcomes from an individual-major batch result."""
    per_lane_fitness = batch.fitness(FITNESS_WEIGHT)
    outcomes = []
    for index in range(n_fsms):
        lanes = slice(index * n_fields, (index + 1) * n_fields)
        success = batch.success[lanes]
        times = batch.t_comm[lanes][success]
        outcomes.append(
            EvaluationResult(
                fitness=float(per_lane_fitness[lanes].mean()),
                mean_time=float(times.mean()) if times.size else float("inf"),
                n_fields=n_fields,
                n_successful_fields=int(success.sum()),
            )
        )
    return outcomes


def _evaluate_chunked(grid, fsms, configs, t_max, lane_block, backend=None):
    """Serial evaluation in lane blocks; bit-exact vs one monolithic batch."""
    n_fields = len(configs)
    if lane_block:
        fsms_per_chunk = max(1, lane_block // n_fields)
    else:
        fsms_per_chunk = len(fsms)
    outcomes = []
    for start in range(0, len(fsms), fsms_per_chunk):
        chunk = fsms[start:start + fsms_per_chunk]
        lane_fsms = [fsm for fsm in chunk for _ in range(n_fields)]
        lane_configs = configs * len(chunk)
        batch = BatchSimulator(
            grid, lane_fsms, lane_configs, backend=backend
        ).run(t_max=t_max)
        outcomes.extend(_slice_outcomes(batch, len(chunk), n_fields))
    return outcomes


def _evaluate_streamed(grid, fsms, fields, t_max, lane_block, backend=None,
                       stream_stats=None):
    """Incremental evaluation of a lazily produced suite.

    ``fields`` is any iterable of configurations; it is consumed in
    blocks of ``max(1, lane_block // n_fsms)`` fields, so at most
    ``lane_block`` lanes (one per FSM per block field) are alive at a
    time regardless of how long the suite runs.  Per-lane outcomes do
    not depend on batch composition and the paper fitness is
    integer-valued per lane (``FITNESS_WEIGHT`` is an int), so the
    accumulated float64 sums are exact and the resulting means are
    bit-identical to materialising the whole suite.
    """
    n_fsms = len(fsms)
    block_fields = max(1, (lane_block or DEFAULT_LANE_BLOCK) // n_fsms)
    fitness_sum = np.zeros(n_fsms)
    time_sum = np.zeros(n_fsms)
    n_success = np.zeros(n_fsms, dtype=np.int64)
    n_fields = 0
    max_lanes = 0
    n_blocks = 0
    iterator = iter(fields)
    while True:
        block = []
        for config in iterator:
            block.append(config)
            if len(block) == block_fields:
                break
        if not block:
            break
        lane_fsms = [fsm for fsm in fsms for _ in range(len(block))]
        lane_configs = block * n_fsms
        batch = BatchSimulator(
            grid, lane_fsms, lane_configs, backend=backend
        ).run(t_max=t_max)
        per_lane = batch.fitness(FITNESS_WEIGHT)
        for index in range(n_fsms):
            lanes = slice(index * len(block), (index + 1) * len(block))
            success = batch.success[lanes]
            fitness_sum[index] += per_lane[lanes].sum()
            time_sum[index] += batch.t_comm[lanes][success].sum()
            n_success[index] += int(success.sum())
        n_fields += len(block)
        max_lanes = max(max_lanes, len(lane_configs))
        n_blocks += 1
    if n_fields == 0:
        raise ValueError("a streamed suite produced no configurations")
    if stream_stats is not None:
        stream_stats.update(
            n_fields=n_fields, n_blocks=n_blocks,
            max_lanes_in_flight=max_lanes, block_fields=block_fields,
        )
    return [
        EvaluationResult(
            fitness=float(fitness_sum[index] / n_fields),
            mean_time=(
                float(time_sum[index] / n_success[index])
                if n_success[index] else float("inf")
            ),
            n_fields=n_fields,
            n_successful_fields=int(n_success[index]),
        )
        for index in range(n_fsms)
    ]


def _shard_worker(payload):
    """Worker entry point: evaluate one contiguous FSM shard serially."""
    grid, fsms, configs, t_max, lane_block, backend = payload
    return _evaluate_chunked(grid, fsms, configs, t_max, lane_block,
                             backend=backend)


def _pool_context():
    """Prefer fork (cheap, no re-import) where the platform offers it."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


@renamed_kwargs(tmax="t_max", workers="n_workers")
def evaluate_population(grid, fsms, suite, t_max=200,
                        lane_block=DEFAULT_LANE_BLOCK, n_workers=None,
                        pool=None, backend=None, stream_stats=None):
    """Evaluate many FSMs over one suite, chunked and optionally sharded.

    Lanes are laid out individual-major: lanes ``[p * F, (p+1) * F)``
    belong to individual ``p`` over the suite's ``F`` fields.  Returns
    one :class:`repro.results.EvaluationResult` per FSM, in input order.

    ``lane_block`` bounds the number of simultaneous lanes per batch
    (``None`` or 0 evaluates everything monolithically); ``n_workers``
    splits the FSMs over that many worker processes.  ``pool`` may be a
    persistent :class:`repro.service.WorkerPool`, in which case its
    workers are reused instead of forking a one-shot pool (``n_workers``
    then defaults to the pool's size).  All split points fall on
    whole-FSM boundaries, so every path returns results identical to
    the monolithic single-process evaluation.

    A ``suite`` without ``len`` (a generator of configurations) is
    *streamed*: consumed block by block with at most ``lane_block``
    lanes in memory at once and never materialised -- the way to run
    big-world workloads (64x64, k up to 1024).  Streaming is serial;
    with ``n_workers > 1`` the suite is materialised first so it can be
    shipped to the shards.  ``stream_stats``, if a dict, receives
    ``n_fields`` / ``n_blocks`` / ``max_lanes_in_flight`` /
    ``block_fields`` after a streamed run.

    ``backend`` picks the simulator step backend
    (:mod:`repro.core.backends`); every backend returns bit-identical
    results.
    """
    fsms = list(fsms)
    streamable = not hasattr(suite, "__len__")
    if pool is not None and n_workers is None:
        n_workers = pool.n_workers
    n_workers = min(n_workers or 1, len(fsms))
    if streamable and n_workers <= 1:
        return _evaluate_streamed(
            grid, fsms, suite, t_max, lane_block, backend=backend,
            stream_stats=stream_stats,
        )
    configs = list(suite)
    if n_workers > 1:
        # ship the backend by name: compiled backend instances hold
        # jit dispatchers that do not pickle
        backend_name = (
            backend if backend is None or isinstance(backend, str)
            else backend.name
        )
        shard_size = (len(fsms) + n_workers - 1) // n_workers
        payloads = [
            (grid, fsms[start:start + shard_size], configs, t_max,
             lane_block, backend_name)
            for start in range(0, len(fsms), shard_size)
        ]
        if pool is not None and not pool.inline:
            shard_outcomes = pool.map_ordered(_shard_worker, payloads)
        else:
            with _pool_context().Pool(processes=len(payloads)) as one_shot:
                shard_outcomes = one_shot.map(_shard_worker, payloads)
        return [outcome for shard in shard_outcomes for outcome in shard]
    return _evaluate_chunked(grid, fsms, configs, t_max, lane_block,
                             backend=backend)


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

    ``lane_block``, ``n_workers``, ``pool`` and ``backend`` are
    forwarded to :func:`evaluate_population`; none affects results or
    the cache keys, only how the simulation work is laid out (backends
    are bit-exact by construction).
    """

    # class-level default so evaluators unpickled from checkpoints
    # written before the backend option keep working
    backend = None

    def __init__(self, grid, suite, t_max=200,
                 lane_block=DEFAULT_LANE_BLOCK, n_workers=None,
                 pool=None, cache=None, backend=None):
        self.grid = grid
        self.suite = suite
        self.t_max = t_max
        self.lane_block = lane_block
        self.n_workers = n_workers
        self.pool = pool
        self.backend = backend
        self.cache = cache if cache is not None else EvaluationCache()
        self._suite_fp = suite_fingerprint(suite)
        self.evaluations = 0

    def _key(self, fsm):
        return evaluation_cache_key(self.grid, self._suite_fp, self.t_max, fsm)

    def __call__(self, fsm):
        key = self._key(fsm)
        cached = self.cache.get(key)
        if cached is None:
            cached = evaluate_fsm(self.grid, fsm, self.suite,
                                  t_max=self.t_max, backend=self.backend)
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
                lane_block=self.lane_block, n_workers=self.n_workers,
                pool=self.pool, backend=self.backend,
            )
            for key, outcome in zip(fresh_keys, outcomes):
                self.cache.put(key, outcome)
                resolved[key] = outcome
            self.evaluations += len(fresh)
        return [resolved[self._key(fsm)] for fsm in fsms]
