"""The long-lived evaluation service: queue, batcher, shared cache.

:class:`EvaluationService` is the serving rung of the ROADMAP's north
star: a request queue drained by a dispatcher thread that **coalesces
compatible requests** -- same grid type and size, same suite contents,
same ``t_max`` -- into one sharded
:func:`repro.evolution.fitness.evaluate_population` call over the
persistent :class:`repro.service.WorkerPool`, with a process-wide
:class:`repro.evolution.fitness.EvaluationCache` consulted first so a
genome is never simulated twice anywhere in the process.

Correctness invariants (all asserted by ``tests/test_service.py``):

* **bit-exactness** -- batching only concatenates independent lanes;
  every request's outcomes equal ``evaluate_population`` run serially
  on that request alone;
* **full cache keys** -- the shared cache keys on grid type/size, suite
  contents, ``t_max`` and genome, so cross-request sharing can never
  serve a stale result;
* **drainability** -- a request that fails (its FSM raises, a worker
  dies) fails *its own* future with :class:`ServiceError`; the
  dispatcher survives and later requests still complete.
"""

import itertools
import queue
import threading
import time
from collections import deque
from concurrent.futures import CancelledError, Future
from dataclasses import dataclass, field

from repro._compat import warn_deprecated
from repro.core.backends import normalize_backend_name
from repro.evolution.fitness import (
    DEFAULT_LANE_BLOCK,
    EvaluationCache,
    evaluate_population,
    evaluation_cache_key,
    suite_fingerprint,
)
from repro.resilience.deadline import DeadlineExceeded
from repro.resilience.faults import SITE_DISPATCH, STALL, maybe_fault
from repro.service.metrics import LatencyHistogram
from repro.service.pool import WorkerPool

#: Batch-latency observations needed before the dispatcher starts
#: refusing requests whose remaining deadline budget cannot cover the
#: observed per-batch p99 (an unseeded estimate would reject blindly).
MIN_P99_SAMPLES = 8

_STOP = object()

#: The two admission classes the dispatcher understands.  Interactive
#: requests (a human waiting on one ``evaluate``) sort ahead of bulk
#: campaign shards in the priority queue, so a long exploratory sweep
#: cannot starve the front door.  Lower sorts first.
PRIORITY_INTERACTIVE = 0
PRIORITY_BULK = 1

_PRIORITY_NAMES = {
    "interactive": PRIORITY_INTERACTIVE,
    "bulk": PRIORITY_BULK,
}
_PRIORITY_LABELS = {value: name for name, value in _PRIORITY_NAMES.items()}

#: ``_STOP`` sorts after every real priority class, so a close() drains
#: all queued work -- bulk included -- before the dispatcher exits.
_STOP_PRIORITY = max(_PRIORITY_NAMES.values()) + 1


def normalize_priority(priority):
    """An admission-class int from its wire name or int (default bulk).

    ``None`` means :data:`PRIORITY_BULK`: unlabelled work is assumed to
    be batch-shaped, and callers that want front-of-queue treatment say
    so explicitly.
    """
    if priority is None:
        return PRIORITY_BULK
    if isinstance(priority, str):
        try:
            return _PRIORITY_NAMES[priority.lower()]
        except KeyError:
            raise ValueError(
                f"unknown priority {priority!r}; expected one of "
                f"{sorted(_PRIORITY_NAMES)}"
            ) from None
    priority = int(priority)
    if priority not in _PRIORITY_LABELS:
        raise ValueError(
            f"unknown priority {priority}; expected one of "
            f"{sorted(_PRIORITY_LABELS)}"
        )
    return priority


def priority_label(priority):
    """The wire name of an admission-class int."""
    return _PRIORITY_LABELS[normalize_priority(priority)]


class ServiceError(RuntimeError):
    """A request failed inside the service; the cause is ``__cause__``."""


class EvaluationRequest:
    """One FSM-evaluation job: ``fsms`` over ``suite`` on ``grid``.

    The ``batch_key`` -- grid type and size, suite contents digest,
    ``t_max``, step backend -- decides which requests may be coalesced
    into one sharded batch: exactly those whose lanes could have
    appeared together in one ``evaluate_population`` call.  The backend
    is part of the key so one batch runs on one engine; it is *not*
    part of the per-FSM cache keys, because backends are bit-exact and
    a result computed on either engine is valid for both.

    The suite digest comes from :func:`suite_fingerprint`, which a
    :class:`repro.configs.ConfigSuite` answers from its cached
    fingerprint: building a request over a suite the caller keeps (as
    :class:`repro.service.jsonl.ServeSession` does) costs the same
    whatever the suite's size.
    """

    def __init__(self, grid, fsms, suite, t_max=200, backend=None,
                 priority=None, deadline=None):
        if not hasattr(suite, "__len__"):
            # a generator: fingerprinting consumes it, so materialise once
            suite = list(suite)
        self.grid = grid
        self.fsms = list(fsms)
        self.suite = suite
        self.t_max = int(t_max)
        self.backend = normalize_backend_name(backend)
        self.priority = normalize_priority(priority)
        #: Optional :class:`repro.resilience.Deadline`; the dispatcher
        #: answers ``deadline_exceeded`` instead of simulating once it
        #: expires (or once the observed batch p99 cannot fit in it).
        self.deadline = deadline
        self.suite_fp = suite_fingerprint(suite)
        self.batch_key = (
            grid.kind, grid.size, self.suite_fp, self.t_max, self.backend
        )
        self.n_lanes = len(self.fsms) * len(suite)
        # admission, the dispatcher and replication all read the keys;
        # each FSM's key is built once, here
        self._cache_keys = tuple(
            evaluation_cache_key(grid, self.suite_fp, self.t_max, fsm)
            for fsm in self.fsms
        )

    def cache_keys(self):
        """Full evaluation-cache keys of this request's FSMs, in order."""
        return list(self._cache_keys)


class AdaptiveBatchPolicy:
    """Feedback control of the dispatcher's coalescing width, in lanes.

    Each dispatch round drains queued requests until their combined lane
    count (``sum(len(fsms) * len(suite))``) reaches the current
    ``width``; the rest stay queued for the next round.  After every
    round the width adapts:

    * **grow** (double, up to ``max_lanes``) when the round hit the cap
      with more requests still waiting -- queue pressure means bigger
      batches amortize better;
    * **shrink** (halve, down to ``min_lanes``) when the drained
      requests split into multiple batch groups -- mixed grid / suite /
      ``t_max`` widths coalesce poorly, and a smaller round keeps one
      wide stray request from serializing everything behind it.

    The policy only re-partitions work across rounds; every request
    still evaluates exactly as it would serially, so adaptivity cannot
    change results.  Chosen widths are exposed via ``snapshot()`` (the
    CLI's ``--stats``).
    """

    def __init__(self, min_lanes=256, initial_lanes=DEFAULT_LANE_BLOCK,
                 max_lanes=4 * DEFAULT_LANE_BLOCK, history=32):
        if not min_lanes <= initial_lanes <= max_lanes:
            raise ValueError("need min_lanes <= initial_lanes <= max_lanes")
        self.min_lanes = int(min_lanes)
        self.max_lanes = int(max_lanes)
        self.width = int(initial_lanes)
        self.grows = 0
        self.shrinks = 0
        self.rounds = 0
        self.recent_widths = deque(maxlen=history)
        self.recent_batch_lanes = deque(maxlen=history)

    def observe(self, batch_lanes, n_groups, pressure):
        """Record one dispatch round and adapt the width for the next."""
        self.rounds += 1
        self.recent_widths.append(self.width)
        self.recent_batch_lanes.append(batch_lanes)
        if pressure:
            grown = min(self.width * 2, self.max_lanes)
            if grown > self.width:
                self.grows += 1
            self.width = grown
        elif n_groups > 1:
            shrunk = max(self.width // 2, self.min_lanes)
            if shrunk < self.width:
                self.shrinks += 1
            self.width = shrunk

    def snapshot(self):
        return {
            "width": self.width,
            "min_lanes": self.min_lanes,
            "max_lanes": self.max_lanes,
            "rounds": self.rounds,
            "grows": self.grows,
            "shrinks": self.shrinks,
            "recent_widths": list(self.recent_widths),
            "recent_batch_lanes": list(self.recent_batch_lanes),
        }


@dataclass
class ServiceStats:
    """Lifetime counters of one service instance."""

    requests: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0              # futures cancelled before dispatch
    batches: int = 0
    coalesced_requests: int = 0     # requests that shared another's batch
    simulated_fsms: int = 0         # genomes actually sent to the simulator
    deadline_expired: int = 0       # budget already gone at dispatch time
    deadline_refused: int = 0       # remaining budget < observed batch p99
    by_priority: dict = field(default_factory=dict)  # class -> submissions
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def snapshot(self, cache=None, batcher=None):
        """Plain-dict view, with cache/batcher counters folded in."""
        with self.lock:
            stats = {
                "requests": self.requests,
                "completed": self.completed,
                "failed": self.failed,
                "cancelled": self.cancelled,
                "batches": self.batches,
                "coalesced_requests": self.coalesced_requests,
                "simulated_fsms": self.simulated_fsms,
                "deadline_expired": self.deadline_expired,
                "deadline_refused": self.deadline_refused,
                "by_priority": dict(self.by_priority),
            }
        if cache is not None:
            stats["cache"] = cache.stats()
        if batcher is not None:
            stats["adaptive"] = batcher.snapshot()
        return stats


class EvaluationService:
    """Queue + dispatcher + batcher over a persistent worker pool.

    ``n_workers`` sizes the service's own :class:`WorkerPool` (pass
    ``pool=`` to share an existing one); ``cache=`` likewise accepts an
    external :class:`EvaluationCache`.  With ``autostart=False`` the
    dispatcher thread is not started until :meth:`start` -- submitting
    first and starting afterwards guarantees the queued requests are
    coalesced, which the batching tests rely on.
    """

    def __init__(self, n_workers=None, lane_block="auto",
                 pool=None, cache=None, autostart=True, batch_policy=None,
                 job_timeout=None, max_restarts=2):
        self.lane_block = lane_block
        self.cache = cache if cache is not None else EvaluationCache()
        self._own_pool = pool is None
        self.pool = pool if pool is not None else WorkerPool(
            n_workers or 1, job_timeout=job_timeout,
            max_restarts=max_restarts,
        )
        self.stats = ServiceStats()
        self.batcher = (
            batch_policy if batch_policy is not None else AdaptiveBatchPolicy()
        )
        # Two-class priority queue: interactive entries sort ahead of
        # bulk ones, the monotone sequence number keeps each class FIFO
        # (and keeps heap comparisons off the payloads themselves).
        self._queue = queue.PriorityQueue()
        self._seq = itertools.count()
        self._thread = None
        self._closed = False
        # Observed wall time of dispatched batches; its p99 is what a
        # request's remaining deadline budget is judged against.
        self.batch_latency = LatencyHistogram()
        # Futures a client walked away from (the transport `cancel` op)
        # after they were already marked running -- e.g. mid-stall on a
        # gray node.  The dispatcher reaps them just before simulating.
        self._abandoned = set()
        self._abandoned_lock = threading.Lock()
        if autostart:
            self.start()

    # -- lifecycle ----------------------------------------------------------

    def start(self):
        """Start the dispatcher thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._dispatch_loop, name="evaluation-service",
                daemon=True,
            )
            self._thread.start()
        return self

    def close(self):
        """Drain outstanding requests, then stop the dispatcher."""
        if self._closed:
            return
        self._closed = True
        self._queue.put((_STOP_PRIORITY, next(self._seq), _STOP))
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if self._own_pool:
            self.pool.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    # -- submission ---------------------------------------------------------

    def submit(self, request, priority=None):
        """Enqueue a request; returns a future of ``[EvaluationOutcome]``.

        The future resolves to one outcome per ``request.fsms`` entry, in
        request order, or raises :class:`ServiceError`.  ``priority``
        (an admission class: ``"interactive"``/``"bulk"`` or the
        matching constant) overrides the request's own; interactive
        submissions jump ahead of queued bulk work.
        """
        if self._closed:
            raise ServiceError("service is closed")
        future = Future()
        level = (
            request.priority if priority is None
            else normalize_priority(priority)
        )
        label = priority_label(level)
        with self.stats.lock:
            self.stats.requests += 1
            self.stats.by_priority[label] = (
                self.stats.by_priority.get(label, 0) + 1
            )
        self._queue.put((level, next(self._seq), (request, future)))
        return future

    def evaluate(self, grid, fsms, suite, t_max=200, timeout=None):
        """Synchronous convenience: submit one request and wait for it."""
        return self.submit(
            EvaluationRequest(grid, fsms, suite, t_max=t_max)
        ).result(timeout)

    def snapshot(self):
        """All counters: requests, cache, adaptive widths, pool watchdog.

        The pool's watchdog counters (restarts, crash/hang recoveries,
        requeued jobs) appear here as well as in :meth:`health`, so the
        ``stats`` op alone is enough to assert on recovery behaviour.
        """
        stats = self.stats.snapshot(cache=self.cache, batcher=self.batcher)
        stats["pool"] = self.pool.health()
        stats["batch_latency"] = self.batch_latency.snapshot()
        return stats

    def abandon(self, future):
        """Best-effort cancellation of an already-running request.

        :meth:`Future.cancel` only wins while a request is still
        queued; once the dispatcher has marked it running (it may be
        parked behind a gray node's stall), the ``cancel`` op falls
        back to this: the future is reaped -- resolved with
        ``CancelledError``, its work never simulated -- at the last
        checkpoint before :func:`evaluate_population`.  Returns
        ``True`` if the future was still unresolved when abandoned.
        """
        if future.done():
            return False
        with self._abandoned_lock:
            self._abandoned.add(future)
        return True

    def health(self):
        """Liveness view: dispatcher, queue depth, pool watchdog, cache.

        This is what the ``health`` op on both transports returns; it is
        deliberately cheap (counters and flags, no simulation) so
        monitors can poll it while the service is under load.
        """
        with self.stats.lock:
            in_flight = self.stats.requests - (
                self.stats.completed + self.stats.failed
                + self.stats.cancelled + self.stats.deadline_expired
                + self.stats.deadline_refused
            )
        return {
            "ok": not self._closed and (
                self._thread is not None and self._thread.is_alive()
            ),
            "closed": self._closed,
            "dispatcher_alive": (
                self._thread is not None and self._thread.is_alive()
            ),
            "queue_depth": self._queue.qsize(),
            "in_flight": in_flight,
            "deadline": {
                "expired": self.stats.deadline_expired,
                "refused": self.stats.deadline_refused,
                "batch_p99_seconds": self.batch_latency.quantile(0.99),
            },
            "pool": self.pool.health(),
            "cache": self.cache.stats(),
        }

    # -- dispatcher ---------------------------------------------------------

    def _dispatch_loop(self):
        while not self._dispatch_round(self._queue.get()[2]):
            pass

    def _dispatch_round(self, item):
        """Run one coalesced round starting at ``item``; ``True`` to stop.

        A round's requests and futures are locals of this call, so they
        are released when it returns -- not kept alive while the loop
        blocks for the next request.
        """
        if item is _STOP:
            return True
        stopping = False
        batch = [item]
        lanes = item[0].n_lanes
        # Drain what is already queued -- the requests that can be
        # coalesced this round -- up to the adaptive lane width.
        # The priority queue hands interactive entries over first,
        # so a round under pressure fills with interactive work
        # before any queued bulk shard.  Whatever stays queued is
        # simply the next round's batch.
        while lanes < self.batcher.width:
            try:
                _, _, extra = self._queue.get_nowait()
            except queue.Empty:
                break
            if extra is _STOP:
                stopping = True
                break
            batch.append(extra)
            lanes += extra[0].n_lanes
        pressure = (
            not stopping
            and lanes >= self.batcher.width
            and not self._queue.empty()
        )
        groups = {}
        for request, future in batch:
            # a request cancelled while queued (TCP timeout, client
            # gone) is dropped here -- its simulation never runs
            if not future.set_running_or_notify_cancel():
                with self.stats.lock:
                    self.stats.cancelled += 1
                continue
            # likewise a request whose deadline budget is gone (or
            # cannot cover the observed batch p99) is refused before
            # it can join a batch, instead of burning a worker
            verdict = self._deadline_verdict(request)
            if verdict is not None:
                self._refuse_deadline(future, verdict)
                continue
            groups.setdefault(request.batch_key, []).append(
                (request, future)
            )
        self.batcher.observe(
            batch_lanes=lanes, n_groups=len(groups), pressure=pressure
        )
        for group in groups.values():
            self._process_group(group)
        return stopping

    def _deadline_verdict(self, request):
        """Why this request must be refused now, or ``None`` to proceed."""
        deadline = request.deadline
        if deadline is None:
            return None
        if deadline.expired:
            return "expired in queue"
        if self.batch_latency.count >= MIN_P99_SAMPLES:
            p99 = self.batch_latency.quantile(0.99)
            if deadline.remaining() < p99:
                return (
                    f"remaining budget {deadline.remaining() * 1000:.0f}ms "
                    f"below observed batch p99 {p99 * 1000:.0f}ms"
                )
        return None

    def _refuse_deadline(self, future, verdict):
        error = DeadlineExceeded(where=verdict)
        counter = (
            "deadline_expired" if verdict.startswith("expired")
            else "deadline_refused"
        )
        with self.stats.lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        try:
            future.set_exception(error)
        except Exception:
            pass  # consumer raced us to a terminal state; nothing owed

    def _process_group(self, group):
        """Evaluate one coalesced batch; resolve every member's future.

        A failing batch of several requests is retried one request at a
        time, so a single poisoned request fails alone while its
        batch-mates (and everything queued behind them) still complete.
        """
        with self.stats.lock:
            self.stats.batches += 1
            self.stats.coalesced_requests += len(group) - 1
        started = time.monotonic()
        try:
            self._evaluate_group(group)
        except Exception as exc:
            pending = [(r, f) for r, f in group if not f.done()]
            if len(pending) > 1:
                for member in pending:
                    self._process_group([member])
                return
            if not pending:
                return
            error = ServiceError(f"evaluation batch failed: {exc!r}")
            error.__cause__ = exc
            with self.stats.lock:
                self.stats.failed += 1
            pending[0][1].set_exception(error)
        finally:
            self.batch_latency.observe(time.monotonic() - started)

    def _reap_group(self, group):
        """Drop members abandoned or expired since they were marked
        running (typically while a gray node's stall parked the batch);
        returns the members still worth simulating."""
        live = []
        for request, future in group:
            with self._abandoned_lock:
                abandoned = future in self._abandoned
                self._abandoned.discard(future)
            if abandoned:
                with self.stats.lock:
                    self.stats.cancelled += 1
                try:
                    future.set_exception(CancelledError())
                except Exception:
                    pass
                continue
            if request.deadline is not None and request.deadline.expired:
                self._refuse_deadline(future, "expired before simulation")
                continue
            live.append((request, future))
        return live

    def _evaluate_group(self, group):
        fault = maybe_fault(SITE_DISPATCH)
        if fault is not None and fault.kind != STALL:
            # a transient dispatcher failure: nothing was simulated or
            # cached, so a client retry re-enters this path cleanly
            raise RuntimeError(
                f"injected transient dispatch fault ({fault.kind})"
            )
        if fault is not None:
            # the gray-node latency fault: park the whole batch, then
            # proceed -- the node stays alive (health answers off the
            # event loop) but evaluation latency balloons
            time.sleep(fault.seconds)
        group = self._reap_group(group)
        if not group:
            return
        resolved = {}       # cache key -> outcome, hits + this batch
        fresh_fsms, fresh_keys = [], []
        for request, _ in group:
            for fsm, key in zip(request.fsms, request.cache_keys()):
                if key in resolved or key in fresh_keys:
                    continue
                cached = self.cache.get(key)
                if cached is not None:
                    resolved[key] = cached
                else:
                    fresh_fsms.append(fsm)
                    fresh_keys.append(key)
        if fresh_fsms:
            first = group[0][0]
            outcomes = evaluate_population(
                first.grid, fresh_fsms, first.suite, t_max=first.t_max,
                lane_block=self.lane_block,
                pool=None if self.pool.inline else self.pool,
                backend=first.backend,
            )
            for key, outcome in zip(fresh_keys, outcomes):
                self.cache.put(key, outcome)
                resolved[key] = outcome
            with self.stats.lock:
                self.stats.simulated_fsms += len(fresh_fsms)
        for request, future in group:
            future.set_result([resolved[key] for key in request.cache_keys()])
            with self.stats.lock:
                self.stats.completed += 1


class ServiceClient:
    """Synchronous in-process client view of an :class:`EvaluationService`.

    One of the five :class:`repro.service.Client` implementations:
    :meth:`evaluate` speaks the wire workload vocabulary (``grid="T"``,
    ``size=16``, ``agents=8``, ``fields=100``, ``seed=2013``,
    ``t_max=200``, ``fsm=...``, ``priority=...``), identical to the
    TCP, async, router and HTTP clients, and returns one
    :class:`repro.results.EvaluationResult` per FSM named by the spec.
    The pre-redesign positional shape ``evaluate(grid_obj, fsms,
    suite)`` still works with a :class:`DeprecationWarning`.

    Hardening comes from ``options=`` (a
    :class:`repro.service.ClientOptions`): ``retry_policy`` retries
    transient :class:`ServiceError` failures with backoff -- the shared
    evaluation cache makes retries free of double simulation --
    ``breaker`` refuses calls fast once the service fails repeatedly
    (:class:`repro.resilience.CircuitOpenError` is never retried).
    ``own_service=True`` makes :meth:`close` shut the service down
    (:func:`repro.api.connect` uses this for in-process connections).
    """

    def __init__(self, service, options=None, retry_policy=None,
                 breaker=None, own_service=False):
        from repro.service.client import resolve_options

        options = resolve_options(
            options, where="ServiceClient",
            retry_policy=retry_policy, breaker=breaker,
        )
        self.service = service
        self.options = options
        self.retry_policy = options.retry_policy
        self.breaker = options.breaker
        self._own_service = own_service
        self._session = None

    def _call(self, fn):
        guarded = fn if self.breaker is None else (
            lambda: self.breaker.call(fn)
        )
        if self.retry_policy is None:
            return guarded()
        return self.retry_policy.run(guarded, retryable=(ServiceError,))

    def _spec_session(self):
        # Imported lazily: jsonl imports this module.
        if self._session is None:
            from repro.service.jsonl import ServeSession

            self._session = ServeSession(self.service)
        return self._session

    def evaluate(self, *legacy, **spec):
        """One :class:`~repro.results.EvaluationResult` per spec FSM.

        The wire-spec keywords are the API; the positional
        ``(grid_obj, fsms, suite, t_max=, timeout=)`` shape from before
        the unified client surface forwards with a deprecation warning.
        """
        if legacy:
            warn_deprecated(
                "ServiceClient.evaluate(grid, fsms, suite, ...)",
                "evaluate(**spec) with the wire workload vocabulary",
            )
            grid, fsms, suite = legacy[:3]
            t_max = legacy[3] if len(legacy) > 3 else spec.pop("t_max", 200)
            timeout = spec.pop("timeout", None)
            return self._call(
                lambda: self.service.evaluate(grid, fsms, suite,
                                              t_max=t_max, timeout=timeout)
            )
        # the transport-side spelling: forwarded (with a warning), not
        # silently swallowed into the wire spec where build_request
        # would ignore it
        legacy_timeout = spec.pop("request_timeout", None)
        if legacy_timeout is not None:
            warn_deprecated(
                "ServiceClient.evaluate(request_timeout=...)",
                "evaluate(timeout=...)",
            )
        timeout = spec.pop(
            "timeout",
            legacy_timeout if legacy_timeout is not None
            else self.options.timeout,
        )

        def run():
            _, future = self._spec_session().submit_spec(dict(spec))
            return future.result(timeout)

        return self._call(run)

    def evaluate_many(self, specs):
        """Per-spec result lists, in order; all submitted before waiting."""
        specs = [dict(spec) for spec in specs]

        def run():
            futures = [
                self._spec_session().submit_spec(spec)[1] for spec in specs
            ]
            return [
                future.result(self.options.timeout) for future in futures
            ]

        return self._call(run)

    def evaluate_fsm(self, grid, fsm, suite, t_max=200, timeout=None):
        """Single-FSM convenience returning the bare outcome.

        Deprecated alongside the positional :meth:`evaluate` shape.
        """
        return self.evaluate(grid, [fsm], suite, t_max, timeout=timeout)[0]

    def stats(self):
        return self.service.snapshot()

    def health(self):
        return self.service.health()

    def close(self):
        if self._own_service:
            self.service.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False
