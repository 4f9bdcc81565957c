"""A persistent worker-process pool with a watchdog and inline fallback.

Forking workers for every batch would charge a long-lived service, a GA
run, or the multi-run / campaign protocols a fork-and-teardown tax per
batch.  :class:`WorkerPool` keeps one ``ProcessPoolExecutor`` alive
across calls and is shared by everything that shards work; a caller
that needs a pool only for the length of one call takes it from
:func:`owned_pool`, which joins its workers before returning:

* ``n_workers <= 1`` runs jobs **inline** in the calling process -- no
  subprocess, bit-identical results, and the configuration every test
  can fall back to;
* a job that *raises* inside a worker surfaces as
  :class:`WorkerJobError` carrying the original exception, and the pool
  stays usable -- the queue is drainable, not hung;
* a worker that *dies* (segfault, ``os._exit``) is detected by the
  watchdog: the broken executor is killed and rebuilt, the batch's
  unfinished jobs are **requeued** onto the fresh workers, and -- jobs
  being deterministic -- the batch completes bit-exactly.  Only when
  the same batch keeps dying past ``max_restarts`` does the failure
  surface as :class:`WorkerCrashError` (a persistent poison pill, not
  a transient fault);
* a worker that *hangs* (with ``job_timeout`` set) is detected the same
  way -- no job heartbeat within the timeout -- and handled identically,
  surfacing as :class:`WorkerHangError` only past ``max_restarts``.

Results always come back in submission order, which is what keeps every
sharded caller bit-exact versus its serial path.  Fault injection (the
chaos battery's ``pool.job`` site) is decided on the submission side,
so a scheduled crash/hang/slow fault rides into exactly one job
regardless of which worker process picks it up -- and the requeued
retry of that job runs clean.
"""

import multiprocessing
import os
import signal
import time
from contextlib import contextmanager
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError

from repro.resilience.faults import CRASH, HANG, SITE_POOL_JOB, maybe_fault


class WorkerJobError(RuntimeError):
    """A job raised inside a worker; the original error is ``__cause__``."""


class WorkerCrashError(RuntimeError):
    """Workers kept dying past the restart budget; the pool was rebuilt."""


class WorkerHangError(WorkerCrashError):
    """Workers kept hanging past the restart budget; the pool was rebuilt."""


def _invoke(call):
    """Worker entry point for :meth:`WorkerPool.map_calls`."""
    fn, args, kwargs = call
    return fn(*args, **(kwargs or {}))


def _invoke_with_fault(fault, fn, payload):
    """Worker entry point for a job carrying an injected fault."""
    if fault.kind == CRASH:
        os._exit(113)
    if fault.kind == HANG:
        time.sleep(fault.seconds or 3600.0)
    else:  # SLOW / STALL: park, then compute normally and intact
        time.sleep(fault.seconds or 0.05)
    return fn(payload)


def available_cores():
    """CPUs this process may run on: its affinity mask where the platform
    reports one (``taskset``, cpusets), else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:
        return os.cpu_count() or 1


def _pool_context():
    """Prefer fork (cheap, no re-import) where the platform offers it."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _worker_init():
    """Detach inherited parent signal plumbing in a fresh worker.

    Forked workers inherit the parent's signal dispositions *and* its
    ``signal.set_wakeup_fd`` pipe.  When the parent is an asyncio server
    with ``loop.add_signal_handler`` installed, a SIGTERM delivered to a
    worker (``ProcessPoolExecutor`` terminates surviving siblings when
    the pool breaks) would write the signal byte into the *parent's*
    self-pipe -- the parent loop then runs its own SIGTERM callback and
    shuts down a perfectly healthy server.  Resetting the wakeup fd and
    restoring SIGTERM's default action confines worker signals to the
    worker.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


class WorkerPool:
    """A reusable pool of worker processes (or an inline stand-in).

    ``n_workers=None`` sizes the pool to :func:`available_cores`;
    ``n_workers<=1`` never forks and simply runs jobs in the calling process.

    ``job_timeout`` arms the watchdog: a job not completing within that
    many seconds marks its workers hung, kills and rebuilds the
    executor, and requeues the batch's unfinished jobs.  ``None`` (the
    default) disables hang detection -- the production configuration
    pays nothing.  ``max_restarts`` bounds how many times one batch may
    trigger recovery (crash or hang) before the error surfaces.
    """

    def __init__(self, n_workers=None, job_timeout=None, max_restarts=2):
        if n_workers is None:
            n_workers = available_cores()
        self.n_workers = max(1, int(n_workers))
        self.job_timeout = job_timeout
        self.max_restarts = max(0, int(max_restarts))
        self._executor = None
        # watchdog counters, reported by health()
        self.restarts = 0
        self.crash_recoveries = 0
        self.hang_recoveries = 0
        self.requeued_jobs = 0
        self.jobs_dispatched = 0
        self.jobs_completed = 0

    @property
    def inline(self):
        """True when jobs run in the calling process (no subprocesses)."""
        return self.n_workers <= 1

    def _ensure_executor(self):
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_workers, mp_context=_pool_context(),
                initializer=_worker_init,
            )
        return self._executor

    def _discard_executor(self, kill=False):
        executor, self._executor = self._executor, None
        if executor is None:
            return
        if kill:
            # a hung worker never finishes its job; interpreter exit would
            # otherwise block joining it, so recovery kills outright.
            for process in list(getattr(executor, "_processes", {}).values()):
                try:
                    process.kill()
                except (OSError, AttributeError):
                    pass
        # a recovery must not wait on the hung workers it just killed; a
        # close joins its workers so none outlives the pool's owner
        executor.shutdown(wait=not kill, cancel_futures=True)

    def health(self):
        """Liveness and watchdog counters, for the ``health`` op."""
        return {
            "n_workers": self.n_workers,
            "inline": self.inline,
            "alive": self.inline or self._executor is not None,
            "job_timeout": self.job_timeout,
            "max_restarts": self.max_restarts,
            "restarts": self.restarts,
            "crash_recoveries": self.crash_recoveries,
            "hang_recoveries": self.hang_recoveries,
            "requeued_jobs": self.requeued_jobs,
            "jobs_dispatched": self.jobs_dispatched,
            "jobs_completed": self.jobs_completed,
        }

    def _submit_batch(self, executor, pending, fn):
        """Submit jobs, riding any scheduled ``pool.job`` fault along.

        A worker that dies while jobs are still being submitted breaks
        the executor under ``submit``; the jobs not yet submitted are
        left out, and :meth:`map_ordered` recovers as from any crash.
        """
        futures = {}
        for index, payload in pending:
            fault = maybe_fault(SITE_POOL_JOB)
            try:
                if fault is not None:
                    futures[index] = executor.submit(
                        _invoke_with_fault, fault, fn, payload
                    )
                else:
                    futures[index] = executor.submit(fn, payload)
            except BrokenExecutor:
                break
            self.jobs_dispatched += 1
        return futures

    def map_ordered(self, fn, payloads):
        """``[fn(p) for p in payloads]``, sharded; submission order kept."""
        payloads = list(payloads)
        if self.inline:
            results = []
            for payload in payloads:
                self.jobs_dispatched += 1
                try:
                    results.append(fn(payload))
                except Exception as exc:
                    raise WorkerJobError(
                        f"worker job failed: {exc!r}"
                    ) from exc
                self.jobs_completed += 1
            return results
        results = {}
        pending = list(enumerate(payloads))
        restarts_left = self.max_restarts
        while pending:
            executor = self._ensure_executor()
            futures = self._submit_batch(executor, pending, fn)
            failure = None
            for index, _ in pending:
                future = futures.get(index)
                if future is None:   # never submitted: the executor broke
                    failure = "crash"
                    break
                try:
                    results[index] = future.result(timeout=self.job_timeout)
                    self.jobs_completed += 1
                except BrokenExecutor:
                    failure = "crash"
                    break
                except FutureTimeoutError:
                    failure = "hang"
                    break
                except Exception as exc:
                    for waiter in futures.values():
                        waiter.cancel()
                    raise WorkerJobError(f"worker job failed: {exc!r}") from exc
            if failure is None:
                break
            # harvest jobs that completed before the failure was noticed
            for index, _ in pending:
                future = futures.get(index)
                if (
                    index not in results
                    and future is not None
                    and future.done()
                    and not future.cancelled()
                    and future.exception() is None
                ):
                    results[index] = future.result()
                    self.jobs_completed += 1
            self._discard_executor(kill=True)
            pending = [
                (index, payload) for index, payload in pending
                if index not in results
            ]
            if failure == "crash":
                self.crash_recoveries += 1
            else:
                self.hang_recoveries += 1
            if restarts_left <= 0:
                if failure == "hang":
                    raise WorkerHangError(
                        f"workers hung past job_timeout={self.job_timeout}s "
                        f"on {len(pending)} job(s) {self.max_restarts + 1} "
                        "times in a row; the pool was rebuilt and remains "
                        "usable"
                    )
                raise WorkerCrashError(
                    f"worker processes died on {len(pending)} job(s) "
                    f"{self.max_restarts + 1} times in a row; the pool was "
                    "rebuilt and remains usable"
                )
            restarts_left -= 1
            self.restarts += 1
            self.requeued_jobs += len(pending)
        return [results[index] for index in range(len(payloads))]

    def map_calls(self, calls):
        """Run ``(fn, args, kwargs)`` triples; results in submission order."""
        return self.map_ordered(_invoke, calls)

    # executors do not pickle; a pool reference crossing a process
    # boundary arrives inline-capable and re-forks lazily if ever used.
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_executor"] = None
        return state

    def close(self):
        """Shut the workers down and wait for them to exit; the pool can
        be lazily revived later."""
        self._discard_executor()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


@contextmanager
def owned_pool(pool=None, n_workers=None):
    """The pool a call shards over, closed on exit only if it made it.

    Yields ``pool`` as given when the caller passed one; otherwise a
    fresh :class:`WorkerPool` of ``n_workers`` when that is more than
    one, else ``None`` (run inline, fork nothing).  The fresh pool forks
    lazily, on its first sharded job, and its workers have exited by the
    time the ``with`` block is left, on return and on exceptions alike.
    """
    if pool is not None or not n_workers or n_workers <= 1:
        yield pool
        return
    own = WorkerPool(n_workers)
    try:
        yield own
    finally:
        own.close()


def map_jobs(pool, fn, payloads):
    """``[fn(p) ...]`` through ``pool`` when one is given, else inline.

    The single code path the sharded experiments use: the serial and
    sharded runs execute the exact same job functions on the exact same
    payloads, differing only in *where* each job runs -- which is what
    makes sharding bit-exact by construction.
    """
    if pool is not None and not pool.inline:
        return pool.map_ordered(fn, payloads)
    return [fn(payload) for payload in payloads]


def run_calls(pool, calls):
    """Like :func:`map_jobs` for ``(fn, args, kwargs)`` triples."""
    if pool is not None and not pool.inline:
        return pool.map_calls(calls)
    return [fn(*args, **(kwargs or {})) for fn, args, kwargs in calls]
