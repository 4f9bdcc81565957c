"""JSON-lines codec behind ``repro-a2a serve``.

One request per input line::

    {"id": "r1", "grid": "T", "size": 16, "agents": 8, "fields": 100,
     "seed": 2013, "t_max": 200, "fsm": "published"}

``fsm`` is ``"published"`` (default), ``"evolved"``, a
``{"genome": [[next_state, set_color, move, turn], ...]}`` table, or a
list of those for a multi-FSM request.  An optional ``"backend"`` picks
the simulator step backend (``"numpy"`` default / ``"numba"``); results
are bit-identical either way, so it only affects batching and speed.  One response per request, in
submission order::

    {"id": "r1", "outcomes": [{"fitness": ..., "mean_time": ...,
     "n_fields": ..., "n_successful_fields": ...,
     "completely_successful": ...}]}

Grids and suites are built once per workload by :func:`paper_workload`
and shared, so a burst of lines naming the same workload coalesces into
one batch in the service.

:class:`ServeSession` is the session under every front end: the stdio
loop here and the op table the TCP and HTTP servers share
(:class:`repro.service.transport.BaseAsyncServer`).  An optional
``"idem"`` field names a request's **idempotency key**: resubmitting the
key (a client retrying after a dropped connection) attaches to the first
submission instead of enqueueing the work again.  The stdio loop answers
control lines (``{"op": "ping"|"stats"|"health"|...}``) through
:meth:`ServeSession.handle_op`, without touching the queue, so a wedged
dispatcher cannot stop ``health`` from reporting exactly that.
"""

import functools
import json
import threading
import uuid
from concurrent.futures import CancelledError, Future, InvalidStateError

from repro._compat import normalize_grid_kind
from repro.results import EvaluationResult
from repro.configs.suite import paper_suite
from repro.core.fsm import FSM
from repro.core.evolved import evolved_fsm
from repro.core.published import published_fsm
from repro.grids import make_grid
from repro.resilience.deadline import DEADLINE_FIELD, Deadline
from repro.service.service import EvaluationRequest, ServiceError


#: How many distinct workloads :func:`paper_workload` keeps built.
WORKLOAD_MEMO_SIZE = 8


@functools.lru_cache(maxsize=WORKLOAD_MEMO_SIZE)
def paper_workload(kind, size, agents, fields, seed):
    """The ``(grid, suite)`` a workload spec names, built once and shared.

    Grids and suites are never mutated, so every caller naming the same
    workload -- any :class:`ServeSession`, or :func:`repro.api.evaluate`
    -- gets the same pair, and the suite's fingerprint is hashed once.
    Only the ``WORKLOAD_MEMO_SIZE`` most recent workloads are kept, so
    a client cycling through seeds cannot grow it.  ``kind`` must
    already be canonical (``"S"``/``"T"``); pass arguments positionally.
    """
    grid = make_grid(kind, size)
    return grid, paper_suite(grid, agents, n_random=fields, seed=seed)


def build_fsm(spec):
    """An FSM from its wire spec (name string or genome table)."""
    if spec == "published" or spec is None:
        return None  # resolved per grid kind by the caller
    if spec == "evolved":
        return None
    if isinstance(spec, dict) and "genome" in spec:
        return FSM.from_genome(spec["genome"], name=spec.get("name"))
    raise ValueError(f"unknown fsm spec: {spec!r}")


def _resolve_fsm(spec, kind):
    if spec == "published" or spec is None:
        return published_fsm(kind)
    if spec == "evolved":
        return evolved_fsm(kind)
    return build_fsm(spec)


def copy_future(original):
    """A detached future mirroring ``original``'s eventual outcome.

    Every consumer of a shared (idempotent) submission gets its own
    copy: cancelling a copy -- a client timing out, a TCP connection
    dying -- can never cancel the original that other consumers (and
    the dispatcher) still hold.
    """
    copy = Future()

    def transfer(done):
        if not copy.set_running_or_notify_cancel():
            return  # this consumer cancelled its view; others stand
        try:
            _set_outcome(copy, done)
        except InvalidStateError:
            pass

    original.add_done_callback(transfer)
    return copy


def _set_outcome(target, done):
    """Settle ``target`` like ``done``; a cancellation becomes a
    :class:`CancelledError` exception."""
    if done.cancelled():
        target.set_exception(CancelledError())
    elif done.exception() is not None:
        target.set_exception(done.exception())
    else:
        target.set_result(done.result())


class IdempotencyRegistry:
    """Dedupe submissions by client-chosen key.

    The first submission under a key runs; every submission under the
    same key (including the first) receives a :func:`copy_future` of
    the original, so retries share one evaluation and cancellation
    never propagates between consumers.  Oldest entries are evicted
    past ``max_entries`` -- an idempotency window, not a ledger.

    Once an original settles its entry is swapped for a fresh future
    with the same outcome, so a kept key holds that outcome, not the
    consumers that attached to it.
    """

    def __init__(self, max_entries=4096):
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        self._futures = {}
        self.hits = 0
        self.misses = 0
        self.resubmitted = 0

    def get(self, key):
        """The original future under ``key``, or ``None``.

        No copy, no counters: this is the ``cancel`` op's lookup --
        cancellation must reach the *original* future (the one the
        dispatcher holds), not a consumer's detached view.
        """
        with self._lock:
            return self._futures.get(key)

    def resolve(self, key, submit):
        """The future for ``key``, submitting via ``submit()`` once.

        Only *successful* (or still-running) work is pinned: a key whose
        original future failed or was cancelled is resubmitted, because
        idempotency exists to prevent double simulation of completed
        work, not to make one transient failure permanent for every
        retry that follows it.
        """
        fresh = False
        with self._lock:
            original = self._futures.get(key)
            if original is not None and original.done() and (
                original.cancelled() or original.exception() is not None
            ):
                self.resubmitted += 1
                original = None
            if original is None:
                self.misses += 1
                original = submit()
                fresh = True
                self._futures[key] = original
                while len(self._futures) > self.max_entries:
                    self._futures.pop(next(iter(self._futures)))
            else:
                self.hits += 1
        copy = copy_future(original)
        if fresh:
            # added outside the lock: a submission that settled already
            # runs this callback at once, in this thread
            original.add_done_callback(
                lambda done: self._settle(key, done)
            )
        return copy

    def _settle(self, key, original):
        """Swap ``key``'s settled original for a future with its outcome.

        ``concurrent.futures.Future`` keeps its done-callbacks for life,
        so a settled original still holds every consumer's
        :func:`copy_future` (and whatever that copy holds, such as an
        asyncio wrapper).  The swapped-in future holds no callbacks.
        """
        settled = Future()
        _set_outcome(settled, original)
        with self._lock:
            if self._futures.get(key) is original:
                self._futures[key] = settled

    def stats(self):
        with self._lock:
            return {
                "entries": len(self._futures),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "resubmitted": self.resubmitted,
            }


class ServeSession:
    """Decode request lines into service submissions, caching workloads.

    ``journal`` (a :class:`repro.resilience.durability.RequestJournal`)
    arms write-ahead logging: every evaluation spec with an uncached
    FSM is journalled -- durably, before dispatch -- under a key, and
    marked committed when its results land in the cache; an all-hit
    spec is dispatched unjournalled.  The key is the client's ``idem``,
    or a fresh one for a bare spec; only client keys enter the
    idempotency registry, because a fresh key is never sent again.
    :meth:`replay_journal` resubmits the uncommitted suffix after a
    crash; clients re-issuing their original keys attach to the
    replayed futures.

    Grids and suites come from :func:`paper_workload`, so a suite is
    built -- and its fingerprint hashed -- once per workload, not once
    per request.
    """

    def __init__(self, service, journal=None, replicator=None):
        self.service = service
        self.journal = journal
        # cluster replication (a repro.service.replication.Replicator):
        # committed results fan out to the ring's successor owners so a
        # failover target already holds them
        self.replicator = replicator
        self.idempotency = IdempotencyRegistry()
        # hedging observability: how many submissions declared
        # themselves re-issued hedges, how many cancel ops arrived, and
        # how many actually reaped an in-flight submission
        self.hedged_requests = 0
        self.cancel_ops = 0
        self.cancelled_in_flight = 0

    def build_request(self, spec):
        """An :class:`EvaluationRequest` from one decoded wire spec."""
        if not isinstance(spec, dict):
            raise ValueError("request must be a JSON object")
        kind = normalize_grid_kind(spec.get("grid", "T"), warn=False)
        grid, suite = paper_workload(
            kind,
            int(spec.get("size", 16)),
            int(spec.get("agents", 8)),
            int(spec.get("fields", 100)),
            int(spec.get("seed", 2013)),
        )
        fsm_spec = spec.get("fsm", "published")
        specs = fsm_spec if isinstance(fsm_spec, list) else [fsm_spec]
        fsms = [_resolve_fsm(one, kind) for one in specs]
        # the remaining end-to-end budget this hop was handed; rebased
        # onto the local monotonic clock at decode time, so queue wait
        # from here on spends it
        deadline = Deadline.from_wire(spec.get(DEADLINE_FIELD))
        return EvaluationRequest(
            grid, fsms, suite, t_max=int(spec.get("t_max", 200)),
            backend=spec.get("backend"),
            priority=spec.get("priority"),
            deadline=deadline,
        )

    def _arm_replication(self, spec, request, future):
        """Fan committed results out to the replica set, asynchronously.

        Armed on the *original* future inside the submit closures, so a
        shared (idempotent) submission offers its records exactly once
        no matter how many consumers attach.  The callback only queues;
        the replicator's worker does the sending -- a slow or dead
        replica can never stall the serving path.
        """
        replicator = self.replicator
        if replicator is None or not isinstance(spec, dict):
            return
        keys = list(request.cache_keys())

        def fan_out(done):
            if done.cancelled() or done.exception() is not None:
                return   # nothing committed, nothing to replicate
            try:
                replicator.offer(spec, keys, done.result())
            except Exception:
                pass   # replication must never fail the request

        future.add_done_callback(fan_out)

    def _journaled_submit(self, idem, spec, record=True):
        """Submit under the write-ahead journal: accept, dispatch, commit.

        Returns the original future.  A request whose every result is
        already cached carries no work to protect: it is dispatched with
        no accept and no commit, and counted as ``bypassed``.  Neither
        cache evicts, so the dispatcher answers it from the cache, and
        a client retrying after a crash is again a hit.
        ``record=False`` is the replay path -- the accept line already
        exists, so only the commit callback is re-armed, even when the
        results are cached by now: the commit keeps the entry from
        being replayed at every restart.
        """
        request = self.build_request(spec)   # validate before journaling
        bypass = record and all(
            key in self.service.cache for key in request.cache_keys()
        )
        if bypass:
            self.journal.bypassed += 1
        elif record:
            self.journal.accept(idem, spec)
        future = self.service.submit(request)

        def mark_committed(done):
            if done.cancelled() or done.exception() is not None:
                return   # uncommitted: the next restart replays it
            try:
                self.journal.commit(idem)
            except OSError:
                pass   # a lost commit costs one replay, never a result

        if not bypass:
            future.add_done_callback(mark_committed)
        self._arm_replication(spec, request, future)
        return future

    def submit_spec(self, spec):
        """Submit one decoded request; ``(request_id, future)``.

        A spec carrying ``"idem"`` goes through the idempotency
        registry: duplicates of an earlier key attach to the first
        submission instead of re-enqueueing the work.  With a journal
        armed, every spec with work to do is write-ahead logged; one
        whose results are all cached is not (see
        :meth:`_journaled_submit`).  A bare spec is journalled under a
        fresh key (the journal needs an identity to correlate its
        commit) but bypasses the registry, since no client holds that
        key; it still gets a :func:`copy_future`, so a consumer giving
        up never cancels journalled work.
        """
        request_id = spec.get("id") if isinstance(spec, dict) else None
        idem = spec.get("idem") if isinstance(spec, dict) else None
        if isinstance(spec, dict) and spec.get("hedge"):
            self.hedged_requests += 1
        if self.journal is not None and isinstance(spec, dict):
            if idem is None:
                return request_id, copy_future(
                    self._journaled_submit(uuid.uuid4().hex, spec)
                )
            return request_id, self.idempotency.resolve(
                idem, lambda: self._journaled_submit(idem, spec)
            )

        def submit():
            request = self.build_request(spec)
            future = self.service.submit(request)
            self._arm_replication(spec, request, future)
            return future

        if idem is None:
            return request_id, submit()
        return request_id, self.idempotency.resolve(idem, submit)

    def replay_journal(self):
        """Resubmit the journal's uncommitted suffix; returns the count.

        Committed work is *not* resubmitted -- on a warm persistent
        cache a client re-fetching it costs a lookup, not a simulation.
        Replayed submissions run under their original idempotency keys,
        so a client retrying its in-flight request attaches to the
        replay instead of re-enqueueing.  Corrupt entries are skipped:
        one poisoned line must not block recovery of the rest.

        The journal is compacted down to those entries before the first
        new accept, so it holds at most one server lifetime's records;
        a journal that cannot be rewritten (read-only) is replayed as
        it is.
        """
        if self.journal is None:
            return 0
        entries = self.journal.replay_entries()
        try:
            self.journal.compact()
        except OSError:
            pass
        replayed = 0
        for idem, spec in entries:
            try:
                self.idempotency.resolve(
                    idem,
                    lambda: self._journaled_submit(idem, spec, record=False),
                )
            except (ValueError, KeyError, TypeError, ServiceError):
                continue
            replayed += 1
        self.journal.replayed += replayed
        return replayed

    def submit_line(self, line):
        """Parse one request line and submit it; ``(request_id, future)``."""
        return self.submit_spec(json.loads(line))

    def cancel_idem(self, idem):
        """Cancel the in-flight submission under ``idem``; True if reaped.

        The hedging router's loser-cancellation path.  A queued future
        is cancelled outright (the PR-3 queue guarantee); one already
        claimed by the dispatcher is *abandoned* instead -- the
        dispatcher reaps it at the last checkpoint before simulation,
        so a cancelled hedge loser never costs an evaluation.  Either
        way the idempotency registry's resubmit-on-failure rule means
        the key is released: a later submission under it runs fresh.
        """
        self.cancel_ops += 1
        if idem is None:
            return False
        original = self.idempotency.get(idem)
        if original is None:
            return False
        if original.cancel():
            self.cancelled_in_flight += 1
            return True
        abandon = getattr(self.service, "abandon", None)
        if abandon is not None and abandon(original):
            self.cancelled_in_flight += 1
            return True
        return False

    def hedging_stats(self):
        return {
            "hedged_requests": self.hedged_requests,
            "cancel_ops": self.cancel_ops,
            "cancelled_in_flight": self.cancelled_in_flight,
        }

    def health(self):
        """The service's health payload plus idempotency/journal counters."""
        payload = self.service.health()
        payload["idempotency"] = self.idempotency.stats()
        payload["hedging"] = self.hedging_stats()
        if self.journal is not None:
            payload["journal"] = self.journal.stats()
        if self.replicator is not None:
            # the digest inside this summary is what gossip peers
            # compare for anti-entropy -- health *is* the exchange
            payload["replication"] = self.replicator.summary()
        return payload

    def stats(self):
        """The service snapshot plus idempotency/journal counters.

        This (not the bare service snapshot) is what the ``stats`` op
        returns on both transports, so monitors and the chaos tests
        can assert on watchdog restarts and journal replays
        without a separate ``health`` round-trip.
        """
        payload = self.service.snapshot()
        payload["idempotency"] = self.idempotency.stats()
        payload["hedging"] = self.hedging_stats()
        if self.journal is not None:
            payload["journal"] = self.journal.stats()
        if self.replicator is not None:
            payload["replication"] = self.replicator.summary()
        return payload

    def replicate(self, spec):
        """Apply a peer's pushed records (write fanout, hint drain, read
        repair) to the local cache, never journaled or fanned out
        again; the count applied."""
        return self._replicator().apply(
            spec.get("records") or [], source=spec.get("from")
        )

    def sync(self, spec):
        """The records of the digest buckets a peer pulls (anti-entropy)."""
        return self._replicator().sync_payload(spec.get("buckets"))

    def _replicator(self):
        if self.replicator is None:
            raise ValueError("replication not enabled on this node")
        return self.replicator

    def handle_op(self, spec):
        """Answer a control line, or ``None`` for evaluation requests.

        Ops never enter the request queue, so they stay answerable even
        when the dispatcher is saturated (or wedged -- which is exactly
        what ``health`` exists to report).
        """
        if not isinstance(spec, dict) or "op" not in spec:
            return None
        op = spec["op"]
        base = {"op": op}
        if spec.get("id") is not None:
            base["id"] = spec["id"]
        if op == "ping":
            return {**base, "ok": True}
        if op == "stats":
            return {**base, "stats": self.stats()}
        if op == "health":
            return {**base, "health": self.health()}
        if op == "cancel":
            return {**base, "ok": True,
                    "cancelled": self.cancel_idem(spec.get("idem"))}
        if op == "replicate":
            return {**base, "ok": True, "applied": self.replicate(spec)}
        if op == "sync":
            return {**base, "ok": True, "records": self.sync(spec)}
        raise ValueError(f"unknown op {op!r}")


def outcome_to_dict(outcome):
    """The wire form of one :class:`repro.results.EvaluationResult`."""
    return outcome.to_json()


def outcome_from_dict(payload):
    """An :class:`repro.results.EvaluationResult` back from its wire form."""
    return EvaluationResult.from_json(payload)


def format_response(request_id, future, timeout=None):
    """Resolve one submission into its JSON response line."""
    try:
        outcomes = future.result(timeout)
    except ServiceError as exc:
        return json.dumps({"id": request_id, "error": str(exc)})
    return json.dumps(
        {
            "id": request_id,
            "outcomes": [outcome_to_dict(outcome) for outcome in outcomes],
        }
    )
