"""Write-fanout replication, hinted handoff and anti-entropy repair.

Every cluster node's :class:`~repro.service.cache_store.
PersistentEvaluationCache` used to be node-local: a node death, a gray
demotion or a hedged read landing off the primary meant a cold cache
and a silent re-simulation.  This module makes committed results
fleet-durable without a quorum write path:

* **write fanout** -- after a result commits locally (the
  :class:`~repro.service.jsonl.ServeSession` future resolves and the
  journal commit lands), :class:`Replicator` asynchronously sends the
  ``(cache key, outcome)`` records to the first ``factor`` owners on
  the :class:`~repro.service.cluster.HashRing` preference list for the
  request's batch key.  That list is *exactly* the failover chain
  :class:`~repro.service.cluster.RouterClient` walks, so by
  construction the node a client fails over to already holds the
  result -- failover is a warm read, never a recompute;
* **hinted handoff** -- a replica that cannot be reached gets a
  durable :class:`HintStore` record (JSONL, the same
  torn-tail-truncate discipline as
  :class:`~repro.resilience.durability.RequestJournal`); hints drain
  when gossip reports the peer alive again, so a node that was dead
  during the fanout still converges on restart;
* **anti-entropy** -- each node keeps an incremental Merkle-style
  :class:`CacheDigest` over its cache keys (XOR of per-key MD5s,
  bucketed by key hash; order-independent and O(1) per insert).  The
  digest summary piggybacks on the existing gossip ``health``
  exchange; on a root mismatch only the divergent buckets are pulled
  over a ``sync`` op.  Gossip is symmetric, so two diverged nodes pull
  from each other and converge on the union -- after a partition heals
  every live node ends at the same root;
* **read-repair** -- a failover or hedged read served by a replica
  commits on that replica, which re-offers the records to the owner
  chain; the (dead or demoted) primary is not acked, so the records
  are re-sent -- or hinted and drained on recovery -- writing the
  result back through the primary's cache.

Replication is deliberately asynchronous and idempotent: evaluation is
deterministic and records carry full cache-key identity, so applying a
record twice is a no-op (``PersistentEvaluationCache.put`` re-appends
nothing for a known-equal outcome) and ordering between replicas never
matters.  The ``replication.send`` fault site (outside the default
randomized pool, like the cluster sites) lets the chaos battery cut
fanout sends deterministically and assert the hint path covers them.
"""

import hashlib
import json
import os
import socket
import threading
import time
import uuid
from collections import OrderedDict, deque

from repro.resilience.durability import split_records
from repro.resilience.faults import (
    DELAY,
    DISCONNECT,
    SITE_HINT_APPEND,
    SITE_REPLICATION_SEND,
    maybe_fault,
)
from repro.service.cache_store import decode_key, encode_key
from repro.service.metrics import LatencyHistogram
from repro.results import EvaluationResult

#: Hint store format marker, first field of every record.
HINT_VERSION = 1

#: Record types.
RECORD_HINT = "hint"
RECORD_DRAINED = "drained"

#: Buckets in a cache digest.  Divergence is detected per bucket, so
#: this bounds how much a single ``sync`` pull streams: 16 buckets on
#: the workloads this repo serves keeps a pull to a handful of records.
DIGEST_BUCKETS = 16

#: Acked-target entries kept before the oldest are evicted.  Eviction
#: only costs a redundant (idempotent) re-send, never correctness.
MAX_ACKED_KEYS = 65536


def encode_wire_record(key, outcome):
    """One replication wire record: ``[encoded_key, outcome_json]``."""
    return [encode_key(key), outcome.to_json()]


def decode_wire_record(payload):
    """``(key, outcome)`` back from a wire record; raises on corruption."""
    if not isinstance(payload, (list, tuple)) or len(payload) != 2:
        raise ValueError("replication record must be a [key, outcome] pair")
    return decode_key(payload[0]), EvaluationResult.from_json(payload[1])


def encode_hint(hint_id, peer, records):
    """One ``hint`` line (no trailing newline); ``records`` are wire form."""
    return json.dumps(
        {"v": HINT_VERSION, "t": RECORD_HINT, "id": hint_id, "peer": peer,
         "records": records},
        separators=(",", ":"),
    )


def encode_drained(hint_id):
    """One ``drained`` line (no trailing newline)."""
    return json.dumps(
        {"v": HINT_VERSION, "t": RECORD_DRAINED, "id": hint_id},
        separators=(",", ":"),
    )


def decode_hint_record(line):
    """``(type, hint_id, peer, records)`` from one line; raises on any
    corruption -- the same contract as
    :func:`repro.resilience.durability.decode_record`, so the loader
    below can apply the identical truncate-and-continue discipline."""
    payload = json.loads(line)
    if not isinstance(payload, dict):
        raise ValueError("hint record must be a JSON object")
    if payload.get("v") != HINT_VERSION:
        raise ValueError(f"unknown hint version {payload.get('v')!r}")
    kind = payload.get("t")
    hint_id = payload.get("id")
    if not isinstance(hint_id, str) or not hint_id:
        raise ValueError("hint record without an id")
    if kind == RECORD_DRAINED:
        return kind, hint_id, None, None
    if kind != RECORD_HINT:
        raise ValueError(f"unknown hint record type {kind!r}")
    peer = payload.get("peer")
    if not isinstance(peer, str) or not peer:
        raise ValueError("hint record without a peer")
    records = payload.get("records")
    if not isinstance(records, list):
        raise ValueError("hint record without a records list")
    for record in records:
        if not isinstance(record, (list, tuple)) or len(record) != 2:
            raise ValueError("malformed record inside hint")
    return kind, hint_id, peer, records


class HintStore:
    """Durable hinted-handoff queue: one JSONL file per node.

    Format -- one JSON object per line, append-only::

        {"v": 1, "t": "hint", "id": "<hex>", "peer": "<node_id>",
         "records": [[key, outcome], ...]}
        {"v": 1, "t": "drained", "id": "<hex>"}

    ``hint`` records are fsync'd (a hint exists precisely because the
    replica is unreachable -- losing it would silently shrink the
    replica set); ``drained`` markers are plain appends, because losing
    one only costs an idempotent re-send.  Torn tails are truncated
    back to the valid prefix on load, exactly like
    :class:`~repro.resilience.durability.RequestJournal`, and
    :meth:`compact` drops drained pairs with the same
    write-temp/fsync/replace dance.
    """

    def __init__(self, path, fsync=True):
        self.path = str(path)
        self.fsync = bool(fsync)
        self._lock = threading.Lock()
        self._fd = None
        self._pending = None     # ordered {hint_id: (peer, records)}
        # lifetime counters, surfaced by stats()
        self.queued = 0
        self.drained = 0
        self.recovered_hints = 0
        self.dropped_bytes = 0
        self.compactions = 0
        self.orphans_swept = 0
        self.torn_writes = 0

    # -- writing -------------------------------------------------------------

    def _open_fd_locked(self):
        if self._fd is None:
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
            )
        return self._fd

    def open(self):
        """Open the append descriptor now, surfacing path errors early.

        A stale ``.compact.tmp`` (a compaction died between write and
        rename) is never valid state and is swept here, mirroring
        :meth:`repro.service.cache_store.CacheStore.open`.
        """
        with self._lock:
            tmp_path = f"{self.path}.compact.tmp"
            try:
                os.unlink(tmp_path)
            except FileNotFoundError:
                pass
            except OSError:
                pass
            else:
                self.orphans_swept += 1
            self._open_fd_locked()
        return self

    def _write(self, line, durable):
        data = (line + "\n").encode()
        fault = maybe_fault(SITE_HINT_APPEND)
        with self._lock:
            fd = self._open_fd_locked()
            if fault is not None:
                # torn write: the hint writer "dies" mid-line; the next
                # load truncates the tail and keeps the valid prefix
                os.write(fd, data[: max(1, len(data) // 2)])
                self.torn_writes += 1
                return False
            os.write(fd, data)
            if durable:
                os.fsync(fd)
        return True

    def append(self, peer, records):
        """Durably queue one hint for ``peer``; returns its id."""
        hint_id = uuid.uuid4().hex
        whole = self._write(encode_hint(hint_id, peer, records),
                            durable=self.fsync)
        with self._lock:
            if whole:
                if self._pending is None:
                    self._pending = OrderedDict()
                self._pending[hint_id] = (peer, list(records))
            self.queued += 1
        return hint_id

    def drain(self, hint_id):
        """Mark one hint delivered (plain append, like journal commits)."""
        self._write(encode_drained(hint_id), durable=False)
        with self._lock:
            if self._pending is not None:
                self._pending.pop(hint_id, None)
            self.drained += 1

    # -- reading -------------------------------------------------------------

    def load(self):
        """Undrained hints as an ordered ``{id: (peer, records)}``.

        A torn tail is truncated back to the valid prefix -- the
        property the hypothesis fuzz battery pins against
        :class:`RequestJournal`'s loader.
        """
        pending = OrderedDict()
        try:
            with open(self.path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            with self._lock:
                self._pending = pending
            self.recovered_hints = 0
            return pending
        hints, valid_end = split_records(raw, decode_hint_record)
        for kind, hint_id, peer, records in hints:
            if kind == RECORD_HINT:
                pending.setdefault(hint_id, (peer, records))
            else:
                pending.pop(hint_id, None)
        if valid_end < len(raw):
            self.dropped_bytes += len(raw) - valid_end
            self._truncate(valid_end)
        self.recovered_hints = len(pending)
        with self._lock:
            self._pending = pending
        return pending

    def _truncate(self, valid_end):
        try:
            with open(self.path, "r+b") as handle:
                handle.truncate(valid_end)
        except OSError:
            pass  # read-only store: serve the valid prefix, leave the file

    def pending(self):
        """``[(hint_id, peer, records), ...]`` still awaiting delivery."""
        with self._lock:
            loaded = self._pending is not None
        if not loaded:
            self.load()
        with self._lock:
            return [
                (hint_id, peer, records)
                for hint_id, (peer, records) in self._pending.items()
            ]

    # -- maintenance ---------------------------------------------------------

    def compact(self):
        """Atomically rewrite the store keeping only undrained hints."""
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None
        pending = self.load()
        with self._lock:
            tmp_path = f"{self.path}.compact.tmp"
            with open(tmp_path, "wb") as handle:
                for hint_id, (peer, records) in pending.items():
                    handle.write(
                        (encode_hint(hint_id, peer, records) + "\n").encode()
                    )
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, self.path)
            self.compactions += 1
        return len(pending)

    def stats(self):
        with self._lock:
            pending = len(self._pending) if self._pending is not None else 0
        return {
            "path": self.path,
            "queued": self.queued,
            "drained": self.drained,
            "pending": pending,
            "recovered_hints": self.recovered_hints,
            "dropped_bytes": self.dropped_bytes,
            "compactions": self.compactions,
            "orphans_swept": self.orphans_swept,
            "torn_writes": self.torn_writes,
        }

    def close(self):
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


def _key_digest(key):
    """The 128-bit contribution of one cache key, as an int."""
    encoded = json.dumps(encode_key(key), separators=(",", ":")).encode()
    return hashlib.md5(encoded).digest()


class CacheDigest:
    """An incremental, order-independent Merkle-style cache digest.

    Keys are bucketed by a stable hash; each bucket's digest is the XOR
    of its keys' MD5s, so inserts are O(1) and two nodes holding the
    same key *set* produce identical digests regardless of arrival
    order.  Key-only digests suffice: evaluation is deterministic and
    records carry full identity, so same key means same outcome.  The
    root (MD5 over the concatenated bucket digests) rides the gossip
    ``health`` exchange; a mismatch narrows to divergent buckets and
    only those are streamed over ``sync``.
    """

    def __init__(self, n_buckets=DIGEST_BUCKETS):
        self.n_buckets = int(n_buckets)
        self._lock = threading.Lock()
        self._buckets = [0] * self.n_buckets
        self._counts = [0] * self.n_buckets
        self._seen = set()

    def bucket_of(self, key):
        """The (stable) bucket index of one cache key."""
        digest = _key_digest(key)
        return int.from_bytes(digest[:4], "big") % self.n_buckets

    def add(self, key):
        """Fold one key in; False if it was already present (XOR of a
        duplicate would *cancel* the key, so membership is tracked)."""
        digest = _key_digest(key)
        index = int.from_bytes(digest[:4], "big") % self.n_buckets
        value = int.from_bytes(digest, "big")
        with self._lock:
            if key in self._seen:
                return False
            self._seen.add(key)
            self._buckets[index] ^= value
            self._counts[index] += 1
        return True

    def __len__(self):
        with self._lock:
            return len(self._seen)

    def buckets_hex(self):
        with self._lock:
            return [f"{value:032x}" for value in self._buckets]

    def root(self):
        with self._lock:
            joined = b"".join(
                value.to_bytes(16, "big") for value in self._buckets
            )
        return hashlib.md5(joined).hexdigest()

    def divergent(self, remote_buckets):
        """Bucket indices whose digest differs from ``remote_buckets``."""
        local = self.buckets_hex()
        if not isinstance(remote_buckets, list) or (
            len(remote_buckets) != len(local)
        ):
            return list(range(self.n_buckets))
        return [
            index for index, value in enumerate(local)
            if value != remote_buckets[index]
        ]

    def summary(self):
        with self._lock:
            counts = list(self._counts)
            keys = len(self._seen)
        return {
            "root": self.root(),
            "buckets": self.buckets_hex(),
            "counts": counts,
            "keys": keys,
        }


class Replicator:
    """Asynchronous fanout of committed results to their replica set.

    One background worker drains an offer queue (fed by the
    :class:`~repro.service.jsonl.ServeSession` commit callback),
    computes each batch key's owner chain on a ring built from the
    gossip membership, and pushes the records to the first ``factor``
    owners over the ``replicate`` op.  Unreachable or not-alive targets
    get a durable hint instead; hints drain once membership reports the
    peer alive.  ``tick()`` (called from the gossip loop) wakes the
    worker, and :meth:`on_peer_digest` runs the anti-entropy pull when
    a gossip exchange surfaces a diverged peer.

    Per-target delivery is tracked in a bounded acked map keyed by
    cache key, which makes repeated offers of a warm key free and
    doubles as the read-repair engine: a replica serving a failover
    read re-offers the records, the dead primary is not acked, and the
    write flows back to it (directly, or through a hint).
    """

    def __init__(self, node_id, cache, membership, factor=2, hints=None,
                 timeout=2.0, interval=0.5, max_acked=MAX_ACKED_KEYS):
        self.node_id = node_id
        self.cache = cache
        self.membership = membership
        self.factor = max(int(factor), 1)
        self.hints = hints
        self.timeout = float(timeout)
        self.interval = float(interval)
        self.max_acked = int(max_acked)
        self.digest = CacheDigest()
        self.send_latency = LatencyHistogram()
        self._lock = threading.Lock()
        self._queue = deque()
        self._acked = OrderedDict()   # cache key -> set of node ids
        self._settled = set()         # routing keys fully fanned out
        self._ring = None
        self._ring_nodes = frozenset()
        self._busy = False
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, daemon=True, name=f"replicator-{node_id}"
        )
        # lifetime counters, surfaced by summary()
        self.offers = 0
        self.offers_skipped = 0
        self.records_sent = 0
        self.records_received = 0
        self.records_rejected = 0
        self.sends = 0
        self.send_failures = 0
        self.hints_queued = 0
        self.hints_drained = 0
        self.sync_pulls = 0
        self.sync_records_pulled = 0
        self.sync_records_served = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        self.seed_digest()
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        self._wake.set()
        self._thread.join(timeout=5.0)
        if self.hints is not None:
            self.hints.close()

    def seed_digest(self):
        """Fold every key already in the cache (a warm store survives
        restarts; the digest must agree with it from the first gossip)."""
        store = getattr(self.cache, "_store", None)
        lock = getattr(self.cache, "_lock", None)
        if store is None:
            return 0
        if lock is not None:
            with lock:
                keys = list(store)
        else:
            keys = list(store)
        added = 0
        for key in keys:
            if self.digest.add(key):
                added += 1
        return added

    # -- offer path (local commits) ------------------------------------------

    def offer(self, spec, keys, outcomes):
        """Queue one committed request's records for fanout.

        Called from the session's future callback with the request's
        cache keys and their outcomes (same order).  Never blocks and
        never raises into the serving path.
        """
        from repro.service.cluster import batch_key

        for key in keys:
            self.digest.add(key)
        if self.factor < 2 or not isinstance(spec, dict):
            return False
        try:
            routing_key = batch_key(spec)
        except (ValueError, TypeError, KeyError):
            return False
        with self._lock:
            if routing_key in self._settled:
                self.offers_skipped += 1
                return False
            self.offers += 1
            self._queue.append((routing_key, list(zip(keys, outcomes))))
        self._wake.set()
        return True

    def tick(self):
        """Wake the worker (gossip calls this once per round)."""
        self._wake.set()

    def quiesced(self):
        """True when nothing is queued, in flight, or hinted."""
        with self._lock:
            if self._queue or self._busy:
                return False
        if self.hints is not None and self.hints.stats()["pending"]:
            return False
        return True

    # -- worker --------------------------------------------------------------

    def _run(self):
        while not self._stop.is_set():
            self._wake.wait(timeout=self.interval)
            self._wake.clear()
            if self._stop.is_set():
                return
            while True:
                with self._lock:
                    if not self._queue:
                        self._busy = False
                        break
                    routing_key, records = self._queue.popleft()
                    self._busy = True
                try:
                    self._fan_out(routing_key, records)
                except Exception:   # replication must never kill its thread
                    pass
            try:
                self._drain_hints()
            except Exception:
                pass

    def _membership_nodes(self):
        """``{node_id: (address, alive)}`` from the gossip view."""
        view = self.membership.view()
        nodes = {}
        for node_id, entry in (view.get("nodes") or {}).items():
            address = entry.get("address")
            nodes[node_id] = (
                tuple(address) if address else None,
                entry.get("status") == "alive",
            )
        return nodes

    def _ring_for(self, node_ids):
        from repro.service.cluster import HashRing

        nodes = frozenset(node_ids)
        with self._lock:
            if nodes != self._ring_nodes:
                self._ring = HashRing(nodes)
                self._ring_nodes = nodes
                # the replica set of every key may have moved: re-fan
                self._settled.clear()
            return self._ring

    def _mark_acked(self, key, node_id):
        with self._lock:
            acked = self._acked.get(key)
            if acked is None:
                acked = self._acked[key] = set()
            acked.add(node_id)
            self._acked.move_to_end(key)
            while len(self._acked) > self.max_acked:
                self._acked.popitem(last=False)

    def _is_acked(self, key, node_id):
        with self._lock:
            acked = self._acked.get(key)
            return acked is not None and node_id in acked

    def _fan_out(self, routing_key, records):
        nodes = self._membership_nodes()
        ring = self._ring_for(nodes)
        if ring is None or not len(ring):
            return
        targets = [
            node_id for node_id in ring.owners(routing_key, self.factor)
            if node_id != self.node_id
        ]
        for target in targets:
            address, alive = nodes.get(target, (None, False))
            needed = [
                (key, outcome) for key, outcome in records
                if not self._is_acked(key, target)
            ]
            if not needed:
                continue
            wire = [encode_wire_record(key, outcome)
                    for key, outcome in needed]
            delivered = False
            if alive and address is not None:
                try:
                    self._send_records(address, wire)
                except (OSError, ValueError):
                    self.send_failures += 1
                else:
                    delivered = True
                    self.records_sent += len(needed)
            if not delivered:
                if self.hints is not None:
                    try:
                        self.hints.append(target, wire)
                        self.hints_queued += 1
                    except OSError:
                        continue   # neither sent nor hinted: retry later
                else:
                    continue
            # sent, or durably hinted (the drain path owns delivery now):
            # either way this key is no longer this worker's problem
            for key, _ in needed:
                self._mark_acked(key, target)
        with self._lock:
            self._settled.add(routing_key)

    def _send_records(self, address, wire_records):
        from repro.service.transport import recv_frame, send_frame

        fault = maybe_fault(SITE_REPLICATION_SEND)
        if fault is not None:
            if fault.kind == DELAY:
                time.sleep(fault.seconds or 0.2)
            elif fault.kind == DISCONNECT:
                raise OSError("fault injected: replication send dropped")
        self.sends += 1
        started = time.monotonic()
        with socket.create_connection(address, self.timeout) as sock:
            sock.settimeout(self.timeout)
            send_frame(sock, {
                "id": f"repl-{self.node_id}",
                "op": "replicate",
                "from": self.node_id,
                "records": wire_records,
            })
            response = recv_frame(sock)
        self.send_latency.observe(time.monotonic() - started)
        if not isinstance(response, dict) or not response.get("ok"):
            raise ValueError(f"replicate refused: {response!r}")

    def _drain_hints(self):
        if self.hints is None:
            return
        pending = self.hints.pending()
        if not pending:
            return
        nodes = self._membership_nodes()
        for hint_id, peer, wire in pending:
            if self._stop.is_set():
                return
            address, alive = nodes.get(peer, (None, False))
            if not alive or address is None:
                continue   # still down: keep the hint
            try:
                self._send_records(address, wire)
            except (OSError, ValueError):
                self.send_failures += 1
                continue
            self.records_sent += len(wire)
            self.hints_drained += 1
            self.hints.drain(hint_id)

    # -- inbound (replicate / sync ops) --------------------------------------

    def apply(self, wire_records, source=None):
        """Apply inbound records to the local cache; returns the count.

        Corrupt records are counted and skipped -- one poisoned record
        must not block its batch.  Applied records are never re-fanned
        from here (the sender owns the fanout), so replication storms
        cannot form.
        """
        applied = 0
        for payload in wire_records or ():
            try:
                key, outcome = decode_wire_record(payload)
            except (ValueError, KeyError, TypeError, IndexError):
                self.records_rejected += 1
                continue
            self.cache.put(key, outcome)
            self.digest.add(key)
            if source:
                self._mark_acked(key, source)
            applied += 1
        self.records_received += applied
        return applied

    def sync_payload(self, buckets=None):
        """Wire records for the requested digest buckets (all when None)."""
        store = getattr(self.cache, "_store", None)
        lock = getattr(self.cache, "_lock", None)
        if store is None:
            return []
        wanted = None
        if buckets is not None:
            wanted = {int(index) for index in buckets}
        if lock is not None:
            with lock:
                items = list(store.items())
        else:
            items = list(store.items())
        records = [
            encode_wire_record(key, outcome)
            for key, outcome in items
            if wanted is None or self.digest.bucket_of(key) in wanted
        ]
        self.sync_records_served += len(records)
        return records

    def on_peer_digest(self, address, payload):
        """Anti-entropy pull: fetch the buckets where ``address`` differs.

        Called from the gossip agent with the peer's replication
        summary (piggybacked on the ``health`` exchange).  A matching
        root is the overwhelmingly common case and costs one string
        compare; a mismatch pulls only the divergent buckets.  The
        exchange is pull-only from this side -- the peer's own gossip
        pass pulls in the other direction, which is what makes two
        diverged nodes converge on the union of their stores.
        """
        if not isinstance(payload, dict):
            return 0
        remote = payload.get("digest") or {}
        if remote.get("root") == self.digest.root():
            return 0
        divergent = self.digest.divergent(remote.get("buckets"))
        if not divergent:
            return 0
        from repro.service.transport import recv_frame, send_frame

        with socket.create_connection(address, self.timeout) as sock:
            sock.settimeout(self.timeout)
            send_frame(sock, {
                "id": f"sync-{self.node_id}",
                "op": "sync",
                "from": self.node_id,
                "buckets": divergent,
            })
            response = recv_frame(sock)
        if not isinstance(response, dict) or not response.get("ok"):
            raise ValueError(f"sync refused: {response!r}")
        self.sync_pulls += 1
        pulled = self.apply(response.get("records") or [])
        self.sync_records_pulled += pulled
        return pulled

    # -- observability -------------------------------------------------------

    def summary(self):
        """Counters + digest snapshot; rides ``health``/``stats`` and is
        flattened into the ``repro_replication_*`` Prometheus families."""
        with self._lock:
            pending = len(self._queue) + (1 if self._busy else 0)
            acked_keys = len(self._acked)
            settled = len(self._settled)
        summary = {
            "factor": self.factor,
            "pending": pending,
            "offers": self.offers,
            "offers_skipped": self.offers_skipped,
            "settled_keys": settled,
            "acked_keys": acked_keys,
            "sends": self.sends,
            "send_failures": self.send_failures,
            "records_sent": self.records_sent,
            "records_received": self.records_received,
            "records_rejected": self.records_rejected,
            "hints_queued": self.hints_queued,
            "hints_drained": self.hints_drained,
            "sync_pulls": self.sync_pulls,
            "sync_records_pulled": self.sync_records_pulled,
            "sync_records_served": self.sync_records_served,
            "send_latency": self.send_latency.snapshot(),
            "digest": self.digest.summary(),
        }
        if self.hints is not None:
            summary["hints"] = self.hints.stats()
        return summary
