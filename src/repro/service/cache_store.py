"""Cross-process persistence for the evaluation cache.

The in-memory :class:`repro.evolution.fitness.EvaluationCache` dies with
its process; a long-lived serving deployment wants yesterday's
simulations back.  :class:`PersistentEvaluationCache` keeps the exact
same interface and keys but mirrors every ``put`` into an append-only
JSONL store and lazily loads the store on first use.

Design constraints, in order:

* **full keys** -- each record carries the complete
  :func:`repro.evolution.fitness.evaluation_cache_key` identity
  (grid kind/size, suite fingerprint, ``t_max``, genome bytes), so a
  store can never serve a result computed under different knobs;
* **safe under concurrent writers** -- records are whole lines written
  in one ``O_APPEND`` write each; two processes appending the same key
  simply store the same outcome twice (evaluation is deterministic, so
  last-writer-wins is harmless).  Appends also hold a shared ``flock``
  and re-check the path's inode, so a concurrent :meth:`CacheStore.
  compact` (which holds the exclusive lock while it rewrites and
  ``os.replace``s the file) can never strand a live writer on the
  replaced inode -- the writer reopens the new file and continues;
* **corruption recovery** -- a torn final line (a writer died
  mid-append) is detected on load; the loader keeps the valid prefix,
  truncates the file back to it, and continues -- one bad tail never
  costs the store;
* **bounded growth** -- duplicate appends (two processes racing on one
  key, or a store carried across many runs) are reclaimed by
  :meth:`CacheStore.compact`, an atomic write-temp-then-rename rewrite
  keeping the last record per key; ``max_bytes`` on
  :class:`PersistentEvaluationCache` (the CLI's ``--cache-max-bytes``)
  triggers it automatically when the store is loaded over budget.

The ``cache.append`` fault-injection site (see
:mod:`repro.resilience.faults`) simulates a writer dying mid-append by
writing half a record; the very recovery path above is what the chaos
battery then asserts.
"""

import json
import os
import threading

try:
    import fcntl
except ImportError:          # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.evolution.fitness import EvaluationCache
from repro.resilience.durability import split_records
from repro.resilience.faults import SITE_CACHE_APPEND, maybe_fault
from repro.results import EvaluationResult

#: Store format marker, first field of every record.
STORE_VERSION = 1


def encode_key(key):
    """JSON form of an evaluation-cache key tuple."""
    kind, size, suite_fp, t_max, genome = key
    return [kind, size, suite_fp, t_max, genome.hex()]


def decode_key(payload):
    """The key tuple back from its JSON form."""
    kind, size, suite_fp, t_max, genome_hex = payload
    return (kind, int(size), suite_fp, int(t_max), bytes.fromhex(genome_hex))


def encode_record(key, outcome):
    """One self-contained store line (no trailing newline)."""
    return json.dumps(
        {"v": STORE_VERSION, "k": encode_key(key), "o": outcome.to_json()},
        separators=(",", ":"),
    )


def decode_record(line):
    """``(key, outcome)`` from one store line; raises on any corruption."""
    payload = json.loads(line)
    if payload.get("v") != STORE_VERSION:
        raise ValueError(f"unknown store version {payload.get('v')!r}")
    return decode_key(payload["k"]), EvaluationResult.from_json(payload["o"])


class CacheStore:
    """The append-only JSONL file behind a persistent cache."""

    def __init__(self, path):
        self.path = str(path)
        self._lock = threading.Lock()
        self._fd = None
        self.recovered_records = 0
        self.dropped_bytes = 0
        self.torn_writes = 0
        self.compactions = 0
        self.compacted_bytes = 0
        self.append_reopens = 0
        self.orphans_swept = 0

    def _open_fd_locked(self):
        if self._fd is None:
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
            )
        return self._fd

    def open(self):
        """Open the append descriptor now, surfacing path errors early.

        Appends normally open lazily, which turns an unwritable path
        into a failure deep inside the first evaluation; the CLI calls
        this up front so ``--cache /bad/path`` dies with a clear
        message instead.  Raises :class:`OSError`.

        A stale ``path + ".compact.tmp"`` (a :meth:`compact` died
        between its write and the ``os.replace``) is never valid state
        -- the live store is always the un-replaced original -- so it
        is swept here and counted in ``orphans_swept``.
        """
        with self._lock:
            self._sweep_orphan_locked()
            self._open_fd_locked()
        return self

    def _sweep_orphan_locked(self):
        try:
            os.unlink(f"{self.path}.compact.tmp")
        except FileNotFoundError:
            pass
        except OSError:
            pass  # unsweepable (permissions): compact() overwrites it anyway
        else:
            self.orphans_swept += 1

    def load(self):
        """All valid records, truncating a torn tail if one is found."""
        try:
            with open(self.path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return []
        records, valid_end = split_records(raw, decode_record)
        if valid_end < len(raw):
            self.dropped_bytes += len(raw) - valid_end
            self._truncate(valid_end)
        self.recovered_records = len(records)
        return records

    def _truncate(self, valid_end):
        try:
            with open(self.path, "r+b") as handle:
                handle.truncate(valid_end)
        except OSError:
            pass  # read-only store: serve the valid prefix, leave the file

    def _write_to_live_inode_locked(self, data):
        """Append ``data`` to the file *currently* at ``self.path``.

        A concurrent :meth:`compact` (same process or another one)
        ``os.replace``s the path with a rewritten file; an ``O_APPEND``
        descriptor opened earlier keeps pointing at the *old* inode, so
        writes through it would silently vanish.  Holding a shared
        ``flock`` on the descriptor excludes a compaction (which takes
        an exclusive lock) for the duration of the check-and-write, and
        an inode mismatch against the path means a compaction already
        happened -- reopen the new file and retry.
        """
        fd = self._open_fd_locked()
        if fcntl is None:             # pragma: no cover - non-POSIX
            os.write(fd, data)
            return
        while True:
            fcntl.flock(fd, fcntl.LOCK_SH)
            try:
                try:
                    current = os.stat(self.path).st_ino
                except FileNotFoundError:
                    current = None    # store deleted: recreate below
                if current == os.fstat(fd).st_ino:
                    os.write(fd, data)
                    return
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)
            self._fd = None
            fd = self._open_fd_locked()
            self.append_reopens += 1

    def append(self, key, outcome):
        """Durably append one record; one write call keeps lines whole."""
        line = (encode_record(key, outcome) + "\n").encode()
        fault = maybe_fault(SITE_CACHE_APPEND)
        with self._lock:
            if fault is not None:
                # torn write: the writer "dies" halfway through the line;
                # the next load sees a torn tail and recovers the prefix
                self._write_to_live_inode_locked(line[: max(1, len(line) // 2)])
                self.torn_writes += 1
                return
            self._write_to_live_inode_locked(line)

    def size_bytes(self):
        """Current on-disk size of the store (0 when absent)."""
        try:
            return os.stat(self.path).st_size
        except OSError:
            return 0

    def compact(self):
        """Atomically rewrite the store keeping the last record per key.

        Duplicate lines accumulate whenever concurrent writers race on
        one key or one store backs many runs; evaluation is
        deterministic, so every duplicate is pure dead weight.  The
        rewrite goes to ``path + ".compact.tmp"`` in the same directory,
        is fsynced, then ``os.replace``d over the store -- readers see
        either the old file or the deduplicated one, never a hybrid,
        and a torn tail (recovered by the embedded :meth:`load`) is
        dropped along the way.  Returns the number of superseded lines
        reclaimed.
        """
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None
            # Exclusive flock on the store excludes every appender's
            # shared-locked check-and-write: no record written before the
            # rewrite can be missed, and none written after it can land
            # on the doomed inode (appenders re-check the path's inode
            # under their lock and reopen the rewritten file).
            lock_fd = None
            if fcntl is not None:
                lock_fd = os.open(self.path, os.O_WRONLY | os.O_CREAT, 0o644)
                fcntl.flock(lock_fd, fcntl.LOCK_EX)
            try:
                records = self.load()
                old_size = self.size_bytes()
                latest = {}
                for key, outcome in records:
                    latest[key] = outcome   # insertion order, last write wins
                tmp_path = f"{self.path}.compact.tmp"
                with open(tmp_path, "wb") as handle:
                    for key, outcome in latest.items():
                        handle.write(
                            (encode_record(key, outcome) + "\n").encode()
                        )
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_path, self.path)
                self.compactions += 1
                self.compacted_bytes += max(0, old_size - self.size_bytes())
                return len(records) - len(latest)
            finally:
                if lock_fd is not None:
                    fcntl.flock(lock_fd, fcntl.LOCK_UN)
                    os.close(lock_fd)

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


class PersistentEvaluationCache(EvaluationCache):
    """An :class:`EvaluationCache` mirrored into a :class:`CacheStore`.

    Drop-in for every ``cache=`` parameter in the package.  The store is
    loaded lazily on the first lookup/insert, so building one is free;
    ``warm()`` forces the load (and reports how many records arrived).
    """

    def __init__(self, path, max_bytes=None):
        super().__init__()
        self.store = CacheStore(path)
        self.max_bytes = max_bytes
        self._loaded = False
        self._load_lock = threading.Lock()

    def warm(self):
        """Load the store now; returns the number of records loaded.

        With ``max_bytes`` set, a store loaded over budget is compacted
        in place (atomic rewrite, one line per key) before use.
        """
        with self._load_lock:
            if not self._loaded:
                if (
                    self.max_bytes is not None
                    and self.store.size_bytes() > self.max_bytes
                ):
                    self.store.compact()
                for key, outcome in self.store.load():
                    super().put(key, outcome)
                self._loaded = True
        return len(self)

    def get(self, key):
        self.warm()
        return super().get(key)

    def put(self, key, outcome):
        self.warm()
        with self._lock:
            known = self._store.get(key)
        super().put(key, outcome)
        if known != outcome:   # don't re-append what the store gave us
            self.store.append(key, outcome)

    def stats(self):
        counters = super().stats()
        counters["persistent"] = {
            "path": self.store.path,
            "loaded": self._loaded,
            "recovered_records": self.store.recovered_records,
            "dropped_bytes": self.store.dropped_bytes,
            "size_bytes": self.store.size_bytes(),
            "max_bytes": self.max_bytes,
            "torn_writes": self.store.torn_writes,
            "compactions": self.store.compactions,
            "compacted_bytes": self.store.compacted_bytes,
            "append_reopens": self.store.append_reopens,
            "orphans_swept": self.store.orphans_swept,
        }
        return counters

    def close(self):
        self.store.close()

    # the underlying EvaluationCache already drops its lock when crossing
    # process boundaries; the store's descriptor must not cross either.
    def __getstate__(self):
        state = super().__getstate__()
        del state["_load_lock"]
        state["store"] = CacheStore(self.store.path)
        return state

    def __setstate__(self, state):
        super().__setstate__(state)
        self._load_lock = threading.Lock()
