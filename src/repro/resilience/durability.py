"""Durable append logs, and the write-ahead request journal built on one.

:class:`AppendLog` is the one file discipline under the request journal
below, :class:`repro.service.replication.HintStore` and
:class:`repro.service.cache_store.CacheStore`: each store is a
:class:`RecordCodec` plus a fold over the log's records, and the log
owns every file operation (``docs/RESILIENCE.md``, "Append logs").

:class:`RequestJournal` is the durability rung under the evaluation
service.  Every accepted evaluation request -- its full wire spec plus
its idempotency key -- is appended to the journal *before* it is handed
to the dispatcher, and a ``commit`` record is appended once its results
have landed in the (persistent) evaluation cache.  On restart the server
replays the uncommitted suffix: committed requests are re-served from
the cache, uncommitted ones are re-simulated exactly once, and a client
re-issuing its original idempotency key attaches to the replay.  A
``kill -9`` mid-batch therefore costs latency, never results and never
duplicate simulation of committed work.

Journal format -- one JSON object per line, append-only::

    {"v": 1, "t": "accept", "idem": "<key>", "spec": {...}}
    {"v": 1, "t": "commit", "idem": "<key>"}

``accept`` records are fsync'd (``fsync=True``, the default): losing one
would lose a request the client believes the server took.  ``commit``
records are not: losing one merely causes a replay that the cache
answers without simulating.  The server compacts the journal once at
start-up, so it holds at most one server lifetime's records.
"""

import json
import os
import threading
import time
from collections import namedtuple

try:
    from fcntl import LOCK_EX, LOCK_SH, LOCK_UN, flock
except ImportError:          # pragma: no cover - non-POSIX: no flock
    LOCK_EX = LOCK_SH = LOCK_UN = 0

    def flock(fd, operation):
        pass

from repro.resilience.faults import maybe_fault

#: Journal format marker, first field of every record.
JOURNAL_VERSION = 1

#: Record types.
RECORD_ACCEPT = "accept"
RECORD_COMMIT = "commit"

#: A store's record <-> line mapping: ``encode(record)`` is one line of
#: text without its newline; ``decode(line)`` raises ``ValueError`` (or
#: ``KeyError``/``IndexError``/``TypeError``) on any corruption.
RecordCodec = namedtuple("RecordCodec", "encode decode")


class JournalError(RuntimeError):
    """A journal that cannot be opened or parsed."""


def encode_accept(idem, spec):
    """One ``accept`` line (no trailing newline)."""
    return json.dumps(
        {"v": JOURNAL_VERSION, "t": RECORD_ACCEPT, "idem": idem,
         "spec": spec},
        separators=(",", ":"),
    )


def encode_commit(idem):
    """One ``commit`` line (no trailing newline)."""
    return json.dumps(
        {"v": JOURNAL_VERSION, "t": RECORD_COMMIT, "idem": idem},
        separators=(",", ":"),
    )


def encode_record(record):
    """The line of one decoded ``(type, idem, spec_or_None)`` record."""
    kind, idem, spec = record
    if kind == RECORD_ACCEPT:
        return encode_accept(idem, spec)
    return encode_commit(idem)


def decode_record(line):
    """``(type, idem, spec_or_None)`` from one line; raises on corruption."""
    payload = json.loads(line)
    if not isinstance(payload, dict):
        raise ValueError("journal record must be a JSON object")
    if payload.get("v") != JOURNAL_VERSION:
        raise ValueError(f"unknown journal version {payload.get('v')!r}")
    kind = payload.get("t")
    idem = payload.get("idem")
    if not isinstance(idem, str) or not idem:
        raise ValueError("journal record without an idempotency key")
    if kind == RECORD_ACCEPT:
        spec = payload.get("spec")
        if not isinstance(spec, dict):
            raise ValueError("accept record without a spec object")
        return kind, idem, spec
    if kind == RECORD_COMMIT:
        return kind, idem, None
    raise ValueError(f"unknown journal record type {kind!r}")


JOURNAL_CODEC = RecordCodec(encode_record, decode_record)


def split_records(raw, decode):
    """``(records, valid_end)``: the decoded valid prefix of an append log.

    The one line discipline behind :class:`AppendLog`.  A record is a
    line terminated by ``b"\\n"`` -- nothing else ends a line -- and
    empty lines are skipped.  The valid prefix ends before the first
    non-empty line ``decode`` rejects (whitespace-only junk such as
    ``b"\\r"`` included) and before an unterminated final line, which is
    torn even when it decodes: the writer died mid-append, and keeping
    it would fuse the next append onto it.  ``valid_end`` is the
    prefix's length in bytes.
    """
    records = []
    valid_end = 0
    while True:
        end = raw.find(b"\n", valid_end)
        if end < 0:
            break
        line = raw[valid_end:end]
        if line:
            try:
                records.append(decode(line))
            except (ValueError, KeyError, IndexError, TypeError):
                break
        valid_end = end + 1
    return records, valid_end


def write_atomically(path, data, tmp_path):
    """Replace ``path`` by ``data``: a crash leaves the old file or the new.

    Write ``tmp_path`` (same directory, so the rename is atomic), fsync
    it, ``os.replace`` it over ``path``, and fsync the directory so the
    rename is durable too.  A failed write removes ``tmp_path``.
    """
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


class AppendLog:
    """One durable JSONL append log of ``codec`` records at ``path``.

    Safe across threads and across processes appending to or compacting
    the same file.  A ``torn_write`` fault at ``fault_site`` makes an
    append write half its line, as a writer dying mid-append would.
    Appends time their write (inode check included) and their fsync.
    """

    def __init__(self, path, codec, fault_site=None):
        # deferred: repro.service imports this module at its own load
        from repro.service.metrics import LatencyHistogram

        self.path = str(path)
        self._tmp_path = f"{self.path}.compact.tmp"
        self.codec = codec
        self.fault_site = fault_site
        self._lock = threading.Lock()
        self._fd = self._fd_ino = None
        self._fragment = b""   # what a torn or failed append left
        self._write_latency = LatencyHistogram(floor=1e-6)
        self._fsync_latency = LatencyHistogram(floor=1e-6)
        # lifetime counters; each store reports the ones it always had
        self.dropped_bytes = 0       # torn tails truncated on load
        self.torn_writes = 0
        self.compactions = 0
        self.compacted_bytes = 0
        self.append_reopens = 0      # descriptor found on a replaced file
        self.orphans_swept = 0

    def _fd_locked(self):
        if self._fd is None:
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
            )
            self._fd_ino = os.fstat(self._fd).st_ino
        return self._fd

    def _close_locked(self):
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def _live_fd_locked(self, operation):
        """The descriptor, ``flock``'ed with ``operation``, on the live file.

        A descriptor opened before a compaction's ``os.replace`` points
        at the old inode, where writes would vanish.  Under the lock no
        compaction can be mid-rewrite, so an inode matching the path's
        is live; otherwise reopen and lock again.  The caller unlocks.
        """
        fd = self._fd_locked()
        while True:
            live = False
            flock(fd, operation)
            try:
                live = os.stat(self.path).st_ino == self._fd_ino
            except FileNotFoundError:
                pass                   # log deleted: recreate it
            finally:
                if not live:
                    flock(fd, LOCK_UN)
            if live:
                return fd
            self._close_locked()
            fd = self._fd_locked()
            self.append_reopens += 1

    def open(self):
        """Open the descriptor now, and sweep an orphaned compaction.

        A stale ``.compact.tmp`` (a compaction died before its rename)
        is never valid state; it is removed under the exclusive lock a
        running compaction would hold.  An unwritable path raises
        :class:`OSError` here instead of inside the first append.
        """
        with self._lock:
            fd = self._live_fd_locked(LOCK_EX)
            try:
                os.unlink(self._tmp_path)
            except OSError:
                pass   # none, or unsweepable: the next compaction overwrites it
            else:
                self.orphans_swept += 1
            finally:
                flock(fd, LOCK_UN)
        return self

    def append(self, record, durable=True):
        """Append one record, fsync'd when ``durable``.

        Returns False when the fault site tore the write (half the line
        reached the file).  A short write is completed.  A write that
        stops mid-line -- torn, or failed after part of it landed --
        leaves a fragment the next append cuts first, under the
        exclusive lock and only while the file still ends with it, so
        the next record never fuses onto it.
        """
        data = (self.codec.encode(record) + "\n").encode()
        fault = maybe_fault(self.fault_site) if self.fault_site else None
        if fault is not None:
            data, durable = data[: max(1, len(data) // 2)], False
        with self._lock:
            started = time.perf_counter()
            fd = self._live_fd_locked(LOCK_EX if self._fragment else LOCK_SH)
            written = 0
            try:
                self._cut_fragment_locked(fd)
                while written < len(data):
                    written += os.write(fd, data[written:])
                wrote = time.perf_counter()
                self._write_latency.observe(wrote - started)
                if durable:
                    os.fsync(fd)
                    self._fsync_latency.observe(time.perf_counter() - wrote)
            finally:
                if fault is not None or written < len(data):
                    self._fragment = data[:written]
                flock(fd, LOCK_UN)
            if fault is not None:
                self.torn_writes += 1
        return fault is None

    def _cut_fragment_locked(self, fd):
        fragment, self._fragment = self._fragment, b""
        if not fragment:
            return
        size = os.fstat(fd).st_size
        with open(self.path, "rb") as handle:   # the inode ``fd`` is on
            handle.seek(max(0, size - len(fragment)))
            if handle.read() == fragment:   # nobody appended after it
                os.ftruncate(fd, size - len(fragment))

    def load(self):
        """The records of the valid prefix, truncating a torn tail."""
        try:
            with open(self.path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return []
        records, valid_end = split_records(raw, self.codec.decode)
        if valid_end < len(raw):
            self.dropped_bytes += len(raw) - valid_end
            try:
                with open(self.path, "r+b") as handle:
                    handle.truncate(valid_end)
            except OSError:
                pass   # read-only log: keep the valid prefix, leave the file
        return records

    def compact(self, fold):
        """Rewrite the log as ``fold(records)``; ``(records, kept)``.

        The exclusive ``flock`` excludes every appender from the load to
        the rename: no earlier record is missed, every later one lands
        on the new file.  An unwritable log raises :class:`OSError` and
        is left unchanged.
        """
        with self._lock:
            fd = self._live_fd_locked(LOCK_EX)
            try:
                records = self.load()
                kept = fold(records)
                data = "".join(
                    self.codec.encode(record) + "\n" for record in kept
                ).encode()
                old_size = os.fstat(fd).st_size
                write_atomically(self.path, data, self._tmp_path)
                self.compactions += 1
                self.compacted_bytes += max(0, old_size - len(data))
            finally:
                flock(fd, LOCK_UN)
                self._close_locked()   # on the old inode now
        return records, kept

    def size_bytes(self):
        """Current on-disk size of the log (0 when absent)."""
        try:
            return os.stat(self.path).st_size
        except OSError:
            return 0

    def timings(self):
        """``append_write``/``append_fsync`` latency snapshots."""
        with self._lock:
            return {
                "append_write": self._write_latency.snapshot(),
                "append_fsync": self._fsync_latency.snapshot(),
            }

    def close(self):
        with self._lock:
            self._close_locked()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


class LogStore:
    """A store kept in one :class:`AppendLog` (``self.log``).

    The store owns its codec and its fold; its lifecycle, path and file
    counters are the log's.
    """

    def __init__(self, log):
        self.log = log

    path = property(lambda self: self.log.path)
    dropped_bytes = property(lambda self: self.log.dropped_bytes)
    torn_writes = property(lambda self: self.log.torn_writes)
    compactions = property(lambda self: self.log.compactions)
    compacted_bytes = property(lambda self: self.log.compacted_bytes)
    append_reopens = property(lambda self: self.log.append_reopens)
    orphans_swept = property(lambda self: self.log.orphans_swept)

    def open(self):
        """Open the log now, surfacing path errors early (see
        :meth:`AppendLog.open`).  Raises :class:`OSError`."""
        self.log.open()
        return self

    def size_bytes(self):
        return self.log.size_bytes()

    def close(self):
        self.log.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


class RequestJournal(LogStore):
    """The fsync'd JSONL write-ahead log behind ``serve --journal``.

    Thread-safe: ``accept`` is called from the submission path and
    ``commit`` from dispatcher-side future callbacks; the log keeps
    every line whole and the descriptor shared.
    """

    def __init__(self, path, fsync=True):
        super().__init__(AppendLog(path, JOURNAL_CODEC))
        self.fsync = bool(fsync)
        # lifetime counters, surfaced by stats()
        self.accepted = 0            # accept records written this run
        self.committed = 0           # commit records written this run
        self.bypassed = 0            # all-hit requests taken with no accept
        self.replayed = 0            # uncommitted entries resubmitted at start
        self.recovered_accepts = 0   # accept records found on the last load
        self.recovered_commits = 0   # commit records found on the last load

    def accept(self, idem, spec):
        """Write-ahead one accepted request, durably, before dispatch."""
        self.log.append((RECORD_ACCEPT, idem, spec), durable=self.fsync)
        self.accepted += 1

    def commit(self, idem):
        """Mark one request's results as landed in the cache.

        Not fsync'd on purpose: a lost commit only costs a replay that
        the evaluation cache answers without re-simulating.
        """
        self.log.append((RECORD_COMMIT, idem, None), durable=False)
        self.committed += 1

    @staticmethod
    def _fold(records):
        accepts, commits = {}, set()
        for kind, idem, spec in records:
            if kind == RECORD_ACCEPT:
                accepts.setdefault(idem, spec)
            else:
                commits.add(idem)
        return accepts, commits

    @staticmethod
    def _uncommitted(accepts, commits):
        return [
            (idem, spec) for idem, spec in accepts.items()
            if idem not in commits
        ]

    def load(self):
        """``(accepts, commits)``: ordered ``{idem: spec}`` and a key set.

        A torn tail is truncated back to the valid prefix; duplicate
        accepts of one key keep the first spec (replays re-append
        nothing, so duplicates only arise from a client racing a replay
        -- same key, same work).
        """
        accepts, commits = self._fold(self.log.load())
        self.recovered_accepts = len(accepts)
        self.recovered_commits = len(commits)
        return accepts, commits

    def replay_entries(self):
        """The uncommitted ``[(idem, spec), ...]`` suffix, in accept order."""
        return self._uncommitted(*self.load())

    def compact(self):
        """Atomically rewrite the journal keeping only uncommitted accepts.

        Committed pairs are pure history.  Returns the number of records
        dropped; raises :class:`OSError` on a read-only journal.
        """
        records, kept = self.log.compact(lambda records: [
            (RECORD_ACCEPT, idem, spec)
            for idem, spec in self._uncommitted(*self._fold(records))
        ])
        return len(records) - len(kept)

    def stats(self):
        """Counters snapshot for the ``stats``/``health`` ops."""
        return {
            "path": self.path,
            "fsync": self.fsync,
            "accepted": self.accepted,
            "committed": self.committed,
            "bypassed": self.bypassed,
            "replayed": self.replayed,
            "recovered_accepts": self.recovered_accepts,
            "recovered_commits": self.recovered_commits,
            "dropped_bytes": self.dropped_bytes,
            "compactions": self.compactions,
            **self.log.timings(),
        }
