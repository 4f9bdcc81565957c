"""Write-ahead request journal: the server may die, the work may not.

:class:`RequestJournal` is the durability rung under the evaluation
service.  Every accepted evaluation request -- its full wire spec
(grid/size/suite/t_max/genomes) plus its idempotency key -- is appended
to an fsync'd JSONL journal *before* it is handed to the dispatcher,
and a ``commit`` record is appended once its results have landed in the
(persistent) evaluation cache.  On restart the server replays the
uncommitted suffix: committed requests are re-served straight from the
cache, uncommitted ones are re-simulated exactly once, and a client
re-issuing its original idempotency key attaches to the replayed
submission instead of enqueueing the work again.  A ``kill -9``
mid-batch therefore costs latency, never results and never duplicate
simulation of committed work.

Journal format -- one JSON object per line, append-only::

    {"v": 1, "t": "accept", "idem": "<key>", "spec": {...}}
    {"v": 1, "t": "commit", "idem": "<key>"}

Durability semantics, deliberately asymmetric:

* ``accept`` records are fsync'd (``fsync=True``, the default): losing
  one would lose a request the client believes the server took.
* ``commit`` records are plain ``O_APPEND`` writes: losing one merely
  causes a replay that the evaluation cache answers without
  simulating -- cheap, and never wrong, because evaluation is
  deterministic and keyed by full identity.

Like :class:`repro.service.cache_store.CacheStore`, a torn tail (the
journal writer died mid-line) is detected on load; the valid prefix is
kept, the file truncated back to it, and serving continues.
:meth:`compact` drops committed pairs, keeping the journal bounded by
the in-flight window rather than the server's lifetime.
"""

import json
import os
import threading

#: Journal format marker, first field of every record.
JOURNAL_VERSION = 1

#: Record types.
RECORD_ACCEPT = "accept"
RECORD_COMMIT = "commit"


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


def split_records(raw, decode):
    """``(records, valid_end)``: the decoded valid prefix of an append log.

    The one line discipline behind :class:`RequestJournal`,
    :class:`repro.service.replication.HintStore` and
    :class:`repro.service.cache_store.CacheStore`.  A record is a line
    terminated by ``b"\\n"`` -- nothing else ends a line -- and empty
    lines are skipped.  The valid prefix ends before the first non-empty
    line ``decode`` rejects (whitespace-only junk such as ``b"\\r"``
    included) and before an unterminated final line, which is torn even
    when it decodes: the writer died mid-append, and keeping it would
    fuse the next append onto it.  ``valid_end`` is the prefix's length
    in bytes.
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


class RequestJournal:
    """The fsync'd JSONL write-ahead log behind ``serve --journal``.

    Thread-safe: ``accept`` is called from the submission path and
    ``commit`` from dispatcher-side future callbacks; one lock keeps
    every line whole and the fd shared.
    """

    def __init__(self, path, fsync=True):
        self.path = str(path)
        self.fsync = bool(fsync)
        self._lock = threading.Lock()
        self._fd = None
        # lifetime counters, surfaced by stats()
        self.accepted = 0            # accept records written this run
        self.committed = 0           # commit records written this run
        self.replayed = 0            # uncommitted entries resubmitted at start
        self.recovered_accepts = 0   # accept records found on the last load
        self.recovered_commits = 0   # commit records found on the last load
        self.dropped_bytes = 0       # torn tail truncated on load
        self.compactions = 0

    # -- writing -------------------------------------------------------------

    def _open_fd_locked(self):
        if self._fd is None:
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
            )
        return self._fd

    def open(self):
        """Open the append descriptor now, surfacing path errors early.

        The CLI calls this up front so ``--journal /bad/path`` dies with
        a clear message instead of failing inside the first request.
        Raises :class:`OSError`.
        """
        with self._lock:
            self._open_fd_locked()
        return self

    def _write(self, line, durable):
        data = (line + "\n").encode()
        with self._lock:
            fd = self._open_fd_locked()
            os.write(fd, data)
            if durable:
                os.fsync(fd)

    def accept(self, idem, spec):
        """Write-ahead one accepted request, durably, before dispatch."""
        self._write(encode_accept(idem, spec), durable=self.fsync)
        self.accepted += 1

    def commit(self, idem):
        """Mark one request's results as landed in the cache.

        Not fsync'd on purpose: a lost commit only costs a replay that
        the evaluation cache answers without re-simulating.
        """
        self._write(encode_commit(idem), durable=False)
        self.committed += 1

    # -- reading -------------------------------------------------------------

    def load(self):
        """``(accepts, commits)``: ordered ``{idem: spec}`` and a key set.

        A torn tail is truncated back to the valid prefix, exactly like
        the cache store's loader; duplicate accepts of one key keep the
        first spec (replays re-append nothing, so duplicates only arise
        from a client racing a replay -- same key, same work).
        """
        accepts, commits = {}, set()
        try:
            with open(self.path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            self.recovered_accepts = 0
            self.recovered_commits = 0
            return accepts, commits
        records, valid_end = split_records(raw, decode_record)
        for kind, idem, spec in records:
            if kind == RECORD_ACCEPT:
                accepts.setdefault(idem, spec)
            else:
                commits.add(idem)
        if valid_end < len(raw):
            self.dropped_bytes += len(raw) - valid_end
            self._truncate(valid_end)
        self.recovered_accepts = len(accepts)
        self.recovered_commits = len(commits)
        return accepts, commits

    def _truncate(self, valid_end):
        try:
            with open(self.path, "r+b") as handle:
                handle.truncate(valid_end)
        except OSError:
            pass  # read-only journal: replay the valid prefix, leave the file

    def replay_entries(self):
        """The uncommitted ``[(idem, spec), ...]`` suffix, in accept order."""
        accepts, commits = self.load()
        return [
            (idem, spec) for idem, spec in accepts.items()
            if idem not in commits
        ]

    # -- maintenance ---------------------------------------------------------

    def compact(self):
        """Atomically rewrite the journal keeping only uncommitted accepts.

        Committed pairs are pure history; dropping them bounds the
        journal by the in-flight window.  Write-temp, fsync, then
        ``os.replace`` -- a crashed compaction leaves the old journal
        intact.  Returns the number of records dropped.
        """
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None
        accepts, commits = self.load()
        dropped = 2 * len(commits & set(accepts))
        with self._lock:
            tmp_path = f"{self.path}.compact.tmp"
            with open(tmp_path, "wb") as handle:
                for idem, spec in accepts.items():
                    if idem not in commits:
                        handle.write((encode_accept(idem, spec) + "\n").encode())
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, self.path)
            self.compactions += 1
        return dropped

    def stats(self):
        """Counters snapshot for the ``stats``/``health`` ops."""
        return {
            "path": self.path,
            "fsync": self.fsync,
            "accepted": self.accepted,
            "committed": self.committed,
            "replayed": self.replayed,
            "recovered_accepts": self.recovered_accepts,
            "recovered_commits": self.recovered_commits,
            "dropped_bytes": self.dropped_bytes,
            "compactions": self.compactions,
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
