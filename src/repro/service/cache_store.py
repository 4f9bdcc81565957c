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
* **one log discipline** -- the store is a
  :class:`repro.resilience.durability.AppendLog` of ``(key, outcome)``
  records: whole-line appends that land on the live file even while
  another process compacts it, torn-tail truncation on load, and atomic
  compaction (see ``docs/RESILIENCE.md``, "Append logs").  Two
  processes appending the same key simply store the same outcome twice;
  evaluation is deterministic, so last-writer-wins is harmless;
* **bounded growth** -- duplicate appends are reclaimed by
  :meth:`CacheStore.compact`, which keeps the last record per key;
  ``max_bytes`` on :class:`PersistentEvaluationCache` (the CLI's
  ``--cache-max-bytes``) triggers it automatically when the store is
  loaded over budget.

The ``cache.append`` fault-injection site (see
:mod:`repro.resilience.faults`) simulates a writer dying mid-append by
writing half a record; the very recovery path above is what the chaos
battery then asserts.
"""

import json
import threading

from repro.evolution.fitness import EvaluationCache
from repro.resilience.durability import AppendLog, LogStore, RecordCodec
from repro.resilience.faults import SITE_CACHE_APPEND
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
    if not isinstance(payload, dict):
        raise ValueError("store record must be a JSON object")
    if payload.get("v") != STORE_VERSION:
        raise ValueError(f"unknown store version {payload.get('v')!r}")
    return decode_key(payload["k"]), EvaluationResult.from_json(payload["o"])


CACHE_CODEC = RecordCodec(lambda record: encode_record(*record), decode_record)


class CacheStore(LogStore):
    """The append-only JSONL file behind a persistent cache."""

    def __init__(self, path):
        super().__init__(
            AppendLog(path, CACHE_CODEC, fault_site=SITE_CACHE_APPEND)
        )
        self.recovered_records = 0

    def load(self):
        """All valid records, truncating a torn tail if one is found."""
        records = self.log.load()
        self.recovered_records = len(records)
        return records

    def append(self, key, outcome):
        """Append one record (not fsync'd: a lost record costs a
        re-simulation, never a wrong answer)."""
        self.log.append((key, outcome), durable=False)

    def compact(self):
        """Atomically rewrite the store keeping the last record per key.

        Duplicate lines accumulate whenever concurrent writers race on
        one key or one store backs many runs; evaluation is
        deterministic, so every duplicate is pure dead weight.  Returns
        the number of superseded lines reclaimed.
        """
        # dict(): first position, last outcome per key
        records, kept = self.log.compact(lambda got: list(dict(got).items()))
        return len(records) - len(kept)

    def __reduce__(self):
        # a copy in another process is a fresh store on the same file:
        # the descriptor, the locks and the counters stay here
        return CacheStore, (self.path,)


class PersistentEvaluationCache(EvaluationCache):
    """An :class:`EvaluationCache` mirrored into a :class:`CacheStore`.

    Drop-in for every ``cache=`` parameter in the package.  The store is
    loaded lazily on the first lookup, insert, membership test or
    ``len()``, so building one is free; ``warm()`` forces the load (and
    reports how many records arrived).
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
        return super().__len__()

    def get(self, key):
        self.warm()
        return super().get(key)

    def __contains__(self, key):
        # a membership test, not a lookup: hits/misses stay put
        self.warm()
        return super().__contains__(key)

    def __len__(self):
        return self.warm()

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
            **self.store.log.timings(),
        }
        return counters

    def close(self):
        self.store.close()

    # the underlying EvaluationCache already drops its lock when crossing
    # process boundaries; the store crosses as a fresh store on its file.
    def __getstate__(self):
        state = super().__getstate__()
        del state["_load_lock"]
        return state

    def __setstate__(self, state):
        super().__setstate__(state)
        self._load_lock = threading.Lock()
