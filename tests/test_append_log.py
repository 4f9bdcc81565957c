"""The append log under every durable store, and the three codecs on it.

:class:`repro.resilience.durability.AppendLog` is the file discipline
of the request journal, the hint store and the cache store.  Each
battery here runs once per store:

* a hypothesis fuzz over torn tails, garbage and binary lines,
  duplicate records and valid lines after the corruption: ``load()``
  keeps exactly the store's fold of the valid prefix and the store
  keeps accepting appends;
* a compaction racing a live writer (the writer's own store, or a
  second one on the same file, as another process would be): no record
  is lost, and the first append after the last compaction lands;
* the orphaned ``.compact.tmp`` sweep and the append timings.

Then the start-up compactions (journal replay, first hint load) and
their read-only fallback.
"""

import errno
import os
import tempfile
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

from repro.core.fsm import FSM
from repro.resilience import durability
from repro.resilience.durability import (
    AppendLog,
    RequestJournal,
    decode_record,
    encode_accept,
    encode_commit,
    write_atomically,
)
from repro.results import EvaluationResult
from repro.service import EvaluationService
from repro.service.cache_store import CacheStore, encode_record
from repro.service.metrics import render_metrics
from repro.service.jsonl import ServeSession
from repro.service.replication import (
    HintStore,
    encode_drained,
    encode_hint,
    encode_wire_record,
)


def make_key(index):
    return ("T", 8, f"suite-{index}", 60, bytes([index % 251, 7]))


def make_outcome(index):
    return EvaluationResult(
        fitness=float(index), mean_time=1.5, n_fields=3,
        n_successful_fields=2,
    )


def wire(index):
    return encode_wire_record(make_key(index), make_outcome(index))


class JournalModel:
    """Accepts keyed by idem; the first accept wins; a commit removes."""

    name = "journal"
    first_wins = True

    def open(self, path):
        return RequestJournal(path)

    def line(self, index, variant):
        return encode_accept(f"k{index}", {"i": index, "variant": variant})

    def removal(self, index):
        return encode_commit(f"k{index}")

    def entry(self, index, variant):
        return f"k{index}", {"i": index, "variant": variant}

    def state(self, store):
        return list(store.replay_entries())

    def append(self, store, index):
        key, spec = self.entry(index, 0)
        store.accept(key, spec)
        return key, spec


class HintModel:
    """Hints keyed by id; the first write wins; a drained marker removes."""

    name = "hints"
    first_wins = True

    def open(self, path):
        return HintStore(path)

    def line(self, index, variant):
        return encode_hint(*self._hint(index, variant))

    def removal(self, index):
        return encode_drained(f"{index:032x}")

    def _hint(self, index, variant):
        peer = "n9" if variant else f"n{index % 3}"
        return f"{index:032x}", peer, [wire(index + 50 * variant)]

    def entry(self, index, variant):
        hint_id, peer, records = self._hint(index, variant)
        return hint_id, (peer, records)

    def state(self, store):
        return list(store.load().items())

    def append(self, store, index):
        peer, records = f"n{index % 3}", [wire(index)]
        return store.append(peer, records), (peer, records)


class CacheModel:
    """Outcomes keyed by cache key; the last write wins; no removal."""

    name = "cache"
    first_wins = False

    def open(self, path):
        return CacheStore(path)

    def line(self, index, variant):
        return encode_record(*self.entry(index, variant))

    def removal(self, index):
        return None

    def entry(self, index, variant):
        return make_key(index), make_outcome(index + 50 * variant)

    def state(self, store):
        return list(dict(store.load()).items())

    def append(self, store, index):
        key, outcome = self.entry(index, 0)
        store.append(key, outcome)
        return key, outcome


MODELS = [JournalModel(), HintModel(), CacheModel()]
by_store = pytest.mark.parametrize(
    "model", MODELS, ids=[model.name for model in MODELS]
)


@by_store
@hyp_settings(max_examples=60, deadline=None)
@given(
    n_records=st.integers(min_value=1, max_value=5),
    remove_mask=st.lists(st.booleans(), min_size=5, max_size=5),
    duplicate=st.booleans(),
    corruption=st.sampled_from(["none", "torn", "garbage", "binary"]),
    n_after=st.integers(min_value=0, max_value=2),
    junk=st.text(min_size=1, max_size=30),
)
# whitespace-only junk lines: a bare "\r" is not a line break, and a
# junk line that strips to nothing is still corruption
@example(n_records=1, remove_mask=[False] * 5, duplicate=False,
         corruption="garbage", n_after=1, junk="\r")
@example(n_records=1, remove_mask=[False] * 5, duplicate=False,
         corruption="garbage", n_after=1, junk=" ")
# JSON that is not an object (the cache codec once raised AttributeError)
@example(n_records=1, remove_mask=[False] * 5, duplicate=False,
         corruption="garbage", n_after=1, junk="1")
def test_fuzzed_log_recovers_its_valid_prefix(
    model, n_records, remove_mask, duplicate, corruption, n_after, junk
):
    """Whatever mix of records, duplicates, removals and mid-file
    corruption lands on disk, ``load()`` keeps exactly the store's fold
    of the valid prefix, truncates everything from the first bad byte on
    -- valid lines after it included -- and the store keeps accepting
    appends on a clean tail."""
    lines, expected = [], {}
    for index in range(n_records):
        key, value = model.entry(index, 0)
        lines.append(model.line(index, 0))
        expected[key] = value
        if duplicate:
            # a retried or racing write of the same key
            lines.append(model.line(index, 1))
            if not model.first_wins:
                expected[key] = model.entry(index, 1)[1]
        if remove_mask[index] and model.removal(index) is not None:
            lines.append(model.removal(index))
            del expected[key]

    payload = "".join(line + "\n" for line in lines).encode()
    if corruption == "torn":
        payload += lines[0].encode()[: max(1, len(lines[0]) // 2)]
    elif corruption == "garbage":
        payload += (junk.replace("\n", " ") + "\n").encode()
    elif corruption == "binary":
        payload += b"\x00\xff\xfe garbage\n"
    if corruption != "none":
        # valid lines after the corruption are part of the torn tail
        for index in range(n_after):
            payload += (model.line(100 + index, 0) + "\n").encode()

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "store.jsonl")
        with open(path, "wb") as handle:
            handle.write(payload)
        store = model.open(path)
        assert model.state(store) == list(expected.items())
        if corruption != "none":
            assert store.dropped_bytes > 0
        fresh = model.append(store, 99)
        store.close()
        revived = model.open(path)
        assert model.state(revived) == [*expected.items(), fresh]
        revived.close()


@by_store
@pytest.mark.parametrize("compactor", ["own-store", "second-store"])
def test_compaction_racing_appends_loses_nothing(tmp_path, model, compactor):
    """Compactions run back to back while one thread appends.  Every
    append lands, including the first one after the last compaction --
    a descriptor left on the replaced file would swallow it."""
    path = tmp_path / "store.jsonl"
    n = 60
    writer = model.open(path)
    other = writer if compactor == "own-store" else model.open(path)
    stop = threading.Event()

    def compact_loop():
        while not stop.is_set():
            other.compact()

    appended = []
    thread = threading.Thread(target=compact_loop)
    thread.start()
    try:
        for index in range(n):
            appended.append(model.append(writer, index))
            time.sleep(0.001)
    finally:
        stop.set()
        thread.join(30)
    appended.append(model.append(writer, n))   # after the last compaction
    writer.close()
    other.close()
    assert other.compactions > 1
    final = model.open(path)
    assert model.state(final) == appended
    final.close()


@by_store
def test_open_sweeps_an_orphaned_compaction(tmp_path, model):
    path = tmp_path / "store.jsonl"
    store = model.open(path)
    kept = model.append(store, 1)
    store.close()
    orphan = f"{path}.compact.tmp"
    with open(orphan, "w") as handle:
        handle.write("a compaction died between write and rename\n")
    revived = model.open(path).open()
    assert not os.path.exists(orphan)
    assert revived.orphans_swept == 1
    assert model.state(revived) == [kept]   # the live log is intact
    revived.close()


def test_stores_report_append_write_and_fsync_timings(tmp_path):
    journal = RequestJournal(tmp_path / "j.jsonl")
    journal.accept("a", {"v": 1})
    journal.commit("a")
    hints = HintStore(tmp_path / "h.jsonl")
    hints.drain(hints.append("n1", [wire(1)]))
    cache = CacheStore(tmp_path / "c.jsonl")
    cache.append(make_key(1), make_outcome(1))
    # accepts and hints are fsync'd; commits, drains and cache records not
    for stats, writes, fsyncs in (
        (journal.stats(), 2, 1),
        (hints.stats(), 2, 1),
        (cache.log.timings(), 1, 0),
    ):
        assert stats["append_write"]["count"] == writes
        assert stats["append_fsync"]["count"] == fsyncs
        assert stats["append_write"]["p50"] > 0
    metrics = render_metrics({"journal": journal.stats()})
    assert "repro_journal_append_write_count 2" in metrics
    assert "repro_journal_append_fsync_p99" in metrics
    for store in (journal, hints, cache):
        store.close()


def test_torn_append_counts_and_skips_the_fsync(tmp_path):
    from repro.resilience import FaultPlan, FaultSpec, faults_installed
    from repro.resilience.faults import SITE_HINT_APPEND, TORN_WRITE

    hints = HintStore(tmp_path / "h.jsonl")
    plan = FaultPlan([FaultSpec(SITE_HINT_APPEND, TORN_WRITE, at=1)])
    with faults_installed(plan):
        torn = hints.append("n1", [wire(1)])
    kept = hints.append("n2", [wire(2)])
    assert hints.torn_writes == 1
    assert hints.log.timings()["append_fsync"]["count"] == 1
    assert [hint_id for hint_id, _, _ in hints.pending()] == [kept]
    hints.close()
    # the next hint cut the torn half-line first: only the torn one is lost
    revived = HintStore(tmp_path / "h.jsonl")
    assert torn != kept and list(revived.load()) == [kept]
    assert revived.dropped_bytes == 0


@by_store
@pytest.mark.parametrize("stop", ["short", "failed"])
def test_a_write_stopped_mid_line_costs_at_most_its_own_record(
    tmp_path, model, stop, monkeypatch
):
    """The first write lands only half the line; then the rest is
    written (a short write) or the disk is full (a failed write).  The
    next whole append cuts a failed write's fragment before writing, so
    nothing fuses and the load drops nothing."""
    path = tmp_path / "store.jsonl"
    store = model.open(path)
    kept = [model.append(store, 0)]
    real_write, calls = os.write, []

    def stop_mid_line(fd, data):
        calls.append(data)
        if len(calls) == 1:
            return real_write(fd, data[: len(data) // 2])
        if stop == "failed":
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_write(fd, data)

    monkeypatch.setattr(os, "write", stop_mid_line)
    if stop == "short":
        kept.append(model.append(store, 1))
    else:
        with pytest.raises(OSError):
            model.append(store, 1)
    monkeypatch.setattr(os, "write", real_write)
    kept.append(model.append(store, 2))
    store.close()
    revived = model.open(path)
    assert model.state(revived) == kept
    assert revived.dropped_bytes == 0
    revived.close()


def test_a_fragment_another_writer_appended_after_is_not_cut(tmp_path):
    from repro.resilience import FaultPlan, FaultSpec, faults_installed
    from repro.resilience.faults import SITE_CACHE_APPEND, TORN_WRITE

    path = tmp_path / "c.jsonl"
    torn, other = CacheStore(path), CacheStore(path)
    plan = FaultPlan([FaultSpec(SITE_CACHE_APPEND, TORN_WRITE, at=1)])
    with faults_installed(plan):
        torn.append(make_key(1), make_outcome(1))
    fragment = path.read_bytes()
    other.append(make_key(2), make_outcome(2))
    torn.append(make_key(3), make_outcome(3))
    # the other writer's record follows the fragment: cutting the tail
    # would destroy it, so every byte stays
    assert path.read_bytes() == fragment + b"".join(
        (encode_record(make_key(i), make_outcome(i)) + "\n").encode()
        for i in (2, 3)
    )
    for store in (torn, other):
        store.close()


def test_write_atomically_leaves_the_old_file_when_the_write_fails(tmp_path):
    path = tmp_path / "data.bin"
    write_atomically(path, b"old", f"{path}.tmp")

    with pytest.raises(TypeError):
        write_atomically(path, "not bytes", f"{path}.tmp")
    assert path.read_bytes() == b"old"
    assert not os.path.exists(f"{path}.tmp")


def test_append_log_reads_records_of_its_codec(tmp_path):
    log = AppendLog(tmp_path / "j.jsonl", durability.JOURNAL_CODEC)
    log.append(("accept", "a", {"v": 1}))
    log.append(("commit", "a", None), durable=False)
    log.close()
    raw = (tmp_path / "j.jsonl").read_bytes()
    # byte-identical to the journal's own encoders
    assert raw == (
        encode_accept("a", {"v": 1}) + "\n" + encode_commit("a") + "\n"
    ).encode()
    assert log.load() == [
        decode_record(encode_accept("a", {"v": 1})),
        decode_record(encode_commit("a")),
    ]


# -- start-up compaction -----------------------------------------------------

T_MAX = 60


def tiny_spec(index):
    return {
        "grid": "T", "size": 8, "agents": 4, "fields": 3, "seed": 5,
        "t_max": T_MAX, "idem": f"boot-{index}",
        "fsm": {"genome": FSM.random(
            np.random.default_rng(900 + index)).genome().tolist()},
    }


def _journal_records(path):
    with open(path, "rb") as handle:
        return [decode_record(line) for line in handle.read().splitlines()]


def _restart(path):
    """One server start on the journal: replay, then wait until every
    replayed request committed.  ``(replayed, journal stats, records
    on disk right after the replay)``."""
    journal = RequestJournal(path)
    with EvaluationService(n_workers=1) as service:
        session = ServeSession(service, journal=journal)
        replayed = session.replay_journal()
        after_replay = _journal_records(path)
        deadline = time.time() + 60
        while journal.committed < replayed and time.time() < deadline:
            time.sleep(0.02)
        stats = journal.stats()
    journal.close()
    return replayed, stats, after_replay


def test_restart_compacts_the_journal_to_its_uncommitted_accepts(tmp_path):
    path = tmp_path / "journal.jsonl"
    specs = [tiny_spec(index) for index in range(3)]
    with RequestJournal(path) as journal:
        for spec in specs:
            journal.accept(spec["idem"], spec)
        journal.commit(specs[1]["idem"])

    replayed, stats, after_replay = _restart(path)
    assert replayed == 2 and stats["replayed"] == 2
    # the last load saw the whole journal; the compaction then dropped
    # the committed pair before any new record
    assert stats["recovered_accepts"] == 3
    assert stats["recovered_commits"] == 1
    assert stats["compactions"] == 1
    uncommitted = [("accept", s["idem"], s) for s in (specs[0], specs[2])]
    assert [r for r in after_replay if r[0] == "accept"] == uncommitted
    assert {r[1] for r in after_replay if r[0] == "commit"} <= {
        specs[0]["idem"], specs[2]["idem"]
    }
    # the replays committed; the next start replays nothing and leaves
    # an empty journal
    assert stats["committed"] == 2
    replayed, _, after = _restart(path)
    assert replayed == 0 and after == []


def test_read_only_journal_still_replays_its_valid_prefix(
    tmp_path, monkeypatch
):
    path = tmp_path / "journal.jsonl"
    spec = tiny_spec(0)
    with RequestJournal(path) as journal:
        journal.accept(spec["idem"], spec)
        journal.accept("done", {"v": 1})
        journal.commit("done")
    before = path.read_bytes()

    def read_only(*args, **kwargs):
        raise PermissionError("read-only file system")

    monkeypatch.setattr(durability, "write_atomically", read_only)
    journal = RequestJournal(path)
    with EvaluationService(n_workers=1) as service:
        assert ServeSession(service, journal=journal).replay_journal() == 1
    journal.close()
    # no compaction happened; the replay's commit is the only new line
    assert path.read_bytes().startswith(before)
    assert journal.compactions == 0


def test_first_hint_load_compacts_and_a_read_only_store_is_read(
    tmp_path, monkeypatch
):
    path = tmp_path / "hints.jsonl"
    store = HintStore(path)
    kept = store.append("n1", [wire(1)])
    store.drain(store.append("n2", [wire(2)]))
    store.close()
    full = path.read_bytes()

    def read_only(*args, **kwargs):
        raise PermissionError("read-only file system")

    with monkeypatch.context() as patch:
        patch.setattr(durability, "write_atomically", read_only)
        readonly = HintStore(path)
        assert list(readonly.load()) == [kept]
        assert readonly.compactions == 0
    assert path.read_bytes() == full

    revived = HintStore(path)
    assert list(revived.load()) == [kept]
    assert revived.compactions == 1
    assert path.read_bytes() == (
        encode_hint(kept, "n1", [wire(1)]) + "\n"
    ).encode()
    # later loads only read
    revived.load()
    assert revived.compactions == 1
    revived.close()
