"""Replicated warm-cache fleet: fanout, hinted handoff, anti-entropy.

Four layers, cheapest first:

* pure-unit: :class:`HintStore` round trips with the same
  truncate-and-continue discipline as ``RequestJournal`` (a hypothesis
  battery fuzzes torn / garbage / duplicate lines to pin the parity),
  :class:`CacheDigest` order-independence and divergence, and the
  orphaned ``.compact.tmp`` sweep in :class:`CacheStore`.
* :class:`Replicator` against fake membership: a dead peer's records
  become durable hints instead of sends, inbound ``apply`` marks the
  source acked (so read-repair never re-queues what the source already
  holds), and two diverged stores converge to the union via
  ``sync_payload`` + ``apply``.
* :class:`ServeSession` wire ops: ``replicate`` and ``sync`` round
  trip through ``handle_op``; both refuse when replication is off.
* end-to-end (``net`` + ``slow``): a 2-node fleet replicates a commit
  so the non-owner's cache digest converges without it ever simulating.
"""

import json
import os
import tempfile
import threading

import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

from repro.results import EvaluationResult
from repro.service.cache_store import CacheStore, PersistentEvaluationCache
from repro.service.replication import (
    CacheDigest,
    HintStore,
    Replicator,
    decode_hint_record,
    decode_wire_record,
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


class FakeCache:
    """The duck-typed slice of PersistentEvaluationCache the replicator
    touches: ``put`` plus the ``_store``/``_lock`` digest-seed hooks."""

    def __init__(self):
        self._store = {}
        self._lock = threading.Lock()
        self.puts = 0

    def put(self, key, outcome):
        with self._lock:
            self._store[key] = outcome
        self.puts += 1


class FakeMembership:
    def __init__(self, node_id, nodes):
        self.node_id = node_id
        self.nodes = nodes   # {node_id: (address_or_None, status)}

    def view(self):
        return {
            "from": self.node_id,
            "nodes": {
                node_id: {
                    "address": list(address) if address else None,
                    "incarnation": 1.0,
                    "heartbeat": 1,
                    "status": status,
                }
                for node_id, (address, status) in self.nodes.items()
            },
        }


class TestWireRecords:
    def test_round_trip(self):
        key, outcome = decode_wire_record(wire(3))
        assert key == make_key(3)
        assert outcome == make_outcome(3)

    @pytest.mark.parametrize(
        "payload", [None, [], ["only-one"], ["a", "b", "c"], "text", 7]
    )
    def test_malformed_rejected(self, payload):
        with pytest.raises((ValueError, TypeError, KeyError, IndexError)):
            decode_wire_record(payload)


class TestHintStore:
    def test_append_drain_load_round_trip(self, tmp_path):
        path = tmp_path / "hints.jsonl"
        store = HintStore(path)
        kept = store.append("n1", [wire(1), wire(2)])
        gone = store.append("n2", [wire(3)])
        store.drain(gone)
        store.close()

        revived = HintStore(path)
        pending = revived.load()
        assert list(pending) == [kept]
        peer, records = pending[kept]
        assert peer == "n1"
        assert [decode_wire_record(r) for r in records] == [
            (make_key(1), make_outcome(1)),
            (make_key(2), make_outcome(2)),
        ]

    def test_torn_tail_is_truncated_and_store_continues(self, tmp_path):
        path = tmp_path / "hints.jsonl"
        store = HintStore(path)
        kept = store.append("n1", [wire(1)])
        store.close()
        with open(path, "ab") as handle:
            handle.write(b'{"v":1,"t":"hint","id":"dead')   # torn write

        revived = HintStore(path)
        assert list(revived.load()) == [kept]
        assert revived.dropped_bytes > 0
        # the truncated store keeps accepting
        second = revived.append("n2", [wire(2)])
        revived.close()
        third = HintStore(path)
        assert sorted(third.load()) == sorted([kept, second])

    def test_compact_drops_drained_pairs(self, tmp_path):
        path = tmp_path / "hints.jsonl"
        store = HintStore(path)
        kept = store.append("n1", [wire(1)])
        for index in range(4):
            store.drain(store.append("n2", [wire(index + 2)]))
        before = os.path.getsize(path)
        assert store.compact() == 1
        assert os.path.getsize(path) < before
        store.close()
        assert list(HintStore(path).load()) == [kept]

    def test_open_sweeps_orphaned_compact_tmp(self, tmp_path):
        path = tmp_path / "hints.jsonl"
        orphan = f"{path}.compact.tmp"
        with open(orphan, "w") as handle:
            handle.write("half-written compaction\n")
        store = HintStore(path).open()
        assert not os.path.exists(orphan)
        assert store.orphans_swept == 1
        store.close()

    def test_open_surfaces_bad_paths_early(self, tmp_path):
        with pytest.raises(OSError):
            HintStore(tmp_path / "no" / "dir" / "hints.jsonl").open()

    @pytest.mark.parametrize("line", [
        "[]",
        "7",
        '{"v":2,"t":"hint","id":"a","peer":"n1","records":[]}',
        '{"v":1,"t":"hint","peer":"n1","records":[]}',
        '{"v":1,"t":"hint","id":"","peer":"n1","records":[]}',
        '{"v":1,"t":"hint","id":"a","records":[]}',
        '{"v":1,"t":"hint","id":"a","peer":"n1"}',
        '{"v":1,"t":"hint","id":"a","peer":"n1","records":[["k"]]}',
        '{"v":1,"t":"mystery","id":"a"}',
        '{"v":1,"t":"drained"}',
    ])
    def test_decode_rejects_malformed_records(self, line):
        with pytest.raises(ValueError):
            decode_hint_record(line)


@hyp_settings(max_examples=60, deadline=None)
@given(
    n_hints=st.integers(min_value=1, max_value=5),
    drain_mask=st.lists(st.booleans(), min_size=5, max_size=5),
    duplicate=st.booleans(),
    corruption=st.sampled_from(["none", "torn", "garbage", "binary"]),
    n_after=st.integers(min_value=0, max_value=2),
    junk=st.text(min_size=1, max_size=30),
)
# whitespace-only junk lines: a bare "\r" is not a line break, and a
# junk line that strips to nothing is still corruption
@example(n_hints=1, drain_mask=[False] * 5, duplicate=False,
         corruption="garbage", n_after=1, junk="\r")
@example(n_hints=1, drain_mask=[False] * 5, duplicate=False,
         corruption="garbage", n_after=1, junk=" ")
def test_fuzzed_hint_log_recovers_like_the_journal(
    n_hints, drain_mask, duplicate, corruption, n_after, junk
):
    """Truncate-and-continue parity with ``RequestJournal``.

    Whatever mix of hint lines, drain markers, duplicate ids and
    mid-file corruption lands on disk, ``load()`` must keep exactly the
    valid prefix (first write of a duplicate id wins; drained ids drop
    out), truncate everything from the first bad byte on -- including
    valid lines after it -- and leave the store accepting appends.
    """
    lines = []
    for index in range(n_hints):
        hint_id = f"{index:032x}"
        lines.append(encode_hint(hint_id, f"n{index % 3}", [wire(index)]))
        if duplicate:
            # a retried append of the same id: first write wins
            lines.append(encode_hint(hint_id, "n9", [wire(index + 50)]))
        if drain_mask[index]:
            lines.append(encode_drained(hint_id))
    expected = {
        f"{index:032x}" for index in range(n_hints) if not drain_mask[index]
    }

    payload = "".join(line + "\n" for line in lines).encode()
    if corruption == "torn":
        payload += lines[0].encode()[: max(1, len(lines[0]) // 2)]
    elif corruption == "garbage":
        payload += (junk.replace("\n", " ") + "\n").encode()
    elif corruption == "binary":
        payload += b"\x00\xff\xfe garbage\n"
    if corruption != "none":
        # valid lines after the corruption are part of the torn tail
        # and must be dropped with it
        for index in range(n_after):
            payload += (
                encode_hint(f"af{index:030x}", "n1", [wire(index)]) + "\n"
            ).encode()

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "hints.jsonl")
        with open(path, "wb") as handle:
            handle.write(payload)
        store = HintStore(path)
        pending = store.load()
        assert set(pending) == expected
        for hint_id, (peer, _) in pending.items():
            index = int(hint_id, 16)
            assert peer == f"n{index % 3}"   # duplicate's n9 never wins
        if corruption != "none":
            assert store.dropped_bytes > 0
        # truncate-and-continue: the next append lands on a clean tail
        fresh = store.append("n1", [wire(99)])
        store.close()
        assert set(HintStore(path).load()) == expected | {fresh}


class TestCacheDigest:
    def test_root_is_order_independent(self):
        left, right = CacheDigest(), CacheDigest()
        keys = [make_key(index) for index in range(20)]
        for key in keys:
            left.add(key)
        for key in reversed(keys):
            right.add(key)
        assert left.root() == right.root()
        assert left.buckets_hex() == right.buckets_hex()

    def test_duplicate_add_is_ignored(self):
        digest = CacheDigest()
        assert digest.add(make_key(1)) is True
        root = digest.root()
        assert digest.add(make_key(1)) is False
        assert digest.root() == root   # XOR must not cancel the key out
        assert len(digest) == 1

    def test_divergent_names_only_the_differing_buckets(self):
        left, right = CacheDigest(), CacheDigest()
        for index in range(10):
            left.add(make_key(index))
            right.add(make_key(index))
        assert left.divergent(right.buckets_hex()) == []
        extra = make_key(77)
        right.add(extra)
        divergent = left.divergent(right.buckets_hex())
        assert divergent == [right.bucket_of(extra)]

    def test_shape_mismatch_pulls_everything(self):
        digest = CacheDigest()
        digest.add(make_key(1))
        assert digest.divergent(None) == list(range(digest.n_buckets))
        assert digest.divergent(["x"]) == list(range(digest.n_buckets))


class TestReplicator:
    def _replicator(self, tmp_path, nodes, factor=2):
        cache = FakeCache()
        hints = HintStore(tmp_path / "hints.jsonl")
        membership = FakeMembership("n0", nodes)
        replicator = Replicator(
            "n0", cache, membership, factor=factor, hints=hints,
        )
        return replicator, cache, hints

    def test_dead_peer_gets_a_durable_hint_not_a_send(self, tmp_path):
        replicator, _, hints = self._replicator(
            tmp_path, {"n0": (None, "alive"), "n1": (None, "dead")},
        )
        spec = {"grid": "T", "size": 8, "agents": 4, "fields": 3,
                "seed": 5, "t_max": 60}
        assert replicator.offer(spec, [make_key(1)], [make_outcome(1)])
        # run the fanout synchronously: deterministic, no worker thread
        routing_key, records = replicator._queue.popleft()
        replicator._fan_out(routing_key, records)
        assert replicator.sends == 0
        assert replicator.hints_queued == 1
        pending = hints.pending()
        assert len(pending) == 1
        _, peer, wire_records = pending[0]
        assert peer == "n1"
        assert decode_wire_record(wire_records[0]) == (
            make_key(1), make_outcome(1),
        )
        # the hinted key is acked: re-offering must not re-queue a hint
        assert replicator._is_acked(make_key(1), "n1")
        replicator._fan_out(routing_key, records)
        assert replicator.hints_queued == 1

    def test_offer_of_a_settled_key_is_skipped(self, tmp_path):
        replicator, _, _ = self._replicator(
            tmp_path, {"n0": (None, "alive"), "n1": (None, "dead")},
        )
        spec = {"grid": "T", "size": 8, "agents": 4, "fields": 3,
                "seed": 5, "t_max": 60}
        replicator.offer(spec, [make_key(1)], [make_outcome(1)])
        routing_key, records = replicator._queue.popleft()
        replicator._fan_out(routing_key, records)
        assert not replicator.offer(
            spec, [make_key(1)], [make_outcome(1)]
        )
        assert replicator.offers_skipped == 1

    def test_apply_marks_source_acked_and_feeds_digest(self, tmp_path):
        replicator, cache, _ = self._replicator(
            tmp_path, {"n0": (None, "alive"), "n1": (None, "alive")},
        )
        applied = replicator.apply([wire(1), wire(2)], source="n1")
        assert applied == 2
        assert cache._store[make_key(1)] == make_outcome(1)
        assert replicator._is_acked(make_key(1), "n1")
        assert len(replicator.digest) == 2
        # one poisoned record is skipped, not fatal
        assert replicator.apply([["bad"], wire(3)], source="n1") == 1
        assert replicator.records_rejected == 1

    def test_sync_payload_and_apply_converge_to_the_union(self, tmp_path):
        left, left_cache, _ = self._replicator(
            tmp_path / "a", {"n0": (None, "alive")},
        )
        right_cache = FakeCache()
        right = Replicator(
            "n1", right_cache, FakeMembership("n1", {"n1": (None, "alive")}),
            factor=2,
        )
        for index in range(4):
            left_cache.put(make_key(index), make_outcome(index))
        for index in range(2, 7):
            right_cache.put(make_key(index), make_outcome(index))
        left.seed_digest()
        right.seed_digest()
        assert left.digest.root() != right.digest.root()
        divergent = left.digest.divergent(right.digest.buckets_hex())
        left.apply(right.sync_payload(divergent))
        right.apply(
            left.sync_payload(
                right.digest.divergent(left.digest.buckets_hex())
            )
        )
        assert left.digest.root() == right.digest.root()
        assert set(left_cache._store) == set(right_cache._store) == {
            make_key(index) for index in range(7)
        }

    def test_quiesced_tracks_queue_and_hints(self, tmp_path):
        replicator, _, hints = self._replicator(
            tmp_path, {"n0": (None, "alive"), "n1": (None, "dead")},
        )
        assert replicator.quiesced()
        spec = {"grid": "T", "size": 8, "agents": 4, "fields": 3,
                "seed": 5, "t_max": 60}
        replicator.offer(spec, [make_key(1)], [make_outcome(1)])
        assert not replicator.quiesced()
        routing_key, records = replicator._queue.popleft()
        replicator._fan_out(routing_key, records)
        assert not replicator.quiesced()   # the hint is still pending
        hints.drain(hints.pending()[0][0])
        assert replicator.quiesced()

    def test_summary_flattens_to_numeric_leaves(self, tmp_path):
        replicator, _, _ = self._replicator(
            tmp_path, {"n0": (None, "alive"), "n1": (None, "alive")},
        )
        summary = replicator.summary()
        for field in ("factor", "pending", "offers", "sends",
                      "hints_queued", "hints_drained", "sync_pulls"):
            assert isinstance(summary[field], int)
        assert isinstance(summary["digest"]["root"], str)
        assert summary["hints"]["pending"] == 0


class TestServeSessionOps:
    def _session(self, tmp_path):
        from repro.service.jsonl import ServeSession

        cache = FakeCache()
        membership = FakeMembership(
            "n0", {"n0": (None, "alive"), "n1": (None, "alive")},
        )
        replicator = Replicator("n0", cache, membership, factor=2)
        return ServeSession(service=None, replicator=replicator), cache

    def test_replicate_op_applies_records(self, tmp_path):
        session, cache = self._session(tmp_path)
        response = session.handle_op({
            "id": "r1", "op": "replicate", "from": "n1",
            "records": [wire(1), wire(2)],
        })
        assert response == {"op": "replicate", "id": "r1", "ok": True,
                            "applied": 2}
        assert cache._store[make_key(2)] == make_outcome(2)

    def test_sync_op_serves_requested_buckets(self, tmp_path):
        session, cache = self._session(tmp_path)
        cache.put(make_key(5), make_outcome(5))
        session.replicator.seed_digest()
        bucket = session.replicator.digest.bucket_of(make_key(5))
        response = session.handle_op(
            {"op": "sync", "from": "n1", "buckets": [bucket]}
        )
        assert response["ok"] is True
        assert [decode_wire_record(r) for r in response["records"]] == [
            (make_key(5), make_outcome(5)),
        ]
        empty = session.handle_op({
            "op": "sync", "from": "n1",
            "buckets": [(bucket + 1) % session.replicator.digest.n_buckets],
        })
        assert empty["records"] == []

    def test_ops_refused_without_a_replicator(self):
        from repro.service.jsonl import ServeSession

        session = ServeSession(service=None)
        for op in ("replicate", "sync"):
            with pytest.raises(ValueError, match="replication not enabled"):
                session.handle_op({"op": op, "records": []})


class TestCacheStoreOrphanSweep:
    def test_orphaned_compact_tmp_is_swept_on_open(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        orphan = f"{path}.compact.tmp"
        store = CacheStore(path)
        store.append(make_key(1), make_outcome(1))
        store.close()
        with open(orphan, "w") as handle:
            handle.write("a compaction died between write and rename\n")
        revived = CacheStore(path)
        revived.open()
        assert not os.path.exists(orphan)
        assert revived.orphans_swept == 1
        # the real store was never at risk: its records are intact
        assert dict(revived.load()) == {make_key(1): make_outcome(1)}
        revived.close()

    def test_sweep_count_rides_cache_stats(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with open(f"{path}.compact.tmp", "w") as handle:
            handle.write("orphan\n")
        cache = PersistentEvaluationCache(path)
        cache.store.open()
        assert cache.stats()["persistent"]["orphans_swept"] == 1
        cache.close()


@pytest.mark.net
@pytest.mark.slow
class TestReplicatedFleet:
    def test_commit_replicates_and_digests_converge(self, tmp_path):
        """A 2-node fleet: one node simulates, the peer's cache digest
        converges via fanout/anti-entropy without it ever simulating."""
        import time

        from repro.resilience.chaos import (
            _await, _node_stats, _replication_settled,
        )
        from repro.service.client import ClientOptions
        from repro.service.cluster import Cluster, RouterClient

        spec = {"grid": "T", "size": 8, "agents": 4, "fields": 2,
                "seed": 5, "t_max": 40}
        with Cluster(
            2, workers=1, gossip_interval=0.1, dead_after=2.0,
            replication=2, data_dir=str(tmp_path),
        ) as cluster:
            with RouterClient(
                [cluster.seed], options=ClientOptions(timeout=60.0)
            ) as router:
                outcomes = router.evaluate(**spec)
            assert len(outcomes) == 1
            assert _await(
                lambda: _replication_settled(_node_stats(cluster), 2),
                30.0, interval=0.2,
            ), "replication never settled on the 2-node fleet"
            stats = _node_stats(cluster)
            simulated = sum(
                int(service.get("simulated_fsms", 0))
                for service in stats.values()
            )
            assert simulated == 1   # exactly one node did the work
            roots = {
                service["replication"]["digest"]["root"]
                for service in stats.values()
            }
            assert len(roots) == 1
            received = sum(
                service["replication"]["records_received"]
                + service["replication"]["sync_records_pulled"]
                for service in stats.values()
            )
            assert received >= 1   # the peer got the records, not a rerun
