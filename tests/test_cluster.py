"""The cluster battery: ring invariants, gossip, routing, fleet chaos.

Four layers, cheapest first:

* pure-unit: :class:`HashRing` invariants (hypothesis sweeps -- balance
  within bound, *exactly* minimal remap on join/leave),
  :func:`batch_key` identity, :class:`ClusterMembership` merge rules,
  and the cluster fault-site extensions to ``FaultPlan`` (targets
  validate and round-trip; ``shrink_plan`` still minimises over the new
  sites; partition faults can never fire on a non-cluster run).
* in-thread fleets: several :class:`AsyncEvaluationServer` instances on
  daemon threads wired with real memberships and gossip agents --
  bootstrap-from-one-seed discovery, key-sharded routing, failover
  under the original idempotency key, the ``partition`` op.
* subprocess fleets (``net``/``slow``): a real :class:`Cluster` of
  supervised ``serve --tcp`` children -- kill-one-node mid-batch stays
  bit-exact, partitions heal, the fleet supervisor's revival budget is
  honoured, and a chaos plan over the cluster sites replays clean.

No pytest-asyncio in the container: async servers run on daemon threads
via the shared :class:`tests.conftest.ServerInThread`.
"""

import itertools
import threading
import time

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.resilience.chaos import (
    fault_target,
    gray_workload,
    pinned_workload,
    run_cluster_plan,
    shrink_plan,
)
from repro.resilience.faults import (
    CLUSTER_SITES,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    KILL,
    KNOWN_SITES,
    PARTITION,
    SITE_CLUSTER_LINK,
    SITE_CLUSTER_NODE,
    SITE_POOL_JOB,
    installed as faults_installed,
)
from repro.service import ClientOptions, EvaluationService, TCPServiceClient
from repro.service.transport import TransportError
from repro.service.cluster import (
    Cluster,
    ClusterMembership,
    GossipAgent,
    GrayDetector,
    HashRing,
    RouterClient,
    RouterError,
    batch_key,
    format_peers,
    parse_peers,
    pick_free_ports,
)
from repro.service.metrics import LatencyHistogram
from tests.conftest import ServerInThread

node_counts = st.integers(min_value=2, max_value=7)
node_prefixes = st.text(
    alphabet="abcdefxyz", min_size=0, max_size=5
)


def ring_nodes(prefix, n):
    return [f"{prefix}node{index}" for index in range(n)]


KEYS = [f"key{index}" for index in range(400)]


class TestHashRing:
    @given(n=node_counts, prefix=node_prefixes)
    @hyp_settings(max_examples=30, deadline=None)
    def test_balance_within_bound(self, n, prefix):
        ring = HashRing(ring_nodes(prefix, n), replicas=64)
        counts = {node: 0 for node in ring.nodes}
        for key in KEYS:
            counts[ring.owner(key)] += 1
        mean = len(KEYS) / n
        assert max(counts.values()) <= 2.2 * mean
        assert min(counts.values()) >= mean / 4

    @given(n=node_counts, prefix=node_prefixes)
    @hyp_settings(max_examples=30, deadline=None)
    def test_minimal_remap_on_leave(self, n, prefix):
        nodes = ring_nodes(prefix, n)
        ring = HashRing(nodes, replicas=32)
        before = {key: ring.owner(key) for key in KEYS}
        gone = nodes[n // 2]
        ring.remove(gone)
        for key in KEYS:
            if before[key] == gone:
                assert ring.owner(key) != gone
            else:
                # the exact minimal-remap property: keys the removed
                # node did not own keep their owner, bit for bit
                assert ring.owner(key) == before[key]

    @given(n=node_counts, prefix=node_prefixes)
    @hyp_settings(max_examples=30, deadline=None)
    def test_minimal_remap_on_join(self, n, prefix):
        nodes = ring_nodes(prefix, n)
        ring = HashRing(nodes, replicas=32)
        before = {key: ring.owner(key) for key in KEYS}
        ring.add(f"{prefix}joiner")
        for key in KEYS:
            after = ring.owner(key)
            # a new node only *steals* keys; it never shuffles keys
            # between pre-existing nodes
            assert after == before[key] or after == f"{prefix}joiner"

    def test_remove_then_add_restores_layout(self):
        ring = HashRing(["a", "b", "c"])
        before = {key: ring.owner(key) for key in KEYS}
        ring.remove("b")
        ring.add("b")
        assert {key: ring.owner(key) for key in KEYS} == before

    def test_layout_is_stable_across_instances(self):
        one = HashRing(["a", "b", "c"])
        two = HashRing(["c", "a", "b"])   # insertion order must not matter
        assert all(one.owner(key) == two.owner(key) for key in KEYS)

    def test_owners_is_a_preference_list(self):
        ring = HashRing(["a", "b", "c", "d"])
        for key in KEYS[:50]:
            owners = ring.owners(key)
            assert owners[0] == ring.owner(key)
            assert sorted(owners) == ["a", "b", "c", "d"]   # each once
        assert ring.owners(KEYS[0], count=2) == ring.owners(KEYS[0])[:2]

    def test_empty_and_degenerate_rings(self):
        ring = HashRing()
        assert ring.owner("anything") is None
        assert ring.owners("anything") == []
        ring.add("only")
        assert ring.owner("anything") == "only"
        ring.remove("never-added")   # a no-op, not an error
        assert len(ring) == 1
        with pytest.raises(ValueError):
            HashRing(replicas=0)


class TestBatchKey:
    def test_defaults_match_the_wire_codec(self):
        # a bare spec and one spelling every default explicitly must
        # coalesce onto the same node
        assert batch_key({}) == batch_key({
            "grid": "T", "size": 16, "agents": 8, "fields": 100,
            "seed": 2013, "t_max": 200, "backend": "numpy",
        })

    def test_every_knob_changes_the_key(self):
        base = {"grid": "T", "size": 8, "agents": 4, "fields": 3,
                "seed": 5, "t_max": 60, "backend": "numpy"}
        for knob, value in [
            ("grid", "S"), ("size", 16), ("agents", 8), ("fields", 10),
            ("seed", 6), ("t_max", 61), ("backend", "numba"),
        ]:
            assert batch_key({**base, knob: value}) != batch_key(base)

    def test_fsm_and_idempotency_do_not_shard(self):
        # same workload, different genome/idem: must land on one node's
        # warm cache and coalesce into one dispatcher batch
        assert batch_key({"fsm": {"genome": [1]}, "idem": "x"}) \
            == batch_key({"fsm": {"genome": [2]}, "idem": "y"})


class TestMembership:
    def make_pair(self, dead_after=60.0):
        a = ClusterMembership(
            "a", ("127.0.0.1", 1000),
            peers={"b": ("127.0.0.1", 1001)}, dead_after=dead_after,
        )
        b = ClusterMembership(
            "b", ("127.0.0.1", 1001),
            peers={"a": ("127.0.0.1", 1000)}, dead_after=dead_after,
        )
        return a, b

    def test_higher_heartbeat_wins_the_merge(self):
        a, b = self.make_pair()
        for _ in range(3):
            a.beat()
        b.merge(a.view())
        assert b.view()["nodes"]["a"]["heartbeat"] == 3
        # stale view (heartbeat 0 from bootstrap) must not regress it
        stale = {"from": "x", "nodes": {
            "a": {"address": [None, 0], "incarnation": a.incarnation,
                  "heartbeat": 1, "status": "alive"}}}
        b.merge(stale)
        assert b.view()["nodes"]["a"]["heartbeat"] == 3

    def test_dead_wins_on_equal_pair(self):
        a, b = self.make_pair()
        a.beat()
        b.merge(a.view())
        certificate = a.view()
        certificate["nodes"]["a"]["status"] = "dead"
        b.merge(certificate)
        assert b.view()["nodes"]["a"]["status"] == "dead"

    def test_restart_incarnation_refutes_a_stale_death(self):
        a, b = self.make_pair()
        a.beat()
        dead = a.view()
        dead["nodes"]["a"]["status"] = "dead"
        b.merge(dead)
        # "a" restarts: a fresh membership carries a later incarnation,
        # which must beat the death certificate even at heartbeat 0
        reborn = ClusterMembership("a", ("127.0.0.1", 1000))
        assert reborn.incarnation > a.incarnation
        b.merge(reborn.view())
        assert b.view()["nodes"]["a"]["status"] == "alive"

    def test_staleness_reports_suspect_locally(self):
        a, b = self.make_pair(dead_after=0.05)
        a.beat()
        b.merge(a.view())
        time.sleep(0.1)
        view = b.view()
        assert view["nodes"]["a"]["status"] == "suspect"
        # suspicion is recomputed, never merged: progress clears it
        a.beat()
        b.merge(a.view())
        assert b.view()["nodes"]["a"]["status"] == "alive"

    def test_blocked_sender_gets_nothing_and_gives_nothing(self):
        a, b = self.make_pair()
        b.set_blocked({"a"})
        a.beat()
        assert b.exchange(a.view()) is None
        assert b.view()["nodes"]["a"]["heartbeat"] == 0   # not merged
        assert b.refused == 1
        b.set_blocked(())
        assert b.exchange(a.view()) is not None   # healed

    def test_bootstrap_exchange_answers_plain_clients(self):
        a, _ = self.make_pair()
        view = a.exchange(None)   # a client's health op carries no view
        assert sorted(view["nodes"]) == ["a", "b"]

    def test_peers_excludes_self_dead_and_blocked(self):
        a, _ = self.make_pair()
        assert set(a.peers()) == {"b"}
        a.mark_dead("b")
        assert a.peers() == {}

    def test_peer_wire_format_round_trips(self):
        peers = {"n0": ("127.0.0.1", 5000), "n1": ("10.0.0.2", 5001)}
        assert parse_peers(format_peers(peers)) == peers
        with pytest.raises(ValueError):
            parse_peers("garbage")

    def test_pick_free_ports_are_distinct(self):
        ports = pick_free_ports(5)
        assert len(set(ports)) == 5


class TestClusterFaultSites:
    def test_default_random_plans_never_draw_cluster_sites(self):
        # existing seeded sweeps must reproduce exactly: the default
        # site pool is unchanged
        for seed in range(20):
            for fault in FaultPlan.random(seed, n_faults=6):
                assert fault.site in KNOWN_SITES
                assert fault.site not in CLUSTER_SITES

    def test_target_validation(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(SITE_POOL_JOB, "crash", at=1, target="0")
        with pytest.raises(FaultPlanError):
            FaultSpec(SITE_CLUSTER_LINK, PARTITION, at=1, target="2")
        spec = FaultSpec(SITE_CLUSTER_LINK, PARTITION, at=1, target="0|2")
        assert FaultSpec.from_json(spec.to_json()) == spec
        node = FaultSpec(SITE_CLUSTER_NODE, KILL, at=2, target="1")
        assert FaultSpec.from_json(node.to_json()) == node

    @given(seed=st.integers(min_value=0, max_value=500),
           n_nodes=st.integers(min_value=2, max_value=5))
    @hyp_settings(max_examples=40, deadline=None)
    def test_random_cluster_plans_draw_valid_targets(self, seed, n_nodes):
        plan = FaultPlan.random(
            seed, n_faults=5, sites=CLUSTER_SITES, n_nodes=n_nodes,
        )
        assert FaultPlan.from_json(plan.to_json()).to_json() \
            == plan.to_json()
        for fault in plan:
            target = fault_target(fault, n_nodes)
            if fault.site == SITE_CLUSTER_NODE:
                assert fault.kind == KILL
                assert target in range(n_nodes)
            else:
                assert fault.kind == PARTITION
                first, second = target
                assert first != second
                assert first in range(n_nodes)
                assert second in range(n_nodes)

    def test_fault_target_derives_from_at_without_target(self):
        kill = FaultSpec(SITE_CLUSTER_NODE, KILL, at=4)
        assert fault_target(kill, 3) == 0   # (4-1) % 3
        link = FaultSpec(SITE_CLUSTER_LINK, PARTITION, at=3)
        assert fault_target(link, 3) == (2, 0)
        # a degenerate pair (i == i) is repaired, never returned
        self_link = FaultSpec(SITE_CLUSTER_LINK, PARTITION, at=1,
                              target="2|2")
        first, second = fault_target(self_link, 3)
        assert first != second

    @given(seed=st.integers(min_value=0, max_value=200))
    @hyp_settings(max_examples=25, deadline=None)
    def test_shrink_over_cluster_sites_still_reproduces(self, seed):
        plan = FaultPlan.random(
            seed, n_faults=5, sites=CLUSTER_SITES, n_nodes=3,
        )
        # a deterministic failure oracle: the run "fails" iff the plan
        # still carries a node-kill scheduled at an odd hit count
        def still_fails(candidate):
            return any(
                fault.site == SITE_CLUSTER_NODE and fault.at % 2 == 1
                for fault in candidate
            )

        if not still_fails(plan):
            return
        minimal = shrink_plan(plan, still_fails)
        assert still_fails(minimal)   # shrunk plans still reproduce
        assert len(minimal) == 1      # and are minimal for this oracle
        assert all(fault in list(plan) for fault in minimal)

    def test_partition_sites_never_fire_on_non_cluster_runs(self):
        # arm a cluster-only plan, then run the ordinary single-server
        # stack end to end: no hook exists outside the cluster
        # orchestrator, so every fault must stay pending
        workload = pinned_workload()
        plan = FaultPlan([
            FaultSpec(SITE_CLUSTER_NODE, KILL, at=1, target="0"),
            FaultSpec(SITE_CLUSTER_LINK, PARTITION, at=1, target="0|1"),
        ], seed=0, name="cluster-only")
        with EvaluationService(n_workers=1) as service:
            with ServerInThread(service) as server:
                with faults_installed(plan) as injector:
                    with TCPServiceClient(server.address) as client:
                        got = client.evaluate(**workload.specs[0])
        assert got == workload.expected[0]
        assert injector.fired == []
        assert len(injector.pending()) == 2


class _ThreadFleet:
    """N in-thread TCP servers wired as one gossiping fleet."""

    def __init__(self, n, gossip_interval=0.05, dead_after=1.0,
                 start_agents=True):
        ports = pick_free_ports(n)
        self.peers = {
            f"n{index}": ("127.0.0.1", port)
            for index, port in enumerate(ports)
        }
        self.memberships = {
            node_id: ClusterMembership(
                node_id, address, peers=self.peers, dead_after=dead_after,
            )
            for node_id, address in self.peers.items()
        }
        self.services = {}
        self.servers = {}
        self.agents = {}
        self.gossip_interval = gossip_interval
        self.start_agents = start_agents
        self._stack = []

    def __enter__(self):
        for node_id, (host, port) in self.peers.items():
            service = EvaluationService(n_workers=1)
            service.__enter__()
            server = ServerInThread(
                service, host=host, port=port,
                membership=self.memberships[node_id],
            )
            server.__enter__()
            self.services[node_id] = service
            self.servers[node_id] = server
            self._stack.append((server, service))
            if self.start_agents:
                self.agents[node_id] = GossipAgent(
                    self.memberships[node_id],
                    interval=self.gossip_interval, seed=hash(node_id) % 100,
                ).start()
        return self

    def __exit__(self, *exc_info):
        for agent in self.agents.values():
            agent.stop()
        for server, service in reversed(self._stack):
            try:
                server.__exit__(*exc_info)
            except Exception:
                pass
            service.__exit__(*exc_info)
        return False

    def stop_node(self, node_id):
        server, service = next(
            (srv, svc) for srv, svc in self._stack
            if srv is self.servers[node_id]
        )
        server.__exit__(None, None, None)
        service.__exit__(None, None, None)
        self._stack = [
            pair for pair in self._stack if pair[0] is not server
        ]
        agent = self.agents.pop(node_id, None)
        if agent is not None:
            agent.stop()

    def address(self, node_id):
        return self.peers[node_id]


@pytest.mark.net
class TestThreadFleet:
    def test_bootstrap_from_one_seed_discovers_the_fleet(self):
        with _ThreadFleet(3, start_agents=False) as fleet:
            with RouterClient([fleet.address("n1")]) as router:
                assert sorted(router.nodes) == ["n0", "n1", "n2"]
                assert router.ping() is True

    def test_gossip_agents_converge_heartbeats(self):
        with _ThreadFleet(3) as fleet:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                views = [m.view() for m in fleet.memberships.values()]
                if all(
                    entry["heartbeat"] >= 2
                    for view in views
                    for entry in view["nodes"].values()
                ):
                    break
                time.sleep(0.05)
            else:
                raise AssertionError("gossip never converged")

    def test_requests_shard_by_batch_key(self):
        workload = pinned_workload()
        with _ThreadFleet(3, start_agents=False) as fleet:
            with RouterClient([fleet.address("n0")]) as router:
                for spec, want in zip(workload.specs, workload.expected):
                    assert router.evaluate(**spec) == want
                routed = router.stats()["routed"]
                # the chaos specs share one batch key: one owner serves
                # every request, its cache warm for all of them
                assert len(routed) == 1
                varied = dict(workload.specs[0], seed=99)
                expected_owner = HashRing(
                    ["n0", "n1", "n2"]
                ).owner(batch_key(varied))
                router.request(dict(varied))
                assert router.stats()["routed"].get(expected_owner, 0) >= 1

    @pytest.mark.parametrize("n_nodes", [1, 2, 3])
    def test_fleet_of_n_serves_many_keys_bit_exact(self, n_nodes):
        # three suite seeds: several batch keys spread over the ring
        workload = gray_workload(n_passes=3)
        errors = []
        with _ThreadFleet(n_nodes, start_agents=False) as fleet:

            def drive():
                try:
                    with RouterClient([fleet.address("n0")]) as router:
                        for spec, want in zip(
                            workload.specs, workload.expected
                        ):
                            assert router.evaluate(**spec) == want
                except Exception as exc:   # surfaced after join
                    errors.append(exc)

            threads = [threading.Thread(target=drive) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        assert not errors

    def test_failover_reroutes_to_next_owner_bit_exact(self):
        workload = pinned_workload()
        with _ThreadFleet(3, start_agents=False) as fleet:
            with RouterClient([fleet.address("n0")]) as router:
                owner = router._ring.owner(batch_key(workload.specs[0]))
                fleet.stop_node(owner)
                for spec, want in zip(workload.specs, workload.expected):
                    assert router.evaluate(**spec) == want
                assert router.failovers >= 1
                assert owner not in router.stats()["routed"]

    def test_partition_op_blocks_then_heals(self):
        with _ThreadFleet(2, start_agents=False) as fleet:
            with TCPServiceClient(fleet.address("n0")) as client:
                response = client.request(
                    {"op": "partition", "block": ["n1"]}
                )
                assert response["blocked"] == ["n1"]
                # a blocked peer's gossip is refused: no membership comes
                # back on its health op
                blocked_view = fleet.memberships["n0"].exchange(
                    {"from": "n1", "nodes": {}}
                )
                assert blocked_view is None
                client.request({"op": "partition", "block": []})
                healed_view = fleet.memberships["n0"].exchange(
                    {"from": "n1", "nodes": {}}
                )
                assert healed_view is not None

    def test_partition_op_without_membership_is_a_bad_request(self):
        from repro.service.transport import TransportError

        with EvaluationService(n_workers=1) as service:
            with ServerInThread(service) as server:
                with TCPServiceClient(server.address) as client:
                    health = client.health()
                    assert "membership" not in health
                    with pytest.raises(TransportError):
                        client.request(
                            {"op": "partition", "block": ["n1"]}
                        )

    def test_router_reuses_the_original_idempotency_key(self):
        sent = {"a": [], "b": []}

        class _FakeClient:
            def __init__(self, name, fail):
                self.name, self.fail = name, fail

            def request(self, spec):
                sent[self.name].append(dict(spec))
                if self.fail:
                    raise ConnectionError("node down")
                return {"outcomes": []}

            def close(self):
                pass

        router = RouterClient.__new__(RouterClient)
        router._seeds = [("127.0.0.1", 1)]
        router.replicas = 8
        router.timeout = 1.0
        router.retry_policy = None
        router.breaker_factory = None
        router._statuses = ("alive",)
        router._ids = itertools.count()
        router._nodes = {"a": ("127.0.0.1", 1), "b": ("127.0.0.1", 2)}
        router._ring = HashRing(["a", "b"], replicas=8)
        key = batch_key({"seed": 77})
        first, second = router._ring.owners(key)
        router._clients = {
            first: _FakeClient(first, fail=True),
            second: _FakeClient(second, fail=False),
        }
        router.routed = {}
        router.failovers = 0
        router.refreshes = 0
        router.hedge = False
        router.hedge_floor = 0.05
        router.gray = GrayDetector()
        router.latency = LatencyHistogram()
        router.hedges = router.hedge_wins = router.hedge_cancelled = 0
        router.deadline_refused = 0
        router.replica_reads = 0
        router._router_id = "router-test"
        router.request({"seed": 77})
        failed, served = sent[first], sent[second]
        assert len(failed) == 1 and len(served) == 1
        # the very same spec moved to the next ring owner: same id, same
        # idempotency key, so the server deduplicates instead of
        # re-simulating
        assert failed[0]["idem"] == served[0]["idem"]
        assert failed[0]["id"] == served[0]["id"]
        assert router.failovers == 1

    def test_router_error_when_no_seed_responds(self):
        port = pick_free_ports(1)[0]
        with pytest.raises(RouterError):
            RouterClient([("127.0.0.1", port)],
                         options=ClientOptions(timeout=0.5))


@pytest.mark.net
@pytest.mark.slow
class TestSubprocessFleet:
    def test_kill_one_node_mid_batch_stays_bit_exact(self):
        workload = pinned_workload()
        with Cluster(2, workers=1, log=lambda line: None) as cluster:
            with cluster.router() as router:
                for spec, want in zip(workload.specs, workload.expected):
                    assert router.evaluate(**spec) == want
                cluster.kill_node(0)
                for spec, want in zip(workload.specs, workload.expected):
                    assert router.evaluate(**spec) == want
            # the per-node supervisor restarted it on its pinned port
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if cluster.nodes[0].supervisor.restarts >= 1:
                    break
                time.sleep(0.1)
            assert cluster.nodes[0].supervisor.restarts >= 1
            assert cluster.snapshot()["nodes"]["n0"]["status"] == "alive"

    def test_partition_heals_and_membership_converges(self):
        with Cluster(
            2, workers=1, gossip_interval=0.1, dead_after=0.8,
            log=lambda line: None,
        ) as cluster:
            cluster.partition(0, 1)
            deadline = time.monotonic() + 15.0
            suspected = False
            while time.monotonic() < deadline and not suspected:
                with TCPServiceClient(
                    cluster.nodes[0].address,
                    options=ClientOptions(timeout=5.0),
                ) as client:
                    view = client.health()["membership"]
                suspected = view["nodes"]["n1"]["status"] == "suspect"
                time.sleep(0.1)
            assert suspected, "partitioned peer never became suspect"
            cluster.heal(0, 1)
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                with TCPServiceClient(
                    cluster.nodes[0].address,
                    options=ClientOptions(timeout=5.0),
                ) as client:
                    view = client.health()["membership"]
                if all(
                    entry["status"] == "alive"
                    for entry in view["nodes"].values()
                ):
                    break
                time.sleep(0.1)
            else:
                raise AssertionError("membership never healed")

    def test_fleet_supervisor_revival_budget(self):
        # per-node budget 0: any kill exhausts the node's supervisor.
        # fleet budget 1: the fleet monitor revives it once; the second
        # exhaustion buries it and rebalances the ring.
        with Cluster(
            2, workers=1, node_restarts=0, fleet_restarts=1,
            fleet_interval=0.1, log=lambda line: None,
        ) as cluster:
            cluster.kill_node(0)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if cluster.nodes[0].revivals == 1 \
                        and cluster.nodes[0].supervisor.running:
                    break
                time.sleep(0.1)
            assert cluster.nodes[0].revivals == 1
            cluster.kill_node(0)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if cluster.snapshot()["nodes"]["n0"]["status"] == "dead":
                    break
                time.sleep(0.1)
            snapshot = cluster.snapshot()
            assert snapshot["nodes"]["n0"]["status"] == "dead"
            assert snapshot["ring"] == ["n1"]
            # the survivor still serves, and the router follows the ring
            workload = pinned_workload()
            with cluster.router() as router:
                assert router.evaluate(**workload.specs[0]) \
                    == workload.expected[0]

    def test_chaos_plan_over_cluster_sites_replays_clean(self):
        plan = FaultPlan([
            FaultSpec(SITE_CLUSTER_NODE, KILL, at=1, target="1"),
            FaultSpec(SITE_CLUSTER_LINK, PARTITION, at=1, seconds=0.3,
                      target="0|1"),
        ], seed=7, name="fleet-chaos")
        result = run_cluster_plan(plan, n_nodes=2, n_clients=2, n_passes=2)
        assert result.ok, result.errors
        assert len(result.fired) == 2
        assert result.pending == 0

    def test_restarted_node_rejoins_after_clean_stop(self):
        workload = pinned_workload()
        with Cluster(2, workers=1, log=lambda line: None) as cluster:
            cluster.stop_node(0)
            assert cluster.snapshot()["ring"] == ["n1"]
            cluster.restart_node(0)
            assert sorted(cluster.snapshot()["ring"]) == ["n0", "n1"]
            with cluster.router() as router:
                assert sorted(router.nodes) == ["n0", "n1"]
                assert router.evaluate(**workload.specs[0]) \
                    == workload.expected[0]


class _Clock:
    """Hand-cranked monotonic clock for deterministic gray scoring."""

    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestGrayDetector:
    def feed_fast_fleet(self, gray, nodes=("n1", "n2"), seconds=0.01):
        for _ in range(3):
            for node in nodes:
                assert gray.observe(node, seconds) is None

    def test_slow_outlier_is_demoted_not_the_fast_fleet(self):
        clock = _Clock()
        gray = GrayDetector(clock=clock)
        self.feed_fast_fleet(gray)
        transitions = [gray.observe("n0", 0.2) for _ in range(3)]
        # silent until min_samples, then one demotion -- never a death
        assert transitions == [None, None, "demoted"]
        assert gray.is_demoted("n0")
        assert not gray.is_demoted("n1")
        assert gray.demotions == 1
        assert gray.score("n0") > gray.threshold

    def test_probation_elapses_into_a_probe_then_promotion(self):
        clock = _Clock()
        gray = GrayDetector(clock=clock, probation=2.0)
        self.feed_fast_fleet(gray)
        for _ in range(3):
            gray.observe("n0", 0.2)
        assert gray.is_demoted("n0")
        clock.advance(2.5)
        # probation elapsed: the node is routable again -- the next
        # request through it is its recovery probe
        assert not gray.is_demoted("n0")
        transitions = [gray.observe("n0", 0.001) for _ in range(12)]
        assert "promoted" in transitions
        assert gray.promotions == 1
        assert not gray.is_demoted("n0")

    def test_slow_probe_restarts_probation(self):
        clock = _Clock()
        gray = GrayDetector(clock=clock, probation=2.0)
        self.feed_fast_fleet(gray)
        for _ in range(3):
            gray.observe("n0", 0.2)
        clock.advance(2.5)
        assert not gray.is_demoted("n0")   # probe window open
        assert gray.observe("n0", 0.5) is None   # probe came back slow
        assert gray.is_demoted("n0")       # ...so probation restarted

    def test_one_hiccup_never_demotes_a_healthy_node(self):
        # a single GC/scheduler spike inflates the EWMA past the
        # threshold for several rounds -- but the demotion requires a
        # streak of individually-slow round-trips, so fast follow-ups
        # clear it
        clock = _Clock()
        gray = GrayDetector(clock=clock)
        self.feed_fast_fleet(gray)
        self.feed_fast_fleet(gray, nodes=("n0",))
        assert gray.observe("n0", 0.2) is None   # the hiccup
        assert gray.score("n0") > gray.threshold  # EWMA says gray...
        transitions = [gray.observe("n0", 0.01) for _ in range(6)]
        assert "demoted" not in transitions       # ...the streak says no
        assert not gray.is_demoted("n0")
        assert gray.demotions == 0

    def test_sustained_slowness_still_demotes(self):
        clock = _Clock()
        gray = GrayDetector(clock=clock)
        self.feed_fast_fleet(gray)
        self.feed_fast_fleet(gray, nodes=("n0",))
        gray.observe("n0", 0.2)                  # hiccup: streak 1
        gray.observe("n0", 0.01)                 # fast: streak resets
        transitions = [gray.observe("n0", 0.2) for _ in range(3)]
        assert transitions[-1] == "demoted"      # three in a row
        assert gray.snapshot()["nodes"]["n0"]["streak"] >= 3

    def test_hint_adopts_a_remote_demotion_and_forget_drops_it(self):
        gray = GrayDetector()
        gray.hint("n3")
        assert gray.is_demoted("n3")
        assert gray.demotions == 1
        gray.hint("n3")   # idempotent: no double count
        assert gray.demotions == 1
        gray.forget("n3")
        assert not gray.is_demoted("n3")

    def test_snapshot_reports_scores_and_standing(self):
        clock = _Clock()
        gray = GrayDetector(clock=clock)
        self.feed_fast_fleet(gray)
        for _ in range(3):
            gray.observe("n0", 0.2)
        snapshot = gray.snapshot()
        assert snapshot["demotions"] == 1
        assert "n0" in snapshot["nodes"]
        node = snapshot["nodes"]["n0"]
        assert node["demoted"] is True
        assert node["score"] > 1.0


class TestSlowHints:
    def test_hint_rides_the_view_and_ages_out(self):
        membership = ClusterMembership(
            "a", ("127.0.0.1", 1), slow_hint_ttl=0.15
        )
        membership.hint_slow("b")
        view = membership.view()
        assert "b" in view["slow"]
        assert view["slow"]["b"] < 0.1   # a fresh hint carries its age
        time.sleep(0.2)
        assert membership.slow_nodes() == []
        assert "slow" not in membership.view()

    def test_merge_folds_remote_hints_keeping_the_freshest_origin(self):
        membership = ClusterMembership(
            "a", ("127.0.0.1", 1), slow_hint_ttl=10.0
        )
        membership.merge({"from": "c", "nodes": {}, "slow": {"b": 3.0}})
        assert membership.slow_nodes() == ["b"]
        # a *fresher* origination (smaller age) replaces the stale one;
        # an older one is ignored -- this is what stops two relays
        # refreshing each other's copy of a recovered node forever
        membership.hint_slow("b", age=8.0)
        assert membership.view()["slow"]["b"] < 4.0
        membership.hint_slow("b", age=0.0)
        assert membership.view()["slow"]["b"] < 1.0

    def test_hint_is_advisory_membership_status_is_untouched(self):
        peers = {"b": ("127.0.0.1", 2)}
        membership = ClusterMembership(
            "a", ("127.0.0.1", 1), peers=peers, dead_after=60.0
        )
        membership.hint_slow("b")
        view = membership.view()
        assert view["nodes"]["b"]["status"] != "dead"
        assert "b" in view["slow"]
        assert membership.stats()["slow_hint_count"] == 1


@pytest.mark.net
class TestGrayRouting:
    def test_demoted_owner_moves_to_the_back_of_the_list(self):
        with _ThreadFleet(2, start_agents=False) as fleet:
            with RouterClient([fleet.address("n0")]) as router:
                router.refresh()
                owners = router._preferred_owners("some-batch-key")
                assert len(owners) == 2
                router.gray.hint(owners[0])
                reordered = router._preferred_owners("some-batch-key")
                assert reordered == [owners[1], owners[0]]
                # hints age out (probation): the order heals itself
                router.gray.forget(owners[0])
                assert router._preferred_owners("some-batch-key") == owners

    def test_expired_budget_is_refused_before_routing(self):
        with _ThreadFleet(2, start_agents=False) as fleet:
            with RouterClient([fleet.address("n0")]) as router:
                spec = dict(pinned_workload().specs[0])
                spec["deadline_ms"] = 0
                with pytest.raises(TransportError) as excinfo:
                    router.request(spec)
                assert excinfo.value.code == "deadline_exceeded"
                assert router.deadline_refused == 1
                # the fleet never saw it
                for node_id in fleet.services:
                    assert fleet.services[node_id].snapshot()["requests"] \
                        == 0

    def test_slow_hint_reaches_the_fleet_over_the_health_op(self):
        with _ThreadFleet(2, start_agents=False) as fleet:
            with RouterClient([fleet.address("n0")]) as router:
                router.refresh()
                router._send_slow_hint("n0")
                # the hint lands on some healthy peer's membership
                hinted = [
                    node_id
                    for node_id, membership in fleet.memberships.items()
                    if "n0" in membership.slow_nodes()
                ]
                assert hinted == ["n1"]

    def test_stats_surface_hedging_gray_and_deadline_counters(self):
        with _ThreadFleet(2, start_agents=False) as fleet:
            with RouterClient(
                [fleet.address("n0")], hedge=True
            ) as router:
                workload = pinned_workload()
                assert router.evaluate(**workload.specs[0]) \
                    == workload.expected[0]
                stats = router.stats()
                assert stats["hedging"]["enabled"] is True
                assert stats["hedging"]["launched"] == router.hedges
                assert stats["hedging"]["delay_seconds"] > 0
                assert stats["deadline_refused"] == 0
                assert "nodes" in stats["gray"]
                assert stats["latency"]["count"] >= 1


@pytest.mark.net
@pytest.mark.slow
class TestHedging:
    def test_cold_router_routes_sequentially_until_warm(self):
        # an empty histogram would hedge every cache-cold request at
        # the floor delay -- against perfectly healthy nodes -- so
        # hedging stays disarmed until enough round-trips are observed
        with _ThreadFleet(2, start_agents=False) as fleet:
            with RouterClient(
                [fleet.address("n0")], hedge=True
            ) as router:
                router.refresh()
                assert not router._hedge_armed()
                workload = pinned_workload()
                assert router.evaluate(**workload.specs[0]) \
                    == workload.expected[0]
                assert router.hedges == 0
                while not router._hedge_armed():
                    router.latency.observe(0.01)
                assert router.stats()["hedging"]["enabled"] is True

    def test_hedge_races_a_stalled_primary_and_stays_bit_exact(self):
        with _ThreadFleet(2, start_agents=False) as fleet:
            with RouterClient(
                [fleet.address("n0")], hedge=True, hedge_floor=0.1
            ) as router:
                router.refresh()
                # hedging arms only once the latency histogram is warm
                for _ in range(8):
                    router.latency.observe(0.01)
                workload = pinned_workload()
                # find a spec whose primary owner we can stall
                spec = dict(workload.specs[0])
                expected = workload.expected[0]
                primary = router._preferred_owners(batch_key(spec))[0]
                service = fleet.services[primary]
                original_submit = service.submit

                def stalled_submit(request, priority=None):
                    time.sleep(0.8)   # parks the primary's event loop
                    return original_submit(request, priority)

                service.submit = stalled_submit
                try:
                    assert router.evaluate(**spec) == expected
                finally:
                    service.submit = original_submit
                assert router.hedges == 1
                assert router.hedge_wins == 1
                stats = router.stats()
                assert stats["hedging"]["launched"] == 1
                assert stats["hedging"]["wins"] == 1

    def test_budget_spent_mid_hedge_surfaces_deadline_exceeded(self):
        with _ThreadFleet(2, start_agents=False) as fleet:
            with RouterClient(
                [fleet.address("n0")], hedge=True, hedge_floor=0.3
            ) as router:
                router.refresh()
                for _ in range(8):
                    router.latency.observe(0.01)
                spec = dict(pinned_workload().specs[0])
                primary = router._preferred_owners(batch_key(spec))[0]
                service = fleet.services[primary]
                original_submit = service.submit

                def stalled_submit(request, priority=None):
                    time.sleep(1.0)
                    return original_submit(request, priority)

                service.submit = stalled_submit
                try:
                    # enough budget to route, not enough to survive the
                    # hedge delay: the backup attempt dies at its own
                    # send, and out-of-time is terminal -- not failover
                    spec["deadline_ms"] = 150
                    with pytest.raises(TransportError) as excinfo:
                        router.request(spec)
                    assert excinfo.value.code == "deadline_exceeded"
                finally:
                    service.submit = original_submit
