"""Multi-node evaluation fleet: consistent-hash routing + gossip membership.

``repro-a2a cluster --nodes N`` turns the single supervised TCP server
into a fleet.  The pieces, bottom up:

* :class:`HashRing` -- a consistent-hash ring with configurable virtual
  replicas.  Requests shard by :func:`batch_key` (grid / suite knobs /
  ``t_max`` / backend -- the same identity the dispatcher coalesces
  on), so identical workloads always land on the same node and its
  warm caches, and removing a node only remaps the keys that node
  owned.
* :class:`ClusterMembership` + :class:`GossipAgent` -- epidemic
  membership exchange piggybacked on the existing ``health`` op.  Each
  node keeps a per-peer ``(incarnation, heartbeat)`` view, bumps its
  own heartbeat every gossip tick, pushes its view to one random peer
  and merges the pull -- the same all-to-all dissemination primitive
  the paper's CA agents implement, with constant state per node.  A
  client can therefore bootstrap the whole fleet from any single seed
  address.
* :class:`RouterClient` -- the client-side shard router: hashes each
  request's batch key onto the ring and walks the ring's preference
  list on failure, re-issuing under the request's *original*
  idempotency key so a failover never simulates twice.
* :class:`Cluster` -- the fleet launcher / fleet-level supervisor:
  spawns N ``serve --tcp`` children on ``base_port..base_port+N-1``
  (or freshly picked free ports), each wrapped in the existing
  :class:`repro.service.supervisor.Supervisor` (crash/hang restarts on
  a pinned address), and runs a monitor thread that revives nodes whose
  per-node restart budget is exhausted, removes the truly dead from the
  ring, and gossips their death into the surviving fleet.

Partitions are enforced at the gossip layer: the ``partition`` op tells
a node to ignore gossip from named peers (and stop gossiping to them),
so a cut pair converges only through third parties and heals when the
block list is cleared.
"""

import contextlib
import hashlib
import itertools
import json
import os
import socket
import threading
import time
import uuid
from bisect import bisect_left, insort

from repro._compat import normalize_grid_kind
from repro.resilience.deadline import spec_deadline
from repro.service.client import ClientOptions
from repro.service.metrics import LatencyHistogram
from repro.service.service import ServiceError

#: Default number of virtual nodes per physical node on the ring.
DEFAULT_REPLICAS = 64

#: Fleet-internal control-plane probes: short, bare (no retry/breaker).
_PROBE_OPTIONS = ClientOptions(timeout=5.0)

#: Completed round-trips a router must observe before hedging arms --
#: a cold histogram would race every cache-cold request at the floor.
MIN_HEDGE_SAMPLES = 8

#: Node statuses carried in membership views.
ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"


def _hash64(text):
    """A stable 64-bit ring position for ``text`` (never ``hash()``:
    ring layouts must agree across processes and Python runs)."""
    digest = hashlib.md5(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def batch_key(spec):
    """The routing key of one wire spec: its coalescing identity.

    Mirrors the dispatcher's ``EvaluationRequest.batch_key`` -- grid
    kind and size, suite knobs (agents / fields / seed), ``t_max`` and
    step backend -- with the same defaults the wire codec applies, so
    every request that could share a batch hashes to the same node.
    """
    kind = normalize_grid_kind(spec.get("grid", "T"), warn=False)
    return "|".join((
        kind,
        str(int(spec.get("size", 16))),
        str(int(spec.get("agents", 8))),
        str(int(spec.get("fields", 100))),
        str(int(spec.get("seed", 2013))),
        str(int(spec.get("t_max", 200))),
        str(spec.get("backend") or "numpy"),
    ))


class HashRing:
    """A consistent-hash ring over hashable node names.

    ``replicas`` virtual nodes per physical node smooth the key
    distribution; :meth:`owner` returns the first virtual node at or
    after the key's hash (wrapping), and :meth:`owners` walks onward to
    produce the failover preference list.  Adding or removing a node
    only remaps keys that node's virtual points capture -- every other
    key keeps its owner (the property the tests pin).
    """

    def __init__(self, nodes=(), replicas=DEFAULT_REPLICAS):
        if replicas < 1:
            raise ValueError("replicas must be at least 1")
        self.replicas = int(replicas)
        self._points = []        # sorted [(hash, node)]
        self._nodes = set()
        for node in nodes:
            self.add(node)

    def __len__(self):
        return len(self._nodes)

    def __contains__(self, node):
        return node in self._nodes

    @property
    def nodes(self):
        return set(self._nodes)

    def _tokens(self, node):
        return [
            (_hash64(f"{node}#{index}"), node)
            for index in range(self.replicas)
        ]

    def add(self, node):
        if node in self._nodes:
            return
        self._nodes.add(node)
        for point in self._tokens(node):
            insort(self._points, point)

    def remove(self, node):
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        for point in self._tokens(node):
            index = bisect_left(self._points, point)
            if index < len(self._points) and self._points[index] == point:
                del self._points[index]

    def owner(self, key):
        """The node owning ``key``, or ``None`` on an empty ring."""
        owners = self.owners(key, count=1)
        return owners[0] if owners else None

    def owners(self, key, count=None):
        """Up to ``count`` distinct nodes for ``key``, preference order.

        The first entry is the owner; the rest are the failover chain a
        router walks when the owner is unreachable.  ``count=None``
        returns every node, each exactly once.
        """
        if not self._points:
            return []
        if count is None:
            count = len(self._nodes)
        start = bisect_left(self._points, (_hash64(key), ""))
        seen, ordered = set(), []
        for offset in range(len(self._points)):
            node = self._points[(start + offset) % len(self._points)][1]
            if node not in seen:
                seen.add(node)
                ordered.append(node)
                if len(ordered) >= count:
                    break
        return ordered


def pick_free_ports(n_ports, host="127.0.0.1"):
    """``n_ports`` currently-free TCP ports on ``host``.

    All sockets stay bound until every port is picked, so the ports are
    distinct; they are released together, leaving the usual (small,
    test-scale) window before the children re-bind them.
    """
    sockets, ports = [], []
    try:
        for _ in range(n_ports):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, 0))
            sockets.append(sock)
            ports.append(sock.getsockname()[1])
    finally:
        for sock in sockets:
            sock.close()
    return ports


def format_peers(peers):
    """The ``--cluster-peers`` wire form of ``{node_id: (host, port)}``."""
    return ",".join(
        f"{node_id}={host}:{port}"
        for node_id, (host, port) in sorted(peers.items())
    )


def parse_peers(text):
    """``{node_id: (host, port)}`` from a ``--cluster-peers`` string."""
    peers = {}
    for entry in filter(None, (text or "").split(",")):
        node_id, sep, address = entry.partition("=")
        host, psep, port = address.rpartition(":")
        if not sep or not psep or not port.isdigit():
            raise ValueError(
                f"expected NODE=HOST:PORT, got {entry!r} in cluster peers"
            )
        peers[node_id] = (host or "127.0.0.1", int(port))
    return peers


class ClusterMembership:
    """One node's membership table: the gossip state machine.

    Entries are ``{node_id: {address, incarnation, heartbeat, status}}``
    ordered by ``(incarnation, heartbeat)``: merges take the higher
    pair, and on a tie ``dead`` beats ``alive`` (a death certificate
    sticks until the node itself gossips again -- a restart carries a
    fresh, higher incarnation, which is its own refutation).  Peers
    whose pair has not advanced within ``dead_after`` seconds are
    *locally* reported ``suspect``; suspicion is recomputed per view and
    never merged, so one stale clock cannot poison the fleet.

    ``blocked`` is the partition mechanism: gossip from blocked peers is
    refused and they are never picked as gossip targets, cutting the
    direct link in both directions while third-party routes stay up.
    """

    def __init__(self, node_id, address, peers=None, dead_after=2.0,
                 slow_hint_ttl=None):
        self.node_id = node_id
        self.address = (address[0], int(address[1]))
        self.dead_after = float(dead_after)
        # gray-failure hints age out: a recovered node's routers stop
        # re-originating them, so the fleet forgets within one TTL
        self.slow_hint_ttl = (
            float(slow_hint_ttl) if slow_hint_ttl is not None
            else max(5.0, self.dead_after * 5.0)
        )
        self.incarnation = time.time()
        self._lock = threading.Lock()
        self._heartbeat = 0
        self._entries = {}
        self._seen = {}          # node_id -> monotonic() of last advance
        self._slow_hints = {}    # node_id -> monotonic() of origination
        self.blocked = frozenset()
        self.merges = 0
        self.exchanges = 0
        self.refused = 0
        for peer_id, peer_address in (peers or {}).items():
            if peer_id != node_id:
                self._entries[peer_id] = {
                    "address": [peer_address[0], int(peer_address[1])],
                    "incarnation": 0.0,
                    "heartbeat": 0,
                    "status": ALIVE,
                }
                self._seen[peer_id] = time.monotonic()

    def beat(self):
        """Advance this node's own heartbeat (one gossip tick)."""
        with self._lock:
            self._heartbeat += 1

    def _status_of(self, node_id, entry, now):
        if entry.get("status") == DEAD:
            return DEAD
        if now - self._seen.get(node_id, 0.0) > self.dead_after:
            return SUSPECT
        return ALIVE

    def view(self):
        """This node's current view, in the gossip wire format."""
        now = time.monotonic()
        with self._lock:
            nodes = {
                self.node_id: {
                    "address": list(self.address),
                    "incarnation": self.incarnation,
                    "heartbeat": self._heartbeat,
                    "status": ALIVE,
                }
            }
            for node_id, entry in self._entries.items():
                nodes[node_id] = {
                    "address": list(entry["address"]),
                    "incarnation": entry["incarnation"],
                    "heartbeat": entry["heartbeat"],
                    "status": self._status_of(node_id, entry, now),
                }
            view = {"from": self.node_id, "nodes": nodes}
            slow = self._active_slow_locked(now)
            if slow:
                view["slow"] = slow
            return view

    def _active_slow_locked(self, now):
        """``{node_id: age_seconds}`` of unexpired gray hints.

        Ages ride the wire so a relayed hint keeps its origination
        time: without that, two nodes would refresh each other's copy
        forever and a recovered node would stay hinted slow.
        """
        expired = [
            node_id for node_id, origin in self._slow_hints.items()
            if now - origin > self.slow_hint_ttl
        ]
        for node_id in expired:
            del self._slow_hints[node_id]
        return {
            node_id: round(now - origin, 3)
            for node_id, origin in self._slow_hints.items()
        }

    def hint_slow(self, node_id, age=0.0):
        """Record a gray-failure hint: advisory, never a death.

        Hints reorder router preference lists and surface in health /
        metrics; they do not change the node's ``status`` and are never
        merged as authoritative -- a slow node keeps serving.
        """
        now = time.monotonic()
        origin = now - max(0.0, float(age))
        with self._lock:
            known = self._slow_hints.get(node_id)
            if known is None or origin > known:
                self._slow_hints[node_id] = origin

    def slow_nodes(self):
        """Node ids currently hinted slow (hints expire after the TTL)."""
        with self._lock:
            return sorted(self._active_slow_locked(time.monotonic()))

    def merge(self, remote_view):
        """Fold a remote view in; returns how many entries advanced."""
        if not isinstance(remote_view, dict):
            return 0
        advanced = 0
        now = time.monotonic()
        with self._lock:
            for node_id, entry in (remote_view.get("nodes") or {}).items():
                if node_id == self.node_id or not isinstance(entry, dict):
                    continue
                try:
                    pair = (
                        float(entry.get("incarnation", 0.0)),
                        int(entry.get("heartbeat", 0)),
                    )
                    address = entry.get("address") or [None, 0]
                    status = DEAD if entry.get("status") == DEAD else ALIVE
                except (TypeError, ValueError):
                    continue
                current = self._entries.get(node_id)
                if current is None:
                    known = (-1.0, -1)
                else:
                    known = (current["incarnation"], current["heartbeat"])
                takes = pair > known or (
                    pair == known
                    and status == DEAD
                    and (current or {}).get("status") != DEAD
                )
                if takes:
                    self._entries[node_id] = {
                        "address": list(address),
                        "incarnation": pair[0],
                        "heartbeat": pair[1],
                        "status": status,
                    }
                    if pair > known:
                        self._seen[node_id] = now
                    advanced += 1
            if advanced:
                self.merges += 1
        slow = remote_view.get("slow")
        if isinstance(slow, dict):
            for node_id, age in slow.items():
                with contextlib.suppress(TypeError, ValueError):
                    self.hint_slow(node_id, age=float(age))
        elif isinstance(slow, (list, tuple)):
            for node_id in slow:   # bare spelling: a fresh hint
                if isinstance(node_id, str):
                    self.hint_slow(node_id)
        return advanced

    def exchange(self, remote_view):
        """One gossip exchange: merge theirs, return ours.

        Returns ``None`` when the sender is blocked (a partitioned
        link): nothing is merged and nothing is revealed, so the pair
        can only converge through third parties.  A ``None``
        ``remote_view`` is a plain bootstrap read (a client's
        ``health``), always answered.
        """
        sender = (remote_view or {}).get("from")
        if sender is not None and sender in self.blocked:
            with self._lock:
                self.refused += 1
            return None
        if remote_view is not None:
            self.merge(remote_view)
        with self._lock:
            self.exchanges += 1
        return self.view()

    def set_blocked(self, node_ids):
        """Replace the partition block list (empty heals everything)."""
        self.blocked = frozenset(node_ids)

    def mark_dead(self, node_id):
        """Pin ``node_id`` dead at its current (incarnation, heartbeat)."""
        with self._lock:
            entry = self._entries.get(node_id)
            if entry is not None:
                entry["status"] = DEAD

    def peers(self, statuses=(ALIVE, SUSPECT)):
        """``{node_id: (host, port)}`` of gossipable peers (not self,
        not blocked, status in ``statuses``)."""
        view = self.view()
        return {
            node_id: tuple(entry["address"])
            for node_id, entry in view["nodes"].items()
            if node_id != self.node_id
            and node_id not in self.blocked
            and entry["status"] in statuses
        }

    def stats(self):
        with self._lock:
            return {
                "node_id": self.node_id,
                "heartbeat": self._heartbeat,
                "known_nodes": len(self._entries) + 1,
                "blocked": sorted(self.blocked),
                "slow_hints": sorted(
                    self._active_slow_locked(time.monotonic())
                ),
                "slow_hint_count": len(
                    self._active_slow_locked(time.monotonic())
                ),
                "merges": self.merges,
                "exchanges": self.exchanges,
                "refused": self.refused,
            }


class GossipAgent:
    """The gossip *sender*: one daemon thread per node.

    Every ``interval`` seconds it bumps the local heartbeat, picks one
    random known peer (seeded ``random.Random`` -- deterministic peer
    schedules under test) and runs a push-pull ``health`` exchange over
    a short-lived TCP connection.  Unreachable peers simply stop
    advancing and age into ``suspect`` via ``dead_after``; the agent
    itself never marks anyone dead.
    """

    def __init__(self, membership, interval=0.25, timeout=2.0, seed=None,
                 replicator=None):
        import random

        self.membership = membership
        self.interval = float(interval)
        self.timeout = float(timeout)
        # optional repro.service.replication.Replicator: each round it
        # is ticked (hint drain for revived peers) and handed the
        # peer's cache digest for the anti-entropy pull
        self.replicator = replicator
        self.failures = 0
        self.rounds = 0
        self._rng = random.Random(seed)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, daemon=True,
            name=f"gossip-{membership.node_id}",
        )

    def start(self):
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _run(self):
        while not self._stop.wait(timeout=self.interval):
            self.membership.beat()
            peers = self.membership.peers()
            if peers:
                peer_id = self._rng.choice(sorted(peers))
                self.rounds += 1
                try:
                    self._exchange_with(peers[peer_id])
                except (OSError, ValueError):
                    self.failures += 1
            if self.replicator is not None:
                self.replicator.tick()

    def _exchange_with(self, address):
        from repro.service.transport import recv_frame, send_frame

        with socket.create_connection(address, self.timeout) as sock:
            sock.settimeout(self.timeout)
            send_frame(sock, {
                "id": f"gossip-{self.membership.node_id}",
                "op": "health",
                "gossip": self.membership.view(),
            })
            response = recv_frame(sock)
        health = (response or {}).get("health") or {}
        remote = health.get("membership")
        if remote:
            self.membership.merge(remote)
        if self.replicator is not None and health.get("replication"):
            # anti-entropy piggybacks here: a diverged peer digest
            # triggers a pull of only the divergent buckets
            try:
                self.replicator.on_peer_digest(
                    address, health["replication"]
                )
            except (OSError, ValueError):
                self.failures += 1


class GrayDetector:
    """Per-node gray-failure scoring from router round-trip latencies.

    A *gray* node is slow, not dead: its control plane (health, gossip)
    answers instantly while its data plane stalls, so liveness probes
    and gossip heartbeats never catch it.  This detector works from the
    only signal that does -- observed round-trip latency.  Each node
    gets an EWMA of its successful round-trips; a phi-accrual-style
    outlier score compares it against the median EWMA of the *other*
    nodes (floored, so microsecond-fast fleets do not divide by noise).
    A node whose score crosses ``threshold`` with at least
    ``min_samples`` observations is **demoted**: routers move it to the
    back of every preference list -- never out of the ring, never
    declared dead.

    Demotion additionally requires a *streak*: the node's last
    ``streak`` round-trips must each have been individually slow
    (``>= threshold x`` the fleet baseline).  The EWMA alone is not
    enough -- one GC or scheduler spike inflates it for several rounds,
    and demoting a healthy node on a single hiccup shifts its keys to
    a cold-cached neighbour, which re-simulates them.  A genuinely
    gray node stalls *every* dispatch, so its streak builds as fast as
    its score.

    Recovery is probed with real traffic: after ``probation`` seconds a
    demoted node becomes eligible again and the next request routed to
    it is its probe (hedging, when armed, caps what that probe can cost
    the caller).  A fast probe re-promotes; a slow one restarts the
    probation clock.  Thread-safe: hedge threads feed observations
    concurrently.
    """

    def __init__(self, alpha=0.3, threshold=3.0, min_samples=3,
                 probation=2.0, floor=0.005, streak=None,
                 clock=time.monotonic):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = float(alpha)
        self.threshold = float(threshold)
        self.min_samples = int(min_samples)
        self.probation = float(probation)
        self.floor = float(floor)
        self.streak = int(streak) if streak is not None else self.min_samples
        self._clock = clock
        self._lock = threading.Lock()
        self._ewma = {}          # node_id -> seconds
        self._samples = {}       # node_id -> observation count
        self._streak = {}        # node_id -> consecutive slow round-trips
        self._demoted = {}       # node_id -> monotonic() of demotion
        self.demotions = 0
        self.promotions = 0

    def observe(self, node_id, seconds):
        """Feed one round-trip; returns ``"demoted"`` / ``"promoted"``
        when the observation flips the node's standing, else ``None``."""
        seconds = max(float(seconds), 0.0)
        with self._lock:
            previous = self._ewma.get(node_id)
            self._ewma[node_id] = (
                seconds if previous is None
                else (1.0 - self.alpha) * previous + self.alpha * seconds
            )
            self._samples[node_id] = self._samples.get(node_id, 0) + 1
            baseline = self._baseline_locked(node_id)
            if (baseline is not None
                    and seconds >= self.threshold * baseline):
                self._streak[node_id] = self._streak.get(node_id, 0) + 1
            else:
                self._streak[node_id] = 0
            return self._reassess(node_id)

    def _baseline_locked(self, node_id):
        """Median EWMA of the *other* judged nodes (floored), or None."""
        others = sorted(
            value for other, value in self._ewma.items()
            if other != node_id
            and self._samples.get(other, 0) >= self.min_samples
        )
        if not others:
            return None
        return max(others[len(others) // 2], self.floor)

    def _score_locked(self, node_id):
        ewma = self._ewma.get(node_id)
        if ewma is None:
            return 0.0
        baseline = self._baseline_locked(node_id)
        if baseline is None:
            return 0.0
        return ewma / baseline

    def _reassess(self, node_id):
        if self._samples.get(node_id, 0) < self.min_samples:
            return None
        gray = self._score_locked(node_id) >= self.threshold
        if node_id in self._demoted:
            if gray:
                # still slow: the probe failed, restart probation
                self._demoted[node_id] = self._clock()
                return None
            del self._demoted[node_id]
            self.promotions += 1
            return "promoted"
        if gray and self._streak.get(node_id, 0) >= self.streak:
            self._demoted[node_id] = self._clock()
            self.demotions += 1
            return "demoted"
        return None

    def hint(self, node_id):
        """Adopt a gossip hint: start the node demoted, pending probes."""
        with self._lock:
            if node_id not in self._demoted:
                self._demoted[node_id] = self._clock()
                self.demotions += 1

    def is_demoted(self, node_id):
        """Whether routers should prefer other owners right now.

        Returns ``False`` once probation has elapsed -- the node keeps
        its demoted record, but the next request through it is allowed
        as the recovery probe.
        """
        with self._lock:
            demoted_at = self._demoted.get(node_id)
            if demoted_at is None:
                return False
            return self._clock() - demoted_at < self.probation

    def score(self, node_id):
        """The node's current outlier score (1.0 = fleet-typical)."""
        with self._lock:
            return self._score_locked(node_id)

    def forget(self, node_id):
        """Drop all state for a node that left the fleet."""
        with self._lock:
            self._ewma.pop(node_id, None)
            self._samples.pop(node_id, None)
            self._streak.pop(node_id, None)
            self._demoted.pop(node_id, None)

    def snapshot(self):
        with self._lock:
            return {
                "nodes": {
                    node_id: {
                        "ewma_ms": round(self._ewma[node_id] * 1000.0, 3),
                        "samples": self._samples.get(node_id, 0),
                        "streak": self._streak.get(node_id, 0),
                        "score": round(self._score_locked(node_id), 3),
                        "demoted": node_id in self._demoted,
                    }
                    for node_id in sorted(self._ewma)
                },
                "demoted": sorted(self._demoted),
                "demotions": self.demotions,
                "promotions": self.promotions,
            }


class RouterError(ServiceError):
    """No ring owner could serve a routed request."""


class RouterClient:
    """Shard requests across a fleet by batch key, with ring failover.

    Bootstraps from any single ``seeds`` address: the seed's ``health``
    op carries the gossip membership, which names every node.  Each
    evaluation spec is assigned a fresh idempotency key *before*
    routing, then offered to the ring owners of its :func:`batch_key`
    in preference order -- a node that fails (connection loss, circuit
    open, exhausted retries) is dropped from the ring and the very same
    spec, same key, moves to the next owner, so a failover retry is
    deduplicated server-side and never simulated twice.

    Not thread-safe: use one router per thread (the underlying
    :class:`TCPServiceClient` is per-thread too).
    """

    def __init__(self, seeds, replicas=DEFAULT_REPLICAS, options=None,
                 statuses=(ALIVE, SUSPECT), timeout=None, retry_policy=None,
                 breaker=None, hedge=False, hedge_floor=0.05, gray=None):
        from repro.service.client import parse_url, resolve_options

        options = resolve_options(
            options, where="RouterClient", timeout=timeout,
            retry_policy=retry_policy, breaker=breaker,
        )
        if isinstance(seeds, (str, tuple)):
            seeds = [seeds]
        self._seeds = [
            parse_url(seed, default_scheme="tcp") if isinstance(seed, str)
            else ("tcp", seed[0], int(seed[1]))
            for seed in seeds
        ]
        if not self._seeds:
            raise ValueError("RouterClient needs at least one seed address")
        self.replicas = replicas
        self.options = options
        self.timeout = options.timeout
        self.retry_policy = options.retry_policy
        self.breaker_factory = (
            options.breaker if callable(options.breaker) else None
        )
        self._statuses = tuple(statuses)
        self._ids = itertools.count()
        self._nodes = {}         # node_id -> (host, port)
        self._ring = HashRing(replicas=replicas)
        self._clients = {}       # node_id -> TCPServiceClient
        self.routed = {}         # node_id -> requests completed there
        self.failovers = 0
        self.refreshes = 0
        # gray-failure detection + hedging
        self.hedge = bool(hedge)
        self.hedge_floor = float(hedge_floor)
        self.gray = gray if gray is not None else GrayDetector()
        self.latency = LatencyHistogram()
        self.hedges = 0              # hedge attempts launched
        self.hedge_wins = 0          # hedge answered before the primary
        self.hedge_cancelled = 0     # losers reaped before simulation
        self.deadline_refused = 0    # expired before routing
        self.replica_reads = 0       # successes served off the primary owner
        self._router_id = f"router-{uuid.uuid4().hex[:8]}"
        self._bootstrap()

    # -- membership ----------------------------------------------------------

    def _default_policy(self):
        """Per-node hardening: brief retries so failover stays prompt."""
        from repro.resilience.retry import RetryPolicy

        return RetryPolicy(max_attempts=3, base_delay=0.05, max_delay=0.5,
                           seed=0)

    def _client(self, node_id):
        from repro.service.transport import TCPServiceClient

        client = self._clients.get(node_id)
        if client is None:
            client = TCPServiceClient(
                self._nodes[node_id],
                options=self.options.merged(
                    retry_policy=self.retry_policy
                    or self._default_policy(),
                    breaker=self.breaker_factory()
                    if self.breaker_factory else None,
                ),
            )
            self._clients[node_id] = client
        return client

    def _probe_health(self, scheme, host, port):
        """One address's ``health`` payload, over its own transport.

        Seeds may name the fleet's framed-TCP listeners (``tcp://``) or
        its HTTP gateways (``http://`` / ``https://``) -- bootstrap
        works either way, because both transports serve the same
        membership-carrying health payload.  Probes run bare (no retry
        policy, no breaker): a dead seed should fail fast so the next
        one gets tried.
        """
        probe_options = self.options.merged(retry_policy=None, breaker=None)
        if scheme == "tcp":
            from repro.service.transport import TCPServiceClient

            with TCPServiceClient((host, port),
                                  options=probe_options) as probe:
                return probe.health()
        from repro.service.gateway import HTTPServiceClient

        with HTTPServiceClient(host, port, options=probe_options,
                               scheme=scheme) as probe:
            return probe.health()

    def _adopt(self, membership, fallback):
        """Install a fetched membership view (or a bare ``fallback``)."""
        nodes = {}
        for node_id, entry in (membership or {}).get("nodes", {}).items():
            if entry.get("status") in self._statuses:
                nodes[node_id] = tuple(entry["address"])
        if not nodes:
            nodes = dict([fallback])
        self._nodes = nodes
        ring = HashRing(replicas=self.replicas)
        for node_id in nodes:
            ring.add(node_id)
        self._ring = ring
        for node_id in list(self._clients):
            if node_id not in nodes:
                self._drop_client(node_id)
        # soft hints: start gossiped-slow members demoted; real traffic
        # (the recovery probe after probation) decides their fate
        slow = (membership or {}).get("slow") or ()
        for node_id in slow:
            if node_id in nodes:
                self.gray.hint(node_id)

    def _bootstrap(self):
        """Discover the fleet from the first responsive seed address."""
        last_error = None
        for scheme, host, port in self._seeds:
            try:
                health = self._probe_health(scheme, host, port)
            except Exception as exc:
                last_error = exc
                continue
            membership = health.get("membership")
            node_id = (membership or {}).get("from") or f"{host}:{port}"
            self._adopt(membership, (node_id, (host, port)))
            self.refreshes += 1
            return
        raise RouterError(
            f"no seed address responded (last error: {last_error!r})"
        )

    def refresh(self):
        """Re-discover the fleet from any currently-known node or seed."""
        candidates = [
            ("tcp", node_id, address)
            for node_id, address in self._nodes.items()
        ] + [
            (scheme, f"{host}:{port}", (host, port))
            for scheme, host, port in self._seeds
        ]
        for scheme, node_id, address in candidates:
            try:
                health = self._probe_health(scheme, *address)
            except Exception:
                continue
            self._adopt(
                health.get("membership"), (node_id, tuple(address))
            )
            self.refreshes += 1
            return True
        return False

    def _drop_client(self, node_id):
        client = self._clients.pop(node_id, None)
        if client is not None:
            with contextlib.suppress(Exception):
                client.close()

    def _demote(self, node_id):
        """Remove a failed node from the ring until the next refresh."""
        self._ring.remove(node_id)
        self._drop_client(node_id)

    # -- requests ------------------------------------------------------------

    @property
    def nodes(self):
        """``{node_id: (host, port)}`` of the current ring membership."""
        return dict(self._nodes)

    @staticmethod
    def _node_failure(exc):
        """Whether an error means *this node* is down (fail over) rather
        than *this request* is bad (propagate): transient transport
        errors, exhausted per-node retries, or an open circuit."""
        from repro.resilience.retry import (
            CircuitOpenError,
            RetryBudgetExceeded,
        )
        from repro.service.transport import is_retryable_error

        return isinstance(
            exc, (RetryBudgetExceeded, CircuitOpenError)
        ) or is_retryable_error(exc)

    def _preferred_owners(self, key):
        """Ring owners for ``key``, gray-demoted nodes moved last.

        Demotion reorders, never removes: a gray node stays the final
        fallback, and once its probation lapses it resumes its ring
        position so real traffic can probe its recovery.
        """
        owners = self._ring.owners(key)
        if len(owners) < 2:
            return owners
        healthy = [n for n in owners if not self.gray.is_demoted(n)]
        if not healthy or len(healthy) == len(owners):
            return owners
        return healthy + [n for n in owners if n not in healthy]

    def _bare_options(self):
        """Options for side-channel connections (probes, cancels,
        hedge attempts): no retry policy, no breaker -- failures should
        surface fast, hedging/failover is the resilience."""
        return self.options.merged(retry_policy=None, breaker=None)

    def _observe(self, node_id, seconds, censored=False):
        """Feed one round-trip into latency + gray scoring.

        ``censored=True`` marks a lower bound (the primary was still
        silent when the hedge fired): it feeds the gray detector but
        not the latency histogram, so the adaptive hedge delay keeps
        tracking *completed* round-trips.
        """
        if not censored:
            self.latency.observe(seconds)
        transition = self.gray.observe(node_id, seconds)
        if transition == "demoted":
            self._send_slow_hint(node_id)

    def _hedge_delay(self):
        """Adaptive hedge trigger: p95 of recent round-trips, floored."""
        return max(self.hedge_floor, self.latency.quantile(0.95))

    def _hedge_armed(self):
        """Hedging waits for the latency histogram to warm up.

        On a cold router the adaptive delay is just the floor, so the
        very first (cache-cold, legitimately slow) requests would be
        hedged against healthy nodes -- and a hedge that loses the
        cancel race on a *healthy* node is a duplicate simulation.
        Until ``MIN_HEDGE_SAMPLES`` completed round-trips have been
        observed, requests route sequentially and only feed the
        histogram.
        """
        return self.hedge and self.latency.count >= MIN_HEDGE_SAMPLES

    def _send_slow_hint(self, node_id):
        """Gossip a demotion as a soft hint through one healthy peer.

        Best effort and advisory: receivers reorder preference lists
        and report the hint in health/metrics, but a hint can never
        kill -- membership status is untouched and the hint ages out.
        """
        from repro.service.transport import TCPServiceClient

        view = {"from": self._router_id, "nodes": {},
                "slow": {node_id: 0.0}}
        for peer_id, address in self._nodes.items():
            if peer_id == node_id:
                continue
            with contextlib.suppress(Exception):
                with TCPServiceClient(
                    address, options=self._bare_options()
                ) as peer:
                    peer.request({"op": "health", "gossip": view})
                return

    def _cancel_on(self, node_id, idem):
        """Best-effort reap of a hedge loser's in-flight submission."""
        if idem is None:
            return False
        address = self._nodes.get(node_id)
        if address is None:
            return False
        from repro.service.transport import TCPServiceClient

        try:
            with TCPServiceClient(
                address, options=self._bare_options()
            ) as peer:
                if peer.cancel(idem):
                    self.hedge_cancelled += 1
                    return True
        except Exception:
            pass
        return False

    def _hedge_attempt(self, node_id, spec, hedged, deadline, results):
        """One node attempt on its own connection (hedge thread body)."""
        from repro.service.transport import TCPServiceClient, _stamp_or_expire

        attempt_spec = dict(spec)
        if hedged:
            attempt_spec["hedge"] = 1   # the server counts re-issues
        started = time.monotonic()
        try:
            if deadline is not None:
                _stamp_or_expire(attempt_spec, deadline)
            with TCPServiceClient(
                self._nodes[node_id], options=self._bare_options()
            ) as client:
                response = client.request(attempt_spec)
        except Exception as exc:
            results.put((node_id, None, exc, time.monotonic() - started))
        else:
            results.put((node_id, response, None, time.monotonic() - started))

    def _route_hedged(self, spec, owners, deadline, errors):
        """Hedge across the first two owners; ``(response, tried)``.

        The primary gets ``hedge_delay`` seconds of exclusive runway;
        silence past that launches the very same spec -- same
        idempotency key -- at the next preference owner.  First answer
        wins; the loser is cancelled over a separate connection, so a
        submission stalled inside a gray node is reaped before it ever
        simulates.  A ``None`` response means every tried node failed
        (and was ejected); the caller walks the remaining owners.
        """
        import queue as queue_module

        idem = spec.get("idem")
        results = queue_module.Queue()
        launched = []

        def launch(node_id, hedged):
            launched.append(node_id)
            threading.Thread(
                target=self._hedge_attempt,
                args=(node_id, spec, hedged, deadline, results),
                daemon=True,
            ).start()

        launch(owners[0], False)
        delay = self._hedge_delay()
        first = None
        try:
            first = results.get(timeout=delay)
        except queue_module.Empty:
            # the primary's silence is itself a latency observation
            # against it -- censored at the hedge delay
            self.hedges += 1
            self._observe(owners[0], delay, censored=True)
            launch(owners[1], True)
        reported = 0
        while reported < len(launched):
            item = first if first is not None else results.get()
            first = None
            reported += 1
            node_id, response, exc, elapsed = item
            if response is not None:
                self._observe(node_id, elapsed)
                for loser in launched:
                    if loser != node_id:
                        self._cancel_on(loser, idem)
                if node_id != owners[0]:
                    # served by a replica, not the preferred owner --
                    # with replication armed this is the warm-read path
                    self.hedge_wins += 1
                    self.replica_reads += 1
                self.routed[node_id] = self.routed.get(node_id, 0) + 1
                return response, launched
            if not self._node_failure(exc):
                # a bad request (or spent deadline) fails identically
                # everywhere: reap the other attempt and surface it
                for loser in launched:
                    if loser != node_id:
                        self._cancel_on(loser, idem)
                raise exc
            errors.append(f"{node_id}: {exc!r}")
            self._demote(node_id)
            self.failovers += 1
        return None, launched

    def _route_sequential(self, spec, owners, deadline, errors):
        """Walk ``owners`` in order; ``None`` when every one failed."""
        from repro.service.transport import _stamp_or_expire

        for node_id in owners:
            started = time.monotonic()
            try:
                if deadline is not None:
                    # re-stamped per attempt: queue wait and earlier
                    # failovers come out of the budget this node sees
                    _stamp_or_expire(spec, deadline)
                response = self._client(node_id).request(spec)
            except Exception as exc:
                if not self._node_failure(exc):
                    # a bad request fails identically on every node:
                    # surface it instead of tearing down the ring
                    raise
                errors.append(f"{node_id}: {exc!r}")
                self._demote(node_id)
                self.failovers += 1
                continue
            if "op" not in spec:
                # only data-plane round-trips feed gray scoring: a gray
                # node answers control ops instantly, and mixing those
                # in would mask exactly the slowness being measured
                self._observe(node_id, time.monotonic() - started)
                if node_id != owners[0]:
                    self.replica_reads += 1
            self.routed[node_id] = self.routed.get(node_id, 0) + 1
            return response
        return None

    def request(self, spec):
        """Route one spec to its ring owner, failing over in ring order.

        Evaluation specs get the full hardening stack: gray-demoted
        owners are tried last, the remaining end-to-end budget
        (``deadline_ms``) is re-stamped before every node attempt, and
        with hedging armed a silent primary is raced against the next
        owner under the same idempotency key.
        """
        from repro.service.transport import (
            ERR_DEADLINE_EXCEEDED,
            TransportError,
        )

        spec = dict(spec)
        if "id" not in spec:
            spec["id"] = f"r{next(self._ids)}"
        if "idem" not in spec and "op" not in spec:
            # assigned before routing: every failover attempt on every
            # node re-issues this exact key, so at most one simulation
            spec["idem"] = uuid.uuid4().hex
        deadline = spec_deadline(spec)
        if deadline is not None and deadline.expired:
            self.deadline_refused += 1
            raise TransportError(
                ERR_DEADLINE_EXCEEDED,
                "deadline budget exhausted before routing",
            )
        key = batch_key(spec)
        is_op = "op" in spec
        errors = []
        for attempt in range(2):
            owners = self._preferred_owners(key)
            if self._hedge_armed() and not is_op and len(owners) >= 2:
                response, tried = self._route_hedged(
                    spec, owners, deadline, errors
                )
                if response is None:
                    response = self._route_sequential(
                        spec, [n for n in owners if n not in tried],
                        deadline, errors,
                    )
            else:
                response = self._route_sequential(
                    spec, owners, deadline, errors
                )
            if response is not None:
                return response
            # every known owner failed: the fleet may have moved under
            # us (restarts, revivals) -- refresh once and re-walk
            if attempt == 0 and not self.refresh():
                break
        raise RouterError(
            f"no ring owner could serve batch key {key!r}: {errors[-3:]}"
        )

    def evaluate(self, **spec):
        """Evaluate one routed spec; a list of ``EvaluationResult``."""
        from repro.service.jsonl import outcome_from_dict

        response = self.request(spec)
        return [outcome_from_dict(o) for o in response["outcomes"]]

    def evaluate_many(self, specs):
        """Per-spec result lists, each routed to its own ring owner."""
        return [self.evaluate(**dict(spec)) for spec in specs]

    def ping(self):
        return self.request({"op": "ping"}).get("pong", False)

    def health(self):
        """Any responsive node's health payload (carries membership)."""
        return self.request({"op": "health"})["health"]

    def membership(self):
        """The fleet's membership view, from any responsive node."""
        return self.health().get("membership")

    def stats(self):
        """The router's own counters (not a server round-trip)."""
        return {
            "nodes": {
                node_id: list(address)
                for node_id, address in self._nodes.items()
            },
            "ring_size": len(self._ring),
            "routed": dict(self.routed),
            "failovers": self.failovers,
            "refreshes": self.refreshes,
            "deadline_refused": self.deadline_refused,
            "replica_reads": self.replica_reads,
            "hedging": {
                "enabled": self.hedge,
                "launched": self.hedges,
                "wins": self.hedge_wins,
                "cancelled": self.hedge_cancelled,
                "delay_seconds": round(self._hedge_delay(), 6),
            },
            "gray": self.gray.snapshot(),
            "latency": self.latency.snapshot(),
        }

    def close(self):
        for node_id in list(self._clients):
            self._drop_client(node_id)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


class ClusterError(RuntimeError):
    """The fleet cannot be launched or has wholly failed."""


#: How each node's supervisor restarts it: the backoff between restarts,
#: and health probing (a child failing this many probes in a row is
#: killed and restarted).
_NODE_SUPERVISION = {"backoff_base": 0.1, "backoff_max": 1.0,
                     "health_interval": 0.5, "health_timeout": 5.0,
                     "health_failures": 4}

#: The longest a node supervisor takes to restart a failed child: every
#: probe of a hang run out, then its longest backoff.
_HEALTH_BUDGET_S = (
    _NODE_SUPERVISION["health_failures"]
    * (_NODE_SUPERVISION["health_interval"]
       + _NODE_SUPERVISION["health_timeout"])
    + _NODE_SUPERVISION["backoff_max"]
)


class _Node:
    """One fleet member: identity, pinned address, supervision state."""

    def __init__(self, index, node_id, host, port):
        self.index = index
        self.node_id = node_id
        self.host = host
        self.port = port
        self.supervisor = None
        self.status = ALIVE
        self.revivals = 0
        self.exit_code = None

    @property
    def address(self):
        return (self.host, self.port)


class Cluster:
    """Launch and supervise N ``serve --tcp`` nodes as one fleet.

    Each node is a ``python -m repro.cli serve`` child wrapped in its
    own :class:`Supervisor` (crash/hang restarts with backoff, address
    pinned to the node's assigned port) and joined to the fleet by
    ``--node-id`` / ``--cluster-peers`` gossip flags.  On top, the
    fleet monitor thread -- the fleet-level supervisor -- watches for
    nodes whose per-node restart budget is exhausted: each such node is
    revived with a fresh supervisor up to ``fleet_restarts`` times,
    after which it is marked dead, dropped from :attr:`ring`, and its
    death is gossiped to the survivors so clients converge too.

    ``base_port=None`` picks free ephemeral ports; an explicit base
    assigns ``base_port + index`` per node.  Every node gets its own
    persistent cache and write-ahead journal under ``data_dir`` (a
    private temporary directory by default), so a restarted node
    replays uncommitted work and re-serves committed results without
    re-simulation -- the bit-exactness story of the single-node stack,
    per node.
    """

    def __init__(self, n_nodes, host="127.0.0.1", base_port=None, workers=1,
                 node_restarts=5, fleet_restarts=1, fleet_interval=0.25,
                 gossip_interval=0.25, dead_after=2.0, data_dir=None,
                 replicas=DEFAULT_REPLICAS, replication=2, serve_extra=(),
                 node_extra=None, log=None, start_timeout=60.0):
        if n_nodes < 1:
            raise ClusterError("a cluster needs at least one node")
        self.n_nodes = int(n_nodes)
        self.host = host
        self.workers = int(workers)
        # replication factor handed to every node (0/1 disables):
        # committed results fan out to the first `replication` ring
        # owners, with hinted handoff under data_dir per node
        self.replication = int(replication or 0)
        self.node_restarts = int(node_restarts)
        self.fleet_restarts = int(fleet_restarts)
        self.fleet_interval = float(fleet_interval)
        self.gossip_interval = float(gossip_interval)
        self.dead_after = float(dead_after)
        self.replicas = int(replicas)
        self.serve_extra = list(serve_extra)
        # per-node extra serve args ({index: [...]}) -- how the gray
        # harness gives exactly one node a latency fault plan
        self.node_extra = {
            int(index): list(extra)
            for index, extra in (node_extra or {}).items()
        }
        self.start_timeout = float(start_timeout)
        self.log = log or (lambda line: None)
        self._tmp = None
        if data_dir is None:
            import tempfile

            self._tmp = tempfile.TemporaryDirectory(prefix="repro-cluster-")
            data_dir = self._tmp.name
        self.data_dir = data_dir
        if base_port is None:
            ports = pick_free_ports(self.n_nodes, host)
        else:
            ports = [int(base_port) + index for index in range(self.n_nodes)]
        self.nodes = [
            _Node(index, f"n{index}", host, port)
            for index, port in enumerate(ports)
        ]
        self.peers = {node.node_id: node.address for node in self.nodes}
        self.ring = HashRing(
            (node.node_id for node in self.nodes), replicas=self.replicas
        )
        self._blocks = {node.node_id: set() for node in self.nodes}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._monitor_thread = None
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def _serve_args(self, node):
        args = [
            "serve", "--tcp", f"{node.host}:{node.port}",
            "--workers", str(self.workers),
            "--node-id", node.node_id,
            "--cluster-peers", format_peers(self.peers),
            "--gossip-interval", str(self.gossip_interval),
            "--gossip-dead-after", str(self.dead_after),
            "--cache", os.path.join(self.data_dir, f"{node.node_id}.cache"),
            "--journal",
            os.path.join(self.data_dir, f"{node.node_id}.journal"),
        ]
        if self.replication >= 2 and self.n_nodes >= 2:
            args += [
                "--replication-factor", str(self.replication),
                "--hints",
                os.path.join(self.data_dir, f"{node.node_id}.hints"),
            ]
        return args + self.serve_extra + self.node_extra.get(node.index, [])

    def _make_supervisor(self, node):
        from repro.service.supervisor import Supervisor

        return Supervisor(
            self._serve_args(node),
            max_restarts=self.node_restarts,
            **_NODE_SUPERVISION,
            start_timeout=self.start_timeout,
            log=lambda line, nid=node.node_id: self.log(f"[{nid}] {line}"),
        )

    def start(self):
        """Launch every node (in parallel) and the fleet monitor."""
        from repro.service.supervisor import SupervisorError

        errors = []

        def launch(node):
            try:
                node.supervisor = self._make_supervisor(node).start()
            except SupervisorError as exc:
                errors.append(f"{node.node_id}: {exc}")

        threads = [
            threading.Thread(target=launch, args=(node,), daemon=True)
            for node in self.nodes
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            self.stop()
            raise ClusterError(f"cluster failed to launch: {errors}")
        self._started = True
        self._monitor_thread = threading.Thread(
            target=self._monitor, daemon=True, name="fleet-supervisor"
        )
        self._monitor_thread.start()
        return self

    def stop(self):
        """Stop the monitor and every node; release the data dir."""
        self._stop.set()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=10.0)
        for node in self.nodes:
            if node.supervisor is not None:
                node.supervisor.stop()
        if self._tmp is not None:
            with contextlib.suppress(OSError):
                self._tmp.cleanup()

    def __enter__(self):
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info):
        self.stop()
        return False

    # -- fleet supervision ---------------------------------------------------

    def _monitor(self):
        """The fleet-level supervisor: revive or bury exhausted nodes."""
        while not self._stop.wait(timeout=self.fleet_interval):
            for node in self.nodes:
                with self._lock:
                    if node.status == DEAD or node.supervisor is None:
                        continue
                    if node.supervisor.running:
                        continue
                    node.exit_code = node.supervisor.result
                    if node.exit_code == 0:
                        continue   # clean exit: not a failure
                    if node.revivals < self.fleet_restarts:
                        node.revivals += 1
                        self.log(
                            f"fleet: reviving {node.node_id} "
                            f"({node.revivals}/{self.fleet_restarts}) after "
                            f"exit {node.exit_code}"
                        )
                        try:
                            node.supervisor = \
                                self._make_supervisor(node).start()
                            continue
                        except Exception as exc:
                            self.log(
                                f"fleet: revival of {node.node_id} "
                                f"failed: {exc}"
                            )
                    node.status = DEAD
                    self.ring.remove(node.node_id)
                    self.log(
                        f"fleet: {node.node_id} is dead (exit "
                        f"{node.exit_code}, revivals exhausted); ring "
                        f"rebalanced to {sorted(self.ring.nodes)}"
                    )
                self._gossip_death(node)

    def _gossip_death(self, dead_node):
        """Tell one survivor the node is dead, at its last-seen pair."""
        from repro.service.transport import recv_frame, send_frame

        for node in self.nodes:
            if node.status == DEAD or node is dead_node:
                continue
            try:
                with socket.create_connection(node.address, 2.0) as sock:
                    sock.settimeout(2.0)
                    send_frame(sock, {"id": "fleet", "op": "health"})
                    health = (recv_frame(sock) or {}).get("health") or {}
                    entry = (
                        (health.get("membership") or {})
                        .get("nodes", {})
                        .get(dead_node.node_id)
                    )
                    if entry is None:
                        return
                    entry = dict(entry, status=DEAD)
                    send_frame(sock, {
                        "id": "fleet", "op": "health",
                        "gossip": {
                            "from": "fleet-supervisor",
                            "nodes": {dead_node.node_id: entry},
                        },
                    })
                    recv_frame(sock)
                return
            except (OSError, ValueError):
                continue

    # -- fleet operations ----------------------------------------------------

    @property
    def addresses(self):
        """Addresses of nodes not marked dead, in node order."""
        with self._lock:
            return [
                node.address for node in self.nodes if node.status != DEAD
            ]

    @property
    def seed(self):
        """One bootstrap address (the first non-dead node)."""
        addresses = self.addresses
        if not addresses:
            raise ClusterError("every node in the cluster is dead")
        return addresses[0]

    def alive_nodes(self):
        with self._lock:
            return [node for node in self.nodes if node.status != DEAD]

    def kill_node(self, index, sig=None):
        """SIGKILL node ``index``'s server process (chaos entry point).

        The node's own supervisor notices and restarts it on the same
        port -- unless its budget is exhausted, in which case the fleet
        monitor revives or buries it.
        """
        import signal as signal_module

        node = self.nodes[index]
        if node.supervisor is not None:
            node.supervisor.kill_server(
                sig if sig is not None else signal_module.SIGKILL
            )

    def await_recovery(self, index):
        """Wait until node ``index`` has been restarted by its supervisor
        or revived by the fleet and is alive; False if that is not so
        within the supervisor's health budget."""
        node = self.nodes[index]
        deadline = time.monotonic() + _HEALTH_BUDGET_S
        while True:
            with self._lock:
                supervisor = node.supervisor
                recovered = (
                    node.status == ALIVE and supervisor is not None
                    and supervisor.running
                    and supervisor.restarts + node.revivals >= 1
                )
            if recovered or time.monotonic() >= deadline:
                return recovered
            time.sleep(0.05)

    def slow_node(self, index, seconds=0.5):
        """Make node ``index`` *gray* for ``seconds``: frozen, not dead.

        SIGSTOP parks the whole server process -- sockets stay open,
        connections queue, nothing errors -- then a timer SIGCONTs it.
        Keep ``seconds`` well under the supervisor's health budget
        (interval 0.5s x 4 failures) or the freeze escalates into a
        restart, which is the *fail-stop* path, not the gray one.
        """
        import signal as signal_module

        node = self.nodes[index]
        if node.supervisor is None:
            return
        node.supervisor.kill_server(signal_module.SIGSTOP)
        timer = threading.Timer(
            float(seconds),
            node.supervisor.kill_server,
            args=(signal_module.SIGCONT,),
        )
        timer.daemon = True
        timer.start()

    def stop_node(self, index):
        """Cleanly stop node ``index`` and leave it down."""
        node = self.nodes[index]
        with self._lock:
            node.status = DEAD
            self.ring.remove(node.node_id)
        if node.supervisor is not None:
            node.supervisor.stop()
        self._gossip_death(node)

    def restart_node(self, index):
        """Bring a dead node back on its original port (fresh budget)."""
        node = self.nodes[index]
        if node.supervisor is not None:
            node.supervisor.stop()
        node.supervisor = self._make_supervisor(node).start()
        with self._lock:
            node.status = ALIVE
            self.ring.add(node.node_id)
        blocked = self._blocks[node.node_id]
        if blocked:
            from repro.service.transport import TCPServiceClient

            with contextlib.suppress(Exception):
                with TCPServiceClient(node.address,
                                      options=_PROBE_OPTIONS) as client:
                    client.request(
                        {"op": "partition", "block": sorted(blocked)}
                    )
        return node

    def partition(self, index_a, index_b):
        """Cut the gossip link between two nodes (both directions)."""
        self._set_partition(index_a, index_b, cut=True)

    def heal(self, index_a, index_b):
        """Restore the gossip link between two nodes."""
        self._set_partition(index_a, index_b, cut=False)

    def _set_partition(self, index_a, index_b, cut):
        from repro.service.transport import TCPServiceClient

        pair = (self.nodes[index_a], self.nodes[index_b])
        for node, other in (pair, pair[::-1]):
            blocked = self._blocks[node.node_id]
            if cut:
                blocked.add(other.node_id)
            else:
                blocked.discard(other.node_id)
            # block lists are authoritative cluster-side so a restarted
            # node (which boots with an empty list) can be re-cut
            with contextlib.suppress(Exception):
                with TCPServiceClient(node.address,
                                      options=_PROBE_OPTIONS) as client:
                    client.request(
                        {"op": "partition", "block": sorted(blocked)}
                    )

    def membership(self):
        """The fleet's converged view, fetched from any live node."""
        from repro.service.transport import TCPServiceClient

        for address in self.addresses:
            with contextlib.suppress(Exception):
                with TCPServiceClient(address,
                                      options=_PROBE_OPTIONS) as client:
                    return client.health().get("membership")
        return None

    def router(self, **kwargs):
        """A :class:`RouterClient` bootstrapped from this fleet's seed."""
        return RouterClient([self.seed], replicas=self.replicas, **kwargs)

    def snapshot(self):
        """The fleet supervisor's own state, for logs and artifacts."""
        with self._lock:
            return {
                "nodes": {
                    node.node_id: {
                        "address": list(node.address),
                        "status": node.status,
                        "revivals": node.revivals,
                        "restarts": (
                            node.supervisor.restarts
                            if node.supervisor is not None else 0
                        ),
                        "exit_code": node.exit_code,
                    }
                    for node in self.nodes
                },
                "ring": sorted(self.ring.nodes),
            }
