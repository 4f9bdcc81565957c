"""Deterministic fault injection for the serving stack.

The hardening this package exists to verify (retries, the worker
watchdog, torn-tail cache recovery, checkpoint/resume) is only worth
trusting if the failures it survives are *reproducible*.  A
:class:`FaultPlan` is a seeded, serializable schedule of faults --
worker crash, worker hang, slow worker, socket disconnect, partial or
garbage response frame, torn cache write, transient dispatcher error --
and a :class:`FaultInjector` arms that plan process-wide.

Injection sites are fixed, named hook points threaded through the
serving stack::

    pool.job         -- a job handed to a WorkerPool worker process
    service.dispatch -- one coalesced batch entering the dispatcher
    transport.send   -- an outcome response frame about to be written
    cache.append     -- one CacheStore record append
    client.connect   -- a TCP client (re)connecting to the server
    client.send      -- a client request frame about to be written
    client.recv      -- a client about to read one response frame

Each hook is a single ``maybe_fault(site)`` call that reads one module
global; with no injector installed (the production default) the hook is
one ``is None`` branch.  Installation is explicit -- :func:`install`
from code, ``repro-a2a serve --fault-plan PATH`` from the CLI, or the
``REPRO_FAULT_PLAN`` environment variable (a path to a saved plan,
checked once at import) -- so no production path can trip a fault by
accident.

Determinism: a fault fires on the ``at``-th invocation of its site,
counted by the injector, and fires at most once.  The same plan against
the same request schedule therefore produces the same failure history,
which is what lets the chaos battery assert bit-exact recovery and CI
pin a fault schedule.  Every fired fault is recorded (and optionally
appended to a JSONL fault log via ``REPRO_FAULT_LOG`` or
``log_path=``), so a failing chaos run leaves an artifact naming
exactly which faults fired, where, and when.
"""

import json
import os
import threading
import time
from dataclasses import dataclass

#: Injection sites, in stack order.
SITE_POOL_JOB = "pool.job"
SITE_DISPATCH = "service.dispatch"
SITE_TRANSPORT_SEND = "transport.send"
SITE_CACHE_APPEND = "cache.append"
SITE_CLIENT_CONNECT = "client.connect"
SITE_CLIENT_SEND = "client.send"
SITE_CLIENT_RECV = "client.recv"
SITE_CLUSTER_NODE = "cluster.node"
SITE_CLUSTER_LINK = "cluster.link"
SITE_REPLICATION_SEND = "replication.send"
SITE_HINT_APPEND = "replication.hint"

#: The single-process serving sites.  :meth:`FaultPlan.random` draws
#: from these by default, so single-node chaos sweeps are unaffected by
#: the cluster-level sites below.
KNOWN_SITES = (
    SITE_POOL_JOB,
    SITE_DISPATCH,
    SITE_TRANSPORT_SEND,
    SITE_CACHE_APPEND,
    SITE_CLIENT_CONNECT,
    SITE_CLIENT_SEND,
    SITE_CLIENT_RECV,
)

#: Fleet-level sites: their hooks live only in the cluster
#: orchestration path (``repro.resilience.chaos.run_cluster_plan``), so
#: a plan carrying them against a non-cluster run leaves them pending
#: forever -- they can never fire by accident in a single-node stack.
CLUSTER_SITES = (
    SITE_CLUSTER_NODE,
    SITE_CLUSTER_LINK,
)

#: Replication-layer sites (PR 10).  Outside the default random pool
#: for the same replay-stability reason as the cluster sites: hooks
#: live in the :class:`repro.service.replication.Replicator` fanout and
#: :class:`~repro.service.replication.HintStore` append paths, and old
#: seeded sweeps must keep replaying byte-identical schedules.
REPLICATION_SITES = (
    SITE_REPLICATION_SEND,
    SITE_HINT_APPEND,
)

#: Fault kinds.
CRASH = "crash"                  # worker process dies (os._exit)
HANG = "hang"                    # worker stops making progress
SLOW = "slow"                    # worker stalls, then completes
DISPATCH_ERROR = "error"         # transient dispatcher-side failure
DISCONNECT = "disconnect"        # server drops the socket, no response
PARTIAL_FRAME = "partial_frame"  # half a response frame, then drop
GARBAGE_FRAME = "garbage_frame"  # a well-framed non-JSON body
TORN_WRITE = "torn_write"        # cache append dies mid-line
KILL = "kill"                    # a whole cluster node is SIGKILLed
PARTITION = "partition"          # a link between two nodes drops

#: Latency-fault kinds: the component stays alive and eventually
#: answers, it is just *slow* -- the gray-failure mode retries and
#: breakers cannot see.  ``delay`` holds a response frame before
#: writing it intact; ``stall`` parks a dispatcher batch (before any
#: future is marked running, so cancellation still wins) or a pool job.
DELAY = "delay"                  # response frame held, then sent intact
STALL = "stall"                  # batch/job parked, then runs normally

#: What each site can be asked to do (validation superset).
SITE_KINDS = {
    SITE_POOL_JOB: (CRASH, HANG, SLOW, STALL),
    SITE_DISPATCH: (DISPATCH_ERROR, STALL),
    SITE_TRANSPORT_SEND: (DISCONNECT, PARTIAL_FRAME, GARBAGE_FRAME, DELAY),
    SITE_CACHE_APPEND: (TORN_WRITE,),
    SITE_CLIENT_CONNECT: (DISCONNECT,),
    SITE_CLIENT_SEND: (DISCONNECT,),
    SITE_CLIENT_RECV: (DISCONNECT, GARBAGE_FRAME),
    SITE_CLUSTER_NODE: (KILL, SLOW),
    SITE_CLUSTER_LINK: (PARTITION,),
    SITE_REPLICATION_SEND: (DISCONNECT, DELAY),
    SITE_HINT_APPEND: (TORN_WRITE,),
}

#: The kinds :meth:`FaultPlan.random` draws from.  Frozen at the PR 4/7
#: vocabulary: the latency kinds above are valid in hand-pinned plans
#: (``chaos --gray``) but excluded from randomized
#: draws, so existing seeded sweeps replay byte-identical schedules.
RANDOM_SITE_KINDS = {
    SITE_POOL_JOB: (CRASH, HANG, SLOW),
    SITE_DISPATCH: (DISPATCH_ERROR,),
    SITE_TRANSPORT_SEND: (DISCONNECT, PARTIAL_FRAME, GARBAGE_FRAME),
    SITE_CACHE_APPEND: (TORN_WRITE,),
    SITE_CLIENT_CONNECT: (DISCONNECT,),
    SITE_CLIENT_SEND: (DISCONNECT,),
    SITE_CLIENT_RECV: (DISCONNECT, GARBAGE_FRAME),
    SITE_CLUSTER_NODE: (KILL,),
    SITE_CLUSTER_LINK: (PARTITION,),
    SITE_REPLICATION_SEND: (DISCONNECT,),
    SITE_HINT_APPEND: (TORN_WRITE,),
}

PLAN_VERSION = 1


class FaultPlanError(ValueError):
    """A plan that names an unknown site/kind or fails to parse."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: fire ``kind`` on the ``at``-th hit of ``site``.

    ``at`` is 1-based and counted per site by the injector; a spec fires
    at most once.  ``seconds`` parameterises ``slow`` (stall length),
    ``hang`` (how long the worker sleeps -- far beyond any watchdog
    timeout by default) and ``partition`` (how long the link stays cut
    before the orchestrator heals it).  ``target`` names what a
    cluster-level fault hits: a node index (``"1"``) for
    ``cluster.node``, an ``"i|j"`` node-index pair for ``cluster.link``;
    left ``None``, the orchestrator derives a target from ``at``.
    """

    site: str
    kind: str
    at: int
    seconds: float = 0.0
    target: str = None

    def __post_init__(self):
        if self.site not in SITE_KINDS:
            raise FaultPlanError(f"unknown fault site {self.site!r}")
        if self.kind not in SITE_KINDS[self.site]:
            raise FaultPlanError(
                f"site {self.site!r} cannot inject {self.kind!r}; "
                f"choose from {SITE_KINDS[self.site]}"
            )
        if self.at < 1:
            raise FaultPlanError("fault 'at' indices are 1-based")
        if self.target is not None:
            if self.site not in CLUSTER_SITES:
                raise FaultPlanError(
                    f"site {self.site!r} takes no target "
                    f"(targets are for {CLUSTER_SITES})"
                )
            if self.site == SITE_CLUSTER_LINK and "|" not in self.target:
                raise FaultPlanError(
                    "cluster.link targets name a node pair, e.g. '0|2'"
                )

    def to_json(self):
        payload = {"site": self.site, "kind": self.kind, "at": self.at}
        if self.seconds:
            payload["seconds"] = self.seconds
        if self.target is not None:
            payload["target"] = self.target
        return payload

    @classmethod
    def from_json(cls, payload):
        return cls(
            site=payload["site"],
            kind=payload["kind"],
            at=int(payload["at"]),
            seconds=float(payload.get("seconds", 0.0)),
            target=payload.get("target"),
        )


class FaultPlan:
    """A serializable schedule of :class:`FaultSpec` entries.

    ``seed`` records how a randomized plan was drawn (``None`` for
    hand-pinned plans); it is carried through serialization so a chaos
    failure can name the exact plan that produced it.
    """

    def __init__(self, faults=(), seed=None, name="fault-plan"):
        self.faults = tuple(faults)
        self.seed = seed
        self.name = name

    def __len__(self):
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def __eq__(self, other):
        return (
            isinstance(other, FaultPlan)
            and self.faults == other.faults
            and self.seed == other.seed
            and self.name == other.name
        )

    def to_json(self):
        return {
            "version": PLAN_VERSION,
            "name": self.name,
            "seed": self.seed,
            "faults": [fault.to_json() for fault in self.faults],
        }

    @classmethod
    def from_json(cls, payload):
        if not isinstance(payload, dict):
            raise FaultPlanError("fault plan must be a JSON object")
        version = payload.get("version", PLAN_VERSION)
        if version != PLAN_VERSION:
            raise FaultPlanError(f"unknown fault-plan version {version!r}")
        return cls(
            faults=[FaultSpec.from_json(f) for f in payload.get("faults", [])],
            seed=payload.get("seed"),
            name=payload.get("name", "fault-plan"),
        )

    def save(self, path):
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle, indent=2)
            handle.write("\n")
        return path

    @classmethod
    def load(cls, path):
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except ValueError as exc:
            raise FaultPlanError(f"cannot parse fault plan {path!r}: {exc}")
        return cls.from_json(payload)

    @classmethod
    def random(cls, seed, n_faults=4, sites=KNOWN_SITES, max_at=6,
               seconds=0.05, n_nodes=None):
        """A deterministic randomized plan: same seed, same schedule.

        Draws ``n_faults`` (site, kind, at) triples uniformly from the
        allowed combinations with a private ``random.Random(seed)``, so
        chaos sweeps can fan out over seeds and still replay any
        failure exactly.  When ``sites`` includes the cluster-level
        sites and ``n_nodes`` is given, node-kill and link-partition
        faults draw explicit ``target`` node indices (pairs for links)
        from the same generator; without ``n_nodes`` the target is left
        for the orchestrator to derive from ``at``.
        """
        import random

        rng = random.Random(seed)
        faults = []
        for _ in range(n_faults):
            site = rng.choice(list(sites))
            kind = rng.choice(list(RANDOM_SITE_KINDS[site]))
            target = None
            if n_nodes and site == SITE_CLUSTER_NODE:
                target = str(rng.randrange(n_nodes))
            elif n_nodes and n_nodes >= 2 and site == SITE_CLUSTER_LINK:
                first = rng.randrange(n_nodes)
                second = (first + rng.randrange(1, n_nodes)) % n_nodes
                target = f"{first}|{second}"
            faults.append(
                FaultSpec(site=site, kind=kind, at=rng.randint(1, max_at),
                          seconds=seconds, target=target)
            )
        return cls(faults=faults, seed=seed, name=f"random-{seed}")


def gray_node_plan(seconds=0.25, hits=400, name="gray-node"):
    """A plan that makes one serving process persistently *gray*.

    Every dispatcher batch (up to ``hits`` of them) is parked for
    ``seconds`` before any of its futures is marked running, so the
    node stays alive -- health probes and gossip answer instantly off
    the event loop -- while evaluation latency balloons.  Because the
    stall sits ahead of ``set_running_or_notify_cancel``, a ``cancel``
    op arriving during the stall still drops the work unsimulated:
    that is what lets hedged routers prove zero duplicate simulations.

    Install it on one node of a fleet (``serve --fault-plan``) to
    reproduce the ``cluster.node slow`` scenario deterministically.
    """
    return FaultPlan(
        [FaultSpec(SITE_DISPATCH, STALL, at=i, seconds=seconds)
         for i in range(1, hits + 1)],
        name=name,
    )


class FaultInjector:
    """Arms one :class:`FaultPlan`: counts site hits, fires scheduled faults.

    Thread-safe; one injector is shared by the dispatcher thread, the
    transport event loop and pool submission.  ``fire(site)`` increments
    the site's invocation counter and returns the matching
    :class:`FaultSpec` exactly once, or ``None``.  Fired faults are
    recorded in order (``fired``) and, when ``log_path`` is set,
    appended as JSONL lines -- the fault log CI uploads on failure.
    """

    def __init__(self, plan, log_path=None):
        self.plan = plan
        self.log_path = log_path
        self._lock = threading.Lock()
        self._counts = {site: 0 for site in KNOWN_SITES}
        self._armed = {}
        for fault in plan:
            self._armed.setdefault(fault.site, {})[fault.at] = fault
        self.fired = []

    def fire(self, site):
        """The fault scheduled for this hit of ``site``, if any."""
        with self._lock:
            self._counts[site] = count = self._counts.get(site, 0) + 1
            fault = self._armed.get(site, {}).pop(count, None)
            if fault is None:
                return None
            entry = {
                "site": site,
                "kind": fault.kind,
                "at": count,
                "time": time.time(),
            }
            self.fired.append(entry)
        if self.log_path:
            try:
                with open(self.log_path, "a") as handle:
                    handle.write(json.dumps(entry) + "\n")
            except OSError:
                pass  # a fault log must never become a fault source
        return fault

    def pending(self):
        """Faults armed but not yet fired."""
        with self._lock:
            return [
                fault
                for by_at in self._armed.values()
                for fault in by_at.values()
            ]

    def snapshot(self):
        with self._lock:
            return {
                "plan": self.plan.to_json(),
                "counts": dict(self._counts),
                "fired": list(self.fired),
                "pending": sum(len(by_at) for by_at in self._armed.values()),
            }


# -- process-global activation ----------------------------------------------

_active = None
_active_lock = threading.Lock()


def install(plan, log_path=None):
    """Arm ``plan`` process-wide; returns the :class:`FaultInjector`.

    Passing an existing :class:`FaultInjector` installs it as-is.
    ``log_path`` defaults to the ``REPRO_FAULT_LOG`` environment
    variable when unset.
    """
    global _active
    if log_path is None:
        log_path = os.environ.get("REPRO_FAULT_LOG") or None
    injector = (
        plan if isinstance(plan, FaultInjector)
        else FaultInjector(plan, log_path=log_path)
    )
    with _active_lock:
        _active = injector
    return injector


def uninstall():
    """Disarm fault injection; production hooks go back to one branch."""
    global _active
    with _active_lock:
        _active = None


def active_injector():
    """The installed :class:`FaultInjector`, or ``None``."""
    return _active


def maybe_fault(site):
    """The hook the serving stack calls: one branch when disarmed."""
    injector = _active
    if injector is None:
        return None
    return injector.fire(site)


class installed:
    """Context manager: install a plan for a block, then disarm.

    The test batteries' shape::

        with installed(FaultPlan.random(seed=7)) as injector:
            ...
        assert injector.fired
    """

    def __init__(self, plan, log_path=None):
        self.plan = plan
        self.log_path = log_path
        self.injector = None

    def __enter__(self):
        self.injector = install(self.plan, log_path=self.log_path)
        return self.injector

    def __exit__(self, *exc_info):
        uninstall()
        return False


def _install_from_environment():
    """Arm ``REPRO_FAULT_PLAN`` (a saved plan path) once, at import.

    ``REPRO_FAULT_LOG``, when also set, mirrors every fired fault to a
    JSONL log -- the artifact CI uploads when a chaos run fails.
    """
    path = os.environ.get("REPRO_FAULT_PLAN")
    if not path:
        return
    install(FaultPlan.load(path), log_path=os.environ.get("REPRO_FAULT_LOG"))


_install_from_environment()
