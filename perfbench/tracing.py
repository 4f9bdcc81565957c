"""Span tracing from the benchmark's side of each layer boundary.

A :class:`Tracer` keeps spans in memory -- name, start, end, the span
that was open on the same thread when it started (its parent), an
optional request id and a few counters -- and writes them out once, at
the end of a run.  Spans are recorded by wrappers the benchmark installs
around the public functions of each layer.  A wrapper goes on the
binding its caller actually resolves: ``paper_suite`` is wrapped inside
``repro.experiments.table1`` and ``repro.service.jsonl`` (which import
it by name), a method is wrapped on its class.

``install_compute`` covers the layers every workload reaches (kernel,
simulator, suite builder, fitness); ``install_ga``, ``install_clients``
and ``install_server`` add the layers only one workload has.  A traced
run fails when a boundary it expects recorded no call
(:func:`missing_boundaries`), which catches a wrapper installed on a
binding nobody calls.

Timestamps are ``time.monotonic()``, one clock for every process on the
machine, so server spans written by the traced launcher line up with
the benchmark's own window.
"""

import functools
import itertools
import json
import threading
import time

from common import BenchError, median, percentile

#: Boundaries each workload must reach in a traced run.
COMPUTE_BOUNDARIES = (
    "kernel.step", "kernel.exchange", "kernel.solved", "sim.init",
    "sim.run", "configs.suite", "fitness.eval",
)
EXPECTED = {
    "evolve_T16": COMPUTE_BOUNDARIES + ("ga.advance",),
    "table1_ST16": COMPUTE_BOUNDARIES,
    "serve_client": ("request", "transport.tcp", "gateway.http"),
    "serve_server": COMPUTE_BOUNDARIES + (
        "codec.encode", "session.submit", "journal.accept",
        "journal.commit", "cache.get", "cache.put",
    ),
}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_request(self):
        return getattr(self._local, "rid", None)

    def set_request(self, rid):
        """Tag spans opened on this thread with request id ``rid``."""
        self._local.rid = rid

    def record(self, name, fn, args, kwargs, after=None):
        """Call ``fn`` inside a span called ``name``; ``after(args,
        result)`` may return counters to attach to the span."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.monotonic()
            stack.pop()
        attrs = after(args, result) if after is not None else None
        span = {"id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "rid": self.current_request()}
        if attrs:
            span["attrs"] = attrs
        with self._lock:
            self.spans.append(span)
        return result

    def wrap(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` by a wrapper recording span ``name``."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        if getattr(original, "__perfbench_span__", None) is not None:
            raise BenchError(f"{owner!r}.{attr} is already wrapped")

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.record(name, original, args, kwargs, after)

        wrapper.__perfbench_span__ = name
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original, had_own))

    def uninstall(self):
        """Restore every wrapped binding, newest first."""
        while self._installed:
            owner, attr, original, had_own = self._installed.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def dump(self, path):
        with open(path, "w") as out:
            json.dump(self.spans, out)


# -- counters attached to spans ---------------------------------------------

def _run_counters(args, result):
    counters = args[0].counters
    return {
        "lane_steps": counters.lane_steps,
        "exchanges": counters.exchanges,
        "exchange_early_outs": counters.exchange_early_outs,
        "compactions": counters.compactions,
        "retired_lanes": counters.retired_lanes,
    }


def _suite_fields(args, result):
    return {"fields": len(result)}


def _population_size(args, result):
    return {"fsms": len(args[1])}


def _one_fsm(args, result):
    return {"fsms": 1}


# -- installers -------------------------------------------------------------

def install_compute(tracer, table1=False, server=False):
    """Kernel, simulator, suite and fitness boundaries.

    ``table1`` adds the bindings ``run_table1`` resolves, ``server`` the
    ones the serving dispatcher and session resolve; the GA and the
    in-process API resolve the module-level ones.
    """
    import repro.api
    import repro.evolution.fitness as fitness
    from repro.core.backends import resolve_backend
    from repro.core.vectorized import BatchSimulator

    backend_class = type(resolve_backend(None))
    tracer.wrap(backend_class, "step_active", "kernel.step")
    tracer.wrap(backend_class, "exchange_active", "kernel.exchange")
    tracer.wrap(backend_class, "solved_active", "kernel.solved")
    tracer.wrap(BatchSimulator, "__init__", "sim.init")
    tracer.wrap(BatchSimulator, "run", "sim.run", after=_run_counters)
    tracer.wrap(repro.api, "paper_suite", "configs.suite",
                after=_suite_fields)
    tracer.wrap(fitness, "evaluate_population", "fitness.eval",
                after=_population_size)
    if table1:
        import repro.experiments.table1 as table1_module

        tracer.wrap(table1_module, "paper_suite", "configs.suite",
                    after=_suite_fields)
        tracer.wrap(table1_module, "evaluate_fsm", "fitness.eval",
                    after=_one_fsm)
    if server:
        import repro.service.jsonl as jsonl
        import repro.service.service as service

        tracer.wrap(jsonl, "paper_suite", "configs.suite",
                    after=_suite_fields)
        tracer.wrap(service, "evaluate_population", "fitness.eval",
                    after=_population_size)


def install_ga(tracer):
    from repro.evolution.population import Population

    tracer.wrap(Population, "advance", "ga.advance")


def install_clients(tracer):
    from repro.service.gateway import HTTPServiceClient
    from repro.service.transport import TCPServiceClient

    tracer.wrap(TCPServiceClient, "evaluate", "transport.tcp")
    tracer.wrap(HTTPServiceClient, "evaluate", "gateway.http")


def install_server(tracer):
    """Server-side serving boundaries (run inside the traced launcher)."""
    import repro.service.gateway as gateway
    import repro.service.transport as transport
    from repro.resilience.durability import RequestJournal
    from repro.service.cache_store import PersistentEvaluationCache
    from repro.service.jsonl import ServeSession

    install_compute(tracer, server=True)
    tracer.wrap(transport, "encode_frame", "codec.encode")
    tracer.wrap(transport, "outcome_to_dict", "codec.encode")
    tracer.wrap(gateway, "outcome_to_dict", "codec.encode")
    tracer.wrap(ServeSession, "submit_spec", "session.submit")
    tracer.wrap(RequestJournal, "accept", "journal.accept")
    tracer.wrap(RequestJournal, "commit", "journal.commit")
    tracer.wrap(PersistentEvaluationCache, "get", "cache.get")
    tracer.wrap(PersistentEvaluationCache, "put", "cache.put")


def span_cost_s(calls=20000):
    """Measured cost of one recorded span: a wrapped no-op call minus a
    plain one, per call."""
    class Probe:
        def noop(self):
            return None

    probe = Probe()
    t0 = time.perf_counter()
    for _ in range(calls):
        probe.noop()
    plain = time.perf_counter() - t0
    tracer = Tracer()
    tracer.wrap(Probe, "noop", "probe")
    t0 = time.perf_counter()
    for _ in range(calls):
        probe.noop()
    wrapped = time.perf_counter() - t0
    tracer.uninstall()
    return max(0.0, wrapped - plain) / calls


# -- reading spans back -----------------------------------------------------

def in_window(spans, start, end):
    """Spans that started inside ``[start, end]``."""
    return [s for s in spans if start <= s["start"] <= end]


def missing_boundaries(spans, expected):
    """Expected span names that recorded no call."""
    seen = {span["name"] for span in spans}
    return [name for name in expected if name not in seen]


def _by_name(spans, name):
    return [s for s in spans if s["name"] == name]


def busy_s(spans, name):
    """Time inside spans ``name``, not counting one nested in another."""
    names = {s["id"]: s["name"] for s in spans}
    return sum(
        s["end"] - s["start"] for s in _by_name(spans, name)
        if names.get(s["parent"]) != name
    )


def self_s(spans, name):
    """Busy time of ``name`` minus what its direct children cover."""
    ids = {s["id"] for s in _by_name(spans, name)}
    children = sum(
        s["end"] - s["start"] for s in spans if s["parent"] in ids
    )
    return busy_s(spans, name) - children


def calls(spans, name):
    return len(_by_name(spans, name))


def attr_sum(spans, name, key):
    return sum(s.get("attrs", {}).get(key, 0) for s in _by_name(spans, name))


def covered_s(spans):
    """Length of the union of the spans' intervals."""
    total, reach = 0.0, None
    for start, end in sorted((s["start"], s["end"]) for s in spans):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def latency_ms(spans, name):
    """``(p50, p99, count)`` of span durations in ms."""
    durations = [(s["end"] - s["start"]) * 1e3 for s in _by_name(spans, name)]
    if not durations:
        return None, None, 0
    return median(durations), percentile(durations, 99), len(durations)


def compute_metrics(spans):
    """Kernel, simulator, suite and fitness numbers from one span set."""
    kernel_busy = {
        phase: busy_s(spans, f"kernel.{phase}")
        for phase in ("step", "exchange", "solved")
    }
    lane_steps = attr_sum(spans, "sim.run", "lane_steps")
    exchanges = attr_sum(spans, "sim.run", "exchanges")
    kernel_total = sum(kernel_busy.values())
    return {
        "kernel.step.busy_s": kernel_busy["step"],
        "kernel.step.calls": calls(spans, "kernel.step"),
        "kernel.exchange.busy_s": kernel_busy["exchange"],
        "kernel.exchange.calls": calls(spans, "kernel.exchange"),
        "kernel.solved.busy_s": kernel_busy["solved"],
        "kernel.lane_steps": lane_steps,
        "kernel.lane_steps_per_s": (
            lane_steps / kernel_total if kernel_total else 0.0
        ),
        "kernel.exchange.early_out_ratio": (
            attr_sum(spans, "sim.run", "exchange_early_outs") / exchanges
            if exchanges else 0.0
        ),
        "sim.init.busy_s": busy_s(spans, "sim.init"),
        "sim.run.self_s": self_s(spans, "sim.run"),
        "sim.compactions": attr_sum(spans, "sim.run", "compactions"),
        "sim.retired_lanes": attr_sum(spans, "sim.run", "retired_lanes"),
        "configs.suite.busy_s": busy_s(spans, "configs.suite"),
        "configs.fields_built": attr_sum(spans, "configs.suite", "fields"),
        "fitness.eval.busy_s": busy_s(spans, "fitness.eval"),
        "fitness.fsms_simulated": attr_sum(spans, "fitness.eval", "fsms"),
    }


def layer_shares(spans, wall_s, names):
    """Each named layer's busy time as a share of ``wall_s``."""
    return {name: busy_s(spans, name) / wall_s for name in names}
