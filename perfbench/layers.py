"""Per-layer report of a traced run: layer metrics, shares, coverage,
and the tracing overhead against the untraced pass."""

import tracing
from common import BenchError

#: Span names whose busy time is reported as a share of the window.
SHARE_LAYERS = (
    "kernel.step", "kernel.exchange", "kernel.solved", "sim.init",
    "sim.run", "configs.suite", "fitness.eval", "ga.advance",
    "codec.encode", "session.submit", "journal.accept", "journal.commit",
    "cache.get", "cache.put",
)


def _guard(spans, expected_key):
    missing = tracing.missing_boundaries(spans, tracing.EXPECTED[expected_key])
    if missing:
        raise BenchError(f"traced run recorded no call at {missing} "
                         f"({expected_key})")


def _overhead(untraced, traced):
    """Traced minus untraced, absolute and relative, per metric."""
    return {
        name: {
            "untraced": value,
            "traced": traced.metrics[name],
            "diff": traced.metrics[name] - value,
            "ratio": traced.metrics[name] / value - 1.0,
        }
        for name, value in untraced.metrics.items()
    }


def _in_process(workload, traced):
    spans = tracing.in_window(traced.spans, *traced.window)
    _guard(spans, workload)
    wall = traced.window[1] - traced.window[0]
    metrics = tracing.compute_metrics(spans)
    extra = {}
    if workload == "evolve_T16":
        extra["ga.advance.self_s"] = tracing.self_s(spans, "ga.advance")
        extra["fitness.memo_hit_ratio"] = traced.extra["memo_hit_ratio"]
    coverage = tracing.covered_s(spans) / wall
    shares = tracing.layer_shares(spans, wall, SHARE_LAYERS)
    return metrics, extra, coverage, shares, wall


def _delta(after, before, key):
    return after[key] - before[key]


def _serve(traced):
    client = traced.spans
    server = traced.extra["server_spans"]
    _guard(client, "serve_client")
    _guard(server, "serve_server")
    start, end = traced.window
    wall = end - start
    window_server = tracing.in_window(server, start, end)
    # compute layers over the whole serving session: the suite is built
    # on the warm-up's first request, before the window opens
    metrics = tracing.compute_metrics(server)
    samples = traced.samples
    before, after = samples["stats_before"], samples["stats_after"]
    cache_before = before["cache"]
    cache_after = after["cache"]
    lookups = (_delta(cache_after, cache_before, "hits")
               + _delta(cache_after, cache_before, "misses"))
    requests = _delta(after, before, "requests")
    tcp = tracing.latency_ms(client, "transport.tcp")
    http = tracing.latency_ms(client, "gateway.http")
    extra = {
        "transport.tcp.p50_ms": tcp[0],
        "transport.tcp.p99_ms": tcp[1],
        "transport.tcp.count": tcp[2],
        "gateway.http.p50_ms": http[0],
        "gateway.http.p99_ms": http[1],
        "gateway.http.count": http[2],
        "gateway.refused": samples["refused"],
        "codec.encode.busy_s": tracing.busy_s(window_server, "codec.encode"),
        "codec.encode.calls": tracing.calls(window_server, "codec.encode"),
        "session.submit.busy_s": tracing.busy_s(window_server,
                                                "session.submit"),
        "journal.accept.busy_s": tracing.busy_s(window_server,
                                                "journal.accept"),
        "journal.commit.busy_s": tracing.busy_s(window_server,
                                                "journal.commit"),
        "journal.accepted": tracing.calls(window_server, "journal.accept"),
        "cache.get.busy_s": tracing.busy_s(window_server, "cache.get"),
        "cache.put.busy_s": tracing.busy_s(window_server, "cache.put"),
        "cache.hit_ratio": (
            _delta(cache_after, cache_before, "hits") / lookups
            if lookups else 0.0
        ),
        "cache.lookups": lookups,
        "cache.appended_bytes": (
            cache_after["persistent"]["size_bytes"]
            - cache_before["persistent"]["size_bytes"]
        ),
        "service.batches": _delta(after, before, "batches"),
        "service.coalesced_ratio": (
            _delta(after, before, "coalesced_requests") / requests
            if requests else 0.0
        ),
        "service.batch.p50_ms": after["batch_latency"]["p50"] * 1e3,
        "service.batch.p99_ms": after["batch_latency"]["p99"] * 1e3,
        "service.simulated_fsms": _delta(after, before, "simulated_fsms"),
        "serve.failed_ratio": samples["failed_ratio"],
        "serve.miss.p50_ms": samples["miss"]["p50_ms"],
        "serve.miss.tail_ms": samples["miss"]["tail_ms"],
        "serve.miss.tail": samples["miss"]["tail"],
        # kernel time outside the dispatcher's simulation of fresh
        # genomes: zero means cache hits never reach the kernel
        "kernel.busy_s_outside_fitness": _kernel_outside_fitness(server),
    }
    coverage = tracing.covered_s(window_server) / wall
    shares = tracing.layer_shares(window_server, wall, SHARE_LAYERS)
    return metrics, extra, coverage, shares, wall


def _kernel_outside_fitness(spans):
    by_id = {s["id"]: s for s in spans}

    def under_fitness(span):
        parent = by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == "fitness.eval":
                return True
            parent = by_id.get(parent["parent"])
        return False

    return sum(
        s["end"] - s["start"] for s in spans
        if s["name"].startswith("kernel.") and not under_fitness(s)
    )


def report(workload, untraced, traced):
    """Everything the traced invocation reports for ``workload``."""
    if workload == "serve_mixed":
        metrics, extra, coverage, shares, wall = _serve(traced)
    else:
        metrics, extra, coverage, shares, wall = _in_process(workload, traced)
    overhead = _overhead(untraced, traced)
    n_spans = len(traced.spans) + len(traced.extra.get("server_spans", ()))
    per_layer = dict(metrics)
    per_layer["trace.coverage"] = coverage
    per_layer["trace.overhead_ratio"] = (
        untraced.metrics["throughput_per_s"]
        / traced.metrics["throughput_per_s"] - 1.0
    )
    per_layer.update(extra)
    return {
        "per_layer": per_layer,
        "layer_shares": shares,
        "traced_wall_s": wall,
        "overhead": overhead,
        # what the spans themselves cost, from a measured per-span cost;
        # the traced-minus-untraced differences above also carry the
        # machine's drift between the two passes
        "span_cost": {"spans": n_spans,
                      "estimated_s": n_spans * tracing.span_cost_s()},
        "traced_end_to_end": traced.metrics,
        "traced_samples": traced.samples,
    }
