"""Shared latency accounting and metric exposition for the serving stack.

:class:`LatencyHistogram` started life inside the HTTP gateway's
per-class request histograms; the deadline-aware dispatcher needs the
same structure to track observed per-batch latency (its p99 is what a
request's remaining budget is judged against), the gray-failure
detector needs cheap quantiles over router round-trips, and the
replication fanout worker records per-send latency with it (the
``repro_replication_send_latency_*`` family on ``/metrics``).  It
lives here so :mod:`repro.service.service`,
:mod:`repro.service.cluster` and :mod:`repro.service.replication` can
use it without importing the gateway; :mod:`repro.service.gateway`
re-exports it unchanged.

:func:`render_metrics` is the Prometheus-style exposition every
``metrics`` op answers with -- the HTTP gateway's ``GET /metrics`` and
the ``--metrics`` sidecar, over whichever listener's snapshot it
exports.
"""

import math


class LatencyHistogram:
    """Log-bucketed latency accumulator with quantile estimates.

    Buckets grow geometrically (``base`` per step from ``floor``
    seconds), so two ints per observation buy percentile estimates that
    are accurate to one bucket width -- good enough for the p50/p99 the
    gateway exports, with no per-request allocation.
    """

    def __init__(self, base=1.25, floor=1e-4):
        self.base = float(base)
        self.floor = float(floor)
        self._log_base = math.log(self.base)
        self.counts = {}
        self.count = 0
        self.sum = 0.0

    def observe(self, seconds):
        seconds = max(float(seconds), 0.0)
        index = (
            0 if seconds <= self.floor
            else math.ceil(math.log(seconds / self.floor) / self._log_base)
        )
        self.counts[index] = self.counts.get(index, 0) + 1
        self.count += 1
        self.sum += seconds

    def quantile(self, q):
        """An upper bound of the ``q``-quantile latency (0 if empty)."""
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for index in sorted(self.counts):
            seen += self.counts[index]
            if seen >= target:
                return self.floor * self.base ** index
        return self.floor * self.base ** max(self.counts)

    def snapshot(self):
        return {
            "count": self.count,
            "sum": self.sum,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
        }


def _metric_name(*parts):
    cleaned = "_".join(str(part) for part in parts if part != "")
    return "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in cleaned
    )


def _flatten_metrics(prefix, value, out):
    if isinstance(value, bool):
        out.append((prefix, int(value)))
    elif isinstance(value, (int, float)):
        out.append((prefix, value))
    elif isinstance(value, dict):
        for key, nested in value.items():
            _flatten_metrics(_metric_name(prefix, key), nested, out)
    # lists (recent widths etc.) have no scalar exposition; skip them


def render_metrics(snapshot, histograms=()):
    """Prometheus-style text exposition of a counter snapshot.

    Every numeric leaf of ``snapshot`` becomes one
    ``repro_<path> <value>`` sample, so the journal, pool-watchdog,
    idempotency, cache and adaptive-batch counters are all exported
    without a hand-maintained schema.  ``histograms`` maps admission
    class -> :class:`LatencyHistogram`, exported as quantile gauges
    plus ``_count``/``_sum``.
    """
    samples = []
    _flatten_metrics("repro", snapshot, samples)
    lines = [f"{name} {value}" for name, value in samples]
    for label, histogram in dict(histograms).items():
        snap = histogram.snapshot()
        base = "repro_gateway_request_latency_seconds"
        lines.append(f'{base}{{class="{label}",quantile="0.5"}} {snap["p50"]}')
        lines.append(f'{base}{{class="{label}",quantile="0.99"}} {snap["p99"]}')
        lines.append(f'{base}_count{{class="{label}"}} {snap["count"]}')
        lines.append(f'{base}_sum{{class="{label}"}} {snap["sum"]}')
    return "\n".join(lines) + "\n"
