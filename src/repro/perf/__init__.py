"""Performance observability: hot-path counters and the frozen baseline.

* :mod:`repro.perf.counters` -- per-simulator hot-path counters (the
  core simulator imports these, so they carry no further dependencies).
* :mod:`repro.perf.reference` -- the pre-optimization batch simulator,
  kept verbatim as the baseline the fast path is timed against in
  ``benchmarks/bench_perf_core.py`` and as one more equivalence anchor
  for the tests.

``LegacyBatchSimulator`` is re-exported lazily: the core simulator
imports ``repro.perf.counters`` at import time, and eagerly importing
the reference stepper here would close a cycle back into
:mod:`repro.core`.
"""

from repro.perf.counters import StepCounters

__all__ = ("StepCounters", "LegacyBatchSimulator")


def __getattr__(name):
    if name == "LegacyBatchSimulator":
        from repro.perf.reference import LegacyBatchSimulator

        return LegacyBatchSimulator
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
