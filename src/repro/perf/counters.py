"""Throughput counters for the batch-simulator hot path.

The counters are plain integers bumped by :class:`repro.core.vectorized.
BatchSimulator` (one object per simulator, ``simulator.counters``); they
cost nothing measurable per step but make the effect of every fast-path
mechanism observable:

* ``lane_steps < n_lanes * steps`` proves lane compaction is shedding
  solved and parked lanes from the working set;
* ``exchange_early_outs`` counts steps whose knowledge exchange changed
  nothing and skipped the success check;
* ``retired_lanes`` / ``compactions`` trace when lanes left the batch;
* ``cycled_lanes`` counts lanes parked by cycle detection (unsolved lanes
  whose whole state repeated, see :mod:`repro.core.vectorized`);
* ``dense_exchanges`` counts exchange passes that ran as a cell stencil
  (dense worlds on the numpy backend, see
  :mod:`repro.core.backends.numpy_backend`);
* ``contested_steps`` counts steps on which two or more agents requested
  one free cell, so the numpy backend's conflict arena ran its
  ``minimum.at`` fix-up.

This module must stay import-light: the core simulator imports it, and
the rest of :mod:`repro.perf` imports the core simulator.
"""

from dataclasses import asdict, dataclass


@dataclass
class StepCounters:
    """Counts of hot-path events over a simulator's lifetime."""

    steps: int = 0                 # step() calls that did work
    lane_steps: int = 0            # sum of active lanes over those steps
    exchanges: int = 0             # exchange passes (incl. the placement one)
    exchange_early_outs: int = 0   # exchanges skipped: no knowledge changed
    compactions: int = 0           # retire/park passes that shrank the batch
    retired_lanes: int = 0         # solved lanes moved out of the working set
    cycled_lanes: int = 0          # periodic unsolved lanes parked by run()
    dense_exchanges: int = 0       # exchange passes run as a cell stencil
    contested_steps: int = 0       # steps whose conflict arena ran minimum.at

    def as_dict(self):
        """Plain-dict view for JSON reports."""
        return asdict(self)
