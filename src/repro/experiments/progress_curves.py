"""Aggregate knowledge-growth curves: how information spreads over time.

The paper reports only the end time ``t_comm``.  The *shape* of the
spread is informative too: the fraction of knowledge bits present grows
S-curve-like (slow start while agents hunt, fast middle once streets
exist, slow tail waiting for the last pair), and the T-grid curve is a
compressed copy of the S-grid curve -- the geometric speed-up acts
uniformly, not just on the tail.  This experiment measures the mean
curve over a suite for both grids.
"""

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.configs.suite import paper_suite
from repro.core.bits import popcount
from repro.core.published import published_fsm
from repro.core.vectorized import BatchSimulator
from repro.experiments.report import ascii_bars
from repro.grids import make_grid


def knowledge_bits_fraction(simulator):
    """Mean fraction of the ``k * k`` knowledge bits present, over lanes."""
    words = simulator.knowledge  # (B, k, W) uint64
    bit_counts = popcount(words).sum(axis=(1, 2), dtype=np.int64)
    k = simulator.n_agents
    return float(bit_counts.mean()) / (k * k)


@dataclass(frozen=True)
class ProgressCurve:
    """One grid's aggregate spread curve."""

    kind: str
    n_agents: int
    fractions: Tuple[float, ...]  # index = step t (0 = after placement)

    def time_to(self, fraction):
        """First step at which the mean bit fraction reaches ``fraction``."""
        for t, value in enumerate(self.fractions):
            if value >= fraction:
                return t
        return None


def run_progress_curves(
    n_agents=16, n_random=200, seed=2013, t_max=300
) -> List[ProgressCurve]:
    """Mean knowledge-fraction-vs-time curves for T and S."""
    curves = []
    for kind in ("T", "S"):
        grid = make_grid(kind, 16)
        suite = paper_suite(grid, n_agents, n_random=n_random, seed=seed)
        simulator = BatchSimulator(grid, published_fsm(kind), suite)
        fractions = [knowledge_bits_fraction(simulator)]
        while not simulator.done.all() and simulator.t < t_max:
            simulator.step()
            fractions.append(knowledge_bits_fraction(simulator))
        curves.append(
            ProgressCurve(
                kind=kind, n_agents=n_agents, fractions=tuple(fractions)
            )
        )
    return curves


def format_progress_curves(curves) -> str:
    """Quartile milestones plus an ascii profile of both curves."""
    lines = ["Knowledge spread over time (mean over the suite)"]
    milestones = (0.25, 0.5, 0.75, 0.9, 1.0)
    header = "grid  " + "  ".join(f"t@{int(100 * m)}%" for m in milestones)
    lines.append(header)
    for curve in curves:
        cells = []
        for milestone in milestones:
            t = curve.time_to(milestone)
            cells.append("  -  " if t is None else f"{t:5d}")
        lines.append(f"   {curve.kind}  " + "  ".join(cells))
    # compressed-copy check: sample each curve at relative times
    sample_points = [0.2, 0.4, 0.6, 0.8]
    labels = [f"{int(100 * p)}%t" for p in sample_points]
    series = {}
    for curve in curves:
        horizon = len(curve.fractions) - 1
        series[curve.kind] = [
            curve.fractions[int(point * horizon)] for point in sample_points
        ]
    lines.append("")
    lines.append("bit fraction at relative time (curves nearly coincide):")
    lines.append(ascii_bars(labels, series, width=40))
    return "\n".join(lines)
