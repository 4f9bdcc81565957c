"""Anatomy of the k = 4 slowness maximum (paper Fig. 5's curiosity).

Table 1 shows 4 agents communicating *slower* than both 2 and 8 -- the
paper notes the maximum without dissecting it.  The per-field time
distributions explain it:

* **k = 2** is a rendezvous problem: the typical (median) meeting is the
  fastest of all densities, but the distribution has a heavy tail (two
  agents can chase each other for hundreds of steps), which inflates the
  mean;
* **k = 4** must connect six information pairs with barely more meeting
  opportunity, so the whole *body* of its distribution shifts right --
  the highest median of all densities;
* **k >= 8** has enough density that meetings become frequent: both the
  body and the tail shrink with every doubling.

The mean (the paper's reported statistic) peaks at k = 4 because the
k = 2 tail and the k = 4 body trade places.
"""

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.configs.suite import paper_suite
from repro.core.published import published_fsm
from repro.core.vectorized import BatchSimulator
from repro.experiments.report import TextTable
from repro.grids import make_grid


@dataclass(frozen=True)
class AnatomyRow:
    """Distribution summary of one density's communication times."""

    n_agents: int
    mean: float
    p25: float
    median: float
    p90: float
    max_time: int

    @property
    def tail_ratio(self):
        """p90 / median: how heavy the slow tail is."""
        return self.p90 / self.median


def run_anatomy(
    kind="T", agent_counts=(2, 4, 8, 16), n_random=300, seed=2013, t_max=2000
) -> Dict[int, AnatomyRow]:
    """Per-density t_comm distribution summaries."""
    grid = make_grid(kind, 16)
    fsm = published_fsm(kind)
    rows = {}
    for n_agents in agent_counts:
        suite = paper_suite(grid, n_agents, n_random=n_random, seed=seed)
        batch = BatchSimulator(grid, fsm, suite).run(t_max=t_max)
        times = batch.times()
        p25, median, p90 = np.percentile(times, [25, 50, 90])
        rows[n_agents] = AnatomyRow(
            n_agents=n_agents,
            mean=float(times.mean()),
            p25=float(p25),
            median=float(median),
            p90=float(p90),
            max_time=int(times.max()),
        )
    return rows


def format_anatomy(rows) -> str:
    table = TextTable(["k", "mean", "p25", "median", "p90", "max", "tail p90/p50"])
    for n_agents in sorted(rows):
        row = rows[n_agents]
        table.add_row(
            [
                n_agents, f"{row.mean:.1f}", f"{row.p25:.0f}",
                f"{row.median:.0f}", f"{row.p90:.0f}", row.max_time,
                f"{row.tail_ratio:.2f}",
            ]
        )
    return (
        "Anatomy of the k = 4 maximum: t_comm distributions per density\n"
        f"{table}\n"
        "k = 2: fastest median, heaviest tail (rendezvous luck);\n"
        "k = 4: the body of the distribution shifts right (6 pairs, "
        "little extra meeting rate) -- that is the Fig. 5 maximum."
    )
