"""One-shot reproduction campaign: every experiment, one results file.

``repro-a2a reproduce-all --out results.json`` runs the whole evaluation
-- topology, Table 1 / Fig. 5, the Fig. 6/7 traces, the 33 x 33 test and
the ablations -- and writes a machine-readable summary next to the
human-readable printout, the way an artifact evaluation wants it.
"""

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro._compat import renamed_kwargs
from repro.resilience.checkpoint import (
    CheckpointError,
    Checkpointer,
    load_checkpoint,
)
from repro.results import CampaignCell
from repro.experiments.ablations import (
    run_color_ablation,
    run_initial_state_ablation,
)
from repro.experiments.fig2 import topology_table
from repro.experiments.grid33 import PAPER_GRID33, run_grid33
from repro.experiments.table1 import PAPER_TABLE1, run_table1
from repro.experiments.traces import run_fig6, run_fig7


@dataclass
class CampaignSettings:
    """Scale knobs for the full campaign."""

    n_random: int = 1000           # fields per Table 1 suite (paper: 1000)
    grid33_fields: int = 300       # fields for the 33 x 33 test
    ablation_fields: int = 300
    seed: int = 2013
    t_max: int = 1000
    grid33_t_max: int = 2000
    include_grid33: bool = True
    include_ablations: bool = True


@dataclass
class CampaignReport:
    """Everything the campaign measured, JSON-ready via :meth:`to_dict`."""

    settings: CampaignSettings
    topology: list = field(default_factory=list)
    table1: dict = field(default_factory=dict)
    traces: dict = field(default_factory=dict)
    grid33: Optional[dict] = None
    ablations: dict = field(default_factory=dict)
    wall_seconds: float = 0.0

    def to_dict(self) -> Dict:
        return {
            "settings": {
                "n_random": self.settings.n_random,
                "grid33_fields": self.settings.grid33_fields,
                "ablation_fields": self.settings.ablation_fields,
                "seed": self.settings.seed,
                "t_max": self.settings.t_max,
            },
            "topology": self.topology,
            "table1": {
                count: cell.to_json() if isinstance(cell, CampaignCell)
                else cell
                for count, cell in self.table1.items()
            },
            "traces": self.traces,
            "grid33": self.grid33,
            "ablations": self.ablations,
            "wall_seconds": round(self.wall_seconds, 1),
        }

    @property
    def headline_ok(self):
        """The paper's headline holds: T beats S at every density."""
        # rows are CampaignCells; plain dicts (old callers) still work
        return all(
            (row.ratio if isinstance(row, CampaignCell) else row["ratio"])
            < 1.0
            for row in self.table1.values()
        )


@renamed_kwargs(workers="n_workers")
def run_campaign(settings=None, log=print, pool=None,
                 n_workers=None, checkpoint_path=None,
                 resume_from=None) -> CampaignReport:
    """Run the full reproduction; ``log`` receives progress lines.

    With ``n_workers > 1`` (or a persistent ``pool`` from
    :class:`repro.service.WorkerPool`) the campaign's independent
    evaluations -- every Table 1 cell, each grid kind of the 33 x 33
    test, the two traces and the four ablation sweeps -- are sharded
    over worker processes, so the whole reproduction uses all cores end
    to end.  Every job is the unchanged serial code, and results are
    merged in the serial order, so the sharded report is bit-exact vs
    the serial one (wall-clock aside).

    ``checkpoint_path`` snapshots the report atomically after every
    completed stage; ``resume_from`` restarts from such a snapshot,
    skipping completed stages and re-running only the interrupted one.
    Stages are deterministic, so a resumed campaign's report is
    bit-exact versus an uninterrupted run (wall-clock aside).
    """
    from repro.service.pool import owned_pool

    settings = settings or CampaignSettings()
    with owned_pool(pool, n_workers) as pool:
        return _run_campaign(settings, log, pool,
                             checkpoint_path=checkpoint_path,
                             resume_from=resume_from)


def _run_campaign(settings, log, pool, checkpoint_path=None,
                  resume_from=None) -> CampaignReport:
    from repro.service.pool import run_calls

    report = CampaignReport(settings=settings)
    done = set()
    prior_wall = 0.0
    if resume_from is not None:
        state = load_checkpoint(resume_from, kind="campaign")
        if state["settings"] != settings:
            raise CheckpointError(
                "checkpoint settings do not match this campaign: "
                f"{state['settings']} != {settings}"
            )
        report = state["report"]
        done = set(state["done"])
        prior_wall = state["wall_seconds"]
    started = time.perf_counter()
    checkpointer = None
    if checkpoint_path is not None:
        checkpointer = Checkpointer(checkpoint_path, "campaign")

    def complete(stage):
        """Mark a stage finished and snapshot the report so far."""
        done.add(stage)
        if checkpointer is not None:
            checkpointer.final(lambda: {
                "settings": settings,
                "report": report,
                "done": set(done),
                "wall_seconds": (
                    prior_wall + time.perf_counter() - started
                ),
            })

    if "topology" in done:
        log("[1/5] topology: already complete (resumed)")
    else:
        log("[1/5] topology (Eq. 1-3 / Fig. 2)")
        for row in topology_table(exponents=(2, 3, 4, 5)):
            report.topology.append(
                {
                    "n": row["n"],
                    "D_S": row["S"].diameter,
                    "D_T": row["T"].diameter,
                    "mean_S": round(row["S"].mean_distance, 4),
                    "mean_T": round(row["T"].mean_distance, 4),
                    "diameter_ratio": round(row["diameter_ratio"], 4),
                    "formula_consistent": bool(
                        row["S"].formula_consistent
                        and row["T"].formula_consistent
                    ),
                }
            )
        complete("topology")

    if "table1" in done:
        log("[2/5] Table 1 / Fig. 5: already complete (resumed)")
    else:
        log(f"[2/5] Table 1 / Fig. 5 ({settings.n_random} fields per suite)")
        rows = run_table1(
            n_random=settings.n_random, seed=settings.seed,
            t_max=settings.t_max, pool=pool,
        )
        for count, row in rows.items():
            paper = PAPER_TABLE1.get(count, (None, None))
            report.table1[str(count)] = CampaignCell(
                t_time=round(row.t_time, 3),
                s_time=round(row.s_time, 3),
                ratio=round(row.ratio, 4),
                paper_t=paper[0],
                paper_s=paper[1],
                reliable=bool(row.t_reliable and row.s_reliable),
            )
        complete("table1")

    if "traces" in done:
        log("[3/5] Fig. 6 / Fig. 7 traces: already complete (resumed)")
    else:
        log("[3/5] Fig. 6 / Fig. 7 traces")
        fig6, fig7 = run_calls(
            pool, [(run_fig6, (), None), (run_fig7, (), None)]
        )
        report.traces = {
            "fig6_s_t_comm": fig6.t_comm,
            "fig6_paper": 114,
            "fig7_t_t_comm": fig7.t_comm,
            "fig7_paper": 44,
            "t_faster": fig7.t_comm < fig6.t_comm,
        }
        complete("traces")

    if "grid33" in done:
        log("[4/5] 33 x 33 generalisation: already complete (resumed)")
    elif settings.include_grid33:
        log(f"[4/5] 33 x 33 generalisation ({settings.grid33_fields} fields)")
        grid33 = run_grid33(
            n_random=settings.grid33_fields, seed=settings.seed,
            t_max=settings.grid33_t_max, pool=pool,
        )
        report.grid33 = {
            "s_time": round(grid33.mean_time["S"], 2),
            "t_time": round(grid33.mean_time["T"], 2),
            "ratio": round(grid33.ratio, 4),
            "paper_s": PAPER_GRID33["S"],
            "paper_t": PAPER_GRID33["T"],
            "reliable": bool(grid33.reliable["S"] and grid33.reliable["T"]),
        }
        complete("grid33")
    else:
        log("[4/5] 33 x 33 generalisation: skipped")
        complete("grid33")

    if "ablations" in done:
        log("[5/5] ablations: already complete (resumed)")
    elif settings.include_ablations:
        log(f"[5/5] ablations ({settings.ablation_fields} fields)")
        ablation_calls = []
        for kind in ("S", "T"):
            ablation_calls.append((
                run_color_ablation, (kind,),
                {"n_random": settings.ablation_fields,
                 "t_max": settings.t_max * 2},
            ))
            ablation_calls.append((
                run_initial_state_ablation, (kind,),
                {"n_agents": 2, "n_random": settings.ablation_fields,
                 "t_max": settings.t_max * 2},
            ))
        ablation_results = run_calls(pool, ablation_calls)
        for index, kind in enumerate(("S", "T")):
            colors = ablation_results[2 * index]
            states = ablation_results[2 * index + 1]
            report.ablations[kind] = {
                "color_slowdown": round(colors[1].versus_baseline, 3),
                "color_stripped_reliable": bool(colors[1].reliable),
                "uniform_start_reliable": bool(
                    next(
                        row for row in states if row.label.endswith("all_zero")
                    ).reliable
                ),
                "id_mod_2_reliable": bool(
                    next(
                        row for row in states if row.label.endswith("id_mod_2")
                    ).reliable
                ),
            }
        complete("ablations")
    else:
        log("[5/5] ablations: skipped")
        complete("ablations")

    report.wall_seconds = prior_wall + time.perf_counter() - started
    return report


def format_campaign(report) -> str:
    """Human-readable summary of a finished campaign."""
    lines = [
        f"Reproduction campaign finished in {report.wall_seconds:.0f}s",
        f"headline (T faster at every density): "
        f"{'CONFIRMED' if report.headline_ok else 'NOT CONFIRMED'}",
    ]
    for count, cell in sorted(report.table1.items(), key=lambda kv: int(kv[0])):
        paper = (
            f" (paper {cell.paper_t}/{cell.paper_s})"
            if cell.paper_t is not None
            else ""
        )
        lines.append(
            f"  k={count:>3}: T {cell.t_time:.2f}  S {cell.s_time:.2f}  "
            f"ratio {cell.ratio:.3f}{paper}"
        )
    if report.grid33:
        lines.append(
            f"  33x33: T {report.grid33['t_time']}  S {report.grid33['s_time']}  "
            f"ratio {report.grid33['ratio']} (paper 181/229)"
        )
    lines.append(
        f"  traces: S {report.traces['fig6_s_t_comm']} vs paper 114, "
        f"T {report.traces['fig7_t_t_comm']} vs paper 44"
    )
    for kind, ablation in report.ablations.items():
        lines.append(
            f"  {kind}-ablations: colours buy {ablation['color_slowdown']:.2f}x"
            f"{' and reliability' if not ablation['color_stripped_reliable'] else ''}"
            f"; uniform starts reliable: {ablation['uniform_start_reliable']}"
        )
    return "\n".join(lines)
