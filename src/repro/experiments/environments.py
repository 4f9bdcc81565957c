"""Environment-variant experiments: borders, obstacles, colour carpets.

The paper chose the cyclic (borderless) environment *because it is the
harder case* (Sect. 3) -- its prior work found bordered environments
easier/faster.  These experiments quantify the variants with this
reproduction's agents:

* the published (cyclic-evolved) agents dropped into bordered and
  obstacle worlds;
* agents *evolved for* each environment, for the apples-to-apples
  version of the prior-work claim (slower: runs a GA per environment).

Both go through the package's one evaluation loop with the world passed
as ``environment=``: the published agents through
:func:`~repro.evolution.fitness.evaluate_fsm`, each GA through a plain
:class:`~repro.evolution.fitness.SuiteEvaluator`, whose cache keys tell
the worlds apart.
"""

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.configs.random_configs import random_configurations
from repro.configs.special import special_configurations
from repro.core.environment import Environment, random_color_carpet, random_obstacles
from repro.core.published import published_fsm
from repro.evolution.fitness import SuiteEvaluator, evaluate_fsm
from repro.experiments.report import TextTable
from repro.grids import make_grid


@dataclass(frozen=True)
class EnvironmentRow:
    """One environment variant's outcome."""

    label: str
    mean_time: float
    success_rate: float
    reliable: bool


def _evaluate(grid, fsm, environment, n_agents, n_random, seed, t_max):
    configs = random_configurations(
        grid, n_agents, n_random, seed, environment=environment
    )
    configs.extend(
        config
        for config in special_configurations(grid, n_agents)
        # manual cases only apply where no obstacle occupies their cells
        if not set(config.positions) & environment.obstacles
    )
    outcome = evaluate_fsm(grid, fsm, configs, t_max, environment=environment)
    return EnvironmentRow(
        label="",
        mean_time=outcome.mean_time,
        success_rate=outcome.n_successful_fields / outcome.n_fields,
        reliable=outcome.n_successful_fields == outcome.n_fields,
    )


def _labelled(row, label):
    return EnvironmentRow(
        label=label,
        mean_time=row.mean_time,
        success_rate=row.success_rate,
        reliable=row.reliable,
    )


def run_environment_comparison(
    kind, n_agents=16, n_random=200, seed=21, t_max=2000, n_obstacles=16
) -> Dict[str, EnvironmentRow]:
    """The published agent across four worlds: cyclic, bordered, obstacles, carpet."""
    grid = make_grid(kind, 16)
    fsm = published_fsm(kind)
    rng = np.random.default_rng(seed)
    environments = {
        "cyclic (paper)": Environment.cyclic(grid),
        "bordered": Environment(grid, bordered=True),
        f"{n_obstacles} obstacles": Environment(
            grid, obstacles=random_obstacles(grid, n_obstacles, rng)
        ),
        "random colour carpet": Environment(
            grid, initial_colors=random_color_carpet(grid, rng)
        ),
    }
    rows = {}
    for label, environment in environments.items():
        row = _evaluate(grid, fsm, environment, n_agents, n_random, seed, t_max)
        rows[label] = _labelled(row, f"{kind}: {label}")
    return rows


def run_border_evolution_comparison(
    kind="S", n_agents=8, n_random=40, n_generations=15, seed=5, t_max=200
):
    """Prior-work claim, apples to apples: evolve per environment.

    Runs the same small GA once against the cyclic world and once against
    the bordered world and reports the best completely-successful fitness
    of each.  Prior work found the bordered task easier; with equal GA
    budgets the bordered run should reach an equal or better (lower)
    fitness.
    """
    from repro.evolution.population import Population

    results = {}
    for label, bordered in (("cyclic", False), ("bordered", True)):
        grid = make_grid(kind, 16)
        environment = Environment(grid, bordered=bordered)
        configs = random_configurations(
            grid, n_agents, n_random, seed, environment=environment
        )
        configs.extend(special_configurations(grid, n_agents))
        rng = np.random.default_rng(seed)
        population = Population(
            SuiteEvaluator(grid, configs, t_max=t_max,
                           environment=environment),
            rng,
            size=20,
        )
        best_history = [population.best.fitness]
        for _ in range(n_generations):
            population.advance()
            best_history.append(population.best.fitness)
        results[label] = {
            "best_fitness": population.best.fitness,
            "reliable": population.best.completely_successful,
            "history": best_history,
        }
    return results


def format_environment_rows(title, rows):
    table = TextTable(["environment", "mean t_comm", "success", "reliable"])
    for label, row in rows.items():
        mean = f"{row.mean_time:.2f}" if row.mean_time != float("inf") else "inf"
        table.add_row(
            [label, mean, f"{100 * row.success_rate:.1f}%",
             "yes" if row.reliable else "no"]
        )
    return f"{title}\n{table}"
