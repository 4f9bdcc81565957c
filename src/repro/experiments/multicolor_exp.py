"""Further-work experiment: does a richer colour alphabet help?

The paper's conclusion proposes studying agents "using more states, more
colors, obstacles, or borders".  This experiment runs the paper's exact
genetic procedure with 2-, 3- and 4-colour genomes under equal budgets
and compares the best fitness reached.  The trade-off it quantifies: a
bigger pheromone alphabet is more expressive, but the table (and the
search space, Sect. 4's ``K = (|s||y|) ** (|s||x|)``) grows with
``n_colors**2``, so equal-budget evolution digs a shallower hole.

Every arm scores its pool through a plain
:class:`~repro.evolution.fitness.SuiteEvaluator` over one shared
:class:`~repro.configs.ConfigSuite`: the batch simulator reads each
genome's colour alphabet, so the package's one block loop serves
multicolour genomes as it serves the paper's.
"""

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.configs.suite import paper_suite
from repro.evolution.fitness import SuiteEvaluator
from repro.evolution.population import Population
from repro.experiments.report import TextTable
from repro.extensions.multicolor import MulticolorFSM, mutate_multicolor
from repro.grids import make_grid


@dataclass(frozen=True)
class MulticolorResult:
    """One colour-alphabet arm of the comparison."""

    n_colors: int
    table_size: int
    best_fitness: float
    best_reliable: bool
    history: List[float]


def run_multicolor_comparison(
    kind="T",
    color_counts=(2, 3, 4),
    n_agents=8,
    n_random=40,
    n_generations=15,
    pool_size=20,
    seed=9,
    t_max=200,
) -> Dict[int, MulticolorResult]:
    """Equal-budget evolution per colour alphabet."""
    grid = make_grid(kind, 16)
    suite = paper_suite(grid, n_agents, n_random=n_random, seed=seed)
    results = {}
    for n_colors in color_counts:
        evaluator = SuiteEvaluator(grid, suite, t_max=t_max)
        rng = np.random.default_rng([seed, n_colors])
        population = Population(
            evaluator,
            rng,
            size=pool_size,
            fsm_factory=lambda generator, nc=n_colors: MulticolorFSM.random(
                generator, n_states=4, n_colors=nc
            ),
            mutation_operator=lambda fsm, generator: mutate_multicolor(
                fsm, generator
            ),
        )
        history = [population.best.fitness]
        for _ in range(n_generations):
            population.advance()
            history.append(population.best.fitness)
        best = population.best
        results[n_colors] = MulticolorResult(
            n_colors=n_colors,
            table_size=best.fsm.table_size,
            best_fitness=best.fitness,
            best_reliable=best.completely_successful,
            history=history,
        )
    return results


def format_multicolor(results) -> str:
    table = TextTable(
        ["colours", "table entries", "best fitness", "reliable", "gen-0 best"]
    )
    for n_colors in sorted(results):
        result = results[n_colors]
        table.add_row(
            [
                n_colors,
                result.table_size,
                f"{result.best_fitness:.1f}",
                "yes" if result.best_reliable else "no",
                f"{result.history[0]:.1f}",
            ]
        )
    return (
        "Further work: colour-alphabet comparison (equal GA budgets)\n"
        f"{table}"
    )
