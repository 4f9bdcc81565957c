"""Prior-work claim [8]: does evolving time-shuffled FSM *pairs* help?

The paper's earlier work evolved hybrid time-shuffled behaviours (two
FSMs alternating by step parity) and found them faster than single
machines of the same size.  This experiment re-asks the question inside
the present model (4 states, colours, von-Neumann communication): evolve
single FSMs and shuffled pairs under equal evaluation budgets and
compare the best reliable fitness.

A pair has twice the genome (a caveat the paper's own comparison shares):
what is held equal here is the number of simulated fitness evaluations,
i.e. compute, not genome length.

Both arms score through one plain
:class:`~repro.evolution.fitness.SuiteEvaluator`, and so through the
package's one block loop: an :class:`FSMPair` names its own batch
simulator, a :class:`~repro.extensions.timeshuffle.TimeShuffledBatchSimulator`
over its halves, which the loop picks up from the genome.
"""

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.configs.suite import paper_suite
from repro.core.fsm import FSM
from repro.evolution.fitness import SuiteEvaluator
from repro.evolution.genome import MutationRates, mutate
from repro.evolution.population import Population
from repro.experiments.report import TextTable
from repro.extensions.timeshuffle import TimeShuffledBatchSimulator
from repro.grids import make_grid


class FSMPair:
    """A time-shuffled behaviour: the (even, odd) machine pair."""

    def __init__(self, even, odd, name=None):
        if even.n_states != odd.n_states:
            raise ValueError("pair halves must share the state count")
        self.even = even
        self.odd = odd
        self.name = name

    @property
    def n_states(self):
        return self.even.n_states

    def key(self):
        return (self.even.key(), self.odd.key())

    def copy(self, name=None):
        return FSMPair(self.even.copy(), self.odd.copy(),
                       name=self.name if name is None else name)

    @classmethod
    def random(cls, rng, n_states=4):
        return cls(FSM.random(rng, n_states=n_states),
                   FSM.random(rng, n_states=n_states))

    @staticmethod
    def batch_simulator(grid, pairs, configs, **options):
        """The batch simulator of ``pairs``, one pair shared by every
        lane or one per lane: the time-shuffled simulator over their even
        and odd halves.  ``options`` are the simulator's keywords."""
        if isinstance(pairs, FSMPair):
            even, odd = pairs.even, pairs.odd
        else:
            even = [pair.even for pair in pairs]
            odd = [pair.odd for pair in pairs]
        return TimeShuffledBatchSimulator(grid, even, odd, configs, **options)

    def __repr__(self):
        return f"FSMPair({self.n_states} states)"


def mutate_pair(pair, rng, rates=MutationRates()):
    """The paper's mutation applied to both halves independently."""
    return FSMPair(mutate(pair.even, rng, rates), mutate(pair.odd, rng, rates))


@dataclass(frozen=True)
class ShuffleEvolutionResult:
    """One arm of the single-vs-pair comparison."""

    name: str
    best_fitness: float
    best_reliable: bool
    evaluations: int
    history: List[float]


def run_shuffle_evolution(
    kind="S",
    n_agents=8,
    n_random=40,
    n_generations=20,
    pool_size=20,
    seed=23,
    t_max=200,
) -> Dict[str, ShuffleEvolutionResult]:
    """Evolve single FSMs and shuffled pairs under equal budgets."""
    grid = make_grid(kind, 16)
    suite = paper_suite(grid, n_agents, n_random=n_random, seed=seed)
    results = {}
    arms = {
        "single FSM (paper)": (
            SuiteEvaluator(grid, suite, t_max=t_max),
            lambda generator: FSM.random(generator),
            lambda fsm, generator: mutate(fsm, generator, MutationRates()),
        ),
        "time-shuffled pair [8]": (
            SuiteEvaluator(grid, suite, t_max=t_max),
            lambda generator: FSMPair.random(generator),
            mutate_pair,
        ),
    }
    for name, (evaluator, factory, operator) in arms.items():
        rng = np.random.default_rng(seed)
        population = Population(
            evaluator, rng, size=pool_size,
            fsm_factory=factory, mutation_operator=operator,
        )
        history = [population.best.fitness]
        for _ in range(n_generations):
            population.advance()
            history.append(
                min(history[-1],
                    min(ind.fitness for ind in population.individuals))
            )
        best = min(population.individuals, key=lambda ind: ind.fitness)
        results[name] = ShuffleEvolutionResult(
            name=name,
            best_fitness=best.fitness,
            best_reliable=best.completely_successful,
            evaluations=evaluator.evaluations,
            history=history,
        )
    return results


def format_shuffle_evolution(results) -> str:
    table = TextTable(
        ["behaviour", "best fitness", "reliable", "evaluations"]
    )
    for name, result in results.items():
        table.add_row(
            [
                name,
                f"{result.best_fitness:.1f}",
                "yes" if result.best_reliable else "no",
                result.evaluations,
            ]
        )
    return (
        "Single FSM vs evolved time-shuffled pair (equal budgets)\n"
        f"{table}"
    )
