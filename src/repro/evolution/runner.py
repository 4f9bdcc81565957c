"""Orchestration of evolution runs (paper Sect. 4, last paragraphs).

The paper's protocol: four independent optimization runs (field size
16 x 16, ``k = 8`` agents, 1003 fields); from each run the top three
completely successful FSMs are taken (twelve candidates altogether),
screened for reliability across all agent counts, and the best FSM is
selected.  :func:`evolve` is one run; :func:`multi_run` is the whole
protocol minus the cross-density screening, which lives in
:mod:`repro.evolution.selection`.
"""

import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.resilience.checkpoint import (
    CheckpointError,
    Checkpointer,
    load_checkpoint,
)
from repro.evolution.fitness import (
    SuiteEvaluator,
    count_batches,
    kernel_wrapped,
)
from repro.evolution.genome import MutationRates
from repro.evolution.population import (
    PAPER_EXCHANGE_WIDTH,
    PAPER_POOL_SIZE,
    Population,
)


@dataclass(frozen=True)
class EvolutionSettings:
    """Hyper-parameters of one run; defaults are the paper's."""

    n_generations: int = 100
    pool_size: int = PAPER_POOL_SIZE
    exchange_width: int = PAPER_EXCHANGE_WIDTH
    rates: MutationRates = field(default_factory=MutationRates)
    n_states: int = 4
    t_max: int = 200
    seed: int = 0

    def validate(self):
        if self.n_generations < 1:
            raise ValueError("need at least one generation")
        if self.t_max < 1:
            raise ValueError("t_max must be positive")
        self.rates.validate()
        return self


@dataclass(frozen=True)
class GenerationRecord:
    """Progress of the pool after one generation."""

    generation: int
    best_fitness: float
    mean_fitness: float
    n_successful: int
    best_is_successful: bool


@dataclass
class EvolutionResult:
    """Everything a finished run produced."""

    settings: EvolutionSettings
    history: List[GenerationRecord]
    population: Population
    wall_seconds: float

    @property
    def best(self):
        return self.population.best

    def top_successful(self, count=3):
        """The run's ``count`` best completely successful individuals.

        This is what the paper extracts from each run (top 3) before the
        cross-density screening.
        """
        successful = sorted(
            self.population.successful_individuals(),
            key=lambda individual: individual.fitness,
        )
        return successful[:count]

    def first_success_generation(self) -> Optional[int]:
        """First generation whose best individual solved every field."""
        for record in self.history:
            if record.best_is_successful:
                return record.generation
        return None


def _record(population):
    individuals = population.individuals
    fitnesses = [individual.fitness for individual in individuals]
    best = min(individuals, key=lambda individual: individual.fitness)
    return GenerationRecord(
        generation=population.generation,
        best_fitness=best.fitness,
        mean_fitness=sum(fitnesses) / len(fitnesses),
        n_successful=len(population.successful_individuals()),
        best_is_successful=best.completely_successful,
    )


def evolve(grid, suite, settings=EvolutionSettings(), progress=None,
           seed_fsms=(), lane_block="auto", n_workers=None,
           pool=None, cache=None, checkpoint_path=None, checkpoint_every=1,
           resume_from=None, backend=None):
    """One optimization run over ``suite`` on ``grid``.

    ``progress``, if given, is called with each :class:`GenerationRecord`
    as it is produced (generation 0 is the evaluated random pool).
    ``lane_block`` / ``n_workers`` / ``pool`` / ``cache`` / ``backend``
    are forwarded to the run's :class:`SuiteEvaluator`; they re-layout
    the evaluation work (and let runs share simulations) without
    changing any result -- step backends are bit-exact, so an evolution
    run on ``backend="numba"`` reproduces the numpy run exactly.

    Each generation's fresh FSMs are sharded over ``pool``, or over
    ``n_workers`` processes (by default
    :func:`repro.service.pool.available_cores`) of a pool the run owns:
    forked at the first sharded generation, joined before the call
    returns or raises.  ``n_workers=1`` forks nothing.  A call gets at
    most as many shards as the serial loop runs batches
    (:func:`repro.evolution.fitness.count_batches`), and the owned pool
    no more workers than generation 0's batches: the paper's 10
    offspring over 1003 fields are 3 batches, a 53-field suite's are 1
    and stay inline.  The default is serial while a simulator or step
    method is wrapped in this process
    (:func:`repro.evolution.fitness.kernel_wrapped`), so a tracer sees
    every kernel call.  Every setting evolves the same trajectory, and
    the returned evaluator is detached from the pool (``pool=None``,
    ``n_workers=1``).

    ``checkpoint_path`` snapshots the run atomically every
    ``checkpoint_every`` generations (and once more on completion);
    ``resume_from`` picks a run back up from such a snapshot.  The
    snapshot carries the population (with its RNG state and evaluation
    memo) and the history so far, so a resumed run is **bit-exact**
    versus the run that was never interrupted -- the ``--resume``
    contract, asserted by ``tests/test_checkpoint.py``.  The snapshot's
    settings must equal ``settings``; layout knobs (``lane_block``,
    ``n_workers``, ``pool``) are rethreaded from the arguments since
    executors never survive pickling.
    """
    from repro.service.pool import available_cores, owned_pool

    settings.validate()
    checkpointer = None
    if checkpoint_path is not None:
        checkpointer = Checkpointer(
            checkpoint_path, "evolve", every=checkpoint_every
        )
    prior_wall = 0.0
    if resume_from is not None:
        state = load_checkpoint(resume_from, kind="evolve")
        if state["settings"] != settings:
            raise CheckpointError(
                "checkpoint settings do not match this run: "
                f"{state['settings']} != {settings}"
            )
        suite = state["population"].evaluator.suite
    if pool is not None:
        if n_workers is None:
            n_workers = pool.n_workers
    else:
        if n_workers is None:
            n_workers = 1 if kernel_wrapped(backend) else available_cores()
        # generation 0 (the whole pool) is the largest call to shard
        n_workers = min(n_workers, max(1, count_batches(
            settings.pool_size, suite, lane_block)))
    with owned_pool(pool, n_workers) as run_pool:
        if resume_from is not None:
            population = state["population"]
            history = list(state["history"])
            prior_wall = state["wall_seconds"]
            evaluator = population.evaluator
            evaluator.lane_block = lane_block
            evaluator.n_workers = n_workers
            evaluator.pool = run_pool
            evaluator.backend = backend
            if cache is not None:
                evaluator.cache = cache
            started = time.perf_counter()
        else:
            rng = np.random.default_rng(settings.seed)
            evaluator = SuiteEvaluator(
                grid, suite, t_max=settings.t_max, lane_block=lane_block,
                n_workers=n_workers, pool=run_pool, cache=cache,
                backend=backend,
            )
            population = Population(
                evaluator,
                rng,
                size=settings.pool_size,
                exchange_width=settings.exchange_width,
                rates=settings.rates,
                n_states=settings.n_states,
                seed_fsms=seed_fsms,
            )
            started = time.perf_counter()
            history = [_record(population)]
            if progress is not None:
                progress(history[0])

        def snapshot_state():
            return {
                "settings": settings,
                "population": population,
                "history": list(history),
                "wall_seconds": prior_wall + time.perf_counter() - started,
            }

        for _ in range(settings.n_generations - population.generation):
            population.advance()
            record = _record(population)
            history.append(record)
            if progress is not None:
                progress(record)
            if checkpointer is not None:
                checkpointer.maybe(population.generation, snapshot_state)
    evaluator.pool, evaluator.n_workers = None, 1
    result = EvolutionResult(
        settings=settings,
        history=history,
        population=population,
        wall_seconds=prior_wall + time.perf_counter() - started,
    )
    if checkpointer is not None:
        checkpointer.final(snapshot_state)
    return result


def _run_job(payload):
    """Worker entry point: one complete serial ``evolve`` run (a pool
    worker forks no workers of its own)."""
    grid, suite, run_settings, lane_block = payload
    return evolve(grid, suite, run_settings, lane_block=lane_block,
                  n_workers=1)


def multi_run(
    grid,
    suite,
    n_runs=4,
    settings=EvolutionSettings(),
    top_per_run=3,
    progress=None,
    lane_block="auto",
    n_workers=None,
    pool=None,
) -> Tuple[List["EvolutionResult"], List]:
    """The paper's multi-run protocol: independent runs, top-3 extraction.

    Runs ``n_runs`` optimizations with distinct seeds and collects up to
    ``top_per_run`` completely successful individuals from each --
    the paper's pool of twelve candidates.  Returns
    ``(results, candidates)``.

    The runs are independent, so with ``n_workers > 1`` (or a persistent
    ``pool`` from :class:`repro.service.WorkerPool`) whole runs are
    dispatched to worker processes and the protocol uses all cores end
    to end.  Each worker executes the unchanged serial ``evolve``, and
    results come back in run order, so the sharded protocol is bit-exact
    versus the serial loop.  ``progress`` is only forwarded on the
    serial path (worker processes cannot call back into the parent),
    where each run shards its generations as :func:`evolve` does:
    over ``pool``, or over ``n_workers`` (by default the available
    cores) of its own.
    """
    per_run_settings = [
        replace(settings, seed=settings.seed + run_index)
        for run_index in range(n_runs)
    ]
    from repro.service.pool import owned_pool

    with owned_pool(pool, n_workers) as pool:
        if pool is not None and not pool.inline and n_runs > 1:
            payloads = [
                (grid, suite, run_settings, lane_block)
                for run_settings in per_run_settings
            ]
            results = pool.map_ordered(_run_job, payloads)
        else:
            results = [
                evolve(grid, suite, run_settings, progress=progress,
                       lane_block=lane_block, n_workers=n_workers, pool=pool)
                for run_settings in per_run_settings
            ]
    candidates = []
    for run_index, result in enumerate(results):
        for individual in result.top_successful(top_per_run):
            candidate = individual.fsm.copy(
                name=f"{grid.kind}-run{run_index}-f{individual.fitness:.1f}"
            )
            candidates.append(candidate)
    return results, candidates
