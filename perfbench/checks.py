"""Correctness checks, run after every timed window.

Each check raises :class:`common.BenchError` on the first mismatch, so a
run whose outputs are wrong fails without printing metrics.  The scalar
reference is :class:`repro.core.simulation.Simulation`, the executable
specification the batch simulator is tested against.
"""

import numpy as np

from common import BenchError

#: Fields re-simulated by the scalar reference per checked evaluation.
SAMPLED_FIELDS = 6


def lane_outcomes(results):
    """``(success, t_comm, informed_agents)`` per lane; the batch's
    ``steps_executed`` is a batch-wide count, so it is not compared."""
    return [(r.success, r.t_comm, r.informed_agents) for r in results]


def sample_fields(suite, rng, count=SAMPLED_FIELDS):
    configs = list(suite)
    picks = rng.choice(len(configs), size=min(count, len(configs)),
                       replace=False)
    return [configs[i] for i in sorted(picks)]


def batch_lanes(grid, fsm, configs, t_max):
    """Per-lane outcomes of the batch simulator on ``configs``."""
    from repro.core.vectorized import BatchSimulator

    batch = BatchSimulator(grid, fsm, configs).run(t_max=t_max)
    return lane_outcomes(batch.to_simulation_results())


def check_against_reference(grid, fsm, configs, t_max, lanes, label):
    """``lanes`` must equal the scalar reference field by field."""
    from repro.core.simulation import Simulation

    for index, (config, lane) in enumerate(zip(configs, lanes)):
        reference = lane_outcomes([Simulation(grid, fsm, config).run(t_max)])
        if [lane] != reference:
            raise BenchError(
                f"{label}: field {index} gave {lane}, scalar reference "
                f"{reference[0]}"
            )


def check_outcome(expected, got, label):
    """Two evaluation results must be identical, float bits included."""
    if expected != got:
        raise BenchError(f"{label}: got {got}, expected {expected}")


def check_evolve(grid, suite, result, t_max, seed):
    """The GA's final best FSM, re-evaluated.

    Its recorded outcome must equal a fresh evaluation over the whole
    suite, and a seeded sample of fields must be bit-exact against the
    scalar reference.
    """
    from repro.evolution.fitness import evaluate_fsm

    best = result.best
    check_outcome(evaluate_fsm(grid, best.fsm, suite, t_max=t_max),
                  best.outcome, "evolve best outcome")
    configs = sample_fields(suite, np.random.default_rng(seed))
    check_against_reference(
        grid, best.fsm, configs, t_max,
        batch_lanes(grid, best.fsm, configs, t_max), "evolve best FSM",
    )


def check_table1(rows, seed, size=16, t_max=1000):
    """Every cell solved everywhere, the packed column at diameter - 1,
    and a seeded sample of each cell's fields bit-exact against the
    scalar reference."""
    from repro import api

    rng = np.random.default_rng(seed)
    packed = max(rows)
    for n_agents, row in sorted(rows.items()):
        if not (row.t_reliable and row.s_reliable):
            raise BenchError(f"table1: k={n_agents} not completely "
                             "successful")
    for kind, time in (("T", rows[packed].t_time),
                       ("S", rows[packed].s_time)):
        want = api.diameter_formula(kind, size.bit_length() - 1) - 1
        if time != want:
            raise BenchError(f"table1: {kind} k={packed} took {time}, "
                             f"expected diameter - 1 = {want}")
    for n_agents in sorted(rows):
        for kind in ("S", "T"):
            grid = api.make_grid(kind, size)
            fsm = api.published_fsm(kind)
            suite = api.paper_suite(grid, n_agents, seed=seed)
            configs = sample_fields(suite, rng, count=2)
            check_against_reference(
                grid, fsm, configs, t_max,
                batch_lanes(grid, fsm, configs, t_max),
                f"table1 {kind} k={n_agents}",
            )


def check_serve(responses, expected, simulated, fresh_answered,
                fresh_sent):
    """Every response equals the in-process evaluation of its genome,
    and the server simulated no genome twice: each answered fresh genome
    once, and nothing beyond the fresh genomes sent."""
    for index, (key, outcome) in enumerate(responses):
        check_outcome(expected[key], outcome, f"serve response {index}")
    if not fresh_answered <= simulated <= fresh_sent:
        raise BenchError(
            f"serve: server simulated {simulated} genomes in the timed "
            f"window; {fresh_answered} fresh genomes were answered and "
            f"{fresh_sent} sent"
        )
