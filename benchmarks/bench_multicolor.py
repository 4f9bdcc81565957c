"""Bench the "more colors" further-work experiment.

Runs the paper's GA with 2-, 3- and 4-colour genomes under equal budgets
and prints the comparison table.  Also times the multicolour batch
simulator kernel against the standard 2-colour one -- the generalized
input packing costs nothing measurable.
"""

from conftest import run_once

from repro.experiments.multicolor_exp import (
    format_multicolor,
    run_multicolor_comparison,
)


def test_color_alphabet_comparison(benchmark):
    results = run_once(
        benchmark, run_multicolor_comparison,
        color_counts=(2, 3, 4), n_random=30, n_generations=10,
    )
    print()
    print(format_multicolor(results))
    # every arm's pool improves under selection
    for result in results.values():
        assert result.history[-1] <= result.history[0]
    # the 2-colour table is the paper's 32 entries
    assert results[2].table_size == 32
    assert results[4].table_size == 128


def test_multicolor_batch_kernel(benchmark):
    import numpy as np

    from repro.configs.suite import paper_suite
    from repro.core.vectorized import BatchSimulator
    from repro.extensions.multicolor import MulticolorFSM
    from repro.grids import make_grid

    grid = make_grid("T", 16)
    suite = paper_suite(grid, 8, n_random=97)
    fsm = MulticolorFSM.random(np.random.default_rng(1), n_colors=4)
    simulator = BatchSimulator(grid, fsm, suite)
    benchmark(simulator.step)
