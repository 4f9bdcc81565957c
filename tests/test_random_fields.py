"""The one-pass suite draw equals numpy's per-field sampler, bit for bit.

``random_fields`` replays ``rng.choice`` / ``rng.integers`` from the raw
stream of ``default_rng([seed, size, k, kind_tag])``.  Every test here
compares it with the field-by-field loop (``_draw_fields`` on a fresh
generator), including the cases where the replay must give way to that
loop: a draw Lemire's rule rejects, a population above ``choice``'s Floyd
limit, and a first field that disagrees with the loop's.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.configs import random_configs
from repro.configs.random_configs import _draw_fields, random_fields
from repro.core.environment import Environment, random_obstacles
from repro.grids import make_grid


def _loop(grid, n_agents, n_fields, seed, environment=None):
    rng = np.random.default_rng(
        [seed, grid.size, n_agents, "ST".index(grid.kind)]
    )
    return _draw_fields(grid, n_agents, n_fields, rng, environment)


def _assert_matches_loop(grid, n_agents, n_fields, seed, environment=None):
    cells, directions, names = random_fields(grid, n_agents, n_fields, seed,
                                             environment)
    loop_cells, loop_directions = _loop(grid, n_agents, n_fields, seed,
                                        environment)
    assert cells.dtype == directions.dtype == np.int64
    np.testing.assert_array_equal(cells, loop_cells)
    np.testing.assert_array_equal(directions, loop_directions)
    assert names == tuple(f"random-{row}" for row in range(n_fields))


def _loop_calls(monkeypatch, grid, n_agents, n_fields, seed):
    """Check :func:`random_fields` against the loop; return the
    ``n_fields`` of each :func:`_sample_loop` call it made."""
    expected = _loop(grid, n_agents, n_fields, seed)
    calls = []
    original = random_configs._sample_loop

    def recording(n_free, n_agents, n_fields, n_directions, rng):
        calls.append(n_fields)
        return original(n_free, n_agents, n_fields, n_directions, rng)

    monkeypatch.setattr(random_configs, "_sample_loop", recording)
    cells, directions, _ = random_fields(grid, n_agents, n_fields, seed)
    monkeypatch.setattr(random_configs, "_sample_loop", original)
    np.testing.assert_array_equal(cells, expected[0])
    np.testing.assert_array_equal(directions, expected[1])
    return calls


def _environment(grid, name):
    if name == "cyclic":
        return Environment.cyclic(grid)
    if name == "obstacles":
        return Environment(grid, obstacles=random_obstacles(
            grid, min(4, grid.n_cells - 1), np.random.default_rng(grid.size)
        ))
    return None


@pytest.mark.parametrize("environment", [None, "cyclic", "obstacles"])
@pytest.mark.parametrize("size", [2, 3, 5, 8, 16, 33])
@pytest.mark.parametrize("kind", ["S", "T"])
def test_matches_the_loop(kind, size, environment):
    grid = make_grid(kind, size)
    environment = _environment(grid, environment)
    n_free = grid.n_cells - (len(environment.obstacles) if environment
                             else 0)
    for n_agents in {1, 2, 3, n_free // 2, n_free - 1, n_free}:
        if not 1 <= n_agents <= n_free:
            continue
        for seed in (0, 1, 2013):
            _assert_matches_loop(grid, n_agents, 23, seed, environment)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from("ST"), size=st.integers(2, 33),
       n_fields=st.integers(0, 40), seed=st.integers(0, 2**32 - 1),
       n_obstacles=st.integers(0, 3), data=st.data())
def test_sweep_matches_the_loop(kind, size, n_fields, seed, n_obstacles,
                                data):
    grid = make_grid(kind, size)
    n_obstacles = min(n_obstacles, grid.n_cells - 1)
    environment = Environment(grid, obstacles=random_obstacles(
        grid, n_obstacles, np.random.default_rng(seed)
    )) if n_obstacles else None
    n_agents = data.draw(st.integers(1, grid.n_cells - n_obstacles),
                         label="n_agents")
    _assert_matches_loop(grid, n_agents, n_fields, seed, environment)


def test_multi_block_suites_match_the_loop():
    # T33 at k = 1089 is a few fields a block, and k = 600 runs Floyd's
    # membership step over blocks; the odd field count leaves a half word
    grid = make_grid("T", 33)
    for n_agents in (600, 1089):
        ranges = random_configs._draw_ranges(grid.n_cells, n_agents, 6)
        assert random_configs._BLOCK_DRAWS // ranges.size < 301
        _assert_matches_loop(grid, n_agents, 301, 5)


@pytest.mark.parametrize("kind", ["S", "T"])
@pytest.mark.parametrize("n_agents", [2, 4, 8, 16, 32, 256])
def test_paper_cells_take_the_one_pass_draw(kind, n_agents, monkeypatch):
    # the fallback is exact too, so only the calls show the replay ran:
    # one loop field, the first-field check
    assert _loop_calls(monkeypatch, make_grid(kind, 16), n_agents, 1000,
                       2013) == [1]


def test_forced_rejection_falls_back_to_the_loop(monkeypatch):
    monkeypatch.setattr(random_configs, "_rejected", lambda *_: True)
    assert _loop_calls(monkeypatch, make_grid("T", 16), 8, 50, 2013) == [50]


def test_rejection_in_a_later_block_restarts_from_a_fresh_generator(
        monkeypatch):
    verdicts = iter([False, True])
    monkeypatch.setattr(random_configs, "_rejected",
                        lambda *_: next(verdicts, False))
    grid = make_grid("S", 16)
    ranges = random_configs._draw_ranges(grid.n_cells, 256, 4)
    assert random_configs._BLOCK_DRAWS // ranges.size < 400
    assert _loop_calls(monkeypatch, grid, 256, 400, 2013) == [400]


def test_a_real_rejection_falls_back_to_the_loop(monkeypatch):
    # seed 0 draws one value in Lemire's rejection zone on S100, k = 5000
    verdicts = []
    original = random_configs._rejected

    def recording(products, ranges):
        verdicts.append(original(products, ranges))
        return verdicts[-1]

    monkeypatch.setattr(random_configs, "_rejected", recording)
    assert _loop_calls(monkeypatch, make_grid("S", 100), 5000, 20, 0) == [20]
    assert verdicts[-1] is True


def test_populations_above_floyds_limit_take_the_loop(monkeypatch):
    grid = make_grid("S", 101)
    assert grid.n_cells > random_configs._FLOYD_POPULATION
    # k > n // 50 is choice's tail shuffle; k = 3 is still Floyd
    for n_agents in (3, 300):
        assert _loop_calls(monkeypatch, grid, n_agents, 4, 11) == [4]


def test_a_first_field_unlike_the_loops_falls_back(monkeypatch):
    original = random_configs._draw_block

    def drifted(bit_generator, ranges, n_free, chosen, directions):
        drawn = original(bit_generator, ranges, n_free, chosen, directions)
        directions[0, 0] = (directions[0, 0] + 1) % 6
        return drawn

    monkeypatch.setattr(random_configs, "_draw_block", drifted)
    assert _loop_calls(monkeypatch, make_grid("T", 16), 8, 30, 2013) == [
        1, 30]
