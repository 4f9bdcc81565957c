"""Edge cases and small behaviours not covered elsewhere."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.configs.types import InitialConfiguration
from repro.core.environment import Environment
from repro.core.published import PAPER_S_AGENT, PAPER_T_AGENT
from repro.core.render import render_agents
from repro.core.simulation import Simulation
from repro.core.trace import capture
from repro.experiments.campaign import CampaignReport, CampaignSettings
from repro.grids import SquareGrid, TriangulateGrid, make_grid
from repro.results import Table1Cell


class TestPublishedTableText:
    def test_fig3_digit_groups_appear_verbatim(self):
        text = PAPER_S_AGENT.format_table()
        for digits in ("2311", "0332", "1302", "0021", "1220", "2320",
                       "2230", "3102"):
            assert digits in text  # the eight nextstate columns of Fig. 3

    def test_fig4_digit_groups_appear_verbatim(self):
        text = PAPER_T_AGENT.format_table()
        for digits in ("1212", "1030", "2103", "1213", "1202", "0130"):
            assert digits in text


class TestEnvironmentProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["S", "T"]),
        x=st.integers(0, 7), y=st.integers(0, 7),
    )
    def test_bordered_neighbors_subset_of_cyclic(self, kind, x, y):
        grid = make_grid(kind, 8)
        cyclic = set(Environment.cyclic(grid).neighbor_cells(x, y))
        bordered = set(Environment(grid, bordered=True).neighbor_cells(x, y))
        assert bordered <= cyclic

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["S", "T"]),
        x=st.integers(1, 6), y=st.integers(1, 6),
    )
    def test_interior_cells_are_border_insensitive(self, kind, x, y):
        grid = make_grid(kind, 8)
        cyclic = set(Environment.cyclic(grid).neighbor_cells(x, y))
        bordered = set(Environment(grid, bordered=True).neighbor_cells(x, y))
        assert bordered == cyclic

    def test_corner_loses_the_most_links(self):
        grid = TriangulateGrid(8)
        bordered = Environment(grid, bordered=True)
        corner_degree = len(bordered.neighbor_cells(0, 0))
        interior_degree = len(bordered.neighbor_cells(4, 4))
        assert corner_degree < interior_degree == 6


class TestRenderEdgeCases:
    def test_many_agents_use_letter_glyphs(self):
        grid = SquareGrid(8)
        positions = tuple(grid.unflat(i) for i in range(12))
        config = InitialConfiguration(positions, (0,) * 12)
        from repro.core.fsm import FSM

        waiter = FSM(next_state=[0] * 8, set_color=[0] * 8,
                     move=[0] * 8, turn=[0] * 8)
        snapshot = capture(Simulation(grid, waiter, config))
        panel = render_agents(grid, snapshot)
        assert ">a" in panel  # agent 10 renders as 'a'
        assert ">b" in panel  # agent 11 renders as 'b'


class TestTable1Row:
    def test_paper_ratio_none_without_reference(self):
        row = Table1Cell(
            n_agents=64, t_time=20.0, s_time=30.0,
            t_reliable=True, s_reliable=True, paper_t=None, paper_s=None,
        )
        assert row.paper_ratio is None
        assert row.ratio == pytest.approx(2 / 3)


class TestCampaignReport:
    def test_headline_fails_when_s_wins_somewhere(self):
        report = CampaignReport(settings=CampaignSettings())
        report.table1 = {
            "2": {"ratio": 0.7},
            "4": {"ratio": 1.1},  # S faster: headline broken
        }
        assert not report.headline_ok

    def test_headline_holds_when_t_wins_everywhere(self):
        report = CampaignReport(settings=CampaignSettings())
        report.table1 = {"2": {"ratio": 0.7}, "4": {"ratio": 0.65}}
        assert report.headline_ok


class TestWrappedPlacementEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        shift_x=st.integers(0, 15), shift_y=st.integers(0, 15),
        seed=st.integers(0, 1000),
    )
    def test_torus_translation_invariance(self, shift_x, shift_y, seed):
        # translating the whole initial configuration must translate the
        # whole run: t_comm is invariant (a fundamental symmetry of the
        # cyclic environment the paper relies on)
        from repro.configs.random_configs import random_configuration
        from repro.core.published import published_fsm

        grid = make_grid("T", 16)
        config = random_configuration(grid, 5, np.random.default_rng(seed))
        shifted = InitialConfiguration(
            positions=tuple(
                grid.wrap(x + shift_x, y + shift_y) for x, y in config.positions
            ),
            directions=config.directions,
        )
        fsm = published_fsm("T")
        original = Simulation(grid, fsm, config).run(t_max=400)
        translated = Simulation(grid, fsm, shifted).run(t_max=400)
        assert translated.success == original.success
        if original.success:
            assert translated.t_comm == original.t_comm
