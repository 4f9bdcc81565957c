"""Environment-variant experiments and the full campaign."""

import pytest

from repro.experiments.campaign import (
    CampaignSettings,
    format_campaign,
    run_campaign,
)
from repro.experiments.environments import (
    format_environment_rows,
    run_border_evolution_comparison,
    run_environment_comparison,
)


class TestEnvironmentComparison:
    def test_all_variants_reported(self):
        rows = run_environment_comparison("S", n_random=25, t_max=2000)
        assert len(rows) == 4
        assert any("cyclic" in label for label in rows)
        assert any("bordered" in label for label in rows)
        assert any("obstacles" in label for label in rows)
        assert any("carpet" in label for label in rows)

    def test_cyclic_variant_stays_reliable(self):
        rows = run_environment_comparison("T", n_random=25, t_max=2000)
        cyclic = next(row for label, row in rows.items() if "cyclic" in label)
        assert cyclic.reliable

    def test_all_variants_mostly_solved(self):
        rows = run_environment_comparison("S", n_random=25, t_max=3000)
        for label, row in rows.items():
            assert row.success_rate > 0.9, label

    def test_format(self):
        rows = run_environment_comparison("S", n_random=10, t_max=1500)
        text = format_environment_rows("demo", rows)
        assert text.startswith("demo")
        assert "bordered" in text


class TestBorderEvolution:
    def test_both_environments_improve(self):
        results = run_border_evolution_comparison(
            n_generations=5, n_random=15, t_max=150
        )
        for label in ("cyclic", "bordered"):
            history = results[label]["history"]
            assert history[-1] <= history[0]
            assert len(history) == 6


class TestCampaign:
    @pytest.fixture(scope="class")
    def small_report(self):
        settings = CampaignSettings(
            n_random=20,
            grid33_fields=5,
            ablation_fields=25,
            t_max=1000,
        )
        return run_campaign(settings, log=lambda line: None)

    def test_headline_confirmed(self, small_report):
        assert small_report.headline_ok

    def test_table1_covers_paper_densities(self, small_report):
        assert set(small_report.table1) == {"2", "4", "8", "16", "32", "256"}

    def test_packed_cells_are_exact(self, small_report):
        assert small_report.table1["256"].t_time == 9.0
        assert small_report.table1["256"].s_time == 15.0

    def test_topology_formula_consistency(self, small_report):
        assert all(row["formula_consistent"] for row in small_report.topology)

    def test_traces_reproduce_ordering(self, small_report):
        assert small_report.traces["t_faster"]

    def test_to_dict_is_json_ready(self, small_report, tmp_path):
        from repro.io import load_results, save_results

        target = tmp_path / "campaign.json"
        save_results(small_report.to_dict(), target)
        loaded = load_results(target)
        assert loaded["table1"]["16"]["ratio"] < 1.0

    def test_format_mentions_headline(self, small_report):
        text = format_campaign(small_report)
        assert "CONFIRMED" in text
        assert "33x33" in text

    def test_skipping_parts(self):
        settings = CampaignSettings(
            n_random=5, include_grid33=False, include_ablations=False
        )
        report = run_campaign(settings, log=lambda line: None)
        assert report.grid33 is None
        assert report.ablations == {}


class TestCliIntegration:
    def test_environments_command(self, capsys):
        from repro.cli import main

        assert main(
            ["environments", "--grid", "S", "--fields", "10", "--t-max", "1500"]
        ) == 0
        out = capsys.readouterr().out
        assert "bordered" in out

    def test_reproduce_all_small(self, capsys, tmp_path):
        from repro.cli import main

        out_file = tmp_path / "results.json"
        code = main(
            [
                "reproduce-all", "--fields", "10", "--skip-grid33",
                "--ablation-fields", "20", "--out", str(out_file),
            ]
        )
        assert code == 0
        assert out_file.exists()
        assert "CONFIRMED" in capsys.readouterr().out
