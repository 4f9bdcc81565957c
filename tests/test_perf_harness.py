"""Perf counters, benchmark harness, and the ``bench`` CLI subcommand."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.configs.random_configs import random_configuration
from repro.core.published import published_fsm
from repro.core.vectorized import BatchSimulator
from repro.grids import SquareGrid
from repro.perf import StepCounters
from repro.perf.harness import (
    BenchScenario,
    PINNED_STEP_SCENARIOS,
    append_bench_record,
    hardware_fingerprint,
    measure_service,
    measure_steps,
    service_request_stream,
)
from repro.perf.reference import LegacyBatchSimulator
from repro.perf.regression import (
    DEFAULT_THRESHOLD,
    check_regression,
    find_baseline_run,
    format_check,
    hardware_comparable,
)

TINY = BenchScenario(
    name="tiny_S", kind="S", size=6, n_agents=3, n_fields=4, seed=5, t_max=40
)


class TestCounters:
    def test_counters_accumulate(self):
        grid = SquareGrid(8)
        fsm = published_fsm("S")
        configs = [
            random_configuration(grid, 4, np.random.default_rng(seed))
            for seed in range(6)
        ]
        simulator = BatchSimulator(grid, fsm, configs)
        assert isinstance(simulator.counters, StepCounters)
        assert simulator.counters.steps == 0
        result = simulator.run(t_max=150)
        counters = simulator.counters
        assert counters.steps == result.steps_executed
        assert 0 < counters.lane_steps <= len(configs) * counters.steps
        assert counters.exchanges >= counters.steps
        assert counters.retired_lanes == int(result.success.sum())
        as_dict = counters.as_dict()
        assert as_dict["steps"] == counters.steps
        assert set(as_dict) == {
            "steps", "lane_steps", "exchanges", "exchange_early_outs",
            "compactions", "retired_lanes", "cycled_lanes", "dense_exchanges",
            "contested_steps",
        }


class TestMeasureSteps:
    def test_record_shape(self):
        record = measure_steps(TINY, repeats=1)
        assert record["kind"] == "S"
        assert record["n_lanes"] == len(TINY.build()[2])
        assert record["steps"] > 0
        assert record["wall_seconds"] > 0
        assert record["steps_per_sec"] > 0
        assert record["lane_steps_per_sec"] >= record["steps_per_sec"]
        assert "counters" in record

    def test_legacy_simulator_measurable(self):
        record = measure_steps(
            TINY, simulator_cls=LegacyBatchSimulator, repeats=1
        )
        assert record["steps_per_sec"] > 0
        # the frozen baseline has no counters attribute
        assert "counters" not in record

    def test_pinned_scenarios_match_paper_workload(self):
        for scenario in PINNED_STEP_SCENARIOS:
            assert scenario.size == 16
            assert scenario.n_agents == 8
            assert scenario.n_fields == 1000
        assert {s.kind for s in PINNED_STEP_SCENARIOS} == {"S", "T"}


class TestBenchLog:
    def test_append_creates_then_extends(self, tmp_path):
        path = tmp_path / "BENCH_core.json"
        append_bench_record({"timestamp": "t0", "quick": True}, path)
        append_bench_record({"timestamp": "t1", "quick": True}, path)
        log = json.loads(path.read_text())
        assert log["schema_version"] == 1
        assert log["benchmark"] == "repro-core"
        assert [run["timestamp"] for run in log["runs"]] == ["t0", "t1"]

    def test_corrupt_log_is_replaced(self, tmp_path):
        path = tmp_path / "BENCH_core.json"
        path.write_text("not json {")
        append_bench_record({"timestamp": "t0"}, path)
        log = json.loads(path.read_text())
        assert log["runs"][0]["timestamp"] == "t0"


class TestServiceBench:
    def test_record_asserts_bit_exactness_then_reports_rates(self):
        record = measure_service(TINY, n_requests=2)
        assert record["n_requests"] == 2
        assert record["serial_requests_per_sec"] > 0
        assert record["batched_requests_per_sec"] > 0
        assert record["replay_requests_per_sec"] > 0
        assert record["speedup"] > 0
        stats = record["service_stats"]
        # only the first burst simulated; the replay came from the cache
        assert stats["simulated_fsms"] == 2
        assert stats["completed"] == 4
        assert stats["cache"]["hits"] >= 2  # the replay stream

    def test_request_stream_is_deterministic(self):
        first = service_request_stream(3)
        again = service_request_stream(3)
        assert [f.key() for f in first] == [f.key() for f in again]
        assert len({f.key() for f in first}) == 3


def _bench_run(timestamp, steps_per_sec, hardware=None, n_lanes=103,
               t_max=200):
    return {
        "timestamp": timestamp,
        "hardware": hardware or hardware_fingerprint(),
        "scenarios": {
            "S16_k8": {
                "n_lanes": n_lanes, "t_max": t_max,
                "steps_per_sec": steps_per_sec,
            },
        },
    }


class TestRegressionGate:
    def test_small_drop_passes(self):
        log = {"runs": [_bench_run("t0", 100.0)]}
        record = _bench_run("t1", 85.0)
        failures, notes = check_regression(record, log)
        assert failures == []
        assert any("S16_k8" in note for note in notes)
        assert "ok" in format_check(failures, notes)

    def test_big_drop_fails(self):
        log = {"runs": [_bench_run("t0", 100.0)]}
        record = _bench_run("t1", 100.0 * (1 - DEFAULT_THRESHOLD) - 1)
        failures, _ = check_regression(record, log)
        assert len(failures) == 1
        assert "S16_k8" in failures[0]
        assert "FAIL" in format_check(failures, [])

    def test_improvement_passes(self):
        log = {"runs": [_bench_run("t0", 100.0)]}
        failures, _ = check_regression(_bench_run("t1", 400.0), log)
        assert failures == []

    def test_different_hardware_skips(self):
        other = dict(hardware_fingerprint(), cpu_count=999)
        log = {"runs": [_bench_run("t0", 1e9, hardware=other)]}
        failures, notes = check_regression(_bench_run("t1", 1.0), log)
        assert failures == []
        assert any("skipped" in note for note in notes)
        assert not hardware_comparable(hardware_fingerprint(), other)

    def test_different_workload_skips(self):
        log = {"runs": [_bench_run("t0", 1e9, n_lanes=7)]}
        failures, notes = check_regression(_bench_run("t1", 1.0), log)
        assert failures == []
        assert any("no comparable baseline scenario" in n for n in notes)

    def test_own_appended_record_is_not_its_baseline(self):
        record = _bench_run("t0", 50.0)
        log = {"runs": [record]}
        assert find_baseline_run(record, log) is None
        failures, notes = check_regression(record, log)
        assert failures == []
        assert any("gate skipped" in note for note in notes)

    def test_uses_most_recent_comparable_run(self):
        log = {"runs": [_bench_run("t0", 500.0), _bench_run("t1", 100.0)]}
        baseline = find_baseline_run(_bench_run("t2", 90.0), log)
        assert baseline["timestamp"] == "t1"
        failures, _ = check_regression(_bench_run("t2", 90.0), log)
        assert failures == []  # judged against t1, not the faster t0


@pytest.mark.slow
class TestBenchCli:
    def test_quick_bench_end_to_end(self, tmp_path):
        path = tmp_path / "bench.json"
        code = main([
            "bench", "--quick", "--fields", "8", "--generations", "1",
            "--out", str(path),
        ])
        assert code == 0
        log = json.loads(path.read_text())
        run = log["runs"][-1]
        assert run["quick"] is True
        for name in ("S16_k8", "T16_k8"):
            row = run["scenarios"][name]
            assert row["steps_per_sec"] > 0
            assert row["baseline_steps_per_sec"] > 0
            assert row["speedup"] > 0
        for kind in ("S", "T"):
            assert run["generations"][kind]["generations_per_sec"] > 0
        assert run["hardware"]["cpu_count"] >= 1
        for name in ("S16_k8", "T16_k8"):
            row = run["service"][name]
            assert row["batched_requests_per_sec"] > 0
            assert row["replay_requests_per_sec"] > 0

    def test_gate_fails_on_fabricated_fast_baseline(self, tmp_path):
        from repro.configs.suite import paper_suite
        from repro.grids import make_grid

        n_lanes = len(list(
            paper_suite(make_grid("S", 16), 8, n_random=8, seed=2013)
        ))
        committed = tmp_path / "committed.json"
        baseline = {
            "timestamp": "committed",
            "hardware": hardware_fingerprint(),
            "scenarios": {
                name: {"n_lanes": n_lanes, "t_max": 200,
                       "steps_per_sec": 1e12}
                for name in ("S16_k8", "T16_k8")
            },
        }
        committed.write_text(json.dumps({"runs": [baseline]}))
        code = main([
            "bench", "--quick", "--fields", "8", "--generations", "1",
            "--skip-service", "--skip-baseline",
            "--out", str(tmp_path / "bench.json"),
            "--check-against", str(committed),
        ])
        assert code == 1  # any real machine is slower than the fabrication
