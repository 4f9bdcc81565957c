"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

They check that the correctness checks reject a perturbed output, that
the metric names a run prints are the ones ``BENCHMARK.json`` declares,
and that the serving load generator stays within the machine's cores.
"""

import dataclasses
import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import common  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from common import BenchError  # noqa: E402

common.import_program()

from repro import api  # noqa: E402
from repro.results import Table1Cell  # noqa: E402

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())


# -- a perturbed output fails the check ---------------------------------------

def _small_case():
    grid = api.make_grid("T", 16)
    suite = api.paper_suite(grid, 8, n_random=4, seed=3)
    return grid, api.published_fsm("T"), list(suite)[:3]


def test_reference_check_accepts_the_batch_simulator():
    grid, fsm, configs = _small_case()
    lanes = checks.batch_lanes(grid, fsm, configs, 1000)
    checks.check_against_reference(grid, fsm, configs, 1000, lanes, "ok")


def test_reference_check_rejects_a_perturbed_t_comm():
    grid, fsm, configs = _small_case()
    lanes = checks.batch_lanes(grid, fsm, configs, 1000)
    success, t_comm, informed = lanes[1]
    lanes[1] = (success, t_comm + 1, informed)
    with pytest.raises(BenchError, match="scalar reference"):
        checks.check_against_reference(grid, fsm, configs, 1000, lanes, "x")


def test_outcome_check_rejects_a_last_bit_change():
    outcome = api.evaluate(grid="T", agents=8, fields=4, seed=3)
    nudged = dataclasses.replace(
        outcome, fitness=float(outcome.fitness + 1e-12 * outcome.fitness))
    assert nudged.fitness != outcome.fitness
    with pytest.raises(BenchError):
        checks.check_outcome(outcome, nudged, "x")


def _rows(t_packed=9.0, s_reliable=True):
    rows = {k: Table1Cell(n_agents=k, t_time=50.0, s_time=75.0,
                          t_reliable=True, s_reliable=s_reliable,
                          paper_t=None, paper_s=None)
            for k in (2, 4, 8, 16, 32)}
    rows[256] = Table1Cell(n_agents=256, t_time=t_packed, s_time=15.0,
                           t_reliable=True, s_reliable=True,
                           paper_t=None, paper_s=None)
    return rows


def test_table1_check_rejects_a_perturbed_packed_column():
    with pytest.raises(BenchError, match="diameter - 1"):
        checks.check_table1(_rows(t_packed=9.5), seed=1)


def test_table1_check_rejects_an_unsolved_cell():
    with pytest.raises(BenchError, match="not completely successful"):
        checks.check_table1(_rows(s_reliable=False), seed=1)


def test_serve_check_rejects_a_perturbed_response_and_a_resimulation():
    outcome = api.evaluate(grid="T", agents=8, fields=4, seed=3)
    expected = {b"g": outcome}
    checks.check_serve([(b"g", outcome)], expected, 1, 1, 1)
    wrong = dataclasses.replace(outcome, mean_time=outcome.mean_time + 1)
    with pytest.raises(BenchError):
        checks.check_serve([(b"g", wrong)], expected, 1, 1, 1)
    with pytest.raises(BenchError, match="simulated 2"):
        checks.check_serve([(b"g", outcome)], expected, 2, 1, 1)

# -- printed metric names match BENCHMARK.json --------------------------------
# -- printed metric names match BENCHMARK.json ----------------------------------

def test_declared_workloads_are_the_runnable_ones():
    assert {w["name"] for w in SPEC["workloads"]} == set(run.workloads())


def test_a_declared_metric_left_unmeasured_fails_the_run():
    values = dict.fromkeys(run.declared_units("end_to_end"), 1.0)
    values.pop("setup_s")
    with pytest.raises(BenchError, match="setup_s"):
        run.result_metrics("end_to_end", values)


def _fake_spans():
    spans, ids = [], iter(range(10 ** 6))
    for name in tracing.EXPECTED["evolve_T16"]:
        spans.append({"id": next(ids), "name": name, "start": 1.0,
                      "end": 2.0, "parent": None, "rid": None,
                      "attrs": {"fields": 3, "fsms": 1, "lane_steps": 5,
                                "exchanges": 2, "exchange_early_outs": 1,
                                "compactions": 1, "retired_lanes": 1}})
    return spans


def test_traced_report_carries_every_declared_per_layer_metric():
    metrics = dict.fromkeys(run.declared_units("end_to_end"), 1.0)
    untraced = workloads.Outcome(dict(metrics), {}, 1, 0)
    traced = workloads.Outcome(dict(metrics), {}, 1, 0, spans=_fake_spans(),
                               window=(0.5, 3.0),
                               extra={"memo_hit_ratio": 0.0})
    report = layers.report("evolve_T16", untraced, traced)
    assert set(run.declared_units("per_layer")) <= set(report["per_layer"])


def test_traced_report_fails_when_a_boundary_recorded_no_call():
    metrics = dict.fromkeys(run.declared_units("end_to_end"), 1.0)
    spans = [s for s in _fake_spans() if s["name"] != "ga.advance"]
    traced = workloads.Outcome(dict(metrics), {}, 1, 0, spans=spans,
                               window=(0.5, 3.0))
    with pytest.raises(BenchError, match="ga.advance"):
        layers.report("evolve_T16",
                      workloads.Outcome(dict(metrics), {}, 1, 0), traced)


@pytest.mark.slow
def test_a_run_prints_exactly_the_declared_end_to_end_metrics():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "table1_ST16",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}


# -- the load generator stays within the machine's cores ---------------------

def test_load_generator_refuses_more_clients_than_cores(monkeypatch):
    monkeypatch.setattr(workloads, "nproc", lambda: len(workloads.CLIENTS) - 1)
    with pytest.raises(BenchError, match="cores"):
        workloads.run_load(None, 1, 1, [], None)


@pytest.mark.slow
def test_serve_opens_no_more_connections_than_cores(monkeypatch):
    from repro.service.gateway import HTTPServiceClient
    from repro.service.transport import TCPServiceClient

    live = {"open": 0, "peak": 0}
    lock = threading.Lock()

    def counting(cls):
        init, close = cls.__init__, cls.close

        def opened(self, *args, **kwargs):
            init(self, *args, **kwargs)
            with lock:
                live["open"] += 1
                live["peak"] = max(live["peak"], live["open"])

        def closed(self):
            with lock:
                live["open"] -= 1
            close(self)

        monkeypatch.setattr(cls, "__init__", opened)
        monkeypatch.setattr(cls, "close", closed)

    counting(TCPServiceClient)
    counting(HTTPServiceClient)
    monkeypatch.setattr(workloads, "WARM_GENOMES", 4)
    monkeypatch.setattr(workloads, "PROCESS_SETUP_REPEATS", 1)
    outcome = workloads.serve_mixed(seed=4, seconds=1)
    assert outcome.attempted > 0 and outcome.failed == 0
    assert live["open"] == 0
    assert 1 <= live["peak"] <= common.nproc()
