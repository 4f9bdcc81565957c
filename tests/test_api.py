"""The ``repro.api`` facade and its compatibility shims.

The facade must compute exactly what the layers beneath it compute
(``evaluate`` vs ``evaluate_population``, ``connect()`` in-process vs
TCP), the experiment registry must run and format by name, the
consolidated result shapes must survive a JSON round trip, and every
deprecated spelling -- keyword aliases, grid-kind letters, old import
paths, campaign-cell subscription -- must keep working while warning.
"""

import asyncio
import json
import threading

import pytest

import repro.service.jsonl as jsonl_module
from repro import api
from repro.configs.suite import paper_suite
from repro.evolution.fitness import evaluate_population
from repro.results import (
    CampaignCell,
    EvaluationResult,
    Grid33Result,
    Table1Cell,
)

WORKLOAD = dict(grid="T", size=8, agents=4, fields=5, seed=1, t_max=60)


@pytest.fixture(scope="module")
def serial():
    grid = api.make_grid("T", WORKLOAD["size"])
    suite = api.paper_suite(
        grid, WORKLOAD["agents"], n_random=WORKLOAD["fields"],
        seed=WORKLOAD["seed"],
    )
    fsms = [api.published_fsm("T"), api.evolved_fsm("T")]
    return evaluate_population(grid, fsms, suite, t_max=WORKLOAD["t_max"])


class TestEvaluate:
    def test_single_fsm_matches_the_layers_below(self, serial):
        assert api.evaluate(**WORKLOAD) == serial[0]

    def test_fsm_list_returns_ordered_list(self, serial):
        got = api.evaluate(fsm=["published", "evolved"], **WORKLOAD)
        assert got == serial

    def test_genome_dict_and_fsm_object_specs(self, serial):
        fsm = api.published_fsm("T")
        by_object = api.evaluate(fsm=fsm, **WORKLOAD)
        by_genome = api.evaluate(
            fsm={"genome": fsm.genome().tolist()}, **WORKLOAD
        )
        assert by_object == by_genome == serial[0]

    def test_unknown_fsm_spec_raises(self):
        with pytest.raises(ValueError, match="unknown fsm spec"):
            api.evaluate(fsm="nonsense", **WORKLOAD)

    def test_cache_fills_then_hits(self, serial):
        cache = api.EvaluationCache()
        first = api.evaluate(cache=cache, **WORKLOAD)
        again = api.evaluate(cache=cache, **WORKLOAD)
        assert first == again == serial[0]
        counters = cache.stats()
        assert counters["hits"] == 1
        assert counters["misses"] == 1

    def test_repeated_cached_calls_build_the_suite_once(self, monkeypatch,
                                                        serial):
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return paper_suite(*args, **kwargs)

        monkeypatch.setattr(jsonl_module, "paper_suite", counting)
        jsonl_module.paper_workload.cache_clear()
        cache = api.EvaluationCache()
        for _ in range(5):
            assert api.evaluate(cache=cache, **WORKLOAD) == serial[0]
        assert len(built) == 1
        assert cache.stats()["hits"] == 4


class TestEvolve:
    def test_spec_form_runs_the_ga(self):
        result = api.evolve(
            grid="T", size=8, agents=4, fields=3, seed=1,
            n_generations=2, pool_size=4, exchange_width=1, t_max=60,
        )
        assert result.best.fitness > 0
        assert len(result.history) == 3   # generation 0 plus two evolved

    def test_built_grid_requires_suite(self):
        grid = api.make_grid("T", 8)
        with pytest.raises(TypeError, match="suite="):
            api.evolve(grid, n_generations=1)

    def test_settings_and_overrides_are_exclusive(self):
        with pytest.raises(TypeError, match="not both"):
            api.evolve(
                settings=api.EvolutionSettings(n_generations=1),
                n_generations=2,
            )


class TestConnect:
    def test_in_process_connection_matches_direct_evaluate(self, serial):
        with api.connect(n_workers=1) as conn:
            assert conn.ping() is True
            got = conn.evaluate(**WORKLOAD)
            assert got == [serial[0]]
            assert conn.stats()["service"]["requests"] == 1

    def test_external_service_is_not_closed(self, serial):
        with api.EvaluationService(n_workers=1) as service:
            with api.connect(service=service) as conn:
                assert conn.evaluate(**WORKLOAD) == [serial[0]]
            # the connection must not have closed the service it borrowed
            assert service.evaluate is not None
            with api.connect(service=service) as conn:
                assert conn.ping() is True

    def test_tcp_connection_speaks_the_same_vocabulary(self, serial):
        bound = {}
        ready = threading.Event()

        def serve():
            async def run():
                with api.EvaluationService(n_workers=1) as service:
                    server = await api.AsyncEvaluationServer(service).start()
                    bound["address"] = server.address
                    ready.set()
                    await server.serve_until_shutdown()
            asyncio.run(run())

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert ready.wait(30)
        host, port = bound["address"]
        with api.connect(f"tcp://{host}:{port}") as conn:
            assert conn.ping() is True
            assert conn.evaluate(**WORKLOAD) == [serial[0]]
            assert conn.shutdown() is True
        thread.join(timeout=30)
        assert not thread.is_alive()

    def test_address_and_service_are_exclusive(self):
        with pytest.raises(TypeError, match="not both"):
            api.connect("127.0.0.1:1", service=object())

    def test_cache_path_makes_the_cache_persistent(self, tmp_path, serial):
        path = tmp_path / "store.jsonl"
        with api.connect(n_workers=1, cache_path=path) as conn:
            assert conn.evaluate(**WORKLOAD) == [serial[0]]
        with api.connect(n_workers=1, cache_path=path) as conn:
            assert conn.evaluate(**WORKLOAD) == [serial[0]]
            assert conn.service.stats.simulated_fsms == 0   # store hit


class TestExperimentRegistry:
    def test_topology_runs_and_has_no_formatter(self):
        result = api.run_experiment("topology", exponents=(2, 3))
        assert len(result) == 2
        with pytest.raises(ValueError, match="no text formatter"):
            api.format_experiment("topology", result)

    def test_progress_curves_run_and_format(self):
        result = api.run_experiment(
            "progress_curves", n_agents=4, n_random=2, t_max=60
        )
        text = api.format_experiment("progress_curves", result)
        assert "Knowledge spread" in text

    def test_unknown_experiment_lists_choices(self):
        with pytest.raises(ValueError, match="table1"):
            api.run_experiment("figure_9000")


class TestResultShapes:
    def test_evaluation_result_round_trip(self, serial):
        for outcome in serial:
            assert EvaluationResult.from_json(
                json.loads(json.dumps(outcome.to_json()))
            ) == outcome

    def test_infinite_mean_time_survives_the_wire(self):
        unsolved = EvaluationResult(
            fitness=0.0, mean_time=float("inf"), n_fields=3,
            n_successful_fields=0,
        )
        payload = unsolved.to_json()
        assert payload["mean_time"] is None   # JSON has no inf
        assert payload["completely_successful"] is False
        assert EvaluationResult.from_json(payload) == unsolved

    def test_table1_cell_round_trip(self):
        cell = Table1Cell(
            n_agents=16, t_time=41.25, s_time=62.7, t_reliable=True,
            s_reliable=True, paper_t=41.25, paper_s=62.7,
        )
        revived = Table1Cell.from_json(cell.to_json())
        assert revived == cell
        assert revived.ratio == pytest.approx(41.25 / 62.7)

    def test_grid33_result_round_trip(self):
        result = Grid33Result(
            mean_time={"S": 120.5, "T": float("inf")},
            reliable={"S": True, "T": False}, n_fields=10,
        )
        assert Grid33Result.from_json(result.to_json()) == result

    def test_campaign_cell_round_trip(self):
        cell = CampaignCell(
            t_time=41.0, s_time=62.0, ratio=41.0 / 62.0, paper_t=41.25,
            paper_s=62.7, reliable=True,
        )
        assert CampaignCell.from_json(cell.to_json()) == cell


class TestDeprecations:
    def test_tmax_keyword_warns_and_works(self, serial):
        spec = {k: v for k, v in WORKLOAD.items() if k != "t_max"}
        with pytest.warns(DeprecationWarning, match="t_max"):
            got = api.evaluate(tmax=WORKLOAD["t_max"], **spec)
        assert got == serial[0]

    def test_both_spellings_raise(self):
        with pytest.raises(TypeError, match="both"):
            api.evaluate(tmax=60, **WORKLOAD)

    def test_workers_keyword_warns_on_connect(self):
        with pytest.warns(DeprecationWarning, match="n_workers"):
            conn = api.connect(workers=1)
        conn.close()

    def test_lowercase_grid_kind_warns_and_normalizes(self, serial):
        spec = {k: v for k, v in WORKLOAD.items() if k != "grid"}
        with pytest.warns(DeprecationWarning, match="grid kind"):
            got = api.evaluate(grid="t", **spec)
        assert got == serial[0]

    def test_old_result_import_paths_warn_and_alias(self):
        import repro.evolution.fitness as fitness_module
        import repro.experiments.table1 as table1_module
        import repro.results as results_module

        with pytest.warns(DeprecationWarning, match="EvaluationResult"):
            assert fitness_module.EvaluationOutcome is EvaluationResult
        with pytest.warns(DeprecationWarning, match="Table1Cell"):
            assert table1_module.Table1Row is Table1Cell
        with pytest.warns(DeprecationWarning, match="EvaluationResult"):
            assert results_module.EvaluationOutcome is EvaluationResult

    def test_campaign_cell_subscription_warns(self):
        cell = CampaignCell(
            t_time=41.0, s_time=62.0, ratio=0.66, paper_t=None,
            paper_s=None, reliable=True,
        )
        with pytest.warns(DeprecationWarning, match="t_time"):
            assert cell["t_time"] == 41.0
        with pytest.raises(KeyError):
            cell["nope"]

    def test_cli_tmax_alias_warns_and_sets_t_max(self):
        from repro.cli import build_parser

        parser = build_parser()
        with pytest.warns(DeprecationWarning, match="--t-max"):
            args = parser.parse_args(["table1", "--tmax", "123"])
        assert args.t_max == 123

    def test_cli_grid_letter_normalizes_with_warning(self):
        from repro.cli import build_parser

        parser = build_parser()
        with pytest.warns(DeprecationWarning, match="grid kind"):
            args = parser.parse_args(["simulate", "--grid", "t"])
        assert args.grid == "T"


class TestFacadeSurface:
    def test_every_public_layer_is_reachable(self):
        for name in (
            "make_grid", "published_fsm", "paper_suite", "BatchSimulator",
            "Simulation", "evaluate_population", "run_table1",
            "format_table1", "run_campaign", "EvaluationService",
            "PersistentEvaluationCache", "TCPServiceClient",
            "AsyncEvaluationServer", "parse_address", "EvaluationResult",
            "ascii_bars", "antipodal_cells", "packed_gossip_time",
        ):
            assert callable(getattr(api, name)), name

    def test_version_matches_the_package(self):
        import repro

        assert api.__version__ == repro.__version__
        assert repro.api is api
