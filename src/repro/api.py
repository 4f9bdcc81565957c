"""The one import surface: ``from repro import api``.

Everything a script needs lives here under four verbs plus re-exports:

* :func:`evaluate` -- one workload spec in, evaluation results out;
* :func:`evolve` -- run the paper's genetic procedure on a spec;
* :func:`run_experiment` -- any named experiment of the reproduction
  (``"table1"``, ``"grid33"``, ``"topology"``, ``"traces"``,
  ``"progress_curves"``, ``"campaign"``), with :func:`format_experiment`
  for the matching text report;
* :func:`connect` -- a service connection, in-process by default or TCP
  when given an address, with the *same* ``evaluate`` vocabulary either
  way.

The workload vocabulary is the wire protocol's: ``grid`` (``"S"`` /
``"T"``), ``size``, ``agents``, ``fields``, ``seed``, ``t_max`` and
``fsm`` (``"published"``, ``"evolved"``, a genome table dict, an
:class:`repro.core.FSM`, or a list of those).  Every lower-level name
the package exports is re-exported here too, so examples and notebooks
never need a second import line.
"""

import repro as _repro
from repro import (  # noqa: F401  (facade re-exports)
    Action,
    Agent,
    BatchResult,
    BatchSimulator,
    EVOLVED_S_AGENT,
    EVOLVED_T_AGENT,
    Environment,
    EvolutionSettings,
    FSM,
    Grid,
    InitialConfiguration,
    InitialStateScheme,
    MutationRates,
    PAPER_AGENT_COUNTS,
    PAPER_S_AGENT,
    PAPER_T_AGENT,
    Simulation,
    SimulationResult,
    SquareGrid,
    TraceRecorder,
    TriangulateGrid,
    diameter_formula,
    diameter_ratio,
    evaluate_fsm,
    evaluate_population,
    evolved_fsm,
    fitness,
    make_grid,
    mean_distance_formula,
    mean_distance_ratio,
    mean_fitness,
    multi_run,
    mutate,
    packed_configuration,
    paper_suite,
    published_fsm,
    random_color_carpet,
    random_configuration,
    random_obstacles,
    rank_candidates,
    render_panels,
    screen_reliability,
    special_configurations,
    summarize_times,
    summarize_topology,
)
from repro._compat import normalize_grid_kind, renamed_kwargs
from repro.analysis import (  # noqa: F401
    color_loop_count,
    colored_fraction,
    count_meetings,
    is_minimal,
    motility,
    progress_timeline,
    reachable_states,
    street_concentration,
    table_usage,
    time_to_fraction,
    visited_gini,
)
from repro.baselines.gossip import packed_gossip_time  # noqa: F401
from repro.baselines.trivial import always_straight_fsm  # noqa: F401
from repro.core.fsm import FSM as _FSM
from repro.evolution.fitness import (
    EvaluationCache,  # noqa: F401
    evaluation_cache_key,
    suite_fingerprint,  # noqa: F401
)
from repro.evolution.runner import evolve as _evolve
from repro.experiments.ablations import (  # noqa: F401
    run_color_ablation,
    run_initial_state_ablation,
)
from repro.experiments.campaign import (  # noqa: F401
    CampaignSettings,
    format_campaign,
    run_campaign,
)
from repro.experiments.environments import (  # noqa: F401
    format_environment_rows,
    run_environment_comparison,
)
from repro.experiments.fig2 import (  # noqa: F401
    fig2_distance_maps,
    format_topology_table,
    topology_table,
)
from repro.experiments.grid33 import format_grid33, run_grid33  # noqa: F401
from repro.experiments.progress_curves import (  # noqa: F401
    format_progress_curves,
    run_progress_curves,
)
from repro.experiments.report import ascii_bars  # noqa: F401
from repro.experiments.table1 import (  # noqa: F401
    fig5_series,
    format_table1,
    run_table1,
)
from repro.experiments.traces import (  # noqa: F401
    format_trace,
    run_fig6,
    run_fig7,
    two_agent_configuration,
)
from repro.extensions import (  # noqa: F401
    HeterogeneousSimulation,
    MulticolorFSM,
    MulticolorSimulation,
    TimeShuffledSimulation,
)
from repro.grids.analysis import antipodal_cells  # noqa: F401
from repro.resilience import (  # noqa: F401
    AppendLog,
    ChaosResult,
    Checkpointer,
    CheckpointError,
    CircuitBreaker,
    CircuitOpenError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    JournalError,
    RequestJournal,
    RetryBudgetExceeded,
    RetryPolicy,
    chaos_sweep,
    install_faults,
    load_checkpoint,
    run_chaos_plan,
    save_checkpoint,
    shrink_plan,
    uninstall_faults,
)
from repro.results import (  # noqa: F401
    CampaignCell,
    EvaluationResult,
    Grid33Result,
    Table1Cell,
)
from repro.service import (  # noqa: F401
    AsyncEvaluationServer,
    AsyncServiceClient,
    Client,
    ClientOptions,
    EvaluationService,
    GatewayServer,
    HTTPServiceClient,
    IdempotencyRegistry,
    PersistentEvaluationCache,
    ServiceClient,
    ServiceError,
    Supervisor,
    SupervisorError,
    TCPServiceClient,
    TransportError,
    WorkerCrashError,
    WorkerHangError,
    WorkerPool,
    is_retryable_error,
)
from repro.service.jsonl import (  # noqa: F401
    ServeSession,
    build_fsm,
    paper_workload,
)
from repro.service.transport import parse_address


def _as_fsms(fsm, kind):
    """``(fsms, was_list)`` from any accepted ``fsm`` spec."""
    from repro.core.evolved import evolved_fsm as _evolved
    from repro.core.published import published_fsm as _published

    specs = fsm if isinstance(fsm, (list, tuple)) else [fsm]

    def resolve(one):
        if isinstance(one, _FSM):
            return one
        if one == "published" or one is None:
            return _published(kind)
        if one == "evolved":
            return _evolved(kind)
        if isinstance(one, dict) and "genome" in one:
            return _FSM.from_genome(one["genome"], name=one.get("name"))
        raise ValueError(f"unknown fsm spec: {one!r}")

    return [resolve(one) for one in specs], isinstance(fsm, (list, tuple))


def _workload(grid, size, agents, fields, seed):
    kind = normalize_grid_kind(grid)
    return (kind,) + paper_workload(kind, size, agents, fields, seed)


@renamed_kwargs(tmax="t_max", workers="n_workers")
def evaluate(grid="T", size=16, agents=8, fields=100, seed=2013, t_max=200,
             fsm="published", n_workers=None, pool=None, cache=None,
             backend=None):
    """Evaluate FSMs on a paper-style workload, one call.

    Returns one :class:`repro.results.EvaluationResult` -- or a list of
    them, in order, when ``fsm`` is a list.  ``cache`` may be any
    :class:`EvaluationCache` (including a
    :class:`PersistentEvaluationCache`); hits skip simulation entirely.
    ``backend`` picks the simulator step backend
    (:mod:`repro.core.backends`); results are bit-identical across
    backends, so cache entries are shared between them.
    """
    kind, built, suite = _workload(grid, size, agents, fields, seed)
    fsms, was_list = _as_fsms(fsm, kind)
    if cache is None:
        outcomes = evaluate_population(
            built, fsms, suite, t_max=t_max, n_workers=n_workers, pool=pool,
            backend=backend,
        )
    else:
        fingerprint = suite_fingerprint(suite)
        keys = [
            evaluation_cache_key(built, fingerprint, t_max, one)
            for one in fsms
        ]
        outcomes = [cache.get(key) for key in keys]
        missing = [i for i, outcome in enumerate(outcomes) if outcome is None]
        if missing:
            fresh = evaluate_population(
                built, [fsms[i] for i in missing], suite, t_max=t_max,
                n_workers=n_workers, pool=pool, backend=backend,
            )
            for i, outcome in zip(missing, fresh):
                cache.put(keys[i], outcome)
                outcomes[i] = outcome
    return outcomes if was_list else outcomes[0]


@renamed_kwargs(tmax="t_max", workers="n_workers")
def evolve(grid="T", size=16, agents=8, fields=50, seed=2013,
           settings=None, progress=None, n_workers=None, pool=None,
           cache=None, suite=None, backend=None, **overrides):
    """Run the paper's mutation-only evolution on a workload spec.

    ``settings`` is an :class:`EvolutionSettings`; keyword ``overrides``
    (``n_generations=``, ``t_max=``, ``pool_size=``, ...) build one when
    it is omitted.  ``grid`` may also be a built :class:`Grid` (then
    pass the evaluation ``suite=`` alongside it).  Each generation is
    sharded as :func:`repro.evolution.runner.evolve` shards it: over
    ``pool``, or over ``n_workers`` processes (by default the available
    cores; 1 = serial) that the run owns and joins.  Returns the
    :class:`repro.evolution.runner.EvolutionResult` unchanged.
    """
    if isinstance(grid, Grid):
        if suite is None:
            raise TypeError("pass suite= alongside a built Grid")
        built = grid
    else:
        _, built, default_suite = _workload(grid, size, agents, fields, seed)
        if suite is None:
            suite = default_suite
    if settings is None:
        settings = EvolutionSettings(**overrides)
    elif overrides:
        raise TypeError("pass either settings= or keyword overrides, not both")
    return _evolve(
        built, suite, settings, progress=progress, n_workers=n_workers,
        pool=pool, cache=cache, backend=backend,
    )


#: Experiment registry: name -> (runner, formatter).
EXPERIMENTS = {
    "table1": (run_table1, format_table1),
    "grid33": (run_grid33, format_grid33),
    "topology": (topology_table, None),
    "fig6": (run_fig6, None),
    "fig7": (run_fig7, None),
    "progress_curves": (run_progress_curves, format_progress_curves),
    "campaign": (run_campaign, format_campaign),
}


def run_experiment(name, **kwargs):
    """Run one named experiment of the reproduction; see ``EXPERIMENTS``."""
    try:
        runner, _ = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; "
            f"choose from {sorted(EXPERIMENTS)}"
        ) from None
    return runner(**kwargs)


def format_experiment(name, result):
    """The text report matching one :func:`run_experiment` result."""
    _, formatter = EXPERIMENTS[name]
    if formatter is None:
        raise ValueError(f"experiment {name!r} has no text formatter")
    return formatter(result)


class InProcessConnection:
    """A :func:`connect` handle onto an in-process evaluation service.

    Speaks the same workload vocabulary as :class:`TCPServiceClient`
    (``evaluate(grid=..., size=..., ...)``), so callers switch between
    local and remote serving by changing only the :func:`connect` call.
    """

    def __init__(self, service, own_service=False):
        self.service = service
        self._session = ServeSession(service)
        self._own = own_service

    def evaluate(self, **spec):
        """One workload spec; a list of ``EvaluationResult`` per FSM."""
        _, future = self._session.submit_spec(spec)
        return future.result()

    def evaluate_many(self, specs):
        """Per-spec result lists; all submitted before waiting, so the
        dispatcher can coalesce them into one batch."""
        futures = [self._session.submit_spec(dict(spec))[1]
                   for spec in specs]
        return [future.result() for future in futures]

    def ping(self):
        return True

    def stats(self):
        return {"service": self.service.snapshot()}

    def health(self):
        """Service liveness: pool watchdog counters, queue depth, cache."""
        return self._session.health()

    def close(self):
        if self._own:
            self.service.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


@renamed_kwargs(workers="n_workers", address="url")
def connect(url=None, n_workers=None, cache_path=None, timeout=None,
            service=None, retry_policy=None, breaker=None, seeds=None,
            options=None, hedge=False, hedge_floor=0.05):
    """A service connection; the transport follows the URL scheme.

    * ``connect()`` -- builds a private :class:`EvaluationService` (over
      ``n_workers`` processes; ``cache_path`` makes its cache a
      :class:`PersistentEvaluationCache` at that path) and returns an
      in-process connection that owns it;
    * ``connect(service=svc)`` -- the same view onto a service you
      manage yourself;
    * ``connect("tcp://host:port")`` -- a :class:`TCPServiceClient`
      onto a ``repro-a2a serve --tcp`` server;
    * ``connect("http://host:port")`` / ``"https://..."`` -- an
      :class:`repro.service.HTTPServiceClient` onto a ``serve --http``
      gateway (``https`` uses ``options.tls`` or the default SSL
      context; ``options.auth_token`` carries the bearer token);
    * ``connect(seeds=["tcp://host:port", ...])`` -- a
      :class:`repro.service.RouterClient` onto a ``repro-a2a cluster``
      fleet: the whole membership is discovered from the first
      responsive seed via gossip, requests shard across nodes by batch
      key on a consistent-hash ring, and a dead node fails over to the
      next ring owner under the request's original idempotency key.
      ``hedge=True`` arms hedged requests: a primary silent past the
      adaptive hedge delay (at least ``hedge_floor`` seconds) is raced
      against the next ring owner under the same idempotency key --
      first answer wins, the loser is cancelled before it simulates.

    All five return :class:`repro.service.Client` implementations --
    the same ``evaluate`` / ``evaluate_many`` / ``stats`` / ``health``
    / ``close`` surface, all context managers.  Hardening is spelled
    once via ``options=`` (a :class:`repro.service.ClientOptions`):
    retry policies replay under idempotency keys, breakers trip after
    repeated failures (see ``docs/RESILIENCE.md``).  The pre-redesign
    spellings -- a bare ``"host:port"`` address, an ``(host, port)``
    tuple, ``address=``, and the loose ``timeout=`` / ``retry_policy=``
    / ``breaker=`` keywords -- keep working with a
    :class:`DeprecationWarning`.
    """
    from repro.service.client import (
        parse_url,
        resolve_options,
        warn_bare_address,
    )

    options = resolve_options(
        options, where="connect", timeout=timeout,
        retry_policy=retry_policy, breaker=breaker,
    )
    if seeds is not None:
        if url is not None or service is not None:
            raise TypeError("pass seeds= alone, not with url/service")
        from repro.service.cluster import RouterClient

        return RouterClient(seeds, options=options, hedge=hedge,
                            hedge_floor=hedge_floor)
    if url is not None:
        if service is not None:
            raise TypeError("pass url= or service=, not both")
        if isinstance(url, tuple):
            warn_bare_address(f"{url[0]}:{url[1]}")
            return TCPServiceClient(url, options=options)
        scheme, host, port = parse_url(url, default_scheme="tcp")
        if "://" not in url:
            warn_bare_address(url)
        if scheme == "tcp":
            return TCPServiceClient(host, port, options=options)
        from repro.service.gateway import HTTPServiceClient

        return HTTPServiceClient(host, port, options=options,
                                 scheme=scheme)
    if service is not None:
        return InProcessConnection(service, own_service=False)
    cache = PersistentEvaluationCache(cache_path) if cache_path else None
    owned = EvaluationService(n_workers=n_workers, cache=cache)
    return InProcessConnection(owned, own_service=True)


__version__ = _repro.__version__
