"""repro: CA agents for all-to-all communication in square and triangulate grids.

A complete, self-contained reproduction of Hoffmann & Deserable,
*CA Agents for All-to-All Communication Are Faster in the Triangulate
Grid* (PaCT 2013): the cyclic S- and T-grid topologies, the synchronous
multi-agent cellular automaton with FSM-controlled agents and colour
"pheromone" flags, the mutation-only genetic procedure that evolves the
behaviours, the published best agents, and a harness regenerating every
table and figure of the paper's evaluation.

Quickstart::

    import repro

    grid = repro.make_grid("T", 16)                 # 16 x 16 triangulate torus
    fsm = repro.published_fsm("T")                  # best evolved T-agent (Fig. 4)
    suite = repro.paper_suite(grid, n_agents=16)    # 1000 random + 3 manual fields
    batch = repro.BatchSimulator(grid, fsm, suite).run(t_max=400)
    print(batch.mean_time())                        # paper reports 41.25
"""

from repro.grids import (
    Grid,
    SquareGrid,
    TriangulateGrid,
    make_grid,
    diameter_formula,
    mean_distance_formula,
    diameter_ratio,
    mean_distance_ratio,
    summarize_topology,
)
from repro.core import (
    Action,
    FSM,
    Agent,
    Environment,
    random_obstacles,
    random_color_carpet,
    Simulation,
    SimulationResult,
    BatchSimulator,
    BatchResult,
    TraceRecorder,
    PAPER_S_AGENT,
    PAPER_T_AGENT,
    published_fsm,
    EVOLVED_S_AGENT,
    EVOLVED_T_AGENT,
    evolved_fsm,
    fitness,
    mean_fitness,
    summarize_times,
    render_panels,
)
from repro.configs import (
    InitialConfiguration,
    InitialStateScheme,
    paper_suite,
    random_configuration,
    special_configurations,
    packed_configuration,
    PAPER_AGENT_COUNTS,
)
from repro.evolution import (
    MutationRates,
    mutate,
    evaluate_fsm,
    evaluate_population,
    EvolutionSettings,
    evolve,
    multi_run,
    screen_reliability,
    rank_candidates,
)
from repro.results import (
    CampaignCell,
    EvaluationResult,
    Grid33Result,
    Table1Cell,
)

__version__ = "1.0.0"

# the facade imports back from this module, so it must come after every
# name above is bound.
from repro import api  # noqa: E402

__all__ = [
    "Grid",
    "SquareGrid",
    "TriangulateGrid",
    "make_grid",
    "diameter_formula",
    "mean_distance_formula",
    "diameter_ratio",
    "mean_distance_ratio",
    "summarize_topology",
    "Action",
    "FSM",
    "Agent",
    "Environment",
    "random_obstacles",
    "random_color_carpet",
    "Simulation",
    "SimulationResult",
    "BatchSimulator",
    "BatchResult",
    "TraceRecorder",
    "PAPER_S_AGENT",
    "PAPER_T_AGENT",
    "published_fsm",
    "EVOLVED_S_AGENT",
    "EVOLVED_T_AGENT",
    "evolved_fsm",
    "fitness",
    "mean_fitness",
    "summarize_times",
    "render_panels",
    "InitialConfiguration",
    "InitialStateScheme",
    "paper_suite",
    "random_configuration",
    "special_configurations",
    "packed_configuration",
    "PAPER_AGENT_COUNTS",
    "MutationRates",
    "mutate",
    "evaluate_fsm",
    "evaluate_population",
    "EvolutionSettings",
    "evolve",
    "multi_run",
    "screen_reliability",
    "rank_candidates",
    "EvaluationResult",
    "Table1Cell",
    "Grid33Result",
    "CampaignCell",
    "api",
    "__version__",
]
