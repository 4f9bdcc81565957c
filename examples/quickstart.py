"""Quickstart: simulate the paper's best agents and reproduce a Table 1 cell.

Runs the published T-agent (Fig. 4) and S-agent (Fig. 3) on the 16 x 16
torus with 16 agents over a suite of initial configurations, printing the
mean communication time for each grid and their ratio -- the paper's
headline: T-agents solve all-to-all communication in about 2/3 of the
time S-agents need (Table 1: 41.25 vs 63.39, ratio 0.651).

Run:  python examples/quickstart.py [n_fields]
"""

import sys

from repro import api


def main():
    n_fields = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    n_agents = 16

    print(f"All-to-all communication, 16 x 16 torus, {n_agents} agents, "
          f"{n_fields} random fields + manual cases\n")

    mean_times = {}
    for kind in ("T", "S"):
        grid = api.make_grid(kind, 16)
        fsm = api.published_fsm(kind)
        suite = api.paper_suite(grid, n_agents, n_random=n_fields)
        batch = api.BatchSimulator(grid, fsm, suite).run(t_max=1000)
        mean_times[kind] = batch.mean_time()
        reliable = "reliable" if batch.completely_successful else "UNRELIABLE"
        print(
            f"  {kind}-grid ({fsm.name}): mean t_comm = "
            f"{batch.mean_time():6.2f} steps over {batch.n_lanes} fields "
            f"({reliable})"
        )

    ratio = mean_times["T"] / mean_times["S"]
    print(f"\n  T/S ratio = {ratio:.3f}  "
          f"(paper: 0.651 at this density; diameter ratio: 0.666)")

    # a single run, step by step, with the reference simulator
    print("\nOne T-grid run in detail:")
    grid = api.make_grid("T", 16)
    config = api.random_configuration(
        grid, 4, __import__("numpy").random.default_rng(0)
    )
    simulation = api.Simulation(grid, api.published_fsm("T"), config)
    while not simulation.all_informed():
        simulation.step()
        if simulation.t % 10 == 0 or simulation.all_informed():
            informed = simulation.informed_count()
            print(f"  t = {simulation.t:3d}: {informed}/4 agents informed")
    print(f"  solved in {simulation.t} steps")


if __name__ == "__main__":
    main()
