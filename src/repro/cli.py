"""Command-line interface: ``repro-a2a`` / ``python -m repro``.

Subcommands map one-to-one onto the experiment harness, so every table
and figure of the paper can be regenerated from the shell::

    repro-a2a topology            # Eq. 1-3 / Fig. 2
    repro-a2a fsm --grid T        # Fig. 3 / Fig. 4 state tables
    repro-a2a table1              # Table 1 / Fig. 5
    repro-a2a trace --grid T      # Fig. 6 / Fig. 7
    repro-a2a grid33              # Sect. 5 cross-size test
    repro-a2a simulate --grid T --agents 8 --render
    repro-a2a evolve --grid T --agents 8 --generations 30
    repro-a2a ablation --which colors
    repro-a2a serve --workers 4   # evaluation service over JSON lines
    repro-a2a serve --tcp 127.0.0.1:7013 --cache eval_cache.jsonl --stats
"""

import argparse
import os
import sys

import numpy as np


def _grid_kind(value):
    """Argparse type for ``--grid``: canonicalises deprecated spellings."""
    from repro._compat import normalize_grid_kind

    try:
        return normalize_grid_kind(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _lane_block(value):
    """Argparse type for ``--lane-block``: a lane count, or ``auto``."""
    return value if value == "auto" else int(value)


def _add_grid_argument(parser, default="T"):
    parser.add_argument(
        "--grid", type=_grid_kind, choices=("S", "T"), default=default,
        help="grid kind: S (square) or T (triangulate)",
    )


def _alias_action(canonical_dest, canonical_flag):
    """A hidden argparse action mapping a deprecated flag onto its
    canonical destination, warning per use."""

    class _DeprecatedAlias(argparse.Action):
        def __call__(self, parser, namespace, values, option_string=None):
            from repro._compat import warn_deprecated

            warn_deprecated(option_string, canonical_flag)
            setattr(namespace, canonical_dest, values)

    return _DeprecatedAlias


def _add_deprecated_alias(parser, flag, canonical_dest, canonical_flag,
                          value_type=int):
    parser.add_argument(
        flag, type=value_type,
        action=_alias_action(canonical_dest, canonical_flag),
        default=argparse.SUPPRESS, help=argparse.SUPPRESS,
    )


def _cmd_topology(args):
    from repro.experiments.fig2 import fig2_distance_maps, format_topology_table

    print(format_topology_table())
    print()
    print(fig2_distance_maps(n=3))
    return 0


def _cmd_fsm(args):
    from repro.core.published import published_fsm

    fsm = published_fsm(args.grid)
    figure = "Fig. 3 (best S-agent)" if args.grid == "S" else "Fig. 4 (best T-agent)"
    print(fsm.format_table(title=f"{figure}:"))
    return 0


def _cmd_table1(args):
    from repro.experiments.table1 import format_table1, run_table1

    agent_counts = tuple(args.agents) if args.agents else (2, 4, 8, 16, 32, 256)
    rows = run_table1(
        n_random=args.fields, seed=args.seed, t_max=args.t_max,
        agent_counts=agent_counts,
    )
    print(format_table1(rows))
    return 0


def _cmd_trace(args):
    from repro.experiments.traces import format_trace, run_fig6, run_fig7

    if args.grid == "S":
        print(format_trace(run_fig6(), paper_t_comm=114))
    else:
        print(format_trace(run_fig7(), paper_t_comm=44))
    return 0


def _cmd_grid33(args):
    from repro.experiments.grid33 import format_grid33, run_grid33

    result = run_grid33(n_random=args.fields, seed=args.seed, t_max=args.t_max)
    print(format_grid33(result))
    return 0


def _cmd_simulate(args):
    from repro.configs.random_configs import random_configuration
    from repro.core.published import published_fsm
    from repro.core.render import render_panels
    from repro.core.simulation import Simulation
    from repro.core.trace import TraceRecorder
    from repro.grids import make_grid

    grid = make_grid(args.grid, args.size)
    fsm = published_fsm(args.grid)
    rng = np.random.default_rng(args.seed)
    config = random_configuration(grid, args.agents, rng)
    recorder = TraceRecorder() if args.render else None
    simulation = Simulation(grid, fsm, config, recorder=recorder)
    result = simulation.run(t_max=args.t_max)
    status = "solved" if result.success else "TIMED OUT"
    print(
        f"{args.grid}-grid {args.size}x{args.size}, {args.agents} agents, "
        f"seed {args.seed}: {status} after {result.steps_executed} steps "
        f"({result.informed_agents}/{result.n_agents} informed)"
    )
    if args.render:
        print(render_panels(grid, recorder.final))
    return 0 if result.success else 1


def _cmd_evolve(args):
    from repro.configs.suite import paper_suite
    from repro.evolution.runner import EvolutionSettings, evolve
    from repro.grids import make_grid

    grid = make_grid(args.grid, args.size)
    suite = paper_suite(grid, args.agents, n_random=args.fields, seed=args.seed)
    settings = EvolutionSettings(
        n_generations=args.generations, t_max=args.t_max, seed=args.seed
    )

    def progress(record):
        best = f"{record.best_fitness:.2f}"
        print(
            f"gen {record.generation:4d}  best {best:>10}  "
            f"mean {record.mean_fitness:12.2f}  "
            f"successful {record.n_successful}/{args.pool_size}"
        )

    result = evolve(
        grid, suite, settings, progress=progress,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume_from=args.resume,
        backend=args.backend,
    )
    best = result.best
    print(
        f"\nbest fitness {best.fitness:.2f} "
        f"({'completely successful' if best.completely_successful else 'not reliable'}), "
        f"{result.wall_seconds:.1f}s"
    )
    print(best.fsm.format_table(title="best evolved FSM:"))
    return 0


def _build_service(args):
    """The serve subcommand's service; raises :class:`_ServeSetupError`
    with a user-facing message on bad ``--cache`` / ``--fault-plan``."""
    from repro.resilience.faults import FaultPlan, FaultPlanError, install
    from repro.service import EvaluationService, PersistentEvaluationCache

    if args.fault_plan:
        try:
            install(FaultPlan.load(args.fault_plan),
                    log_path=os.environ.get("REPRO_FAULT_LOG"))
        except (OSError, FaultPlanError) as exc:
            raise _ServeSetupError(
                f"cannot load fault plan {args.fault_plan!r}: {exc}"
            ) from exc
    cache = None
    if args.cache:
        cache = PersistentEvaluationCache(
            args.cache, max_bytes=args.cache_max_bytes
        )
        try:
            # surface unreadable/unwritable paths now, not mid-request
            cache.warm()
            cache.store.open()
        except OSError as exc:
            raise _ServeSetupError(
                f"cannot open cache store {args.cache!r}: {exc}"
            ) from exc
    return EvaluationService(
        n_workers=args.workers, lane_block=args.lane_block, cache=cache,
        job_timeout=args.job_timeout, max_restarts=args.max_restarts,
    )


class _ServeSetupError(RuntimeError):
    """A serve flag that cannot be honoured; message is user-facing."""


def _build_journal(args):
    """The serve subcommand's write-ahead journal (or ``None``)."""
    from repro.resilience.durability import RequestJournal

    if not getattr(args, "journal", None):
        return None
    journal = RequestJournal(args.journal, fsync=not args.journal_no_fsync)
    try:
        journal.open()   # surface unwritable paths now, not mid-request
    except OSError as exc:
        raise _ServeSetupError(
            f"cannot open request journal {args.journal!r}: {exc}"
        ) from exc
    return journal


def _parse_serve_addresses(args):
    """Validate every serve listener spec up front; raises
    :class:`_ServeSetupError` so a typo exits 2 before any worker
    processes are spawned."""
    from repro.service.transport import parse_address

    addresses = {}
    for flag in ("tcp", "http", "metrics"):
        spec = getattr(args, flag, None)
        if not spec:
            continue
        try:
            addresses[flag] = parse_address(spec)
        except ValueError as exc:
            raise _ServeSetupError(f"bad --{flag} address: {exc}") from None
    if "metrics" in addresses and not (
        "tcp" in addresses or "http" in addresses
    ):
        raise _ServeSetupError(
            "--metrics needs a serving transport; pass --tcp or --http "
            "alongside it"
        )
    return addresses


def _build_tls_context(args):
    """An ``ssl.SSLContext`` from ``--tls-cert``/``--tls-key`` (or None)."""
    import ssl

    cert = getattr(args, "tls_cert", None)
    key = getattr(args, "tls_key", None)
    if not cert and not key:
        return None
    if not (cert and key):
        raise _ServeSetupError("--tls-cert and --tls-key must be passed "
                               "together")
    if not getattr(args, "http", None):
        raise _ServeSetupError("--tls-cert/--tls-key only apply to --http")
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    try:
        context.load_cert_chain(cert, keyfile=key)
    except (OSError, ssl.SSLError) as exc:
        raise _ServeSetupError(
            f"cannot load TLS certificate {cert!r}: {exc}"
        ) from exc
    return context


def _cmd_serve(args):
    import json

    from repro.service.jsonl import ServeSession, format_response

    try:
        addresses = _parse_serve_addresses(args)
        tls = _build_tls_context(args)
        service = _build_service(args)
        journal = _build_journal(args)
    except _ServeSetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if addresses:
        return _serve_network(args, addresses, tls, service, journal)
    session = ServeSession(service, journal=journal)
    pending = []
    submitted = 0
    parse_errors = 0
    with service:
        replayed = session.replay_journal()
        if replayed:
            print(
                f"journal: replayed {replayed} uncommitted request(s)",
                file=sys.stderr, flush=True,
            )
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            try:
                spec = json.loads(line)
                op_response = session.handle_op(spec)
                if op_response is not None:
                    print(json.dumps(op_response), flush=True)
                    continue
                pending.append(session.submit_spec(spec))
                submitted += 1
            except Exception as exc:
                parse_errors += 1
                print(json.dumps({"error": str(exc)}), flush=True)
            # flush responses already complete, keeping submission order
            while pending and pending[0][1].done():
                print(format_response(*pending.pop(0)), flush=True)
            if args.max_requests and submitted >= args.max_requests:
                break
        for item in pending:
            print(format_response(*item), flush=True)
        stats = session.stats()
    if journal is not None:
        journal.close()
    if args.stats:
        print(json.dumps({"stats": stats}), file=sys.stderr)
    return 1 if (parse_errors or stats["failed"]) else 0


def _serve_network(args, addresses, tls, service, journal=None):
    """Run the requested listeners -- framed TCP (``--tcp``), the HTTP
    gateway (``--http``) and the metrics sidecar (``--metrics``) -- on
    one event loop, sharing one service.  When both transports run, the
    gateway reuses the TCP server's session, so idempotency, the
    journal and workload caches are shared across protocols."""
    import asyncio
    import json
    import signal

    from repro.service.transport import AsyncEvaluationServer

    membership = None
    gossip = None
    replicator = None
    if getattr(args, "node_id", None):
        from repro.service.cluster import ClusterMembership, parse_peers

        membership = ClusterMembership(
            args.node_id, addresses.get("tcp") or addresses["http"],
            peers=parse_peers(getattr(args, "cluster_peers", None)),
            dead_after=getattr(args, "gossip_dead_after", 2.0),
        )
        factor = getattr(args, "replication_factor", 0) or 0
        if factor >= 2:
            from repro.service.replication import HintStore, Replicator

            hints = None
            if getattr(args, "hints", None):
                hints = HintStore(args.hints)
                try:
                    hints.load()    # truncate a torn tail, compact, then append
                    hints.open()    # surface unwritable paths now
                except OSError as exc:
                    raise _ServeSetupError(
                        f"cannot open hint store {args.hints!r}: {exc}"
                    ) from exc
            replicator = Replicator(
                args.node_id, service.cache, membership,
                factor=factor, hints=hints,
            )

    def _build_gateway(host, port, listener=None, sidecar=False):
        from repro.service.gateway import GatewayServer, MetricsSidecar

        return (MetricsSidecar if sidecar else GatewayServer)(
            service, host=host, port=port,
            auth_token=getattr(args, "auth_token", None),
            tls=None if sidecar else tls,
            journal=None if listener is not None else journal,
            membership=membership,
            request_timeout=args.request_timeout,
            max_inflight=getattr(args, "max_inflight", 64),
            max_inflight_per_client=getattr(
                args, "max_inflight_per_client", 16
            ),
            listener=listener,
        )

    async def run():
        servers = []
        primary = None
        try:
            if "tcp" in addresses:
                host, port = addresses["tcp"]
                primary = AsyncEvaluationServer(
                    service, host=host, port=port,
                    max_pending=args.max_pending,
                    request_timeout=args.request_timeout,
                    idle_timeout=args.idle_timeout,
                    journal=journal,
                    membership=membership,
                )
                # armed before start(): journal replay commits must fan
                # out to the replica set like any other commit
                primary.session.replicator = replicator
                await primary.start()
                servers.append(("listening on", primary))
            if "http" in addresses:
                host, port = addresses["http"]
                gateway = _build_gateway(host, port, listener=primary)
                if primary is None:
                    gateway.session.replicator = replicator
                await gateway.start()
                servers.append(("serving http on", gateway))
                if primary is None:
                    primary = gateway
            if "metrics" in addresses:
                host, port = addresses["metrics"]
                sidecar = _build_gateway(
                    host, port, listener=primary, sidecar=True
                )
                await sidecar.start()
                servers.append(("serving metrics on", sidecar))
        except OSError as exc:
            print(f"error: cannot bind: {exc}", file=sys.stderr)
            for _, server in servers:
                await server.aclose()
            return None
        loop = asyncio.get_running_loop()

        def stop_all():
            for _, server in servers:
                server.request_shutdown()

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop_all)
            except (NotImplementedError, RuntimeError):
                pass
        if membership is not None:
            # the bound port may differ from the requested one (port 0);
            # membership must advertise the real address
            membership.address = tuple(servers[0][1].address)
        for line, server in servers:
            bound = server.address
            print(f"{line} {bound[0]}:{bound[1]}", flush=True)
        # any listener's shutdown (op, endpoint or signal) drains them all
        waiters = [
            asyncio.ensure_future(server._shutdown_requested.wait())
            for _, server in servers
        ]
        await asyncio.wait(waiters, return_when=asyncio.FIRST_COMPLETED)
        for waiter in waiters:
            waiter.cancel()
        for _, server in servers:
            await server.aclose()
        return primary.snapshot()

    if membership is not None:
        from repro.service.cluster import GossipAgent

        if replicator is not None:
            replicator.start()
        gossip = GossipAgent(
            membership, interval=getattr(args, "gossip_interval", 0.25),
            replicator=replicator,
        ).start()
    try:
        with service:
            snapshot = asyncio.run(run())
    finally:
        if gossip is not None:
            gossip.stop()
        if replicator is not None:
            replicator.stop()
    if journal is not None:
        journal.close()
    if snapshot is None:   # bind failure, already reported
        return 2
    if args.stats:
        print(json.dumps({"stats": snapshot}), file=sys.stderr)
    return 0


def _cmd_supervise(args):
    import signal

    from repro.service.supervisor import Supervisor, SupervisorError

    child = list(args.child)
    if child and child[0] == "--":
        child = child[1:]
    try:
        supervisor = Supervisor(
            child,
            max_restarts=args.max_restarts,
            backoff_base=args.backoff_base,
            backoff_max=args.backoff_max,
            health_interval=args.health_interval,
            health_timeout=args.health_timeout,
            health_failures=args.health_failures,
        )
    except SupervisorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def on_signal(signum, frame):
        supervisor._stop.set()
        supervisor._terminate_child()

    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(sig, on_signal)
        except (ValueError, OSError):   # not the main thread (tests)
            pass
    return supervisor.run()


def _cmd_cluster(args):
    import json
    import threading
    import time

    from repro.resilience.chaos import pinned_workload
    from repro.resilience.retry import RetryPolicy
    from repro.service.client import ClientOptions
    from repro.service.cluster import Cluster, RouterClient

    workload = pinned_workload()
    cluster = Cluster(
        args.nodes, host=args.host, base_port=args.base_port,
        workers=args.workers, node_restarts=args.node_restarts,
        fleet_restarts=args.fleet_restarts, data_dir=args.data_dir,
        log=lambda line: print(line, file=sys.stderr, flush=True),
    )
    n_specs = len(workload.specs)
    per_client = (
        max(1, args.requests // args.clients) if args.requests else n_specs
    )
    errors, mismatches = [], [0]
    lock = threading.Lock()
    first_response = threading.Event()
    completed = [0]

    def drive(index):
        policy = RetryPolicy(
            seed=index, max_attempts=12, base_delay=0.05, max_delay=0.5,
            budget=120.0,
        )
        try:
            with RouterClient(
                [cluster.seed], options=ClientOptions(retry_policy=policy)
            ) as router:
                for n in range(per_client):
                    spec = workload.specs[n % n_specs]
                    want = workload.expected[n % n_specs]
                    got = router.evaluate(**spec)
                    first_response.set()
                    with lock:
                        completed[0] += 1
                        if got != want:
                            mismatches[0] += 1
        except Exception as exc:
            with lock:
                errors.append(f"client {index}: {exc!r}")

    with cluster:
        print(
            "cluster: "
            + " ".join(f"{h}:{p}" for h, p in cluster.addresses),
            file=sys.stderr, flush=True,
        )
        assassin = None
        victim = (args.nodes - 1) // 2
        if args.kill_one:
            def assassinate():
                first_response.wait(timeout=60.0)
                print(
                    f"cluster: SIGKILLing node n{victim} mid-run",
                    file=sys.stderr, flush=True,
                )
                cluster.kill_node(victim)

            assassin = threading.Thread(target=assassinate, daemon=True)
            assassin.start()
        started = time.perf_counter()
        threads = [
            threading.Thread(target=drive, args=(index,))
            for index in range(args.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        recovered = True
        if assassin is not None:
            assassin.join(timeout=5.0)
            # the clients can finish before the supervisor has noticed
            # the kill; the log must show the restart
            recovered = cluster.await_recovery(victim)
        membership = cluster.membership()
        snapshot = cluster.snapshot()
        if args.membership_log:
            with open(args.membership_log, "w") as handle:
                json.dump(
                    {"membership": membership, "fleet": snapshot},
                    handle, indent=2, sort_keys=True,
                )
        rate = completed[0] / elapsed if elapsed > 0 else 0.0
        print(
            f"cluster: {completed[0]} routed requests over {args.nodes} "
            f"node(s) in {elapsed:.2f}s ({rate:.2f} req/s, "
            f"{args.clients} clients)"
        )
        ok = not errors and not mismatches[0] and recovered
        if ok:
            print("cluster: all outcomes bit-exact vs single-node oracle")
        else:
            if not recovered:
                print(f"cluster: node n{victim} was not restarted or "
                      "revived after the kill", file=sys.stderr)
            for line in errors:
                print(f"cluster: {line}", file=sys.stderr)
            if mismatches[0]:
                print(
                    f"cluster: {mismatches[0]} outcome mismatch(es) vs "
                    "oracle", file=sys.stderr,
                )
        if args.serve and ok:
            seed = cluster.seed
            print(f"cluster: serving; seed address {seed[0]}:{seed[1]}",
                  flush=True)
            try:
                while True:
                    time.sleep(1.0)
            except KeyboardInterrupt:
                pass
    return 0 if ok else 1


def _cmd_chaos(args):
    from repro.resilience.chaos import chaos_sweep

    if getattr(args, "kill_replica", False):
        from repro.resilience.chaos import run_replication_kill

        result = run_replication_kill(
            n_nodes=args.cluster or 3, n_clients=args.clients,
            out_dir=args.out,
            log=lambda line: print(line, file=sys.stderr, flush=True),
        )
        print(f"chaos kill-replica: {result.summary()}")
        return 0 if result.ok else 1

    if args.gray:
        from repro.resilience.chaos import run_gray_comparison

        result = run_gray_comparison(
            n_nodes=args.gray, n_clients=args.clients,
            log=lambda line: print(line, file=sys.stderr, flush=True),
        )
        print(f"chaos gray: {result.summary()}")
        return 0 if result.ok else 1

    seeds = range(args.seed_start, args.seed_start + args.seeds)
    results = chaos_sweep(
        seeds, n_faults=args.faults, n_clients=args.clients,
        out_dir=args.out, shrink=not args.no_shrink,
        cluster_nodes=args.cluster,
    )
    failures = [result for result in results if not result.ok]
    fired = sum(len(result.fired) for result in results)
    print(
        f"chaos: {len(results) - len(failures)}/{len(results)} seeds "
        f"bit-exact ({fired} faults fired)"
    )
    if failures:
        where = f" in {args.out}" if args.out else ""
        print(
            "chaos: failing seeds "
            f"{[result.seed for result in failures]}; replayable plan "
            f"artifacts{where}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_ablation(args):
    from repro.experiments.ablations import (
        format_ablation,
        run_color_ablation,
        run_initial_state_ablation,
        run_random_walk_comparison,
    )

    if args.which == "colors":
        rows = run_color_ablation(args.grid)
        print(format_ablation("Colour-channel ablation", rows))
    elif args.which == "states":
        rows = run_initial_state_ablation(args.grid)
        print(format_ablation("Initial-control-state ablation", rows))
    else:
        rows = run_random_walk_comparison(args.grid)
        print(format_ablation("Random-walk baseline", rows))
    return 0


def _cmd_heuristics(args):
    from repro.experiments.heuristics import (
        format_heuristics,
        run_heuristic_comparison,
    )

    results = run_heuristic_comparison(
        kind=args.grid, n_random=args.fields, n_generations=args.generations
    )
    print(format_heuristics(results))
    return 0


def _cmd_structures(args):
    from repro.experiments.structures_exp import (
        format_structure_statistics,
        run_structure_statistics,
    )

    results = run_structure_statistics(n_runs=args.runs)
    print(format_structure_statistics(results))
    return 0


def _cmd_robustness(args):
    from repro.experiments.robustness import (
        format_robustness,
        run_seed_robustness,
    )

    rows = run_seed_robustness(
        n_agents=args.agents, seeds=tuple(range(1, args.seeds + 1)),
        n_random=args.fields,
    )
    print(format_robustness(rows))
    return 0


def _cmd_scaling(args):
    from repro.experiments.scaling import format_scaling, run_scaling

    rows = run_scaling(
        sizes=tuple(args.sizes), n_random=args.fields, t_max=args.t_max
    )
    print(format_scaling(rows))
    return 0


def _cmd_multicolor(args):
    from repro.experiments.multicolor_exp import (
        format_multicolor,
        run_multicolor_comparison,
    )

    results = run_multicolor_comparison(
        kind=args.grid,
        color_counts=tuple(args.colors),
        n_random=args.fields,
        n_generations=args.generations,
    )
    print(format_multicolor(results))
    return 0


def _cmd_environments(args):
    from repro.experiments.environments import (
        format_environment_rows,
        run_environment_comparison,
    )

    rows = run_environment_comparison(
        args.grid, n_random=args.fields, t_max=args.t_max
    )
    print(
        format_environment_rows(
            f"The published {args.grid}-agent across environment variants "
            "(evolved for the cyclic world)",
            rows,
        )
    )
    return 0


def _cmd_reproduce_all(args):
    import json

    from repro.experiments.campaign import (
        CampaignSettings,
        format_campaign,
        run_campaign,
    )
    from repro.io import save_results

    settings = CampaignSettings(
        n_random=args.fields,
        grid33_fields=args.grid33_fields,
        ablation_fields=args.ablation_fields,
        seed=args.seed,
        include_grid33=not args.skip_grid33,
        include_ablations=not args.skip_ablations,
    )
    report = run_campaign(
        settings, n_workers=args.workers,
        checkpoint_path=args.checkpoint, resume_from=args.resume,
    )
    print()
    print(format_campaign(report))
    if args.out:
        save_results(report.to_dict(), args.out)
        print(f"\nresults written to {args.out}")
    else:
        print()
        print(json.dumps(report.to_dict(), indent=2))
    return 0 if report.headline_ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro-a2a",
        description=(
            "CA agents for all-to-all communication in square and "
            "triangulate grids (Hoffmann & Deserable, PaCT 2013)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("topology", help="Eq. 1-3 / Fig. 2: grid metrics")
    sub.set_defaults(handler=_cmd_topology)

    sub = subparsers.add_parser("fsm", help="Fig. 3 / Fig. 4: published state tables")
    _add_grid_argument(sub)
    sub.set_defaults(handler=_cmd_fsm)

    sub = subparsers.add_parser("table1", help="Table 1 / Fig. 5: t_comm vs k")
    sub.add_argument("--fields", type=int, default=1000, help="random fields per suite")
    sub.add_argument("--seed", type=int, default=2013)
    sub.add_argument("--t-max", type=int, default=1000)
    _add_deprecated_alias(sub, "--tmax", "t_max", "--t-max")
    sub.add_argument(
        "--agents", type=int, nargs="*", default=None,
        help="agent counts (default: the paper's 2 4 8 16 32 256)",
    )
    sub.set_defaults(handler=_cmd_table1)

    sub = subparsers.add_parser("trace", help="Fig. 6 / Fig. 7: two-agent traces")
    _add_grid_argument(sub)
    sub.set_defaults(handler=_cmd_trace)

    sub = subparsers.add_parser("grid33", help="Sect. 5: 33 x 33 generalisation")
    sub.add_argument("--fields", type=int, default=1000)
    sub.add_argument("--seed", type=int, default=2013)
    sub.add_argument("--t-max", type=int, default=2000)
    _add_deprecated_alias(sub, "--tmax", "t_max", "--t-max")
    sub.set_defaults(handler=_cmd_grid33)

    sub = subparsers.add_parser("simulate", help="run one configuration")
    _add_grid_argument(sub)
    sub.add_argument("--size", type=int, default=16)
    sub.add_argument("--agents", type=int, default=8)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--t-max", type=int, default=1000)
    _add_deprecated_alias(sub, "--tmax", "t_max", "--t-max")
    sub.add_argument("--render", action="store_true", help="print the final panels")
    sub.set_defaults(handler=_cmd_simulate)

    sub = subparsers.add_parser("evolve", help="run the genetic procedure")
    _add_grid_argument(sub)
    sub.add_argument("--size", type=int, default=16)
    sub.add_argument("--agents", type=int, default=8)
    sub.add_argument("--fields", type=int, default=100)
    sub.add_argument("--generations", type=int, default=50)
    sub.add_argument("--pool-size", type=int, default=20)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--t-max", type=int, default=200)
    _add_deprecated_alias(sub, "--tmax", "t_max", "--t-max")
    sub.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="snapshot the run atomically to PATH so it can be resumed",
    )
    sub.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="generations between snapshots (default 1)",
    )
    sub.add_argument(
        "--resume", default=None, metavar="PATH",
        help="resume a run from a --checkpoint snapshot (bit-exact)",
    )
    sub.add_argument(
        "--backend", default=None,
        choices=["numpy", "numba", "pykernel"],
        help="simulator step backend; results are bit-identical across "
             "backends (numba falls back to numpy when not installed)",
    )
    sub.set_defaults(handler=_cmd_evolve)

    sub = subparsers.add_parser(
        "heuristics", help="mutation-only vs crossover vs random search"
    )
    _add_grid_argument(sub)
    sub.add_argument("--fields", type=int, default=40)
    sub.add_argument("--generations", type=int, default=20)
    sub.set_defaults(handler=_cmd_heuristics)

    sub = subparsers.add_parser(
        "structures", help="street/honeycomb statistics over ensembles"
    )
    sub.add_argument("--runs", type=int, default=30)
    sub.set_defaults(handler=_cmd_structures)

    sub = subparsers.add_parser(
        "robustness", help="Table 1 spread across random-field ensembles"
    )
    sub.add_argument("--agents", type=int, default=16)
    sub.add_argument("--seeds", type=int, default=5)
    sub.add_argument("--fields", type=int, default=300)
    sub.set_defaults(handler=_cmd_robustness)

    sub = subparsers.add_parser(
        "scaling", help="t_comm vs torus size at fixed density"
    )
    sub.add_argument("--sizes", type=int, nargs="*", default=[8, 12, 16, 24, 32])
    sub.add_argument("--fields", type=int, default=150)
    sub.add_argument("--t-max", type=int, default=4000)
    _add_deprecated_alias(sub, "--tmax", "t_max", "--t-max")
    sub.set_defaults(handler=_cmd_scaling)

    sub = subparsers.add_parser(
        "multicolor", help="evolve richer colour alphabets (further work)"
    )
    _add_grid_argument(sub)
    sub.add_argument("--colors", type=int, nargs="*", default=[2, 3, 4])
    sub.add_argument("--fields", type=int, default=40)
    sub.add_argument("--generations", type=int, default=15)
    sub.set_defaults(handler=_cmd_multicolor)

    sub = subparsers.add_parser(
        "environments", help="borders/obstacles/colour-carpet comparison"
    )
    _add_grid_argument(sub, default="S")
    sub.add_argument("--fields", type=int, default=200)
    sub.add_argument("--t-max", type=int, default=2000)
    _add_deprecated_alias(sub, "--tmax", "t_max", "--t-max")
    sub.set_defaults(handler=_cmd_environments)

    sub = subparsers.add_parser(
        "reproduce-all", help="run every experiment; optionally write JSON"
    )
    sub.add_argument("--out", default=None, help="write results JSON here")
    sub.add_argument("--fields", type=int, default=1000)
    sub.add_argument("--grid33-fields", type=int, default=300)
    sub.add_argument("--ablation-fields", type=int, default=300)
    sub.add_argument("--seed", type=int, default=2013)
    sub.add_argument("--skip-grid33", action="store_true")
    sub.add_argument("--skip-ablations", action="store_true")
    sub.add_argument(
        "--workers", type=int, default=None,
        help="shard the campaign's evaluations over worker processes",
    )
    sub.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="snapshot the campaign after each stage so it can be resumed",
    )
    sub.add_argument(
        "--resume", default=None, metavar="PATH",
        help="resume a campaign from a --checkpoint snapshot, skipping "
             "completed stages",
    )
    sub.set_defaults(handler=_cmd_reproduce_all)

    sub = subparsers.add_parser(
        "serve",
        help="long-lived evaluation service: JSON lines on stdin, or a "
             "TCP server with --tcp",
    )
    sub.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: 1, inline in the server "
             "process)",
    )
    _add_deprecated_alias(sub, "--n-workers", "workers", "--workers")
    sub.add_argument(
        "--lane-block", type=_lane_block, default="auto",
        help="lanes per evaluation batch (default: auto, 32768 // k lanes "
             "at k agents per field: 4096 at k = 8, 128 at k = 256; "
             "0 = one batch)",
    )
    sub.add_argument(
        "--max-requests", type=int, default=None,
        help="exit after this many requests (smoke tests)",
    )
    sub.add_argument(
        "--stats", action="store_true",
        help="print service/transport counters (incl. adaptive batching "
             "widths) to stderr at shutdown",
    )
    sub.add_argument(
        "--tcp", default=None, metavar="HOST:PORT",
        help="serve the framed TCP protocol on this address instead of "
             "stdin (port 0 binds an ephemeral port)",
    )
    sub.add_argument(
        "--http", default=None, metavar="HOST:PORT",
        help="serve the HTTP/1.1 + WebSocket gateway on this address "
             "(POST /v1/evaluate, /v1/evolve, GET /v1/health, /metrics, "
             "WS /v1/stream); combinable with --tcp, sharing one "
             "session",
    )
    sub.add_argument(
        "--metrics", default=None, metavar="HOST:PORT",
        help="additionally expose GET /metrics and /v1/health on this "
             "address (ops sidecar; requires --tcp or --http)",
    )
    sub.add_argument(
        "--auth-token", default=None, metavar="TOKEN",
        help="require `Authorization: Bearer TOKEN` (constant-time "
             "compare) on every gateway endpoint except GET /v1/health",
    )
    sub.add_argument(
        "--tls-cert", default=None, metavar="PATH",
        help="serve --http over TLS with this certificate chain",
    )
    sub.add_argument(
        "--tls-key", default=None, metavar="PATH",
        help="private key for --tls-cert",
    )
    sub.add_argument(
        "--max-inflight", type=int, default=64,
        help="gateway admission: global in-flight request budget; bulk "
             "requests stop at 75%% of it so interactive traffic is "
             "never starved (default 64)",
    )
    sub.add_argument(
        "--max-inflight-per-client", type=int, default=16,
        help="gateway admission: per-client in-flight bound before 429 "
             "(default 16)",
    )
    sub.add_argument(
        "--cache", default=None, metavar="PATH",
        help="persist the evaluation cache to this append-only JSONL "
             "store, shared across server runs",
    )
    sub.add_argument(
        "--max-pending", type=int, default=32,
        help="per-connection in-flight request budget before the server "
             "stops reading (TCP backpressure; default 32)",
    )
    sub.add_argument(
        "--request-timeout", type=float, default=None,
        help="seconds before an in-flight TCP request is cancelled",
    )
    sub.add_argument(
        "--idle-timeout", type=float, default=None,
        help="seconds of silence before an idle TCP connection is closed",
    )
    sub.add_argument(
        "--cache-max-bytes", type=int, default=None, metavar="N",
        help="compact the --cache store (dedupe superseded records) when "
             "it is loaded over this size",
    )
    sub.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="worker watchdog: a job exceeding this marks its workers "
             "hung; they are killed, restarted and the job requeued",
    )
    sub.add_argument(
        "--max-restarts", type=int, default=2,
        help="watchdog restarts per batch before the failure surfaces "
             "(default 2)",
    )
    sub.add_argument(
        "--fault-plan", default=None, metavar="PATH",
        help="chaos testing: arm a saved repro.resilience FaultPlan "
             "(seeded worker crashes, dropped sockets, torn cache writes)",
    )
    sub.add_argument(
        "--journal", default=None, metavar="PATH",
        help="write-ahead request journal: accepted requests with "
             "uncached work are fsync'd to this JSONL file before dispatch "
             "and replayed (uncommitted suffix only) on restart; pair with "
             "--cache so committed work is re-served without re-simulation",
    )
    sub.add_argument(
        "--journal-no-fsync", action="store_true",
        help="skip the per-accept fsync (faster, loses the write-ahead "
             "guarantee across power failure; process crashes still replay)",
    )
    sub.add_argument(
        "--node-id", default=None, metavar="NAME",
        help="cluster mode: this node's identity; enables gossip "
             "membership piggybacked on the health op",
    )
    sub.add_argument(
        "--cluster-peers", default=None, metavar="NODE=HOST:PORT,...",
        help="cluster mode: initial peer addresses to gossip with",
    )
    sub.add_argument(
        "--gossip-interval", type=float, default=0.25,
        help="seconds between gossip rounds (default 0.25)",
    )
    sub.add_argument(
        "--gossip-dead-after", type=float, default=2.0,
        help="seconds without gossip progress before a peer is reported "
             "suspect (default 2)",
    )
    sub.add_argument(
        "--replication-factor", type=int, default=0, metavar="R",
        help="cluster mode: asynchronously replicate committed results "
             "to the first R ring owners of each batch key (the "
             "router's failover chain), with anti-entropy digests on "
             "gossip; 0/1 disables (default 0; needs --node-id)",
    )
    sub.add_argument(
        "--hints", default=None, metavar="PATH",
        help="durable hinted-handoff JSONL for --replication-factor: "
             "records destined for an unreachable replica queue here "
             "and drain when gossip reports the peer alive",
    )
    sub.set_defaults(handler=_cmd_serve)

    sub = subparsers.add_parser(
        "cluster",
        help="launch an N-node supervised serve fleet with gossip "
             "membership, route the pinned T8 workload through the "
             "consistent-hash RouterClient, and assert bit-exactness vs "
             "a single-node oracle (optionally through a mid-run kill)",
    )
    sub.add_argument(
        "--nodes", type=int, default=3,
        help="fleet size (default 3)",
    )
    sub.add_argument(
        "--base-port", type=int, default=None,
        help="first port; node i binds base+i (default: free ephemeral "
             "ports)",
    )
    sub.add_argument(
        "--host", default="127.0.0.1",
        help="bind address for every node (default 127.0.0.1)",
    )
    sub.add_argument(
        "--workers", type=int, default=1,
        help="worker processes per node (default 1)",
    )
    sub.add_argument(
        "--clients", type=int, default=3,
        help="concurrent RouterClient threads driving the workload "
             "(default 3)",
    )
    sub.add_argument(
        "--requests", type=int, default=None,
        help="total routed requests (default: one per pinned spec per "
             "client)",
    )
    sub.add_argument(
        "--kill-one", action="store_true",
        help="SIGKILL one node mid-run; its supervisor must restart it "
             "and the run must stay bit-exact",
    )
    sub.add_argument(
        "--node-restarts", type=int, default=5,
        help="per-node supervisor restart budget (default 5)",
    )
    sub.add_argument(
        "--fleet-restarts", type=int, default=1,
        help="fleet-supervisor revivals per node after its own budget is "
             "exhausted (default 1)",
    )
    sub.add_argument(
        "--data-dir", default=None, metavar="DIR",
        help="per-node cache + journal directory (default: temporary)",
    )
    sub.add_argument(
        "--membership-log", default=None, metavar="PATH",
        help="write the final membership view + fleet snapshot as JSON "
             "(CI artifact)",
    )
    sub.add_argument(
        "--serve", action="store_true",
        help="after the workload check, keep the fleet up until SIGINT "
             "instead of exiting (prints the seed address)",
    )
    sub.set_defaults(handler=_cmd_cluster)

    sub = subparsers.add_parser(
        "supervise",
        help="run `serve --tcp` (and/or `serve --http`) as a supervised "
             "child: restart on crash "
             "or hang with exponential backoff, exit nonzero when the "
             "restart budget is exhausted",
    )
    sub.add_argument(
        "--max-restarts", type=int, default=5,
        help="restart budget before giving up (default 5)",
    )
    sub.add_argument("--backoff-base", type=float, default=0.5,
                     help="first restart delay in seconds (default 0.5)")
    sub.add_argument("--backoff-max", type=float, default=10.0,
                     help="restart delay ceiling in seconds (default 10)")
    sub.add_argument(
        "--health-interval", type=float, default=1.0,
        help="seconds between health probes (default 1)",
    )
    sub.add_argument(
        "--health-timeout", type=float, default=5.0,
        help="per-probe timeout before it counts as a failure (default 5)",
    )
    sub.add_argument(
        "--health-failures", type=int, default=3,
        help="consecutive failed probes before the child is declared hung "
             "and killed (default 3)",
    )
    sub.add_argument(
        "child", nargs=argparse.REMAINDER, metavar="-- serve --tcp ...",
        help="the child's serve arguments, after a `--` separator",
    )
    sub.set_defaults(handler=_cmd_supervise)

    sub = subparsers.add_parser(
        "chaos",
        help="randomized chaos search: sweep seeded fault plans against a "
             "pinned workload, assert bit-exactness, shrink failures to "
             "minimal replayable plans",
    )
    sub.add_argument(
        "--seeds", type=int, default=10,
        help="number of random fault plans to sweep (default 10)",
    )
    sub.add_argument(
        "--seed-start", type=int, default=0,
        help="first seed (plans are FaultPlan.random(seed); default 0)",
    )
    sub.add_argument(
        "--faults", type=int, default=4,
        help="faults per randomized plan (default 4)",
    )
    sub.add_argument(
        "--clients", type=int, default=3,
        help="concurrent hardened clients driving each run (default 3)",
    )
    sub.add_argument(
        "--out", default=None, metavar="DIR",
        help="write per-seed fault logs plus, on failure, the original "
             "and shrunk plan JSON artifacts into this directory",
    )
    sub.add_argument(
        "--no-shrink", action="store_true",
        help="skip ddmin minimisation of failing plans",
    )
    sub.add_argument(
        "--cluster", type=int, default=None, metavar="N",
        help="fleet battery: draw node-kill/link-partition plans and run "
             "each seed against a real N-node cluster",
    )
    sub.add_argument(
        "--gray", type=int, default=None, metavar="N",
        help="gray-failure battery: run the pinned workload on a healthy "
             "N-node fleet and again with one dispatch-stalled (gray) "
             "node; hedged routers must keep >=80%% of healthy "
             "throughput, bit-exact, with zero duplicate simulations",
    )
    sub.add_argument(
        "--kill-replica", action="store_true",
        help="replication battery: warm a replicated fleet (--cluster N, "
             "default 3), SIGKILL the primary owner mid-batch, and assert "
             "the failover pass is bit-exact with ZERO re-simulations "
             "(every answer served from a replica's warm cache); then "
             "exercise hinted handoff through a node restart and "
             "anti-entropy convergence through a partition heal",
    )
    sub.set_defaults(handler=_cmd_chaos)

    sub = subparsers.add_parser("ablation", help="colour/state/random-walk ablations")
    _add_grid_argument(sub)
    sub.add_argument(
        "--which", choices=("colors", "states", "randomwalk"), default="colors"
    )
    sub.set_defaults(handler=_cmd_ablation)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
