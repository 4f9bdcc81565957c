"""The three benchmark workloads.

Each workload function takes the workload seed, the run length in
seconds and an optional :class:`tracing.Tracer`, and returns a
:class:`Outcome`: the end-to-end metrics, the raw samples behind them,
the spans of the traced window and the counts the result line prints.
Correctness checks run after the timed window and raise on a mismatch.

* ``evolve_T16`` -- the paper's GA on the 16 x 16 T grid: generation 0
  evaluates 20 random FSMs over 1003 fields; every later generation
  simulates 10 offspring, then mutates, dedups and selects.
* ``table1_ST16`` -- ``run_table1()`` at its defaults: the published S
  and T FSMs at k in {2, 4, 8, 16, 32, 256}, 1003 fields, 12 cells.
* ``serve_mixed`` -- one ``repro-a2a serve`` child (run as ``python -m
  repro serve``) with TCP and HTTP
  listeners, a persistent cache and an fsync'd journal, driven by one
  closed-loop TCP client and one closed-loop HTTP client; 90% of
  requests repeat an answered genome, 10% send a fresh one.
"""

import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import checks
import tracing
from calibration import Calibrator
from common import (
    BENCH_DIR,
    ROOT,
    BenchError,
    child_env,
    median,
    nproc,
    percentile,
    pid_peak_rss_mb,
    self_peak_rss_mb,
    tail_percentile,
)

#: Set-ups measured per run; the median is reported.  Table 1 and
#: serving set up in a fresh process each time, so they take fewer.
SETUP_REPEATS = 5
PROCESS_SETUP_REPEATS = 3

#: Scratch space for server files, inside the checkout.
TMP_DIR = ROOT / ".bench_tmp"


@dataclass
class Outcome:
    """What one workload run produced."""

    metrics: dict                    # end-to-end name -> value
    samples: dict                    # raw samples and their counts
    attempted: int
    failed: int
    spans: list = field(default_factory=list)
    window: tuple = (0.0, 0.0)       # monotonic start/end of traced span set
    extra: dict = field(default_factory=dict)


def _tail(values_ms):
    """``(percentile, value)``: the highest percentile with ten samples
    beyond it, or the maximum when there are too few samples."""
    q = tail_percentile(len(values_ms))
    if q is None:
        return "max", max(values_ms)
    return f"p{q}", percentile(values_ms, q)


def _timing(fast, slow, done, busy):
    """The timing metrics at reference speed, the same raw, and the light
    operation's tail at reference speed.

    ``fast`` and ``slow`` are per-unit ``(seconds, factor)`` samples of
    the workload's light and heavy operation; ``done`` units took the
    ``(seconds, factor)`` samples in ``busy``.  ``factor`` takes a raw
    time to reference speed (:mod:`calibration`).  The tail is kept in
    the record only (see README).
    """
    def metrics(scaled):
        return {
            "throughput_per_s": done / sum(scaled(u) for u in busy),
            "fast_p50_ms": median([scaled(u) * 1e3 for u in fast]),
            "slow_p50_ms": median([scaled(u) * 1e3 for u in slow]),
        }

    tail_name, tail_ms = _tail([seconds * factor * 1e3
                                for seconds, factor in fast])
    return (metrics(lambda unit: unit[0] * unit[1]),
            metrics(lambda unit: unit[0]),
            {"percentile": tail_name, "ms": tail_ms})


def _setup(calibrator, set_up, repeats):
    """``(median at reference speed, raw samples)`` of ``repeats`` calls of
    ``set_up``, which returns the seconds one set-up took."""
    before = calibrator.probe()
    raw = [set_up() for _ in range(repeats)]
    return median(raw) * Calibrator.factor(before, calibrator.probe()), raw


# -- evolve_T16 ---------------------------------------------------------------

def evolve_generations(seconds):
    """Generations after generation 0: fixed by the run length, so both
    sides of a comparison do the same work.  On a 2-core x86 box
    generation 0 takes about 8 s and each later one about 4 s."""
    return max(2, int(seconds) // 5)


def evolve_T16(seed, seconds, tracer=None):
    from repro import api

    if tracer is not None:
        tracing.install_compute(tracer)
        tracing.install_ga(tracer)
    started = time.monotonic()
    calibrator = Calibrator()
    built = {}

    def build():
        t0 = time.perf_counter()
        built["grid"] = api.make_grid("T", 16)
        built["suite"] = api.paper_suite(built["grid"], 8, n_random=1000,
                                         seed=seed)
        return time.perf_counter() - t0

    setup_s, setups = _setup(calibrator, build, SETUP_REPEATS)
    grid, suite = built["grid"], built["suite"]
    settings = api.EvolutionSettings(
        n_generations=evolve_generations(seconds), pool_size=20, t_max=200,
        seed=seed,
    )
    units = []          # (seconds, factor) per generation, 0 first
    last = {"probe": calibrator.probe()}

    def generation_done(record):
        seconds = time.perf_counter() - last["start"]
        probe = calibrator.probe()
        units.append((seconds, Calibrator.factor(last["probe"], probe)))
        last["probe"] = probe
        last["start"] = time.perf_counter()

    last["start"] = time.perf_counter()
    result = api.evolve(grid, suite=suite, settings=settings,
                        progress=generation_done)
    finished = time.monotonic()
    peak = self_peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    memo = result.population.evaluator.cache.stats()
    checks.check_evolve(grid, suite, result, settings.t_max, seed)

    generations = units[1:]
    reference, raw, tail = _timing(
        fast=generations, slow=units[:1], done=len(generations),
        busy=generations,
    )
    metrics = {"setup_s": setup_s, "peak_rss_mb": peak, **reference}
    samples = {
        "raw": raw,
        "tail": tail,
        "setup_s": setups,
        "generation_s_factor": units,
        "best_fitness": result.best.fitness,
        "memo": memo,
    }
    return Outcome(
        metrics, samples, attempted=len(units), failed=0,
        spans=tracer.spans if tracer is not None else [],
        window=(started, finished),
        extra={"memo_hit_ratio": memo["hits"] / max(
            1, memo["hits"] + memo["misses"])},
    )


# -- table1_ST16 --------------------------------------------------------------

#: Everything ``run_table1`` does before its first cell, in a fresh
#: interpreter: importing the package and the table's preamble (an empty
#: agent-count list runs the preamble and no cell).
_TABLE1_SETUP = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "from repro.experiments.table1 import run_table1\n"
    "run_table1(agent_counts=())\n"
    "print(time.perf_counter() - t0)\n"
)


def _table1_setup_s():
    done = subprocess.run(
        [sys.executable, "-c", _TABLE1_SETUP], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=False,
    )
    if done.returncode != 0:
        raise BenchError(f"table1 set-up probe failed: {done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


class TimedSerialPool:
    """A ``pool=`` for ``run_table1`` that runs each cell in this process,
    in order, timing it between two calibration probes."""

    inline = False

    def __init__(self):
        self.calibrator = Calibrator()
        self.cells = []     # (n_agents, kind, seconds, factor)
        self._probe = None

    def map_ordered(self, fn, payloads):
        results = []
        for payload in payloads:
            if self._probe is None:
                self._probe = self.calibrator.probe(repeats=1)
            t0 = time.perf_counter()
            results.append(fn(payload))
            seconds = time.perf_counter() - t0
            probe = self.calibrator.probe(repeats=1)
            self.cells.append((payload[2], payload[0], seconds,
                               Calibrator.factor(self._probe, probe)))
            self._probe = probe
        return results


def _mean_unit(table, keep):
    """One ``(seconds, factor)`` unit: the mean of the kept cells of one
    table, raw, with the factor that takes that mean to reference speed.
    The cells differ by k, so a per-table mean is steadier than a median
    over cells of mixed kinds."""
    cells = [cell for cell in table if keep(cell)]
    raw = sum(cell[2] for cell in cells) / len(cells)
    return raw, sum(cell[2] * cell[3] for cell in cells) / len(cells) / raw


def table1_ST16(seed, seconds, tracer=None):
    from repro.experiments.table1 import run_table1

    setup_s, setups = _setup(Calibrator(), _table1_setup_s,
                             PROCESS_SETUP_REPEATS)
    if tracer is not None:
        tracing.install_compute(tracer, table1=True)
    started = time.monotonic()
    sweeps, pool, rows = [], TimedSerialPool(), None
    while not sweeps or sum(sweeps) < seconds:
        t0 = time.perf_counter()
        rows = run_table1(seed=seed, pool=pool)
        sweeps.append(time.perf_counter() - t0)
    finished = time.monotonic()
    peak = self_peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    checks.check_table1(rows, seed)

    packed = max(cell[0] for cell in pool.cells)
    per_table = len(pool.cells) // len(sweeps)
    tables = [pool.cells[i:i + per_table]
              for i in range(0, len(pool.cells), per_table)]
    units = [(cell[2], cell[3]) for cell in pool.cells]
    reference, raw, tail = _timing(
        fast=[_mean_unit(t, lambda cell: cell[0] != packed) for t in tables],
        slow=[_mean_unit(t, lambda cell: cell[0] == packed) for t in tables],
        done=len(units), busy=units,
    )
    metrics = {"setup_s": setup_s, "peak_rss_mb": peak, **reference}
    samples = {
        "raw": raw,
        "tail": tail,
        "setup_s": setups,
        "table1.wall_s": median(
            [sum(cell[2] for cell in table) for table in tables]),
        "cells": pool.cells,
        "table": {k: [row.t_time, row.s_time] for k, row in rows.items()},
    }
    return Outcome(
        metrics, samples, attempted=len(pool.cells), failed=0,
        spans=tracer.spans if tracer is not None else [],
        window=(started, finished),
    )


# -- serve_mixed --------------------------------------------------------------

#: Every request's workload: one genome at T16, k=8, 100 fields.
SERVE_SPEC = {"grid": "T", "size": 16, "agents": 8, "fields": 100,
              "t_max": 200}
#: Genomes answered before the window; repeats draw from these.
WARM_GENOMES = 40
#: One request in each block of this many sends a never-seen genome, at
#: a seeded position; the rest repeat answered ones.  A fixed share
#: (rather than a coin per request) keeps the miss count of a run from
#: varying with the seed.
FRESH_EVERY = 10
#: Load-generator clients: one TCP, one HTTP, each closed loop.
CLIENTS = ("tcp", "http")
#: The window is cut into segments about this long.  At each boundary
#: the clients finish their request and wait while the calibrator
#: probes the idle machine, so every request is taken to reference
#: speed by probes at most one segment away.
SEGMENT_S = 2.0


def serve_flags(cache, journal):
    """The exact ``serve`` flags the workload runs."""
    return ["serve", "--workers", "1", "--tcp", "127.0.0.1:0",
            "--http", "127.0.0.1:0", "--cache", str(cache),
            "--journal", str(journal)]


def genome_spec(fsm):
    return {"genome": fsm.genome().tolist()}


class Server:
    """One ``serve`` child process, started and stopped by the benchmark."""

    def __init__(self, workdir, tag, trace_out=None):
        flags = serve_flags(workdir / f"{tag}.cache.jsonl",
                            workdir / f"{tag}.journal.jsonl")
        if trace_out is None:
            self.argv = [sys.executable, "-m", "repro"] + flags
        else:
            self.argv = [sys.executable,
                         str(BENCH_DIR / "serve_launcher.py"),
                         str(trace_out)] + flags
        self.out_path = workdir / f"{tag}.out"
        self.err_path = workdir / f"{tag}.err"
        self.process = None
        self.tcp = self.http = None

    def start(self, timeout=60.0):
        """Spawn and wait until both listeners answer ``health``;
        returns the seconds that took."""
        from repro.service.gateway import HTTPServiceClient
        from repro.service.transport import TCPServiceClient

        t0 = time.perf_counter()
        with open(self.out_path, "w") as out, \
                open(self.err_path, "w") as err:
            self.process = subprocess.Popen(
                self.argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                env=child_env(), cwd=ROOT,
            )
        addresses = {}
        while len(addresses) < 2:
            if self.process.poll() is not None:
                raise BenchError(
                    f"server exited with {self.process.returncode}: "
                    f"{self.err_path.read_text()[-2000:]}")
            if time.perf_counter() - t0 > timeout:
                raise BenchError("server did not start listening")
            for line in self.out_path.read_text().splitlines():
                for prefix, name in (("listening on ", "tcp"),
                                     ("serving http on ", "http")):
                    if line.startswith(prefix):
                        host, port = line[len(prefix):].rsplit(":", 1)
                        addresses[name] = (host, int(port))
            time.sleep(0.002)
        self.tcp = addresses["tcp"]
        self.http = addresses["http"]
        with TCPServiceClient(*self.tcp) as tcp:
            tcp.health()
        with HTTPServiceClient(*self.http) as http:
            http.health()
        return time.perf_counter() - t0

    def stop(self, timeout=30.0):
        """Graceful shutdown; kills the child if it does not exit."""
        from repro.service.transport import TCPServiceClient

        if self.process is None:
            return
        try:
            if self.process.poll() is None and self.tcp is not None:
                with TCPServiceClient(*self.tcp) as tcp:
                    tcp.shutdown()
                self.process.wait(timeout=timeout)
        except (OSError, RuntimeError, subprocess.TimeoutExpired):
            pass   # a server that cannot take the shutdown op is killed
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=timeout)


@dataclass
class Reply:
    client: str
    fresh: bool
    key: bytes
    start: float
    end: float
    outcome: object = None
    error: str = None
    refused: bool = False
    segment: int = 0


def _client_loop(name, address, seed, index, known, plan, barrier,
                 replies, tracer):
    """One closed-loop client: send, wait for the answer, repeat.

    For each of ``plan["segments"]`` segments it waits at ``barrier``,
    runs until ``plan["deadline"]`` (set before the barrier opens), and
    meets the barrier again once its last request is answered.
    """
    from repro.core.fsm import FSM
    from repro.service.gateway import ERR_OVERLOADED, HTTPServiceClient
    from repro.service.transport import TCPServiceClient

    choose = np.random.default_rng([seed, index, 1])
    fresh_rng = np.random.default_rng([seed, index, 2])
    client_class = TCPServiceClient if name == "tcp" else HTTPServiceClient
    n, fresh_slot = 0, 0
    with client_class(*address) as client:
        for segment in range(plan["segments"]):
            barrier.wait()
            deadline = plan["deadline"]
            while time.monotonic() < deadline:
                if n % FRESH_EVERY == 0:
                    fresh_slot = int(choose.integers(FRESH_EVERY))
                fresh = n % FRESH_EVERY == fresh_slot
                if fresh:
                    fsm = FSM.random(fresh_rng)
                else:
                    fsm = known[int(choose.integers(len(known)))]
                reply = Reply(name, fresh, fsm.key(), 0.0, 0.0,
                              segment=segment)
                spec = dict(SERVE_SPEC, seed=seed, fsm=genome_spec(fsm))
                if tracer is not None:
                    tracer.set_request(f"{name}-{n}")
                reply.start = time.monotonic()
                try:
                    if tracer is not None:
                        result = tracer.record("request", client.evaluate,
                                               (), spec)
                    else:
                        result = client.evaluate(**spec)
                    reply.outcome = result[0]
                except Exception as exc:   # counted as failed, never hidden
                    reply.error = repr(exc)
                    reply.refused = (getattr(exc, "code", None)
                                     == ERR_OVERLOADED)
                reply.end = time.monotonic()
                replies.append(reply)
                n += 1
            barrier.wait()


def run_load(server, seed, seconds, known, calibrator, tracer=None):
    """Drive ``server`` with the closed-loop clients for ``seconds``.

    Opens one thread and one connection per client and nothing else
    while the window runs, and never more clients than cores, so the
    load generator does not compete with the server for a processor it
    has not got.  Returns ``(replies, segments)``, one ``(start, end,
    factor)`` per segment.
    """
    if len(CLIENTS) > nproc():
        raise BenchError(f"{len(CLIENTS)} load clients on {nproc()} cores")
    plan = {"segments": max(1, round(seconds / SEGMENT_S))}
    length = seconds / plan["segments"]
    replies, segments = [], []
    barrier = threading.Barrier(len(CLIENTS) + 1, timeout=60)
    threads = [
        threading.Thread(
            target=_client_loop, name=f"load-{name}",
            args=(name, server.tcp if name == "tcp" else server.http, seed,
                  index, known, plan, barrier, replies, tracer),
        )
        for index, name in enumerate(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    probe = calibrator.probe()
    for _ in range(plan["segments"]):
        start = time.monotonic()
        plan["deadline"] = start + length
        barrier.wait()
        barrier.wait()
        end = time.monotonic()
        after = calibrator.probe()
        segments.append((start, end, Calibrator.factor(probe, after)))
        probe = after
    for thread in threads:
        thread.join()
    return replies, segments


def fsm_from_key(key):
    from repro.core.fsm import FSM

    return FSM.from_genome(np.frombuffer(key, dtype=np.int8).reshape(-1, 4))


def serve_mixed(seed, seconds, tracer=None):
    import json

    from repro.core.fsm import FSM
    from repro.service.transport import TCPServiceClient

    workdir = TMP_DIR / f"serve-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    trace_out = workdir / "server-spans.json" if tracer else None
    calibrator = Calibrator()
    servers = []

    def spawn():
        last = len(servers) == PROCESS_SETUP_REPEATS - 1
        server = Server(workdir, f"spawn{len(servers)}",
                        trace_out if last else None)
        servers.append(server)
        seconds = server.start()
        if not last:
            server.stop()
        return seconds

    try:
        setup_s, setups = _setup(calibrator, spawn, PROCESS_SETUP_REPEATS)
        server = servers[-1]
        known_rng = np.random.default_rng([seed, 0])
        known, keys = [], set()
        while len(known) < WARM_GENOMES:
            fsm = FSM.random(known_rng)
            if fsm.key() not in keys:
                keys.add(fsm.key())
                known.append(fsm)
        if tracer is not None:
            tracing.install_clients(tracer)
        with TCPServiceClient(*server.tcp) as control:
            warm = control.evaluate_many([
                dict(SERVE_SPEC, seed=seed, fsm=genome_spec(fsm))
                for fsm in known
            ])
            before = control.stats()["service"]
        replies, segments = run_load(server, seed, seconds, known,
                                     calibrator, tracer)
        with TCPServiceClient(*server.tcp) as control:
            after = control.stats()["service"]
        peak = pid_peak_rss_mb(server.process.pid)
        server.stop()
        if tracer is not None:
            tracer.uninstall()
        server_spans = (json.loads(trace_out.read_text())
                        if trace_out is not None else [])
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    _check_serve(seed, known, warm, replies, before, after)
    return _serve_outcome(replies, segments, before, after, peak, setup_s,
                          setups, tracer, server_spans)


def _check_serve(seed, known, warm, replies, before, after):
    """Every answer equals in-process ``api.evaluate`` of its genome, and
    the server simulated each fresh genome of the window exactly once."""
    from repro import api

    ok = [r for r in replies if r.error is None]
    if not ok:
        raise BenchError("serve: every request failed, first: "
                         f"{replies[0].error if replies else 'none sent'}")
    fresh = {r.key for r in replies if r.fresh}
    known_keys = [fsm.key() for fsm in known]
    if (len(fresh) != sum(r.fresh for r in replies)
            or fresh.intersection(known_keys)):
        raise BenchError("serve: a fresh genome was drawn twice")
    distinct = known_keys + sorted(fresh)
    outcomes = api.evaluate(
        **dict(SERVE_SPEC, seed=seed),
        fsm=[genome_spec(fsm_from_key(key)) for key in distinct],
    )
    expected = dict(zip(distinct, outcomes))
    responses = [(fsm.key(), result[0]) for fsm, result in zip(known, warm)]
    responses += [(r.key, r.outcome) for r in ok]
    checks.check_serve(
        responses, expected,
        after["simulated_fsms"] - before["simulated_fsms"],
        fresh_answered=sum(r.fresh for r in ok), fresh_sent=len(fresh),
    )


def _percentiles(values_ms, tail_candidates):
    q = tail_percentile(len(values_ms), tail_candidates)
    return {
        "count": len(values_ms),
        "p50_ms": median(values_ms),
        "tail": f"p{q}" if q is not None else "max",
        "tail_ms": (percentile(values_ms, q) if q is not None
                    else max(values_ms)),
    }


def _serve_outcome(replies, segments, before, after, peak, setup_s, setups,
                   tracer, server_spans):
    factors = [factor for _, _, factor in segments]
    hits = [r for r in replies if not r.fresh]
    misses = [r for r in replies if r.fresh]
    failed = sum(r.error is not None for r in replies)
    reference, raw, _ = _timing(
        fast=[(r.end - r.start, factors[r.segment]) for r in hits],
        slow=[(r.end - r.start, factors[r.segment]) for r in misses],
        done=len(replies) - failed,
        busy=[(end - start, factor) for start, end, factor in segments],
    )
    metrics = {"setup_s": setup_s, "peak_rss_mb": peak, **reference}

    def at_reference(group, candidates):
        return _percentiles(
            [(r.end - r.start) * factors[r.segment] * 1e3 for r in group],
            candidates)

    samples = {
        "raw": raw,
        "segment_factors": factors,
        "setup_s": setups,
        "hit": at_reference(hits, (99, 95, 90)),
        "miss": at_reference(misses, (95, 90, 75)),
        "window_s": sum(end - start for start, end, _ in segments),
        "failed_ratio": failed / len(replies),
        "refused": sum(r.refused for r in replies),
        "per_client": {
            name: sum(r.client == name for r in replies)
            for name in CLIENTS
        },
        "stats_before": before,
        "stats_after": after,
    }
    return Outcome(
        metrics, samples, attempted=len(replies), failed=failed,
        spans=tracer.spans if tracer is not None else [],
        window=(segments[0][0], segments[-1][1]),
        extra={"server_spans": server_spans},
    )
