"""Serving smoke scenarios, each against a real ``repro-a2a serve`` child.

* the stdio JSON-lines loop answers a burst: one response per line, no
  errors, identical requests answered identically;
* the TCP server answers 50 concurrent requests from 10 connections
  bit-identically and exits 0 after a ``shutdown`` op;
* under a pinned fault plan (two worker kills, one dropped socket, one
  torn cache write) 50 hardened clients still get results bit-exact
  against a fault-free reference, every fault fires, and the torn cache
  store reloads to its one whole record;
* the ``--metrics`` sidecar beside ``--tcp`` exports the TCP listener's
  counters;
* ``serve --http --auth-token`` answers both priority classes and a
  WebSocket campaign, and exits 0 after ``POST /v1/shutdown``.
* a 3-node ``cluster`` serves 50 routed clients bit-exactly through one
  SIGKILLed node, whose supervisor restarts it before the membership
  log is written.

Run them with ``PYTHONPATH=src python -m pytest -m net tests/test_serve_smoke.py``.
"""

import asyncio
import json
import os
import subprocess
import sys
import threading

import pytest

from repro.resilience import FaultPlan, FaultSpec, RetryPolicy
from repro.resilience.faults import (
    CRASH,
    DISCONNECT,
    SITE_CACHE_APPEND,
    SITE_POOL_JOB,
    SITE_TRANSPORT_SEND,
    TORN_WRITE,
)
from repro.service import CacheStore, EvaluationService, TCPServiceClient
from repro.service.client import ClientOptions
from repro.service.jsonl import ServeSession, format_response
from repro.service.gateway import HTTPServiceClient, ws_encode_frame
from repro.service.transport import AsyncServiceClient, parse_address

from tests.test_gateway import ws_connect, ws_recv

pytestmark = pytest.mark.net

_WORKLOAD = {"grid": "T", "size": 16, "agents": 8, "fields": 20}


def test_stdio_burst_answers_every_line():
    lines = [
        {"id": "a", **_WORKLOAD},
        {"id": "b", **_WORKLOAD},
        {"id": "c", **_WORKLOAD, "grid": "S", "fsm": "evolved"},
    ]
    served = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--workers", "1", "--stats"],
        input="".join(json.dumps(line) + "\n" for line in lines),
        capture_output=True, text=True, timeout=300,
    )
    assert served.returncode == 0, served.stderr[-2000:]
    rows = {}
    for line in served.stdout.splitlines():
        row = json.loads(line)
        assert "error" not in row, row
        rows[row["id"]] = row
    assert set(rows) == {"a", "b", "c"}
    # identical requests must produce identical outcomes
    assert rows["a"]["outcomes"] == rows["b"]["outcomes"]
    for row in rows.values():
        assert row["outcomes"][0]["completely_successful"] is True


def test_tcp_concurrent_requests_are_bit_identical(spawn_serve):
    spec = {**_WORKLOAD, "seed": 2013, "t_max": 200}
    n_requests = 50
    server = spawn_serve("--stats")

    async def drive():
        clients = await asyncio.gather(
            *[AsyncServiceClient.connect(server.address) for _ in range(10)]
        )
        responses = await asyncio.gather(*[
            clients[i % len(clients)].request(dict(spec))
            for i in range(n_requests)
        ])
        ack = await clients[0].request({"op": "shutdown"})
        assert ack["ok"] is True
        for client in clients:
            await client.aclose()
        return responses

    responses = asyncio.run(drive())
    assert len(responses) == n_requests
    outcomes = [response["outcomes"] for response in responses]
    # identical workloads from concurrent clients: identical bits
    assert all(outcome == outcomes[0] for outcome in outcomes)
    assert outcomes[0][0]["completely_successful"] is True
    assert server.proc.wait(timeout=60) == 0


def test_fifty_clients_recover_bit_exactly_under_a_pinned_fault_plan(
    spawn_serve, tmp_path
):
    spec = {**_WORKLOAD, "seed": 2013, "t_max": 200,
            "fsm": ["published", "evolved"]}
    n_clients = 50
    plan_path = tmp_path / "chaos_plan.json"
    fault_log = tmp_path / "chaos_faults.jsonl"
    cache_path = tmp_path / "chaos_cache.jsonl"
    FaultPlan([
        FaultSpec(SITE_POOL_JOB, CRASH, at=1),
        FaultSpec(SITE_POOL_JOB, CRASH, at=2),
        FaultSpec(SITE_TRANSPORT_SEND, DISCONNECT, at=2),
        FaultSpec(SITE_CACHE_APPEND, TORN_WRITE, at=2),
    ], name="chaos-smoke").save(plan_path)

    with EvaluationService(n_workers=1) as reference:
        _, future = ServeSession(reference).submit_spec(dict(spec))
        expected = json.loads(format_response("ref", future))["outcomes"]

    server = spawn_serve(
        "--workers", "2", "--job-timeout", "60", "--max-restarts", "3",
        "--cache", str(cache_path), "--fault-plan", str(plan_path),
        "--stats", env=dict(os.environ, REPRO_FAULT_LOG=str(fault_log)),
    )
    outcomes = [None] * n_clients
    errors = []

    def drive(index):
        options = ClientOptions(retry_policy=RetryPolicy(
            seed=index, base_delay=0.02, max_delay=1.0))
        try:
            with TCPServiceClient(server.address, options=options) as client:
                outcomes[index] = client.request(dict(spec))["outcomes"]
        except Exception as exc:   # surfaced below
            errors.append(f"client {index}: {exc!r}")

    threads = [
        threading.Thread(target=drive, args=(index,))
        for index in range(n_clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert server.proc.poll() is None, "server died under the fault plan"
    with TCPServiceClient(server.address) as closer:
        health = closer.health()
        closer.shutdown()
    assert server.proc.wait(timeout=60) == 0
    assert not errors, errors[:3]
    assert all(outcome == expected for outcome in outcomes)
    with open(fault_log) as handle:
        fired = [json.loads(line) for line in handle]
    assert len(fired) == 4, fired
    assert health["pool"]["crash_recoveries"] >= 1, health
    # the torn line is dropped on reload; the whole record survives
    assert len(CacheStore(cache_path).load()) == 1


def test_metrics_sidecar_exports_the_tcp_listeners_counters(spawn_serve):
    n_requests = 3
    server = spawn_serve("--metrics", "127.0.0.1:0")
    line = server.proc.stdout.readline().strip()
    assert line.startswith("serving metrics on "), line
    with TCPServiceClient(server.address) as client:
        for seed in range(n_requests):
            client.evaluate(**_WORKLOAD, seed=seed)
    with HTTPServiceClient(parse_address(line.split()[-1])) as scrape:
        lines = scrape.metrics().splitlines()
    assert f"repro_transport_requests {n_requests}" in lines
    assert f"repro_transport_responses {n_requests}" in lines
    assert server.stop() == 0


def test_http_serving_with_a_token_answers_and_drains(spawn_serve):
    token = "ci-secret"
    server = spawn_serve("--auth-token", token, transport="--http")
    options = ClientOptions(auth_token=token, timeout=120)
    with HTTPServiceClient(server.address, options=options) as client:
        for priority in ("interactive", "bulk"):
            outcomes = client.evaluate(**_WORKLOAD, priority=priority)
            assert outcomes[0].completely_successful
        sock, reader = ws_connect(server.address, token=token)
        try:
            campaign = {**_WORKLOAD,
                        "fsm": ["published", "published", "evolved"]}
            sock.sendall(ws_encode_frame(json.dumps(campaign), mask=True))
            messages = [json.loads(ws_recv(reader)[1]) for _ in range(4)]
        finally:
            sock.close()
        assert [message.get("seq") for message in messages[:3]] == [0, 1, 2]
        assert messages[3] == {"id": None, "done": True, "n": 3}
        assert client.shutdown() is True
    assert server.proc.wait(timeout=60) == 0


def test_cluster_restarts_a_sigkilled_node(tmp_path):
    log_path = tmp_path / "membership.json"
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", "cluster", "--nodes", "3",
         "--clients", "50", "--kill-one",
         "--membership-log", str(log_path)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert "all outcomes bit-exact" in done.stdout
    log = json.loads(log_path.read_text())
    assert sorted(log["membership"]["nodes"]) == ["n0", "n1", "n2"]
    fleet = log["fleet"]["nodes"]
    assert sorted(fleet) == ["n0", "n1", "n2"]
    restarted = [node for node, row in fleet.items()
                 if row["restarts"] + row["revivals"] >= 1]
    assert restarted, fleet   # the SIGKILLed node really restarted
    assert all(row["status"] == "alive" for row in fleet.values())
