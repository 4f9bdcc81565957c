"""Serving smoke scenarios, each against a real ``repro-a2a serve`` child.

* the stdio JSON-lines loop answers a burst: one response per line, no
  errors, identical requests answered identically;
* the TCP server answers 50 concurrent requests from 10 connections
  bit-identically and exits 0 after a ``shutdown`` op.

Run them with ``PYTHONPATH=src python -m pytest -m net tests/test_serve_smoke.py``.
"""

import asyncio
import json
import subprocess
import sys

import pytest

from repro.service.transport import AsyncServiceClient

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
