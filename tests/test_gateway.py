"""Gateway battery: the HTTP/1.1 + WebSocket front door.

Pins the tentpole guarantees of ``serve --http``: bit-exactness of
HTTP-carried evaluations against the in-process oracle under a
mixed-priority multi-client load, token auth, deterministic 429
admission refusals with no priority inversion, in-order WebSocket
streaming, the ``/metrics`` exposition shape, per-connection fault
isolation, and the unified :class:`repro.service.Client` protocol
across all five client implementations.
"""

import base64
import contextlib
import http.client
import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
import warnings

import pytest

from repro.service import (
    Client,
    ClientOptions,
    EvaluationService,
    ServiceClient,
)
from repro.service.cluster import RouterClient
from repro.service.gateway import (
    ERR_OVERLOADED,
    ERR_UNAUTHORIZED,
    HTTPServiceClient,
    websocket_accept,
    ws_encode_frame,
)
from repro.service.jsonl import ServeSession, outcome_to_dict
from repro.service.transport import TCPServiceClient, TransportError

from tests.conftest import GatewayInThread, ServerInThread


def make_spec(seed, priority=None, **overrides):
    """One tiny wire spec; distinct seeds give distinct outcomes."""
    spec = {
        "grid": "T",
        "size": 8,
        "agents": 4,
        "fields": 2,
        "seed": int(seed),
        "t_max": 40,
        "fsm": "published",
    }
    if priority is not None:
        spec["priority"] = priority
    spec.update(overrides)
    return spec


def oracle_outcomes(specs):
    """In-process oracle: each spec's outcome list via a ServeSession."""
    with EvaluationService(n_workers=1) as service:
        session = ServeSession(service)
        futures = [session.submit_spec(dict(spec))[1] for spec in specs]
        return [future.result(120) for future in futures]


def http_request(address, method, path, body=None, headers=()):
    """One raw round trip; ``(status, headers, decoded_body)``.

    Used where the test needs response headers (``Retry-After``,
    ``Allow``) that :class:`HTTPServiceClient` intentionally hides.
    """
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        conn.request(method, path, body=body, headers=dict(headers))
        response = conn.getresponse()
        raw = response.read()
        decoded = (
            json.loads(raw)
            if "json" in response.headers.get("Content-Type", "")
            else raw.decode()
        )
        return response.status, dict(response.headers), decoded
    finally:
        conn.close()


# -- Client protocol conformance -------------------------------------------


def assert_client_conforms(client):
    """The functional contract every Client implementation shares."""
    assert isinstance(client, Client)
    results = client.evaluate(**make_spec(3))
    assert len(results) == 1
    assert results[0].n_fields >= 2   # fields=2 random + fixed fields
    many = client.evaluate_many([make_spec(4), make_spec(5)])
    assert [len(r) for r in many] == [1, 1]
    assert many[0][0] != many[1][0]   # distinct seeds, distinct outcomes
    assert client.health().get("ok") is True
    assert isinstance(client.stats(), dict)
    with client:
        pass   # context-manager surface; exit closes


class TestClientProtocol:
    def test_service_client_conforms(self):
        with EvaluationService(n_workers=1) as service:
            assert_client_conforms(ServiceClient(service))

    def test_tcp_client_conforms(self):
        with EvaluationService(n_workers=1) as service:
            with ServerInThread(service) as server:
                assert_client_conforms(
                    TCPServiceClient(server.address,
                                     options=ClientOptions(timeout=60))
                )

    def test_http_client_conforms(self):
        with EvaluationService(n_workers=1) as service:
            with GatewayInThread(service) as gw:
                assert_client_conforms(
                    HTTPServiceClient(gw.address,
                                      options=ClientOptions(timeout=60))
                )

    def test_router_client_conforms(self):
        with EvaluationService(n_workers=1) as service:
            with ServerInThread(service) as server:
                host, port = server.address
                assert_client_conforms(
                    RouterClient([f"tcp://{host}:{port}"],
                                 options=ClientOptions(timeout=60))
                )

    def test_async_client_conforms(self):
        import asyncio

        from repro.service.transport import AsyncServiceClient

        with EvaluationService(n_workers=1) as service:
            with ServerInThread(service) as server:

                async def run():
                    client = await AsyncServiceClient.connect(
                        *server.address
                    )
                    try:
                        results = await client.evaluate(**make_spec(3))
                        assert len(results) == 1
                        many = await client.evaluate_many(
                            [make_spec(4), make_spec(5)]
                        )
                        assert [len(r) for r in many] == [1, 1]
                        health = await client.health()
                        assert health.get("ok") is True
                        assert isinstance(await client.stats(), dict)
                    finally:
                        await client.aclose()

                asyncio.run(run())

    def test_async_client_declares_the_protocol_surface(self):
        from repro.service.transport import AsyncServiceClient

        for name in ("evaluate", "evaluate_many", "health", "stats",
                     "close"):
            assert callable(getattr(AsyncServiceClient, name))


# -- bit-exactness under multi-client mixed-priority load ------------------


class TestBitExactness:
    def test_50_clients_mixed_priority_match_the_oracle(self):
        n_clients = 50
        specs = [
            make_spec(seed,
                      "interactive" if seed % 2 == 0 else "bulk")
            for seed in range(n_clients)
        ]
        expected = oracle_outcomes(specs)

        with EvaluationService(n_workers=2) as service:
            with GatewayInThread(service) as gw:
                outcomes = [None] * n_clients
                errors = []

                def drive(index):
                    try:
                        with HTTPServiceClient(
                            gw.address, client_id=f"client-{index}"
                        ) as client:
                            outcomes[index] = client.evaluate(
                                **specs[index]
                            )
                    except Exception as exc:   # surfaced after join
                        errors.append((index, exc))

                threads = [
                    threading.Thread(target=drive, args=(index,))
                    for index in range(n_clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(120)
                assert not errors
                assert outcomes == expected
                by_priority = service.snapshot()["by_priority"]
                assert by_priority["interactive"] == n_clients // 2
                assert by_priority["bulk"] == n_clients // 2
                snap = gw.gateway.admission.snapshot()
                assert snap["admitted"]["interactive"] == n_clients // 2
                assert snap["admitted"]["bulk"] == n_clients // 2
                assert snap["rejected"] == {"interactive": 0, "bulk": 0}


# -- auth ------------------------------------------------------------------


class TestAuth:
    def test_token_gates_everything_but_health(self):
        expected = oracle_outcomes([make_spec(3)])[0]
        with EvaluationService(n_workers=1) as service:
            with GatewayInThread(service, auth_token="sekrit") as gw:
                anon = HTTPServiceClient(gw.address)
                with pytest.raises(TransportError) as excinfo:
                    anon.evaluate(**make_spec(3))
                assert excinfo.value.code == ERR_UNAUTHORIZED
                with pytest.raises(TransportError):
                    anon.stats()
                with pytest.raises(TransportError):
                    anon.metrics()
                # health stays open for supervision probes
                assert anon.health().get("ok") is True

                wrong = HTTPServiceClient(
                    gw.address,
                    options=ClientOptions(auth_token="nope"),
                )
                with pytest.raises(TransportError) as excinfo:
                    wrong.evaluate(**make_spec(3))
                assert excinfo.value.code == ERR_UNAUTHORIZED

                good = HTTPServiceClient(
                    gw.address,
                    options=ClientOptions(auth_token="sekrit"),
                )
                assert good.evaluate(**make_spec(3)) == expected
                assert gw.gateway.stats.unauthorized >= 3

    def test_401_carries_www_authenticate(self):
        with EvaluationService(n_workers=1) as service:
            with GatewayInThread(service, auth_token="sekrit") as gw:
                status, headers, body = http_request(
                    gw.address, "GET", "/v1/stats"
                )
                assert status == 401
                assert headers.get("WWW-Authenticate") == "Bearer"
                assert body["error"]["code"] == ERR_UNAUTHORIZED


# -- admission: deterministic 429, no priority inversion -------------------


class TestAdmission:
    def test_bulk_429_while_interactive_still_admitted(self):
        """With the dispatcher stopped, admissions pend deterministically:
        bulk hits its fractional budget (429) while interactive requests
        are still admitted, so saturating bulk load cannot invert
        priority; once the dispatcher starts everything completes
        bit-exactly."""
        specs = {
            "bulk-0": make_spec(10, "bulk"),
            "bulk-1": make_spec(11, "bulk"),
            "int-0": make_spec(12, "interactive"),
            "int-1": make_spec(13, "interactive"),
        }
        expected = dict(zip(
            specs, oracle_outcomes(list(specs.values()))
        ))

        service = EvaluationService(n_workers=1, autostart=False)
        try:
            with GatewayInThread(service, max_inflight=4,
                                 bulk_fraction=0.5) as gw:
                admission = gw.gateway.admission
                assert admission.bulk_limit == 2
                results = {}

                def drive(name):
                    with HTTPServiceClient(
                        gw.address, client_id=name
                    ) as client:
                        results[name] = client.evaluate(**specs[name])

                def wait_inflight(n):
                    deadline = time.monotonic() + 10
                    while admission.inflight < n:
                        assert time.monotonic() < deadline
                        time.sleep(0.01)

                threads = []

                def launch(name, expect_inflight):
                    thread = threading.Thread(target=drive, args=(name,))
                    thread.start()
                    threads.append(thread)
                    wait_inflight(expect_inflight)

                launch("bulk-0", 1)
                launch("bulk-1", 2)

                # bulk budget (2 of 4) exhausted: a third bulk spec is
                # refused with 429 + Retry-After ...
                status, headers, body = http_request(
                    gw.address, "POST", "/v1/evaluate",
                    body=json.dumps(make_spec(14, "bulk")),
                )
                assert status == 429
                assert body["error"]["code"] == ERR_OVERLOADED
                assert int(headers["Retry-After"]) >= 1

                # ... while interactive admissions still go through: the
                # structural no-priority-inversion guarantee.
                launch("int-0", 3)
                launch("int-1", 4)

                # now the global budget is gone for everyone
                status, _, body = http_request(
                    gw.address, "POST", "/v1/evaluate",
                    body=json.dumps(make_spec(15, "interactive")),
                )
                assert status == 429
                assert body["error"]["code"] == ERR_OVERLOADED

                snap = admission.snapshot()
                assert snap["rejected"]["bulk"] == 1
                assert snap["rejected"]["interactive"] == 1
                assert snap["admitted"] == {"interactive": 2, "bulk": 2}

                # release the dispatcher: every admitted request drains
                # to its bit-exact answer
                service.start()
                for thread in threads:
                    thread.join(60)
                assert results == expected
        finally:
            service.close()

    def test_per_client_bound_rejects_the_greedy_client_only(self):
        service = EvaluationService(n_workers=1, autostart=False)
        try:
            with GatewayInThread(service, max_inflight=8,
                                 max_inflight_per_client=1) as gw:
                done = {}

                def drive():
                    with HTTPServiceClient(
                        gw.address, client_id="greedy"
                    ) as client:
                        done["result"] = client.evaluate(**make_spec(20))

                thread = threading.Thread(target=drive)
                thread.start()
                deadline = time.monotonic() + 10
                while gw.gateway.admission.inflight < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)

                status, _, body = http_request(
                    gw.address, "POST", "/v1/evaluate",
                    body=json.dumps(make_spec(21)),
                    headers={"X-Client-Id": "greedy"},
                )
                assert status == 429
                assert "greedy" in body["error"]["message"]

                service.start()
                thread.join(60)
                assert len(done["result"]) == 1
                snap = gw.gateway.admission.snapshot()
                assert snap["rejected_per_client"] == 1
        finally:
            service.close()


# -- WebSocket streaming ---------------------------------------------------


def ws_connect(address, path="/v1/stream", token=None):
    """A completed client-side WebSocket handshake; ``(sock, reader)``."""
    sock = socket.create_connection(address, timeout=30)
    key = base64.b64encode(os.urandom(16)).decode()
    lines = [
        f"GET {path} HTTP/1.1",
        f"Host: {address[0]}:{address[1]}",
        "Upgrade: websocket",
        "Connection: Upgrade",
        f"Sec-WebSocket-Key: {key}",
        "Sec-WebSocket-Version: 13",
    ]
    if token is not None:
        lines.append(f"Authorization: Bearer {token}")
    sock.sendall(("\r\n".join(lines) + "\r\n\r\n").encode())
    reader = sock.makefile("rb")
    status = reader.readline().decode("latin-1")
    assert " 101 " in status, status
    accept = None
    while True:
        line = reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "sec-websocket-accept":
            accept = value.strip()
    assert accept == websocket_accept(key)
    return sock, reader


def ws_recv(reader):
    """One server frame (never masked); ``(opcode, payload)``."""
    head = reader.read(2)
    assert len(head) == 2, "connection closed mid-frame"
    length = head[1] & 0x7F
    if length == 126:
        (length,) = struct.unpack(">H", reader.read(2))
    elif length == 127:
        (length,) = struct.unpack(">Q", reader.read(8))
    return head[0] & 0x0F, reader.read(length)


class TestWebSocketStream:
    def test_campaign_streams_in_order_and_bit_exact(self):
        fsm_names = ["published", "published", "evolved"]
        shard_specs = [
            make_spec(30, fsm=name) for name in fsm_names
        ]
        expected = [
            outcome_to_dict(result[0])
            for result in oracle_outcomes(shard_specs)
        ]

        with EvaluationService(n_workers=1) as service:
            with GatewayInThread(service) as gw:
                sock, reader = ws_connect(gw.address)
                try:
                    campaign = {**make_spec(30), "id": "c1",
                                "fsm": fsm_names}
                    sock.sendall(ws_encode_frame(
                        json.dumps(campaign), mask=True
                    ))
                    messages = [
                        json.loads(ws_recv(reader)[1])
                        for _ in range(len(fsm_names) + 1)
                    ]
                    shards, done = messages[:-1], messages[-1]
                    assert [m["seq"] for m in shards] == [0, 1, 2]
                    assert all(m["id"] == "c1" for m in shards)
                    assert [m["outcome"] for m in shards] == expected
                    assert done == {"id": "c1", "done": True, "n": 3}

                    # a clean close is echoed back
                    sock.sendall(ws_encode_frame(b"", opcode=0x8,
                                                 mask=True))
                    opcode, _ = ws_recv(reader)
                    assert opcode == 0x8
                finally:
                    sock.close()
                assert gw.gateway.stats.ws_streams == 1
                assert gw.gateway.stats.ws_messages == 4

    def test_ping_is_answered_and_bad_json_reports_inline(self):
        with EvaluationService(n_workers=1) as service:
            with GatewayInThread(service) as gw:
                sock, reader = ws_connect(gw.address)
                try:
                    sock.sendall(ws_encode_frame(b"hello", opcode=0x9,
                                                 mask=True))
                    opcode, payload = ws_recv(reader)
                    assert (opcode, payload) == (0xA, b"hello")

                    sock.sendall(ws_encode_frame(b"not json",
                                                 mask=True))
                    _, payload = ws_recv(reader)
                    assert (
                        json.loads(payload)["error"]["code"]
                        == "bad_request"
                    )

                    # the stream survives a bad message
                    sock.sendall(ws_encode_frame(
                        json.dumps({**make_spec(31), "id": "ok"}),
                        mask=True,
                    ))
                    first = json.loads(ws_recv(reader)[1])
                    assert first["id"] == "ok" and first["seq"] == 0
                finally:
                    sock.close()

    def test_an_idle_stream_is_closed_when_the_gateway_drains(self):
        with EvaluationService(n_workers=1) as service:
            gw = GatewayInThread(service)
            with gw:
                sock, reader = ws_connect(gw.address)
                # a ping round trip puts the handler in its read loop
                sock.sendall(ws_encode_frame(b"idle", opcode=0x9,
                                             mask=True))
                assert ws_recv(reader) == (0xA, b"idle")
                started = time.monotonic()
            # exit returned with the gateway thread ended
            elapsed = time.monotonic() - started
            try:
                closing = ws_recv(reader)
            finally:
                reader.close()
                sock.close()
        assert closing == (0x8, struct.pack(">H", 1001))
        assert elapsed < 3

    def test_admission_refusals_and_a_failing_fsm_report_inline(self):
        with EvaluationService(n_workers=1) as service:
            with GatewayInThread(service) as gw:
                sock, reader = ws_connect(gw.address)
                try:
                    for campaign in (
                        {**make_spec(32), "id": "late", "deadline_ms": 0},
                        {**make_spec(33), "id": "half",
                         "fsm": ["published", "nonsense"]},
                    ):
                        sock.sendall(ws_encode_frame(json.dumps(campaign),
                                                     mask=True))
                    late, first, failed = (
                        json.loads(ws_recv(reader)[1]) for _ in range(3)
                    )
                finally:
                    sock.close()
                assert late["error"]["code"] == "deadline_exceeded"
                assert gw.gateway.stats.deadline_rejected == 1
                assert (first["id"], first["seq"]) == ("half", 0)
                assert failed["id"] == "half"
                assert failed["error"]["code"] == "bad_request"

    def test_stream_requires_websocket_upgrade(self):
        with EvaluationService(n_workers=1) as service:
            with GatewayInThread(service) as gw:
                status, _, body = http_request(
                    gw.address, "GET", "/v1/stream"
                )
                assert status == 400
                assert "upgrade" in body["error"]["message"].lower()


# -- /metrics --------------------------------------------------------------


class TestMetrics:
    def test_exposition_shape_and_required_families(self):
        with EvaluationService(n_workers=1) as service:
            with GatewayInThread(service) as gw:
                with HTTPServiceClient(gw.address) as client:
                    client.evaluate(**make_spec(40, "interactive"))
                    client.evaluate(**make_spec(41, "bulk"))
                    text = client.metrics()

                lines = text.strip().splitlines()
                assert lines
                for line in lines:
                    name, _, value = line.rpartition(" ")
                    assert name and not name[0].isdigit()
                    float(value)   # every sample value is numeric

                by_name = {
                    line.rpartition(" ")[0]: float(
                        line.rpartition(" ")[2]
                    )
                    for line in lines
                }
                assert by_name["repro_gateway_requests"] == 2
                assert by_name["repro_admission_admitted_interactive"] == 1
                assert by_name["repro_admission_admitted_bulk"] == 1
                base = "repro_gateway_request_latency_seconds"
                for label in ("interactive", "bulk"):
                    for quantile in ("0.5", "0.99"):
                        key = (f'{base}{{class="{label}"'
                               f',quantile="{quantile}"}}')
                        assert by_name[key] > 0
                    assert by_name[f'{base}_count{{class="{label}"}}'] == 1
                # the service's own counters ride along unprefixed by hand
                assert any(
                    name.startswith("repro_service_")
                    for name in by_name
                )
                # the deadline / hedging counters are first-class
                # metric families, flattened from the same snapshot
                for family in (
                    "repro_gateway_deadline_rejected",
                    "repro_gateway_deadline_exceeded",
                    "repro_service_deadline_expired",
                    "repro_service_deadline_refused",
                    "repro_service_hedging_hedged_requests",
                    "repro_service_hedging_cancel_ops",
                    "repro_service_hedging_cancelled_in_flight",
                ):
                    assert family in by_name


# -- fault isolation -------------------------------------------------------


class TestIsolation:
    def test_killed_client_does_not_disturb_the_others(self):
        specs = [make_spec(seed) for seed in range(50, 54)]
        expected = oracle_outcomes(specs)

        with EvaluationService(n_workers=1) as service:
            with GatewayInThread(service) as gw:
                # victim 1: dies mid-request-line
                half = socket.create_connection(gw.address, timeout=10)
                half.sendall(b"POST /v1/evaluate HTTP/1.1\r\nContent-")
                half.close()

                # victim 2: sends a full request, vanishes before reading
                rude = socket.create_connection(gw.address, timeout=10)
                body = json.dumps(make_spec(60)).encode()
                rude.sendall(
                    b"POST /v1/evaluate HTTP/1.1\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                rude.close()

                # the survivors' requests are untouched
                outcomes = []
                for index, spec in enumerate(specs):
                    with HTTPServiceClient(
                        gw.address, client_id=f"survivor-{index}"
                    ) as client:
                        outcomes.append(client.evaluate(**spec))
                assert outcomes == expected
                assert gw.gateway.admission.inflight == 0

                deadline = time.monotonic() + 10
                while gw.gateway.stats.connections_closed < 6:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)


# -- HTTP error surface ----------------------------------------------------


class TestErrorSurface:
    def test_unknown_route_is_404(self):
        with EvaluationService(n_workers=1) as service:
            with GatewayInThread(service) as gw:
                status, _, body = http_request(
                    gw.address, "GET", "/v1/nope"
                )
                assert status == 404
                assert body["error"]["code"] == "not_found"

    def test_get_evaluate_is_405_with_allow(self):
        with EvaluationService(n_workers=1) as service:
            with GatewayInThread(service) as gw:
                status, headers, body = http_request(
                    gw.address, "GET", "/v1/evaluate"
                )
                assert status == 405
                assert headers.get("Allow") == "POST"
                assert body["error"]["code"] == "method_not_allowed"

    def test_invalid_json_and_bad_priority_are_400(self):
        with EvaluationService(n_workers=1) as service:
            with GatewayInThread(service) as gw:
                status, _, body = http_request(
                    gw.address, "POST", "/v1/evaluate", body="{nope"
                )
                assert status == 400
                assert body["error"]["code"] == "bad_request"

                status, _, body = http_request(
                    gw.address, "POST", "/v1/evaluate",
                    body=json.dumps(make_spec(3, "urgent")),
                )
                assert status == 400
                assert "priority" in body["error"]["message"]

    def test_metrics_only_listener_rejects_evaluate(self):
        with EvaluationService(n_workers=1) as service:
            with GatewayInThread(service, metrics_only=True) as gw:
                status, _, body = http_request(
                    gw.address, "POST", "/v1/evaluate",
                    body=json.dumps(make_spec(3)),
                )
                assert status == 404
                assert "metrics-only" in body["error"]["message"]
                status, _, payload = http_request(
                    gw.address, "GET", "/v1/health"
                )
                assert status == 200 and payload.get("ok") is True


# -- Retry-After: the server's backoff hint is honoured --------------------


class TestRetryAfterHonoured:
    def test_429_hint_rides_the_transport_error(self):
        # hold the gateway's only admission slot (the dispatcher is
        # not running, so the first request parks); the refused second
        # request must see the 429's Retry-After seconds on the error
        service = EvaluationService(n_workers=1, autostart=False)
        try:
            with GatewayInThread(service, max_inflight=1) as gw:
                first = {}

                def parked():
                    with HTTPServiceClient(gw.address) as one:
                        first["outcomes"] = one.evaluate(**make_spec(60))

                thread = threading.Thread(target=parked, daemon=True)
                thread.start()
                deadline = time.monotonic() + 10
                while gw.gateway.admission.snapshot()["inflight"] < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                with HTTPServiceClient(
                    gw.address, client_id="other"
                ) as client:
                    with pytest.raises(TransportError) as excinfo:
                        client.evaluate(**make_spec(61))
                    assert excinfo.value.code == ERR_OVERLOADED
                    assert excinfo.value.retry_after >= 1.0
                service.start()
                thread.join(timeout=30)
                assert len(first["outcomes"]) == 1
        finally:
            service.close()

    def test_retry_policy_waits_out_the_servers_hint(self):
        # regression: the hint must *floor* the client's own (tiny)
        # backoff schedule -- before the fix the client hammered the
        # gateway on its millisecond schedule and exhausted attempts
        from repro.resilience import RetryPolicy

        policy = RetryPolicy(
            max_attempts=3, base_delay=0.001, jitter=0.0, max_delay=5.0,
            seed=0,
        )
        with EvaluationService(n_workers=1) as service:
            with GatewayInThread(service) as gw:
                client = HTTPServiceClient(
                    gw.address,
                    options=ClientOptions(retry_policy=policy),
                )
                with client:
                    attempts = []
                    original = client._round_trip

                    def flaky(method, path, payload=None):
                        attempts.append(time.monotonic())
                        if len(attempts) == 1:
                            exc = TransportError(
                                ERR_OVERLOADED, "throttled"
                            )
                            exc.retry_after = 0.4
                            raise exc
                        return original(method, path, payload)

                    client._round_trip = flaky
                    results = client.evaluate(**make_spec(62))
                    assert len(results) == 1
                assert len(attempts) == 2
                # the gap obeys the server's 0.4s, not base_delay=1ms
                assert attempts[1] - attempts[0] >= 0.4


# -- evolve endpoint -------------------------------------------------------


class TestEvolve:
    def test_evolve_round_trips_and_counts_as_bulk(self):
        with EvaluationService(n_workers=1) as service:
            with GatewayInThread(service) as gw:
                with HTTPServiceClient(gw.address) as client:
                    result = client.evolve(
                        id="ga-1", grid="T", size=8, agents=4, fields=2,
                        seed=5, n_generations=1, pool_size=4,
                        exchange_width=1, t_max=30,
                    )
                assert result["id"] == "ga-1"
                # history counts the initial population as an entry too
                assert result["generations"] >= 1
                assert len(result["best"]["genome"]) > 0
                assert isinstance(result["best"]["fitness"],
                                  (int, float))
                assert gw.gateway.stats.evolve_runs == 1
                assert gw.gateway.admission.snapshot()["admitted"][
                    "bulk"
                ] == 1

    def test_unknown_evolve_field_is_400(self):
        with EvaluationService(n_workers=1) as service:
            with GatewayInThread(service) as gw:
                status, _, body = http_request(
                    gw.address, "POST", "/v1/evolve",
                    body=json.dumps({"grid": "T", "bogus": 1}),
                )
                assert status == 400
                assert "bogus" in body["error"]["message"]


# -- connect() URL dispatch + ClientOptions --------------------------------


class TestConnectDispatch:
    def test_http_url_yields_http_client(self):
        from repro import api

        with EvaluationService(n_workers=1) as service:
            with GatewayInThread(service) as gw:
                host, port = gw.address
                with api.connect(url=f"http://{host}:{port}") as conn:
                    assert isinstance(conn, HTTPServiceClient)
                    assert isinstance(conn, Client)
                    assert len(conn.evaluate(**make_spec(3))) == 1

    def test_tcp_url_yields_tcp_client(self):
        from repro import api

        with EvaluationService(n_workers=1) as service:
            with ServerInThread(service) as server:
                host, port = server.address
                with api.connect(url=f"tcp://{host}:{port}") as conn:
                    assert isinstance(conn, TCPServiceClient)
                    assert len(conn.evaluate(**make_spec(3))) == 1

    def test_seeds_yield_router_client(self):
        from repro import api

        with EvaluationService(n_workers=1) as service:
            with ServerInThread(service) as server:
                host, port = server.address
                with api.connect(
                    seeds=[f"tcp://{host}:{port}"]
                ) as conn:
                    assert isinstance(conn, RouterClient)
                    assert len(conn.evaluate(**make_spec(3))) == 1

    def test_bare_address_warns_but_works(self):
        from repro import api

        with EvaluationService(n_workers=1) as service:
            with ServerInThread(service) as server:
                host, port = server.address
                with pytest.warns(DeprecationWarning,
                                  match="bare address"):
                    conn = api.connect(url=f"{host}:{port}")
                with conn:
                    assert isinstance(conn, TCPServiceClient)

    def test_seeds_and_url_are_exclusive(self):
        from repro import api

        with pytest.raises(TypeError):
            api.connect(url="tcp://127.0.0.1:1", seeds=["tcp://x:1"])


class TestClientOptions:
    @staticmethod
    def _listener():
        """A bound TCP listener; enough for the eager client connect."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind(("127.0.0.1", 0))
        sock.listen(1)
        return sock

    def test_legacy_timeout_spelling_warns_and_forwards(self):
        with self._listener() as sock:
            with pytest.warns(DeprecationWarning, match="timeout"):
                client = TCPServiceClient(sock.getsockname(), timeout=7)
            with client:
                assert client.options.timeout == 7

    def test_legacy_retry_policy_spelling_warns_and_forwards(self):
        from repro.resilience import RetryPolicy

        policy = RetryPolicy(seed=0)
        with self._listener() as sock:
            with pytest.warns(DeprecationWarning, match="retry_policy"):
                client = TCPServiceClient(sock.getsockname(),
                                          retry_policy=policy)
            with client:
                assert client.options.retry_policy is policy

    def test_options_and_legacy_spelling_raise_together(self):
        with pytest.raises(TypeError):
            TCPServiceClient(("127.0.0.1", 1),
                             options=ClientOptions(timeout=7),
                             timeout=9)

    def test_merged_overrides_only_named_fields(self):
        options = ClientOptions(timeout=9, auth_token="t")
        merged = options.merged(timeout=3)
        assert merged.timeout == 3
        assert merged.auth_token == "t"
        assert options.timeout == 9   # frozen original untouched

    def test_parse_url_schemes_and_defaults(self):
        from repro.service.client import parse_url

        assert parse_url("tcp://h:7000") == ("tcp", "h", 7000)
        assert parse_url("http://h") == ("http", "h", 80)
        assert parse_url("https://h") == ("https", "h", 443)
        assert (
            parse_url("h:7000", default_scheme="tcp")
            == ("tcp", "h", 7000)
        )
        with pytest.raises(ValueError):
            parse_url("tcp://h")   # tcp has no default port
        with pytest.raises(ValueError):
            parse_url("ftp://h:1")

    def test_no_warning_on_the_modern_spelling(self):
        with self._listener() as sock:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                with TCPServiceClient(
                    sock.getsockname(),
                    options=ClientOptions(timeout=7),
                ):
                    pass


# -- serve CLI setup failures ----------------------------------------------


def run_serve(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro", "serve", *args],
        capture_output=True, text=True, timeout=60,
    )


class TestServeSetupErrors:
    def test_metrics_without_transport_exits_2(self):
        proc = run_serve("--metrics", "127.0.0.1:0")
        assert proc.returncode == 2
        message = proc.stderr.strip()
        assert len(message.splitlines()) == 1
        assert "--metrics needs a serving transport" in message

    def test_tls_cert_without_key_exits_2(self):
        proc = run_serve("--http", "127.0.0.1:0",
                         "--tls-cert", "cert.pem")
        assert proc.returncode == 2
        assert "--tls-key" in proc.stderr.strip()

    def test_bad_address_spec_exits_2(self):
        proc = run_serve("--http", "nonsense")
        assert proc.returncode == 2
        assert len(proc.stderr.strip().splitlines()) == 1


# -- wire pin: every route's status, shape, headers and counters -----------

_TOKEN = (("Authorization", "Bearer pin-token"),)
_HEALTH = ("admission cache closed deadline dispatcher_alive gateway hedging "
           "idempotency in_flight ok pool queue_depth")
_ERROR = ("error",)
_EVOLVE = {"grid": "T", "size": 8, "agents": 4, "fields": 2, "seed": 5,
           "n_generations": 1, "pool_size": 4, "exchange_width": 1,
           "t_max": 30}

#: ``name -> (request line, body, headers, status, response keys (None:
#: a text body) and error code, pinned headers, gateway counters moved
#: by one)``, against a gateway with a bearer token.  ``sidecar-``
#: cases run against the ``--metrics`` sidecar instead, with no token.
HTTP_WIRE_CASES = {
    "health": ("GET /v1/health", None, (), 200, (_HEALTH,), {},
               "responses"),
    "stats": ("GET /v1/stats", None, _TOKEN, 200,
              ("admission gateway latency service",), {}, "responses"),
    "metrics": ("GET /metrics", None, _TOKEN, 200, None, {}, "responses"),
    "evaluate": ("POST /v1/evaluate", make_spec(300), _TOKEN, 200,
                 ("id outcomes",), {}, "requests responses"),
    "evaluate-401": ("POST /v1/evaluate", make_spec(301), (), 401,
                     (*_ERROR, "unauthorized"),
                     {"WWW-Authenticate": "Bearer"}, "unauthorized errors"),
    "evaluate-bad-json": ("POST /v1/evaluate", "{nope", _TOKEN, 400,
                          (*_ERROR, "bad_request"), {},
                          "bad_requests errors"),
    "evaluate-bad-priority": ("POST /v1/evaluate", make_spec(302, "urgent"),
                              _TOKEN, 400, (*_ERROR, "bad_request"), {},
                              "bad_requests errors"),
    "evaluate-bad-deadline-header": (
        "POST /v1/evaluate", make_spec(303),
        _TOKEN + (("X-Request-Deadline", "soon"),), 400,
        (*_ERROR, "bad_request"), {}, "bad_requests errors"),
    "evaluate-expired-deadline": (
        "POST /v1/evaluate", make_spec(304, deadline_ms=0), _TOKEN, 504,
        (*_ERROR, "deadline_exceeded"), {}, "deadline_rejected errors"),
    "evaluate-405": ("GET /v1/evaluate", None, _TOKEN, 405,
                     (*_ERROR, "method_not_allowed"), {"Allow": "POST"},
                     "errors"),
    "evolve": ("POST /v1/evolve", _EVOLVE, _TOKEN, 200,
               ("best generations id wall_seconds",), {},
               "requests responses evolve_runs"),
    "evolve-live-deadline-header": (
        "POST /v1/evolve", _EVOLVE,
        _TOKEN + (("X-Request-Deadline", "600000"),), 200,
        ("best generations id wall_seconds",), {},
        "requests responses evolve_runs"),
    "evolve-spent-deadline-header": (
        "POST /v1/evolve", _EVOLVE, _TOKEN + (("X-Request-Deadline", "0"),),
        504, (*_ERROR, "deadline_exceeded"), {},
        "requests deadline_exceeded errors"),
    "evolve-unknown-field": ("POST /v1/evolve", {"bogus": 1}, _TOKEN, 400,
                             (*_ERROR, "bad_request"), {},
                             "requests bad_requests errors"),
    "evolve-405": ("GET /v1/evolve", None, _TOKEN, 405,
                   (*_ERROR, "method_not_allowed"), {"Allow": "POST"},
                   "errors"),
    "stream-without-upgrade": ("GET /v1/stream", None, _TOKEN, 400,
                               (*_ERROR, "bad_request"), {}, "errors"),
    "unknown-route": ("GET /v1/nope", None, _TOKEN, 404,
                      (*_ERROR, "not_found"), {}, "errors"),
    "post-health": ("POST /v1/health", None, _TOKEN, 404,
                    (*_ERROR, "not_found"), {}, "errors"),
    "get-shutdown": ("GET /v1/shutdown", None, _TOKEN, 404,
                     (*_ERROR, "not_found"), {}, "errors"),
    "shutdown": ("POST /v1/shutdown", None, _TOKEN, 200, ("ok",), {},
                 "responses"),
    "sidecar-health": ("GET /v1/health", None, (), 200, (_HEALTH,), {},
                       "responses"),
    "sidecar-metrics": ("GET /metrics", None, (), 200, None, {},
                        "responses"),
    **{
        f"sidecar-{method.lower()}-{path.rsplit('/', 1)[1]}": (
            f"{method} {path}", None, (), 404, (*_ERROR, "not_found"), {},
            "errors")
        for method, path in (("GET", "/v1/stats"), ("POST", "/v1/evaluate"),
                             ("GET", "/v1/evaluate"), ("GET", "/v1/stream"))
    },
}
_PINNED_HEADERS = ("Allow", "WWW-Authenticate", "Retry-After")


def pinned_headers(headers):
    return {name: headers[name] for name in _PINNED_HEADERS
            if name in headers}


def counters_moved(before, after):
    """Counters that changed, by how much (connection counts aside)."""
    return {
        name: after[name] - before[name] for name in after
        if after[name] != before[name] and not name.startswith("connections_")
    }


@pytest.fixture(scope="module")
def pin_service():
    with EvaluationService(n_workers=1) as service:
        yield service


@pytest.mark.parametrize("case", sorted(HTTP_WIRE_CASES))
def test_wire_pin_route_response_headers_and_counters(case, pin_service):
    line, body, headers, status, shape, pinned, moved = HTTP_WIRE_CASES[case]
    method, path = line.split()
    sidecar = case.startswith("sidecar-")
    gw = GatewayInThread(pin_service, **(
        {"metrics_only": True} if sidecar else {"auth_token": "pin-token"}
    ))
    with contextlib.ExitStack() as stack:
        gw.__enter__()
        if path != "/v1/shutdown":   # that one drains the gateway itself
            stack.callback(gw.__exit__, None, None, None)
        stats = gw.gateway.stats
        before = stats.snapshot()
        got_status, got_headers, payload = http_request(
            gw.address, method, path, headers=headers,
            body=body if body is None or isinstance(body, str)
            else json.dumps(body),
        )
        deadline = time.monotonic() + 10   # the handler closes, then counts
        while stats.connections_closed < stats.connections_opened:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        got_moved = counters_moved(before, stats.snapshot())
    gw._thread.join(10)
    assert got_status == status
    if shape is None:
        assert got_headers["Content-Type"] == "text/plain; version=0.0.4"
        assert payload.startswith("repro_")
    else:
        keys, *code = shape
        assert got_headers["Content-Type"] == "application/json"
        assert sorted(payload) == keys.split()
        assert [payload.get("error", {}).get("code")] == (code or [None])
    assert pinned_headers(got_headers) == pinned
    assert got_moved == dict.fromkeys(moved.split(), 1)


def test_wire_pin_overload_refusal_carries_retry_after():
    service = EvaluationService(n_workers=1, autostart=False)
    try:
        with GatewayInThread(service, max_inflight=1) as gw:
            parked = threading.Thread(target=http_request, daemon=True, args=(
                gw.address, "POST", "/v1/evaluate", json.dumps(make_spec(306))
            ))
            parked.start()
            stats, deadline = gw.gateway.stats, time.monotonic() + 10
            while stats.requests < 1 or service.snapshot()["requests"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            before = stats.snapshot()
            status, headers, payload = http_request(
                gw.address, "POST", "/v1/evaluate",
                body=json.dumps(make_spec(307)),
                headers=(("X-Client-Id", "other"),),
            )
            while stats.connections_closed <= before["connections_closed"]:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            moved = counters_moved(before, stats.snapshot())
            service.start()
            parked.join(timeout=30)
    finally:
        service.close()
    assert (status, sorted(payload)) == (429, ["error"])
    assert payload["error"]["code"] == "overloaded"
    assert pinned_headers(headers) == {"Retry-After": "1"}
    assert moved == {"overloaded": 1, "errors": 1}
