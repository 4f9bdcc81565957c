"""The TCP transport: concurrency, flow control, faults -- bit-exact.

The battery for :mod:`repro.service.transport`: many concurrent clients
must get exactly what the serial path computes, a killed client must
not disturb anyone else, timeouts must cancel queued work before it is
ever simulated, backpressure must engage and release, graceful shutdown
must drain in-flight requests, and protocol violations must come back
as structured error frames.

No pytest-asyncio in the container: every async scenario runs under
``asyncio.run`` inside a plain sync test.
"""

import asyncio
import json
import socket
import struct

import numpy as np
import pytest

from repro.configs.suite import paper_suite
from repro.core.fsm import FSM
from repro.evolution.fitness import evaluate_fsm
from repro.grids import make_grid
from repro.service import (
    AsyncEvaluationServer,
    AsyncServiceClient,
    EvaluationService,
    TCPServiceClient,
    TransportError,
)
from repro.service.jsonl import outcome_from_dict
from repro.service.transport import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    encode_frame,
    parse_address,
    read_frame,
    recv_frame,
)

T_MAX = 60


def spec_for(index, **overrides):
    """A small deterministic workload spec; distinct genome per index."""
    fsm = FSM.random(np.random.default_rng(1000 + index), name=f"g{index}")
    spec = {
        "grid": "T", "size": 8, "agents": 4, "fields": 5, "seed": 1,
        "t_max": T_MAX, "fsm": {"genome": fsm.genome().tolist()},
    }
    spec.update(overrides)
    return spec


def serial_outcome(spec):
    """What the unbatched, untransported path computes for one spec."""
    grid = make_grid(spec["grid"], spec["size"])
    suite = paper_suite(
        grid, spec["agents"], n_random=spec["fields"], seed=spec["seed"]
    )
    fsm = FSM.from_genome(spec["fsm"]["genome"])
    return evaluate_fsm(grid, fsm, suite, t_max=spec["t_max"])


async def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(interval)


class TestFraming:
    def test_frame_round_trip_over_a_socket_pair(self):
        a, b = socket.socketpair()
        try:
            payload = {"id": "x", "nested": [1, 2, {"y": None}]}
            a.sendall(encode_frame(payload))
            assert recv_frame(b) == payload
            a.close()
            assert recv_frame(b) is None  # clean EOF
        finally:
            b.close()

    def test_parse_address(self):
        assert parse_address("127.0.0.1:7013") == ("127.0.0.1", 7013)
        assert parse_address(":0") == ("127.0.0.1", 0)
        with pytest.raises(ValueError):
            parse_address("no-port")


class TestConcurrentClients:
    def test_eight_concurrent_clients_bit_exact_vs_serial(self):
        n_clients = 8
        specs = [spec_for(index) for index in range(n_clients)]
        expected = [serial_outcome(spec) for spec in specs]

        async def scenario():
            service = EvaluationService(n_workers=1)
            with service:
                server = await AsyncEvaluationServer(service).start()
                clients = await asyncio.gather(*[
                    AsyncServiceClient.connect(server.address)
                    for _ in range(n_clients)
                ])
                responses = await asyncio.gather(*[
                    client.request(spec)
                    for client, spec in zip(clients, specs)
                ])
                for client in clients:
                    await client.aclose()
                await server.aclose()
                return responses, server.stats

        responses, stats = asyncio.run(scenario())
        got = [outcome_from_dict(r["outcomes"][0]) for r in responses]
        assert got == expected
        assert stats.connections_opened == 8
        assert stats.responses == 8
        assert stats.errors == 0

    def test_one_connection_pipelines_out_of_order_ids(self):
        specs = [spec_for(index) for index in range(3)]
        expected = [serial_outcome(spec) for spec in specs]

        async def scenario():
            service = EvaluationService(n_workers=1)
            with service:
                server = await AsyncEvaluationServer(service).start()
                address = server.address
                loop = asyncio.get_running_loop()

                def drive():
                    with TCPServiceClient(address) as client:
                        ids = [client.submit(spec) for spec in specs]
                        # collect in reverse submission order on purpose
                        return [
                            client.result(request_id)
                            for request_id in reversed(ids)
                        ]
                responses = await loop.run_in_executor(None, drive)
                await server.aclose()
                return responses

        responses = asyncio.run(scenario())
        got = [
            outcome_from_dict(r["outcomes"][0]) for r in reversed(responses)
        ]
        assert got == expected


class TestLegacyRetryPolicySpelling:
    def test_connect_warns_and_forwards(self):
        from repro.resilience import RetryPolicy

        policy = RetryPolicy(seed=0)

        async def scenario():
            with EvaluationService(n_workers=1) as service:
                server = await AsyncEvaluationServer(service).start()
                try:
                    with pytest.warns(DeprecationWarning,
                                      match="retry_policy"):
                        client = await AsyncServiceClient.connect(
                            server.address, retry_policy=policy
                        )
                    await client.aclose()
                    return client.options.retry_policy
                finally:
                    await server.aclose()

        assert asyncio.run(scenario()) is policy


class TestDisconnects:
    def test_killed_client_does_not_affect_others(self):
        doomed_spec = spec_for(50)
        survivor_specs = [spec_for(60 + index) for index in range(2)]
        expected = [serial_outcome(spec) for spec in survivor_specs]

        async def scenario():
            # autostart=False: requests queue, so the disconnect happens
            # while the doomed request is deterministically in flight.
            service = EvaluationService(n_workers=1, autostart=False)
            with service:
                server = await AsyncEvaluationServer(service).start()
                doomed = await AsyncServiceClient.connect(server.address)
                survivor = await AsyncServiceClient.connect(server.address)
                doomed_task = asyncio.ensure_future(
                    doomed.request(doomed_spec)
                )
                survivor_tasks = [
                    asyncio.ensure_future(survivor.request(spec))
                    for spec in survivor_specs
                ]
                await wait_until(lambda: server.stats.requests == 3)
                await doomed.aclose()   # vanish mid-request
                await wait_until(
                    lambda: server.stats.cancelled_on_disconnect >= 1
                )
                service.start()
                responses = await asyncio.gather(*survivor_tasks)
                doomed_result = await asyncio.gather(
                    doomed_task, return_exceptions=True
                )
                await survivor.aclose()
                await server.aclose()
                return responses, doomed_result[0], server, service

        responses, doomed_result, server, service = asyncio.run(scenario())
        got = [outcome_from_dict(r["outcomes"][0]) for r in responses]
        assert got == expected
        assert isinstance(doomed_result, Exception)
        assert server.stats.cancelled_on_disconnect == 1
        # the cancelled request was never simulated
        assert service.stats.cancelled == 1
        assert service.stats.simulated_fsms == len(survivor_specs)


class TestTimeouts:
    def test_timeout_cancels_queued_work_before_simulation(self):
        async def scenario():
            service = EvaluationService(n_workers=1, autostart=False)
            with service:
                server = await AsyncEvaluationServer(
                    service, request_timeout=0.2
                ).start()
                client = await AsyncServiceClient.connect(server.address)
                with pytest.raises(TransportError) as excinfo:
                    await client.request(spec_for(70))
                code = excinfo.value.code
                # the dispatcher starts only now: the timed-out request
                # must be skipped, never simulated
                service.start()
                fresh = await client.request(spec_for(71))
                await client.aclose()
                await server.aclose()
                return code, fresh, server, service

        code, fresh, server, service = asyncio.run(scenario())
        assert code == "timeout"
        assert server.stats.timeouts == 1
        assert service.stats.cancelled == 1
        assert service.stats.simulated_fsms == 1  # only the fresh request
        assert outcome_from_dict(fresh["outcomes"][0]) == serial_outcome(
            spec_for(71)
        )


class TestBackpressure:
    def test_backpressure_engages_then_releases(self):
        specs = [spec_for(80 + index) for index in range(3)]
        expected = [serial_outcome(spec) for spec in specs]

        async def scenario():
            service = EvaluationService(n_workers=1, autostart=False)
            with service:
                server = await AsyncEvaluationServer(
                    service, max_pending=1
                ).start()
                client = await AsyncServiceClient.connect(server.address)
                tasks = [
                    asyncio.ensure_future(client.request(spec))
                    for spec in specs
                ]
                # with a budget of one, the server must stop reading
                # after the first frame and engage backpressure
                await wait_until(
                    lambda: server.stats.backpressure_engaged >= 1
                    and server.stats.requests == 1
                )
                service.start()   # responses drain; reading resumes
                responses = await asyncio.gather(*tasks)
                await client.aclose()
                await server.aclose()
                return responses, server.stats

        responses, stats = asyncio.run(scenario())
        got = [outcome_from_dict(r["outcomes"][0]) for r in responses]
        assert got == expected
        assert stats.responses == 3
        assert stats.backpressure_engaged >= 1
        assert stats.backpressure_released == stats.backpressure_engaged


class TestGracefulShutdown:
    def test_aclose_drains_in_flight_requests(self):
        specs = [spec_for(90 + index) for index in range(3)]
        expected = [serial_outcome(spec) for spec in specs]

        async def scenario():
            service = EvaluationService(n_workers=1, autostart=False)
            with service:
                server = await AsyncEvaluationServer(service).start()
                client = await AsyncServiceClient.connect(server.address)
                tasks = [
                    asyncio.ensure_future(client.request(spec))
                    for spec in specs
                ]
                await wait_until(lambda: server.stats.requests == 3)
                closing = asyncio.ensure_future(server.aclose())
                await asyncio.sleep(0.05)   # handlers now draining
                assert not closing.done()   # drain waits for the work
                service.start()
                await closing
                responses = await asyncio.gather(*tasks)
                await client.aclose()
                return responses, server.stats

        responses, stats = asyncio.run(scenario())
        got = [outcome_from_dict(r["outcomes"][0]) for r in responses]
        assert got == expected
        assert stats.responses == 3
        assert stats.cancelled_on_disconnect == 0

    def test_shutdown_op_drains_then_exits(self):
        async def scenario():
            service = EvaluationService(n_workers=1)
            with service:
                server = await AsyncEvaluationServer(service).start()
                serving = asyncio.ensure_future(
                    server.serve_until_shutdown()
                )
                client = await AsyncServiceClient.connect(server.address)
                response = await client.request(spec_for(95))
                ack = await client.request({"op": "shutdown"})
                await asyncio.wait_for(serving, timeout=10)
                await client.aclose()
                return response, ack

        response, ack = asyncio.run(scenario())
        assert ack["ok"] is True
        assert outcome_from_dict(response["outcomes"][0]) == serial_outcome(
            spec_for(95)
        )


class TestErrorFrames:
    def test_garbage_json_gets_bad_frame_and_connection_survives(self):
        async def scenario():
            service = EvaluationService(n_workers=1)
            with service:
                server = await AsyncEvaluationServer(service).start()
                host, port = server.address
                loop = asyncio.get_running_loop()

                def drive():
                    sock = socket.create_connection((host, port), 10)
                    try:
                        body = b"not json at all"
                        sock.sendall(FRAME_HEADER.pack(len(body)) + body)
                        error = recv_frame(sock)
                        # framing intact: the same connection still works
                        sock.sendall(encode_frame({"id": "p", "op": "ping"}))
                        pong = recv_frame(sock)
                        return error, pong
                    finally:
                        sock.close()

                error, pong = await loop.run_in_executor(None, drive)
                await server.aclose()
                return error, pong

        error, pong = asyncio.run(scenario())
        assert error["error"]["code"] == "bad_frame"
        assert pong == {"id": "p", "pong": True}

    def test_oversize_frame_errors_and_closes(self):
        async def scenario():
            service = EvaluationService(n_workers=1)
            with service:
                server = await AsyncEvaluationServer(service).start()
                host, port = server.address
                loop = asyncio.get_running_loop()

                def drive():
                    sock = socket.create_connection((host, port), 10)
                    try:
                        sock.sendall(
                            struct.pack(">I", MAX_FRAME_BYTES + 1) + b"x"
                        )
                        error = recv_frame(sock)
                        eof = recv_frame(sock)
                        return error, eof
                    finally:
                        sock.close()

                error, eof = await loop.run_in_executor(None, drive)
                await server.aclose()
                return error, eof

        error, eof = asyncio.run(scenario())
        assert error["error"]["code"] == "bad_frame"
        assert eof is None   # the server closed the framing-broken socket

    def test_invalid_spec_gets_bad_request_with_id(self):
        async def scenario():
            service = EvaluationService(n_workers=1)
            with service:
                server = await AsyncEvaluationServer(service).start()
                client = await AsyncServiceClient.connect(server.address)
                with pytest.raises(TransportError) as excinfo:
                    await client.request(
                        {"id": "bad", "grid": "T", "fsm": "nonsense"}
                    )
                with pytest.raises(TransportError) as opinfo:
                    await client.request({"op": "explode"})
                await client.aclose()
                await server.aclose()
                return excinfo.value.code, opinfo.value.code

        spec_code, op_code = asyncio.run(scenario())
        assert spec_code == "bad_request"
        assert op_code == "bad_request"


class TestIdleReaping:
    def test_idle_connection_is_closed(self):
        async def scenario():
            service = EvaluationService(n_workers=1)
            with service:
                server = await AsyncEvaluationServer(
                    service, idle_timeout=0.15
                ).start()
                reader, writer = await asyncio.open_connection(
                    *server.address
                )
                # no traffic: the reaper must close the connection
                eof = await asyncio.wait_for(reader.read(1), timeout=10)
                writer.close()
                await server.aclose()
                return eof, server.stats.idle_reaped

        eof, reaped = asyncio.run(scenario())
        assert eof == b""
        assert reaped == 1


@pytest.mark.net
class TestServeCliTcp:
    def test_cli_serves_tcp_and_prints_stats(self, spawn_serve):
        server = spawn_serve("--stats")
        with TCPServiceClient(server.address) as client:
            outcomes = client.evaluate(**spec_for(99))
            assert outcomes[0] == serial_outcome(spec_for(99))
            assert client.shutdown() is True
        assert server.stop() == 0
        stats = json.loads(server.stderr.strip().splitlines()[-1])["stats"]
        assert stats["transport"]["responses"] >= 1
        assert "adaptive" in stats["service"]


# -- wire pin: every op's response shape and the counters it moves --------

#: ``name -> (frame, response keys, error code, transport counters the
#: frame moves by one)``.  A ``bytes`` frame is sent as a raw body; a
#: ``cluster-`` case runs with cluster membership.
TCP_WIRE_CASES = {
    "ping": ({"op": "ping"}, "id pong", None, ""),
    "stats": ({"op": "stats"}, "id stats", None, ""),
    "health": ({"op": "health"}, "health id", None, ""),
    "cluster-health": ({"op": "health", "gossip": None}, "health id", None,
                       ""),
    "cluster-partition": ({"op": "partition", "block": ["n9"]},
                          "blocked id ok", None, ""),
    "partition": ({"op": "partition"}, "error id", "bad_request", "errors"),
    "cancel": ({"op": "cancel", "idem": "x"}, "cancelled id ok", None,
               "cancels"),
    "replicate": ({"op": "replicate", "records": []}, "error id",
                  "bad_request", "errors"),
    "sync": ({"op": "sync", "buckets": []}, "error id", "bad_request",
             "errors"),
    "unknown-op": ({"op": "explode"}, "error id", "bad_request", "errors"),
    "evaluate": (spec_for(200), "id outcomes", None, "requests responses"),
    "bad-spec": ({"fsm": "nonsense"}, "error id", "bad_request",
                 "bad_requests errors"),
    "expired-deadline": (spec_for(201, deadline_ms=0), "error id",
                         "deadline_exceeded",
                         "requests deadline_exceeded errors"),
    "bad-frame": (b"not json", "error id", "bad_frame", "bad_frames errors"),
    "shutdown": ({"op": "shutdown"}, "id ok", None, ""),
}


def counters_moved(before, after):
    """Counters that changed, by how much (connection counts aside)."""
    return {
        name: after[name] - before[name] for name in after
        if after[name] != before[name] and not name.startswith("connections_")
    }


@pytest.mark.parametrize("case", sorted(TCP_WIRE_CASES))
def test_wire_pin_op_response_and_counters(case):
    from repro.service.cluster import ClusterMembership

    frame, keys, code, moved = TCP_WIRE_CASES[case]
    membership = (
        ClusterMembership("n0", ("127.0.0.1", 1))
        if case.startswith("cluster-") else None
    )

    async def scenario():
        with EvaluationService(n_workers=1) as service:
            server = await AsyncEvaluationServer(
                service, membership=membership
            ).start()
            reader, writer = await asyncio.open_connection(*server.address)
            await wait_until(lambda: server.stats.connections_opened == 1)
            before = server.stats.snapshot()
            writer.write(
                FRAME_HEADER.pack(len(frame)) + frame
                if isinstance(frame, bytes)
                else encode_frame({"id": case, **frame})
            )
            response = json.loads(await asyncio.wait_for(read_frame(reader),
                                                         30))
            writer.close()   # the handler drains before counting the close
            await wait_until(lambda: server.stats.connections_closed == 1)
            await server.aclose()
            return response, counters_moved(before, server.stats.snapshot())

    response, got_moved = asyncio.run(scenario())
    assert sorted(response) == keys.split()
    assert response["id"] == (None if isinstance(frame, bytes) else case)
    assert response.get("error", {}).get("code") == code
    assert got_moved == dict.fromkeys(moved.split(), 1)
