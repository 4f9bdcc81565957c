"""End-to-end deadline battery: one budget, spent (and enforced) per hop.

Covers the `Deadline` arithmetic itself, then each place the serving
stack can refuse out-of-time work:

* **at the gateway** -- an exhausted ``deadline_ms`` body field or
  ``X-Request-Deadline`` header is a 504 before admission; the service
  never sees the request.
* **in the queue** -- a request whose budget dies while queued is
  answered ``deadline_exceeded`` by the dispatcher without a single
  simulation.
* **at the client** -- a spent budget fails the send locally, and the
  failure is *not* retryable (out of time stays out of time).
* **mid-stall** -- a ``cancel`` op arriving while a gray node's
  dispatch stall parks the batch reaps the work unsimulated and
  releases the idempotency key for a clean re-issue (the hedging
  router's loser-cancellation path).
"""

import http.client
import json
import threading
import time

import pytest

from repro.resilience.deadline import (
    DEADLINE_FIELD,
    DEADLINE_HEADER,
    Deadline,
    DeadlineExceeded,
    spec_deadline,
    stamp_spec,
)
from repro.resilience.faults import (
    gray_node_plan,
    installed as faults_installed,
)
from repro.service import (
    ClientOptions,
    EvaluationService,
    TCPServiceClient,
)
from repro.service.jsonl import ServeSession
from repro.service.transport import (
    ERR_DEADLINE_EXCEEDED,
    TransportError,
    is_retryable_error,
)
from tests.conftest import GatewayInThread, ServerInThread


def make_spec(seed, **overrides):
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
    spec.update(overrides)
    return spec


def http_post(address, path, body, headers=()):
    """``(status, decoded_json_body)`` of one raw POST."""
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        merged = {"Content-Type": "application/json"}
        merged.update(dict(headers))
        conn.request("POST", path, body=json.dumps(body), headers=merged)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class FakeClock:
    """A hand-cranked monotonic clock for deterministic expiry."""

    def __init__(self, now=100.0):
        self.now = float(now)

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestDeadlineArithmetic:
    def test_budget_counts_down_and_expires(self):
        clock = FakeClock()
        deadline = Deadline.after(250, clock=clock)
        assert deadline.remaining() == pytest.approx(0.25)
        assert not deadline.expired
        clock.advance(0.2)
        assert deadline.remaining_ms() == pytest.approx(50)
        clock.advance(0.1)
        assert deadline.expired
        assert deadline.remaining() < 0

    def test_to_wire_carries_what_is_left_floored_at_zero(self):
        clock = FakeClock()
        deadline = Deadline.after(100, clock=clock)
        clock.advance(0.04)
        assert deadline.to_wire() in (59, 60)   # int floor of 60ms
        clock.advance(1.0)   # long past expiry: stays recognisably dead
        assert deadline.to_wire() == 0

    def test_from_wire_rejects_non_numbers_and_accepts_zero(self):
        assert Deadline.from_wire(None) is None
        with pytest.raises(ValueError):
            Deadline.from_wire("soon")
        with pytest.raises(ValueError):
            Deadline.from_wire(True)   # bool is not a budget
        clock = FakeClock()
        dead_on_arrival = Deadline.from_wire(0, clock=clock)
        assert dead_on_arrival.expired

    def test_check_names_the_hop_that_gave_up(self):
        clock = FakeClock()
        deadline = Deadline.after(10, clock=clock)
        assert deadline.check(where="queue") is deadline
        clock.advance(1.0)
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.check(where="queue")
        assert "queue" in str(excinfo.value)
        assert excinfo.value.where == "queue"

    def test_stamp_spec_is_the_per_hop_decrement(self):
        clock = FakeClock()
        spec = {"seed": 1, DEADLINE_FIELD: 500}
        deadline = spec_deadline(spec, clock=clock)
        clock.advance(0.3)
        stamp_spec(spec, deadline)
        # the wire now carries what is left, not what was granted
        assert spec[DEADLINE_FIELD] == pytest.approx(200, abs=1)
        assert stamp_spec({"seed": 2}, None) == {"seed": 2}


class TestExpiredAtGateway:
    def test_spent_body_budget_is_504_and_never_dispatched(self):
        with EvaluationService(n_workers=1) as service:
            with GatewayInThread(service) as gw:
                status, body = http_post(
                    gw.address, "/v1/evaluate",
                    make_spec(11, **{DEADLINE_FIELD: 0}),
                )
                assert status == 504
                assert body["error"]["code"] == ERR_DEADLINE_EXCEEDED
                assert "never dispatched" in body["error"]["message"]
                assert gw.gateway.stats.deadline_rejected == 1
            stats = service.snapshot()
        # refused at the front door: nothing entered the queue
        assert stats["requests"] == 0
        assert stats["simulated_fsms"] == 0

    def test_spent_header_budget_is_504(self):
        with EvaluationService(n_workers=1) as service:
            with GatewayInThread(service) as gw:
                status, body = http_post(
                    gw.address, "/v1/evaluate", make_spec(12),
                    headers={DEADLINE_HEADER: "0"},
                )
                assert status == 504
                assert body["error"]["code"] == ERR_DEADLINE_EXCEEDED
                assert gw.gateway.stats.deadline_rejected == 1

    def test_garbage_header_is_400_not_silently_ignored(self):
        with EvaluationService(n_workers=1) as service:
            with GatewayInThread(service) as gw:
                status, body = http_post(
                    gw.address, "/v1/evaluate", make_spec(13),
                    headers={DEADLINE_HEADER: "whenever"},
                )
                assert status == 400
                assert DEADLINE_HEADER in body["error"]["message"]
                assert gw.gateway.stats.bad_requests == 1

    def test_live_budget_is_honoured_end_to_end(self):
        with EvaluationService(n_workers=1) as service:
            with GatewayInThread(service) as gw:
                status, body = http_post(
                    gw.address, "/v1/evaluate",
                    make_spec(14, **{DEADLINE_FIELD: 30_000}),
                )
                assert status == 200
                assert len(body["outcomes"]) == 1
                assert gw.gateway.stats.deadline_rejected == 0


class TestExpiredInQueue:
    def test_queued_request_is_refused_before_simulation(self):
        # no dispatcher yet: the request sits in the queue while its
        # budget dies, exactly like a backlogged fleet under load
        service = EvaluationService(n_workers=1, autostart=False)
        try:
            session = ServeSession(service)
            spec = make_spec(21, **{DEADLINE_FIELD: 30})
            _, future = session.submit_spec(spec)
            time.sleep(0.06)   # budget now spent
            service.start()
            with pytest.raises(DeadlineExceeded) as excinfo:
                future.result(timeout=30)
            assert "expired in queue" in str(excinfo.value)
            stats = service.snapshot()
            assert stats["deadline_expired"] == 1
            assert stats["simulated_fsms"] == 0
        finally:
            service.close()

    def test_fresh_request_behind_an_expired_one_still_completes(self):
        service = EvaluationService(n_workers=1, autostart=False)
        try:
            session = ServeSession(service)
            _, doomed = session.submit_spec(
                make_spec(22, **{DEADLINE_FIELD: 20})
            )
            _, live = session.submit_spec(make_spec(23))
            time.sleep(0.05)
            service.start()
            outcomes = live.result(timeout=60)
            assert len(outcomes) == 1
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=30)
        finally:
            service.close()


class TestExpiredAtClient:
    def test_spent_budget_fails_before_the_send(self):
        with EvaluationService(n_workers=1) as service:
            with ServerInThread(service) as server:
                with TCPServiceClient(server.address) as client:
                    with pytest.raises(TransportError) as excinfo:
                        client.request(make_spec(31, **{DEADLINE_FIELD: 0}))
                    assert excinfo.value.code == ERR_DEADLINE_EXCEEDED
                    assert not is_retryable_error(excinfo.value)
            # the expiry was decided locally: nothing reached the server
            assert service.snapshot()["requests"] == 0

    def test_expiry_is_terminal_under_a_retry_policy(self):
        from repro.resilience import RetryPolicy

        attempts = []
        policy = RetryPolicy(seed=0, max_attempts=4, base_delay=0.01)
        client = TCPServiceClient(
            ("127.0.0.1", 1), options=ClientOptions(retry_policy=policy)
        )
        original_connect = client._connect

        def counting_connect():
            attempts.append(1)
            return original_connect()

        client._connect = counting_connect
        with pytest.raises(TransportError) as excinfo:
            client.request(make_spec(32, **{DEADLINE_FIELD: 0}))
        assert excinfo.value.code == ERR_DEADLINE_EXCEEDED
        # out of time stays out of time: no attempt ever reached the wire
        assert attempts == []


class TestCancelMidStall:
    def test_cancelled_loser_is_reaped_unsimulated_and_key_released(self):
        # one gray node: every dispatch batch parks for 0.4s ahead of
        # set_running_or_notify_cancel, the window a hedging router's
        # cancel lands in
        plan = gray_node_plan(seconds=0.4, hits=4)
        idem = "hedge-loser-1"
        spec = make_spec(41, idem=idem)
        with EvaluationService(n_workers=1) as service:
            with faults_installed(plan):
                with ServerInThread(service) as server:
                    outcome = {}

                    def waiter():
                        with TCPServiceClient(server.address) as peer:
                            try:
                                outcome["result"] = peer.request(dict(spec))
                            except TransportError as exc:
                                outcome["error"] = exc

                    thread = threading.Thread(target=waiter, daemon=True)
                    thread.start()
                    time.sleep(0.1)   # request now parked in the stall
                    with TCPServiceClient(server.address) as control:
                        assert control.cancel(idem) is True
                        thread.join(timeout=30)
                        assert "error" in outcome
                        assert outcome["error"].code == "cancelled"
                        stats = control.stats()["service"]
                        assert stats["simulated_fsms"] == 0
                        assert stats["cancelled"] >= 1
                        # the key is free again: a re-issue under the
                        # same idem is a clean first submission
                        response = control.request(dict(spec))
                        assert len(response["outcomes"]) == 1
                        service_stats = control.stats()["service"]
                        assert service_stats["simulated_fsms"] == 1

    def test_cancel_of_unknown_key_is_a_polite_no(self):
        with EvaluationService(n_workers=1) as service:
            with ServerInThread(service) as server:
                with TCPServiceClient(server.address) as client:
                    assert client.cancel("never-submitted") is False
