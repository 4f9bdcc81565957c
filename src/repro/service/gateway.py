"""HTTP/1.1 + WebSocket gateway: the service's production front door.

``repro-a2a serve --http HOST:PORT`` fronts one
:class:`repro.service.EvaluationService` with a stdlib asyncio server:
framing, auth and admission around the op table it shares with the TCP
transport (:class:`repro.service.transport.BaseAsyncServer`).
``GET /v1/health``, ``GET /v1/stats``, ``GET /metrics`` (Prometheus
text), ``POST /v1/shutdown``, ``POST /v1/evaluate`` (interactive unless
the spec says otherwise) and ``POST /v1/evolve`` (always bulk) each call
one op; ``WS /v1/stream`` splits each campaign spec into per-FSM
``evaluate`` calls and streams one message per FSM, in order.

A bearer token (``auth_token``, constant-time compare) guards every
route but ``GET /v1/health``, which supervisors probe without
credentials; ``tls`` takes an :class:`ssl.SSLContext`.  Admission has
two priority classes: bulk admissions stop at a fraction of the
in-flight budget, so bulk load never starves interactive requests; each
client is bounded to ``max_inflight_per_client``; refusals are ``429``
with ``Retry-After``, and a spent deadline is refused before admission.
See "Request pipeline" in ``docs/GATEWAY.md``.
"""

import asyncio
import base64
import contextlib
import hashlib
import hmac
import http.client
import itertools
import json
import math
import ssl as ssl_module
import struct
import time
import uuid
from dataclasses import asdict, dataclass
from typing import NamedTuple

from repro.resilience.deadline import (
    DEADLINE_FIELD,
    DEADLINE_HEADER,
    spec_deadline,
)
from repro.service.jsonl import outcome_from_dict, outcome_to_dict
from repro.service.metrics import LatencyHistogram
from repro.service.service import normalize_priority, priority_label
from repro.service.transport import (
    ERR_BAD_REQUEST,
    ERR_CANCELLED,
    ERR_DEADLINE_EXCEEDED,
    ERR_EVALUATION_FAILED,
    ERR_OVERLOADED,
    ERR_SHUTTING_DOWN,
    ERR_TIMEOUT,
    MAX_FRAME_BYTES,
    WORK_OPS,
    BaseAsyncServer,
    RequestExecutionError,
    TransportError,
    _StopReading,
    _stamp_or_expire,
    is_retryable_error,
)

#: Gateway-only error codes, extending the transport taxonomy.
ERR_UNAUTHORIZED = "unauthorized"
ERR_NOT_FOUND = "not_found"
ERR_METHOD_NOT_ALLOWED = "method_not_allowed"

#: HTTP status for each protocol error code.
_CODE_STATUS = {
    ERR_BAD_REQUEST: 400,
    ERR_UNAUTHORIZED: 401,
    ERR_NOT_FOUND: 404,
    ERR_METHOD_NOT_ALLOWED: 405,
    ERR_OVERLOADED: 429,
    ERR_CANCELLED: 499,
    ERR_EVALUATION_FAILED: 500,
    ERR_SHUTTING_DOWN: 503,
    ERR_TIMEOUT: 504,
    ERR_DEADLINE_EXCEEDED: 504,
}

_STATUS_REASONS = {
    101: "Switching Protocols",
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    499: "Client Closed Request",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: RFC 6455 handshake GUID.
_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

_WS_TEXT = 0x1
_WS_BINARY = 0x2
_WS_CLOSE = 0x8
_WS_PING = 0x9
_WS_PONG = 0xA
#: Close-frame payload: status 1001, "going away" (RFC 6455, 7.4.1).
_WS_GOING_AWAY = struct.pack(">H", 1001)


class GatewayError(RequestExecutionError):
    """An HTTP-visible failure: status + protocol error code."""

    def __init__(self, code, message, retry_after=None):
        super().__init__(code, message)
        self.status = _CODE_STATUS.get(code, 500)
        self.retry_after = retry_after


class AdmissionController:
    """Two-class, per-client in-flight bookkeeping.

    The global budget is ``max_inflight``; **bulk** admissions stop at
    ``bulk_fraction`` of it, leaving guaranteed headroom for
    interactive requests -- the structural guarantee behind the
    no-priority-inversion test.  Every client (as identified by the
    gateway) is additionally bounded to ``max_per_client`` in-flight
    requests, so one greedy client cannot consume either class's
    budget.  Refusals raise :class:`GatewayError` with a
    ``Retry-After`` hint.
    """

    def __init__(self, max_inflight=64, max_per_client=16,
                 bulk_fraction=0.75):
        if max_inflight < 1 or max_per_client < 1:
            raise ValueError("admission bounds must be at least 1")
        self.max_inflight = int(max_inflight)
        self.max_per_client = int(max_per_client)
        self.bulk_limit = max(1, int(max_inflight * bulk_fraction))
        self.inflight = 0
        self.per_client = {}
        self.admitted = {"interactive": 0, "bulk": 0}
        self.rejected = {"interactive": 0, "bulk": 0}
        self.rejected_per_client = 0

    def admit(self, client, label, retry_after=1):
        limit = (
            self.max_inflight if label == "interactive" else self.bulk_limit
        )
        if self.inflight >= limit:
            self.rejected[label] += 1
            raise GatewayError(
                ERR_OVERLOADED,
                f"{label} admission budget exhausted "
                f"({self.inflight}/{limit} in flight)",
                retry_after=retry_after,
            )
        if self.per_client.get(client, 0) >= self.max_per_client:
            self.rejected[label] += 1
            self.rejected_per_client += 1
            raise GatewayError(
                ERR_OVERLOADED,
                f"client {client!r} already has "
                f"{self.max_per_client} requests in flight",
                retry_after=retry_after,
            )
        self.inflight += 1
        self.per_client[client] = self.per_client.get(client, 0) + 1
        self.admitted[label] += 1

    def release(self, client, label):
        self.inflight -= 1
        remaining = self.per_client.get(client, 1) - 1
        if remaining <= 0:
            self.per_client.pop(client, None)
        else:
            self.per_client[client] = remaining

    def snapshot(self):
        return {
            "inflight": self.inflight,
            "max_inflight": self.max_inflight,
            "bulk_limit": self.bulk_limit,
            "max_per_client": self.max_per_client,
            "clients_inflight": len(self.per_client),
            "admitted": dict(self.admitted),
            "rejected": dict(self.rejected),
            "rejected_per_client": self.rejected_per_client,
        }


@dataclass
class GatewayStats:
    """Lifetime counters of one gateway instance."""

    connections_opened: int = 0
    connections_closed: int = 0
    requests: int = 0
    responses: int = 0
    errors: int = 0
    unauthorized: int = 0
    overloaded: int = 0
    bad_requests: int = 0
    timeouts: int = 0
    failures: int = 0
    ws_streams: int = 0
    ws_messages: int = 0
    evolve_runs: int = 0
    #: requests whose budget was already spent on arrival -- refused at
    #: the front door, never admitted, never dispatched
    deadline_rejected: int = 0
    #: requests whose budget ran out downstream (queue or dispatch)
    deadline_exceeded: int = 0

    def snapshot(self):
        return asdict(self)


def websocket_accept(key):
    """The ``Sec-WebSocket-Accept`` value for a handshake key."""
    digest = hashlib.sha1((key + _WS_GUID).encode()).digest()
    return base64.b64encode(digest).decode()


async def ws_read_message(reader, max_bytes=MAX_FRAME_BYTES):
    """One ``(opcode, payload)`` WebSocket message; ``None`` on EOF.

    Handles client masking and fragmented continuations; control
    frames (close/ping/pong) are returned to the caller to answer.
    """
    payload = bytearray()
    opcode = None
    while True:
        try:
            head = await reader.readexactly(2)
        except asyncio.IncompleteReadError:
            return None
        fin = bool(head[0] & 0x80)
        frame_op = head[0] & 0x0F
        masked = bool(head[1] & 0x80)
        length = head[1] & 0x7F
        if length == 126:
            (length,) = struct.unpack(">H", await reader.readexactly(2))
        elif length == 127:
            (length,) = struct.unpack(">Q", await reader.readexactly(8))
        if length > max_bytes:
            raise ValueError(f"WebSocket frame of {length} bytes refused")
        mask = await reader.readexactly(4) if masked else None
        data = await reader.readexactly(length) if length else b""
        if mask:
            data = bytes(
                byte ^ mask[i % 4] for i, byte in enumerate(data)
            )
        if frame_op in (_WS_CLOSE, _WS_PING, _WS_PONG):
            return frame_op, data   # control frames are never fragmented
        if frame_op:
            opcode = frame_op
        payload.extend(data)
        if fin:
            return opcode, bytes(payload)


def ws_encode_frame(payload, opcode=_WS_TEXT, mask=False):
    """One WebSocket frame (server frames unmasked, client masked)."""
    if isinstance(payload, str):
        payload = payload.encode()
    head = bytearray([0x80 | opcode])
    mask_bit = 0x80 if mask else 0
    length = len(payload)
    if length < 126:
        head.append(mask_bit | length)
    elif length < 1 << 16:
        head.append(mask_bit | 126)
        head.extend(struct.pack(">H", length))
    else:
        head.append(mask_bit | 127)
        head.extend(struct.pack(">Q", length))
    if mask:
        key = uuid.uuid4().bytes[:4]
        head.extend(key)
        payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return bytes(head) + payload


class _HttpConnectionClosed(Exception):
    """The peer went away between requests (clean keep-alive EOF)."""


class _Route(NamedTuple):
    """One HTTP route onto an op of the shared op table."""

    #: the method it answers; ``None``: any, upgraded to a WebSocket
    method: str
    op: str
    #: the payload entry that is the HTTP body (``None``: the payload)
    body_key: str = None
    #: a work route's admission class when the spec names no
    #: ``priority``; ``None``: bulk, whatever the spec says
    priority: str = None


#: path -> route.  A work route (evaluate, evolve) answers another
#: method with 405; any other mismatch is a 404, like an unknown path.
_ROUTES = {
    "/v1/health": _Route("GET", "health", body_key="health"),
    "/v1/stats": _Route("GET", "stats", body_key="stats"),
    "/metrics": _Route("GET", "metrics", body_key="metrics"),
    "/v1/shutdown": _Route("POST", "shutdown"),
    "/v1/evaluate": _Route("POST", "evaluate", priority="interactive"),
    "/v1/evolve": _Route("POST", "evolve"),
    "/v1/stream": _Route(None, "evaluate", priority="bulk"),
}

#: The one route served without a bearer token: supervisors and load
#: balancers probe liveness without credentials.
_OPEN_ROUTE = ("GET", "/v1/health")

#: Headers an error response of each code carries.
_CODE_HEADERS = {
    ERR_UNAUTHORIZED: (("WWW-Authenticate", "Bearer"),),
    ERR_METHOD_NOT_ALLOWED: (("Allow", "POST"),),   # work routes are POST
}


def _error_payload(code, message):
    return {"error": {"code": code, "message": message}}


class GatewayServer(BaseAsyncServer):
    """The HTTP/1.1 + WebSocket front of one :class:`EvaluationService`.

    Shares the serving core -- the op table, the decode thread, drain
    and timeout semantics -- with the framed TCP transport.  HTTP maps
    ``(method, path)`` onto an op and an error code onto a status; a
    WebSocket stream splits each campaign into per-FSM ``evaluate``
    calls.  ``port=0`` binds an ephemeral port; read :attr:`address`
    after :meth:`start`.

    ``listener`` is the serving listener whose
    :class:`~repro.service.jsonl.ServeSession` this one shares (combined
    ``--tcp`` + ``--http`` serving, or the ``--metrics`` sidecar), so
    workloads arriving over HTTP coalesce into the same dispatcher
    batches and idempotency and the journal are one across protocols.
    """

    OPS = frozenset({"health", "stats", "metrics", "shutdown", "evaluate",
                     "evolve"})
    #: The 404 message for a path or op this listener does not serve.
    NOT_SERVED = "no route for {path}"

    def __init__(self, service, host="127.0.0.1", port=0, auth_token=None,
                 tls=None, journal=None, membership=None,
                 request_timeout=None, max_inflight=64,
                 max_inflight_per_client=16, bulk_fraction=0.75,
                 max_body_bytes=MAX_FRAME_BYTES, listener=None):
        super().__init__(service, request_timeout=request_timeout,
                         journal=journal, name="gateway")
        self.listener = listener
        if listener is not None:
            self.session = listener.session
            self._owns_session = False
        self.host = host
        self.port = port
        self.auth_token = auth_token
        self.tls = tls
        self.membership = membership
        self.max_body_bytes = int(max_body_bytes)
        self.admission = AdmissionController(
            max_inflight=max_inflight,
            max_per_client=max_inflight_per_client,
            bulk_fraction=bulk_fraction,
        )
        self.histograms = {
            "interactive": LatencyHistogram(),
            "bulk": LatencyHistogram(),
        }
        self.stats = GatewayStats()

    def counters(self):
        """This front end's own counters, as ``health`` shows them."""
        return {
            "gateway": self.stats.snapshot(),
            "admission": self.admission.snapshot(),
        }

    def snapshot(self):
        """Gateway, admission and latency counters plus the session's."""
        snapshot = {
            **self.counters(),
            "latency": {
                label: histogram.snapshot()
                for label, histogram in self.histograms.items()
            },
            "service": self.session.stats(),
        }
        if self.membership is not None:
            # gossip counters and gray-node hints ride /metrics too, so
            # a scrape sees which peers this node believes are slow
            snapshot["membership"] = self.membership.stats()
        replicator = getattr(self.session, "replicator", None)
        if replicator is not None:
            # top-level so the flattener emits repro_replication_*
            # families (fanout queue depth, hint backlog, sync pulls)
            snapshot["replication"] = replicator.summary()
        return snapshot

    def encode_outcomes(self, outcomes):
        """The wire form of ``outcomes``, through this module's codec."""
        return [outcome_to_dict(outcome) for outcome in outcomes]

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, reader, writer):
        peer = writer.get_extra_info("peername")
        peer_host = peer[0] if peer else "unknown"
        try:
            while not self._closing:
                try:
                    request = await self._read_or_stop(
                        self._read_http_request(reader)
                    )
                except (_StopReading, _HttpConnectionClosed):
                    break
                except GatewayError as exc:
                    await self._send_error(writer, exc)
                    break
                except (ValueError, asyncio.IncompleteReadError,
                        asyncio.LimitOverrunError):
                    await self._send_error(writer, GatewayError(
                        ERR_BAD_REQUEST, "malformed HTTP request"
                    ))
                    break
                if not await self._serve_request(
                    request, reader, writer, peer_host
                ):
                    break
        except (ConnectionError, OSError):
            pass
        finally:
            with contextlib.suppress(ConnectionError, OSError):
                writer.close()
                await writer.wait_closed()

    async def _read_http_request(self, reader):
        request_line = await reader.readline()
        if not request_line:
            raise _HttpConnectionClosed
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
            raise ValueError(f"bad request line {request_line!r}")
        method, target, _ = parts
        headers = {}
        for _ in range(100):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise ValueError(f"bad header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        else:
            raise ValueError("too many headers")
        body = b""
        length = int(headers.get("content-length", 0))
        if length > self.max_body_bytes:
            raise GatewayError(
                ERR_BAD_REQUEST,
                f"body of {length} bytes exceeds {self.max_body_bytes}",
            )
        if length:
            body = await reader.readexactly(length)
        return method.upper(), target, headers, body

    # -- responses ----------------------------------------------------------

    async def _send_response(self, writer, status, body, extra_headers=(),
                             keep_alive=True):
        content_type = (
            "text/plain; version=0.0.4" if isinstance(body, str)
            else "application/json"
        )
        if isinstance(body, (dict, list)):
            body = json.dumps(body, separators=(",", ":")).encode()
        elif isinstance(body, str):
            body = body.encode()
        reason = _STATUS_REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        lines.extend(f"{name}: {value}" for name, value in extra_headers)
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        with contextlib.suppress(ConnectionError, OSError):
            writer.write(head + body)
            await writer.drain()
        if status >= 400:
            self.stats.errors += 1
        else:
            self.stats.responses += 1

    async def _send_error(self, writer, exc, keep_alive=True):
        """The HTTP error response for a :class:`RequestExecutionError`."""
        headers = list(_CODE_HEADERS.get(exc.code, ()))
        retry_after = getattr(exc, "retry_after", None)
        if retry_after is not None:
            headers.append(("Retry-After", str(retry_after)))
        await self._send_response(
            writer, _CODE_STATUS.get(exc.code, 500),
            _error_payload(exc.code, exc.message),
            extra_headers=headers, keep_alive=keep_alive,
        )

    # -- auth, routing and admission ----------------------------------------

    def _authorized(self, headers):
        if self.auth_token is None:
            return True
        supplied = headers.get("authorization", "")
        scheme, _, token = supplied.partition(" ")
        if scheme.lower() != "bearer":
            return False
        return hmac.compare_digest(token.strip(), self.auth_token)

    def _retry_after(self):
        """The overload back-off hint, from observed interactive latency."""
        p50 = self.histograms["interactive"].quantile(0.50)
        return max(1, math.ceil(p50))

    async def _serve_request(self, request, reader, writer, peer_host):
        """Answer one HTTP request; whether the connection stays open."""
        method, target, headers, body = request
        path = target.partition("?")[0].rstrip("/") or "/"
        client_id = headers.get("x-client-id", peer_host)
        keep_alive = headers.get("connection", "").lower() != "close"
        route = _ROUTES.get(path)
        try:
            if (method, path) != _OPEN_ROUTE and not self._authorized(
                headers
            ):
                self.stats.unauthorized += 1
                raise GatewayError(ERR_UNAUTHORIZED,
                                   "missing or invalid bearer token")
            if route is None or route.op not in self.OPS or (
                route.method not in (None, method)
                and route.op not in WORK_OPS
            ):
                raise GatewayError(ERR_NOT_FOUND,
                                   self.NOT_SERVED.format(path=path))
            if route.method is None:
                if headers.get("upgrade", "").lower() != "websocket":
                    raise GatewayError(
                        ERR_BAD_REQUEST,
                        f"{path} requires a WebSocket upgrade",
                    )
                await self._handle_stream(headers, reader, writer,
                                          client_id, route)
                return False
            if route.method != method:
                raise GatewayError(ERR_METHOD_NOT_ALLOWED,
                                   f"{path} requires {route.method}")
            if route.op in WORK_OPS:
                spec = self._decode_spec(body, headers)
                label = self._admission_class(spec, route)
                with self._admission(client_id, label):
                    payload = await self.run_op(route.op, spec)
            else:
                payload = await self.run_op(route.op, {})
        except RequestExecutionError as exc:
            await self._send_error(writer, exc, keep_alive=keep_alive)
            return keep_alive
        keep_alive = keep_alive and not self._shutdown_requested.is_set()
        await self._send_response(
            writer, 200,
            payload if route.body_key is None else payload[route.body_key],
            keep_alive=keep_alive,
        )
        return keep_alive

    def _decode_spec(self, body, headers):
        """The JSON spec a work route's body carries.

        ``X-Request-Deadline`` carries remaining budget in ms for
        clients that cannot touch the body; an explicit body field wins
        when both are present.
        """
        try:
            spec = json.loads(body.decode() or "{}")
            if not isinstance(spec, dict):
                raise ValueError("request body must be a JSON object")
        except (ValueError, UnicodeDecodeError) as exc:
            self.count_error(ERR_BAD_REQUEST)
            raise GatewayError(ERR_BAD_REQUEST,
                               f"invalid JSON body: {exc}") from None
        budget = headers.get(DEADLINE_HEADER.lower())
        if budget is not None and DEADLINE_FIELD not in spec:
            try:
                spec[DEADLINE_FIELD] = int(float(budget))
            except (ValueError, OverflowError):
                self.count_error(ERR_BAD_REQUEST)
                raise GatewayError(
                    ERR_BAD_REQUEST,
                    f"invalid {DEADLINE_HEADER} header {budget!r}: "
                    "expected milliseconds",
                ) from None
        return spec

    def _admission_class(self, spec, route):
        """The class ``spec`` is admitted in on ``route``.

        A route with a default priority reads the spec's ``priority``
        (filling in the default) and refuses a bad one, and refuses a
        spec whose deadline budget is already spent.
        """
        if route.priority is None:
            return "bulk"
        spec.setdefault("priority", route.priority)
        try:
            label = priority_label(normalize_priority(spec["priority"]))
            deadline = spec_deadline(spec)
        except ValueError as exc:
            self.count_error(ERR_BAD_REQUEST)
            raise GatewayError(ERR_BAD_REQUEST, str(exc)) from None
        if deadline is not None and deadline.expired:
            # spent budget is refused at the front door: no admission
            # slot, no dispatch, no queue time wasted on dead work
            self.stats.deadline_rejected += 1
            raise GatewayError(
                ERR_DEADLINE_EXCEEDED,
                "deadline budget exhausted on arrival; never dispatched",
            )
        return label

    @contextlib.contextmanager
    def _admission(self, client_id, label):
        """Hold one admission slot of class ``label`` for the block,
        timing it into the class's histogram when the block succeeds."""
        try:
            self.admission.admit(client_id, label,
                                 retry_after=self._retry_after())
        except GatewayError as exc:
            self.count_error(exc.code)
            raise
        started = time.monotonic()
        try:
            yield
        finally:
            self.admission.release(client_id, label)
        self.histograms[label].observe(time.monotonic() - started)

    # -- WebSocket streaming ------------------------------------------------

    async def _handle_stream(self, headers, reader, writer, client_id,
                             route):
        key = headers.get("sec-websocket-key")
        if not key:
            await self._send_error(
                writer,
                GatewayError(ERR_BAD_REQUEST, "missing Sec-WebSocket-Key"),
                keep_alive=False,
            )
            return
        head = (
            "HTTP/1.1 101 Switching Protocols\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Accept: {websocket_accept(key)}\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        await writer.drain()
        self.stats.ws_streams += 1
        while not self._closing:
            try:
                message = await self._read_or_stop(
                    ws_read_message(reader, self.max_body_bytes)
                )
            except _StopReading:
                break
            if message is None:
                return
            opcode, payload = message
            if opcode == _WS_CLOSE:
                with contextlib.suppress(ConnectionError, OSError):
                    writer.write(ws_encode_frame(payload, _WS_CLOSE))
                    await writer.drain()
                return
            if opcode == _WS_PING:
                writer.write(ws_encode_frame(payload, _WS_PONG))
                await writer.drain()
                continue
            if opcode == _WS_PONG:
                continue
            await self._stream_one(payload, writer, client_id, route)
        # the gateway is draining: close the stream as "going away"
        with contextlib.suppress(ConnectionError, OSError):
            writer.write(ws_encode_frame(_WS_GOING_AWAY, _WS_CLOSE))
            await writer.drain()

    async def _ws_send_json(self, writer, payload):
        writer.write(ws_encode_frame(json.dumps(payload,
                                                separators=(",", ":"))))
        await writer.drain()

    async def _stream_one(self, payload, writer, client_id, route):
        """Answer one stream message: one ``evaluate`` call per FSM.

        A multi-FSM campaign spec is split into per-FSM ``evaluate``
        calls, all started before the first result is awaited, so the
        dispatcher can coalesce them, under one admission slot.  One
        ``{"id", "seq", "outcome"}`` message streams back per FSM, in
        submission order, followed by a ``{"id", "done": true}``
        terminator -- or, once every FSM has finished, the first
        failing FSM's error.
        """
        try:
            spec = json.loads(payload)
            if not isinstance(spec, dict):
                raise ValueError("stream message must be a JSON object")
        except (ValueError, UnicodeDecodeError) as exc:
            self.count_error(ERR_BAD_REQUEST)
            await self._ws_send_json(writer, _error_payload(
                ERR_BAD_REQUEST, f"invalid stream message: {exc}"
            ))
            return
        request_id = spec.get("id")
        fsm_spec = spec.get("fsm", "published")
        fsms = fsm_spec if isinstance(fsm_spec, list) else [fsm_spec]
        try:
            with self._admission(client_id,
                                 self._admission_class(spec, route)):
                calls = [
                    asyncio.ensure_future(
                        self.run_op("evaluate", {**spec, "fsm": one})
                    )
                    for one in fsms
                ]
                try:
                    for seq, call in enumerate(calls):
                        shard = await call
                        await self._ws_send_json(writer, {
                            "id": request_id,
                            "seq": seq,
                            "outcome": shard["outcomes"][0],
                        })
                        self.stats.ws_messages += 1
                finally:   # after a failure the later FSMs still finish
                    await asyncio.gather(*calls, return_exceptions=True)
        except RequestExecutionError as exc:
            message = {"id": request_id,
                       **_error_payload(exc.code, exc.message)}
            if getattr(exc, "retry_after", None) is not None:
                message["retry_after"] = exc.retry_after
            await self._ws_send_json(writer, message)
            return
        await self._ws_send_json(writer, {
            "id": request_id, "done": True, "n": len(fsms),
        })
        self.stats.ws_messages += 1


class MetricsSidecar(GatewayServer):
    """The ``--metrics`` listener: ``GET /v1/health`` and ``GET /metrics``.

    Its ``metrics`` op exports the serving ``listener``'s snapshot and
    latency histograms -- ``repro_transport_*`` beside ``--tcp``,
    ``repro_gateway_*`` beside ``--http`` -- rather than its own
    scrapes; with no listener it exports itself.  Every other path is a
    404.
    """

    OPS = frozenset({"health", "metrics"})
    NOT_SERVED = "metrics-only listener: use the serving transport"

    def __init__(self, service, **kwargs):
        super().__init__(service, **kwargs)
        if self.listener is not None:
            self.histograms = self.listener.histograms

    def snapshot(self):
        if self.listener is None:
            return super().snapshot()
        return self.listener.snapshot()


class HTTPServiceClient:
    """Blocking :class:`repro.service.Client` over the HTTP gateway.

    Round-trips the same workload vocabulary as every other client via
    ``POST /v1/evaluate``; ``options=`` carries the bearer token
    (``auth_token``), the per-request ``timeout``, TLS context
    (``tls``, used when ``scheme="https"``) and the retry
    policy/breaker.  Retried evaluations carry idempotency keys, so an
    answer lost to a dropped connection is re-fetched without
    re-simulation -- identical semantics to the TCP client.
    """

    def __init__(self, host, port=None, options=None, scheme="http",
                 client_id=None, timeout=None, retry_policy=None,
                 breaker=None):
        from repro.service.client import resolve_options

        options = resolve_options(
            options, where="HTTPServiceClient", timeout=timeout,
            retry_policy=retry_policy, breaker=breaker,
        )
        if port is None:
            host, port = host
        self._address = (host, int(port))
        self.scheme = scheme
        self.client_id = client_id   # X-Client-Id; admission identity
        self.options = options
        self.retry_policy = options.retry_policy
        self.breaker = options.breaker
        self._ids = itertools.count()
        self._conn = None

    def _connect(self):
        host, port = self._address
        if self.scheme == "https":
            context = self.options.tls
            if context is None:
                context = ssl_module.create_default_context()
            return http.client.HTTPSConnection(
                host, port, timeout=self.options.timeout, context=context
            )
        return http.client.HTTPConnection(
            host, port, timeout=self.options.timeout
        )

    def _drop(self):
        if self._conn is not None:
            with contextlib.suppress(Exception):
                self._conn.close()
            self._conn = None

    def close(self):
        self._drop()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def _round_trip(self, method, path, payload=None):
        if self._conn is None:
            self._conn = self._connect()
        headers = {"Content-Type": "application/json"}
        if self.options.auth_token:
            headers["Authorization"] = f"Bearer {self.options.auth_token}"
        if self.client_id:
            headers["X-Client-Id"] = self.client_id
        body = (
            json.dumps(payload, separators=(",", ":"))
            if payload is not None else None
        )
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        raw = response.read()
        content_type = response.headers.get("Content-Type", "")
        if "json" in content_type:
            decoded = json.loads(raw) if raw else {}
        else:
            decoded = raw.decode()
        if response.status >= 400:
            error = (
                decoded.get("error", {}) if isinstance(decoded, dict) else {}
            )
            exc = TransportError(
                error.get("code", f"http_{response.status}"),
                error.get("message", raw.decode(errors="replace")),
            )
            hint = response.headers.get("Retry-After")
            if hint is not None:
                try:
                    # carried to the retry policy, which honours the
                    # server's backoff over its own schedule
                    exc.retry_after = float(hint)
                except ValueError:
                    pass
            raise exc
        return decoded

    def _request(self, method, path, payload=None):
        # the end-to-end budget: re-stamped (decremented) at every
        # attempt, so time burned in backoff comes out of the budget
        # the server sees
        deadline = (
            spec_deadline(payload) if isinstance(payload, dict) else None
        )
        if self.retry_policy is None and self.breaker is None:
            if deadline is not None:
                _stamp_or_expire(payload, deadline)
            try:
                return self._round_trip(method, path, payload)
            except (ConnectionError, OSError, http.client.HTTPException):
                self._drop()
                raise
        if (
            payload is not None and "idem" not in payload
            and path == "/v1/evaluate"
        ):
            payload = dict(payload)
            payload["idem"] = uuid.uuid4().hex

        def attempt():
            if deadline is not None:
                _stamp_or_expire(payload, deadline)
            if self.breaker is not None:
                self.breaker.allow()
            try:
                result = self._round_trip(method, path, payload)
            except Exception as exc:
                if isinstance(
                    exc, (ConnectionError, OSError,
                          http.client.HTTPException)
                ):
                    self._drop()
                if self.breaker is not None:
                    self.breaker.record_failure()
                raise
            if self.breaker is not None:
                self.breaker.record_success()
            return result

        if self.retry_policy is None:
            return attempt()
        return self.retry_policy.run(
            attempt, retryable=(Exception,),
            should_retry=self._should_retry,
            retry_after=self._retry_after_hint,
        )

    @staticmethod
    def _retry_after_hint(exc):
        """The server's ``Retry-After`` seconds riding on a 429, if any."""
        return getattr(exc, "retry_after", None)

    @staticmethod
    def _should_retry(exc):
        if isinstance(exc, TransportError):
            # 429 is an explicit invitation to retry after backoff
            return exc.code == ERR_OVERLOADED or is_retryable_error(exc)
        if isinstance(exc, http.client.HTTPException):
            return True
        return is_retryable_error(exc)

    def evaluate(self, **spec):
        """Evaluate one spec; a list of ``EvaluationResult`` per FSM."""
        spec = dict(spec)
        if "id" not in spec:
            spec["id"] = f"h{next(self._ids)}"
        response = self._request("POST", "/v1/evaluate", spec)
        return [outcome_from_dict(o) for o in response["outcomes"]]

    def evaluate_many(self, specs):
        """Per-spec result lists, in order (sequential round-trips)."""
        return [self.evaluate(**dict(spec)) for spec in specs]

    def evolve(self, **spec):
        """Run the paper's evolution via ``POST /v1/evolve``."""
        return self._request("POST", "/v1/evolve", spec)

    def ping(self):
        return bool(self.health().get("ok"))

    def health(self):
        return self._request("GET", "/v1/health")

    def stats(self):
        return self._request("GET", "/v1/stats")

    def metrics(self):
        """The raw ``/metrics`` text exposition."""
        return self._request("GET", "/metrics")

    def shutdown(self):
        """Ask the gateway to drain and exit (graceful shutdown)."""
        return self._request("POST", "/v1/shutdown").get("ok", False)
