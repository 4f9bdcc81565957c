"""Async TCP transport for the evaluation service, and the serving core
every front end shares.

``repro-a2a serve --tcp HOST:PORT`` fronts one
:class:`repro.service.EvaluationService` with an asyncio server so many
concurrent clients share a single dispatcher, worker pool and cache.
Every message is a 4-byte big-endian byte count followed by one UTF-8
JSON object.  A frame names an op of the op table on
:class:`BaseAsyncServer` -- no ``op`` means ``evaluate``, the stdin
JSONL vocabulary of :mod:`repro.service.jsonl` -- and errors come back
as frames like::

    {"id": "r1", "error": {"code": "timeout", "message": "..."}}

Flow control is deliberate: a connection holds at most ``max_pending``
requests in flight and stops *reading* when that budget is spent
(backpressure); a request past ``request_timeout`` is cancelled, before
it is ever simulated if still queued; a vanished client's in-flight
work is cancelled; quiet connections are reaped after ``idle_timeout``;
:meth:`BaseAsyncServer.aclose` stops accepting and reading, drains every
in-flight request, then closes.  See "Request pipeline" in
``docs/GATEWAY.md``.
"""

import asyncio
import contextlib
import itertools
import json
import socket
import struct
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

from repro.resilience.deadline import (
    DEADLINE_FIELD,
    DeadlineExceeded,
    spec_deadline,
    stamp_spec,
)
from repro.resilience.faults import (
    DELAY,
    DISCONNECT,
    GARBAGE_FRAME,
    SITE_CLIENT_CONNECT,
    SITE_CLIENT_RECV,
    SITE_CLIENT_SEND,
    SITE_TRANSPORT_SEND,
    maybe_fault,
)
from repro.service.jsonl import ServeSession, outcome_from_dict, outcome_to_dict
from repro.service.metrics import render_metrics
from repro.service.service import ServiceError

#: Frame header: one unsigned 32-bit big-endian body byte count.
FRAME_HEADER = struct.Struct(">I")

#: Refuse frames larger than this (a genome table is a few KiB).
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Error-frame codes, in the order a request can hit them.
ERR_BAD_FRAME = "bad_frame"             # framing/JSON violation
ERR_BAD_REQUEST = "bad_request"         # well-framed but invalid spec
ERR_SHUTTING_DOWN = "shutting_down"     # arrived after shutdown began
ERR_TIMEOUT = "timeout"                 # exceeded request_timeout
ERR_EVALUATION_FAILED = "evaluation_failed"  # the simulation itself failed
ERR_DEADLINE_EXCEEDED = "deadline_exceeded"  # end-to-end budget ran out
ERR_CANCELLED = "cancelled"             # cancelled via the cancel op
ERR_OVERLOADED = "overloaded"           # refused at HTTP/WS admission


class FrameError(ValueError):
    """A violation of the length-prefix framing (cannot resync)."""


class _IdleTimeout(Exception):
    """Internal: the idle reaper fired on a quiet connection."""


class _StopReading(Exception):
    """Internal: graceful shutdown asked the read loop to stop."""


def encode_frame(payload):
    """One wire frame (header + body) for a JSON-ready object."""
    body = json.dumps(payload, separators=(",", ":")).encode()
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(f"frame body of {len(body)} bytes exceeds "
                         f"MAX_FRAME_BYTES ({MAX_FRAME_BYTES})")
    return FRAME_HEADER.pack(len(body)) + body


async def read_frame(reader):
    """One frame body from an asyncio reader; ``None`` on clean EOF."""
    try:
        header = await reader.readexactly(FRAME_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise FrameError("connection closed inside a frame header")
        return None
    (length,) = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {length} bytes exceeds MAX_FRAME_BYTES")
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise FrameError("connection closed inside a frame body") from None


def _recv_exact(sock, n_bytes):
    chunks = []
    while n_bytes:
        chunk = sock.recv(n_bytes)
        if not chunk:
            return None
        chunks.append(chunk)
        n_bytes -= len(chunk)
    return b"".join(chunks)


def send_frame(sock, payload):
    """Blocking counterpart of :func:`encode_frame` for plain sockets."""
    sock.sendall(encode_frame(payload))


def recv_frame(sock):
    """One decoded frame from a blocking socket; ``None`` on clean EOF."""
    header = _recv_exact(sock, FRAME_HEADER.size)
    if header is None:
        return None
    (length,) = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {length} bytes exceeds MAX_FRAME_BYTES")
    body = _recv_exact(sock, length)
    if body is None:
        raise FrameError("connection closed inside a frame body")
    return json.loads(body)


@dataclass
class TransportStats:
    """Counters the server keeps per lifetime, shown by ``--stats``."""

    connections_opened: int = 0
    connections_closed: int = 0
    requests: int = 0
    responses: int = 0
    errors: int = 0
    bad_frames: int = 0
    bad_requests: int = 0
    timeouts: int = 0
    failures: int = 0
    deadline_exceeded: int = 0
    cancels: int = 0                # cancel ops received
    cancelled_requests: int = 0     # submissions reaped by a cancel
    cancelled_on_disconnect: int = 0
    replicate_ops: int = 0          # inbound write-fanout batches applied
    sync_ops: int = 0               # anti-entropy bucket pulls served
    idle_reaped: int = 0
    backpressure_engaged: int = 0
    backpressure_released: int = 0

    def snapshot(self):
        return asdict(self)


def _dup_socket(writer):
    """A duplicate of ``writer``'s raw socket, or ``None``."""
    sock = writer.get_extra_info("socket")
    if sock is None:
        return None
    try:
        return sock.dup()
    except OSError:
        return None


def _force_eof(dup):
    """Force FIN out through a :func:`_dup_socket` duplicate.

    Worker processes forked after a connection was accepted inherit its
    descriptor, so a plain ``close()`` leaves the kernel reference count
    above zero and the peer never sees EOF -- it blocks until its socket
    timeout.  ``shutdown()`` acts on the socket itself, not the
    descriptor, so the FIN goes out regardless of who else holds a copy.
    """
    if dup is None:
        return
    with contextlib.suppress(OSError):
        dup.shutdown(socket.SHUT_RDWR)
    with contextlib.suppress(OSError):
        dup.close()


class _Connection:
    """Per-client state: flow-control budget and in-flight tasks."""

    def __init__(self, reader, writer, max_pending):
        self.reader = reader
        self.writer = writer
        self.sem = asyncio.Semaphore(max_pending)
        self.write_lock = asyncio.Lock()
        self.tasks = set()
        self.closing = False


class RequestExecutionError(Exception):
    """One op failed with a protocol error code.

    Op bodies raise this; each front end (framed TCP, HTTP gateway,
    WebSocket stream) turns it into its own wire shape -- an error
    frame, an HTTP status, a stream message -- without re-deriving the
    code taxonomy.
    """

    def __init__(self, code, message):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


#: Ops that do the paper's work -- simulate a suite, run the GA -- as
#: opposed to control ops.  A work op's error bumps the counter its
#: code names in :data:`ERROR_COUNTERS`, and only a work op's answer is
#: a TCP ``responses`` count; a refused control op is just an error.
WORK_OPS = frozenset({"evaluate", "evolve"})

#: The counter each error code bumps, on whichever front end saw it.
#: Any other code -- or a counter the front end does not keep -- bumps
#: ``failures``.
ERROR_COUNTERS = {
    ERR_BAD_REQUEST: "bad_requests",
    ERR_TIMEOUT: "timeouts",
    ERR_DEADLINE_EXCEEDED: "deadline_exceeded",
    ERR_CANCELLED: "cancelled_requests",
    ERR_OVERLOADED: "overloaded",
}


class BaseAsyncServer:
    """The serving core shared by every asyncio front end.

    Owns what is protocol-independent: the :class:`ServeSession` (spec
    decoding, idempotency, journal), the decode and evolve worker
    threads, the listener and its connection handlers, the closing /
    stop-reading / shutdown events, and the **op table**.  Each entry of
    :attr:`OP_TABLE` takes a decoded spec and returns a payload dict or
    raises :class:`RequestExecutionError`; every op body exists once,
    here.  A front end is framing, auth and admission around
    :meth:`run_op`, and serves the ops its class lists in :attr:`OPS`.
    The framed TCP server (:class:`AsyncEvaluationServer`) and the HTTP
    gateway (:class:`repro.service.gateway.GatewayServer`) subclass
    this, so op semantics, drain and timeouts cannot drift between
    transports.  See "Request pipeline" in ``docs/GATEWAY.md``.
    """

    #: The ops this front end serves; any other is answered as unknown.
    OPS = frozenset()
    #: The listener's TLS context (the gateway's ``tls=``).
    tls = None
    #: A ``ClusterMembership`` whose view the ``health`` op exchanges.
    membership = None

    def __init__(self, service, request_timeout=None, journal=None,
                 name="transport"):
        self.service = service
        self.session = ServeSession(service, journal=journal)
        self.request_timeout = request_timeout
        #: admission class -> LatencyHistogram the ``metrics`` op exports
        self.histograms = {}
        self._owns_session = True   # replays the journal at start
        self._closing = False
        self._stop_reading = asyncio.Event()
        self._shutdown_requested = asyncio.Event()
        self._server = None
        self._handlers = set()
        # spec decoding builds grids/suites (CPU work with a shared
        # cache): one worker thread keeps it off the event loop *and*
        # serialised.  Evolution runs get their own thread.
        self._decode_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"{name}-decode"
        )
        self._evolve_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"{name}-evolve"
        )

    @property
    def address(self):
        """``(host, port)`` actually bound (resolves ``port=0``)."""
        return self._server.sockets[0].getsockname()[:2]

    async def start(self):
        """Replay the journal's uncommitted suffix, then listen.

        Clients reconnecting with their original idempotency keys then
        attach to the replayed futures instead of re-enqueueing.  A
        front end sharing another listener's session leaves the replay
        to that session's owner.
        """
        if self._owns_session and self.session.journal is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                self._decode_executor, self.session.replay_journal
            )
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port, ssl=self.tls
        )
        return self

    async def serve_until_shutdown(self):
        """Serve until shutdown is requested, then drain and close."""
        await self._shutdown_requested.wait()
        await self.aclose()

    def request_shutdown(self):
        """Flag graceful shutdown (safe to call from the event loop)."""
        self._shutdown_requested.set()

    async def aclose(self):
        """Graceful shutdown: stop accepting and reading, let every
        connection drain its in-flight requests, then close."""
        self._closing = True
        self._stop_reading.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._handlers:
            await asyncio.gather(*list(self._handlers),
                                 return_exceptions=True)
        self._decode_executor.shutdown(wait=False)
        self._evolve_executor.shutdown(wait=False)
        self._shutdown_requested.set()

    async def _serve_connection(self, reader, writer):
        handler = asyncio.current_task()
        self._handlers.add(handler)
        self.stats.connections_opened += 1
        try:
            await self._handle_connection(reader, writer)
        finally:
            self._handlers.discard(handler)
            self.stats.connections_closed += 1

    async def _read_or_stop(self, read, timeout=None):
        """The result of the coroutine ``read``, unless the drain signal
        comes first (:class:`_StopReading`) or ``timeout`` seconds pass
        (:class:`_IdleTimeout`).  Every read loop waits through this, so
        graceful shutdown never waits on an idle peer."""
        read = asyncio.ensure_future(read)
        stop = asyncio.ensure_future(self._stop_reading.wait())
        try:
            done, _ = await asyncio.wait(
                {read, stop}, timeout=timeout,
                return_when=asyncio.FIRST_COMPLETED,
            )
            if read in done:
                return read.result()
            if stop in done:
                raise _StopReading
            raise _IdleTimeout
        finally:
            for waiter in (read, stop):
                if waiter.done():
                    if not waiter.cancelled():
                        waiter.exception()   # mark retrieved
                else:
                    waiter.cancel()
                    with contextlib.suppress(asyncio.CancelledError):
                        await waiter

    # -- the op table -------------------------------------------------------

    async def run_op(self, op, spec):
        """The payload of ``op`` (one this front end serves) for ``spec``.

        Raises :class:`RequestExecutionError`: a body's ``ValueError``,
        ``KeyError`` or ``TypeError`` is the spec's fault, a
        ``bad_request``.  A work op's error first bumps its counter.
        """
        try:
            try:
                return await self.OP_TABLE[op](self, spec)
            except (ValueError, KeyError, TypeError) as exc:
                raise RequestExecutionError(ERR_BAD_REQUEST, str(exc)) from exc
        except RequestExecutionError as exc:
            if op in WORK_OPS:
                self.count_error(exc.code)
            raise

    def count_error(self, code):
        """Bump the counter :data:`ERROR_COUNTERS` names for ``code``."""
        name = ERROR_COUNTERS.get(code, "failures")
        if not hasattr(self.stats, name):
            name = "failures"
        setattr(self.stats, name, getattr(self.stats, name) + 1)

    def encode_outcomes(self, outcomes):
        """The wire form of ``outcomes``.  Each front-end module encodes
        through its own ``outcome_to_dict`` binding, the one its
        transport's codec spans are recorded on."""
        return [outcome_to_dict(outcome) for outcome in outcomes]

    async def _ping(self, spec):
        return {"pong": True}

    async def _stats(self, spec):
        return {"stats": self.snapshot()}

    async def _shutdown(self, spec):
        self.request_shutdown()   # the drain waits for this answer
        return {"ok": True}

    async def _health(self, spec):
        health = self.session.health()
        health.update(self.counters())
        if self.membership is not None:
            # push-pull gossip: merge the caller's view (None for plain
            # clients) and answer with ours -- unless the sender is
            # partitioned away: then nothing is merged or revealed
            view = self.membership.exchange(spec.get("gossip"))
            if view is not None:
                health["membership"] = view
        return {"health": health}

    async def _partition(self, spec):
        if self.membership is None:
            raise ValueError("partition op requires cluster membership")
        self.membership.set_blocked(spec.get("block") or [])
        return {"ok": True, "blocked": sorted(self.membership.blocked)}

    async def _cancel(self, spec):
        # best-effort cancellation by idempotency key: a hedging router
        # reaps the losing attempt so a slow node never simulates work
        # whose answer already shipped elsewhere
        self.stats.cancels += 1
        return {"ok": True,
                "cancelled": self.session.cancel_idem(spec.get("idem"))}

    async def _replicate(self, spec):
        applied = self.session.replicate(spec)
        self.stats.replicate_ops += 1
        return {"ok": True, "applied": applied}

    async def _sync(self, spec):
        records = self.session.sync(spec)
        self.stats.sync_ops += 1
        return {"ok": True, "records": records}

    async def _evaluate(self, spec):
        request_id, future = await self._submit_spec(spec)
        self.stats.requests += 1
        outcomes = await self._await_outcomes(future)
        return {"id": request_id, "outcomes": self.encode_outcomes(outcomes)}

    async def _evolve(self, spec):
        self.stats.requests += 1
        # rebased now, so the wait for the evolve thread spends it too
        deadline = spec_deadline(spec)
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(
                self._evolve_executor, self._run_evolve, dict(spec), deadline
            )
        except (ValueError, TypeError):
            raise   # the spec's fault: run_op answers bad_request
        except DeadlineExceeded as exc:
            raise RequestExecutionError(
                ERR_DEADLINE_EXCEEDED, str(exc)
            ) from exc
        except Exception as exc:   # the evolution itself failed
            raise RequestExecutionError(
                ERR_EVALUATION_FAILED, repr(exc)
            ) from exc
        self.stats.evolve_runs += 1
        return result

    async def _metrics(self, spec):
        return {"metrics": render_metrics(self.snapshot(), self.histograms)}

    #: op name -> body; ``await body(server, spec)`` is the payload.
    OP_TABLE = {
        "ping": _ping, "stats": _stats, "shutdown": _shutdown,
        "health": _health, "partition": _partition, "cancel": _cancel,
        "replicate": _replicate, "sync": _sync, "evaluate": _evaluate,
        "evolve": _evolve, "metrics": _metrics,
    }

    # -- the evaluate and evolve bodies' steps --------------------------------

    async def _submit_spec(self, spec):
        """Decode + enqueue one spec off-loop; ``(request_id, future)``.

        Refuses with ``shutting_down`` once draining has begun.
        """
        if self._closing:
            raise RequestExecutionError(
                ERR_SHUTTING_DOWN, "server is shutting down"
            )
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._decode_executor, self.session.submit_spec, spec
        )

    async def _await_outcomes(self, future):
        """Outcomes of one submission, under ``request_timeout``.

        A timeout cancels the submission -- if it was still queued the
        dispatcher never simulates it.  Failures surface as
        :class:`RequestExecutionError` with the matching code.
        """
        wrapped = asyncio.wrap_future(future)
        try:
            if self.request_timeout:
                return await asyncio.wait_for(wrapped, self.request_timeout)
            return await wrapped
        except asyncio.TimeoutError:
            raise RequestExecutionError(
                ERR_TIMEOUT,
                f"request exceeded {self.request_timeout}s",
            ) from None
        except asyncio.CancelledError:
            # the *submission* was cancelled (the cancel op won, or a
            # hedge loser was reaped) -- answer an error frame rather
            # than letting the handler task die silently.  A pending
            # concurrent future means the cancel came from task
            # teardown (disconnect reaping) instead: propagate it.
            if future.done():
                raise RequestExecutionError(
                    ERR_CANCELLED, "request cancelled before completion"
                ) from None
            raise
        except DeadlineExceeded as exc:
            raise RequestExecutionError(
                ERR_DEADLINE_EXCEEDED, str(exc)
            ) from exc
        except ServiceError as exc:
            raise RequestExecutionError(
                ERR_EVALUATION_FAILED, str(exc)
            ) from exc

    def _run_evolve(self, spec, deadline):
        """One GA run, serial: it runs on a server thread, which forks
        no workers.  ``deadline`` is checked once, as the run starts:
        a spent budget never starts it, and a started run is not cut
        short."""
        from repro import api

        request_id = spec.pop("id", None)
        spec.pop("priority", None)
        spec.pop(DEADLINE_FIELD, None)
        allowed = {
            "grid", "size", "agents", "fields", "seed", "n_generations",
            "pool_size", "exchange_width", "n_states", "t_max", "backend",
        }
        unknown = set(spec) - allowed
        if unknown:
            raise ValueError(f"unknown evolve fields {sorted(unknown)}")
        if deadline is not None:
            deadline.check(where="before the evolve run started")
        result = api.evolve(cache=self.service.cache, n_workers=1, **spec)
        best = result.best
        return {
            "id": request_id,
            "best": {
                "genome": best.fsm.genome().tolist(),
                "fitness": best.fitness,
                "completely_successful": best.outcome.completely_successful,
            },
            "generations": len(result.history),
            "wall_seconds": result.wall_seconds,
        }


class AsyncEvaluationServer(BaseAsyncServer):
    """The asyncio TCP front of one :class:`EvaluationService`.

    ``port=0`` binds an ephemeral port; read the bound address from
    :attr:`address` after :meth:`start`.  The server shares one
    :class:`ServeSession` across connections, so identical workloads
    from different clients coalesce into the same dispatcher batches.
    A frame names its op in ``"op"`` (none: ``evaluate``) and is
    answered with the op's payload under the frame's ``id``.
    """

    OPS = frozenset({
        "ping", "stats", "health", "partition", "cancel", "replicate",
        "sync", "shutdown", "evaluate",
    })

    def __init__(self, service, host="127.0.0.1", port=0, max_pending=32,
                 request_timeout=None, idle_timeout=None, journal=None,
                 membership=None):
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        super().__init__(service, request_timeout=request_timeout,
                         journal=journal, name="transport")
        # cluster mode: a ClusterMembership whose view piggybacks on the
        # health op (and merges any gossip the caller attached)
        self.membership = membership
        self.host = host
        self.port = port
        self.max_pending = max_pending
        self.idle_timeout = idle_timeout
        self.stats = TransportStats()

    def counters(self):
        """This front end's own counters, as ``health`` shows them."""
        return {"transport": self.stats.snapshot()}

    def snapshot(self):
        """Transport counters plus the session's service snapshot.

        The session view folds in idempotency, pool-watchdog and
        journal counters, so the ``stats`` op alone is enough for a
        monitor (or a test) to assert on recovery behaviour.
        """
        return {**self.counters(), "service": self.session.stats()}

    async def _handle_connection(self, reader, writer):
        conn = _Connection(reader, writer, self.max_pending)
        peer_gone = False
        try:
            while not (conn.closing or self._closing):
                if conn.sem.locked():
                    self.stats.backpressure_engaged += 1
                    await conn.sem.acquire()   # resumes as responses drain
                    self.stats.backpressure_released += 1
                else:
                    await conn.sem.acquire()
                try:
                    body = await self._read_next(conn)
                except _IdleTimeout:
                    conn.sem.release()
                    self.stats.idle_reaped += 1
                    break
                except _StopReading:
                    conn.sem.release()
                    break
                except (FrameError, ConnectionError, OSError) as exc:
                    conn.sem.release()
                    if isinstance(exc, FrameError):
                        self.stats.bad_frames += 1
                        await self._send_error(
                            conn, None, ERR_BAD_FRAME, str(exc)
                        )
                    else:
                        peer_gone = True
                    break   # framing is lost either way
                if body is None:   # clean EOF: the client went away
                    conn.sem.release()
                    peer_gone = True
                    break
                try:
                    spec = json.loads(body)
                    if not isinstance(spec, dict):
                        raise ValueError("frame body must be a JSON object")
                except ValueError as exc:
                    conn.sem.release()
                    self.stats.bad_frames += 1
                    # framing is intact, so keep the connection
                    await self._send_error(
                        conn, None, ERR_BAD_FRAME,
                        f"frame body is not a JSON object: {exc}",
                    )
                    continue
                task = asyncio.ensure_future(self._answer(conn, spec))
                conn.tasks.add(task)
                task.add_done_callback(
                    lambda done, conn=conn: (
                        conn.tasks.discard(done), conn.sem.release()
                    )
                )
        finally:
            if peer_gone:
                for task in list(conn.tasks):
                    if task.cancel():
                        self.stats.cancelled_on_disconnect += 1
            if conn.tasks:   # graceful paths drain; disconnects reap
                await asyncio.gather(*conn.tasks, return_exceptions=True)
            conn.closing = True
            with contextlib.suppress(ConnectionError, OSError):
                eof_guard = _dup_socket(writer)
                try:
                    writer.close()
                    await writer.wait_closed()
                finally:
                    _force_eof(eof_guard)

    async def _read_next(self, conn):
        """The next frame body, honouring shutdown and the idle reaper."""
        idle = (
            self.idle_timeout
            if self.idle_timeout and not conn.tasks
            else None
        )
        return await self._read_or_stop(read_frame(conn.reader), idle)

    async def _answer(self, conn, spec):
        """Answer one frame with its op's payload or an error frame."""
        request_id = spec.get("id")
        op = spec.get("op")
        op = "evaluate" if op is None else op
        try:
            try:
                if not isinstance(op, str) or op not in self.OPS:
                    raise RequestExecutionError(
                        ERR_BAD_REQUEST, f"unknown op {op!r}"
                    )
                payload = await self.run_op(op, spec)
            except RequestExecutionError as exc:
                await self._send_error(
                    conn, request_id, exc.code, exc.message
                )
                return
            await self._send(conn, {"id": request_id, **payload})
            if op in WORK_OPS:
                self.stats.responses += 1
        except asyncio.CancelledError:
            raise   # disconnect reaping; wrap_future propagates the cancel
        except (ConnectionError, OSError):
            conn.closing = True

    async def _send(self, conn, payload):
        fault = maybe_fault(SITE_TRANSPORT_SEND)
        if fault is not None:
            await self._send_fault(conn, fault, payload)
            return
        frame = encode_frame(payload)
        async with conn.write_lock:
            conn.writer.write(frame)
            await conn.writer.drain()

    async def _send_fault(self, conn, fault, payload):
        """Deliver a scheduled ``transport.send`` fault instead of ``payload``.

        ``disconnect`` drops the connection without responding;
        ``partial_frame`` writes half the real frame and then drops;
        ``garbage_frame`` delivers a well-framed non-JSON body and keeps
        the connection; ``delay`` holds the response for
        ``fault.seconds`` and then delivers it intact -- the latency
        (gray-failure) fault no retry or breaker can see.  In every
        other case the response itself is lost -- recovering it is the
        client's (retry + idempotency) job.
        """
        if fault.kind == DELAY:
            await asyncio.sleep(fault.seconds)
            frame = encode_frame(payload)
            async with conn.write_lock:
                with contextlib.suppress(ConnectionError, OSError):
                    conn.writer.write(frame)
                    await conn.writer.drain()
            return
        async with conn.write_lock:
            with contextlib.suppress(ConnectionError, OSError):
                if fault.kind == GARBAGE_FRAME:
                    body = b"\x00garbage\x00"
                    conn.writer.write(FRAME_HEADER.pack(len(body)) + body)
                    await conn.writer.drain()
                    return  # connection survives; the client resyncs
                if fault.kind != DISCONNECT:   # partial_frame
                    frame = encode_frame(payload)
                    conn.writer.write(frame[: max(1, len(frame) // 2)])
                    await conn.writer.drain()
                conn.closing = True
                _force_eof(_dup_socket(conn.writer))
                conn.writer.close()

    async def _send_error(self, conn, request_id, code, message):
        self.stats.errors += 1
        with contextlib.suppress(ConnectionError, OSError):
            await self._send(conn, {
                "id": request_id,
                "error": {"code": code, "message": message},
            })


class TransportError(ServiceError):
    """A client-visible error frame, carrying its protocol ``code``."""

    def __init__(self, code, message):
        super().__init__(f"[{code}] {message}")
        self.code = code


#: Error codes a hardened client may retry: transient by construction
#: (a timeout, a draining server) or recoverable via the evaluation
#: cache / idempotency registry.  ``bad_frame``/``bad_request`` are the
#: client's own bug and retrying them would loop forever.
RETRYABLE_ERROR_CODES = frozenset(
    {ERR_TIMEOUT, ERR_SHUTTING_DOWN, ERR_EVALUATION_FAILED}
)


def is_retryable_error(exc):
    """Whether a client-side failure is safe and useful to retry.

    Connection losses, framing violations and garbage frames are
    retryable (the request is resent under its idempotency key, so the
    server never simulates it twice).  Protocol errors are retryable
    only for the transient codes in :data:`RETRYABLE_ERROR_CODES`; a
    :class:`repro.resilience.CircuitOpenError` (or any other
    exception) is not.
    """
    if isinstance(exc, TransportError):
        return exc.code in RETRYABLE_ERROR_CODES
    return isinstance(exc, (ConnectionError, OSError, FrameError, ValueError))


def _stamp_or_expire(spec, deadline):
    """The per-hop deadline decrement, applied just before a send.

    Stamps ``deadline_ms`` with the budget remaining *now* -- so every
    retry and hedge carries less budget than the attempt before it --
    or refuses to send at all once the budget is gone (a non-retryable
    :class:`TransportError`: out of time stays out of time).
    """
    if deadline is None:
        return
    if deadline.expired:
        raise TransportError(
            ERR_DEADLINE_EXCEEDED, "deadline budget exhausted before send"
        )
    stamp_spec(spec, deadline)


def _raise_on_error(response):
    error = response.get("error")
    if error is None:
        return response
    if isinstance(error, dict):
        raise TransportError(
            error.get("code", "error"), error.get("message", "")
        )
    raise TransportError("error", str(error))


class TCPServiceClient:
    """Blocking, pipelining client for :class:`AsyncEvaluationServer`.

    Mirrors the :class:`repro.service.ServiceClient` call shape --
    ``evaluate(...)`` returns a list of
    :class:`repro.results.EvaluationResult` -- but speaks the framed
    protocol.  Requests may be pipelined (``submit`` many, then
    ``result`` each); responses are correlated by id, so out-of-order
    completion on the server is fine.  Not thread-safe: use one client
    per thread.

    Hardening lives in ``options=`` (a
    :class:`repro.service.ClientOptions`; the ``timeout=`` /
    ``retry_policy=`` / ``breaker=`` spellings forward with a
    deprecation warning): the retry policy hardens :meth:`request` and
    everything built on it -- a retried attempt reconnects if the
    connection was lost and carries an idempotency key, so the server
    resumes the original submission instead of simulating again.  The
    breaker wraps each attempt; once open, calls fail fast with
    :class:`repro.resilience.CircuitOpenError`, which is never retried.
    """

    def __init__(self, host, port=None, options=None, timeout=None,
                 retry_policy=None, breaker=None):
        from repro.service.client import resolve_options

        options = resolve_options(
            options, where="TCPServiceClient", timeout=timeout,
            retry_policy=retry_policy, breaker=breaker,
        )
        if port is None:
            host, port = host   # accept a single (host, port) address
        self._address = (host, int(port))
        self.options = options
        self._timeout = options.timeout
        self.retry_policy = options.retry_policy
        self.breaker = options.breaker
        self._responses = {}
        self._ids = itertools.count()
        if self.retry_policy is None and self.breaker is None:
            self._sock = self._connect()
        else:
            # hardened clients tolerate a server that is briefly down
            # (supervised restart window): connect lazily under retry.
            try:
                self._sock = self._connect()
            except (ConnectionError, OSError):
                self._sock = None

    def _connect(self):
        fault = maybe_fault(SITE_CLIENT_CONNECT)
        if fault is not None:
            raise ConnectionError("injected client.connect fault")
        sock = socket.create_connection(self._address, self._timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _drop(self):
        """Forget a broken connection; correlation state dies with it."""
        if self._sock is not None:
            with contextlib.suppress(OSError):
                self._sock.close()
            self._sock = None
        self._responses.clear()

    def close(self):
        if self._sock is not None:
            with contextlib.suppress(OSError):
                self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def submit(self, spec):
        """Send one request frame; returns its (possibly assigned) id."""
        spec = dict(spec)
        if "id" not in spec:
            spec["id"] = f"c{next(self._ids)}"
        fault = maybe_fault(SITE_CLIENT_SEND)
        if fault is not None:
            # the frame is never written: the server saw nothing, so a
            # retry under the same idempotency key is a clean first send
            raise ConnectionError("injected client.send fault")
        send_frame(self._sock, spec)
        return spec["id"]

    def result(self, request_id):
        """The response frame for one id, reading until it arrives."""
        while request_id not in self._responses:
            fault = maybe_fault(SITE_CLIENT_RECV)
            if fault is not None:
                if fault.kind == GARBAGE_FRAME:
                    raise ValueError("injected client.recv garbage frame")
                raise ConnectionError("injected client.recv disconnect")
            response = recv_frame(self._sock)
            if response is None:
                raise ConnectionError(
                    "server closed the connection before responding"
                )
            self._responses[response.get("id")] = response
        return self._responses.pop(request_id)

    def request(self, spec):
        """Round-trip one spec; raises :class:`TransportError` on error.

        With a retry policy and/or breaker attached, attempts reconnect
        after connection loss and evaluation specs automatically carry
        ``idem`` (a fresh globally-unique key -- per-connection ids
        collide across clients), so a response lost on the wire is
        re-fetched without re-simulation.
        """
        spec = dict(spec)
        if "id" not in spec:
            spec["id"] = f"c{next(self._ids)}"
        deadline = spec_deadline(spec)
        if self.retry_policy is None and self.breaker is None:
            _stamp_or_expire(spec, deadline)
            return _raise_on_error(self.result(self.submit(spec)))
        if "idem" not in spec and "op" not in spec:
            spec["idem"] = uuid.uuid4().hex

        def attempt():
            if self.breaker is not None:
                self.breaker.allow()
            try:
                _stamp_or_expire(spec, deadline)
                if self._sock is None:
                    self._sock = self._connect()
                result = _raise_on_error(self.result(self.submit(spec)))
            except Exception as exc:
                if isinstance(exc, (ConnectionError, OSError, FrameError)):
                    self._drop()
                elif isinstance(exc, ValueError):   # undecodable frame
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
            attempt, retryable=(Exception,), should_retry=is_retryable_error
        )

    def evaluate(self, **spec):
        """Evaluate one spec; a list of ``EvaluationResult`` per FSM."""
        response = self.request(spec)
        return [outcome_from_dict(o) for o in response["outcomes"]]

    def evaluate_many(self, specs):
        """Per-spec result lists, in order, pipelined on one connection.

        Without a retry policy the specs are all submitted before any
        response is read -- the transport's pipelining -- so the server
        can coalesce them into one dispatcher batch.  Hardened clients
        fall back to sequential :meth:`evaluate` calls, because replayed
        pipelines would interleave retried and fresh submissions.
        """
        specs = [dict(spec) for spec in specs]
        if self.retry_policy is not None or self.breaker is not None:
            return [self.evaluate(**spec) for spec in specs]
        ids = [self.submit(spec) for spec in specs]
        return [
            [
                outcome_from_dict(o)
                for o in _raise_on_error(self.result(rid))["outcomes"]
            ]
            for rid in ids
        ]

    def ping(self):
        return self.request({"op": "ping"}).get("pong", False)

    def cancel(self, idem):
        """Best-effort server-side cancel of an in-flight idempotency key.

        ``True`` when the submission was still cancellable (queued, or
        parked pre-simulation behind a gray node's stall) and was
        reaped; its waiter gets a ``cancelled`` error frame and the key
        is released for resubmission.
        """
        response = self.request({"op": "cancel", "idem": idem})
        return bool(response.get("cancelled"))

    def stats(self):
        return self.request({"op": "stats"})["stats"]

    def health(self):
        """The server's liveness payload (pool watchdog, queue, cache)."""
        return self.request({"op": "health"})["health"]

    def shutdown(self):
        """Ask the server to drain and exit (graceful shutdown)."""
        return self.request({"op": "shutdown"}).get("ok", False)


class AsyncServiceClient:
    """Asyncio client with one shared reader task; safe for concurrent
    ``request`` calls from many coroutines on the same loop.

    Like :class:`TCPServiceClient`, ``retry_policy`` / ``breaker``
    harden :meth:`request`: failed attempts reconnect (when the client
    was built via :meth:`connect`, which knows the address) and carry
    idempotency keys.  Reconnection only happens between attempts, so
    concurrent requests on the old connection fail (and retry) rather
    than silently migrating.
    """

    def __init__(self, reader, writer, options=None, retry_policy=None,
                 breaker=None, address=None):
        from repro.service.client import resolve_options

        options = resolve_options(
            options, where="AsyncServiceClient",
            retry_policy=retry_policy, breaker=breaker,
        )
        self.options = options
        self.retry_policy = options.retry_policy
        self.breaker = options.breaker
        self._address = address
        self._ids = itertools.count()
        self._broken = False
        self._reconnect_lock = asyncio.Lock()
        self._start_io(reader, writer)

    def _start_io(self, reader, writer):
        self._reader = reader
        self._writer = writer
        self._waiters = {}
        self._broken = False
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @staticmethod
    def _maybe_connect_fault():
        fault = maybe_fault(SITE_CLIENT_CONNECT)
        if fault is not None:
            raise ConnectionError("injected client.connect fault")

    @classmethod
    async def connect(cls, host, port=None, options=None, retry_policy=None,
                      breaker=None):
        from repro.service.client import resolve_options

        options = resolve_options(
            options, where="AsyncServiceClient.connect",
            retry_policy=retry_policy, breaker=breaker,
        )
        if port is None:
            host, port = host
        address = (host, int(port))
        cls._maybe_connect_fault()
        reader, writer = await asyncio.open_connection(*address)
        return cls(reader, writer, options=options, address=address)

    async def _reconnect(self):
        if self._address is None:
            raise ConnectionError(
                "connection lost and no address to reconnect to"
            )
        await self._teardown_io()
        self._maybe_connect_fault()
        reader, writer = await asyncio.open_connection(*self._address)
        self._start_io(reader, writer)

    async def _ensure_connected(self):
        # one failure fails many concurrent requests at once; without the
        # lock their retries race _reconnect and a second _start_io
        # orphans the first's waiter table, hanging its request forever
        if not self._broken:
            return
        async with self._reconnect_lock:
            if self._broken:
                await self._reconnect()

    async def _read_loop(self):
        try:
            while True:
                body = await read_frame(self._reader)
                if body is None:
                    break
                fault = maybe_fault(SITE_CLIENT_RECV)
                if fault is not None:
                    # fails every waiter; hardened requests reconnect and
                    # re-issue under their original idempotency keys
                    if fault.kind == GARBAGE_FRAME:
                        raise ValueError(
                            "injected client.recv garbage frame"
                        )
                    raise ConnectionError("injected client.recv disconnect")
                response = json.loads(body)
                waiter = self._waiters.pop(response.get("id"), None)
                if waiter is not None and not waiter.done():
                    waiter.set_result(response)
        except (FrameError, ConnectionError, OSError, ValueError) as exc:
            self._fail_waiters(exc)
        else:
            self._fail_waiters(
                ConnectionError("server closed the connection")
            )

    def _fail_waiters(self, exc):
        self._broken = True
        for waiter in self._waiters.values():
            if not waiter.done():
                waiter.set_exception(exc)
        self._waiters.clear()

    async def _request_once(self, spec):
        fault = maybe_fault(SITE_CLIENT_SEND)
        if fault is not None:
            # before the waiter registers and before any bytes go out:
            # the server saw nothing, a retry is a clean first send
            raise ConnectionError("injected client.send fault")
        waiter = asyncio.get_running_loop().create_future()
        self._waiters[spec["id"]] = waiter
        self._writer.write(encode_frame(spec))
        await self._writer.drain()
        return _raise_on_error(await waiter)

    async def request(self, spec):
        spec = dict(spec)
        if "id" not in spec:
            spec["id"] = f"a{next(self._ids)}"
        deadline = spec_deadline(spec)
        if self.retry_policy is None and self.breaker is None:
            _stamp_or_expire(spec, deadline)
            return await self._request_once(spec)
        if "idem" not in spec and "op" not in spec:
            spec["idem"] = uuid.uuid4().hex

        async def attempt():
            if self.breaker is not None:
                self.breaker.allow()
            try:
                _stamp_or_expire(spec, deadline)
                await self._ensure_connected()
                result = await self._request_once(spec)
            except Exception:
                if self.breaker is not None:
                    self.breaker.record_failure()
                raise
            if self.breaker is not None:
                self.breaker.record_success()
            return result

        if self.retry_policy is None:
            return await attempt()
        return await self.retry_policy.arun(
            attempt, retryable=(Exception,), should_retry=is_retryable_error
        )

    async def evaluate(self, **spec):
        response = await self.request(spec)
        return [outcome_from_dict(o) for o in response["outcomes"]]

    async def evaluate_many(self, specs):
        """Per-spec result lists; all requests in flight concurrently."""
        return await asyncio.gather(
            *(self.evaluate(**dict(spec)) for spec in specs)
        )

    async def health(self):
        """The server's liveness payload (pool watchdog, queue, cache)."""
        return (await self.request({"op": "health"}))["health"]

    async def stats(self):
        """The server's full counter snapshot."""
        return (await self.request({"op": "stats"}))["stats"]

    async def cancel(self, idem):
        """Best-effort server-side cancel of an in-flight idempotency key."""
        response = await self.request({"op": "cancel", "idem": idem})
        return bool(response.get("cancelled"))

    async def _teardown_io(self):
        self._reader_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._reader_task
        self._fail_waiters(ConnectionError("client closed"))
        with contextlib.suppress(ConnectionError, OSError):
            self._writer.close()
            await self._writer.wait_closed()

    async def aclose(self):
        await self._teardown_io()

    #: The async spelling of the :class:`repro.service.Client` protocol
    #: surface -- same names, coroutine semantics.
    close = aclose

    async def __aenter__(self):
        return self

    async def __aexit__(self, *exc_info):
        await self.aclose()
        return False


def parse_address(text):
    """``(host, port)`` from a ``HOST:PORT`` CLI string."""
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    return host or "127.0.0.1", int(port)
