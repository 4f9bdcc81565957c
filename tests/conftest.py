"""Shared fixtures for the test suite.

Besides the grid/rng fixtures, this hosts the serving-stack helpers the
transport, durability, resilience and cluster batteries all need:
ephemeral-port picking, :class:`ServerInThread` (an in-process asyncio
TCP server on a daemon thread), and :func:`spawn_serve` (a real
``repro-a2a serve --tcp`` child with drain-on-teardown) -- previously
duplicated ad hoc per test module.
"""

import asyncio
import socket
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.grids import SquareGrid, TriangulateGrid


@pytest.fixture(params=["S", "T"], ids=["S-grid", "T-grid"])
def grid16(request):
    """Both 16 x 16 tori, parametrized."""
    return (SquareGrid if request.param == "S" else TriangulateGrid)(16)


@pytest.fixture(params=["S", "T"], ids=["S-grid", "T-grid"])
def grid8(request):
    """Both 8 x 8 tori, parametrized."""
    return (SquareGrid if request.param == "S" else TriangulateGrid)(8)


@pytest.fixture
def rng():
    """A deterministic numpy generator."""
    return np.random.default_rng(12345)


def pick_free_port(host="127.0.0.1"):
    """One currently-free TCP port (ephemeral bind, then release)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, 0))
        return sock.getsockname()[1]


@pytest.fixture
def free_port():
    """A free TCP port on localhost."""
    return pick_free_port()


@pytest.fixture
def free_ports():
    """``free_ports(n)`` -- n distinct free TCP ports, held-then-released
    together so they cannot collide with each other."""
    from repro.service.cluster import pick_free_ports

    return pick_free_ports


class ServerInThread:
    """An AsyncEvaluationServer on a daemon thread, for sync tests.

    Context manager: enter yields the server with :attr:`address`
    bound; exit sends the ``shutdown`` op (draining in-flight work),
    joins the thread and asserts that it ended.  ``kwargs`` pass through
    to :class:`repro.service.AsyncEvaluationServer` (``journal=``,
    ``membership=``, ``idle_timeout=``, ...).
    """

    def __init__(self, service, **kwargs):
        self.service = service
        self.kwargs = kwargs
        self.address = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._serve()), daemon=True
        )

    async def _serve(self):
        from repro.service.transport import AsyncEvaluationServer

        server = AsyncEvaluationServer(self.service, **self.kwargs)
        await server.start()
        self.address = server.address
        self._ready.set()
        await server.serve_until_shutdown()

    def __enter__(self):
        self._thread.start()
        if not self._ready.wait(10):
            raise RuntimeError("server failed to start")
        return self

    def __exit__(self, *exc_info):
        from repro.service.transport import TCPServiceClient

        with TCPServiceClient(self.address) as closer:
            closer.shutdown()
        self._thread.join(10)
        assert not self._thread.is_alive(), (
            "server still running 10 s after shutdown"
        )
        return False


class GatewayInThread:
    """A :class:`repro.service.GatewayServer` on a daemon thread.

    Context manager: enter yields the helper with :attr:`address`
    bound; exit requests graceful shutdown (draining in-flight work),
    joins the thread and asserts that it ended.  ``kwargs`` pass through
    to :class:`GatewayServer` (``auth_token=``, ``max_inflight=``,
    ``bulk_fraction=``, ...); ``metrics_only=True`` builds the
    ``--metrics`` sidecar (:class:`MetricsSidecar`) instead.
    :attr:`gateway` exposes the live server for counter assertions.
    """

    def __init__(self, service, **kwargs):
        self.service = service
        self.kwargs = kwargs
        self.address = None
        self.gateway = None
        self._loop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._serve()), daemon=True
        )

    async def _serve(self):
        from repro.service.gateway import GatewayServer, MetricsSidecar

        kwargs = dict(self.kwargs)
        server_class = (
            MetricsSidecar if kwargs.pop("metrics_only", False)
            else GatewayServer
        )
        gateway = server_class(self.service, **kwargs)
        await gateway.start()
        self.gateway = gateway
        self.address = gateway.address
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await gateway.serve_until_shutdown()

    def __enter__(self):
        self._thread.start()
        if not self._ready.wait(10):
            raise RuntimeError("gateway failed to start")
        return self

    def __exit__(self, *exc_info):
        self._loop.call_soon_threadsafe(self.gateway.request_shutdown)
        self._thread.join(10)
        assert not self._thread.is_alive(), (
            "gateway still running 10 s after shutdown"
        )
        return False


class SpawnedServer:
    """A real ``repro-a2a serve`` child on ``transport`` (``--tcp`` or
    ``--http``).

    ``address`` is parsed from the child's first line (``listening on``
    or ``serving http on``); later listeners' lines stay on
    ``proc.stdout``.  :meth:`stop` (also run by the ``spawn_serve``
    fixture's teardown) drains the server -- the ``shutdown`` op over
    TCP, SIGTERM over HTTP -- then waits; a child that will not die is
    killed.  ``stdout``/``stderr`` are drained at teardown so a chatty
    child can never block on a full pipe.
    """

    def __init__(self, extra_args=(), env=None, transport="--tcp"):
        from repro.service.transport import parse_address

        self.transport = transport
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", transport,
             "127.0.0.1:0", "--workers", "1", *extra_args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env,
        )
        line = self.proc.stdout.readline().strip()
        if not line.startswith(("listening on ", "serving http on ")):
            self.proc.kill()
            out, err = self.proc.communicate()
            raise RuntimeError(
                f"serve child failed to bind: {line!r} / {err[-500:]}"
            )
        self.address = parse_address(line.split()[-1])
        self.stdout = None
        self.stderr = None

    def stop(self, timeout=30):
        from repro.service import ClientOptions
        from repro.service.transport import TCPServiceClient

        if self.proc.poll() is None and self.transport == "--http":
            self.proc.terminate()
        elif self.proc.poll() is None:
            try:
                with TCPServiceClient(
                    self.address, options=ClientOptions(timeout=10)
                ) as client:
                    client.shutdown()
            except Exception:
                pass
        try:
            self.stdout, self.stderr = self.proc.communicate(
                timeout=timeout
            )
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.stdout, self.stderr = self.proc.communicate()
        return self.proc.returncode


@pytest.fixture
def spawn_serve():
    """Factory fixture: spawn ``serve`` children (``--tcp`` unless
    ``transport=`` says otherwise), drained and stopped on teardown
    even when the test fails."""
    spawned = []

    def spawn(*extra_args, env=None, transport="--tcp"):
        server = SpawnedServer(extra_args, env=env, transport=transport)
        spawned.append(server)
        return server

    yield spawn
    for server in spawned:
        server.stop()
