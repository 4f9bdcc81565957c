"""Process supervision for ``repro-a2a serve --tcp`` / ``--http``.

``repro-a2a supervise -- serve --tcp HOST:PORT ...`` (or ``--http``,
or both) runs the server as a child process and keeps it serving:

* **crash** -- the child exits nonzero (or is killed): restart it after
  an exponential backoff, on the *same* address (the first ephemeral
  bind is pinned into the child's arguments, so clients reconnect to
  where they already were);
* **hang** -- the child is alive but stops answering the ``health`` op
  (``health_failures`` consecutive probe failures): kill it with
  SIGKILL and restart -- a wedged event loop is a crash that has not
  had the decency to exit;
* **budget** -- after ``max_restarts`` restarts the supervisor stops,
  prints a one-line diagnosis naming the last failure, and exits
  nonzero (:data:`EXIT_BUDGET_EXHAUSTED`).  A child that stays healthy
  for a while resets the backoff delay (not the budget), so a weekly
  crash never escalates to minutes-long restart pauses.

Paired with ``serve --journal`` + ``--cache``, a restart is invisible
to hardened clients beyond latency: the reborn server replays the
journal's uncommitted suffix, re-serves committed work from the
persistent cache, and clients re-issue in-flight requests under their
original idempotency keys.

The supervisor is importable (:class:`Supervisor`) for tests and the
chaos batteries: ``start()`` runs the monitor loop on a thread, ``address`` is
the pinned child address, ``kill_server()`` delivers the chaos.
"""

import os
import re
import signal
import subprocess
import sys
import threading
import time

#: Exit code when the restart budget is exhausted.
EXIT_BUDGET_EXHAUSTED = 3

#: One bind line per serving transport; the supervisor captures each.
_BOUND_LINES = {
    "tcp": re.compile(r"listening on (\S+):(\d+)"),
    "http": re.compile(r"serving http on (\S+):(\d+)"),
    "metrics": re.compile(r"serving metrics on (\S+):(\d+)"),
}

_TRANSPORT_FLAGS = {"tcp": "--tcp", "http": "--http", "metrics": "--metrics"}


class SupervisorError(RuntimeError):
    """Supervision cannot proceed; the message is user-facing."""


def _has_flag(argv, flag):
    return any(a == flag or a.startswith(f"{flag}=") for a in argv)


def _pin_address(argv, flag, host, port):
    """``argv`` with ``flag``'s value replaced by the bound address."""
    pinned = list(argv)
    for index, arg in enumerate(pinned):
        if arg == flag and index + 1 < len(pinned):
            pinned[index + 1] = f"{host}:{port}"
            return pinned
        if arg.startswith(f"{flag}="):
            pinned[index] = f"{flag}={host}:{port}"
            return pinned
    raise SupervisorError(
        f"supervised serve arguments carry no {flag} flag"
    )


class Supervisor:
    """Restart-with-backoff supervision of one ``serve`` child.

    ``serve_args`` is the child's CLI argument vector, starting with
    ``serve`` and containing ``--tcp`` and/or ``--http`` (health
    probing needs an address; with both, probes go over TCP).  Every
    serving address the child binds -- TCP, HTTP, metrics sidecar --
    is pinned after the first bind, so restarts reuse them all.  The
    child runs as ``python -m repro.cli <serve_args>``.
    """

    def __init__(self, serve_args, max_restarts=5, backoff_base=0.5,
                 backoff_multiplier=2.0, backoff_max=10.0,
                 health_interval=1.0, health_timeout=5.0, health_failures=3,
                 start_timeout=60.0, python=None, log=None):
        serve_args = list(serve_args)
        if not serve_args or serve_args[0] != "serve":
            raise SupervisorError(
                "supervise runs `serve` children; usage: "
                "repro-a2a supervise -- serve --tcp HOST:PORT ..."
            )
        self._transports = [
            transport
            for transport, flag in _TRANSPORT_FLAGS.items()
            if _has_flag(serve_args, flag)
        ]
        if not any(t in self._transports for t in ("tcp", "http")):
            raise SupervisorError(
                "supervise needs a --tcp or --http child "
                "(health probes need a serving address)"
            )
        self.probe_transport = "tcp" if "tcp" in self._transports else "http"
        self.serve_args = serve_args
        self.max_restarts = max(0, int(max_restarts))
        self.backoff_base = float(backoff_base)
        self.backoff_multiplier = float(backoff_multiplier)
        self.backoff_max = float(backoff_max)
        self.health_interval = float(health_interval)
        self.health_timeout = float(health_timeout)
        self.health_failures = max(1, int(health_failures))
        self.start_timeout = float(start_timeout)
        self.python = python or sys.executable
        self.log = log if log is not None else (
            lambda line: print(line, file=sys.stderr, flush=True)
        )
        self.address = None          # probe (host, port), pinned at bind
        self.addresses = {}          # transport -> (host, port), all pinned
        self.restarts = 0
        self.last_failure = None     # one-line cause of the last death
        self.diagnosis = None        # final one-liner on budget exhaustion
        self._child = None
        self._child_lock = threading.Lock()
        self._stop = threading.Event()
        self._bound = threading.Event()
        self._thread = None

    # -- child lifecycle -----------------------------------------------------

    def _spawn(self):
        argv = self.serve_args
        for transport, bound in self.addresses.items():
            argv = _pin_address(
                argv, _TRANSPORT_FLAGS[transport], *bound
            )
        child = subprocess.Popen(
            [self.python, "-m", "repro.cli", *argv],
            stdout=subprocess.PIPE, stderr=None, text=True,
        )
        with self._child_lock:
            self._child = child
        pump = threading.Thread(
            target=self._pump_stdout, args=(child,), daemon=True,
            name="supervisor-stdout",
        )
        pump.start()
        return child

    def _pump_stdout(self, child):
        """Forward the child's stdout, capturing every bound address."""
        for line in child.stdout:
            line = line.rstrip("\n")
            for transport in self._transports:
                if transport in self.addresses:
                    continue
                match = _BOUND_LINES[transport].search(line)
                if match:
                    self.addresses[transport] = (
                        match.group(1), int(match.group(2))
                    )
            if all(t in self.addresses for t in self._transports):
                self.address = self.addresses[self.probe_transport]
                self._bound.set()
            self.log(f"[serve] {line}")
        child.stdout.close()

    def _wait_bound(self, child):
        """True once the child printed its address; False if it died."""
        deadline = time.monotonic() + self.start_timeout
        while time.monotonic() < deadline:
            if self._bound.wait(timeout=0.05):
                return True
            if child.poll() is not None:
                return False
            if self._stop.is_set():
                return False
        return False

    def _probe_health(self):
        from repro.service.client import ClientOptions

        options = ClientOptions(timeout=self.health_timeout)
        try:
            if self.probe_transport == "http":
                # GET /v1/health is served unauthenticated, so probing
                # works even when the child carries --auth-token
                from repro.service.gateway import HTTPServiceClient

                with HTTPServiceClient(
                    *self.address, options=options
                ) as client:
                    return bool(client.health().get("ok"))
            from repro.service.transport import TCPServiceClient

            with TCPServiceClient(self.address, options=options) as client:
                return bool(client.health().get("ok"))
        except Exception:
            return False

    def kill_server(self, sig=signal.SIGKILL):
        """Deliver ``sig`` to the current child (the chaos entry point)."""
        with self._child_lock:
            child = self._child
        if child is not None and child.poll() is None:
            os.kill(child.pid, sig)

    def _terminate_child(self):
        with self._child_lock:
            child = self._child
        if child is None or child.poll() is not None:
            return child.poll() if child is not None else 0
        child.terminate()
        try:
            return child.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            child.kill()
            return child.wait()

    # -- monitoring ----------------------------------------------------------

    def _monitor(self, child):
        """Watch one child life; returns its exit code (kills on hang)."""
        failures = 0
        while True:
            if self._stop.wait(timeout=self.health_interval):
                return self._terminate_child()
            code = child.poll()
            if code is not None:
                return code
            if self.address is None:
                continue
            if self._probe_health():
                failures = 0
                continue
            failures += 1
            if failures >= self.health_failures:
                self.log(
                    f"supervisor: server unresponsive to {failures} health "
                    "probes; killing"
                )
                self.kill_server()
                child.wait()
                return "hang"

    def run(self):
        """Supervise until graceful exit, stop(), or budget exhaustion.

        Returns the process exit code: 0 on a clean child exit (or
        ``stop()``), :data:`EXIT_BUDGET_EXHAUSTED` when the restart
        budget runs out (after printing a one-line diagnosis).
        """
        backoff = self.backoff_base
        while True:
            child = self._spawn()
            started = time.monotonic()
            if not self._wait_bound(child):
                code = child.poll()
                if self._stop.is_set():
                    self._terminate_child()
                    return 0
                if code is None:   # alive but silent past start_timeout
                    self.kill_server()
                    child.wait()
                    self.last_failure = (
                        f"server not listening within {self.start_timeout}s"
                    )
                    code = "startup-timeout"
                else:
                    self.last_failure = f"exit code {code} before listening"
                    code = "startup-exit"
            else:
                code = self._monitor(child)
            if self._stop.is_set():
                return 0
            if code == 0:
                return 0   # graceful shutdown is not a failure
            uptime = time.monotonic() - started
            if code == "hang":
                self.last_failure = "unresponsive to health probes (hung)"
            elif isinstance(code, int):
                self.last_failure = (
                    f"killed by signal {-code}" if code < 0
                    else f"exit code {code}"
                )
            if self.restarts >= self.max_restarts:
                return self._exhaust()
            self.restarts += 1
            if uptime > 5 * self.health_interval:
                backoff = self.backoff_base   # it was healthy; forgive
            self.log(
                f"supervisor: restarting ({self.restarts}/"
                f"{self.max_restarts}) after {self.last_failure}; "
                f"backoff {min(backoff, self.backoff_max):.2f}s"
            )
            self._stop.wait(timeout=min(backoff, self.backoff_max))
            if self._stop.is_set():
                return 0
            backoff = min(backoff * self.backoff_multiplier, self.backoff_max)

    def _exhaust(self):
        self.diagnosis = (
            f"supervisor: restart budget exhausted ({self.max_restarts} "
            f"restarts); last failure: {self.last_failure}"
        )
        self.log(self.diagnosis)
        return EXIT_BUDGET_EXHAUSTED

    # -- programmatic use ----------------------------------------------------

    def start(self):
        """Run :meth:`run` on a daemon thread; block until the address
        is known (or supervision already failed).  Returns ``self``."""
        self._result = None

        def runner():
            self._result = self.run()

        self._thread = threading.Thread(
            target=runner, daemon=True, name="supervisor"
        )
        self._thread.start()
        deadline = time.monotonic() + self.start_timeout
        while time.monotonic() < deadline:
            if self._bound.wait(timeout=0.05):
                return self
            if not self._thread.is_alive():
                raise SupervisorError(
                    self.diagnosis or self.last_failure
                    or "supervised server never came up"
                )
        raise SupervisorError("supervised server never bound an address")

    @property
    def running(self):
        """Whether supervision (started via :meth:`start`) is still live."""
        return self._thread is not None and self._thread.is_alive()

    @property
    def result(self):
        """The supervision exit code once :attr:`running` turns false
        (``None`` while still running or never started)."""
        return getattr(self, "_result", None)

    def stop(self):
        """Terminate the child and end supervision; returns the exit code."""
        self._stop.set()
        self._terminate_child()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            return self._result
        return None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()
        return False
