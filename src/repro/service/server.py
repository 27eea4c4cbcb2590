"""The evaluation daemon: JSON-framed requests over a loopback socket.

``ServiceServer`` is a threading TCP server (stdlib ``socketserver``,
no new dependencies): each connection gets a handler thread that reads
newline-delimited JSON requests and answers them through the shared
:class:`~repro.service.workers.EvaluationEngine`. Supported operations:

* ``ping`` — liveness probe; replies with the package version, uptime,
  the number of in-flight requests and the engine/cache/queue counters;
* ``stats`` — the operator's view: admission-queue depth and capacity,
  shed count, retry-after hint, pool restart counters, fault budgets;
* ``evaluate`` — score one wire-format task (``solve`` is the
  named-system convenience form of the same thing);
* ``batch`` — score a list of tasks (the campaign runner's chunk shape);
* ``search`` — run the multi-start mapping search server-side, on the
  shared structure cache;
* ``metrics`` — the engine's metrics-registry snapshot, as JSON and as
  Prometheus text exposition (see :mod:`repro.telemetry.metrics`);
* ``profile`` — the engine profiler's per-phase cost-attribution tree
  (see :mod:`repro.telemetry.profile`);
* ``shutdown`` — reply, then stop the server loop cleanly.

Telemetry: a request frame carrying a top-level ``request_id`` gets a
``telemetry`` block on its work reply (node, per-hop span timings) and
one ``request`` event in the server's flight recorder, where
``repro.cli trace`` finds it by that id.

Admission is bounded: with ``capacity=N`` at most N work requests are
dispatched at once, and any further arrival is *shed* immediately with
a structured ``overloaded`` reply carrying a ``retry_after`` hint —
the server never queues unboundedly and never hangs a caller. Control
operations (``ping``, ``stats``, ``shutdown``) bypass admission so an
overloaded or draining server can still be observed and stopped.
Shutdown is graceful: once a ``shutdown`` frame is accepted the server
stops admitting work (new requests are shed as overloaded) but every
already-dispatched request sends its reply before the engine is torn
down.

The server binds loopback by default and speaks an unauthenticated
protocol: it is a local evaluation accelerator, not an internet
service.
"""

from __future__ import annotations

import os
import socketserver
import threading
import time

from repro._version import __version__
from repro.evaluate.batch import TaskFailure
from repro.exceptions import ServiceError
from repro.service.faults import FaultInjector
from repro.service.protocol import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    error_reply,
    overloaded_reply,
    publish_ready_file,
    recv_frame,
    send_frame,
)
from repro.service.workers import EvaluationEngine
from repro.telemetry import FlightRecorder, get_logger, render_prometheus

log = get_logger("service.server")

#: Operations admitted even when the server is saturated or draining —
#: the observe-and-stop plane must stay reachable exactly when the
#: work plane is refusing traffic.
CONTROL_OPS = frozenset({"ping", "stats", "metrics", "profile", "shutdown"})

#: Operations that do evaluation work (admission-bounded, span-timed).
WORK_OPS = frozenset({"evaluate", "solve", "batch", "search"})

#: Default ``retry_after`` hint (seconds) in shed replies.
DEFAULT_RETRY_AFTER = 1.0


def _jsonify_results(
    results: list, request_id: str | None = None
) -> tuple[list, list[dict]]:
    """Split engine results into a value list and failure records.

    Failed slots carry ``None`` in ``values``; each failure is reported
    once in ``failures`` with the index it belongs to, stamped with the
    request's trace id so it is joinable against the flight recorder.
    """
    values: list = []
    failures: list[dict] = []
    for index, result in enumerate(results):
        if isinstance(result, TaskFailure):
            values.append(None)
            failures.append(
                {"index": index, **result.stamp(request_id).to_dict()}
            )
        else:
            values.append(result)
    return values, failures


def handle_request(server: "ServiceServer", payload: dict) -> tuple[dict, bool]:
    """Dispatch one request frame; return ``(reply, stop_server)``."""
    engine = server.engine
    op = payload.get("op")
    request_id = payload.get("request_id")
    try:
        if op == "ping":
            return {
                "ok": True,
                "op": "ping",
                "role": "worker",
                "version": __version__,
                "uptime_s": server.uptime_s,
                "in_flight": server.in_flight,
                "counters": engine.status(),
            }, False
        if op == "stats":
            return {
                "ok": True,
                "op": "stats",
                "role": "worker",
                "version": __version__,
                "uptime_s": server.uptime_s,
                "in_flight": server.in_flight,
                "shed": server.shed,
                "capacity": server.capacity,
                "retry_after": server.retry_after,
                "stopping": server.stopping,
                "counters": engine.status(),
            }, False
        if op == "metrics":
            snapshot = engine.metrics.collect()
            return {
                "ok": True,
                "op": "metrics",
                "role": "worker",
                "version": __version__,
                "metrics": snapshot,
                "exposition": render_prometheus(snapshot),
            }, False
        if op == "profile":
            return {
                "ok": True,
                "op": "profile",
                "role": "worker",
                "version": __version__,
                "profile": engine.profiler.snapshot(),
            }, False
        if op == "shutdown":
            # Flip the admission gate first: requests racing the drain
            # are shed with a structured reply instead of being half
            # served against a closing engine.
            server.begin_shutdown()
            log.info("shutdown requested; draining in-flight work")
            return {"ok": True, "op": "shutdown"}, True
        if op in ("evaluate", "solve"):
            if op == "solve":
                name = payload.get("system_name")
                if not isinstance(name, str) or not name:
                    raise ServiceError("solve needs a string 'system_name'")
                task = {
                    "system": {"kind": "named", "params": {"name": name}},
                    "solver": payload.get("solver", "deterministic"),
                    "model": payload.get("model", "overlap"),
                    "options": payload.get("options", {}),
                }
            else:
                task = payload.get("task")
            results, stats = engine.run_batch([task])
            values, failures = _jsonify_results(results, request_id)
            return {
                "ok": True,
                "op": op,
                "value": values[0],
                "failure": failures[0] if failures else None,
                "stats": stats,
            }, False
        if op == "batch":
            tasks = payload.get("tasks")
            if not isinstance(tasks, list):
                raise ServiceError("batch needs a list 'tasks'")
            results, stats = engine.run_batch(tasks)
            values, failures = _jsonify_results(results, request_id)
            return {
                "ok": True,
                "op": "batch",
                "values": values,
                "failures": failures,
                "stats": stats,
            }, False
        if op == "search":
            params = payload.get("params")
            if not isinstance(params, dict):
                raise ServiceError("search needs an object 'params'")
            return {"ok": True, "op": "search", **engine.run_search(params)}, False
        raise ServiceError(
            f"unknown op {op!r}; supported: "
            "ping, stats, metrics, profile, evaluate, solve, batch, "
            "search, shutdown"
        )
    except ServiceError as exc:
        return error_reply(str(exc)), False
    except Exception as exc:  # a bug must not kill the daemon
        return error_reply(str(exc), error_type=type(exc).__name__), False


class _RequestHandler(socketserver.StreamRequestHandler):
    """One connection: a loop of request frames until EOF or shutdown."""

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        server: "ServiceServer" = self.server
        while True:
            try:
                payload = recv_frame(self.rfile)
            except ServiceError as exc:
                try:
                    send_frame(self.wfile, error_reply(str(exc)))
                except OSError:
                    pass
                return
            if payload is None:
                return
            op = payload.get("op")
            if not server.try_begin_request(op):
                reason = (
                    "draining for shutdown" if server.stopping
                    else f"at capacity ({server.capacity} requests in flight)"
                )
                try:
                    send_frame(self.wfile, overloaded_reply(
                        f"evaluation service {reason}",
                        retry_after=server.retry_after,
                    ))
                except OSError:
                    return
                continue
            try:
                started = server.clock()
                reply, stop = handle_request(server, payload)
                server.finalize_reply(payload, reply, server.clock() - started)
                faults = server.faults
                if faults is not None and op != "shutdown":
                    # Chaos hooks, post-work: a delayed reply must trip
                    # the client's deadline, a dropped one its retry —
                    # and the retry must be absorbed by the caches.
                    faults.sleep_if_delayed()
                    if faults.take("drop"):
                        return
                try:
                    send_frame(self.wfile, reply)
                except OSError:
                    return
            finally:
                server._end_request()
            if stop:
                # shutdown() blocks until serve_forever() returns, and
                # must not be called from the serving thread itself.
                threading.Thread(
                    target=server.shutdown, daemon=True
                ).start()
                return


class ServiceServer(socketserver.ThreadingTCPServer):
    """Threaded loopback TCP server around one :class:`EvaluationEngine`."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        engine: EvaluationEngine,
        *,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        capacity: int | None = None,
        retry_after: float = DEFAULT_RETRY_AFTER,
        faults: FaultInjector | None = None,
        recorder: FlightRecorder | None = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ServiceError(f"capacity must be >= 1, got {capacity}")
        if retry_after <= 0:
            raise ServiceError(f"retry_after must be > 0, got {retry_after}")
        self.engine = engine
        self.recorder = recorder
        #: Span clock, shared with the engine so hop timings line up.
        self.clock = engine.clock
        #: Max concurrently dispatched work requests (``None`` = unbounded).
        self.capacity = capacity
        #: Back-off hint (seconds) carried by every shed reply.
        self.retry_after = float(retry_after)
        self.faults = faults
        #: Work requests rejected by admission since startup.
        self.shed = 0
        self._stopping = False
        self._started = time.monotonic()
        # Handler threads are daemons (an idle client connection must
        # never pin the process), so draining is explicit: dispatched
        # requests are counted and a stopping server waits for their
        # replies to go out before tearing the engine down.
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._drained = threading.Event()
        self._drained.set()
        # Server-scoped instruments live on the engine's registry so one
        # `metrics` scrape sees the whole process; unregister-first lets
        # a server be rebuilt around an engine that outlives it.
        m = engine.metrics
        for name in (
            "repro_server_shed_total",
            "repro_server_in_flight",
            "repro_server_uptime_seconds",
            "repro_server_request_seconds",
        ):
            m.unregister(name)
        m.counter(
            "repro_server_shed_total",
            "work requests refused by admission",
            fn=lambda: self.shed,
        )
        m.gauge(
            "repro_server_in_flight",
            "dispatched requests awaiting their reply",
            fn=lambda: self.in_flight,
        )
        m.gauge(
            "repro_server_uptime_seconds",
            "seconds since the server started",
            fn=lambda: self.uptime_s,
        )
        self._hist_request = m.histogram(
            "repro_server_request_seconds", "work-request latency at the server"
        )
        super().__init__((host, port), _RequestHandler)
        log.info("worker serving on %s:%d", *self.endpoint)

    def finalize_reply(self, payload: dict, reply: dict, duration_s: float) -> None:
        """Span-time a work reply, attach telemetry, feed the recorder.

        Always strips the engine's raw ``span`` block out of the wire
        ``stats`` (so the wire stats stay pure counters);
        the timings resurface under ``reply["telemetry"]`` when the
        request carried a trace id.
        """
        op = payload.get("op")
        if op not in WORK_OPS:
            return
        self._hist_request.observe(duration_s)
        span: dict = {}
        stats = reply.get("stats")
        if isinstance(stats, dict):
            span = stats.pop("span", None) or {}
        request_id = payload.get("request_id")
        if request_id is None:
            return
        spans = {
            "queue_wait_s": round(span.get("queue_wait_s", 0.0), 6),
            "execute_s": round(span.get("execute_s", 0.0), 6),
            "total_s": round(duration_s, 6),
        }
        if reply.get("ok"):
            reply["telemetry"] = {
                "request_id": request_id,
                "node": "worker",
                "spans": spans,
            }
        if self.recorder is not None:
            event = {
                "node": "worker",
                "request_id": request_id,
                "op": op,
                "ok": bool(reply.get("ok")),
                "duration_s": round(duration_s, 6),
                "spans": spans,
            }
            if isinstance(stats, dict):
                for key in ("units", "executed", "disk_hits", "memo_hits", "coalesced", "failures"):
                    if key in stats:
                        event[key] = stats[key]
            self.recorder.record("request", **event)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def try_begin_request(self, op: object = None) -> bool:
        """Admit one request, or shed it (``False``) without blocking.

        Control operations always pass; work is refused while the
        server is draining or ``capacity`` requests are already
        dispatched. Shedding is counted, never queued: the caller gets
        an instant structured rejection instead of an unbounded wait.
        """
        control = op in CONTROL_OPS
        with self._inflight_lock:
            if not control and (
                self._stopping
                or (self.capacity is not None and self._inflight >= self.capacity)
            ):
                self.shed += 1
                return False
            self._inflight += 1
            self._drained.clear()
            return True

    def _end_request(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1
            if self._inflight == 0:
                self._drained.set()

    def begin_shutdown(self) -> None:
        """Stop admitting work; already-dispatched requests drain."""
        with self._inflight_lock:
            self._stopping = True

    def wait_for_inflight(self, timeout: float | None = None) -> bool:
        """Block until every dispatched request has sent its reply.

        Called between ``shutdown()`` and engine teardown so a
        ``shutdown`` from one client cannot discard another client's
        mid-evaluation batch. Requests still in a connection's read
        loop (idle clients) don't count — only dispatched work does.
        """
        return self._drained.wait(timeout)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Dispatched requests that have not sent their reply yet."""
        with self._inflight_lock:
            return self._inflight

    @property
    def stopping(self) -> bool:
        with self._inflight_lock:
            return self._stopping

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._started

    @property
    def endpoint(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` ephemerals)."""
        host, port = self.server_address[:2]
        return host, port

    def write_ready_file(self, path: str | os.PathLike) -> None:
        """Atomically publish the bound endpoint for scripts to discover."""
        host, port = self.endpoint
        publish_ready_file(path, host, port)


def serve_in_thread(
    engine: EvaluationEngine,
    *,
    host: str = DEFAULT_HOST,
    port: int = 0,
    capacity: int | None = None,
    retry_after: float = DEFAULT_RETRY_AFTER,
    faults: FaultInjector | None = None,
    recorder: FlightRecorder | None = None,
) -> tuple[ServiceServer, threading.Thread]:
    """Start a server on a background thread (ephemeral port by default).

    The embedding entry point used by the tests, the benchmarks and
    ``examples/service_client.py``. The caller owns the lifecycle::

        server, thread = serve_in_thread(engine)
        ... ServiceClient(*server.endpoint) ...
        server.shutdown(); server.server_close(); thread.join()
    """
    server = ServiceServer(
        engine,
        host=host,
        port=port,
        capacity=capacity,
        retry_after=retry_after,
        faults=faults,
        recorder=recorder,
    )
    # A tight poll interval keeps shutdown() latency out of embedded
    # timings (the default 0.5 s would dominate short benchmarks).
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.02), daemon=True
    )
    thread.start()
    return server, thread
