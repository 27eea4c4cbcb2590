"""The ``service.mixed`` workload: a ``serve`` subprocess, two connections.

The parent process (``run.py``) is the client. It starts ``python -m repro.cli serve
--port 0 --ready-file F --cache C`` with a fresh cache file and times
spawn → ready file as one set-up. Two threads, one connection each,
send single ``evaluate`` requests in a closed loop, each waiting for its
reply before the next. After the timed phase the replies are checked
bit for bit against an in-process ``evaluate_tasks`` over the same
tasks, and the server's ``stats`` counters are reconciled with the
requests sent.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
import pbcore

READY_TIMEOUT_S = 120
REQUEST_TIMEOUT_S = 60
PROFILE_PHASES = (
    "fingerprint", "net_build", "reachability", "markov_build",
    "ctmc_solve", "critical_cycle",
)


class Server:
    """One ``serve`` subprocess with a fresh disk cache."""

    def __init__(self, root: Path, out: Path, env: dict, tag: str, *, importtime=False):
        self.cache = out / f"service-{tag}.jsonl"
        self.ready = out / f"service-{tag}.ready.json"
        self.log = out / f"service-{tag}.stderr"
        for path in (self.cache, self.ready):
            path.unlink(missing_ok=True)
        cmd = [sys.executable]
        if importtime:
            cmd += ["-X", "importtime"]
        cmd += [
            "-m", "repro.cli", "serve", "--port", "0",
            "--ready-file", str(self.ready), "--cache", str(self.cache),
        ]
        with open(self.log, "wb") as err:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(
                cmd, cwd=root, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
        try:
            while not self.ready.exists():
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"serve exited with {self.proc.returncode}: "
                        + self.log.read_text()[-2000:]
                    )
                if time.perf_counter() - t0 > READY_TIMEOUT_S:
                    raise RuntimeError("serve did not become ready in time")
                time.sleep(0.002)
            self.setup_s = time.perf_counter() - t0
            info = json.loads(self.ready.read_text())
        except BaseException:
            self.kill()
            raise
        self.host, self.port = info["host"], info["port"]

    def client(self):
        from repro.service.client import ServiceClient

        return ServiceClient(self.host, self.port, timeout=REQUEST_TIMEOUT_S)

    def stop(self) -> None:
        """Ask for a shutdown; kill the process if it does not exit."""
        if self.proc.poll() is None:
            try:
                with self.client() as c:
                    c.shutdown()
                self.proc.wait(timeout=30)
            except Exception:
                self.kill()
        self.ready.unlink(missing_ok=True)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _drive(server: Server, stream: list[dict]) -> dict:
    """Closed loop over ``stream`` on two connections; every reply kept.

    The stream runs in segments; both connections meet at a barrier
    after each, and the parent calibrates the host speed while the
    server is idle (see :func:`pbcore.normalize`).
    """
    replies: list = [None] * len(stream)
    parts = pbcore.segments(len(stream))
    barrier = threading.Barrier(3, timeout=REQUEST_TIMEOUT_S)

    def connection(offset: int) -> None:
        with server.client() as client:
            client.ping()  # connect before the clock starts
            for part in parts:
                barrier.wait()
                for i in part[offset::2]:
                    t0 = time.perf_counter()
                    try:
                        reply = client.request({"op": "evaluate", "task": stream[i]})
                    except Exception as exc:  # a failed request, counted below
                        replies[i] = {"error": f"{type(exc).__name__}: {exc}"}
                        continue
                    replies[i] = {
                        "rtt_s": time.perf_counter() - t0,
                        "value": reply.get("value"),
                        "failure": reply.get("failure"),
                        "spans": (reply.get("telemetry") or {}).get("spans"),
                    }
                barrier.wait()

    threads = [threading.Thread(target=connection, args=(c,)) for c in (0, 1)]
    for t in threads:
        t.start()
    walls: list[float] = []
    latencies: list[list[float]] = []
    calibrations = [pbcore.calibration_s()]
    for part in parts:
        barrier.wait()
        t_start = time.perf_counter()
        barrier.wait()
        walls.append(time.perf_counter() - t_start)
        latencies.append([
            replies[i]["rtt_s"] for i in part if _served(replies[i])
        ])
        calibrations.append(pbcore.calibration_s())
    for t in threads:
        t.join()
    ok = [r for r in replies if _served(r)]
    errors = [
        (r or {}).get("error") or f"failure: {r['failure']}"
        for r in replies if not _served(r)
    ]
    return {
        "replies": replies, "ok": ok, "errors": errors,
        "timing": pbcore.normalize(walls, latencies, calibrations),
    }


def _served(reply) -> bool:
    return reply is not None and "rtt_s" in reply and not reply["failure"]


def _counters(stats: dict) -> dict:
    c = stats["counters"]
    return {
        **c["requests"],
        "coalesced": c["queue"]["coalesced"],
    }


def _phase_self_s(profile: dict) -> dict[str, float]:
    """Summed ``self_s`` of each named phase anywhere in the tree."""
    from repro.telemetry.profile import flatten_phases

    out = dict.fromkeys(PROFILE_PHASES, 0.0)
    phases = (profile.get("profile") or {}).get("phases") or {}
    for path, node in flatten_phases(phases):
        leaf = path.rsplit("/", 1)[-1]
        if leaf in out:
            out[leaf] += node.get("self_s", 0.0)
    return out


def _pass(server: Server, stream: list, warm: list, *, layers: bool) -> dict:
    """Warm up untimed, run the timed phase, read the server's counters."""
    with server.client() as c:
        warm_values = [c.evaluate(task) for task in warm]
        before = c.stats()
        prof_before = c.profile() if layers else None
    run = _drive(server, stream)
    run["warm_values"] = warm_values
    run["peak_rss_mb"] = pbcore.vm_hwm_mb(server.proc.pid)
    with server.client() as c:
        after = c.stats()
        prof_after = c.profile() if layers else None
    run["counters"] = _counters(after)
    start = _counters(before)
    run["delta"] = {k: v - start[k] for k, v in run["counters"].items()}
    if layers:
        p0, p1 = _phase_self_s(prof_before), _phase_self_s(prof_after)
        run["phases"] = {k: p1[k] - p0[k] for k in PROFILE_PHASES}
    return run


def _layer_metrics(run: dict, plain: dict) -> dict:
    ok = run["ok"]
    n = len(ok)

    def mean_ms(fn):
        return sum(fn(r) for r in ok) / n * 1e3 if n else 0.0

    d = run["delta"]
    looked_up = d["executed"] + d["memo_hits"]
    out = {
        "service.transport_ms": mean_ms(lambda r: r["rtt_s"] - r["spans"]["total_s"]),
        "service.handler_ms": mean_ms(
            lambda r: r["spans"]["total_s"] - r["spans"]["queue_wait_s"]
            - r["spans"]["execute_s"]
        ),
        "service.queue_wait_ms": mean_ms(lambda r: r["spans"]["queue_wait_s"]),
        "service.execute_ms": mean_ms(lambda r: r["spans"]["execute_s"]),
        "service.executed": d["executed"],
        "service.memo_hits": d["memo_hits"],
        "service.disk_hits": d["disk_hits"],
        "service.coalesced": d["coalesced"],
        "service.memo_hit_ratio": d["memo_hits"] / looked_up if looked_up else 0.0,
        "service.latency_p90_ms": pbcore.percentile(plain["timing"]["raw_latencies_s"], 90) * 1e3,
    }
    for phase, self_s in run["phases"].items():
        out[f"service.profile.{phase}.self_ms"] = self_s * 1e3
    out["trace.overhead_pct"] = pbcore.overhead_pct(plain["timing"], run["timing"])
    return out


def _check(run: dict, stream: list, warm: list) -> tuple[dict, list[str]]:
    """Bit-identical values and reconciled counters (untimed)."""
    from repro.evaluate import StructureCache, evaluate_tasks
    from repro.service.workers import normalize_task

    tasks = warm + stream
    expected = evaluate_tasks(
        [normalize_task(t) for t in tasks], cache=StructureCache()
    )
    got = run["warm_values"] + [
        r["value"] if r is not None and "rtt_s" in r else None
        for r in run["replies"]
    ]
    mismatched = [i for i, (g, e) in enumerate(zip(got, expected)) if g != e]
    failures = [
        f"request {i}: served {got[i]!r} != evaluate_tasks {expected[i]!r}"
        for i in mismatched[:10]
    ]
    c = run["counters"]
    sent = len(tasks)
    reconciled = (
        c["units"] == sent
        and c["batches"] == sent
        and c["failures"] == 0
        and c["executed"] + c["disk_hits"] + c["memo_hits"] + c["coalesced"] == sent
    )
    if not reconciled:
        failures.append(f"stats counters {c} do not reconcile with {sent} requests")
    checks = {"bit_identical": not mismatched, "stats_reconcile": reconciled}
    return checks, failures


def run(root: Path, out: Path, env: dict, seed: int, seconds: int, *,
        trace: bool, n_setups: int) -> dict:
    sys.path.insert(0, str(root / "src"))
    stream = inputs.service_stream(seed, inputs.SERVICE_REQUESTS_PER_SECOND * seconds)
    warm = inputs.service_warmup(seed)
    tag = f"{os.getpid()}"
    setups: list[float] = []
    servers: list[Server] = []
    try:
        for i in range(n_setups):
            server = Server(root, out, env, f"{tag}-{i}")
            servers.append(server)
            setups.append(server.setup_s)
            if i < n_setups - 1:
                server.stop()
        plain = _pass(servers[-1], stream, warm, layers=False)
        servers[-1].stop()
        result = {
            **plain["timing"],
            "setups_s": setups,
            "attempted": len(stream),
            "failed": len(plain["errors"]),
            "errors": plain["errors"][:10],
            "peak_rss_mb": plain["peak_rss_mb"],
        }
        checked = plain
        if trace:
            servers.append(Server(root, out, env, f"{tag}-traced"))
            traced = _pass(servers[-1], stream, warm, layers=True)
            servers[-1].stop()
            result["layers"] = _layer_metrics(traced, plain)
            result["failed"] += len(traced["errors"])
            result["errors"] += traced["errors"][:10]
            same = [r.get("value") for r in traced["replies"]] == [
                r.get("value") for r in plain["replies"]
            ]
            result["traced_equals_untraced"] = same
            if not same:
                result["errors"].append("traced values differ from untraced values")
            probe = Server(root, out, env, f"{tag}-importtime", importtime=True)
            servers.append(probe)
            probe.stop()
            result["layers"].update(pbcore.parse_importtime(probe.log.read_text()))
        checks, failures = _check(checked, stream, warm)
        result["checks"] = checks
        result["errors"] += failures
        result["correct"] = not result["errors"]
        return result
    finally:
        for server in servers:
            server.kill()
            for path in (server.cache, server.log):
                path.unlink(missing_ok=True)
