"""Benchmark entry point: one run of one workload, measured from outside.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload exact.sweep --seed 1 --seconds 20 --trace 0

``--workload all`` runs the three workloads in turn and exits nonzero if
any of them failed a check.

Workloads (see ``perfbench/README.md``): ``exact.sweep`` (Theorem 2
marking-CTMC solves through ``repro.evaluate``), ``sim.paper`` (the
Section 7 simulators on the Fig. 10 system) and ``service.mixed`` (a
``repro.cli serve`` subprocess behind two client connections).

Every set-up is a fresh interpreter, started ``SETUPS`` times per run;
``setup_s`` is their median. The timed stream is a fixed amount of work
derived from ``--seed`` and ``--seconds``. The last line of standard
output is the result: ``{"correct", "attempted", "failed", "metrics"}``
with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``). The line before it carries the run's facts (host,
versions, load, revision, seed). Exit status is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("exact.sweep", "sim.paper", "service.mixed")
#: Fresh interpreters started per run to measure ``setup_s``.
SETUPS = 5
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import pbcore  # noqa: E402


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker_cmd(workload: str, seed: int, size: int, trace: bool, *extra: str) -> list[str]:
    cmd = [sys.executable, *extra, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", str(size)]
    return cmd + (["--trace"] if trace else [])


def _spawn_ready(cmd: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``READY``; return it and the wait."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, elapsed


def run_in_process(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    env = _child_env()
    size = (inputs.exact_size if workload == "exact.sweep" else inputs.sim_size)(seconds)
    spans = OUT / f"{workload}-seed{seed}-spans.json"
    extra = ["--spans", str(spans)] if trace else []
    cmd = _worker_cmd(workload, seed, size, trace) + extra
    setups = []
    proc = None
    try:
        for i in range(SETUPS):
            proc, elapsed = _spawn_ready(cmd, env)
            setups.append(elapsed)
            if i < SETUPS - 1:
                proc.communicate("STOP\n", timeout=CHILD_TIMEOUT_S)
        out, _ = proc.communicate("GO\n", timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
    result = json.loads(out.strip().splitlines()[-1])
    result["setups_s"] = setups
    if trace:
        probe = subprocess.run(
            _worker_cmd(workload, seed, size, False, "-X", "importtime") + ["--imports-only"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        result["layers"].update(pbcore.parse_importtime(probe.stderr))
    return result


def _end_to_end(result: dict) -> dict:
    lat = result["latencies_s"]
    values = {
        "setup_s": pbcore.median(result["setups_s"]),
        "units_per_s": len(lat) / result["wall_s"],
        "latency_p50_ms": pbcore.median(lat) * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: (values[name], unit) for name, unit, _ in pbcore.END_TO_END}


def _per_layer(result: dict) -> dict:
    layers = result["layers"]
    return {name: (float(layers.get(name, 0)), unit) for name, unit, _ in pbcore.PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        return max(main(["--workload", w, *rest]) for w in WORKLOADS)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        **pbcore.host_facts(),
        **pbcore.source_revision(ROOT),
        "load_1min_before": pbcore.load_1min(),
    }
    trace = bool(args.trace)
    if args.workload == "service.mixed":
        import service_mixed

        result = service_mixed.run(
            ROOT, OUT, _child_env(), args.seed, args.seconds,
            trace=trace, n_setups=SETUPS,
        )
        import numpy
        import scipy

        result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    else:
        result = run_in_process(args.workload, args.seed, args.seconds, trace)
    facts["load_1min_after"] = pbcore.load_1min()
    facts.update(result.get("versions", {}))
    facts["setups_s"] = result["setups_s"]
    if not trace:
        facts["host_slowdown"] = result["host_slowdown"]
        facts["raw_units_per_s"] = len(result["raw_latencies_s"]) / result["raw_wall_s"]
        facts["raw_latency_p50_ms"] = pbcore.median(result["raw_latencies_s"]) * 1e3
    facts["checks"] = result.get("checks")
    facts["errors"] = result["errors"]
    metrics = _per_layer(result) if trace else _end_to_end(result)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14s} {name:38s} {value:14.6g} {unit}")
    if args.workload == "service.mixed" and not trace:
        p90 = pbcore.percentile(result["latencies_s"], 90) * 1e3
        print(f"{args.workload:14s} {'latency_p90_ms':38s} {p90:14.6g} ms")
    print(f"{args.workload:14s} failed {result['failed']} of {result['attempted']} units; "
          f"correct: {result['correct']}")
    for error in result["errors"]:
        print(f"{args.workload:14s} check failed: {error}", file=sys.stderr)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"facts": facts, "metrics": metrics, "segments": result.get("segments")})
    )
    print(json.dumps({"facts": facts}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
