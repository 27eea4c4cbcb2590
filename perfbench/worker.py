"""Child process of the in-process workloads ``exact.sweep`` and ``sim.paper``.

Run by ``run.py``, one fresh interpreter per set-up measurement::

    python perfbench/worker.py --workload exact.sweep --seed 1 --size 20 [--trace]

The child imports the program's layers, builds the workload's fixture,
runs one untimed warm-up unit, then prints ``READY``. ``run.py`` times
spawn → ``READY`` as ``setup_s``. On ``GO`` the child runs the timed
stream, checks every output, and prints one JSON result line; on any
other line it exits. ``--imports-only`` stops after the imports (the
parent runs it under ``python -X importtime``).

With ``--trace`` the timed stream runs twice on fresh caches: untraced,
then with span wrappers installed on the program's public functions.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

LAYERS = {
    "exact.sweep": (
        "repro.evaluate",
        "repro.mapping.examples",
        "repro.petri.builder_strict",
        "repro.petri.reachability",
        "repro.markov.builder",
        "repro.markov.ctmc",
        "repro.kernels.incidence",
    ),
    "sim.paper": (
        "repro.experiments.fig10",
        "repro.petri.builder_overlap",
        "repro.kernels.incidence",
        "repro.sim.tpn_sim",
        "repro.sim.runner",
        "repro.core.components",
        "repro.markov.builder",
        "repro.markov.ctmc",
    ),
}

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"

#: exact.sweep: Theorem 7 says exponential <= deterministic; allow the
#: two solvers' rounding on candidates where the two coincide.
SANDWICH_SLACK = 1e-9
#: exact.sweep: agreement with the reference values (relative).
REFERENCE_RTOL = 1e-9
#: exact.sweep: stationary residual ||pi Q||_1, relative to the largest
#: exit rate max_i |Q_ii| (the residual of the uniformized chain).
RESIDUAL_TOL = 1e-9
#: sim.paper: each estimate lies within this relative distance of the
#: exact Overlap exponential throughput. The total-time estimator counts
#: the pipeline fill, which biases 1000-2000 data sets 4-9% low.
SIM_RTOL = 0.15


def _import_layers(workload: str) -> dict:
    return {name: importlib.import_module(name) for name in LAYERS[workload]}


# ----------------------------------------------------------------------
# exact.sweep
# ----------------------------------------------------------------------
class ExactSweep:
    def __init__(self, mods: dict, seed: int, size: int) -> None:
        import numpy as np

        import inputs

        self.np = np
        self.mods = mods
        self.evaluate = mods["repro.evaluate"]
        self.examples = mods["repro.mapping.examples"]
        self.stream = inputs.exact_stream(seed, size)
        self.warmup_units = [inputs.exact_warmup(seed)]
        self.key = inputs.exact_key
        self.cache = None
        self.solves: list = []

    def mapping(self, unit: dict):
        bw = self.np.asarray(unit["bandwidths"])
        return self.examples.single_communication(unit["u"], unit["v"], bandwidths=bw)

    def fixture(self) -> None:
        """No fixture: every unit builds its own net."""

    def fresh_pass(self) -> None:
        self.cache = self.evaluate.StructureCache()

    def run_unit(self, unit: dict, tracer=None) -> float:
        mapping = self.mapping(unit)
        call = self.evaluate.evaluate
        kwargs = dict(solver="exponential", model="strict", cache=self.cache)
        if tracer is None:
            return call(mapping, **kwargs)
        return tracer.span("evaluate", call, mapping, **kwargs)

    def install(self, tracer) -> None:
        m = self.mods
        tracer.wrap(m["repro.petri.builder_strict"], "build_strict_tpn", "petri.net_build")
        tracer.wrap(
            m["repro.petri.reachability"], "explore", "petri.reachability",
            lambda r, a: {"states": r.n_states},
        )
        tracer.wrap(
            m["repro.markov.builder"], "ctmc_from_tpn", "markov.build",
            lambda r, a: {"nnz": r[0].rate_matrix.nnz},
        )
        solves = self.solves

        def solve_attrs(pi, args):
            # Keep the chain and its answer; the residual is computed
            # after the pass, outside every span.
            solves.append((args[0], pi))
            return {"states": len(pi)}

        tracer.wrap(
            m["repro.markov.ctmc"].CTMC, "stationary_distribution", "markov.solve",
            solve_attrs,
        )
        tracer.wrap(
            m["repro.kernels.incidence"].IncidenceKernel, "from_net", "kernels.build",
            lambda k, a: {"bytes": _kernel_bytes(k)},
        )

    def check(self, values: dict, seed: int) -> dict:
        """Sandwich on every unit; reference values for the default seed."""
        import inputs

        failures = []
        det_cache = self.evaluate.StructureCache()
        for unit in self.stream:
            key = self.key(unit)
            if key not in values:
                continue  # a failed unit, already counted
            upper = self.evaluate.evaluate(
                self.mapping(unit), solver="deterministic", model="strict",
                cache=det_cache,
            )
            if not values[key] <= upper * (1 + SANDWICH_SLACK):
                failures.append(f"{key}: exponential {values[key]!r} > deterministic {upper!r}")
        checks = {"sandwich": not failures, "sandwich_units": len(self.stream)}
        if seed == inputs.DEFAULT_SEED:
            ref = json.loads((REFERENCE / "exact.sweep.json").read_text())["values"]
            bad = [
                k for k, v in values.items()
                if k not in ref or abs(v - ref[k]) > REFERENCE_RTOL * abs(ref[k])
            ]
            checks["reference"] = not bad
            failures += [f"{k}: {values[k]!r} != reference {ref.get(k)!r}" for k in bad]
        return {"checks": checks, "failures": failures}

    def residuals(self) -> tuple[float, float]:
        """Largest absolute and largest scaled residual over traced solves."""
        np = self.np
        worst_abs = worst_rel = 0.0
        for chain, pi in self.solves:
            q = chain.generator()
            res = float(np.abs(pi @ q).sum())
            scale = float(np.abs(q.diagonal()).max()) or 1.0
            worst_abs = max(worst_abs, res)
            worst_rel = max(worst_rel, res / scale)
        self.solves.clear()
        return worst_abs, worst_rel


# ----------------------------------------------------------------------
# sim.paper
# ----------------------------------------------------------------------
class SimPaper:
    def __init__(self, mods: dict, seed: int, size: int) -> None:
        import numpy as np

        import inputs

        self.np = np
        self.mods = mods
        self.inputs = inputs
        self.stream = inputs.sim_stream(seed, size)
        self.warmup_units = inputs.sim_warmup(seed)
        self.key = lambda unit: str(unit["index"])
        self.mapping = mods["repro.experiments.fig10"].paper_system()
        self.net = None
        self.spec = None

    def fixture(self) -> None:
        """The Overlap net of the paper system and its incidence kernel."""
        builder = self.mods["repro.petri.builder_overlap"]
        self.net = builder.build_overlap_tpn(self.mapping)
        self.net.kernel  # noqa: B018 - builds and caches the kernel
        self.spec = self.mods["repro.sim.runner"].ReplicationSpec(
            self.mapping, "overlap", n_datasets=self.inputs.SIM_BATCH_DATASETS
        )

    def fresh_pass(self) -> None:
        """Units share only the prebuilt net: nothing to reset."""

    def run_unit(self, unit: dict, tracer=None) -> float:
        rng_seed = unit["seed"]
        if unit["kind"] == "tpn":
            def call():
                return self.mods["repro.sim.tpn_sim"].simulate_tpn(
                    self.net,
                    n_datasets=self.inputs.SIM_TPN_DATASETS,
                    engine="fast",
                    rng=self.np.random.default_rng(rng_seed),
                ).throughput
        else:
            def call():
                return self.mods["repro.sim.runner"].replicate(
                    self.spec,
                    n_replications=self.inputs.SIM_BATCH_REPLICATIONS,
                    seed=rng_seed,
                    engine="vectorized",
                ).mean
        if tracer is None:
            return call()
        return tracer.span("unit", call)

    def install(self, tracer) -> None:
        m = self.mods
        tracer.wrap(m["repro.petri.builder_overlap"], "build_overlap_tpn", "petri.net_build")
        tracer.wrap(
            m["repro.kernels.incidence"].IncidenceKernel, "from_net", "kernels.build",
            lambda k, a: {"bytes": _kernel_bytes(k)},
        )
        tracer.wrap(
            m["repro.sim.tpn_sim"], "simulate_tpn", "sim.tpn",
            lambda r, a: {"events": r.n_events},
        )
        tracer.wrap(
            m["repro.sim.runner"], "simulate_system_batch", "sim.batch",
            lambda r, a: {"replications": len(r.throughput())},
        )
        # Layers this workload must not reach: wrapped so a call would show.
        tracer.wrap(m["repro.markov.builder"], "ctmc_from_tpn", "markov.build")
        tracer.wrap(m["repro.markov.ctmc"].CTMC, "stationary_distribution", "markov.solve")

    def check(self, values: dict, seed: int) -> dict:
        exact = self.mods["repro.core.components"].overlap_throughput(
            self.mapping, "exponential"
        )
        failures = [
            f"unit {k}: {v!r} is not within {SIM_RTOL:.0%} of {exact!r}"
            for k, v in values.items()
            if abs(v - exact) > SIM_RTOL * exact
        ]
        checks = {"within_theory": not failures, "theory": exact}
        if seed == self.inputs.DEFAULT_SEED:
            ref = json.loads((REFERENCE / "sim.paper.json").read_text())["values"]
            bad = [k for k, v in values.items() if ref.get(k) != v]
            checks["reference"] = not bad
            failures += [f"unit {k}: {values[k]!r} != reference {ref.get(k)!r}" for k in bad]
        return {"checks": checks, "failures": failures}


def _kernel_bytes(kernel) -> int:
    """Summed ``nbytes`` of every array the kernel holds."""
    import numpy as np

    return sum(
        v.nbytes for v in vars(kernel).values() if isinstance(v, np.ndarray)
    )


WORKLOADS = {"exact.sweep": ExactSweep, "sim.paper": SimPaper}


# ----------------------------------------------------------------------
def _timed_pass(work, tracer=None) -> dict:
    """Run the stream once; every unit is timed, failures are counted.

    The stream runs in segments with a host-speed calibration between
    them (see :func:`pbcore.normalize`).
    """
    import pbcore

    work.fresh_pass()
    values: dict = {}
    errors: list[str] = []
    walls: list[float] = []
    latencies: list[list[float]] = []
    calibrations = [pbcore.calibration_s()]
    clock = time.perf_counter
    for seg in pbcore.segments(len(work.stream)):
        seg_lat = []
        t_start = clock()
        for unit in (work.stream[i] for i in seg):
            t0 = clock()
            try:
                value = work.run_unit(unit, tracer)
            except Exception as exc:  # counted as a failed unit, reported below
                errors.append(f"{work.key(unit)}: {type(exc).__name__}: {exc}")
                continue
            seg_lat.append(clock() - t0)
            values[work.key(unit)] = value
        walls.append(clock() - t_start)
        latencies.append(seg_lat)
        calibrations.append(pbcore.calibration_s())
    return {
        "values": values, "errors": errors,
        "timing": pbcore.normalize(walls, latencies, calibrations),
    }


def _layer_metrics(workload: str, work, tracer, traced: dict, untraced: dict) -> dict:
    import pbcore

    rows = tracer.by_name()

    def row(name):
        return rows.get(name, {"calls": 0, "self_ms": 0.0, "attrs": []})

    def attr_sum(name, key):
        return sum(a.get(key, 0) for a in row(name)["attrs"])

    def attr_max(name, key):
        return max((a.get(key, 0) for a in row(name)["attrs"]), default=0)

    out = {}
    for name in ("petri.reachability", "petri.net_build", "markov.build",
                 "markov.solve", "sim.tpn", "sim.batch"):
        out[f"{name}.calls"] = row(name)["calls"]
        out[f"{name}.self_ms"] = row(name)["self_ms"]
    out["petri.reachability.states"] = attr_sum("petri.reachability", "states")
    out["markov.build.nnz"] = attr_sum("markov.build", "nnz")
    out["markov.solve.states_max"] = attr_max("markov.solve", "states")
    out["kernels.build.calls"] = row("kernels.build")["calls"]
    out["kernels.build.self_ms"] = row("kernels.build")["self_ms"]
    out["kernels.bytes"] = attr_sum("kernels.build", "bytes")
    out["sim.tpn.events"] = attr_sum("sim.tpn", "events")
    out["sim.batch.replications"] = attr_sum("sim.batch", "replications")
    out["evaluate.self_ms"] = row("evaluate")["self_ms"]
    lookups = work.cache.misses if workload == "exact.sweep" else 0
    explored = row("petri.reachability")["calls"]
    out["evaluate.cache.reach_hit_ratio"] = (
        (lookups - explored) / lookups if lookups else 0.0
    )
    out["trace.overhead_pct"] = pbcore.overhead_pct(untraced["timing"], traced["timing"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(LAYERS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="write traced spans here (JSON)")
    ap.add_argument("--imports-only", action="store_true")
    args = ap.parse_args(argv)

    # The program's layers first, so their cost includes numpy and scipy
    # as a user's first import pays it.
    mods = _import_layers(args.workload)
    if args.imports_only:
        return 0

    import pbcore

    work = WORKLOADS[args.workload](mods, args.seed, args.size)
    tracer = pbcore.Tracer() if args.trace else None
    if tracer is not None:
        work.install(tracer)
    work.fixture()
    if tracer is not None:
        tracer.uninstall()
    work.fresh_pass()
    for unit in work.warmup_units:
        work.run_unit(unit)

    print("READY", flush=True)
    if sys.stdin.readline().strip() != "GO":
        return 0

    plain = _timed_pass(work)
    result = {
        **plain["timing"],
        "attempted": len(work.stream),
        "failed": len(plain["errors"]),
        "peak_rss_mb": pbcore.vm_hwm_mb(),
        "errors": plain["errors"][:10],
    }
    if tracer is not None:
        work.install(tracer)
        traced = _timed_pass(work, tracer)
        tracer.uninstall()
        layers = _layer_metrics(args.workload, work, tracer, traced, plain)
        result["failed"] += len(traced["errors"])
        result["errors"] += traced["errors"][:10]
        same = traced["values"] == plain["values"]
        result["traced_equals_untraced"] = same
        if not same:
            result["errors"].append("traced values differ from untraced values")
        if args.workload == "exact.sweep":
            res_abs, res_rel = work.residuals()
            layers["markov.solve.residual_max"] = res_abs
            layers["markov.solve.residual_rel_max"] = res_rel
            if res_rel > RESIDUAL_TOL:
                result["errors"].append(
                    f"stationary residual {res_rel:.3g} x max exit rate > {RESIDUAL_TOL:g}"
                )
        result["layers"] = layers
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.spans))
    verdict = work.check(plain["values"], args.seed)
    result["checks"] = verdict["checks"]
    result["errors"] += verdict["failures"][:10]
    result["correct"] = not result["errors"]
    import numpy
    import scipy

    result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
