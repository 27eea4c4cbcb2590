"""Tests of the benchmark's own machinery (inputs, statistics, tracing).

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import pbcore  # noqa: E402
import worker  # noqa: E402

STREAMS = {
    "exact.sweep": lambda seed: inputs.exact_stream(seed, 2),
    "sim.paper": lambda seed: inputs.sim_stream(seed, 6),
    "service.mixed": lambda seed: inputs.service_stream(seed, 50),
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(STREAMS))
def test_same_seed_same_stream(workload):
    make = STREAMS[workload]
    assert inputs.digest(make(5)) == inputs.digest(make(5))
    assert inputs.digest(make(5)) != inputs.digest(make(6))


def test_exact_stream_is_a_shuffled_prefix_of_longer_runs():
    short = {inputs.exact_key(u): u for u in inputs.exact_stream(3, 2)}
    long = {inputs.exact_key(u): u for u in inputs.exact_stream(3, 4)}
    assert len(short) == 2 * len(inputs.EXACT_PAIRS)
    assert all(long[k] == u for k, u in short.items())
    assert inputs.exact_key(inputs.exact_warmup(3)) not in long


def test_service_stream_repeats_about_thirty_percent():
    stream = inputs.service_stream(2, 2000)
    seen, repeats = set(), 0
    for task in stream:
        key = json.dumps(task, sort_keys=True)
        repeats += key in seen
        seen.add(key)
    assert 0.25 < repeats / len(stream) < 0.35


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def test_percentile_refuses_thin_tails():
    with pytest.raises(ValueError, match="beyond it"):
        pbcore.percentile(range(199), 90)  # 19 samples beyond p90
    assert pbcore.percentile(range(200), 90) == pytest.approx(179.1)
    with pytest.raises(ValueError):
        pbcore.percentile(range(1000), 99)  # 10 beyond p99


def test_median_needs_no_tail():
    assert pbcore.median([3.0, 1.0, 2.0]) == 2.0
    assert pbcore.median([1.0, 2.0]) == 1.5
    with pytest.raises(ValueError):
        pbcore.median([])


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_covered_child_time_once():
    spans = [
        ["unit", 0.0, 10.0, -1, {}],
        ["a", 1.0, 3.0, 0, {}],
        ["b", 2.0, 5.0, 0, {}],  # overlaps a: [1, 5] covered once
        ["c", 9.0, 12.0, 0, {}],  # clipped to the parent's end
        ["a.child", 1.5, 2.5, 1, {}],  # only a's child, not unit's
    ]
    assert pbcore.self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0])


def test_tracer_nests_spans_and_aggregates_by_name():
    ticks = iter(range(100))
    tracer = pbcore.Tracer(clock=lambda: float(next(ticks)))
    tracer.span("outer", lambda: tracer.span("inner", lambda: None))
    rows = tracer.by_name()
    # outer opens at 0, inner runs 1..2, outer closes at 3.
    assert rows["outer"]["calls"] == 1
    assert rows["outer"]["self_ms"] == pytest.approx(2000.0)
    assert rows["inner"]["self_ms"] == pytest.approx(1000.0)
    assert tracer.spans[1][3] == 0


class _Owner:
    def method(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return (cls, x)

    @staticmethod
    def static(x):
        return 2 * x


def test_wrappers_restore_the_original_functions():
    module = types.ModuleType("fake")
    module.fn = lambda x: x * 3
    originals = {
        "fn": module.fn,
        "method": _Owner.__dict__["method"],
        "build": _Owner.__dict__["build"],
        "static": _Owner.__dict__["static"],
    }
    tracer = pbcore.Tracer()
    tracer.wrap(module, "fn", "fn", lambda r, a: {"out": r})
    for attr in ("method", "build", "static"):
        tracer.wrap(_Owner, attr, attr)
    assert module.fn is not originals["fn"]
    assert module.fn(2) == 6
    assert _Owner().method(1) == 2
    assert _Owner.build(4) == (_Owner, 4)
    assert _Owner.static(5) == 10
    assert [s[0] for s in tracer.spans] == ["fn", "method", "build", "static"]
    assert tracer.spans[0][4] == {"out": 6}
    tracer.uninstall()
    assert module.fn is originals["fn"]
    for attr in ("method", "build", "static"):
        assert _Owner.__dict__[attr] is originals[attr]


def test_traced_values_equal_untraced_values():
    mods = worker._import_layers("exact.sweep")
    targets = [
        (mods["repro.petri.builder_strict"], "build_strict_tpn"),
        (mods["repro.petri.reachability"], "explore"),
        (mods["repro.markov.builder"], "ctmc_from_tpn"),
        (mods["repro.markov.ctmc"].CTMC, "stationary_distribution"),
        (mods["repro.kernels.incidence"].IncidenceKernel, "from_net"),
    ]
    before = [vars(o)[a] for o, a in targets]
    work = worker.ExactSweep(mods, 4, 2)
    cheap = {(2, 5), (5, 5)}
    work.stream = [u for u in work.stream if (u["u"], u["v"]) in cheap]
    plain = worker._timed_pass(work)
    tracer = pbcore.Tracer()
    work.install(tracer)
    traced = worker._timed_pass(work, tracer)
    tracer.uninstall()
    assert [vars(o)[a] for o, a in targets] == before
    assert not plain["errors"] and not traced["errors"]
    assert traced["values"] == plain["values"]
    rows = tracer.by_name()
    assert rows["evaluate"]["calls"] == len(work.stream)
    assert rows["markov.solve"]["calls"] == len(work.stream)
    assert rows["petri.reachability"]["calls"] == len(cheap)
    _abs, rel = work.residuals()
    assert rel <= worker.RESIDUAL_TOL


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     _io",
        "import time:      5000 |    900000 |     scipy.stats",
        "import time:       300 |   1200000 | repro",
        "import time:        50 |      2000 |   repro.types",
        "import time:       300 |     40000 | repro.service.client",
        "import time:       999 |       999 | numpy",
        "not an import line",
    ])
    assert pbcore.parse_importtime(stderr) == {
        "setup.import.repro_ms": 1240.0,
        "setup.import.scipy_stats_ms": 900.0,
    }


def test_benchmark_json_matches_the_metric_tables():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == [
        tuple(row) for row in pbcore.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(row) for row in pbcore.PER_LAYER
    ]
    assert [w["name"] for w in bench["workloads"]] == [
        "exact.sweep", "sim.paper", "service.mixed",
    ]
