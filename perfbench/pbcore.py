"""Shared pieces of the benchmark: statistics, spans and run facts.

Nothing here imports the program under test. The tracer wraps the
program's public functions from outside: each wrapper goes on the
attribute its caller looks up (a module global or a class attribute),
records one span per call, and is removed again by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import time
from pathlib import Path

#: A tail percentile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 20

#: The timed phase is cut into this many segments, with a host-speed
#: calibration before the first and after each one.
SEGMENTS = 16
#: Iterations of the calibration loop, and its median time in seconds
#: on the 2-CPU reference host. Segment times are scaled by
#: ``CALIBRATION_NOMINAL_S / measured`` so that the host's own slow and
#: fast phases (up to +-20% over tens of seconds) cancel out.
CALIBRATION_LOOPS = 100_000
CALIBRATION_REPS = 9
CALIBRATION_NOMINAL_S = 0.008

#: End-to-end metrics, reported by every workload with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("units_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Per-layer metrics, reported by every workload with ``--trace 1``
#: (0 where the workload does not reach the layer). Times are totals
#: over the traced stream, fixture build included; ``service.*_ms``
#: are means per request.
PER_LAYER = (
    ("petri.reachability.calls", "count", "lower"),
    ("petri.reachability.self_ms", "ms", "lower"),
    ("petri.reachability.states", "count", "lower"),
    ("evaluate.cache.reach_hit_ratio", "ratio", "higher"),
    ("petri.net_build.calls", "count", "lower"),
    ("petri.net_build.self_ms", "ms", "lower"),
    ("markov.build.calls", "count", "lower"),
    ("markov.build.self_ms", "ms", "lower"),
    ("markov.build.nnz", "count", "lower"),
    ("markov.solve.calls", "count", "lower"),
    ("markov.solve.self_ms", "ms", "lower"),
    ("markov.solve.states_max", "count", "lower"),
    ("markov.solve.residual_max", "norm", "lower"),
    ("markov.solve.residual_rel_max", "ratio", "lower"),
    ("evaluate.self_ms", "ms", "lower"),
    ("kernels.build.calls", "count", "lower"),
    ("kernels.build.self_ms", "ms", "lower"),
    ("kernels.bytes", "B", "lower"),
    ("sim.tpn.calls", "count", "lower"),
    ("sim.tpn.self_ms", "ms", "lower"),
    ("sim.tpn.events", "count", "lower"),
    ("sim.batch.calls", "count", "lower"),
    ("sim.batch.self_ms", "ms", "lower"),
    ("sim.batch.replications", "count", "lower"),
    ("service.transport_ms", "ms", "lower"),
    ("service.handler_ms", "ms", "lower"),
    ("service.queue_wait_ms", "ms", "lower"),
    ("service.execute_ms", "ms", "lower"),
    ("service.executed", "count", "lower"),
    ("service.memo_hits", "count", "higher"),
    ("service.disk_hits", "count", "higher"),
    ("service.coalesced", "count", "higher"),
    ("service.memo_hit_ratio", "ratio", "higher"),
    ("service.latency_p90_ms", "ms", "lower"),
    *(
        (f"service.profile.{phase}.self_ms", "ms", "lower")
        for phase in (
            "fingerprint", "net_build", "reachability", "markov_build",
            "ctmc_solve", "critical_cycle",
        )
    ),
    ("setup.import.repro_ms", "ms", "lower"),
    ("setup.import.scipy_stats_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float, *, min_tail: int = MIN_TAIL_SAMPLES) -> float:
    """The ``q``-th percentile (linear interpolation between ranks).

    A tail percentile (``q > 50``) is refused with ``ValueError`` unless
    at least ``min_tail`` samples lie beyond it: with fewer, one stall
    moves it from run to run.
    """
    data = sorted(values)
    n = len(data)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    if q > 50:
        beyond = n - math.ceil(n * q / 100)
        if beyond < min_tail:
            raise ValueError(
                f"p{q:g} of {n} samples has {beyond} beyond it; "
                f"at least {min_tail} are needed"
            )
    pos = (n - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50)


# ----------------------------------------------------------------------
# Host-speed normalization
# ----------------------------------------------------------------------
def calibration_s(reps: int = CALIBRATION_REPS) -> list[float]:
    """Times of ``reps`` runs of a fixed pure-Python loop."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOPS):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return times


def segments(n: int, k: int = SEGMENTS) -> list[range]:
    """``range(n)`` cut into at most ``k`` contiguous, near-equal parts."""
    k = max(1, min(k, n))
    cuts = [round(i * n / k) for i in range(k + 1)]
    return [range(a, b) for a, b in zip(cuts, cuts[1:])]


def normalize(walls, latencies, calibrations) -> dict:
    """Scale each segment's times to the nominal host speed.

    ``walls[k]`` and ``latencies[k]`` belong to segment ``k``, which ran
    between ``calibrations[k]`` and ``calibrations[k + 1]``; the mean of
    the two, over ``CALIBRATION_NOMINAL_S``, is the segment's slowdown.
    Returns normalized and raw wall time and latencies, and the median
    slowdown.
    """
    if len(calibrations) != len(walls) + 1 or len(latencies) != len(walls):
        raise ValueError("one calibration before each segment and after the last")
    points = [median(c) for c in calibrations]
    slow = [(a + b) / 2 / CALIBRATION_NOMINAL_S for a, b in zip(points, points[1:])]
    return {
        "segments": {"walls": walls, "calibrations": calibrations, "latencies": latencies},
        "wall_s": sum(w / f for w, f in zip(walls, slow)),
        "latencies_s": [x / f for seg, f in zip(latencies, slow) for x in seg],
        "raw_wall_s": sum(walls),
        "raw_latencies_s": [x for seg in latencies for x in seg],
        "host_slowdown": median(slow),
    }


def overhead_pct(untraced: dict, traced: dict) -> float:
    """How much more slowly a traced pass ran, from normalized throughput."""
    def ups(timing):
        return len(timing["latencies_s"]) / timing["wall_s"]

    return (ups(untraced) / ups(traced) - 1) * 100


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span recorder around wrapped callables.

    A span is ``[name, start, end, parent, attrs]``; ``parent`` is the
    index of the span open when it started (``-1`` at the top). The
    recorder is single-threaded, like the workloads it traces.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, {}])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, **attrs) -> None:
        span = self.spans[index]
        span[2] = self.clock()
        span[4].update(attrs)
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; return its result."""
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    # -- wrapping ------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``attrs(result, args)`` returns the attributes stored on the span.
        Class-level ``classmethod``/``staticmethod`` objects keep their
        kind, so ``owner.attr`` binds exactly as before.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                tracer.close(index)
                if attrs is not None and result is not None:
                    tracer.spans[index][4].update(attrs(result, args))

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", attr)
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, last wrapped first."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    # -- reading -------------------------------------------------------
    def by_name(self) -> dict[str, dict]:
        """``{name: {calls, self_ms, attrs: [...]}}`` over all spans."""
        selfs = self_times(self.spans)
        out: dict[str, dict] = {}
        for span, own in zip(self.spans, selfs):
            name, attrs = span[0], span[4]
            row = out.setdefault(name, {"calls": 0, "self_ms": 0.0, "attrs": []})
            row["calls"] += 1
            row["self_ms"] += own * 1e3
            row["attrs"].append(attrs)
        return out


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are the spans naming it as parent; overlapping children
    are counted once, and a child poking outside its parent is clipped.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span[3]
        if parent >= 0:
            children.setdefault(parent, []).append((span[1], span[2]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


# ----------------------------------------------------------------------
# Process and host facts
# ----------------------------------------------------------------------
def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def load_1min() -> float:
    return os.getloadavg()[0]


def source_revision(root: Path) -> dict:
    """The git revision when ``root`` is a clone, and a digest of ``src/``.

    The digest identifies the code under test in a checkout without
    git metadata.
    """
    rev = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = root / ".git" / ref[5:]
            rev = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            rev = ref
    sha = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        sha.update(str(path.relative_to(root)).encode())
        sha.update(path.read_bytes())
    return {"git_rev": rev, "src_sha256": sha.hexdigest()[:16]}


def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def parse_importtime(stderr: str) -> dict[str, float]:
    """``setup.import.*`` milliseconds from ``python -X importtime`` output.

    ``repro_ms`` sums the cumulative time of every ``repro`` module the
    importing script asked for directly (the outermost nesting level);
    ``scipy_stats_ms`` is the cumulative time of ``scipy.stats``
    wherever it was first imported (0 when it never was).
    """
    repro_us = 0
    scipy_stats_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative = int(parts[1])
        field = parts[2]
        name = field.strip()
        depth = len(field) - len(field.lstrip())
        if depth == 1 and (name == "repro" or name.startswith("repro.")):
            repro_us += cumulative
        if name == "scipy.stats":
            scipy_stats_us = cumulative
    return {
        "setup.import.repro_ms": repro_us / 1e3,
        "setup.import.scipy_stats_ms": scipy_stats_us / 1e3,
    }
