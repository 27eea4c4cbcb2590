"""Process-local metrics registry with fixed-bucket histograms.

Three instrument kinds, mirroring the Prometheus data model without the
dependency:

- :class:`Counter` — monotonically non-decreasing total.  May be
  *callback-backed* (``fn=``), in which case :meth:`collect` reads the
  legacy ad-hoc counter it shadows — the ``metrics`` op then reconciles
  exactly with the older ``stats`` op by construction, because both read
  the same integer.
- :class:`Gauge` — point-in-time value, owned or callback-backed.
- :class:`Histogram` — fixed upper-bound buckets (plus an implicit
  ``+Inf`` overflow) and cumulative-sum quantile estimation.

``collect()`` returns a plain-dict *snapshot* (JSON-safe, sorted keys)
that travels over the wire; :func:`render_prometheus` turns it into
Prometheus text exposition format.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from collections.abc import Callable, Sequence

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "histogram_quantile",
    "render_prometheus",
]

#: Log-spaced latency bounds (seconds) covering 0.5 ms .. 10 s.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


class Counter:
    """Monotonic total; owned (``inc``) or callback-backed (``fn``)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", fn: Callable[[], float] | None = None):
        self.name = _check_name(name)
        self.help = help
        self._fn = fn
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int | float = 1) -> None:
        if self._fn is not None:
            raise TypeError(f"counter {self.name!r} is callback-backed")
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        if self._fn is not None:
            return self._fn()
        return self._value

    def snapshot(self) -> dict:
        return {"type": self.kind, "help": self.help, "value": self.value}


class Gauge(Counter):
    """Point-in-time value; adds ``set``/``dec`` on top of ``inc``."""

    kind = "gauge"

    def inc(self, amount: int | float = 1) -> None:
        if self._fn is not None:
            raise TypeError(f"gauge {self.name!r} is callback-backed")
        with self._lock:
            self._value += amount

    def dec(self, amount: int | float = 1) -> None:
        self.inc(-amount)

    def set(self, value: int | float) -> None:
        if self._fn is not None:
            raise TypeError(f"gauge {self.name!r} is callback-backed")
        with self._lock:
            self._value = value


class Histogram:
    """Fixed-bucket latency histogram.

    ``bounds`` are the finite bucket *upper* bounds, strictly
    increasing; an implicit ``+Inf`` overflow bucket is appended.
    ``counts`` has ``len(bounds) + 1`` entries.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        self.name = _check_name(name)
        self.help = help
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be non-empty and strictly increasing")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    def quantile(self, q: float) -> float | None:
        snap = self.snapshot()
        return histogram_quantile(snap["bounds"], snap["counts"], q)

    def snapshot(self) -> dict:
        with self._lock:
            counts = list(self._counts)
            total, acc = self._count, self._sum
        snap = {
            "type": self.kind,
            "help": self.help,
            "bounds": list(self.bounds),
            "counts": counts,
            "count": total,
            "sum": acc,
        }
        for label, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
            snap[label] = histogram_quantile(snap["bounds"], counts, q)
        return snap


def histogram_quantile(bounds: Sequence[float], counts: Sequence[int], q: float) -> float | None:
    """Prometheus-style interpolated quantile over cumulative buckets.

    Returns ``None`` on an empty histogram.  Within a bucket the value
    is linearly interpolated between its lower and upper bound; the
    overflow bucket clamps to the largest finite bound.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    total = sum(counts)
    if total == 0:
        return None
    rank = q * total
    cum = 0.0
    for i, c in enumerate(counts):
        cum += c
        if cum >= rank and c > 0:
            if i >= len(bounds):  # overflow bucket: clamp
                return float(bounds[-1])
            lo = bounds[i - 1] if i > 0 else 0.0
            hi = bounds[i]
            frac = (rank - (cum - c)) / c
            return lo + (hi - lo) * frac
    return float(bounds[-1])


class MetricsRegistry:
    """Named instruments for one process; thread-safe registration.

    Registering a duplicate name raises — each subsystem binds its
    instruments exactly once at construction time.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _register(self, instrument):
        with self._lock:
            if instrument.name in self._instruments:
                raise ValueError(f"metric {instrument.name!r} already registered")
            self._instruments[instrument.name] = instrument
        return instrument

    def counter(self, name: str, help: str = "", fn: Callable[[], float] | None = None) -> Counter:
        return self._register(Counter(name, help, fn))

    def gauge(self, name: str, help: str = "", fn: Callable[[], float] | None = None) -> Gauge:
        return self._register(Gauge(name, help, fn))

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram(name, help, buckets))

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        with self._lock:
            return self._instruments.get(name)

    def unregister(self, name: str) -> None:
        """Drop an instrument (no-op if absent).

        Lets a component rebind its instruments when it is rebuilt
        around a longer-lived registry — e.g. a server restarted on an
        engine that outlives it.
        """
        with self._lock:
            self._instruments.pop(name, None)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def collect(self) -> dict:
        """JSON-safe snapshot of every instrument, keyed by name."""
        with self._lock:
            instruments = list(self._instruments.values())
        return {inst.name: inst.snapshot() for inst in sorted(instruments, key=lambda i: i.name)}


def _fmt(value: float) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def render_prometheus(snapshot: dict) -> str:
    """Render a snapshot as Prometheus text format."""
    lines: list[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry.get("type", "untyped")
        if entry.get("help"):
            lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {kind}")
        if kind == "histogram":
            cum = 0
            for bound, count in zip(entry["bounds"], entry["counts"]):
                cum += count
                lines.append(f'{name}_bucket{{le="{_fmt(float(bound))}"}} {cum}')
            cum += entry["counts"][len(entry["bounds"])]
            lines.append(f'{name}_bucket{{le="+Inf"}} {cum}')
            lines.append(f"{name}_sum {_fmt(float(entry['sum']))}")
            lines.append(f"{name}_count {_fmt(entry['count'])}")
        else:
            lines.append(f"{name} {_fmt(entry['value'])}")
    return "\n".join(lines) + "\n"
