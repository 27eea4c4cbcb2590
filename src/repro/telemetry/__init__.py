"""Observability layer for the evaluation stack.

Small, dependency-free pieces the evaluation service plugs into:

- :mod:`repro.telemetry.metrics` — a process-local registry of counters,
  gauges and fixed-bucket latency histograms with Prometheus text
  exposition.  Callback-backed instruments read the legacy ad-hoc stats
  counters directly, so the ``metrics`` op reconciles exactly with the
  older ``stats`` op by construction.
- :mod:`repro.telemetry.profile` — nested, exception-safe span timers
  aggregated into a per-phase time/call/self-time tree.  The engine
  feeds it the same floats its latency histograms observe, so the
  ``profile`` op reconciles exactly with ``metrics``.
- :mod:`repro.telemetry.trace` — request-id minting.  Every protocol
  frame may carry a top-level ``request_id``; the client reuses it
  across retries and the server echoes it in its reply telemetry and
  flight-recorder events.
- :mod:`repro.telemetry.recorder` — a crash-safe JSONL flight recorder
  (same torn-tail discipline as the campaign store) with size-based
  rotation and a slow-request threshold log.
- :mod:`repro.telemetry.logs` — stdlib ``logging`` plumbing: namespaced
  ``repro.*`` loggers and an optional JSON line formatter, wired to the
  CLI ``--verbose`` / ``--log-json`` flags.

Clock access goes through an injectable monotonic source
(:mod:`repro.telemetry.clock`) so span timings are deterministic under
test.
"""

from __future__ import annotations

from .clock import ManualClock, monotonic_clock, wall_clock
from .logs import JsonLineFormatter, configure_logging, get_logger
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    histogram_quantile,
    render_prometheus,
)
from .profile import (
    Profiler,
    active_profiler,
    flatten_phases,
    profile_span,
    profiling,
    render_profile,
)
from .recorder import FlightRecorder, find_trace, read_events
from .trace import new_request_id

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "JsonLineFormatter",
    "ManualClock",
    "MetricsRegistry",
    "Profiler",
    "active_profiler",
    "configure_logging",
    "find_trace",
    "flatten_phases",
    "get_logger",
    "histogram_quantile",
    "monotonic_clock",
    "new_request_id",
    "profile_span",
    "profiling",
    "read_events",
    "render_profile",
    "render_prometheus",
    "wall_clock",
]
