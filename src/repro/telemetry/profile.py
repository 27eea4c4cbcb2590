"""Per-phase cost attribution: nested, exception-safe span timers.

A :class:`Profiler` aggregates wall time into a *phase tree*: each node
holds how many times a phase ran, its total inclusive time, and (in the
snapshot) its *self* time — the part not attributed to any child phase.
The paper's complexity analysis reasons per stage (reachability
exploration vs CTMC assembly vs the linear solve vs the simulation
recurrence); this module makes those stages observable on a live
service, where PR 8's latency histograms only show the opaque envelope.

Three usage layers:

* ``profiler.span("phase")`` — an explicit context-manager span on a
  profiler you hold.  Spans nest per thread (the path is tracked in a
  ``threading.local``), and closure is exception-safe: ``__exit__``
  records the elapsed time whether the body returned or raised.
* ``profiler.record(path, seconds)`` — direct attribution of an
  already-measured duration to a phase path.  The engine feeds its
  ``run_batch`` span *the same floats* it observes into the latency
  histograms, so the profile root and the histogram ``_sum`` reconcile
  exactly, not approximately.
* ``profile_span("phase")`` — the module-level hook for deep library
  code (solvers, reachability, the CTMC builder) that must not carry a
  profiler argument through every signature.  It reads the thread's
  *active* profiler installed by :func:`profiling`; when none is active
  (or the profiler is disabled) it returns one shared no-op span —
  no per-call allocation, near-zero overhead on hot loops.

Time comes from an injectable clock (:mod:`repro.telemetry.clock`), so
tests drive exact arithmetic with ``ManualClock``.  Snapshots are
JSON-safe plain dicts.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable, Sequence
from contextlib import contextmanager

from repro.telemetry.clock import monotonic_clock

__all__ = [
    "NULL_SPAN",
    "Profiler",
    "active_profiler",
    "flatten_phases",
    "profile_span",
    "profiling",
    "render_profile",
]


class _Node:
    """One phase: call count, inclusive total, children by name."""

    __slots__ = ("calls", "total_s", "children")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.children: dict[str, _Node] = {}


class _NullSpan:
    """Shared do-nothing span: the disabled/inactive fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: The one instance every disabled/inactive ``span()`` call returns —
#: identity-testable, so tests can assert the hot path allocates nothing.
NULL_SPAN = _NullSpan()


class _Span:
    """A live timed span; created only when the profiler is enabled."""

    __slots__ = ("_profiler", "_name", "_saved", "_t0")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_Span":
        prof = self._profiler
        local = prof._local
        self._saved = getattr(local, "path", ())
        local.path = self._saved + (self._name,)
        self._t0 = prof.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        prof = self._profiler
        dt = prof.clock() - self._t0
        path = getattr(prof._local, "path", (self._name,))
        prof._local.path = self._saved
        prof.record(path, dt)
        return False


class Profiler:
    """Thread-safe aggregation of spans into one per-phase time tree.

    ``enabled=False`` freezes the profiler: ``span`` returns the shared
    :data:`NULL_SPAN`, ``record`` is a no-op, and the snapshot stays
    empty — the cost of carrying a disabled profiler through the hot
    path is one attribute check.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        clock: Callable[[], float] = monotonic_clock,
    ) -> None:
        self.enabled = enabled
        self.clock = clock
        self._lock = threading.Lock()
        self._root = _Node()
        self._local = threading.local()

    def span(self, name: str):
        """A context-manager span named ``name``, nested under the
        thread's current span path (exception-safe on exit)."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name)

    def record(
        self, path: Sequence[str], seconds: float, *, calls: int = 1
    ) -> None:
        """Attribute ``seconds`` (and ``calls`` runs) to phase ``path``.

        Creates intermediate nodes as needed without counting calls on
        them — a recorded ``("batch", "route")`` does not invent a
        ``batch`` run; the caller records the parent explicitly with the
        float it measured.
        """
        if not self.enabled or not path:
            return
        with self._lock:
            children = self._root.children
            node: _Node | None = None
            for name in path:
                node = children.get(name)
                if node is None:
                    node = children[name] = _Node()
                children = node.children
            node.calls += calls
            node.total_s += float(seconds)

    def reset(self) -> None:
        """Drop every recorded phase (the tree, not the enabled flag)."""
        with self._lock:
            self._root = _Node()

    def snapshot(self) -> dict:
        """JSON-safe ``{"enabled": ..., "phases": tree}`` snapshot.

        Each node carries ``calls``, inclusive ``total_s``, derived
        ``self_s`` (total minus the children's totals, floored at 0 for
        structural nodes that were never recorded themselves), and
        ``children`` when non-empty.
        """
        with self._lock:
            phases = {
                name: _node_snapshot(node)
                for name, node in self._root.children.items()
            }
        return {"enabled": self.enabled, "phases": phases}


def _node_snapshot(node: _Node) -> dict:
    children = {
        name: _node_snapshot(child) for name, child in node.children.items()
    }
    out = {"calls": node.calls, "total_s": node.total_s}
    out["self_s"] = max(
        0.0, node.total_s - sum(c["total_s"] for c in children.values())
    )
    if children:
        out["children"] = children
    return out


# ----------------------------------------------------------------------
# Thread-local activation: spans deep in library code without plumbing
# ----------------------------------------------------------------------
_ACTIVE = threading.local()


def active_profiler() -> Profiler | None:
    """The profiler :func:`profiling` installed on this thread, if any."""
    return getattr(_ACTIVE, "profiler", None)


def profile_span(name: str):
    """A span on the thread's active profiler, or the shared no-op.

    This is the hook solver internals use: when no profiler is active
    (direct library use, a process-pool worker) or the active one is
    disabled, the same :data:`NULL_SPAN` instance is returned every
    call — the hot loop pays one lookup, zero allocations.
    """
    prof = getattr(_ACTIVE, "profiler", None)
    if prof is None or not prof.enabled:
        return NULL_SPAN
    return prof.span(name)


@contextmanager
def profiling(profiler: Profiler | None, *, base: Sequence[str] = ()):
    """Install ``profiler`` as this thread's active profiler.

    ``base`` seeds the span path, so library-level ``profile_span``
    calls inside the block land under the caller's phase (the engine
    activates with ``base=("batch", "execute")`` around the evaluator
    pass).  The previous active profiler and path are restored on exit,
    exception or not.  A ``None`` or disabled profiler makes the whole
    block a no-op.
    """
    if profiler is None or not profiler.enabled:
        yield profiler
        return
    prev = getattr(_ACTIVE, "profiler", None)
    local = profiler._local
    prev_path = getattr(local, "path", ())
    _ACTIVE.profiler = profiler
    local.path = tuple(base)
    try:
        yield profiler
    finally:
        _ACTIVE.profiler = prev
        local.path = prev_path


# ----------------------------------------------------------------------
# Snapshot rendering
# ----------------------------------------------------------------------
def flatten_phases(
    phases: dict, prefix: str = ""
) -> list[tuple[str, dict]]:
    """Depth-first ``(path, node)`` rows of a phase tree.

    Paths join with ``/`` (``batch/execute/reachability``) — the shape
    ``cli top`` ranks by ``self_s`` for its hottest-phases panel.
    """
    rows: list[tuple[str, dict]] = []
    for name, node in phases.items():
        path = f"{prefix}/{name}" if prefix else name
        rows.append((path, node))
        rows.extend(flatten_phases(node.get("children") or {}, path))
    return rows


def render_profile(phases: dict, *, indent: int = 2) -> str:
    """Fixed-width table of a phase tree (total-time descending)."""
    lines = [
        f"{'phase':34s} {'calls':>8s} {'total_s':>11s} {'self_s':>11s}"
    ]

    def walk(tree: dict, depth: int) -> None:
        order: Iterable[str] = sorted(
            tree, key=lambda n: (-tree[n].get("total_s", 0.0), n)
        )
        for name in order:
            node = tree[name]
            label = " " * (indent * depth) + name
            lines.append(
                f"{label:34s} {node.get('calls', 0):>8d} "
                f"{node.get('total_s', 0.0):>11.6f} "
                f"{node.get('self_s', 0.0):>11.6f}"
            )
            walk(node.get("children") or {}, depth + 1)

    walk(phases, 0)
    return "\n".join(lines)
