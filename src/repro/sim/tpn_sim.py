"""Discrete-event simulation of a timed event graph (``eg_sim`` stand-in).

Semantics: a transition *starts firing* as soon as every input place holds
a token and it is not already firing; tokens are consumed at the start and
produced at the end of the firing, whose duration is drawn from the
transition's law (one law per hardware resource, independent draws per
firing — the I.I.D. hypothesis). Event graphs are conflict-free, so this
single-server semantics is unambiguous, and for exponential laws it
coincides with the CTMC race semantics of Section 5.

Works on bounded *and* unbounded nets: the feed-forward Overlap net simply
accumulates tokens in the flow places of non-bottleneck branches.

Two engines implement the same semantics: the default ``"fast"`` engine
walks the net's adjacency lists with plain-int markings, while
``"reference"`` keeps the original numpy-marking loop as a cross-checked
oracle. Both make the exact same start/complete decisions in the same
order, so they consume the RNG identically and produce event-for-event
equal results.
"""

from __future__ import annotations

import heapq
import time as _time

import numpy as np

from repro.exceptions import StructuralError
from repro.petri.net import TimedEventGraph
from repro.sim.results import SimulationResult
from repro.sim.sampling import SampleBuffer, as_factory


def simulate_tpn(
    tpn: TimedEventGraph,
    *,
    n_datasets: int,
    law="exponential",
    rng: np.random.Generator | None = None,
    seed: int | None = None,
    max_events: int | None = None,
    throttle: int | None = 64,
    engine: str = "fast",
) -> SimulationResult:
    """Run the net until ``n_datasets`` last-column firings complete.

    Parameters
    ----------
    law:
        A family name, :class:`~repro.sim.sampling.LawSpec` or
        ``mean -> Distribution`` callable, instantiated per transition with
        its mean firing time. Zero-mean transitions fire instantaneously.
    rng / seed:
        Pass a generator (preferred for replication control) or a seed.
    max_events:
        Safety valve (default ``50 × n_datasets × n_transitions``).
    throttle:
        Maximum run-ahead: a transition does not start while one of its
        output places already holds this many tokens. Feed-forward
        (Overlap) nets are unbounded, so without a throttle a fast source
        floods the event calendar; a generous cap leaves the measured
        throughput unchanged (run-ahead beyond the bottleneck's backlog
        never speeds completions) while keeping the event count linear.
        ``None`` disables the cap.
    engine:
        ``"fast"`` (flat-array event loop, default) or ``"reference"``
        (original implementation). Identical results for the same rng.
    """
    if n_datasets < 1:
        raise ValueError("n_datasets must be >= 1")
    if throttle is not None and throttle < 1:
        raise ValueError("throttle must be >= 1 or None")
    if engine not in ("fast", "reference"):
        raise ValueError(f"unknown engine {engine!r}; use 'fast' or 'reference'")
    if rng is None:
        rng = np.random.default_rng(seed)
    factory = as_factory(law)

    n_t = tpn.n_transitions
    for t in range(n_t):
        if not tpn.in_places[t]:
            raise StructuralError(
                f"transition {t} has no input place; event-graph simulation "
                "requires source transitions to be closed by resource cycles"
            )

    samplers: list[SampleBuffer | None] = []
    for t in tpn.transitions:
        if t.mean_time == 0.0:
            samplers.append(None)  # instantaneous firing
        else:
            samplers.append(SampleBuffer(factory(t.mean_time), rng))

    budget = max_events if max_events is not None else 50 * n_datasets * n_t
    run = _simulate_fast if engine == "fast" else _simulate_reference
    return run(tpn, samplers, n_datasets, budget, throttle)


def _simulate_fast(
    tpn: TimedEventGraph,
    samplers: list[SampleBuffer | None],
    n_datasets: int,
    budget: int,
    throttle: int | None,
) -> SimulationResult:
    """Event loop over the net's adjacency lists with plain-int markings.

    Scalar access into Python lists beats per-event numpy fancy indexing
    and dataclass attribute chains by a wide margin; the draws still come
    from the vectorized per-transition :class:`SampleBuffer` blocks.
    """
    n_t = tpn.n_transitions
    in_places = tpn.in_places
    out_places = tpn.out_places
    place_src = [p.src for p in tpn.places]
    place_dst = [p.dst for p in tpn.places]
    marking = tpn.initial_marking().tolist()
    draw = [None if s is None else s.draw for s in samplers]

    is_last = [False] * n_t
    for t in tpn.last_column_transitions():
        is_last[t] = True
    completions = np.empty(n_datasets)
    n_done = 0

    firing = [False] * n_t
    calendar: list[tuple[float, int, int]] = []  # (end time, tiebreak, transition)
    push = heapq.heappush
    pop = heapq.heappop
    tiebreak = 0
    now = 0.0
    n_events = 0
    t0 = _time.perf_counter()

    def try_start(t: int) -> bool:
        nonlocal tiebreak
        if firing[t]:
            return False
        for p in in_places[t]:
            if marking[p] == 0:
                return False
        if throttle is not None:
            for p in out_places[t]:
                if marking[p] >= throttle:
                    return False
        for p in in_places[t]:
            marking[p] -= 1
        firing[t] = True
        d = draw[t]
        duration = 0.0 if d is None else d()
        tiebreak += 1
        push(calendar, (now + duration, tiebreak, t))
        return True

    def cascade(seeds: list[int]) -> None:
        stack = seeds
        while stack:
            t = stack.pop()
            if try_start(t) and throttle is not None:
                for p in in_places[t]:
                    stack.append(place_src[p])

    cascade(list(range(n_t)))
    if not calendar:
        raise StructuralError("deadlocked net: no transition initially enabled")

    while n_done < n_datasets:
        if n_events >= budget:
            raise StructuralError(
                f"simulation exceeded {budget} events before {n_datasets} "
                "completions; the net may be deadlocked"
            )
        now, _, t = pop(calendar)
        n_events += 1
        firing[t] = False
        for p in out_places[t]:
            marking[p] += 1
        if is_last[t]:
            completions[n_done] = now
            n_done += 1
        # Newly produced tokens may enable the successors — and t itself.
        cascade([t] + [place_dst[p] for p in out_places[t]])

    return SimulationResult(
        completion_times=completions,
        n_events=n_events,
        wall_time=_time.perf_counter() - t0,
    )


def _simulate_reference(
    tpn: TimedEventGraph,
    samplers: list[SampleBuffer | None],
    n_datasets: int,
    budget: int,
    throttle: int | None,
) -> SimulationResult:
    """Original numpy-marking event loop — the equivalence oracle."""
    n_t = tpn.n_transitions
    in_places = tpn.in_places
    out_places = tpn.out_places
    marking = tpn.initial_marking().astype(np.int64)

    last_col = set(tpn.last_column_transitions())
    completions = np.empty(n_datasets)
    n_done = 0

    firing = np.zeros(n_t, dtype=bool)
    calendar: list[tuple[float, int, int]] = []  # (end time, tiebreak, transition)
    tiebreak = 0
    now = 0.0
    n_events = 0
    t0 = _time.perf_counter()

    def try_start(t: int) -> bool:
        nonlocal tiebreak
        if firing[t]:
            return False
        for p in in_places[t]:
            if marking[p] == 0:
                return False
        if throttle is not None:
            for p in out_places[t]:
                if marking[p] >= throttle:
                    return False
        marking[in_places[t]] -= 1
        firing[t] = True
        sampler = samplers[t]
        duration = 0.0 if sampler is None else sampler.draw()
        tiebreak += 1
        heapq.heappush(calendar, (now + duration, tiebreak, t))
        return True

    def cascade(seeds: list[int]) -> None:
        """Start every transition unlocked by token moves, transitively.

        Starting a transition consumes tokens, which can release the
        throttle of upstream transitions — hence the worklist.
        """
        stack = list(seeds)
        while stack:
            t = stack.pop()
            if try_start(t) and throttle is not None:
                for p in in_places[t]:
                    stack.append(tpn.places[p].src)

    cascade(list(range(n_t)))
    if not calendar:
        raise StructuralError("deadlocked net: no transition initially enabled")

    while n_done < n_datasets:
        if n_events >= budget:
            raise StructuralError(
                f"simulation exceeded {budget} events before {n_datasets} "
                "completions; the net may be deadlocked"
            )
        now, _, t = heapq.heappop(calendar)
        n_events += 1
        firing[t] = False
        marking[out_places[t]] += 1
        if t in last_col:
            completions[n_done] = now
            n_done += 1
        # Newly produced tokens may enable the successors — and t itself.
        cascade([t] + [tpn.places[p].dst for p in out_places[t]])

    return SimulationResult(
        completion_times=completions,
        n_events=n_events,
        wall_time=_time.perf_counter() - t0,
    )
