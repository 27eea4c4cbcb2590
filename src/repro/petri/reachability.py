"""Reachable-marking exploration of a bounded timed event graph.

The exact exponential-case method (Theorem 2) identifies the state of the
memoryless system with the current marking; this module enumerates the
reachable markings and the transition relation between them, which the
Markov layer turns into a CTMC.

Markings are encoded as ``bytes`` of per-place token counts — compact,
hashable, and cheap to decode back into numpy vectors.

Two implementations share the same contract: :func:`explore` expands the
BFS frontier in vectorized batches through the net's
:class:`~repro.kernels.IncidenceKernel`, while :func:`explore_reference`
keeps the original marking-at-a-time loop as a cross-checked oracle. Both
enumerate states in identical BFS discovery order, so their results are
equal field-for-field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import StateSpaceLimitError, StructuralError
from repro.petri.net import TimedEventGraph

#: Refuse markings whose token count exceeds this per place: a growing
#: place means the net is unbounded (feed-forward Overlap without
#: capacities) and the exploration would never terminate.
PLACE_BOUND = 64

#: Hard ceiling on ``place_bound``: markings are keyed by their uint8
#: byte encoding, so token counts above 255 would silently alias
#: distinct markings onto the same key.
MAX_PLACE_BOUND = 255


@dataclass
class ReachabilityResult:
    """The reachable marking graph.

    ``arcs[s]`` lists ``(transition_index, next_state_index)`` pairs — one
    per transition enabled in state ``s`` (event graphs are conflict-free,
    so enabled transitions are exactly the outgoing CTMC moves under race
    semantics).
    """

    states: list[bytes]
    arcs: list[list[tuple[int, int]]]
    initial: int
    n_places: int
    _flat: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def n_states(self) -> int:
        return len(self.states)

    def marking(self, state: int) -> np.ndarray:
        """Decode a state back into a token-count vector."""
        return np.frombuffer(self.states[state], dtype=np.uint8).astype(np.int64)

    def flat_arcs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The arcs as three parallel int64 arrays ``(src, trans, dst)``.

        Cached; the Markov layer assembles the CTMC and the throughput
        extractor from these with numpy gathers instead of nested loops.
        """
        if self._flat is None:
            n_arcs = sum(len(moves) for moves in self.arcs)
            src = np.empty(n_arcs, dtype=np.int64)
            trans = np.empty(n_arcs, dtype=np.int64)
            dst = np.empty(n_arcs, dtype=np.int64)
            k = 0
            for s, moves in enumerate(self.arcs):
                for t, s2 in moves:
                    src[k] = s
                    trans[k] = t
                    dst[k] = s2
                    k += 1
            self._flat = (src, trans, dst)
        return self._flat


def _validate_place_bound(place_bound: int) -> None:
    if not 1 <= place_bound <= MAX_PLACE_BOUND:
        raise ValueError(
            f"place_bound must be in 1..{MAX_PLACE_BOUND} (markings are keyed "
            f"as uint8 token counts), got {place_bound}"
        )


def explore(
    tpn: TimedEventGraph,
    *,
    max_states: int = 200_000,
    place_bound: int = PLACE_BOUND,
) -> ReachabilityResult:
    """Breadth-first enumeration of the reachable markings (vectorized).

    The frontier is expanded in batches through the net's per-place arc
    endpoints: :meth:`~repro.kernels.IncidenceKernel.enabled` yields the
    enabled mask of the whole batch, one gather plus a ±1 update per arc
    endpoint yields every successor marking, and deduplication slices keys
    out of a single contiguous byte buffer per batch. Produces the exact
    result of :func:`explore_reference` (same state numbering, same arc
    order).

    Raises
    ------
    ValueError
        When ``place_bound`` is outside ``1..255`` (uint8 keying).
    StateSpaceLimitError
        When more than ``max_states`` markings are reachable.
    StructuralError
        When a place accumulates more than ``place_bound`` tokens —
        the symptom of an unbounded (feed-forward) net.
    """
    _validate_place_bound(place_bound)
    if tpn.n_places == 0:
        raise StructuralError("cannot explore a net without places")
    kern = tpn.kernel
    n_p = tpn.n_places

    m0 = tpn.initial_marking()
    if (m0 > place_bound).any():
        raise StructuralError("initial marking exceeds the place bound")
    init_key = m0.astype(np.uint8).tobytes()

    # Markings live in one int16 arena with capacity doubling; token
    # counts are bounded by 255 so int16 holds every reachable marking
    # and the uint8 key cast below never wraps.
    markings = np.empty((256, n_p), dtype=np.int16)
    markings[0] = m0
    index: dict[bytes, int] = {init_key: 0}
    states: list[bytes] = [init_key]
    arcs: list[list[tuple[int, int]]] = []
    n = 1
    head = 0
    # Batch width bounded so the (batch, n_places) blocks of the enabled
    # check and the successor block (one row per enabled pair) stay a few MB.
    batch = max(1, min(4096, (1 << 21) // n_p))
    while head < n:
        hi = min(n, head + batch)
        frontier = markings[head:hi]
        mask = kern.enabled(frontier)
        # nonzero is row-major: state-ascending, transition-ascending
        # within a state — the reference exploration order.
        local_s, trans = np.nonzero(mask)
        over_bound = None
        if local_s.size:
            succ = kern.successors(frontier, local_s, trans)
            if int(succ.max()) > place_bound:
                # Defer to the per-arc loop below so the error raised (and
                # its interleaving with StateSpaceLimitError) matches the
                # reference arc order exactly; the batch never survives.
                over_bound = (succ > place_bound).any(axis=1).tolist()
            buf = succ.astype(np.uint8).tobytes()
        per_state = np.diff(np.searchsorted(local_s, np.arange(hi - head + 1)))
        trans_l = trans.tolist()
        k = 0
        for count in per_state.tolist():
            out: list[tuple[int, int]] = []
            for _ in range(count):
                if over_bound is not None and over_bound[k]:
                    raise StructuralError(
                        f"place bound {place_bound} exceeded: the net is "
                        "unbounded (add buffer capacities or use the "
                        "decomposition method)"
                    )
                key = buf[k * n_p:(k + 1) * n_p]
                s2 = index.get(key)
                if s2 is None:
                    s2 = n
                    if s2 >= max_states:
                        raise StateSpaceLimitError(max_states)
                    index[key] = s2
                    states.append(key)
                    if n == markings.shape[0]:
                        markings = np.concatenate([markings, np.empty_like(markings)])
                    markings[n] = succ[k]
                    n += 1
                out.append((trans_l[k], s2))
                k += 1
            arcs.append(out)
        head = hi
    return ReachabilityResult(states=states, arcs=arcs, initial=0, n_places=tpn.n_places)


# ----------------------------------------------------------------------
# Reference implementation (cross-checked oracle for the vectorized BFS)
# ----------------------------------------------------------------------

def _enabled(marking: np.ndarray, in_places: list[list[int]]) -> list[int]:
    out = []
    for t, places in enumerate(in_places):
        ok = True
        for p in places:
            if marking[p] == 0:
                ok = False
                break
        if ok:
            out.append(t)
    return out


def explore_reference(
    tpn: TimedEventGraph,
    *,
    max_states: int = 200_000,
    place_bound: int = PLACE_BOUND,
) -> ReachabilityResult:
    """Marking-at-a-time BFS — the original implementation, kept as the
    equivalence oracle for :func:`explore`.
    """
    _validate_place_bound(place_bound)
    if tpn.n_places == 0:
        raise StructuralError("cannot explore a net without places")
    in_places = tpn.in_places
    out_places = tpn.out_places

    m0 = tpn.initial_marking().astype(np.int64)
    if (m0 > place_bound).any():
        raise StructuralError("initial marking exceeds the place bound")
    init_key = m0.astype(np.uint8).tobytes()

    index: dict[bytes, int] = {init_key: 0}
    states: list[bytes] = [init_key]
    arcs: list[list[tuple[int, int]]] = []
    frontier = [m0]
    head = 0
    while head < len(frontier):
        marking = frontier[head]
        head += 1
        out: list[tuple[int, int]] = []
        for t in _enabled(marking, in_places):
            nxt = marking.copy()
            nxt[in_places[t]] -= 1
            nxt[out_places[t]] += 1
            if (nxt > place_bound).any():
                raise StructuralError(
                    f"place bound {place_bound} exceeded: the net is unbounded "
                    "(add buffer capacities or use the decomposition method)"
                )
            key = nxt.astype(np.uint8).tobytes()
            s = index.get(key)
            if s is None:
                s = len(states)
                if s >= max_states:
                    raise StateSpaceLimitError(max_states)
                index[key] = s
                states.append(key)
                frontier.append(nxt)
            out.append((t, s))
        arcs.append(out)
    return ReachabilityResult(states=states, arcs=arcs, initial=0, n_places=tpn.n_places)
