"""Per-place arc endpoints of a timed event graph.

In an event graph every place has exactly one producing and one consuming
transition, so the whole arc structure is two int32 arrays of length
``n_places``: ``place_src[p]`` produces into place ``p`` and
``place_dst[p]`` consumes from it. One :class:`IncidenceKernel` holding
them is built (and cached) per net; its memory grows with the net's arcs,
never with transitions × places.

The reachability explorer uses :meth:`IncidenceKernel.enabled` and
:meth:`IncidenceKernel.successors` to expand a whole BFS frontier batch
at once. ``enabled`` regroups the input places on every call; that costs
one sort of ``n_places`` entries, small next to the ``(batch, n_places)``
blocks the calls touch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class IncidenceKernel:
    """Array view of a net's structure (see module docstring)."""

    n_transitions: int
    place_src: np.ndarray  # int32 (n_places,)
    place_dst: np.ndarray  # int32 (n_places,)

    @classmethod
    def from_net(cls, net) -> "IncidenceKernel":
        """Build the kernel from a :class:`TimedEventGraph`."""
        n_p = net.n_places
        return cls(
            n_transitions=net.n_transitions,
            place_src=np.fromiter((p.src for p in net.places), np.int32, n_p),
            place_dst=np.fromiter((p.dst for p in net.places), np.int32, n_p),
        )

    # ------------------------------------------------------------------
    def enabled(self, markings: np.ndarray) -> np.ndarray:
        """Boolean ``(batch, n_transitions)`` mask of enabled transitions.

        A transition is enabled when none of its input places is empty.
        The input places are visited in groups with pairwise distinct
        consumers, so each group updates its transitions' columns with one
        gather and no write collides. A transition without input places
        is in no group and stays enabled.
        """
        ok = np.ones((len(markings), self.n_transitions), dtype=bool)
        dst = self.place_dst
        for k, places in enumerate(_distinct_endpoint_groups(dst)):
            has_token = markings[:, places] > 0
            if k == 0:
                ok[:, dst[places]] = has_token
            else:
                ok[:, dst[places]] &= has_token
        return ok

    def successors(
        self, markings: np.ndarray, state_ix: np.ndarray, trans_ix: np.ndarray
    ) -> np.ndarray:
        """Markings after firing ``trans_ix[k]`` in ``markings[state_ix[k]]``.

        One gather, then one token off every place the fired transition
        consumes from and one on every place it produces into (a self-loop
        place gets both). Callers guarantee the pairs are enabled, so no
        entry goes negative.
        """
        succ = markings[state_ix]
        fired = trans_ix.astype(np.int32)[:, None]
        succ -= self.place_dst == fired
        succ += self.place_src == fired
        return succ


def _distinct_endpoint_groups(ends: np.ndarray) -> list[np.ndarray]:
    """Place indices split into groups whose ``ends`` are pairwise distinct.

    Group ``k`` holds, for every transition, its ``k``-th place in index
    order, so there are as many groups as the largest degree.
    """
    groups = []
    rest = np.argsort(ends, kind="stable")
    while rest.size:
        e = ends[rest]
        first = np.empty(rest.size, dtype=bool)
        first[0] = True
        np.not_equal(e[1:], e[:-1], out=first[1:])
        groups.append(rest[first])
        rest = rest[~first]
    return groups
