"""Array form of a net's structure for the vectorized reachability BFS.

The kernel layer turns a :class:`~repro.petri.net.TimedEventGraph` into
two int32 arrays once: the producing and the consuming transition of each
place. :func:`repro.petri.reachability.explore` expands whole frontier
batches through them instead of walking Python lists of dataclasses.
"""

from repro.kernels.incidence import IncidenceKernel

__all__ = ["IncidenceKernel"]
