"""Seeded input streams of the three workloads.

Every stream is a pure function of ``(seed, size)`` built from numpy's
``default_rng``; nothing here imports the program under test, so the
parent process, the worker and the tests share one definition of each input.
A stream's ``digest`` is a SHA-256 over its canonical JSON form.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

DEFAULT_SEED = 1

# ----------------------------------------------------------------------
# exact.sweep
# ----------------------------------------------------------------------
#: (senders, receivers) of the Strict single-communication candidates.
EXACT_PAIRS = ((2, 5), (5, 2), (2, 6), (6, 2), (3, 4), (4, 3), (5, 5))

#: Candidates per (u, v) pair and per second of ``--seconds``: one pass
#: over the seven pairs took about one second on a 2-CPU host.
EXACT_PER_PAIR_PER_SECOND = 1.0


def exact_candidate(seed: int, pair: int, k: int) -> dict:
    """The ``k``-th candidate of pair ``pair``: ``{u, v, k, bandwidths}``.

    Each (pair, k) draws from its own stream, so a longer run holds the
    shorter run's candidates unchanged and a reference value stays
    valid whatever the stream size.
    """
    u, v = EXACT_PAIRS[pair]
    n = u + v
    rng = np.random.default_rng([seed, pair, k])
    bandwidths = np.round(rng.uniform(0.5, 2.0, size=(n, n)), 3)
    return {"u": u, "v": v, "k": k, "bandwidths": bandwidths.tolist()}


def exact_stream(seed: int, per_pair: int) -> list[dict]:
    """``per_pair`` candidates for each pair, shuffled by the seed."""
    units = [
        exact_candidate(seed, pair, k)
        for pair in range(len(EXACT_PAIRS))
        for k in range(per_pair)
    ]
    order = np.random.default_rng([seed, 1_000_003]).permutation(len(units))
    return [units[i] for i in order]


def exact_warmup(seed: int) -> dict:
    """An untimed candidate on a ``k`` no stream reaches."""
    return exact_candidate(seed, 0, 2**31)


def exact_key(unit: dict) -> str:
    return f"{unit['u']},{unit['v']},{unit['k']}"


def exact_size(seconds: int) -> int:
    """Candidates per pair for a run of ``seconds``."""
    return max(1, round(EXACT_PER_PAIR_PER_SECOND * seconds))


# ----------------------------------------------------------------------
# sim.paper
# ----------------------------------------------------------------------
#: Units per second of ``--seconds`` (each unit took 0.21-0.35 s).
SIM_UNITS_PER_SECOND = 3.6
SIM_TPN_DATASETS = 2000
SIM_BATCH_DATASETS = 1000
SIM_BATCH_REPLICATIONS = 500


def sim_size(seconds: int) -> int:
    """Units for a run of ``seconds``: an even count, so both kinds weigh alike."""
    return 2 * max(1, round(SIM_UNITS_PER_SECOND * seconds / 2))


def sim_stream(seed: int, n_units: int) -> list[dict]:
    """Alternating ``tpn`` / ``batch`` units, each with its own seed key."""
    return [
        {"index": i, "kind": "tpn" if i % 2 == 0 else "batch", "seed": [seed, i]}
        for i in range(n_units)
    ]


def sim_warmup(seed: int) -> list[dict]:
    """One untimed unit of each kind, on seed keys no stream uses."""
    return [
        {"index": -1, "kind": "tpn", "seed": [seed, 2**31]},
        {"index": -2, "kind": "batch", "seed": [seed, 2**31 + 1]},
    ]


# ----------------------------------------------------------------------
# service.mixed
# ----------------------------------------------------------------------
#: Requests per second of ``--seconds`` (two connections sustained
#: about 480 requests/s on a 2-CPU host).
SERVICE_REQUESTS_PER_SECOND = 450
SERVICE_REPEAT_SHARE = 0.3
SERVICE_KINDS = (
    ("deterministic", "overlap"),
    ("deterministic", "strict"),
    ("exponential", "strict"),
)
SERVICE_TEAMS = [[0], [1, 2], [3]]


def _chain_task(rng: np.random.Generator, solver: str, model: str) -> dict:
    def draw(n: int, low: float, high: float) -> list[float]:
        return [float(x) for x in np.round(rng.uniform(low, high, n), 3)]

    return {
        "system": {
            "kind": "chain",
            "params": {
                "works": draw(3, 1.0, 10.0),
                "files": draw(2, 1.0, 10.0),
                "speeds": draw(4, 1.0, 4.0),
                "bandwidth": draw(1, 1.0, 4.0)[0],
                "teams": SERVICE_TEAMS,
            },
        },
        "solver": solver,
        "model": model,
    }


def service_stream(seed: int, n_requests: int) -> list[dict]:
    """Seeded ``evaluate`` tasks; about 30% repeat an earlier task."""
    rng = np.random.default_rng([seed, 7])
    tasks: list[dict] = []
    for _ in range(n_requests):
        if tasks and rng.random() < SERVICE_REPEAT_SHARE:
            tasks.append(tasks[int(rng.integers(len(tasks)))])
        else:
            solver, model = SERVICE_KINDS[int(rng.integers(len(SERVICE_KINDS)))]
            tasks.append(_chain_task(rng, solver, model))
    return tasks


def service_warmup(seed: int) -> list[dict]:
    """One untimed task per solver/model kind, outside every stream."""
    rng = np.random.default_rng([seed, 8])
    return [_chain_task(rng, solver, model) for solver, model in SERVICE_KINDS]


# ----------------------------------------------------------------------
def digest(stream: list) -> str:
    """SHA-256 of a stream's canonical JSON form."""
    blob = json.dumps(stream, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
