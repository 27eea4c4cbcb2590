"""Regenerate the reference values of the in-process workloads.

    PYTHONPATH=src python3 perfbench/make_reference.py

Runs the default seed's stream at the longest allowed run (60 s worth
of units) and writes ``perfbench/reference/<workload>.json``. The
benchmark compares its default-seed runs against these files, so a
change in floating-point output shows as a failed check until the
references are regenerated on purpose.
"""

from __future__ import annotations

import json
import sys

import inputs
import worker

MAX_SECONDS = 60


def main() -> int:
    sizes = {
        "exact.sweep": inputs.exact_size(MAX_SECONDS),
        "sim.paper": inputs.sim_size(MAX_SECONDS),
    }
    for workload, size in sizes.items():
        mods = worker._import_layers(workload)
        work = worker.WORKLOADS[workload](mods, inputs.DEFAULT_SEED, size)
        work.fixture()
        result = worker._timed_pass(work)
        if result["errors"]:
            print("\n".join(result["errors"]), file=sys.stderr)
            return 1
        path = worker.REFERENCE / f"{workload}.json"
        path.write_text(json.dumps(
            {"seed": inputs.DEFAULT_SEED, "size": size,
             "values": dict(sorted(result["values"].items()))},
            indent=0,
        ) + "\n")
        print(f"{workload}: {len(result['values'])} values -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
