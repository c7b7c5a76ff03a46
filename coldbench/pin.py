"""Record the benchmark's output pins on the reference kernel.

Usage, from the repository root::

    python3 coldbench/pin.py [--workload NAME ...]

For each workload, runs the first pass's cells of the default and the
held-out seed with ``REPRO_SIM_REFERENCE=1`` and writes their metric
vectors to ``coldbench/pins/<workload>.json`` in the
``repro baseline`` file format.  ``run.py`` compares fast-kernel cells
against these pins with zero tolerance, so the pins certify the fast
kernel against the reference.  Re-pin only for a change that is meant
to move simulated results.
"""

import argparse
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))
os.environ["REPRO_SIM_REFERENCE"] = "1"

from grids import PINNED_SEEDS, WORKLOADS  # noqa: E402
from repro.exp import Baseline, Runner, snapshot_cells  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS),
                        default=sorted(WORKLOADS))
    args = parser.parse_args()
    for name in args.workload:
        cells = {}
        for seed in PINNED_SEEDS:
            specs = WORKLOADS[name].build(seed, 0)
            cells.update(snapshot_cells(specs, Runner().run(specs)))
        path = Baseline(cells, name=f"coldbench {name}").save(
            BENCH_DIR / "pins" / f"{name}.json")
        print(f"pinned {len(cells)} cells to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
