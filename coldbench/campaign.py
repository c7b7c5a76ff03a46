"""One cold campaign pass in a fresh interpreter (run by ``run.py``).

Usage::

    python3 coldbench/campaign.py --dir DIR \
        [--setup-only | --trace | --reference]

``DIR/plan.json`` holds the pass's generated inputs: the cells (as
``RunSpec`` dicts), the runner's job count and whether a warm pass
follows.  The pass runs the cells through ``repro.exp.Runner`` with an
empty ``ResultCache`` under ``DIR`` (and, with a warm pass, runs the
same grid again against the now-full cache), then writes
``DIR/pass.json``: timings, runner tallies and every cell's metric
vector.  Before it exits it joins the runner's pool workers, so the
parent's ``wait4`` sees their CPU time and peak RSS.

``--setup-only`` stops where the first cell would be submitted.
``--trace`` installs the layer wrappers (``layers.py``) first.
``--reference`` runs the plan's cells directly through
``execute_spec`` (the parent sets ``REPRO_SIM_REFERENCE=1``) and
writes their metric vectors to ``DIR/reference.json`` instead.
"""

import argparse
import dataclasses
import json
import multiprocessing
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from layers import LayerTrace  # noqa: E402
from repro.exp import (  # noqa: E402
    ResultCache,
    RunError,
    Runner,
    RunSpec,
    execute_spec,
    snapshot_cells,
    spec_identity,
)


def _cells_json(specs, results) -> list:
    return [dataclasses.asdict(cell)
            for cell in snapshot_cells(specs, results).values()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", type=Path, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--reference", action="store_true")
    args = parser.parse_args()
    out = args.dir
    plan = json.loads((out / "plan.json").read_text())
    specs = [RunSpec.from_dict(cell) for cell in plan["cells"]]
    if args.reference:
        results = [execute_spec(spec) for spec in specs]
        (out / "reference.json").write_text(
            json.dumps({"cells": _cells_json(specs, results)}))
        return 0

    cache_dir = out / "cache"
    cache_dir.mkdir(parents=True)
    layers = None
    if args.trace:
        layers = LayerTrace(out / "cells.jsonl")
        layers.install()
    # A wedged cell fails the run instead of hanging it.
    runner = Runner(jobs=plan["jobs"], cache=ResultCache(cache_dir),
                    timeout=60.0)
    submitted = time.monotonic()
    report = {"cells": len(specs), "submitted": submitted}
    if args.setup_only:
        (out / "pass.json").write_text(json.dumps(report))
        return 0

    try:
        results = runner.run(specs)
        cold_done = time.monotonic()
        report.update(cold_s=cold_done - submitted, cold_hits=runner.hits,
                      cold_misses=runner.misses,
                      entries=[dataclasses.asdict(e)
                               for e in runner.entries])
        if layers is not None:
            report["runner_layers"] = layers.snapshot()
        if plan["warm_pass"]:
            runner.run(specs)
            report.update(warm_s=time.monotonic() - cold_done,
                          warm_hits=runner.hits)
    except RunError as exc:
        report["error"] = str(exc)
    else:
        report["cell_vectors"] = _cells_json(specs, results)
    report["unique_identities"] = len({spec_identity(s) for s in specs})
    # The runner shuts its pool down without waiting; reap the workers
    # so their CPU time and RSS reach this process's rusage.
    for child in multiprocessing.active_children():
        child.join()
    (out / "pass.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
