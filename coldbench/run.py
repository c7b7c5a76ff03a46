"""Cold-campaign benchmark for the STREX reproduction.

Usage, from the repository root::

    python3 coldbench/run.py --workload fig-cold --seed 0 --seconds 38 \\
        --trace 0

Every campaign pass runs in a fresh interpreter (``campaign.py``) with
an empty ``ResultCache``, so no cache, trace memo or batch replay can
turn a cold number warm.  Passes repeat, each with its own cell seeds,
until another pass would overrun ``--seconds`` (at least one runs);
timings are medians over passes.

``--trace 0`` reports the end-to-end metrics: campaign wall, CPU of
the campaign process and its pool workers (read with ``wait4`` after
the workers are joined), peak RSS of any process in that tree, and
set-up time (interpreter start to first cell submitted; the median
over every pass and a set-up-only interpreter before each pass).

Wall, CPU and set-up times are calibrated for host speed.  On a
shared host the same pass can take 1.7 times as long when neighbours
load the machine, for minutes at a time, so while a campaign runs
this process times a fixed pure-Python probe loop every ``POLL_S``,
in CPU seconds (being descheduled does not count) and on the CPU the
campaign runs on: a serial campaign and its probes share one pinned
CPU, and a pool campaign's probes rotate over every CPU.  An
interpreter's slowdown is its mean probe time over
``NOMINAL_PROBE_S``; ``wall_s``, ``cpu_s`` and ``setup_s`` are
medians of walls, CPU times and set-up times, each divided by the
slowdown of its interpreter: seconds on a host running at the nominal
probe speed.  The report prints the raw walls and the slowdowns
beside them.

``--trace 1`` runs the same untraced passes, then one traced pass with
the first pass's cells, and reports the per-layer metrics
(``layers.py``) with the layer table.

Outputs are checked after the timed passes.  Cells of the default and
held-out seeds compare with zero tolerance against ``pins/``, recorded
on the reference kernel by ``pin.py``.  Other cells are spot-checked
against a reference-kernel re-run and checked for cross-cell
consistency.  A pass whose cold run was served from the cache, or that
repeats a cell, fails all its cells.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Budget for all passes of one run, and the point at which a stuck
#: child is killed; the run must end within 180 s.
PASS_BUDGET_S = 120.0
HARD_DEADLINE_S = 170.0

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
#: Simulated metrics, printed on every run beside the paper's values.
SIMULATED = (("sim.strex_speedup", "x"), ("sim.strex_impki_cut", "1"),
             ("sim.overlap_ge5", "1"))


#: Host-speed probe: ``PROBE_LOOPS`` iterations of a fixed loop, run
#: between polls of a campaign, ``POLL_S`` apart.  ``NOMINAL_PROBE_S``
#: is its CPU time on an uncontended 2 GHz Xeon vCPU (1.5-2.1 ms
#: measured; the probe takes about 4% of one CPU).
PROBE_LOOPS = 20_000
NOMINAL_PROBE_S = 0.002
POLL_S = 0.05


def _probe() -> float:
    """CPU seconds of one run of the host-speed probe loop."""
    start = time.process_time()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.process_time() - start


class ChildFailed(RuntimeError):
    """A campaign interpreter exited without writing its result."""


def _spawn(args, out: Path, deadline: float, cpus,
           reference: bool = False):
    """Run ``campaign.py`` to completion on ``cpus``.

    Returns ``(report, rusage, spawned_at, lifetime_s, slowdown)``;
    the rusage covers the child and every descendant it reaped, and
    ``slowdown`` is the mean probe time over the child's lifetime
    divided by ``NOMINAL_PROBE_S``.
    """
    # The repro knobs (kernel choice, oracles, tracing) are the
    # benchmark's to set, not the caller's.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    if reference:
        env["REPRO_SIM_REFERENCE"] = "1"
    probes = []
    # The child inherits this affinity; each probe then runs on one of
    # the campaign's CPUs in turn.
    os.sched_setaffinity(0, cpus)
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "campaign.py"), "--dir", str(out),
         *args],
        stdout=sys.stderr.fileno(), start_new_session=True, env=env)
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            pid, status, rusage = os.wait4(proc.pid, 0)
            break
        os.sched_setaffinity(0, {cpus[len(probes) % len(cpus)]})
        probes.append(_probe())
        time.sleep(POLL_S)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lifetime = time.monotonic() - spawned
    name = "reference.json" if reference else "pass.json"
    if proc.returncode != 0 or not (out / name).is_file():
        raise ChildFailed(
            f"campaign {out.name} {' '.join(args)} exited with "
            f"{proc.returncode}")
    slowdown = (statistics.fmean(probes) / NOMINAL_PROBE_S
                if probes else 1.0)
    return (json.loads((out / name).read_text()), rusage, spawned,
            lifetime, slowdown)


def simulated_metrics(cells) -> dict:
    """The paper-shape metrics of one pass's cells (0 when absent)."""
    base, strex = {}, defaultdict(list)
    overlap = []
    for cell in cells:
        spec, metrics = cell["spec"], cell["metrics"]
        if spec["mode"] == "overlap":
            overlap.append(metrics["band.five_or_more"])
        elif spec["mode"] == "mix" and spec["workload"] in ("tpcc", "tpce"):
            group = (spec["workload"], spec["seed"], spec["scale"],
                     spec["cores"])
            if spec["scheduler"] == "base":
                base[group] = metrics
            elif spec["scheduler"] == "strex":
                strex[group].append(metrics)
    pairs = [(base[g], s) for g, runs in strex.items() if g in base
             for s in runs]
    out = {"sim.strex_speedup": 0.0, "sim.strex_impki_cut": 0.0,
           "sim.overlap_ge5": 0.0}
    if pairs:
        out["sim.strex_speedup"] = statistics.geometric_mean(
            s["throughput"] / b["throughput"] for b, s in pairs)
        out["sim.strex_impki_cut"] = 1 - statistics.geometric_mean(
            s["i_mpki"] / b["i_mpki"] for b, s in pairs)
    if overlap:
        out["sim.overlap_ge5"] = statistics.fmean(overlap)
    return out


def consistency_failures(cells) -> set:
    """Identities of cells whose outputs contradict each other.

    Every scheduler replays the same traces of a (workload, seed)
    group, so instruction and transaction counts must agree across
    the group; overlap fractions lie in [0, 1]; footprints are >= 1.
    """
    bad = set()
    groups = defaultdict(list)
    for cell in cells:
        spec, metrics = cell["spec"], cell["metrics"]
        if spec["mode"] == "mix":
            groups[(spec["workload"], spec["seed"], spec["scale"],
                    spec["cores"])].append(cell)
            if metrics["transactions"] != spec["transactions"] or \
                    metrics["cycles"] <= 0:
                bad.add(cell["identity"])
        elif spec["mode"] == "overlap":
            if metrics["intervals"] < 1 or not all(
                    0.0 <= v <= 1.0 for k, v in metrics.items()
                    if k.startswith("band.")):
                bad.add(cell["identity"])
        elif not all(v >= 1 for v in metrics.values()):
            bad.add(cell["identity"])
    for group in groups.values():
        if len({c["metrics"]["instructions"] for c in group}) > 1:
            bad.update(c["identity"] for c in group)
    return bad


class Checker:
    """Output checks for the cells of every pass.

    ``pins`` holds the workload's pinned cells and ``reference`` the
    spot-checked cells re-run on the reference kernel, both keyed by
    spec identity.
    """

    def __init__(self, workload_name: str):
        from repro.exp import Baseline

        self.pins = Baseline.load(
            BENCH_DIR / "pins" / f"{workload_name}.json").cells
        self.reference = {}
        self.attempted = 0
        self.failed = set()
        self.notes = []
        self.tally = defaultdict(int)

    def check(self, label: str, report: dict, must_be_pinned: bool,
              untraced=None) -> None:
        """Check one pass (``untraced``: the cells a traced pass must
        reproduce exactly)."""
        from repro.exp import Cell, Tolerance, diff_cells

        cells_of_pass = report["cells"]
        self.attempted += cells_of_pass
        if "error" in report:
            self.failed.update((label, i) for i in range(cells_of_pass))
            self.notes.append(f"{label}: {report['error']}")
            return
        cells = report["cell_vectors"]
        fresh = {c["identity"]: Cell(**c) for c in cells}
        self.tally["cold-pass cache hits"] += report["cold_hits"]
        if (report["cold_hits"], report["cold_misses"],
                report["unique_identities"],
                report.get("warm_hits", cells_of_pass)) != (
                    0, cells_of_pass, cells_of_pass, cells_of_pass):
            self.failed.update((label, i) for i in fresh)
            self.notes.append(
                f"{label}: not cold (hits {report['cold_hits']}, misses "
                f"{report['cold_misses']}, unique cells "
                f"{report['unique_identities']}/{cells_of_pass}, warm "
                f"hits {report.get('warm_hits', '-')})")
        if must_be_pinned:
            unpinned = [i for i in fresh if i not in self.pins]
            self.failed.update((label, i) for i in unpinned)
            if unpinned:
                self.notes.append(
                    f"{label}: {len(unpinned)} cell(s) have no pin")
        bad = {}
        for name, expected in (("pin", self.pins),
                               ("reference", self.reference),
                               ("untraced", untraced or {})):
            expected = {i: expected[i] for i in fresh if i in expected}
            self.tally[f"{name}-checked cells"] += len(expected)
            diff = diff_cells(expected, {i: fresh[i] for i in expected},
                              Tolerance())
            bad.update((c.identity, f"{name} {c.status}")
                       for c in diff.cells if c.status != "identical")
        bad.update((i, "inconsistent") for i in consistency_failures(cells))
        self.tally["consistency-checked cells"] += len(cells)
        for identity, why in bad.items():
            self.failed.add((label, identity))
            self.notes.append(f"{label}: {fresh[identity].label}: {why}")


def _layer_metrics(report: dict, cell_log, jobs: int,
                   untraced_wall: float, slowdown: float) -> tuple:
    """Per-layer metrics and the layer table of one traced pass.

    ``cell_log`` holds the pass's per-cell JSON lines;
    ``untraced_wall`` is the calibrated untraced median and
    ``slowdown`` the traced pass's host slowdown.
    """
    seconds, calls, inclusive = (defaultdict(float), defaultdict(int),
                                 defaultdict(float))
    counts = defaultdict(int)
    for line in cell_log:
        record = json.loads(line)
        for name, (self_s, n, incl) in record["spans"].items():
            seconds[name] += self_s
            calls[name] += n
            inclusive[name] += incl
        for key, value in record["counts"].items():
            counts[key] += value
    runner = report["runner_layers"]
    cold_s = report["cold_s"]
    warm_s = report.get("warm_s", 0.0)
    wall = cold_s + warm_s
    # Pool workers run side by side, so a pool of N workers spends up to
    # N worker-seconds per wall second; the runner's own cache and
    # manifest work then overlaps the pool and adds no wall time.
    share = 1.0 / jobs
    cell_layers = {
        "workloads.gen_s": seconds["workloads.make"]
        + seconds["workloads.batch"] + seconds["workloads.txn"],
        "trace.derive_s": seconds["trace.derive"],
        "sim.init_s": seconds["sim.init"] + seconds["sim.simulate"],
        "sim.kernel_s": seconds["sim.kernel"],
        "sim.loop_s": seconds["sim.loop"],
        "sched.slice_s": seconds["sched.slice"],
        "analysis.overlap_s": seconds["analysis.overlap"],
        "core.fptable_s": seconds["core.fptable"],
    }
    runner_layers = {
        f"{name}_s": runner["spans"].get(name, [0.0])[0]
        for name in ("exp.cache_get", "exp.cache_put", "exp.manifest")}
    runner_share = 0.0 if jobs > 1 else 1.0
    runner_self = cold_s - (sum(cell_layers.values()) * share
                            + sum(runner_layers.values()) * runner_share)
    events = counts["sim.events"]
    kernel_calls = calls["sim.kernel"]
    slices = calls["sched.slice"]
    entries = [e for e in report["entries"] if not e["hit"]]
    metrics = dict(cell_layers)
    metrics.update(runner_layers)
    metrics.update({
        "workloads.trace_sets": calls["workloads.make"],
        "workloads.txns": calls["workloads.txn"],
        "trace.derive_builds": calls["trace.derive"],
        "sim.kernel_calls": kernel_calls,
        "sim.events": events,
        "sim.ns_per_event": (cell_layers["sim.kernel_s"] * 1e9 / events
                             if events else 0.0),
        "sim.events_per_s": (events / inclusive["sim.simulate"]
                             if events else 0.0),
        "sched.slices": slices,
        "sched.calls_per_slice": kernel_calls / slices if slices else 0.0,
        "exp.cell_p50_s": statistics.median(e["wall_s"] for e in entries),
        "exp.put_bytes": runner["counts"].get("exp.put_bytes", 0),
        "exp.cache_hits": report["cold_hits"] + report.get("warm_hits", 0),
        "exp.retries": sum(e["attempts"] - 1 for e in entries),
        "exp.hit_pass_s": warm_s,
        "exp.runner_self_s": runner_self,
        "obs.overhead_frac": wall / slowdown / untraced_wall - 1,
    })
    rows = [(name, metrics[name], metrics[name] * share)
            for name in cell_layers]
    rows += [(name, metrics[name], metrics[name] * runner_share)
             for name in runner_layers]
    rows += [("exp.hit_pass_s", warm_s, warm_s),
             ("exp.runner_self_s", runner_self, runner_self)]
    lines = [f"layer table (traced wall {wall:.3f} s; {jobs} worker(s): "
             f"worker seconds count {share:g} per wall second"
             + ("; the runner's cache and manifest work overlaps the "
                "pool" if jobs > 1 else "") + ")",
             f"  {'layer':<22}{'process s':>12}{'wall s':>10}{'share':>8}"]
    for name, process_s, wall_s in rows:
        lines.append(f"  {name:<22}{process_s:>12.3f}{wall_s:>10.3f}"
                     f"{100 * wall_s / wall:>7.1f}%")
    named = wall - runner_self
    lines.append(
        f"  named layers account for {named:.3f} s of {wall:.3f} s "
        f"({100 * named / wall:.1f}%, "
        + ("within" if abs(runner_self) <= 0.05 * wall else "NOT within")
        + " 5%); exp.runner_self_s is the rest: runner bookkeeping, "
        "pool IPC and waiting")
    lines.append(f"  obs.overhead_frac {metrics['obs.overhead_frac']:+.4f}"
                 f" (traced {wall / slowdown:.3f} s vs untraced median "
                 f"{untraced_wall:.3f} s, both calibrated)")
    return metrics, lines


def _plan(out: Path, cells, workload=None) -> Path:
    """Write a campaign's generated inputs into ``out``."""
    out.mkdir(parents=True)
    (out / "plan.json").write_text(json.dumps({
        "cells": [spec.to_dict() for spec in cells],
        "jobs": workload.jobs if workload else 1,
        "warm_pass": workload.warm_pass if workload else False,
    }))
    return out


def _measure(workload, args, work: Path, checker: "Checker") -> dict:
    """Run every campaign of one benchmark run and check its outputs."""
    from grids import PINNED_SEEDS, spot_checks
    from repro.exp import Cell, RunSpec

    started = time.monotonic()
    deadline = started + HARD_DEADLINE_S
    # A serial campaign runs on one CPU, so pin it there with its
    # probes; a pool spreads over all of them.
    cpus = sorted(os.sched_getaffinity(0))
    if workload.jobs == 1:
        cpus = cpus[-1:]
    first_cells = workload.build(args.seed, 0)
    setups = []
    passes = []
    while True:
        k = len(passes)
        cells = workload.build(args.seed, k) if k else first_cells
        if not args.trace:
            # One more set-up sample per pass, spread over the run.
            out = _plan(work / f"setup-{k}", cells, workload)
            report, _, spawned, _, slowdown = _spawn(
                ["--setup-only"], out, deadline, cpus)
            setups.append((report["submitted"] - spawned) / slowdown)
        out = _plan(work / f"pass-{k}", cells, workload)
        report, rusage, spawned, lifetime, slowdown = _spawn(
            [], out, deadline, cpus)
        setups.append((report["submitted"] - spawned) / slowdown)
        passes.append((report, rusage, slowdown))
        used = time.monotonic() - started
        if used + lifetime > min(args.seconds, PASS_BUDGET_S):
            break
    traced = cell_log = traced_slowdown = None
    if args.trace:
        out = _plan(work / "traced", first_cells, workload)
        traced, _, _, _, traced_slowdown = _spawn(["--trace"], out,
                                                  deadline, cpus)
        log = out / "cells.jsonl"
        cell_log = log.read_text().splitlines() if log.is_file() else []

    # Output checks, off the timed path.
    unpinned = [RunSpec.from_dict(c["spec"])
                for report, _, _ in passes
                for c in report.get("cell_vectors", [])
                if c["identity"] not in checker.pins]
    picked = spot_checks(unpinned, args.seed, workload.spot_checks)
    if picked:
        out = _plan(work / "reference", picked)
        reference, _, _, _, _ = _spawn(["--reference"], out, deadline, cpus,
                                    reference=True)
        checker.reference = {c["identity"]: Cell(**c)
                             for c in reference["cells"]}
    pinned_seed = args.seed in PINNED_SEEDS
    for k, (report, _, _) in enumerate(passes):
        checker.check(f"pass {k}", report, pinned_seed and k == 0)
    if traced is not None:
        # Tracing must not change a single simulated number.
        untraced = {c["identity"]: Cell(**c)
                    for c in passes[0][0].get("cell_vectors", [])}
        checker.check("traced pass", traced, pinned_seed, untraced)
    return {"passes": passes, "setups": setups, "traced": traced,
            "traced_slowdown": traced_slowdown, "cell_log": cell_log}


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Cold-campaign benchmark (see module docstring).")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: repro sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    from grids import PAPER_VALUES, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".coldbench" / f"run-{os.getpid()}"
    checker = Checker(workload.name)
    try:
        run = _measure(workload, args, work, checker)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".coldbench").rmdir()
        except OSError:
            pass

    passes = run["passes"]
    good = [(r, ru, slow) for r, ru, slow in passes if "error" not in r]
    raw_walls = [r["cold_s"] + r.get("warm_s", 0.0) for r, _, _ in good]
    slowdowns = [slow for _, _, slow in good]
    walls = [w / slow for w, slow in zip(raw_walls, slowdowns)]
    failed = len(checker.failed)
    attempted = checker.attempted
    first = passes[0][0]
    lines = [f"coldbench {workload.name} seed={args.seed}: "
             f"{len(passes)} pass(es) of {first['cells']} cold cells, "
             f"jobs={workload.jobs}"
             + (", then a warm re-pass" if workload.warm_pass else "")]
    e2e = {}
    if walls:
        e2e = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(
                (ru.ru_utime + ru.ru_stime) / slow for _, ru, slow in good),
            "setup_s": statistics.median(run["setups"]),
            "peak_rss_mb": statistics.median(
                ru.ru_maxrss / 1024 for _, ru, _ in good),
        }
        for name, unit in END_TO_END:
            lines.append(f"  {name:<22}{e2e[name]:>12.4f} {unit}")
        lines.append(f"  {'':<22}(wall per pass: "
                     + ", ".join(f"{w:.3f}" for w in raw_walls)
                     + " s raw; host slowdown "
                     + ", ".join(f"{slow:.3f}" for slow in slowdowns)
                     + f"; {len(run['setups'])} set-up samples)")
    lines.append(f"  {'fail_frac':<22}{failed / attempted:>12.4f} 1"
                 f"   ({failed} of {attempted} cells)")
    sims = simulated_metrics(first.get("cell_vectors", []))
    for name, unit in SIMULATED:
        lines.append(f"  {name:<22}{sims[name]:>12.4f} {unit}"
                     f"   paper: {PAPER_VALUES[name]}")
    lines.append("  simulated metrics are first-pass values of an "
                 "unvalidated model, checked for shape only; the "
                 "modelled caches start empty in every cell")
    lines.append("  checks: " + ", ".join(
        f"{v} {k}" for k, v in sorted(checker.tally.items())))
    lines += [f"  FAILED {note}" for note in checker.notes]

    correct = failed == 0 and len(good) == len(passes)
    metrics = {}
    traced = run["traced"]
    if args.trace and "error" not in traced and walls:
        layer, table = _layer_metrics(traced, run["cell_log"],
                                      workload.jobs,
                                      statistics.median(walls),
                                      run["traced_slowdown"])
        lines += table
        layer.update(simulated_metrics(traced["cell_vectors"]))
        layer.update(_simulated_layers(traced["cell_vectors"]))
        for name, unit in _per_layer_units():
            metrics[name] = {"value": layer[name], "unit": unit}
            lines.append(f"  {name:<28}{layer[name]:>16.6g} {unit}")
    elif not args.trace and e2e:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    if not metrics:
        correct = False
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _simulated_layers(cells) -> dict:
    """Modelled-machine counters of one pass (0 when absent)."""
    runs = [c for c in cells if c["spec"]["mode"] == "mix"]
    out = {}
    for scheduler in ("base", "strex"):
        chosen = [c["metrics"] for c in runs
                  if c["spec"]["scheduler"] == scheduler
                  and c["spec"]["workload"] in ("tpcc", "tpce")]
        for kind in ("i", "d"):
            out[f"cache.l1{kind}_mpki.{scheduler}"] = (
                statistics.fmean(m[f"{kind}_mpki"] for m in chosen)
                if chosen else 0.0)
    for name, field in (("sched.context_switches", "context_switches"),
                        ("sched.migrations", "migrations"),
                        ("cache.l2_misses", "l2_misses"),
                        ("cache.coherence_misses", "coherence_misses"),
                        ("noc.l2_traffic", "l2_traffic")):
        out[name] = sum(c["metrics"][field] for c in runs)
    return out


def _per_layer_units():
    """``(name, unit)`` of every per-layer metric, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


if __name__ == "__main__":
    sys.exit(main())
