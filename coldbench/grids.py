"""The benchmark's workloads: cold figure campaigns through ``repro.exp``.

Each workload is a list of :class:`repro.exp.RunSpec` cells built from
the run seed and a pass index.  The cell seeds are drawn from both, so
every pass of a run is a distinct cold campaign and the same
``(seed, pass)`` always yields the same cells.  The modelled caches
start empty in every cell: each cell is one independent simulation or
analysis, with no warm-up phase.

The workload reasons (kept with ``BENCHMARK.json``'s ``why`` lines):

* ``fig-cold`` -- the Fig. 5/6 grid (tpcc, tpce, mapreduce x all five
  schedulers x 2 seeds, default scale, 4 cores) run serially: 30
  cells.  The
  ``sim`` kernel does most of the work here, through every scheduler
  path, and mapreduce's footprint fits the L1-I, so the all-hit regime
  is in the mix.  A 2-job run of this grid spread far wider than the
  serial one on a 2-core host.
* ``strex-paper`` -- paper scale (32 KiB L1), tpcc, 4 cores: base,
  STREX team 4 and STREX team 16, serially: 3 cells.  Each STREX cell makes
  hundreds of thousands of short ``run_events`` calls, so this is where
  ``sched``/``sim`` dispatch dominates, and its host working set is
  several times ``fig-cold``'s.
* ``analysis-cold`` -- the Fig. 2 overlap cells (tpcc NewOrder and
  Payment, 16 concurrent traces) and the Table 3 fptable cells (tpcc,
  tpce, tpcc10) x 6 seeds, 30 cells on a 2-job pool, then a warm
  re-pass of the same grid.  The simulation kernel does no work here:
  trace generation, the ``repro.cache.Cache`` API, the process pool and
  ``ResultCache`` reads and writes carry the run, so kernel changes
  must leave it unchanged.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.exp import RunSpec, SweepSpec
from repro.workloads import MapReduceWorkload, TpccWorkload, TpceWorkload

WORKLOAD_CLASSES = {"tpcc": TpccWorkload, "tpce": TpceWorkload,
                    "mapreduce": MapReduceWorkload}

#: Run seed the benchmark uses when none is given, and the seed held
#: out from every tuning run.  Both have pinned outputs in ``pins/``.
DEFAULT_SEED = 0
HELD_OUT_SEED = 1
PINNED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)

#: The paper's headline values (EXPERIMENTS.md) printed beside the
#: simulated metrics.  The model is checked for shape only.
PAPER_VALUES = {
    "sim.strex_speedup": "STREX throughput +35..55% over base",
    "sim.strex_impki_cut": "STREX L1-I misses -37% vs base",
    "sim.overlap_ge5": ">70% of blocks in >=5 caches",
}


#: Transactions per simulated cell: 5 per core at 4 cores, so that a
#: campaign pass takes about 10 s and several passes fit in one run.
TRANSACTIONS = 20


def cell_seeds(workload: str, seed: int, pass_index: int,
               count: int) -> List[int]:
    """``count`` distinct cell seeds for one pass of one run."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    return rng.sample(range(1, 2 ** 31), count)


def stratified_mix_seed(workload: str, cell_seed: int,
                        transactions: int) -> int:
    """A mix seed whose batch holds each transaction type exactly in
    the mix's proportions (largest-remainder rounding).

    A 20-transaction TPC-C batch draws its 4%-share types 0 to 4 times
    each, which moves a campaign's simulated work by about 12% between
    seeds.  Drawing the batch's content at random but its composition
    to the mix's proportions keeps every run the same amount of work.
    The candidate draw replays ``Workload.generate_mix``: one weighted
    type choice, then one instance seed, per transaction.
    """
    weights = list(WORKLOAD_CLASSES[workload].MIX.values())
    # ``choices`` with cumulative weights draws exactly as with weights.
    cumulative = list(itertools.accumulate(weights))
    quotas = [transactions * w / cumulative[-1] for w in weights]
    target = [int(q) for q in quotas]
    by_remainder = sorted(range(len(quotas)),
                          key=lambda i: target[i] - quotas[i])
    for i in by_remainder[:transactions - sum(target)]:
        target[i] += 1
    types = range(len(weights))
    rng = random.Random(f"mix/{workload}/{cell_seed}")
    while True:
        candidate = rng.randrange(1, 2 ** 31)
        draw = random.Random(candidate)
        counts = [0] * len(weights)
        for _ in range(transactions):
            counts[draw.choices(types, cum_weights=cumulative)[0]] += 1
            draw.randrange(2 ** 31)
        if counts == target:
            return candidate


def _mix_cells(workloads: Sequence[str], seeds: Sequence[int],
               transactions: int, **axes) -> List[RunSpec]:
    """A mix grid whose every (workload, seed) batch is stratified."""
    cells = []
    for workload in workloads:
        for seed in seeds:
            cells += SweepSpec(
                workloads=(workload,), seeds=(seed,),
                transactions=transactions,
                mix_seed=stratified_mix_seed(workload, seed,
                                             transactions),
                **axes).expand()
    return cells


def _fig_cold(seed: int, pass_index: int) -> List[RunSpec]:
    return _mix_cells(
        ("tpcc", "tpce", "mapreduce"),
        cell_seeds("fig-cold", seed, pass_index, 2), TRANSACTIONS,
        schedulers=("base", "strex", "slicc", "hybrid", "smt"),
        cores=(4,), scales=("default",))


def _strex_paper(seed: int, pass_index: int) -> List[RunSpec]:
    return _mix_cells(
        ("tpcc",), cell_seeds("strex-paper", seed, pass_index, 1),
        TRANSACTIONS,
        schedulers=("base", "strex"), cores=(4,), team_sizes=(4, 16),
        scales=("paper",))


def _analysis_cold(seed: int, pass_index: int) -> List[RunSpec]:
    seeds = tuple(cell_seeds("analysis-cold", seed, pass_index, 6))
    overlap = SweepSpec(
        workloads=("tpcc",),
        cores=(16,),
        txn_types=("NewOrder", "Payment"),
        seeds=seeds,
        transactions=16,
        mode="overlap",
    ).expand()
    fptable = SweepSpec(
        workloads=("tpcc", "tpce", "tpcc10"),
        cores=(4,),
        seeds=seeds,
        transactions=5,
        mode="fptable",
    ).expand()
    return overlap + fptable


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the name ``--workload`` selects.
        build: ``build(seed, pass_index) -> cells``.
        jobs: ``Runner`` worker processes (``1`` runs in-process).
        warm_pass: re-run the grid against the now-full cache.
        spot_checks: cells per run re-run on the reference kernel,
            drawn from the cells without pins.
    """

    name: str
    build: Callable[[int, int], List[RunSpec]]
    jobs: int
    warm_pass: bool
    spot_checks: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("fig-cold", _fig_cold, jobs=1, warm_pass=False,
                 spot_checks=3),
        # A reference re-run of a paper-scale cell costs as much as the
        # cell itself, so this workload relies on its pins and on the
        # cross-cell consistency checks.
        Workload("strex-paper", _strex_paper, jobs=1, warm_pass=False,
                 spot_checks=0),
        Workload("analysis-cold", _analysis_cold, jobs=2,
                 warm_pass=True, spot_checks=2),
    )
}


def spot_checks(cells: Sequence[RunSpec], seed: int,
                count: int) -> List[RunSpec]:
    """Which cells of a run to re-run on the reference kernel."""
    rng = random.Random(f"spot/{seed}")
    return rng.sample(list(cells), min(count, len(cells)))
