"""Whole-run invariants that outlived the batch replay layer.

The batch record/replay and hit-run fast-forward machinery is gone; the
fast kernel is now the only non-reference path.  What its tests pinned
beyond the replay registry still holds and is kept here:

* repeated runs serialize to the same :func:`result_blob` under every
  scheduler, and match the reference kernel (``REPRO_SIM_REFERENCE=1``),
  which never batched or fast-forwarded;
* an out-of-band L1-I flush in the middle of a run leaves fast and
  reference kernels in agreement;
* :meth:`TransactionTrace.run_tables`, which the cold-campaign layer
  benchmark still wraps by name, builds the same spans as before.
"""

import pytest

from repro.config import tiny_scale
from repro.exp.diff import result_blob
from repro.fastpath import CHECK_ENV, ENV_VAR
from repro.sim.api import SCHEDULERS, simulate
from repro.sim.engine import SimulationEngine
from repro.trace.trace import RUN_MIN_EVENTS, TransactionTrace
from repro.workloads import WORKLOADS


@pytest.fixture(autouse=True)
def clean_slate(monkeypatch):
    """Unset kernel-mode flags for every test."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    monkeypatch.delenv(CHECK_ENV, raising=False)


def _mix(transactions=8, seed=7, cores=2):
    config = tiny_scale(num_cores=cores)
    suite = WORKLOADS["tpcc"](config.l1i_blocks, seed)
    return config, suite.generate_mix(transactions, seed=seed)


class TestRecordReplayDifferential:
    @pytest.mark.parametrize(
        "scheduler", ("base", "strex", "slicc", "hybrid", "smt"))
    def test_every_scheduler_matches_nobatch(self, monkeypatch,
                                             scheduler):
        """Three fast-kernel runs and one reference-kernel run of the
        same traces serialize to the same bytes."""
        config, traces = _mix()
        blobs = {
            result_blob(simulate(config, traces, scheduler, "tpcc"))
            for _ in range(3)
        }
        monkeypatch.setenv(ENV_VAR, "1")
        try:
            blobs.add(result_blob(
                simulate(config, traces, scheduler, "tpcc")))
        finally:
            monkeypatch.delenv(ENV_VAR)
        assert len(blobs) == 1


class TestFastForwardInvalidation:
    def test_results_unchanged_by_mid_run_flush(self, monkeypatch):
        """Flush the L1-I mid-simulation: the fast kernel must see the
        emptied cache exactly as the reference kernel does."""

        def drive(reference):
            if reference:
                monkeypatch.setenv(ENV_VAR, "1")
            else:
                monkeypatch.delenv(ENV_VAR, raising=False)
            config, traces = _mix(transactions=4)
            engine = SimulationEngine(
                config, traces, SCHEDULERS["base"])
            thread = engine.threads[0]
            slices = 0
            while thread.pos < len(thread.trace):
                engine.run_events(0, thread, 200)
                slices += 1
                if slices == 3:
                    engine.hier.l1i[0].flush()
            stats = engine.hier.l1i[0].stats
            return (engine.core_time[0], stats.hits, stats.misses,
                    thread.instructions_done)

        assert drive(reference=False) == drive(reference=True)


class TestRunTables:
    def test_spans_and_metadata(self):
        # Events 0-3 are instruction-only (a minimal run); event 4
        # carries data; event 5 is a too-short singleton span.
        trace = TransactionTrace(
            1, "X",
            [1, 2, 3, 4, 5, 6],
            [1, 2, 1, 2, 1, 1],
            [-1, -1, -1, -1, 9, -1],
            [0, 0, 0, 0, 1, 0],
        )
        tables = trace.run_tables(0.5, 4)
        assert tables is not None
        next_ff, runs = tables
        assert list(runs) == [0]
        rend, icycles, distinct, last_offs, n_run, run_sets = runs[0]
        assert rend == 4
        assert icycles == [0.5, 1.0, 0.5, 1.0]
        assert distinct == (1, 2, 3, 4)
        assert last_offs == [0, 1, 2, 3]
        assert n_run == 4
        assert run_sets == (1, 2, 3, 0)
        assert next_ff == [0, 6, 6, 6, 6, 6, 6]

    def test_repeated_blocks_keep_last_offset(self):
        trace = TransactionTrace(
            1, "X",
            [7, 8, 7, 8, 7],
            [1] * 5,
            [-1] * 5,
            [0] * 5,
        )
        _, runs = trace.run_tables(1.0, 4)
        rend, _, distinct, last_offs, n_run, run_sets = runs[0]
        assert rend == 5
        assert distinct == (7, 8)
        assert last_offs == [4, 3]
        assert n_run == 5
        assert run_sets == (3, 0)

    def test_short_spans_yield_no_tables(self):
        n = RUN_MIN_EVENTS - 1
        trace = TransactionTrace(
            1, "X",
            list(range(n)) + [99],
            [1] * (n + 1),
            [-1] * n + [5],
            [0] * (n + 1),
        )
        assert trace.run_tables(1.0, 4) is None

    def test_memoized_per_parameters(self):
        trace = TransactionTrace(
            1, "X", [1, 2, 3, 4], [1] * 4, [-1] * 4, [0] * 4)
        assert trace.run_tables(1.0, 4) is trace.run_tables(1.0, 4)
        assert trace.run_tables(1.0, 4) is not trace.run_tables(2.0, 4)
