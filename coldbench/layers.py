"""Layer tracing for the benchmark's traced run.

:class:`LayerTrace` wraps the public entry points of each repro layer
from outside the package (nothing under ``src/`` changes) and keeps
per-layer *self* seconds: a wrapped call's time minus the time of the
wrapped calls it made.  Wrappers are installed before the runner's
pool forks, so pool workers inherit them; each executed cell appends
its layer totals to a JSON-lines file, which the campaign process sums
after the pass.

Entry points, by span name:

* ``workloads.make`` / ``workloads.batch`` / ``workloads.txn`` --
  ``make_workload`` and ``Workload.generate_mix`` /
  ``generate_uniform`` / ``generate_trace`` (with ``repro.db``);
* ``trace.derive`` -- the memoized derived views ``packed_events``,
  ``iblock_set_indices``, ``instruction_prefix`` and ``run_tables``.
  Only the first call per ``(trace, args)`` is timed: the engine calls
  ``packed_events`` millions of times per campaign and every later
  call is a memo hit;
* ``sim.simulate`` / ``sim.init`` / ``sim.loop`` / ``sim.kernel`` --
  ``simulate``, ``SimulationEngine`` construction, its event-heap loop
  (``run``) and the ``run_events`` kernel;
* ``sched.slice`` -- ``run_slice`` of every scheduler;
* ``analysis.overlap`` / ``core.fptable`` -- ``OverlapAnalysis.run``
  and ``profile_fptable``;
* ``exp.cache_get`` / ``exp.cache_put`` / ``exp.manifest`` --
  ``ResultCache.get`` / ``put`` and ``Manifest.record``, in the
  runner's own process.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict

#: ``TransactionTrace`` views memoized per ``(trace, args)``.
_DERIVED_VIEWS = ("packed_events", "iblock_set_indices",
                  "instruction_prefix", "run_tables")


class LayerTrace:
    """Self-time and call-count accounting for one process.

    Args:
        cell_log: JSON-lines file each executed cell appends its layer
            totals to (shared by the runner and its pool workers).
    """

    def __init__(self, cell_log: Path):
        self.cell_log = Path(cell_log)
        #: ``[self seconds, calls, inclusive seconds]`` by span name.
        self.spans: Dict[str, list] = {}
        #: Event and byte counts taken at span boundaries.
        self.counts: Dict[str, int] = defaultdict(int)
        # Child time of every open wrapped call; index 0 is the root.
        self._stack = [0.0]

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` with its calls, self time and inclusive time added to
        span ``name``.  The kernel goes through here hundreds of
        thousands of times per cell, so the wrapper stays minimal."""
        stack = self._stack
        acc = self.spans.setdefault(name, [0.0, 0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                acc[0] += elapsed - stack.pop()
                acc[1] += 1
                acc[2] += elapsed
                stack[-1] += elapsed
        return wrapper

    def _derived_view(self, fn: Callable) -> Callable:
        """Time only the first call of a memoized view per
        ``(trace, args)``; later calls pass straight through."""
        timed = self.timed("trace.derive", fn)
        # Traces hash by identity; holding them keeps ids unique.
        seen: set = set()

        @functools.wraps(fn)
        def wrapper(trace, *args):
            key = (trace, args)
            if key in seen:
                return fn(trace, *args)
            seen.add(key)
            return timed(trace, *args)
        return wrapper

    def _engine_run(self, fn: Callable) -> Callable:
        """Wrap ``SimulationEngine.run``: time it, count its events."""
        timed = self.timed("sim.loop", fn)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(engine, *args, **kwargs):
            result = timed(engine, *args, **kwargs)
            counts["sim.events"] += sum(t.pos for t in engine.threads)
            return result
        return wrapper

    def _put(self, fn: Callable) -> Callable:
        """Wrap ``ResultCache.put``: time it and count bytes written."""
        timed = self.timed("exp.cache_put", fn)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            path = timed(*args, **kwargs)
            counts["exp.put_bytes"] += Path(path).stat().st_size
            return path
        return wrapper

    def snapshot(self) -> dict:
        """Span and count totals so far, as plain JSON data."""
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts)}

    def _cell(self, fn: Callable) -> Callable:
        """Wrap ``execute_spec``: log the cell's layer totals."""
        log = self.cell_log

        @functools.wraps(fn)
        def wrapper(spec):
            before = self.snapshot()
            start = perf_counter()
            result = fn(spec)
            wall = perf_counter() - start
            after = self.snapshot()
            spans = {}
            for name, (self_s, calls, incl) in after["spans"].items():
                old = before["spans"].get(name, [0.0, 0, 0.0])
                if calls != old[1]:
                    spans[name] = [self_s - old[0], calls - old[1],
                                   incl - old[2]]
            counts = {k: v - before["counts"].get(k, 0)
                      for k, v in after["counts"].items()}
            with open(log, "a") as handle:
                handle.write(json.dumps({
                    "pid": os.getpid(), "cell": spec.describe(),
                    "wall_s": wall, "spans": spans,
                    "counts": counts}) + "\n")
            return result
        return wrapper

    def install(self) -> None:
        """Patch every layer's entry points in this process.

        Call before the runner creates its pool: forked workers
        inherit the patched classes and module attributes.
        """
        from repro.analysis.overlap import OverlapAnalysis
        from repro.exp import runner
        from repro.exp.cache import ResultCache
        from repro.exp.manifest import Manifest
        from repro.sched.hybrid import HybridScheduler
        from repro.sim.api import SCHEDULERS
        from repro.sim.engine import SimulationEngine
        from repro.trace.trace import TransactionTrace
        from repro.workloads.base import Workload

        def patch(owner, attr: str, wrap: Callable) -> None:
            setattr(owner, attr, wrap(getattr(owner, attr)))

        def span(name: str) -> Callable:
            return lambda fn: self.timed(name, fn)

        patch(runner, "execute_spec", self._cell)
        patch(runner, "make_workload", span("workloads.make"))
        patch(Workload, "generate_mix", span("workloads.batch"))
        patch(Workload, "generate_uniform", span("workloads.batch"))
        patch(Workload, "generate_trace", span("workloads.txn"))
        for method in _DERIVED_VIEWS:
            patch(TransactionTrace, method, self._derived_view)
        patch(runner, "simulate", span("sim.simulate"))
        patch(SimulationEngine, "__init__", span("sim.init"))
        patch(SimulationEngine, "run", self._engine_run)
        patch(SimulationEngine, "run_events", span("sim.kernel"))
        # The hybrid scheduler's run_slice only delegates to STREX's or
        # SLICC's, which are wrapped; wrapping it too would count each
        # of its slices twice.
        for scheduler in set(SCHEDULERS.values()) - {HybridScheduler}:
            if "run_slice" in vars(scheduler):
                patch(scheduler, "run_slice", span("sched.slice"))
        patch(OverlapAnalysis, "run", span("analysis.overlap"))
        patch(runner, "profile_fptable", span("core.fptable"))
        patch(ResultCache, "get", span("exp.cache_get"))
        patch(ResultCache, "put", self._put)
        patch(Manifest, "record", span("exp.manifest"))
