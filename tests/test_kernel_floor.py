"""Differential tests for kernel paths the scheduler matrix reaches
only by chance.

* STREX's forward-progress floor runs inside the kernel
  (``run_events(..., min_progress=N)``).  One call must leave the
  engine exactly where the old scheduler-side loop left it -- one
  ``run_events`` call per absorbed switch, re-entered until the floor
  is met -- on every kernel: the age loop (LRU), the inlined-L1 loop
  (SRRIP) and the reference loop.
* The age loop's scalar L2 path: an L2 hit, a fill into a set with a
  free way, and an eviction that fires the slice's victim callback.
"""

import dataclasses

import pytest

from repro.config import CacheConfig, tiny_scale
from repro.fastpath import ENV_VAR
from repro.sim.api import SCHEDULERS
from repro.sim.engine import SimulationEngine
from repro.trace.trace import TransactionTrace

#: (L1 replacement policy, reference kernel?) -- LRU selects the age
#: loop on the fast path, SRRIP the inlined-L1 loop.
KERNELS = [("lru", False), ("srrip", False), ("lru", True),
           ("srrip", True)]

#: Every event after the first two evicts a block from L1-I set 0
#: (two ways), so each one requests a switch.  Every fifth event also
#: touches data.
TRACE_EVENTS = 40


def _trace() -> TransactionTrace:
    iblocks = [2 * i for i in range(TRACE_EVENTS)]
    ilens = [1 + i % 3 for i in range(TRACE_EVENTS)]
    dblocks = [1000 + i if i % 5 == 0 else -1
               for i in range(TRACE_EVENTS)]
    dwrites = [i % 2 for i in range(TRACE_EVENTS)]
    return TransactionTrace(0, "T", iblocks, ilens, dblocks, dwrites)


def _engine(monkeypatch, policy: str, reference: bool,
            **cache_sizes) -> SimulationEngine:
    if reference:
        monkeypatch.setenv(ENV_VAR, "1")
    else:
        monkeypatch.delenv(ENV_VAR, raising=False)
    config = tiny_scale(num_cores=2)
    config = dataclasses.replace(
        config,
        l1i=CacheConfig(cache_sizes.get("l1i", 256), assoc=2,
                        replacement=policy),
        l1d=dataclasses.replace(config.l1d, replacement=policy),
        l2_slice=CacheConfig(cache_sizes.get("l2", 32 * 1024), assoc=2,
                             hit_latency=16, replacement=policy),
    )
    engine = SimulationEngine(config, [_trace()], SCHEDULERS["base"])
    monkeypatch.delenv(ENV_VAR, raising=False)
    return engine


def _state(engine: SimulationEngine, executed: int) -> dict:
    hier = engine.hier
    thread = engine.threads[0]
    l1i = hier.l1i[0]
    return {
        "executed": executed,
        "pos": thread.pos,
        "core_time": list(engine.core_time),
        "switch_requested": engine.switch_requested,
        "instructions": (engine.total_instructions,
                         thread.instructions_done),
        "l1i": l1i.stats.snapshot(),
        "l1i_tags": {b: l1i.tag_of(b) for b in l1i.resident_blocks()},
        "l1d": hier.l1d[0].stats.snapshot(),
        "l2": [c.stats.snapshot() for c in hier.l2],
        "hier": hier.snapshot(),
        "noc": (hier.noc.messages, hier.noc.total_hops),
    }


def _slice(monkeypatch, policy, reference, *, start, max_events,
           min_progress, in_kernel):
    """Run one STREX-style slice from event ``start``; returns the
    engine's state afterwards."""
    engine = _engine(monkeypatch, policy, reference)
    thread = engine.threads[0]
    if start:
        engine.run_events(0, thread, start)
    engine.hier.set_victim_callback(
        0, lambda block, tag: setattr(engine, "switch_requested", True))
    engine.switch_requested = False
    if in_kernel:
        executed = engine.run_events(
            0, thread, max_events, tag=1, stop_on_switch=True,
            min_progress=min_progress)
    else:
        executed = 0
        while True:
            executed += engine.run_events(
                0, thread, max_events, tag=1, stop_on_switch=True)
            if thread.finished or not engine.switch_requested:
                break
            if executed >= min_progress:
                break
            engine.switch_requested = False
    return _state(engine, executed)


def _floor_parity(monkeypatch, **slice_args) -> list:
    """The slice on every kernel, in-kernel floor and re-entry loop
    alike.  Per policy, the fast and reference kernels must agree
    with each other and with the re-entry loop; returns one state per
    policy."""
    by_policy = {}
    for policy, reference in KERNELS:
        for in_kernel in (True, False):
            by_policy.setdefault(policy, []).append(_slice(
                monkeypatch, policy, reference, in_kernel=in_kernel,
                **slice_args))
    for states in by_policy.values():
        for state in states[1:]:
            assert state == states[0]
    return [states[0] for states in by_policy.values()]


class TestInKernelFloor:
    def test_zero_floor_stops_at_the_first_switch(self, monkeypatch):
        states = _floor_parity(monkeypatch, start=0, max_events=100,
                               min_progress=0)
        for state in states:
            # Events 0 and 1 fill set 0; event 2 evicts.
            assert state["executed"] == 3
            assert state["switch_requested"] is True

    def test_switch_on_the_last_event_of_a_budget(self, monkeypatch):
        # The first switch lands on event 2, the budget's last; the
        # floor absorbs it and grants a fresh budget.
        states = _floor_parity(monkeypatch, start=0, max_events=3,
                               min_progress=10)
        for state in states:
            assert state["executed"] == 10
            assert state["switch_requested"] is True

    def test_budget_exhausted_without_a_switch(self, monkeypatch):
        states = _floor_parity(monkeypatch, start=0, max_events=2,
                               min_progress=10)
        for state in states:
            assert state["executed"] == 2
            assert state["switch_requested"] is False

    def test_thread_finishes_under_the_floor(self, monkeypatch):
        states = _floor_parity(monkeypatch, start=TRACE_EVENTS - 5,
                               max_events=3, min_progress=50)
        for state in states:
            assert state["pos"] == TRACE_EVENTS
            assert state["executed"] == 5

    def test_floor_longer_than_the_trace(self, monkeypatch):
        states = _floor_parity(monkeypatch, start=0, max_events=7,
                               min_progress=10 * TRACE_EVENTS)
        for state in states:
            assert state["pos"] == TRACE_EVENTS
            assert state["executed"] == TRACE_EVENTS
            # The last event's switch request survives the finish, as
            # it did when the scheduler re-entered the kernel.
            assert state["switch_requested"] is True


#: L1-I block walk for the L2 test: a 6-block loop, a widening walk
#: past the L2's capacity, and the loop again.
_L2_LOOP = list(range(6))
_L2_WALK = _L2_LOOP * 3 + list(range(6, 30)) + _L2_LOOP


def _l2_run(monkeypatch, reference: bool, monitored: bool):
    # The 4-block L1-I (2 sets x 2 ways) misses on every event of the
    # 6-block loop, so every event reaches the L2.  Its two
    # 8-block slices (4 sets x 2 ways) first fill free ways, then hit,
    # then evict once the walk widens past their capacity.
    engine = _engine(monkeypatch, "lru", reference, l1i=256, l2=512)
    assert engine._age_kernel is not reference
    iblocks = _L2_WALK
    trace = TransactionTrace(
        0, "T", iblocks, [2] * len(iblocks), [-1] * len(iblocks),
        [0] * len(iblocks))
    engine.threads[0].trace = trace
    victims = []
    for sid, cache in enumerate(engine.hier.l2):
        cache.victim_callback = (
            lambda block, tag, sid=sid: victims.append((sid, block, tag)))
    if engine._age_kernel:
        # The age loop's statics bundle captures the L2 callbacks.
        engine._age_statics = engine._build_age_statics()
    executed = engine.run_events(0, engine.threads[0], len(iblocks),
                                 stop_on_switch=monitored)
    return _state(engine, executed), victims


class TestAgeLoopL2Path:
    @pytest.mark.parametrize("monitored", (False, True))
    def test_l2_hit_fill_and_evict_match_the_reference(self,
                                                       monkeypatch,
                                                       monitored):
        fast, fast_victims = _l2_run(monkeypatch, False, monitored)
        ref, ref_victims = _l2_run(monkeypatch, True, monitored)
        assert fast == ref
        assert fast_victims == ref_victims
        l2 = fast["l2"]
        assert sum(s["hits"] for s in l2) > 0
        assert sum(s["misses"] for s in l2) > 0
        assert sum(s["evictions"] for s in l2) > 0
        assert fast["executed"] == len(_L2_WALK)


def test_one_kernel_call_per_strex_slice(monkeypatch):
    """The progress floor no longer re-enters the kernel: every STREX
    slice is exactly one monitored ``run_events`` call."""
    from repro.workloads import WORKLOADS

    monkeypatch.delenv(ENV_VAR, raising=False)
    config = tiny_scale()
    suite = WORKLOADS["tpcc"](config.l1i_blocks, 7)
    traces = suite.generate_mix(6, seed=7)
    engine = SimulationEngine(config, traces, SCHEDULERS["strex"])
    calls = []
    slices = []
    run_events = engine.run_events
    run_slice = engine.scheduler.run_slice

    def counted_events(*args, **kwargs):
        calls.append(kwargs)
        return run_events(*args, **kwargs)

    def counted_slice(core):
        slices.append(core)
        return run_slice(core)

    engine.run_events = counted_events
    engine.scheduler.run_slice = counted_slice
    engine.run("tpcc")
    assert slices
    assert len(calls) == len(slices)
    assert all(kwargs["stop_on_switch"] for kwargs in calls)
    assert all(kwargs["min_progress"] == engine.scheduler.min_progress
               for kwargs in calls)
    assert engine.scheduler.context_switches > 0


def _reentry_kernel(engine: SimulationEngine) -> None:
    """Swap in the floor as the scheduler used to run it: one kernel
    call per absorbed switch, re-entered until the floor is met."""
    kernel = engine.run_events

    def run_events(core, thread, max_events, min_progress=0, **kwargs):
        executed = 0
        while True:
            executed += kernel(core, thread, max_events, **kwargs)
            if not kwargs.get("stop_on_switch") or thread.finished \
                    or not engine.switch_requested:
                break
            if executed >= min_progress:
                break
            engine.switch_requested = False
        return executed

    engine.run_events = run_events


@pytest.mark.parametrize("scheduler", ("strex", "hybrid"))
@pytest.mark.parametrize("policy,reference", KERNELS)
def test_whole_runs_match_the_reentry_floor(monkeypatch, scheduler,
                                            policy, reference):
    from repro.workloads import WORKLOADS

    if reference:
        monkeypatch.setenv(ENV_VAR, "1")
    config = tiny_scale().with_l1_replacement(policy)
    suite = WORKLOADS["tpcc"](config.l1i_blocks, 5)
    traces = suite.generate_mix(8, seed=5)
    results = []
    for reentry in (False, True):
        engine = SimulationEngine(config, traces, SCHEDULERS[scheduler])
        if reentry:
            _reentry_kernel(engine)
        results.append(engine.run("tpcc").to_dict())
    assert results[0] == results[1]
    assert results[0]["context_switches"] > 0
