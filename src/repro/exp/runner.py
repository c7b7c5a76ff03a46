"""Parallel experiment runner.

:class:`Runner` fans a list of :class:`~repro.exp.spec.RunSpec`s out
over a ``ProcessPoolExecutor``, with:

* **cache short-circuit** — runs whose key is already in the
  :class:`~repro.exp.cache.ResultCache` never reach a worker;
* **per-run timeout** — enforced *inside* the worker process with a
  real-time interval timer (``SIGALRM``), so a wedged simulation is
  interrupted rather than merely abandoned;
* **bounded retry** — transient failures (a killed worker, a broken
  pool, a timeout) are retried up to ``retries`` times; deterministic
  errors (e.g. a ``ValueError`` from the simulator) fail fast;
* **deterministic ordering** — results are returned positionally
  aligned with the submitted specs regardless of completion order.

``jobs <= 1`` runs everything in-process (no pool), which is also the
fallback the benchmarks use by default so a plain ``pytest`` invocation
stays single-process.  Parallel and serial execution produce identical
results: each run re-derives everything from its spec's seeds.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import uuid
import warnings
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro import obs
from repro.analysis.overlap import OverlapAnalysis, OverlapResult
from repro.core.fptable import FootprintResult, profile_fptable
from repro.core.identical import replicate_instances
from repro.exp.cache import RESULT_TYPES, ResultCache, spec_key
from repro.exp.manifest import Manifest, ManifestEntry
from repro.exp.spec import RunSpec, ShardSpec, SweepSpec, validate_specs
from repro.sim.api import simulate
from repro.workloads import make_workload


class SimTimeoutError(RuntimeError):
    """A run exceeded its per-run wall-clock budget."""


class RunError(RuntimeError):
    """A run failed permanently (retries exhausted or deterministic).

    Attributes:
        spec: the failing :class:`RunSpec`.
        attempts: how many times it was attempted.
    """

    def __init__(self, spec: RunSpec, attempts: int, cause: BaseException):
        super().__init__(
            f"run {spec.describe()} failed after {attempts} "
            f"attempt(s): {cause!r}"
        )
        self.spec = spec
        self.attempts = attempts


#: Per-process memo of generated trace sets.  A sweep typically varies
#: schedulers/cores/overrides over few distinct workload settings, so
#: each worker regenerates the same traces over and over without this.
#: Bounded LRU: trace sets are a few MB each at default scale.
_TRACE_MEMO: "OrderedDict[tuple, tuple]" = OrderedDict()
_TRACE_MEMO_MAX = 32

#: Per-process memo tallies.  The sweep service reads these through
#: :func:`trace_memo_stats` to report how warm each long-lived worker
#: actually is (a cold worker regenerates traces; a warm one reuses).
_TRACE_MEMO_STATS = {"hits": 0, "misses": 0}


def trace_memo_stats() -> Dict[str, int]:
    """Snapshot of this process's trace-memo hit/miss counters."""
    return dict(_TRACE_MEMO_STATS)


def _workload_traces(spec: RunSpec, l1i_blocks: int) -> Tuple[str, list]:
    """``(workload_name, traces)`` for a spec, memoized per process.

    Trace generation is a pure function of the key fields (workload
    suite, L1-I geometry, seeds, mode, type, counts), so sharing one
    trace set across a sweep's cells is safe: traces are immutable by
    convention and the engine's derived-view memos
    (:meth:`~repro.trace.trace.TransactionTrace.packed_events`) stay
    warm across cells as a bonus.
    """
    mix_seed = spec.effective_mix_seed()
    key = (spec.workload, l1i_blocks, spec.seed, spec.mode,
           spec.txn_type, spec.transactions, spec.replicas, mix_seed)
    memo = _TRACE_MEMO.get(key)
    if memo is not None:
        _TRACE_MEMO.move_to_end(key)
        _TRACE_MEMO_STATS["hits"] += 1
        return memo
    _TRACE_MEMO_STATS["misses"] += 1
    workload = make_workload(spec.workload, l1i_blocks, spec.seed)
    if spec.mode == "mix":
        traces = workload.generate_mix(spec.transactions, seed=mix_seed)
    elif spec.mode in ("uniform", "overlap"):
        traces = workload.generate_uniform(
            spec.txn_type, spec.transactions, seed=mix_seed)
    elif spec.mode == "identical":
        traces = replicate_instances(
            workload, spec.txn_type, instances=spec.transactions,
            replicas=spec.replicas, seed=mix_seed)
    elif spec.mode == "fptable":
        traces = []
        for type_name in workload.type_names():
            traces += workload.generate_uniform(
                type_name, spec.transactions, seed=mix_seed)
    else:  # pragma: no cover - spec validation rejects unknown modes
        raise ValueError(f"unknown mode {spec.mode!r}")
    memo = (workload.name, traces)
    _TRACE_MEMO[key] = memo
    if len(_TRACE_MEMO) > _TRACE_MEMO_MAX:
        _TRACE_MEMO.popitem(last=False)
    return memo


def execute_spec(spec: RunSpec):
    """Execute one spec end to end (config, workload, traces, run).

    Dispatches on ``spec.mode`` (see :data:`repro.exp.spec.MODES`):
    the simulation modes return a :class:`RunResult`, ``overlap``
    returns an :class:`OverlapResult`, and ``fptable`` a
    :class:`FootprintResult` — every mode's result type is registered
    in :data:`repro.exp.cache.RESULT_TYPES` so it caches identically.
    Trace generation is memoized per process (see
    :func:`_workload_traces`).
    """
    config = spec.build_config()
    workload_name, traces = _workload_traces(spec, config.l1i_blocks)
    if spec.mode == "overlap":
        analysis = OverlapAnalysis(config)
        return OverlapResult(txn_type=spec.txn_type,
                             intervals=analysis.run(traces))
    if spec.mode == "fptable":
        table = profile_fptable(traces, config,
                                samples_per_type=spec.transactions)
        return FootprintResult(units_by_type=table.as_dict())
    return simulate(
        config,
        traces,
        spec.scheduler,
        workload_name,
        prefetcher=spec.prefetcher,
        team_size=spec.team_size,
    )


#: One warning per process when a timeout is requested but cannot be
#: armed (no SIGALRM, or we are not on the main thread — ``signal.
#: signal`` raises ``ValueError`` anywhere else).  The run proceeds
#: without a budget rather than dying on the arming attempt.
_TIMEOUT_UNARMED_WARNED = False


def _worker_run(spec: RunSpec, timeout: Optional[float]):
    """Worker entry point: run one spec under an optional alarm.

    Returns ``(result_dict, result_type, worker_pid, wall_seconds)``.
    The result crosses the process boundary as a plain dict plus its
    registered type name, which doubles as the cache's serialized
    form.

    The alarm is armed only when the platform has ``SIGALRM`` *and*
    this is the process's main thread: signal handlers can only be
    installed there, and the sweep service runs cells inline on a
    worker's executor thread.  When a timeout is requested but cannot
    be armed, the run falls back to no-timeout with a one-time
    warning instead of crashing on ``signal.signal``.
    """
    global _TIMEOUT_UNARMED_WARNED
    start = time.perf_counter()
    use_alarm = (
        timeout is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if timeout is not None and not use_alarm and \
            not _TIMEOUT_UNARMED_WARNED:
        _TIMEOUT_UNARMED_WARNED = True
        warnings.warn(
            "per-run timeout requested but SIGALRM cannot be armed "
            "(not on the main thread or platform lacks SIGALRM); "
            "running without a wall-clock budget",
            RuntimeWarning,
            stacklevel=2,
        )
    if use_alarm:
        def _on_alarm(signum, frame):
            raise SimTimeoutError(
                f"run exceeded {timeout:.3f}s: {spec.describe()}")
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        # One span per executed cell; a timeout or crash still closes
        # it (tagged error=<type>) before the exception propagates to
        # the retry logic, so the sink records where the time went.
        with obs.span(
            "cell",
            spec=spec.describe(),
            workload=spec.workload,
            scheduler=spec.scheduler,
            mode=spec.mode,
            cores=spec.cores,
            seed=spec.seed,
        ):
            result = execute_spec(spec)
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        # Flush this process's metrics delta after every cell: pool
        # workers are long-lived and may be torn down without running
        # exit hooks, and a per-cell delta line is tiny.
        obs.flush()
    return (result.to_dict(), type(result).__name__, os.getpid(),
            time.perf_counter() - start)


#: Failures worth retrying: a worker died, the pool broke, a run timed
#: out, or the OS hiccuped.  Anything else is assumed deterministic
#: (the simulator is a pure function of the spec) and fails fast.
_RETRYABLE = (BrokenProcessPool, SimTimeoutError, OSError, EOFError)


class Runner:
    """Executes specs with caching, parallelism, timeout, and retry.

    Args:
        jobs: worker processes; ``<= 1`` runs in-process.
        cache: result cache, or ``None`` to disable caching entirely.
        manifest: run manifest, or ``None`` to skip manifest logging.
            Defaults to ``manifest.jsonl`` inside the cache root.
        timeout: per-run wall-clock budget in seconds (``None`` = no
            limit).
        retries: extra attempts after a *transient* failure.
        shard: hash-range slice of the sweep to execute
            (:class:`~repro.exp.spec.ShardSpec`), or ``None`` for the
            whole sweep.  Sharding partitions *computation*, not
            reads: a spec outside the shard is still served from the
            cache when possible (reads are free and keep a merged
            cache fully usable), but on a miss it is skipped — no
            execution, no manifest row, a ``None`` hole in the
            positional results — and tallied in :attr:`skipped`.
            Manifest rows of a sharded run carry the shard's ``"i/N"``
            label.

    After each :meth:`run`, :attr:`hits` / :attr:`misses` /
    :attr:`skipped` hold the cache and shard tallies and
    :attr:`entries` the manifest rows of that sweep.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        manifest: Optional[Manifest] = None,
        timeout: Optional[float] = None,
        retries: int = 2,
        shard: Optional[ShardSpec] = None,
    ):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.jobs = max(1, int(jobs))
        self.cache = cache
        if manifest is None and cache is not None:
            manifest = Manifest(cache.root / "manifest.jsonl")
        self.manifest = manifest
        self.timeout = timeout
        self.retries = retries
        self.shard = shard
        self.hits = 0
        self.misses = 0
        self.skipped = 0
        self.entries: List[ManifestEntry] = []
        self._sweep_id = uuid.uuid4().hex[:12]
        self._pool: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, specs: Union[SweepSpec, Iterable[RunSpec]]
            ) -> List:
        """Run every spec; results align positionally with the specs.

        A :class:`SweepSpec` is expanded first (its deterministic
        order *is* the result order).  Each result's type follows its
        spec's mode (``RunResult`` for the simulation modes,
        ``OverlapResult``/``FootprintResult`` for the analysis modes).

        With a :attr:`shard`, only the specs the shard owns (or the
        cache already holds) produce results; the rest stay ``None``
        in the returned list.
        """
        if isinstance(specs, SweepSpec):
            specs = specs.expand()
        specs = list(specs)
        validate_specs(specs)
        self.hits = 0
        self.misses = 0
        self.skipped = 0
        self.entries = []
        # One id per run() call: manifest retention ("keep the last N
        # sweeps") groups rows by it.
        self._sweep_id = uuid.uuid4().hex[:12]

        with obs.span(
            "sweep",
            sweep=self._sweep_id,
            cells=len(specs),
            jobs=self.jobs,
            shard=str(self.shard) if self.shard is not None else None,
        ) as span:
            keys = [spec_key(spec) for spec in specs]
            results: List[Optional[object]] = [None] * len(specs)
            pending: List[int] = []
            for idx, spec in enumerate(specs):
                # ``is not None``: a ResultCache's truthiness is its
                # ``__len__``, a directory glob per cell.
                cached = (
                    self.cache.get(keys[idx])
                    if self.cache is not None else None
                )
                if cached is not None:
                    results[idx] = cached
                    self._record(idx, spec, keys[idx], hit=True,
                                 wall=0.0, worker=None, attempts=0)
                elif self.shard is not None and \
                        not self.shard.selects(keys[idx]):
                    self.skipped += 1
                else:
                    pending.append(idx)

            if pending:
                if self.jobs <= 1 or len(pending) == 1:
                    self._run_serial(specs, keys, pending, results)
                else:
                    self._run_parallel(specs, keys, pending, results)
            if span.armed:
                span.add("hits", self.hits)
                span.add("misses", self.misses)
                span.add("skipped", self.skipped)
                tracer = obs.tracer()
                if tracer is not None:
                    metrics = tracer.metrics
                    metrics.inc("exp.cells.hit", self.hits)
                    metrics.inc("exp.cells.executed", self.misses)
                    metrics.inc("exp.cells.skipped", self.skipped)
                    tracer.flush_metrics()
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Execution strategies
    # ------------------------------------------------------------------
    def _run_serial(self, specs, keys, pending, results) -> None:
        for idx in pending:
            attempts = 0
            while True:
                attempts += 1
                try:
                    payload, rtype, worker, wall = _worker_run(
                        specs[idx], self.timeout)
                except Exception as exc:
                    self._check_attempt(specs[idx], attempts, exc)
                    continue
                break
            self._complete(idx, specs, keys, results, payload, rtype,
                           wall, worker, attempts)

    def _run_parallel(self, specs, keys, pending, results) -> None:
        attempts: Dict[int, int] = {idx: 0 for idx in pending}
        futures = {}
        try:
            for idx in pending:
                futures[self._submit(specs[idx])] = idx
            while futures:
                done, _ = wait(list(futures), return_when=FIRST_COMPLETED)
                for future in done:
                    idx = futures.pop(future)
                    attempts[idx] += 1
                    try:
                        payload, rtype, worker, wall = future.result()
                    except Exception as exc:
                        self._check_attempt(specs[idx], attempts[idx], exc)
                        futures[self._submit(specs[idx])] = idx
                        continue
                    self._complete(idx, specs, keys, results, payload,
                                   rtype, wall, worker, attempts[idx])
        finally:
            self._shutdown_pool()

    def _submit(self, spec: RunSpec):
        """Submit to the pool, replacing it once if it has broken."""
        for _ in range(2):
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            try:
                return self._pool.submit(_worker_run, spec, self.timeout)
            except BrokenProcessPool:
                self._shutdown_pool()
        raise RunError(spec, 0, BrokenProcessPool(
            "worker pool broke twice during submission"))

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _check_attempt(self, spec: RunSpec, attempts: int,
                       exc: BaseException) -> None:
        """Raise :class:`RunError` unless another retry is allowed."""
        retryable = isinstance(exc, _RETRYABLE)
        if not retryable or attempts > self.retries:
            obs.add("failures")
            obs.metric_inc("exp.failures")
            raise RunError(spec, attempts, exc) from exc
        # A retry is about to happen: tally it on the open sweep span
        # and in the process metrics (timeouts separately -- they are
        # the retry cause perf triage cares about most).
        obs.add("retries")
        obs.metric_inc("exp.retries")
        if isinstance(exc, SimTimeoutError):
            obs.add("timeouts")
            obs.metric_inc("exp.timeouts")
        if isinstance(exc, BrokenProcessPool):
            self._shutdown_pool()

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _complete(self, idx, specs, keys, results, payload, rtype,
                  wall, worker, attempts) -> None:
        result = RESULT_TYPES[rtype].from_dict(payload)
        results[idx] = result
        if self.cache is not None:
            self.cache.put(keys[idx], result, specs[idx])
        self._record(idx, specs[idx], keys[idx], hit=False, wall=wall,
                     worker=worker, attempts=attempts)

    def _record(self, idx, spec, key, hit, wall, worker,
                attempts) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1
            obs.metric_observe("exp.cell.wall_us", wall * 1e6)
        entry = ManifestEntry(
            key=key,
            spec=spec.to_dict(),
            hit=hit,
            wall_s=round(wall, 6),
            worker=worker,
            attempts=attempts,
            ts=round(time.time(), 3),
            sweep=self._sweep_id,
            shard=str(self.shard) if self.shard is not None else None,
        )
        self.entries.append(entry)
        if self.manifest is not None:
            self.manifest.record(entry)
