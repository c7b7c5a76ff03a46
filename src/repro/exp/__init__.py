"""Experiment orchestration: sweeps, parallel execution, result cache.

The subsystem has four parts (see DESIGN.md §3):

* :mod:`repro.exp.spec` — declarative :class:`RunSpec` / grid-style
  :class:`SweepSpec` with deterministic expansion order;
* :mod:`repro.exp.runner` — :class:`Runner`, a process-pool executor
  with per-run timeouts, bounded retry, and order-stable results;
* :mod:`repro.exp.cache` — :class:`ResultCache`, a content-addressed
  store of serialized results keyed by a stable hash of the config,
  workload parameters, scheduler/prefetcher/team-size, seeds, and the
  package source fingerprint;
* :mod:`repro.exp.manifest` — :class:`Manifest`, an append-only JSONL
  audit trail of every run (key, hit/miss, wall time, worker, shard).

:mod:`repro.exp.shard` layers cross-process sharding on top: a
:class:`ShardSpec` partitions any sweep by hash-range of the cache
key, :func:`run_shard` executes one slice into a private directory,
:func:`merge_caches` unions shard caches conflict-safely, and
:func:`run_all_shards` orchestrates a full local multi-process sweep
(``repro shard`` on the command line).

:mod:`repro.exp.diff` and :mod:`repro.exp.baseline` are ``repro.audit``
— the auditing layer over the whole pipeline: ``repro diff`` aligns
two sweeps by spec identity and reports per-metric drift,
``repro diff --reference`` cross-checks the fast and reference
kernels byte-for-byte, and ``repro baseline pin|check|update``
maintains committed metric snapshots that give CI a cell-level
regression gate.
"""

from repro.exp.baseline import (
    BASELINE_SCHEMA,
    Baseline,
    BaselineError,
    check_baseline,
    pin_baseline,
    snapshot_cells,
    update_baseline,
)
from repro.exp.cache import (
    CACHE_SCHEMA,
    IDENTITY_SCHEMA,
    RESULT_TYPES,
    ResultCache,
    code_fingerprint,
    spec_identity,
    spec_key,
)
from repro.exp.diff import (
    AuditFigure,
    AuditReport,
    Cell,
    CellDiff,
    DiffReport,
    MetricDelta,
    Tolerance,
    audit_diff,
    diff_cells,
    diff_manifests,
    manifest_cells,
    metric_vector,
    reference_diff,
)
from repro.exp.manifest import (
    Manifest,
    ManifestEntry,
    ManifestSummary,
    summarize_entries,
)
from repro.exp.runner import (
    RunError,
    Runner,
    SimTimeoutError,
    execute_spec,
)
from repro.exp.shard import (
    MergeReport,
    ShardFailure,
    ShardMergeConflict,
    ShardRun,
    ShardSweepReport,
    merge_caches,
    partition,
    run_all_shards,
    run_shard,
    shard_root,
)
from repro.exp.spec import (
    MODES,
    RunSpec,
    ShardSpec,
    SweepSpec,
    validate_specs,
)

__all__ = [
    "AuditFigure",
    "AuditReport",
    "BASELINE_SCHEMA",
    "Baseline",
    "BaselineError",
    "CACHE_SCHEMA",
    "Cell",
    "CellDiff",
    "DiffReport",
    "IDENTITY_SCHEMA",
    "MODES",
    "Manifest",
    "ManifestEntry",
    "ManifestSummary",
    "MergeReport",
    "MetricDelta",
    "RESULT_TYPES",
    "ResultCache",
    "RunError",
    "RunSpec",
    "Runner",
    "ShardFailure",
    "ShardMergeConflict",
    "ShardRun",
    "ShardSpec",
    "ShardSweepReport",
    "SimTimeoutError",
    "SweepSpec",
    "Tolerance",
    "audit_diff",
    "check_baseline",
    "code_fingerprint",
    "diff_cells",
    "diff_manifests",
    "execute_spec",
    "manifest_cells",
    "merge_caches",
    "metric_vector",
    "partition",
    "pin_baseline",
    "snapshot_cells",
    "reference_diff",
    "run_all_shards",
    "run_shard",
    "shard_root",
    "spec_identity",
    "spec_key",
    "summarize_entries",
    "update_baseline",
    "validate_specs",
]
