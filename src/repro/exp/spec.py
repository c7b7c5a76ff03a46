"""Declarative experiment specifications.

A :class:`RunSpec` names one experiment completely: the workload and
its generation seeds, the system scale and core count, the scheduler /
prefetcher pair, the STREX team size, optional *config overrides*
(ablation knobs folded into the materialized
:class:`~repro.config.SystemConfig`), and the experiment *mode* (a
full mix simulation, a uniform single-type simulation, Fig. 4's
identical-replica construction, Fig. 2's overlap analysis, or Table
3's footprint profiling).  It is a frozen dataclass so it can be
hashed, pickled across process boundaries, and serialized into the
run manifest.

A :class:`SweepSpec` is a grid over those axes; :meth:`SweepSpec.expand`
flattens it into a deterministically-ordered list of ``RunSpec``s
(workload-major, seeds innermost), which is the order the
:class:`~repro.exp.runner.Runner` reports results in regardless of
which worker finishes first.  Override fields are declared as
``{knob: [values...]}`` grids and expand like any other axis, which is
what makes ablation studies declarative::

    SweepSpec(workloads=("tpcc",), schedulers=("strex",),
              strex_overrides={"phase_bits": [2, 4, 8]})
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import (
    SCALES,
    CacheConfig,
    HybridConfig,
    StrexConfig,
    SystemConfig,
)
from repro.sim.api import PREFETCHERS, SCHEDULERS, validate_run_request
from repro.workloads import WORKLOADS

#: Experiment modes a spec can run (see :func:`repro.exp.runner.execute_spec`).
#:
#: * ``mix`` — simulate a ``generate_mix`` batch (the default; Figs. 5-9);
#: * ``uniform`` — simulate a single-type ``generate_uniform`` batch;
#: * ``identical`` — Fig. 4: ``transactions`` random instances of one
#:   type, each replicated ``replicas`` times, simulated back to back;
#: * ``overlap`` — Fig. 2: ``transactions`` concurrent same-type
#:   instances over private L1-Is, measured in overlap bands
#:   (produces an :class:`~repro.analysis.overlap.OverlapResult`);
#: * ``fptable`` — Table 3: profile ``transactions`` samples per
#:   transaction type into an FPTable (produces a
#:   :class:`~repro.core.fptable.FootprintResult`).
MODES = ("mix", "uniform", "identical", "overlap", "fptable")

#: Modes whose results are plain simulations (a ``RunResult``).
_SIMULATE_MODES = ("mix", "uniform", "identical")

#: Modes that require a ``txn_type``.
_TYPED_MODES = ("uniform", "identical", "overlap")

#: Schedulers that understand a STREX team size / StrexConfig knobs.
_TEAM_SCHEDULERS = ("strex", "hybrid")

#: Override field name -> config dataclass it targets.
_OVERRIDE_TARGETS = {
    "strex_overrides": StrexConfig,
    "cache_overrides": CacheConfig,
    "hybrid_overrides": HybridConfig,
}

#: JSON-scalar types allowed as override values (they must survive a
#: canonical-JSON round trip bit-identically to keep cache keys stable).
_SCALAR_TYPES = (bool, int, float, str, type(None))

Overrides = Optional[Tuple[Tuple[str, object], ...]]


def _freeze_overrides(field_name: str, value: object) -> Overrides:
    """Canonicalize an override mapping to a sorted tuple of pairs.

    Accepts ``None``, a mapping, or an already-frozen tuple of pairs;
    an empty mapping normalizes to ``None`` so that
    ``strex_overrides={}`` *is* (and cache-keys like) no overrides.
    """
    if value is None:
        return None
    if isinstance(value, Mapping):
        items = value.items()
    elif isinstance(value, tuple):
        items = value  # type: ignore[assignment]
    else:
        raise TypeError(
            f"{field_name} must be a mapping of config-field name to "
            f"value, got {value!r}"
        )
    target = _OVERRIDE_TARGETS[field_name]
    known = {f.name for f in dataclasses.fields(target)}
    frozen = []
    for item in items:
        name, val = item
        if name not in known:
            raise ValueError(
                f"{field_name}: unknown {target.__name__} field "
                f"{name!r}; choose from {sorted(known)}"
            )
        if not isinstance(val, _SCALAR_TYPES):
            raise TypeError(
                f"{field_name}[{name!r}] must be a JSON scalar "
                f"(bool/int/float/str/None), got {val!r}"
            )
        frozen.append((name, val))
    if not frozen:
        return None
    frozen.sort()
    names = [name for name, _ in frozen]
    if len(set(names)) != len(names):
        raise ValueError(f"{field_name}: duplicate field names {names}")
    return tuple(frozen)


def _overrides_dict(overrides: Overrides) -> Optional[Dict[str, object]]:
    """Back to a plain dict (``None`` stays ``None``)."""
    if overrides is None:
        return None
    return dict(overrides)


@dataclass(frozen=True)
class RunSpec:
    """One fully-specified experiment run.

    Attributes:
        workload: registered workload name (see
            :data:`repro.workloads.WORKLOADS`).
        scheduler: scheduler name (see :data:`repro.sim.api.SCHEDULERS`).
        prefetcher: instruction-prefetcher name (``none`` disables).
        cores: simulated core count.
        transactions: batch size.  Mode-dependent meaning: mix/uniform
            batch size, instances per type (``identical``), concurrent
            traces (``overlap``), or samples per type (``fptable``).
        seed: workload construction seed (database + code layout RNG).
        mix_seed: seed for drawing the transaction batch; defaults to
            ``seed`` when ``None``.
        team_size: STREX team-size override (``strex``/``hybrid`` only).
        scale: system preset name (see :data:`repro.config.SCALES`).
        replacement: optional L1 replacement-policy override (Fig. 9).
        mode: experiment mode (see :data:`MODES`).
        txn_type: transaction type for the typed modes
            (``uniform``/``identical``/``overlap``).
        replicas: replicas per instance (``identical`` mode only).
        strex_overrides: :class:`~repro.config.StrexConfig` field
            overrides (ablations), applied by :meth:`build_config` and
            therefore folded into the content-addressed cache key.
            Only valid with the ``strex``/``hybrid`` schedulers.
        cache_overrides: :class:`~repro.config.CacheConfig` field
            overrides applied to *both* L1s (mirrors
            ``with_l1_replacement``).
        hybrid_overrides: :class:`~repro.config.HybridConfig` field
            overrides.  Only valid with the ``hybrid`` scheduler.

    Override mappings are canonicalized to sorted tuples of pairs so
    specs stay hashable; empty mappings normalize to ``None`` (no
    overrides), so ``strex_overrides={}`` equals no overrides — both
    as dataclass equality and as cache key.
    """

    workload: str
    scheduler: str = "base"
    prefetcher: str = "none"
    cores: int = 4
    transactions: int = 40
    seed: int = 1013
    mix_seed: Optional[int] = None
    team_size: Optional[int] = None
    scale: str = "default"
    replacement: Optional[str] = None
    mode: str = "mix"
    txn_type: Optional[str] = None
    replicas: int = 1
    strex_overrides: Overrides = None
    cache_overrides: Overrides = None
    hybrid_overrides: Overrides = None

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; "
                f"choose from {sorted(WORKLOADS)}"
            )
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; "
                f"choose from {sorted(SCHEDULERS)}"
            )
        if self.prefetcher not in PREFETCHERS:
            raise ValueError(
                f"unknown prefetcher {self.prefetcher!r}; "
                f"choose from {sorted(PREFETCHERS)}"
            )
        if self.scale not in SCALES:
            raise ValueError(
                f"unknown scale {self.scale!r}; "
                f"choose from {sorted(SCALES)}"
            )
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        if self.transactions <= 0:
            raise ValueError("transactions must be positive")
        if self.team_size is not None and \
                self.scheduler not in _TEAM_SCHEDULERS:
            raise ValueError(
                f"team_size only applies to the 'strex' and 'hybrid' "
                f"schedulers, not {self.scheduler!r}"
            )
        for field_name in _OVERRIDE_TARGETS:
            object.__setattr__(
                self, field_name,
                _freeze_overrides(field_name, getattr(self, field_name)))
        self._validate_overrides()
        self._validate_mode()

    def _validate_overrides(self) -> None:
        """Reject overrides the chosen scheduler would never read.

        A ``strex_overrides`` on a ``base`` run would change the cache
        key (the expanded config is hashed) without changing the
        simulation — a dead cache cell — so it is an error, mirroring
        the ``team_size`` rule.
        """
        if self.strex_overrides is not None and \
                self.scheduler not in _TEAM_SCHEDULERS:
            raise ValueError(
                f"strex_overrides only apply to the 'strex' and "
                f"'hybrid' schedulers, not {self.scheduler!r} (they "
                f"would create dead cache cells)"
            )
        if self.hybrid_overrides is not None and \
                self.scheduler != "hybrid":
            raise ValueError(
                f"hybrid_overrides only apply to the 'hybrid' "
                f"scheduler, not {self.scheduler!r}"
            )
        if self.strex_overrides is not None and \
                self.team_size is not None and \
                any(name == "team_size" for name, _ in
                    self.strex_overrides):
            raise ValueError(
                "team_size is set both directly and via "
                "strex_overrides; pick one"
            )
        if self.cache_overrides is not None and \
                self.replacement is not None and \
                any(name == "replacement" for name, _ in
                    self.cache_overrides):
            raise ValueError(
                "replacement is set both directly and via "
                "cache_overrides; pick one"
            )

    def _validate_mode(self) -> None:
        if self.mode not in MODES:
            raise ValueError(
                f"unknown mode {self.mode!r}; choose from {MODES}"
            )
        if self.mode in _TYPED_MODES:
            if self.txn_type is None:
                raise ValueError(
                    f"mode {self.mode!r} requires txn_type"
                )
        elif self.txn_type is not None:
            raise ValueError(
                f"txn_type only applies to modes {_TYPED_MODES}, "
                f"not {self.mode!r}"
            )
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.replicas != 1 and self.mode != "identical":
            raise ValueError(
                "replicas only applies to the 'identical' mode"
            )
        if self.mode in ("overlap", "fptable"):
            # These modes never run a scheduler or prefetcher; any
            # non-default value would be a dead cache-key axis.
            if self.scheduler != "base" or self.prefetcher != "none":
                raise ValueError(
                    f"mode {self.mode!r} ignores the scheduler and "
                    f"prefetcher; leave them at 'base'/'none'"
                )
        if self.mode == "overlap" and self.transactions < 2:
            raise ValueError(
                "overlap mode needs at least two concurrent traces"
            )

    def build_config(self) -> SystemConfig:
        """The :class:`SystemConfig` this spec materializes.

        Overrides are applied here, which automatically folds them into
        the content-addressed cache key (the *expanded* config is
        hashed, not the spelling), so ``strex_overrides={"window": 30}``
        — the default value — shares its cache entry with no overrides.
        """
        config = SCALES[self.scale](num_cores=self.cores)
        if self.replacement is not None:
            config = config.with_l1_replacement(self.replacement)
        if self.cache_overrides is not None:
            fields = _overrides_dict(self.cache_overrides)
            config = dataclasses.replace(
                config,
                l1i=dataclasses.replace(config.l1i, **fields),
                l1d=dataclasses.replace(config.l1d, **fields),
            )
        if self.strex_overrides is not None:
            config = config.with_strex(
                **_overrides_dict(self.strex_overrides))
        if self.hybrid_overrides is not None:
            config = dataclasses.replace(
                config,
                hybrid=dataclasses.replace(
                    config.hybrid,
                    **_overrides_dict(self.hybrid_overrides)),
            )
        return config

    def effective_mix_seed(self) -> int:
        """The seed actually passed to the trace generator."""
        return self.seed if self.mix_seed is None else self.mix_seed

    def to_dict(self) -> dict:
        """Plain-dict form (manifest rows, worker payloads).

        Overrides serialize as plain dicts (or ``None``) so manifest
        rows stay ordinary JSON objects.
        """
        data = dataclasses.asdict(self)
        for field_name in _OVERRIDE_TARGETS:
            data[field_name] = _overrides_dict(getattr(self, field_name))
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Missing keys fall back to defaults, so manifest rows written
        before a field existed still parse.
        """
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown RunSpec keys: {sorted(unknown)}")
        return cls(**data)

    def describe(self) -> str:
        """Compact one-line label for logs and progress output."""
        parts = [self.workload, self.scheduler]
        if self.prefetcher != "none":
            parts.append(f"+{self.prefetcher}")
        parts.append(f"{self.cores}c")
        if self.team_size is not None:
            parts.append(f"{self.team_size}T")
        if self.replacement is not None:
            parts.append(self.replacement)
        if self.mode != "mix":
            label = self.mode
            if self.txn_type is not None:
                label += f":{self.txn_type}"
            parts.append(label)
        for prefix, overrides in (("strex", self.strex_overrides),
                                  ("cache", self.cache_overrides),
                                  ("hybrid", self.hybrid_overrides)):
            if overrides is not None:
                knobs = ",".join(f"{k}={v}" for k, v in overrides)
                parts.append(f"{prefix}{{{knobs}}}")
        parts.append(f"seed={self.seed}")
        return "/".join(parts)


def validate_specs(specs: Sequence[RunSpec]) -> None:
    """Raise ``ValueError`` naming the first cell that cannot run.

    Checks what :class:`RunSpec` construction cannot see on its own:
    the simulator's request rules (:func:`validate_run_request`, e.g.
    a team size below one) and the materialized config (override
    values the config classes reject).  Cheap -- no traces, no
    engine -- so every entry point calls it before any cell executes.
    """
    for spec in specs:
        try:
            validate_run_request(spec.scheduler, spec.prefetcher,
                                 spec.team_size)
            spec.build_config()
        except ValueError as exc:
            raise ValueError(
                f"cell {spec.describe()} is invalid: {exc}") from exc


def _tuple(values: Sequence) -> Tuple:
    if isinstance(values, (str, bytes)):
        raise TypeError(f"expected a sequence of values, got {values!r}")
    return tuple(values)


def _freeze_override_grid(field_name: str, value: object
                          ) -> Tuple[Tuple[str, Tuple], ...]:
    """Canonicalize a ``{knob: [values...]}`` grid for a sweep axis."""
    if value is None:
        return ()
    if not isinstance(value, Mapping):
        if isinstance(value, tuple) and all(
                isinstance(item, tuple) and len(item) == 2
                for item in value):
            value = dict(value)
        else:
            raise TypeError(
                f"{field_name} must map config-field names to value "
                f"sequences, got {value!r}"
            )
    grid = []
    for name, values in sorted(value.items()):
        values = _tuple(values)
        if not values:
            raise ValueError(
                f"{field_name}[{name!r}] sweep axis is empty"
            )
        grid.append((name, values))
    return tuple(grid)


def _grid_cells(grid: Tuple[Tuple[str, Tuple], ...]
                ) -> List[Optional[Dict[str, object]]]:
    """All override dicts of a grid (``[None]`` when the grid is empty)."""
    if not grid:
        return [None]
    names = [name for name, _ in grid]
    return [dict(zip(names, combo))
            for combo in product(*(values for _, values in grid))]


@dataclass(frozen=True)
class ShardSpec:
    """One slice of a sweep: shard ``index`` of ``count``.

    Sharding partitions a sweep by *cache key*, not by position: shard
    ``i`` of ``N`` selects exactly the cells whose content-addressed
    key (see :func:`repro.exp.cache.spec_key`) satisfies
    ``int(key, 16) % N == i``.  Because the key is a pure function of
    a cell's content, every executor derives the same partition
    independently — two machines handed the same sweep and their
    ``i/N`` strings agree on who owns which cells with no
    coordination, and the cache directory is the only merge point
    (see :mod:`repro.exp.shard`).  Hashes spread cells uniformly, so
    shards are load-balanced in expectation regardless of how the
    grid's axes correlate with cell cost.

    The canonical spelling is ``"i/N"`` (e.g. ``--shard 1/3``,
    ``REPRO_BENCH_SHARD=1/3``); :meth:`parse` reads it and ``str()``
    writes it.  ``1/1`` is the identity shard: it selects everything.
    """

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(
                f"shard count must be >= 1, got {self.count}"
            )
        if not 0 <= self.index < self.count:
            raise ValueError(
                f"shard index must be in [0, {self.count}), "
                f"got {self.index}"
            )

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse the canonical ``"i/N"`` spelling."""
        index, sep, count = str(text).partition("/")
        try:
            if not sep:
                raise ValueError(text)
            return cls(int(index), int(count))
        except ValueError:
            raise ValueError(
                f"shard must be spelled 'i/N' with 0 <= i < N, "
                f"got {text!r}"
            ) from None

    @staticmethod
    def assign(key: str, count: int) -> int:
        """The shard index that owns a cache key under an N-way split."""
        return int(key, 16) % count

    def selects(self, key: str) -> bool:
        """Whether this shard owns the cell with cache key ``key``."""
        return int(key, 16) % self.count == self.index

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


@dataclass(frozen=True)
class SweepSpec:
    """A grid of runs: the cross product of every axis below.

    ``transactions``, ``mix_seed``, ``mode``, and ``replicas`` are
    shared by every cell; all other axes are sequences.  The override
    grids (``strex_overrides`` etc.) are ``{knob: [values...]}``
    mappings whose knobs expand as extra axes — the declarative form of
    an ablation study.  Axis values are validated eagerly on expansion
    (each cell is a validated :class:`RunSpec`).
    """

    workloads: Tuple[str, ...]
    schedulers: Tuple[str, ...] = ("base",)
    prefetchers: Tuple[str, ...] = ("none",)
    cores: Tuple[int, ...] = (4,)
    team_sizes: Tuple[Optional[int], ...] = (None,)
    seeds: Tuple[int, ...] = (1013,)
    scales: Tuple[str, ...] = ("default",)
    txn_types: Tuple[Optional[str], ...] = (None,)
    transactions: int = 40
    mix_seed: Optional[int] = None
    mode: str = "mix"
    replicas: int = 1
    strex_overrides: Tuple[Tuple[str, Tuple], ...] = ()
    cache_overrides: Tuple[Tuple[str, Tuple], ...] = ()
    hybrid_overrides: Tuple[Tuple[str, Tuple], ...] = ()

    def __post_init__(self) -> None:
        for axis in ("workloads", "schedulers", "prefetchers", "cores",
                     "team_sizes", "seeds", "scales", "txn_types"):
            object.__setattr__(self, axis, _tuple(getattr(self, axis)))
            if not getattr(self, axis):
                raise ValueError(f"sweep axis {axis!r} is empty")
        for field_name in _OVERRIDE_TARGETS:
            object.__setattr__(
                self, field_name,
                _freeze_override_grid(field_name,
                                      getattr(self, field_name)))
        # Scheduler-specific override grids need at least one scheduler
        # that reads them — otherwise every cell they generate would be
        # a dead cache cell (key changes, simulation doesn't).
        if self.strex_overrides and not any(
                s in _TEAM_SCHEDULERS for s in self.schedulers):
            raise ValueError(
                f"strex_overrides require a 'strex' or 'hybrid' "
                f"scheduler in the sweep, got {self.schedulers}"
            )
        if self.hybrid_overrides and "hybrid" not in self.schedulers:
            raise ValueError(
                f"hybrid_overrides require the 'hybrid' scheduler in "
                f"the sweep, got {self.schedulers}"
            )

    def __len__(self) -> int:
        return len(self.expand())

    def expand(self) -> List[RunSpec]:
        """Flatten the grid into a deterministically-ordered run list.

        Order: workload-major, then scale, cores, scheduler,
        prefetcher, team size, txn type, override combinations, and
        seed innermost — i.e. the natural nested-loop order of the
        field declarations.  The order is a stable contract: the
        runner returns results positionally aligned with it.

        Scheduler-specific axes only apply to schedulers that read
        them: for the rest, ``team_sizes``, ``strex_overrides``, and
        ``hybrid_overrides`` collapse to ``None`` and the resulting
        duplicate cells are dropped, so a grid like
        ``schedulers=(base, strex), team_sizes=(2, 8)`` yields one
        ``base`` run and two ``strex`` runs per cell.
        """
        strex_cells = _grid_cells(self.strex_overrides)
        cache_cells = _grid_cells(self.cache_overrides)
        hybrid_cells = _grid_cells(self.hybrid_overrides)
        specs: List[RunSpec] = []
        seen = set()
        for (workload, scale, cores, scheduler, prefetcher, team_size,
             txn_type, strex_ov, cache_ov, hybrid_ov, seed) in product(
                self.workloads, self.scales, self.cores,
                self.schedulers, self.prefetchers, self.team_sizes,
                self.txn_types, strex_cells, cache_cells, hybrid_cells,
                self.seeds):
            if scheduler not in _TEAM_SCHEDULERS:
                team_size = None
                strex_ov = None
            if scheduler != "hybrid":
                hybrid_ov = None
            spec = RunSpec(
                workload=workload,
                scheduler=scheduler,
                prefetcher=prefetcher,
                cores=cores,
                transactions=self.transactions,
                seed=seed,
                mix_seed=self.mix_seed,
                team_size=team_size,
                scale=scale,
                mode=self.mode,
                txn_type=txn_type,
                replicas=self.replicas,
                strex_overrides=strex_ov,
                cache_overrides=cache_ov,
                hybrid_overrides=hybrid_ov,
            )
            if spec not in seen:
                seen.add(spec)
                specs.append(spec)
        return specs
