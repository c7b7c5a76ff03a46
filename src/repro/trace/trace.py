"""Block-run execution traces.

A *trace event* is one run of instructions within a single instruction
cache block, optionally paired with one data access:

    (iblock, ilen, dblock, dwrite)

* ``iblock`` -- instruction block number being fetched;
* ``ilen``   -- number of instructions executed from that block;
* ``dblock`` -- data block number touched, or ``-1`` for none;
* ``dwrite`` -- 1 if the data access is a store, else 0.

This is the finest granularity any mechanism in the paper operates at
(caches, STREX's phaseID tagging, SLICC's signatures and PIF all act on
64 B blocks), which keeps pure-Python replay tractable (DESIGN.md,
decision 1).  Events are stored as parallel columns -- plain Python
lists or NumPy arrays, kept as given without copying.  The simulator's
inner loops read plain-list views (list indexing is considerably
faster than NumPy scalar extraction, and builtin ints keep results
JSON-serializable), normalized lazily via :meth:`TransactionTrace.
event_columns`; NumPy views stay available for analysis.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Minimum length (in events) of an instruction-only span that
#: :meth:`TransactionTrace.run_tables` reports as a run.
RUN_MIN_EVENTS = 4


class TransactionTrace:
    """The full execution trace of one transaction.

    Columns may be plain Python lists or NumPy arrays; they are stored
    as given, without copying.  The simulator's inner loops always go
    through :meth:`event_columns` / :meth:`packed_events`, which
    normalize to plain lists exactly once per trace, so NumPy scalar
    types never leak into replay arithmetic or serialized results.
    """

    __slots__ = (
        "txn_id",
        "txn_type",
        "iblocks",
        "ilens",
        "dblocks",
        "dwrites",
        "total_instructions",
        "_unique_iblocks",
        "_packed_events",
        "_set_indices",
        "_ilen_prefix",
        "_list_columns",
        "_run_tables",
    )

    def __init__(
        self,
        txn_id: int,
        txn_type: str,
        iblocks: Sequence[int],
        ilens: Sequence[int],
        dblocks: Sequence[int],
        dwrites: Sequence[int],
    ):
        lengths = {len(iblocks), len(ilens), len(dblocks), len(dwrites)}
        if len(lengths) != 1:
            raise ValueError("trace arrays must have equal length")
        self.txn_id = txn_id
        self.txn_type = txn_type
        self.iblocks = iblocks
        self.ilens = ilens
        self.dblocks = dblocks
        self.dwrites = dwrites
        self.total_instructions = int(sum(ilens))
        # Lazily-built derived views, shared by every run of a batch:
        # the distinct-iblock set, packed per-event tuples keyed by
        # base CPI, L1-I set indices keyed by set count, plain-list
        # column views, and hit-run tables.
        self._unique_iblocks: Optional[frozenset] = None
        self._packed_events: dict = {}
        self._set_indices: dict = {}
        self._ilen_prefix: Optional[list] = None
        self._list_columns: Optional[tuple] = None
        self._run_tables: dict = {}

    def __len__(self) -> int:
        return len(self.iblocks)

    def __repr__(self) -> str:
        return (
            f"TransactionTrace(id={self.txn_id}, type={self.txn_type!r}, "
            f"events={len(self)}, instructions={self.total_instructions})"
        )

    def events(self) -> Iterator[Tuple[int, int, int, int]]:
        """Iterate over (iblock, ilen, dblock, dwrite) tuples."""
        return zip(*self.event_columns())

    def event_columns(self) -> tuple:
        """``(iblocks, ilens, dblocks, dwrites)`` as plain Python lists.

        Array-backed traces (e.g. from :func:`load_traces`) are
        normalized once and the lists memoized; list-backed traces are
        returned as-is with no copy.  Every replay consumer goes
        through here so arithmetic stays on builtin ints.
        """
        cols = self._list_columns
        if cols is None:
            cols = tuple(
                col if type(col) is list else np.asarray(col).tolist()
                for col in (self.iblocks, self.ilens,
                            self.dblocks, self.dwrites)
            )
            self._list_columns = cols
        return cols

    def unique_iblocks(self) -> frozenset:
        """Distinct instruction blocks touched (the static footprint).

        Memoized: FPTable profiling and the Table 3 analysis call this
        repeatedly per trace.  The result is a frozenset so sharing the
        memo is safe.
        """
        if self._unique_iblocks is None:
            self._unique_iblocks = frozenset(self.event_columns()[0])
        return self._unique_iblocks

    def footprint_units(self, blocks_per_unit: int) -> float:
        """Instruction footprint in L1-I size units (Table 3's metric)."""
        return len(self.unique_iblocks()) / blocks_per_unit

    def packed_events(self, cpi: float, num_sets: int) -> list:
        """``(iblock, icycles, ilen, dblock, dwrite, iset)`` tuples.

        ``icycles`` is ``ilen * cpi`` precomputed with exactly the
        operands the engine's reference loop uses, so replaying the
        packed form accumulates bit-identical float cycles; ``iset`` is
        the L1-I set index of ``iblock`` for the given geometry.  Built
        once per ``(cpi, num_sets)`` and shared by every run.
        """
        key = (cpi, num_sets)
        packed = self._packed_events.get(key)
        if packed is None:
            isets = self.iblock_set_indices(num_sets)
            iblocks, ilens, dblocks, dwrites = self.event_columns()
            packed = [
                (iblock, ilen * cpi, ilen, dblock, dwrite, iset)
                for iblock, ilen, dblock, dwrite, iset in zip(
                    iblocks, ilens, dblocks, dwrites, isets)
            ]
            self._packed_events[key] = packed
        return packed

    def run_tables(self, cpi: float, num_sets: int) -> Optional[tuple]:
        """Hit-run tables: the trace's instruction-only spans.

        The simulator no longer consumes these (the engine's hit-run
        fast-forward was retired, DESIGN.md decision 16); the view is
        kept because external layer tracing still times it by name.

        A *run* is a maximal span of instruction-only events (no
        data-side access, ``dblock < 0``); spans shorter than
        :data:`RUN_MIN_EVENTS` are ignored.  Returns ``None`` when the
        trace has no eligible runs, else ``(next_ff, runs)``:

        * ``next_ff[i]`` -- start index of the first eligible run at or
          after event ``i`` (``len(trace)`` when none remain);
        * ``runs[start] = (end, icycles, distinct_blocks,
          last_offsets, n_events, run_sets)`` -- the half-open span, the
          per-event ``ilen * cpi`` terms (the operands of
          :meth:`packed_events`), the distinct instruction blocks in
          first-occurrence order, each block's last within-run offset,
          the event count, and the distinct L1-I set indices the run's
          blocks map to.

        Span discovery is vectorized with NumPy over the ``dblocks``
        column; built once per ``(cpi, num_sets)`` and shared by every
        run of the batch.
        """
        key = (cpi, num_sets)
        if key in self._run_tables:
            return self._run_tables[key]
        iblocks, ilens, dblocks, _ = self.event_columns()
        n = len(iblocks)
        flags = np.zeros(n + 2, dtype=np.int8)
        flags[1:-1] = np.asarray(self.dblocks, dtype=np.int64) < 0
        edges = np.diff(flags)
        starts = np.flatnonzero(edges == 1)
        ends = np.flatnonzero(edges == -1)
        eligible = (ends - starts) >= RUN_MIN_EVENTS
        starts = starts[eligible]
        ends = ends[eligible]
        if len(starts) == 0:
            self._run_tables[key] = None
            return None
        icycles_all = np.asarray(self.ilens, dtype=np.int64) * cpi
        idx = np.searchsorted(starts, np.arange(n + 1), side="left")
        next_ff = np.where(
            idx < len(starts),
            starts[np.minimum(idx, len(starts) - 1)],
            n,
        ).tolist()
        pot = num_sets & (num_sets - 1) == 0
        mask = num_sets - 1
        runs = {}
        for s, e in zip(starts.tolist(), ends.tolist()):
            last_offset: dict = {}
            for off, block in enumerate(iblocks[s:e]):
                last_offset[block] = off
            run_sets: dict = {}
            for block in last_offset:
                run_sets[(block & mask) if pot
                         else (block % num_sets)] = None
            runs[s] = (
                e,
                icycles_all[s:e].tolist(),
                tuple(last_offset.keys()),
                list(last_offset.values()),
                e - s,
                tuple(run_sets),
            )
        tables = (next_ff, runs)
        self._run_tables[key] = tables
        return tables

    def iblock_set_indices(self, num_sets: int) -> list:
        """Per-event L1-I set index of each instruction block.

        Matches ``Cache.set_index`` for the given geometry (mask for
        powers of two, modulo otherwise); built once per ``num_sets``.
        """
        indices = self._set_indices.get(num_sets)
        if indices is None:
            iblocks = self.event_columns()[0]
            if num_sets & (num_sets - 1) == 0:
                mask = num_sets - 1
                indices = [block & mask for block in iblocks]
            else:
                indices = [block % num_sets for block in iblocks]
            self._set_indices[num_sets] = indices
        return indices

    def instruction_prefix(self) -> list:
        """Cumulative instruction counts: ``prefix[i]`` is the total
        instructions in events ``[0, i)``, so a slice's instruction
        count is ``prefix[end] - prefix[start]``.  Memoized."""
        prefix = self._ilen_prefix
        if prefix is None:
            ilens = self.event_columns()[1]
            prefix = [0] * (len(ilens) + 1)
            total = 0
            for i, ilen in enumerate(ilens):
                total += ilen
                prefix[i + 1] = total
            self._ilen_prefix = prefix
        return prefix

    def iblock_array(self) -> np.ndarray:
        """Instruction blocks as a NumPy array (for analysis)."""
        return np.asarray(self.iblocks, dtype=np.int64)

    def ilen_array(self) -> np.ndarray:
        """Per-event instruction counts as a NumPy array."""
        return np.asarray(self.ilens, dtype=np.int64)


class TraceBuilder:
    """Incremental construction of a :class:`TransactionTrace`."""

    def __init__(self, txn_id: int, txn_type: str):
        self.txn_id = txn_id
        self.txn_type = txn_type
        self._iblocks: List[int] = []
        self._ilens: List[int] = []
        self._dblocks: List[int] = []
        self._dwrites: List[int] = []

    def append(
        self,
        iblock: int,
        ilen: int,
        dblock: int = -1,
        dwrite: int = 0,
    ) -> None:
        """Append one event."""
        if ilen <= 0:
            raise ValueError("ilen must be positive")
        self._iblocks.append(iblock)
        self._ilens.append(ilen)
        self._dblocks.append(dblock)
        self._dwrites.append(dwrite)

    def __len__(self) -> int:
        return len(self._iblocks)

    @property
    def last_iblock(self) -> Optional[int]:
        """Most recently appended instruction block, if any."""
        if not self._iblocks:
            return None
        return self._iblocks[-1]

    def build(self) -> TransactionTrace:
        """Finalize into an immutable-by-convention trace."""
        if not self._iblocks:
            raise ValueError("cannot build an empty trace")
        return TransactionTrace(
            self.txn_id,
            self.txn_type,
            self._iblocks,
            self._ilens,
            self._dblocks,
            self._dwrites,
        )


def save_traces(path: str, traces: List[TransactionTrace]) -> None:
    """Persist traces to an ``.npz`` archive."""
    payload = {}
    meta = []
    for i, trace in enumerate(traces):
        meta.append((trace.txn_id, trace.txn_type))
        payload[f"i{i}"] = np.asarray(trace.iblocks, dtype=np.int64)
        payload[f"l{i}"] = np.asarray(trace.ilens, dtype=np.int32)
        payload[f"d{i}"] = np.asarray(trace.dblocks, dtype=np.int64)
        payload[f"w{i}"] = np.asarray(trace.dwrites, dtype=np.int8)
    payload["ids"] = np.asarray([m[0] for m in meta], dtype=np.int64)
    payload["types"] = np.asarray([m[1] for m in meta])
    np.savez_compressed(path, **payload)


def load_traces(path: str) -> List[TransactionTrace]:
    """Load traces previously written by :func:`save_traces`."""
    with np.load(path, allow_pickle=False) as data:
        ids = data["ids"]
        types = data["types"]
        traces = []
        for i in range(len(ids)):
            # Keep the columnar arrays: the run tables and content
            # digests consume them directly, and TransactionTrace
            # stores them without copying (normalizing to lists
            # lazily, only if the replay loops need them).
            traces.append(
                TransactionTrace(
                    int(ids[i]),
                    str(types[i]),
                    data[f"i{i}"],
                    data[f"l{i}"],
                    data[f"d{i}"],
                    data[f"w{i}"],
                )
            )
    return traces
