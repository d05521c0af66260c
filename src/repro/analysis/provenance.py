"""Byte-provenance dataflow checker for UCP conversions.

The paper's correctness claim is that a UCP transformation is a pure
re-tiling: every byte of every target rank's flat fp32 partition comes
from exactly one real (non-padding) source byte, for any source ->
target parallelism interchange.  The rank-level linter
(:mod:`repro.analysis.layout_lint`) proves file presence and shape
facts, but cannot see *dataflow* bugs — double-writes, coverage gaps,
or padding leaking into data — the class ByteCheckpoint and TorchTitan
report as the hardest to debug in production resharding.

This module closes that gap with a symbolic shadow interpreter that
executes the conversion plan over **intervals, not tensors**:

1. Every source rank file's *header* (``ObjectStore.load_header``; the
   payload is never read) contributes ``(file, byte-offset, dtype)``
   fragments located inside its flattened TP shard.
2. Fragments compose — mirroring ``Extract``/``Union`` selection
   semantics exactly — into an interval map over each parameter's
   consolidated (padded logical) flat element space, every interval
   carrying its source-byte provenance.
3. The map is re-sliced under the target :class:`ParallelConfig`
   exactly as ``GenUcpMetadata``/``Load`` would, and three theorems
   are proven per target tensor:

   * **coverage** — every target data byte has a source byte (UCP017);
   * **exclusivity** — no byte is written twice (UCP018);
   * **padding hygiene** — no source padding byte flows into target
     data (UCP019).

The only tensor-shaped computation is one ``int64`` index map per
``fragment_params`` *shape class* — ``(fragmenter, logical shape, TP
degree, rank)``, shared by every layer — executed through the *real*
fragmenter (:meth:`Fragmenter.shard` over ``arange``) once, collapsed to
maximal contiguous runs and kept as a read-only columnar table by
:mod:`repro.core.intervals` — so the provenance model cannot drift from
the executable sharding semantics, and disk IO stays header-only
(kilobytes for a multi-terabyte checkpoint).  Composition stays
columnar as well: a parameter's extents are int64 columns from here into
the converter's read plans, and :class:`SourceExtent` objects exist only
where a diagnostic or a provenance chain needs to name one.

Violations carry the stable rule IDs UCP017-UCP022 and exact
``(tensor, rank, byte-range)`` provenance chains; see
``docs/ANALYSIS.md`` for the catalogue and a worked chain example.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.diagnostics import LintReport, error
from repro.ckpt import naming
from repro.ckpt.loader import resolve_tag
from repro.core.intervals import (
    ShardRuns,
    data_intervals,
    intersect_tilings,
    is_identity_map,
    merge_intervals as _merge_intervals,
    shard_runs,
    subtract_intervals as _subtract_intervals,
)
from repro.core.metadata import UCP_META_FILE, UCPMetadata
from repro.dist.topology import ParallelConfig
from repro.models.configs import ModelConfig
from repro.parallel.layout import ModelParallelLayout
from repro.parallel.tp import PATTERN_FRAGMENT, PATTERN_UNIQUE, ShardSpec
from repro.storage.serializer import SerializationError
from repro.storage.store import ObjectStore

FP32_BYTES = 4
"""Flat partitions are fp32; provenance byte ranges are elements * 4."""

_KIND_FIELDS = (
    ("fp32", "fp32_flat_partition"),
    ("exp_avg", "exp_avg_flat_partition"),
    ("exp_avg_sq", "exp_avg_sq_flat_partition"),
)


def _is_float32(dtype: object) -> bool:
    """dtype-string equality modulo spelling (``float32`` vs ``<f4``)."""
    try:
        return np.dtype(dtype) == np.float32
    except TypeError:
        return False


def _numel(shape: Sequence[int]) -> int:
    n = 1
    for d in shape:
        n *= int(d)
    return n


def _byte_range(start: int, end: int) -> str:
    """Render an element interval as the byte range diagnostics report."""
    return f"bytes [{start * FP32_BYTES}, {end * FP32_BYTES})"


@dataclasses.dataclass(frozen=True)
class SourceExtent:
    """One contiguous run of consolidated elements traced to source bytes.

    Consolidated elements ``[full_start, full_end)`` of one parameter
    are supplied by elements ``[file_start, ...)`` of the named flat
    array ``field`` inside source rank file ``file`` — the provenance
    leaf every diagnostic chain bottoms out in.
    """

    full_start: int
    full_end: int
    file: str
    field: str
    file_start: int
    coord: Tuple[int, int, int]
    dp_rank: int

    def chain(self, full_start: int, full_end: int) -> str:
        """Render the source half of a provenance chain for a sub-range."""
        delta = full_start - self.full_start
        file_lo = (self.file_start + delta) * FP32_BYTES
        file_hi = file_lo + (full_end - full_start) * FP32_BYTES
        pp, sp, tp = self.coord
        return (
            f"source pp={pp}.sp={sp}.tp={tp}.dp={self.dp_rank} "
            f"{self.file}::{self.field} bytes [{file_lo}, {file_hi})"
        )


_Source = Tuple[str, str, Tuple[int, int, int], int]
"""``(file, field, mp coord, dp rank)`` of one source fragment."""


class ExtentTable:
    """The provenance extents of one parameter copy, columnar.

    Row ``i`` says consolidated elements ``[full_start[i], full_end[i])``
    are supplied by elements ``[file_start[i], ...)`` of the fragment
    ``sources[source[i]]``.  Rows are sorted by ``(full_start, full_end,
    file)``.  The int64 columns are what the converter lowers into read
    plans; iterating (or :meth:`extent` / :meth:`overlapping`)
    materialises :class:`SourceExtent` objects for diagnostics and
    provenance chains only.
    """

    __slots__ = (
        "full_start", "full_end", "file_start", "source", "sources", "_covered"
    )

    def __init__(
        self,
        full_start: np.ndarray,
        full_end: np.ndarray,
        file_start: np.ndarray,
        source: np.ndarray,
        sources: Sequence[_Source],
        covered: Optional[List[Tuple[int, int]]] = None,
    ) -> None:
        self.full_start = full_start
        self.full_end = full_end
        self.file_start = file_start
        self.source = source
        self.sources = sources
        self._covered = covered

    @classmethod
    def from_rows(
        cls, rows: List[Tuple[int, int, str, int, int]], sources: Sequence[_Source]
    ) -> "ExtentTable":
        """A (small) table from Python ``(full_start, full_end, file,
        file_start, source)`` rows — no per-column numpy dispatch."""
        rows.sort(key=lambda r: r[:3])
        cols = np.array(
            [(r[0], r[1], r[3], r[4]) for r in rows], dtype=np.int64
        ).reshape(-1, 4).T
        return cls(
            *cols, sources,
            covered=_merge_intervals([(r[0], r[1]) for r in rows]),
        )

    @classmethod
    def from_extents(cls, extents: Sequence[SourceExtent]) -> "ExtentTable":
        """Columnar form of already materialised extents."""
        index: Dict[_Source, int] = {}
        rows = [
            (
                e.full_start, e.full_end, e.file, e.file_start,
                index.setdefault(
                    (e.file, e.field, e.coord, e.dp_rank), len(index)
                ),
            )
            for e in extents
        ]
        return cls.from_rows(rows, list(index))

    def __len__(self) -> int:
        return int(self.full_start.size)

    def __iter__(self):
        return (self.extent(i) for i in range(len(self)))

    def extent(self, i: int) -> SourceExtent:
        """Row ``i`` as the provenance leaf diagnostics render."""
        file, field, coord, dp_rank = self.sources[int(self.source[i])]
        return SourceExtent(
            full_start=int(self.full_start[i]),
            full_end=int(self.full_end[i]),
            file=file,
            field=field,
            file_start=int(self.file_start[i]),
            coord=coord,
            dp_rank=dp_rank,
        )

    def overlapping(self, start: int, end: int) -> List[SourceExtent]:
        """Extents intersecting a consolidated element interval."""
        hits = np.flatnonzero((self.full_start < end) & (self.full_end > start))
        return [self.extent(i) for i in hits]

    def covered(self) -> List[Tuple[int, int]]:
        """Merged consolidated intervals the rows supply."""
        if self._covered is None:
            starts, reach = self.full_start, np.maximum.accumulate(self.full_end)
            if starts.size == 0:
                self._covered = []
            else:
                # rows are sorted by start: a new interval opens where a
                # row starts past everything before it
                first = np.flatnonzero(
                    np.concatenate(([True], starts[1:] > reach[:-1]))
                )
                last = np.concatenate((first[1:] - 1, [starts.size - 1]))
                self._covered = list(
                    zip(starts[first].tolist(), reach[last].tolist())
                )
        return self._covered


@dataclasses.dataclass
class ParamProvenance:
    """Interval map over one parameter's consolidated flat element space.

    ``extents`` trace the *selected* copies — the ones ``union``
    actually consumes.  ``replicas`` trace the non-selected copies
    (other ``(pp, sp)`` holders of a replicated / averaged parameter),
    keyed by their mp coordinate: the streaming converter reads them
    only when the pattern demands it (``params_to_average`` averages
    every copy; ``replicated_params`` under ``verify_replicas`` must
    compare them), so a plan knows the *full* byte cost of each policy.
    Both are :class:`ExtentTable` columns (a sequence of
    :class:`SourceExtent` is accepted and converted).
    """

    name: str
    spec: ShardSpec
    extents: ExtentTable
    data: List[Tuple[int, int]]
    replicas: Dict[Tuple[int, int, int], ExtentTable] = dataclasses.field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        if not isinstance(self.extents, ExtentTable):
            self.extents = ExtentTable.from_extents(self.extents)

    def covered(self) -> List[Tuple[int, int]]:
        """Merged consolidated intervals any source byte supplies."""
        return self.extents.covered()

    def lookup(self, start: int, end: int) -> List[SourceExtent]:
        """Extents intersecting a consolidated element interval."""
        return self.extents.overlapping(start, end)


@dataclasses.dataclass(frozen=True)
class _ShardPiece:
    """One dp-split piece of one (parameter, mp-coord) shard."""

    shard_start: int
    shard_end: int
    file: str
    field: str
    file_start: int
    dp_rank: int


class ProvenanceAnalysis:
    """Result of a provenance run: per-parameter maps plus the report.

    ``params`` maps parameter name -> :class:`ParamProvenance`;
    :meth:`explain` renders a full target-byte -> source-byte chain,
    the artifact the diagnostics embed and ``docs/ANALYSIS.md``
    documents.
    """

    def __init__(
        self,
        model_cfg: ModelConfig,
        source_cfg: ParallelConfig,
        params: Dict[str, ParamProvenance],
        report: LintReport,
    ) -> None:
        self.model_cfg = model_cfg
        self.source_cfg = source_cfg
        self.params = params
        self.report = report

    def runs(self, name: str, degree: int, rank: int) -> ShardRuns:
        """Shard -> consolidated runs of one parameter's shape class."""
        return shard_runs(self.params[name].spec, degree, rank)

    def explain(
        self,
        name: str,
        target_cfg: ParallelConfig,
        pp_stage: int,
        sp_rank: int,
        tp_rank: int,
        dp_rank: int,
        local_element: int,
    ) -> str:
        """Provenance chain for one element of one target flat partition.

        Walks target partition byte -> target shard element ->
        consolidated element -> source file byte, rendering each hop.
        """
        layout = ModelParallelLayout(self.model_cfg, target_cfg)
        rank_layout = layout.rank_layout(pp_stage, sp_rank, tp_rank)
        for piece in rank_layout.slices_in_partition(dp_rank):
            if piece.name != name:
                continue
            if not piece.local_start <= local_element < piece.local_end:
                continue
            shard_element = piece.shard_start + (
                local_element - piece.local_start
            )
            head = (
                f"target pp={pp_stage}.sp={sp_rank}.tp={tp_rank}"
                f".dp={dp_rank} partition "
                f"{_byte_range(local_element, local_element + 1)} of "
                f"{name!r}"
            )
            runs = self.runs(name, target_cfg.tp, tp_rank)
            # runs tile the shard in order: the one holding the element
            # is the last that starts at or before it
            i = int(np.searchsorted(runs.shard_start, shard_element, "right")) - 1
            if i < 0 or shard_element >= runs.shard_start[i] + runs.length[i]:
                return f"{head} <- <element outside the shard map>"
            full = int(runs.full_start[i]) + (
                shard_element - int(runs.shard_start[i])
            )
            mid = f"consolidated {_byte_range(full, full + 1)}"
            prov = self.params.get(name)
            if prov is not None:
                for extent in prov.lookup(full, full + 1):
                    return (
                        f"{head} <- {mid} <- "
                        f"{extent.chain(full, full + 1)}"
                    )
            for d_start, d_end in (
                prov.data if prov is not None
                else data_intervals(layout.shard_specs[name])
            ):
                if d_start <= full < d_end:
                    return f"{head} <- {mid} <- <no source byte>"
            return f"{head} <- {mid} <- structural padding (zero)"
        raise KeyError(
            f"element {local_element} of {name!r} is not in partition "
            f"dp={dp_rank} of pp={pp_stage}.sp={sp_rank}.tp={tp_rank}"
        )


def _read_source_pieces(
    store: ObjectStore,
    tag: str,
    layout: ModelParallelLayout,
    source_cfg: ParallelConfig,
    optimizer_layout: str,
    report: LintReport,
) -> Dict[Tuple[str, Tuple[int, int, int]], List[_ShardPiece]]:
    """Header-only pass over every source optimizer-state file.

    Returns shard-space pieces keyed by ``(param name, mp coord)``,
    reporting dtype violations (UCP020), out-of-extent references
    (UCP021), alignment-padding reads (UCP019), padding-as-data
    metadata (UCP019), and unreadable headers (UCP022) along the way.
    """
    pieces: Dict[Tuple[str, Tuple[int, int, int]], List[_ShardPiece]] = {}
    checked_sharding: set = set()
    for coord in layout.mp_coords():
        mp_rank = layout.mp_rank_index(*coord)
        rank_layout = layout.rank_layout(*coord)
        derived_payload = rank_layout.payload_numel
        if optimizer_layout == "per_param":
            dp_ranks = [0]
        elif source_cfg.zero_stage == 0:
            dp_ranks = [0]
        else:
            dp_ranks = list(range(source_cfg.dp))
        for dp_rank in dp_ranks:
            basename = naming.optim_states_name(dp_rank, mp_rank)
            rel = f"{tag}/{basename}"
            if not store.exists(rel):
                report.add(error(
                    "UCP022",
                    f"rank file absent; the provenance of dp_rank "
                    f"{dp_rank}'s bytes cannot be established",
                    location=rel,
                ))
                continue
            try:
                header = store.load_header(rel)
            except (SerializationError, OSError) as exc:
                report.add(error(
                    "UCP022", f"header unreadable: {exc}", location=rel
                ))
                continue

            _check_sharding_metadata(
                header, layout, checked_sharding, rel, report
            )
            if "param_states" in header:
                _collect_per_param_pieces(
                    header, coord, rel, pieces, report
                )
                continue
            meta = header.get("partition_meta")
            if meta is None:
                report.add(error(
                    "UCP022",
                    "header has no partition_meta; flat-partition bytes "
                    "cannot be traced",
                    location=rel,
                ))
                continue
            _collect_flat_pieces(
                header, meta, coord, rel, derived_payload, report, pieces
            )
    return pieces


def _check_sharding_metadata(
    header: Dict,
    layout: ModelParallelLayout,
    checked: set,
    rel: str,
    report: LintReport,
) -> None:
    """Padding-as-data detection on the recorded sharding metadata.

    A recorded ``unpadded_shape`` wider than the derived one claims
    structural padding rows as real data — StripPadding would then
    carry padding bytes into atoms and every target rank (UCP019).
    """
    for name, saved in sorted(header.get("sharding", {}).items()):
        if name in checked or name not in layout.shard_specs:
            continue
        checked.add(name)
        spec = layout.shard_specs[name]
        recorded = tuple(int(d) for d in saved.get("unpadded_shape", ()))
        derived = tuple(spec.unpadded_shape)
        if recorded and _numel(recorded) > _numel(derived):
            report.add(error(
                "UCP019",
                f"{name!r} records unpadded_shape {recorded} but the "
                f"model derives {derived}: "
                f"{_numel(recorded) - _numel(derived)} structural-padding "
                f"elements would flow into target data as if real",
                location=rel,
            ))


def _collect_per_param_pieces(
    header: Dict,
    coord: Tuple[int, int, int],
    rel: str,
    pieces: Dict[Tuple[str, Tuple[int, int, int]], List[_ShardPiece]],
    report: LintReport,
) -> None:
    """Megatron-classic per-parameter files: each state is a whole shard."""
    states = header["param_states"]
    for kind, _field in _KIND_FIELDS:
        shard_map = states.get(kind)
        if shard_map is None:
            report.add(error(
                "UCP022",
                f"param_states has no {kind!r} states; their provenance "
                f"cannot be established",
                location=rel,
            ))
            continue
        for name in sorted(shard_map):
            stub = shard_map[name]
            dtype = getattr(stub, "dtype", "float32")
            if kind == "fp32" and not _is_float32(dtype):
                report.add(error(
                    "UCP020",
                    f"{name!r} stored as {dtype}; target flat partitions "
                    f"are float32 — a widening copy is not byte "
                    f"provenance",
                    location=rel,
                ))
            if kind != "fp32":
                continue
            numel = _numel(getattr(stub, "shape", ()))
            pieces.setdefault((name, coord), []).append(_ShardPiece(
                shard_start=0,
                shard_end=numel,
                file=rel,
                field=f"param_states.fp32.{name}",
                file_start=0,
                dp_rank=0,
            ))


def _collect_flat_pieces(
    header: Dict,
    meta: Dict,
    coord: Tuple[int, int, int],
    rel: str,
    derived_payload: int,
    report: LintReport,
    pieces: Dict[Tuple[str, Tuple[int, int, int]], List[_ShardPiece]],
) -> None:
    """DeepSpeed-style flat files: segments intersected with the partition."""
    try:
        dp_rank = int(meta["dp_rank"])
        partition_numel = int(meta["partition_numel"])
        flat_numel = int(meta["flat_numel"])
        segments = meta["segments"]
    except (KeyError, TypeError, ValueError) as exc:
        report.add(error(
            "UCP022", f"partition_meta incomplete: {exc}", location=rel
        ))
        return

    # the flat arrays themselves: dtype and extent, per state kind
    stored_numel = partition_numel
    for kind, field in _KIND_FIELDS:
        stub = header.get(field)
        if stub is None:
            report.add(error(
                "UCP022",
                f"flat array {field!r} missing; its bytes cannot be "
                f"traced",
                location=rel,
            ))
            continue
        dtype = getattr(stub, "dtype", "float32")
        if not _is_float32(dtype):
            report.add(error(
                "UCP020",
                f"{field} stored as {dtype}; flat fp32 partitions must "
                f"be float32 for byte-exact provenance",
                location=rel,
            ))
        if kind == "fp32":
            stored_numel = _numel(getattr(stub, "shape", ()))

    part_start = dp_rank * partition_numel
    part_end = part_start + partition_numel
    payload_end = min(derived_payload, flat_numel)

    for segment in segments:
        try:
            name = segment["name"]
            seg_start = int(segment["offset"])
            seg_end = seg_start + int(segment["numel"])
        except (KeyError, TypeError, ValueError) as exc:
            report.add(error(
                "UCP022", f"segment table entry unreadable: {exc}",
                location=rel,
            ))
            continue
        if seg_end > payload_end:
            leak_lo = max(seg_start, payload_end)
            report.add(error(
                "UCP019",
                f"segment {name!r} claims flat {_byte_range(leak_lo, seg_end)} "
                f"inside the alignment-padding tail (payload ends at byte "
                f"{payload_end * FP32_BYTES}): padding bytes would flow "
                f"into target data",
                location=rel,
            ))
        start = max(seg_start, part_start)
        end = min(seg_end, part_end)
        if start >= end:
            continue
        file_start = start - part_start
        file_end = end - part_start
        if file_end > stored_numel:
            report.add(error(
                "UCP021",
                f"segment {name!r} needs partition "
                f"{_byte_range(file_start, file_end)} but the stored flat "
                f"array ends at byte {stored_numel * FP32_BYTES}",
                location=rel,
            ))
            end = min(end, part_start + stored_numel)
            if start >= end:
                continue
            file_end = end - part_start
        pieces.setdefault((name, coord), []).append(_ShardPiece(
            shard_start=start - seg_start,
            shard_end=end - seg_start,
            file=rel,
            field="fp32_flat_partition",
            file_start=file_start,
            dp_rank=dp_rank,
        ))


def _assemble_shard_intervals(
    name: str,
    coord: Tuple[int, int, int],
    shard_numel: int,
    shard_pieces: List[_ShardPiece],
    report: LintReport,
) -> List[_ShardPiece]:
    """Prove one coord's dp pieces tile its shard exactly once.

    The static twin of ``ops._assemble_shard``: gaps are UCP017
    (a target byte would stay uninitialized), overlaps are UCP018
    (a byte written twice — last-writer-wins corruption at runtime),
    pieces past the shard extent are UCP021.
    """
    pp, sp, tp = coord
    where = f"{name}@pp={pp}.sp={sp}.tp={tp}"
    ordered = sorted(
        shard_pieces, key=lambda p: (p.shard_start, p.shard_end, p.file)
    )
    kept: List[_ShardPiece] = []
    cursor = 0
    for piece in ordered:
        if piece.shard_end > shard_numel:
            report.add(error(
                "UCP021",
                f"fragment from {piece.file} covers shard "
                f"{_byte_range(piece.shard_start, piece.shard_end)} but the "
                f"shard ends at byte {shard_numel * FP32_BYTES}",
                location=where,
            ))
        if piece.shard_start > cursor:
            report.add(error(
                "UCP017",
                f"shard {_byte_range(cursor, piece.shard_start)} is covered "
                f"by no source fragment (next fragment from {piece.file})",
                location=where,
            ))
        elif piece.shard_start < cursor:
            prev = kept[-1] if kept else None
            other = f" and {prev.file}" if prev is not None else ""
            report.add(error(
                "UCP018",
                f"shard {_byte_range(piece.shard_start, min(cursor, piece.shard_end))} "
                f"is written twice (fragments from {piece.file}{other})",
                location=where,
            ))
        kept.append(piece)
        cursor = max(cursor, piece.shard_end)
    if cursor < shard_numel:
        report.add(error(
            "UCP017",
            f"shard {_byte_range(cursor, shard_numel)} is covered by no "
            f"source fragment",
            location=where,
        ))
    return kept


_Copy = Tuple[int, Tuple[int, int, int], List[_ShardPiece]]
"""``(tp rank, mp coord, assembled dp pieces)`` of one shard copy."""


def _map_to_consolidated(
    spec: ShardSpec, tp_degree: int, copies: Sequence[_Copy]
) -> ExtentTable:
    """Map shard copies' dp pieces into consolidated space, as one table.

    Each copy's pieces and its tp rank's run table
    (:func:`~repro.core.intervals.shard_runs`) are two tilings of one
    shard; their intersection, shifted through the runs, is the copy's
    extents.
    """
    sources: List[_Source] = []
    if is_identity_map(spec, tp_degree):
        # the shard *is* the consolidated tensor (every parameter of a
        # tp1 source, every non-fragment pattern): pieces map through
        # unchanged, no table and no numpy dispatch
        full_numel = _numel(spec.logical_shape)
        rows = []
        for _, coord, pieces in copies:
            for piece in pieces:
                lo = max(piece.shard_start, 0)
                hi = min(piece.shard_end, full_numel)
                if lo < hi:
                    rows.append((
                        lo, hi, piece.file,
                        piece.file_start + (lo - piece.shard_start),
                        len(sources),
                    ))
                    sources.append(
                        (piece.file, piece.field, coord, piece.dp_rank)
                    )
        return ExtentTable.from_rows(rows, sources)
    parts = []
    for tp_rank, coord, pieces in copies:
        if not pieces:
            continue
        runs = shard_runs(spec, tp_degree, tp_rank)
        p_lo, p_hi, p_file = np.array(
            [(p.shard_start, p.shard_end, p.file_start) for p in pieces],
            dtype=np.int64,
        ).T
        piece, run, lo, hi = intersect_tilings(
            p_lo, p_hi, runs.shard_start, runs.shard_start + runs.length
        )
        full_start = runs.full_start[run] + (lo - runs.shard_start[run])
        parts.append((
            full_start,
            full_start + (hi - lo),
            p_file[piece] + (lo - p_lo[piece]),
            piece + len(sources),
        ))
        sources.extend((p.file, p.field, coord, p.dp_rank) for p in pieces)
    if not parts:
        return ExtentTable.from_rows([], sources)
    full_start, full_end, file_start, source = (
        np.concatenate(cols) for cols in zip(*parts)
    )
    order = np.argsort(full_start, kind="stable")
    starts = full_start[order]
    if not (starts[1:] > starts[:-1]).all():
        # two extents start together (an unsound source): order by the
        # whole (full_start, full_end, file) key the diagnostics follow
        names = sorted({src[0] for src in sources})
        file_rank = np.array(
            [names.index(src[0]) for src in sources], dtype=np.int64
        )
        order = np.lexsort((file_rank[source], full_end, full_start))
    return ExtentTable(
        full_start[order], full_end[order], file_start[order],
        source[order], sources,
    )


def _compose_param(
    name: str,
    spec: ShardSpec,
    tp_degree: int,
    by_coord: Dict[Tuple[int, int, int], List[_ShardPiece]],
    report: LintReport,
) -> ParamProvenance:
    """Union selection + shard -> consolidated mapping for one parameter."""
    shard_numel: Dict[Tuple[int, int, int], int] = {}
    for coord in by_coord:
        if spec.pattern == PATTERN_FRAGMENT:
            try:
                shard_numel[coord] = _numel(spec.shard_shape(tp_degree))
            except ValueError:
                shard_numel[coord] = _numel(spec.logical_shape)
        else:
            shard_numel[coord] = _numel(spec.logical_shape)

    assembled = {
        coord: _assemble_shard_intervals(
            name, coord, shard_numel[coord], by_coord[coord], report
        )
        for coord in sorted(by_coord)
    }

    # Union selection, mirroring ops.union exactly: fragment takes the
    # lowest (pp, sp) copy per tp rank; everything else takes the
    # lowest coordinate (params_to_average reads all copies, but each
    # copy must individually satisfy the theorems, which the per-shard
    # assembly above already proved).
    selected: List[Tuple[int, Tuple[int, int, int]]] = []
    if spec.pattern == PATTERN_FRAGMENT and tp_degree > 1:
        per_tp: Dict[int, Tuple[int, int, int]] = {}
        for coord in sorted(by_coord):
            per_tp.setdefault(coord[2], coord)
        for tp_rank in range(tp_degree):
            if tp_rank not in per_tp:
                try:
                    missing = _numel(spec.shard_shape(tp_degree))
                except ValueError:
                    missing = 0
                report.add(error(
                    "UCP017",
                    f"no source rank holds TP shard {tp_rank} of "
                    f"{tp_degree}; {_byte_range(0, missing)} of the shard "
                    f"have no provenance",
                    location=name,
                ))
                continue
            selected.append((tp_rank, per_tp[tp_rank]))
    else:
        if by_coord:
            coords = sorted(by_coord)
            if spec.pattern == PATTERN_UNIQUE and len(coords) > 1:
                report.add(error(
                    "UCP018",
                    f"unique parameter held by {len(coords)} ranks "
                    f"{coords}: consolidated bytes would be written "
                    f"{len(coords)} times",
                    location=name,
                ))
            selected.append((0, coords[0]))

    extents = _map_to_consolidated(
        spec, tp_degree,
        [(tp_rank, coord, assembled[coord]) for tp_rank, coord in selected],
    )

    # non-selected copies, mapped through the same runs as their tp
    # rank: union discards them (or averages / verifies them, pattern
    # permitting), but a read plan must know where their bytes live
    selected_coords = {coord for _, coord in selected}
    replicas = {
        coord: _map_to_consolidated(
            spec, tp_degree, [(coord[2], coord, assembled[coord])]
        )
        for coord in sorted(by_coord)
        if coord not in selected_coords
    }

    # consolidated-space exclusivity across selected shards: a sound
    # fragmenter partitions the space, so any overlap here means the
    # recorded metadata stitched two sources onto the same bytes
    if len(extents) > 1:
        reach = np.maximum.accumulate(extents.full_end)
        for i in np.flatnonzero(extents.full_start[1:] < reach[:-1]) + 1:
            extent = extents.extent(i)
            end = min(int(reach[i - 1]), extent.full_end)
            report.add(error(
                "UCP018",
                f"consolidated "
                f"{_byte_range(extent.full_start, end)} "
                f"written twice (second writer: {extent.chain(extent.full_start, end)})",
                location=name,
            ))

    return ParamProvenance(
        name=name,
        spec=spec,
        extents=extents,
        data=data_intervals(spec),
        replicas=replicas,
    )


def analyze_source(
    store: ObjectStore,
    tag: str,
    model_cfg: ModelConfig,
    source_cfg: ParallelConfig,
    optimizer_layout: str = "flat",
) -> ProvenanceAnalysis:
    """Build the source-side provenance map from rank-file headers.

    Proves, per parameter, that the source fragments tile every shard
    and the consolidated data region exactly once with no padding
    reads; the returned analysis carries the interval maps a target
    check (or :meth:`ProvenanceAnalysis.explain`) composes further.
    """
    report = LintReport(subject=f"provenance {store.base}/{tag}")
    layout = ModelParallelLayout(model_cfg, source_cfg)
    pieces = _read_source_pieces(
        store, tag, layout, source_cfg, optimizer_layout, report
    )

    by_param: Dict[str, Dict[Tuple[int, int, int], List[_ShardPiece]]] = {}
    for (name, coord), shard_pieces in pieces.items():
        by_param.setdefault(name, {})[coord] = shard_pieces

    params: Dict[str, ParamProvenance] = {}
    for name in sorted(layout.shard_specs):
        spec = layout.shard_specs[name]
        coords = by_param.get(name)
        if not coords:
            total = _numel(spec.unpadded_shape)
            report.add(error(
                "UCP017",
                f"no source fragment of any rank supplies {name!r}; all "
                f"{_byte_range(0, total)} of its data lack provenance",
                location=name,
            ))
            params[name] = ParamProvenance(
                name=name, spec=spec, extents=[],
                data=data_intervals(spec),
            )
            continue
        params[name] = _compose_param(
            name, spec, source_cfg.tp, coords, report
        )
        # coverage of the consolidated data region (padding excluded —
        # it is *allowed* to be uncovered, and must be stripped)
        missing = _subtract_intervals(
            params[name].data, params[name].covered()
        )
        for lo, hi in missing:
            report.add(error(
                "UCP017",
                f"consolidated data {_byte_range(lo, hi)} covered by no "
                f"source fragment",
                location=name,
            ))
    for name in sorted(set(by_param) - set(layout.shard_specs)):
        report.add(error(
            "UCP022",
            f"source fragments reference parameter {name!r} that the "
            f"model config does not derive; their destination is "
            f"unverifiable",
            location=name,
        ))
    return ProvenanceAnalysis(model_cfg, source_cfg, params, report)


def analyze_ucp_source(
    store: ObjectStore, metadata: Optional[UCPMetadata] = None
) -> ProvenanceAnalysis:
    """Provenance map of an already-converted UCP directory.

    Atoms are consolidated by construction, so each present atom
    supplies its full data region; missing atoms, short extents
    (UCP021), and non-fp32 states (UCP020) are the remaining dataflow
    hazards before target re-slicing.
    """
    report = LintReport(subject=f"provenance {store.base}")
    if metadata is None:
        metadata = UCPMetadata.load(store)
    model_cfg = ModelConfig.from_dict(metadata.model_config)
    source_cfg = ParallelConfig.from_dict(metadata.source_parallel_config)
    layout = ModelParallelLayout(model_cfg, source_cfg)

    params: Dict[str, ParamProvenance] = {}
    for name in sorted(layout.shard_specs):
        spec = layout.shard_specs[name]
        data = data_intervals(spec)
        rel = f"atoms/{name}/fp32.npt"
        total_data = sum(hi - lo for lo, hi in data)
        if name not in metadata.params or not store.exists(rel):
            report.add(error(
                "UCP017",
                f"no atom supplies {name!r}; all "
                f"{_byte_range(0, total_data)} of its data lack "
                f"provenance",
                location=name,
            ))
            params[name] = ParamProvenance(name, spec, [], data)
            continue
        try:
            header = store.load_header(rel)
        except (SerializationError, OSError) as exc:
            report.add(error("UCP022", f"header unreadable: {exc}", rel))
            params[name] = ParamProvenance(name, spec, [], data)
            continue
        stub = header.get("values")
        dtype = getattr(stub, "dtype", "float32")
        if not _is_float32(dtype):
            report.add(error(
                "UCP020",
                f"atom state stored as {dtype}; targets load float32",
                location=rel,
            ))
        numel = _numel(getattr(stub, "shape", ()))
        if numel < total_data:
            report.add(error(
                "UCP021",
                f"atom holds {numel * FP32_BYTES} bytes but the data "
                f"region needs {total_data * FP32_BYTES}",
                location=rel,
            ))
        # atoms store the unpadded tensor: its elements map onto the
        # padded consolidated data region in order
        extents: List[SourceExtent] = []
        consumed = 0
        for lo, hi in data:
            take = min(hi - lo, max(0, numel - consumed))
            if take <= 0:
                break
            extents.append(SourceExtent(
                full_start=lo,
                full_end=lo + take,
                file=rel,
                field="values",
                file_start=consumed,
                coord=(0, 0, 0),
                dp_rank=0,
            ))
            consumed += take
        params[name] = ParamProvenance(name, spec, extents, data)
        missing = _subtract_intervals(data, _merge_intervals(
            [(e.full_start, e.full_end) for e in extents]
        ))
        for lo, hi in missing:
            report.add(error(
                "UCP017",
                f"consolidated data {_byte_range(lo, hi)} covered by no "
                f"atom bytes",
                location=name,
            ))
    return ProvenanceAnalysis(model_cfg, source_cfg, params, report)


def check_target_provenance(
    analysis: ProvenanceAnalysis,
    target_cfg: ParallelConfig,
) -> LintReport:
    """Prove the three theorems for every target tensor of a plan.

    Re-slices the source interval maps under the target config exactly
    as ``Load`` would — target partition slice -> target shard elements
    -> consolidated elements — and checks each target data byte is
    supplied by exactly one source byte.  Diagnostics carry full
    provenance chains naming the target rank, tensor, and byte range.
    """
    report = LintReport(
        subject=f"provenance {analysis.source_cfg.describe()} -> "
                f"{target_cfg.describe()}"
    )
    layout = ModelParallelLayout(analysis.model_cfg, target_cfg)
    report.extend(layout.tiling_diagnostics())

    reported_gaps: set = set()
    for coord in layout.mp_coords():
        pp, sp, tp = coord
        rank_layout = layout.rank_layout(*coord)
        for dp_rank in range(target_cfg.dp):
            where = f"target:pp={pp}.sp={sp}.tp={tp}.dp={dp_rank}"
            for piece in rank_layout.slices_in_partition(dp_rank):
                prov = analysis.params.get(piece.name)
                if prov is None:
                    key = (piece.name, "missing")
                    if key not in reported_gaps:
                        reported_gaps.add(key)
                        report.add(error(
                            "UCP017",
                            f"target needs {piece.name!r} but the source "
                            f"provides no fragments for it",
                            location=f"{where}/{piece.name}",
                        ))
                    continue
                runs = analysis.runs(piece.name, target_cfg.tp, tp)
                _, run, lo, hi = intersect_tilings(
                    np.array([piece.shard_start]),
                    np.array([piece.shard_end]),
                    runs.shard_start,
                    runs.shard_start + runs.length,
                )
                full = runs.full_start[run] + (lo - runs.shard_start[run])
                for full_lo, full_hi in zip(
                    full.tolist(), (full + (hi - lo)).tolist()
                ):
                    needed = [
                        iv for iv in (
                            (max(full_lo, d_lo), min(full_hi, d_hi))
                            for d_lo, d_hi in prov.data
                        )
                        if iv[0] < iv[1]
                    ]
                    missing = _subtract_intervals(needed, prov.covered())
                    for m_lo, m_hi in missing:
                        key = (piece.name, m_lo, m_hi)
                        if key in reported_gaps:
                            continue
                        reported_gaps.add(key)
                        part_lo = piece.local_start + (
                            (m_lo - full_lo) if m_lo >= full_lo else 0
                        )
                        report.add(error(
                            "UCP017",
                            f"target partition "
                            f"{_byte_range(part_lo, part_lo + (m_hi - m_lo))} "
                            f"of {piece.name!r} <- consolidated "
                            f"{_byte_range(m_lo, m_hi)} <- <no source "
                            f"byte>: the interchange would leave these "
                            f"bytes uninitialized",
                            location=f"{where}/{piece.name}",
                        ))
    return report


def check_source_provenance(
    store: ObjectStore,
    tag: str,
    model_cfg: ModelConfig,
    source_cfg: ParallelConfig,
    optimizer_layout: str = "flat",
) -> LintReport:
    """Source-side provenance theorems only (the converter's pre-pass).

    Exactly what ``ucp_convert`` needs proven before any payload IO:
    the Extract/Union dataflow will touch every consolidated data byte
    exactly once and never read padding as data.
    """
    return analyze_source(
        store, tag, model_cfg, source_cfg, optimizer_layout
    ).report


def check_plan_provenance(
    source_dir: str,
    target_cfg: ParallelConfig,
    tag: Optional[str] = None,
    store: Optional[ObjectStore] = None,
) -> LintReport:
    """Full byte-provenance proof for a source -> target interchange.

    Accepts either a distributed checkpoint directory (rank-file
    headers drive the map) or a UCP directory (atom headers drive it);
    composes source and target theorems into one report.  Tensor
    payloads are never read.
    """
    if store is None:
        store = ObjectStore(source_dir)
    if store.exists(UCP_META_FILE):
        analysis = analyze_ucp_source(store)
    else:
        src_tag = resolve_tag(store, tag)
        job = store.load(f"{src_tag}/{naming.JOB_CONFIG_FILE}")
        model_cfg = ModelConfig.from_dict(job["model_config"])
        source_cfg = ParallelConfig.from_dict(job["parallel_config"])
        analysis = analyze_source(
            store,
            src_tag,
            model_cfg,
            source_cfg,
            job.get("optimizer_layout", "flat"),
        )
    report = LintReport(
        subject=f"provenance {analysis.source_cfg.describe()} -> "
                f"{target_cfg.describe()}"
    )
    report.extend(analysis.report.diagnostics)
    report.extend(
        check_target_provenance(analysis, target_cfg).diagnostics
    )
    return report


def analyze_interchange(
    source_dir: str,
    target_cfg: ParallelConfig,
    tag: Optional[str] = None,
    store: Optional[ObjectStore] = None,
) -> ProvenanceAnalysis:
    """Like :func:`check_plan_provenance` but returns the full analysis.

    The analysis object keeps the interval maps, so callers can render
    provenance chains (:meth:`ProvenanceAnalysis.explain`) after the
    report — the CLI's ``lint-plan --provenance`` uses the report, the
    docs' worked example uses the chains.
    """
    if store is None:
        store = ObjectStore(source_dir)
    if store.exists(UCP_META_FILE):
        analysis = analyze_ucp_source(store)
    else:
        src_tag = resolve_tag(store, tag)
        job = store.load(f"{src_tag}/{naming.JOB_CONFIG_FILE}")
        analysis = analyze_source(
            store,
            src_tag,
            ModelConfig.from_dict(job["model_config"]),
            ParallelConfig.from_dict(job["parallel_config"]),
            job.get("optimizer_layout", "flat"),
        )
    analysis.report.extend(
        check_target_provenance(analysis, target_cfg).diagnostics
    )
    return analysis
