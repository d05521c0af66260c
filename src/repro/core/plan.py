"""The conversion planner: source rank-file headers -> one immutable plan.

The paper's converter (Algorithm 1) is a plan — which source bytes
become which atom bytes — followed by byte movement.  This module is the
only code that reads source headers for a conversion and turns them into
that plan (the DCP shape: planner -> immutable plan of read items ->
storage reader); :mod:`repro.core.convert` executes it and
:mod:`repro.analysis.provenance` checks it.

1. **Header pass + composition** (:func:`analyze_source`) — every rank
   file's header is decoded exactly once (``load_index_sized``: partition
   metadata, tensor index and file size from one ``open``; the payload is
   never read).  Its ``(file, byte-offset, dtype)`` fragments compose —
   mirroring ``Extract``/``Union`` selection semantics exactly — into an
   interval map over each parameter's consolidated (padded logical) flat
   element space, every interval carrying its source-byte provenance
   (:class:`ExtentTable`: int64 columns from here into the read plans;
   :class:`SourceExtent` objects exist only where a diagnostic or a
   provenance chain names one).  The UCP017-UCP022 findings are made
   *while building* this map, so what ``repro lint-plan --provenance``
   prints and what the conversion pre-flight enforces are findings about
   the object the executor runs, not about a parallel derivation.
2. **Resolution** — job-wide state asserted rank-uniform
   (:func:`_check_cross_rank_consistency`) and every spec resolved
   through the UCP-language program (:func:`_resolve_specs`), both from
   the headers of step 1.
3. **Lowering** (:func:`lower_read_plans`, :func:`_plan_reads`) — the
   maps of the atoms still to convert are clipped to their non-padding
   data and grouped into :class:`ReadItem` columns per ``(file, field)``,
   each carrying its source slice's byte range per state kind; consumer
   counts, manifest entries and file sizes complete the
   :class:`ConversionPlan`, which nothing writes to afterwards.

The only tensor-shaped computation is one ``int64`` index map per
``fragment_params`` *shape class* — ``(fragmenter, logical shape, TP
degree, rank)``, shared by every layer — executed through the *real*
fragmenter once and kept as a read-only columnar run table by
:mod:`repro.core.intervals`, so the plan cannot drift from the
executable sharding semantics and disk IO stays header-only (kilobytes
for a multi-terabyte checkpoint).

Nothing here imports the checker or the executor: this module is first
loaded while both are still initialising (``core.convert`` ->
``repro.analysis`` -> ``analysis.provenance`` -> here).
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.diagnostics import LayoutLintError, LintReport, error
from repro.ckpt import manifest as manifest_mod
from repro.ckpt import naming
from repro.core.atom import STATE_KINDS
from repro.core.errors import PatternMatchError, UCPFormatError
from repro.core.intervals import (
    data_bounds,
    data_intervals,
    intersect_tilings,
    is_identity_map,
    merge_intervals,
    numel,
    shard_runs,
    subtract_intervals,
)
from repro.core.patterns import PatternProgram
from repro.dist.topology import ParallelConfig
from repro.models.configs import ModelConfig
from repro.parallel.layout import ModelParallelLayout
from repro.parallel.tp import (
    PATTERN_FRAGMENT,
    PATTERN_REPLICATED,
    PATTERN_TO_AVERAGE,
    PATTERN_UNIQUE,
    ShardSpec,
)
from repro.storage.serializer import SerializationError, TensorIndexEntry
from repro.storage.store import ObjectStore

FP32_BYTES = 4
"""Flat partitions are fp32; provenance byte ranges are elements * 4."""


def byte_range(start: int, end: int) -> str:
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
    file)``.  The int64 columns are what :func:`lower_read_plans` lowers
    into read items; iterating (or :meth:`extent` / :meth:`overlapping`)
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
            covered=merge_intervals([(r[0], r[1]) for r in rows]),
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
    every copy; ``replicated_params`` must compare them), so a plan
    knows the *full* byte cost of each policy.
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


@dataclasses.dataclass
class ProvenanceAnalysis:
    """The composed source map: per-parameter interval maps plus the
    report of every finding made while building them.

    ``params`` maps parameter name -> :class:`ParamProvenance`;
    :func:`repro.analysis.provenance.explain` renders a full
    target-byte -> source-byte chain from them, the artifact the
    diagnostics embed and ``docs/ANALYSIS.md`` documents.  An analysis
    of a distributed checkpoint (:func:`analyze_source`) also keeps what
    its one header pass decoded — ``layout`` (the source's
    :class:`~repro.parallel.layout.ModelParallelLayout`), ``headers``
    (rank file -> index tree, tensor leaves as
    :class:`~repro.storage.serializer.TensorIndexEntry`) and
    ``file_sizes`` (rank file -> on-disk bytes) — so resolution and
    lowering never open a rank file again.
    """

    model_cfg: ModelConfig
    source_cfg: ParallelConfig
    params: Dict[str, ParamProvenance]
    report: LintReport
    layout: Optional[ModelParallelLayout] = None
    headers: Dict[str, Dict] = dataclasses.field(default_factory=dict)
    file_sizes: Dict[str, int] = dataclasses.field(default_factory=dict)


_Pieces = Dict[Tuple[str, Tuple[int, int, int]], List[_ShardPiece]]
"""Shard-space pieces keyed by ``(param name, mp coord)``."""


def _read_source_pieces(
    store: ObjectStore,
    tag: str,
    layout: ModelParallelLayout,
    source_cfg: ParallelConfig,
    optimizer_layout: str,
    report: LintReport,
) -> Tuple[_Pieces, Dict[str, Dict], Dict[str, int]]:
    """The one header pass over every source optimizer-state file.

    Returns shard-space pieces keyed by ``(param name, mp coord)`` plus
    each decoded file's index tree and on-disk size, reporting dtype
    violations (UCP020), out-of-extent references (UCP021),
    alignment-padding reads (UCP019), padding-as-data metadata (UCP019),
    and unreadable headers (UCP022) along the way.
    """
    pieces: _Pieces = {}
    headers: Dict[str, Dict] = {}
    file_sizes: Dict[str, int] = {}
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
            try:
                header, file_sizes[rel] = store.load_index_sized(rel)
            except FileNotFoundError:
                report.add(error(
                    "UCP022",
                    f"rank file absent; the provenance of dp_rank "
                    f"{dp_rank}'s bytes cannot be established",
                    location=rel,
                ))
                continue
            except (SerializationError, OSError) as exc:
                report.add(error(
                    "UCP022", f"header unreadable: {exc}", location=rel
                ))
                continue
            headers[rel] = header

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
    return pieces, headers, file_sizes


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
        if recorded and numel(recorded) > numel(derived):
            report.add(error(
                "UCP019",
                f"{name!r} records unpadded_shape {recorded} but the "
                f"model derives {derived}: "
                f"{numel(recorded) - numel(derived)} structural-padding "
                f"elements would flow into target data as if real",
                location=rel,
            ))


def _collect_per_param_pieces(
    header: Dict,
    coord: Tuple[int, int, int],
    rel: str,
    pieces: _Pieces,
    report: LintReport,
) -> None:
    """Megatron-classic per-parameter files: each state is a whole shard."""
    states = header["param_states"]
    for kind in STATE_KINDS:
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
            if kind == "fp32" and np.dtype(dtype) != np.float32:
                report.add(error(
                    "UCP020",
                    f"{name!r} stored as {dtype}; target flat partitions "
                    f"are float32 — a widening copy is not byte "
                    f"provenance",
                    location=rel,
                ))
            if kind != "fp32":
                continue
            pieces.setdefault((name, coord), []).append(_ShardPiece(
                shard_start=0,
                shard_end=numel(getattr(stub, "shape", ())),
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
    pieces: _Pieces,
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
    for kind in STATE_KINDS:
        field = naming.FLAT_STATE_FIELDS[kind]
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
        if np.dtype(dtype) != np.float32:
            report.add(error(
                "UCP020",
                f"{field} stored as {dtype}; flat fp32 partitions must "
                f"be float32 for byte-exact provenance",
                location=rel,
            ))
        if kind == "fp32":
            stored_numel = numel(getattr(stub, "shape", ()))

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
                f"segment {name!r} claims flat {byte_range(leak_lo, seg_end)} "
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
                f"{byte_range(file_start, file_end)} but the stored flat "
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
            field=naming.FLAT_STATE_FIELDS["fp32"],
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
                f"{byte_range(piece.shard_start, piece.shard_end)} but the "
                f"shard ends at byte {shard_numel * FP32_BYTES}",
                location=where,
            ))
        if piece.shard_start > cursor:
            report.add(error(
                "UCP017",
                f"shard {byte_range(cursor, piece.shard_start)} is covered "
                f"by no source fragment (next fragment from {piece.file})",
                location=where,
            ))
        elif piece.shard_start < cursor:
            prev = kept[-1] if kept else None
            other = f" and {prev.file}" if prev is not None else ""
            report.add(error(
                "UCP018",
                f"shard {byte_range(piece.shard_start, min(cursor, piece.shard_end))} "
                f"is written twice (fragments from {piece.file}{other})",
                location=where,
            ))
        kept.append(piece)
        cursor = max(cursor, piece.shard_end)
    if cursor < shard_numel:
        report.add(error(
            "UCP017",
            f"shard {byte_range(cursor, shard_numel)} is covered by no "
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
        full_numel = numel(spec.logical_shape)
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
    # the source layout was derived before any header was read, so the
    # fragmenter is known to divide the tp degree
    shard_numel = numel(spec.shard_shape(tp_degree))
    assembled = {
        coord: _assemble_shard_intervals(
            name, coord, shard_numel, by_coord[coord], report
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
                report.add(error(
                    "UCP017",
                    f"no source rank holds TP shard {tp_rank} of "
                    f"{tp_degree}; {byte_range(0, shard_numel)} of the shard "
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
                f"{byte_range(extent.full_start, end)} "
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
    check (or :func:`repro.analysis.provenance.explain`) composes
    further and :func:`lower_read_plans` lowers, together with the
    layout, index trees and file sizes of its one header pass.
    """
    report = LintReport(subject=f"provenance {store.base}/{tag}")
    layout = ModelParallelLayout(model_cfg, source_cfg)
    pieces, headers, file_sizes = _read_source_pieces(
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
            total = numel(spec.unpadded_shape)
            report.add(error(
                "UCP017",
                f"no source fragment of any rank supplies {name!r}; all "
                f"{byte_range(0, total)} of its data lack provenance",
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
        missing = subtract_intervals(
            params[name].data, params[name].covered()
        )
        for lo, hi in missing:
            report.add(error(
                "UCP017",
                f"consolidated data {byte_range(lo, hi)} covered by no "
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
    return ProvenanceAnalysis(
        model_cfg, source_cfg, params, report, layout, headers, file_sizes
    )


def _rank_label(rel: str) -> str:
    """Human rank coordinates of an optimizer-state file path."""
    match = naming.OPTIM_STATES_RE.match(rel.split("/")[-1])
    if match is None:
        return rel
    return f"dp_rank {int(match.group(1))} / mp_rank {int(match.group(2))}"


def _diverging_keys(a: Optional[Dict], b: Optional[Dict]) -> List[str]:
    """Keys on which two (possibly absent) state dicts disagree."""
    if a is None or b is None:
        return ["<entire state>"]
    return sorted(
        k for k in set(a) | set(b)
        if k not in a or k not in b or a[k] != b[k]
    )


def _check_cross_rank_consistency(
    analysis: ProvenanceAnalysis,
) -> Tuple[Dict, Optional[Dict], int]:
    """Adam hyperparameters and loss-scaler state, asserted rank-uniform,
    and the furthest optimizer step any rank recorded.

    Every rank file records the job-wide Adam hyperparameters and loss
    scaler; a disagreement means the tag mixes incompatible optimizer
    states (e.g. files spliced from different runs) and silently
    picking one would corrupt the converted checkpoint.  Each
    divergence is reported as a UCP015 diagnostic naming *which* ranks
    and *which* hyperparameter disagree, aggregated into one
    :class:`LayoutLintError` so no mismatch hides behind another.
    """
    report = LintReport(subject="cross-rank consistency")
    files = sorted(analysis.headers)
    ref_rel = files[0]
    adam_hyper: Dict = analysis.headers[ref_rel]["adam"]
    scaler_state: Optional[Dict] = analysis.headers[ref_rel].get("loss_scaler")
    for rel in files[1:]:
        payload = analysis.headers[rel]
        adam = payload["adam"]
        if adam != adam_hyper:
            keys = _diverging_keys(adam_hyper, adam)
            detail = ", ".join(
                f"{k}: {adam_hyper.get(k)!r} vs {adam.get(k)!r}" for k in keys
            )
            report.add(error(
                "UCP015",
                f"adam hyperparameters disagree across rank files: "
                f"{_rank_label(rel)} differs from {_rank_label(ref_rel)} "
                f"on {detail}; the tag mixes optimizer states from "
                f"incompatible runs",
                location=rel,
            ))
        scaler = payload.get("loss_scaler")
        if scaler != scaler_state:
            keys = _diverging_keys(scaler_state, scaler)
            report.add(error(
                "UCP015",
                f"loss-scaler state disagrees across rank files: "
                f"{_rank_label(rel)} differs from {_rank_label(ref_rel)} "
                f"on {', '.join(keys)} ({scaler_state} vs {scaler}); the "
                f"tag mixes optimizer states from incompatible runs",
                location=rel,
            ))
    if not report.ok:
        raise LayoutLintError(report, prefix="source tag is inconsistent")
    optimizer_step = max(
        int(analysis.headers[rel]["optimizer_step"]) for rel in files
    )
    return adam_hyper, scaler_state, optimizer_step


def _placement(spec: ShardSpec) -> Tuple[str, object]:
    """Where a parameter's bytes live: pattern and fragmenter, averaged
    and replicated copies alike (a whole copy on every holder)."""
    averaged = spec.pattern == PATTERN_TO_AVERAGE
    return PATTERN_REPLICATED if averaged else spec.pattern, spec.fragmenter


def _resolve_specs(
    program: PatternProgram, analysis: ProvenanceAnalysis
) -> Dict[str, ShardSpec]:
    """Every analyzed parameter's spec through the UCP-language program,
    refused where its :func:`_placement` disagrees with the sharding
    recorded at save time (a program may average replicated copies
    instead of comparing them, never move bytes)."""
    shapes: Dict[str, Dict] = {}
    for rel in sorted(analysis.headers):
        for name, saved_spec in analysis.headers[rel]["sharding"].items():
            shapes[name] = saved_spec
    specs: Dict[str, ShardSpec] = {}
    for name in sorted(analysis.params):
        saved = shapes.get(name)
        if saved is None:
            raise UCPFormatError(f"no sharding metadata for {name!r}")
        spec = program.resolve_spec(
            name,
            tuple(saved["logical_shape"]),
            tuple(saved["unpadded_shape"]),
        )
        saved_spec = ShardSpec.from_dict(
            {k: saved[k] for k in
             ("pattern", "logical_shape", "unpadded_shape", "fragmenter")}
        )
        if _placement(saved_spec) != _placement(spec):
            raise PatternMatchError(
                f"pattern program classifies {name!r} as {spec.pattern} "
                f"({spec.fragmenter}), but the checkpoint was saved as "
                f"{saved_spec.pattern} ({saved_spec.fragmenter})"
            )
        specs[name] = spec
    return specs


@dataclasses.dataclass(frozen=True, eq=False)
class ReadItem:
    """All slices of one plan part targeting one ``(file, field)``, columnar.

    Row ``i`` of the three parallel int64 arrays says ``lengths[i]``
    elements starting at element ``file_starts[i]`` of the flat array
    ``field`` in ``file`` land at consolidated elements
    ``[full_starts[i], full_starts[i] + lengths[i])``.  Rows are sorted
    into sequential file order.  Keeping the plan columnar lets the
    converter bounds-check and scatter whole items with numpy index
    operations instead of per-slice Python loops — the per-range
    overhead that dominates conversion wall-clock at mini scale.

    ``ranges`` holds, per state kind (in
    :data:`~repro.core.atom.STATE_KINDS` order), the absolute ``(byte
    offset, byte length)`` inside ``file`` of the item's source slice:
    elements ``[file_starts[0], max(file_starts + lengths))`` of that
    kind's array, proven inside the array when the item was built.  The
    flat ``fp32``/``exp_avg``/``exp_avg_sq`` buffers share one segment
    map, so only the offset differs per kind.
    """

    file: str
    field: str
    file_starts: np.ndarray
    lengths: np.ndarray
    full_starts: np.ndarray
    ranges: Tuple[Tuple[int, int], ...]

    @property
    def planned_elements(self) -> int:
        """Total elements the item reads (per state kind)."""
        return int(self.lengths.sum())


@dataclasses.dataclass(frozen=True)
class ParamReadPlan:
    """Everything the converter reads for one parameter.

    ``primary`` covers the selected copies (what ``union`` consumes);
    ``copies`` the non-selected mp-coordinate replicas, in coordinate
    order, the pattern additionally demands (all of them for
    ``params_to_average`` and ``replicated_params``, none otherwise).
    All slices are pre-clipped to the parameter's non-padding data
    intervals, so a plan never reads a padding byte — the runtime
    enforcement of UCP019.
    """

    name: str
    pattern: str
    primary: Tuple[ReadItem, ...]
    copies: Tuple[Tuple[ReadItem, ...], ...]

    @property
    def files(self) -> Tuple[str, ...]:
        """Every source file any slice of this plan touches, sorted."""
        rels = {b.file for b in self.primary}
        for items in self.copies:
            rels.update(b.file for b in items)
        return tuple(sorted(rels))

    @property
    def planned_elements(self) -> int:
        """Total fp32 elements the plan reads (per state kind)."""
        total = sum(b.planned_elements for b in self.primary)
        for items in self.copies:
            total += sum(b.planned_elements for b in items)
        return total


@dataclasses.dataclass(frozen=True, eq=False)
class ConversionPlan:
    """What the per-atom fan-out executes, fixed before the first atom.

    Shared by every worker and never written after :func:`_plan_reads`
    returned it.  ``reads`` holds the atoms still to convert (a resumed
    run lowers only those) and ``order`` the order they fan out in;
    ``consumers`` counts, per touched source file, the atoms that read
    it — the source-file table drops a file when that many have
    released it — and ``last_use`` is the position in ``order`` of the
    last of them; ``entries`` is each touched file's commit-manifest
    record, checked while the file streams in; ``file_sizes`` its
    on-disk size as the header pass saw it.
    """

    specs: Dict[str, ShardSpec]
    reads: Dict[str, ParamReadPlan]
    order: Tuple[str, ...]
    consumers: Dict[str, int]
    last_use: Dict[str, int]
    entries: Dict[str, Optional[Dict]]
    file_sizes: Dict[str, int]


def _read_item(
    headers: Dict[str, Dict],
    rel: str,
    field: str,
    file_starts: np.ndarray,
    lengths: np.ndarray,
    full_starts: np.ndarray,
) -> ReadItem:
    """One (file, field) group of clipped slice rows, sorted by
    ``file_starts`` so the downstream scatter walks the file forward,
    with the byte range of its source slice resolved per state kind
    through the file's tensor index."""
    order = np.argsort(file_starts, kind="stable")
    file_starts, lengths = file_starts[order], lengths[order]
    lo = int(file_starts[0])
    hi = int((file_starts + lengths).max())
    tree = headers[rel]
    ranges: List[Tuple[int, int]] = []
    for kind in STATE_KINDS:
        node = None
        if field == naming.FLAT_STATE_FIELDS["fp32"]:
            node = tree.get(naming.FLAT_STATE_FIELDS[kind])
        elif field.startswith("param_states.fp32."):
            states = tree.get("param_states")
            if isinstance(states, dict):
                node = states.get(kind, {}).get(field[len("param_states.fp32."):])
        if not isinstance(node, TensorIndexEntry):
            raise UCPFormatError(
                f"{rel}: no {kind!r} tensor behind provenance field {field!r}"
            )
        if np.dtype(node.dtype) != np.float32:
            raise UCPFormatError(
                f"{rel}: {kind!r} state behind {field!r} stored as "
                f"{node.dtype}; conversion requires float32 "
                f"(byte-exact) state arrays"
            )
        try:
            ranges.append(node.element_range(lo, hi - lo))
        except SerializationError as exc:
            raise UCPFormatError(f"{rel}: {kind!r} state of {field!r}: {exc}") from exc
    return ReadItem(
        file=rel,
        field=field,
        file_starts=file_starts,
        lengths=lengths,
        full_starts=full_starts[order],
        ranges=tuple(ranges),
    )


def _build_blocks(
    extents: ExtentTable,
    rows_ext: np.ndarray,
    file_starts: np.ndarray,
    lengths: np.ndarray,
    full_starts: np.ndarray,
    headers: Dict[str, Dict],
) -> Tuple[ReadItem, ...]:
    """Group clipped slice rows into per-(file, field) read items.

    ``rows_ext`` maps each row to the extent (hence file/field) it was
    clipped from; items come out in the order the fragments were
    composed in.
    """
    groups: Dict[Tuple[str, str], int] = {}
    gid_of_source = [
        groups.setdefault(src[:2], len(groups)) for src in extents.sources
    ]
    if len(groups) == 1:
        # one source (file, field) for the whole part (a dp1 source, a
        # replica copy): every row is in the one group
        return (_read_item(
            headers, *next(iter(groups)), file_starts, lengths, full_starts
        ),)
    row_gid = np.array(gid_of_source, dtype=np.int64)[extents.source[rows_ext]]
    items: List[ReadItem] = []
    for (rel, field), gid in groups.items():
        mask = row_gid == gid
        if mask.any():
            items.append(_read_item(
                headers, rel, field,
                file_starts[mask], lengths[mask], full_starts[mask],
            ))
    return tuple(items)


_GROUP_STRIDE = np.int64(1) << 41
"""Element-space stride separating lowering jobs inside the one batched
searchsorted domain — far above any real parameter's element count."""


def _lower_batch(
    jobs: Sequence[Tuple[ExtentTable, Tuple[np.ndarray, np.ndarray]]],
    headers: Dict[str, Dict],
) -> List[Tuple[ReadItem, ...]]:
    """Clip many (extents, data bounds) jobs in one vectorized pass.

    Each job intersects its provenance extents with its sorted disjoint
    non-padding data intervals (:func:`~repro.core.intervals.intersect_tilings`).
    Every job's extent and data intervals are shifted into a private
    ``_GROUP_STRIDE``-wide window of one shared element space, so that
    single pass lowers the whole conversion's plans — the per-call
    numpy dispatch overhead that dominated per-parameter lowering is
    paid once, not once per (parameter, replica) pair.  The extents
    arrive columnar from the composition and stay so.
    """
    out: List[Tuple[ReadItem, ...]] = [() for _ in jobs]
    live = [
        (i, ext, d_lo, d_hi)
        for i, (ext, (d_lo, d_hi)) in enumerate(jobs)
        if len(ext) and d_lo.size
    ]
    if not live:
        return out
    index, tables, lows, highs = zip(*live)
    ext_counts = np.array([len(table) for table in tables], dtype=np.int64)
    d_counts = np.array([low.size for low in lows], dtype=np.int64)
    first_ext = np.concatenate(([0], np.cumsum(ext_counts)))
    bases = np.arange(len(live), dtype=np.int64) * _GROUP_STRIDE
    e_base = np.repeat(bases, ext_counts)
    e_lo = np.concatenate([table.full_start for table in tables]) + e_base
    e_hi = np.concatenate([table.full_end for table in tables]) + e_base
    f0 = np.concatenate([table.file_start for table in tables])
    d_base = np.repeat(bases, d_counts)
    d_lo = np.concatenate(lows) + d_base
    d_hi = np.concatenate(highs) + d_base
    ext, _, lo, hi = intersect_tilings(e_lo, e_hi, d_lo, d_hi)
    if ext.size == 0:
        return out
    lengths = hi - lo
    file_starts = f0[ext] + (lo - e_lo[ext])
    full_starts = lo - e_base[ext]
    # rows come out sorted by global extent index, so each job's rows
    # are one contiguous stretch
    cut = np.searchsorted(ext, first_ext)
    for k, gi in enumerate(index):
        a, b = int(cut[k]), int(cut[k + 1])
        if a == b:
            continue
        out[gi] = _build_blocks(
            tables[k],
            ext[a:b] - first_ext[k],
            file_starts[a:b],
            lengths[a:b],
            full_starts[a:b],
            headers,
        )
    return out


def lower_read_plans(
    analysis: ProvenanceAnalysis, patterns: Dict[str, str]
) -> Dict[str, ParamReadPlan]:
    """Lower provenance interval maps into per-parameter read plans.

    The maps were proven sound by the UCP017–UCP022 theorems (coverage,
    exclusivity, padding hygiene), so the lowered plans inherit the
    guarantee: executing exactly these preads touches every consolidated
    data byte of every selected copy once, and no padding byte ever.

    Args:
        analysis: a *clean* (``report.ok``) :func:`analyze_source`
            result; the byte ranges come from its index trees.
        patterns: the parameters to plan, each with its pattern from the
            resolved UCP-language program — a custom program may e.g.
            reclassify a replicated norm as ``params_to_average``, which
            changes *which* copies the plan must read.  Both read every
            copy: ``params_to_average`` to average them,
            ``replicated_params`` to bit-compare them.

    Raises:
        UCPFormatError: a planned slice has no float32 state array of
            every kind behind it, or reaches past the end of one.
    """
    jobs = []
    num_copies: Dict[str, int] = {}
    for name, pattern in patterns.items():
        prov = analysis.params[name]
        # one parameter's primary part and every replica copy clip
        # against the same (per shape class) data intervals
        bounds = data_bounds(prov.spec)
        copies: List[ExtentTable] = []
        if pattern in (PATTERN_TO_AVERAGE, PATTERN_REPLICATED):
            copies = [prov.replicas[coord] for coord in sorted(prov.replicas)]
        num_copies[name] = len(copies)
        jobs.extend((table, bounds) for table in [prov.extents] + copies)
    lowered = iter(_lower_batch(jobs, analysis.headers))
    plans: Dict[str, ParamReadPlan] = {}
    for name, pattern in patterns.items():
        plans[name] = ParamReadPlan(
            name=name,
            pattern=pattern,
            primary=next(lowered),
            copies=tuple(next(lowered) for _ in range(num_copies[name])),
        )
    return plans


def _fan_order(read_plans: Dict[str, ParamReadPlan]) -> Tuple[str, ...]:
    """The atoms in the order the fan-out runs them: each by the last
    source file it reads, then by its first and by its name, with files
    numbered by first use over the atoms sorted by the files they read.

    Sorting by the file *names* alone — ``zero_dp_rank_{d}_mp_rank_{m}``
    — puts every dp-0 file first: an atom straddling two dp partitions
    then loads dp-1 files that stay resident until their own group runs,
    after every dp-0 group.  Numbered by first use, the straddler's
    dp-1 files come right after its dp-0 ones, so their group runs
    next, the straddler first: it finishes the earlier group's files
    (their last consumer drops them) before its own are loaded.
    """
    number: Dict[str, int] = {}
    for name in sorted(read_plans, key=lambda n: (read_plans[n].files, n)):
        for rel in read_plans[name].files:
            number.setdefault(rel, len(number))

    def key(name: str) -> Tuple[int, int, str]:
        used = [number[rel] for rel in read_plans[name].files]
        return max(used, default=-1), min(used, default=-1), name

    return tuple(sorted(read_plans, key=key))


def _plan_reads(
    analysis: ProvenanceAnalysis,
    src_manifest: Dict,
    specs: Dict[str, ShardSpec],
    read_plans: Dict[str, ParamReadPlan],
) -> ConversionPlan:
    """Complete the plan: the fan-out order, each touched file's consumer
    count, manifest entry and size.  A file is loaded once by the first
    atom that needs it — verified against its manifest entry before any
    consumer sees a byte — and leaves when its last planned atom has
    scattered it."""
    consumers = collections.Counter(
        rel for plan in read_plans.values() for rel in plan.files
    )
    order = _fan_order(read_plans)
    last_use = {
        rel: position
        for position, name in enumerate(order)
        for rel in read_plans[name].files
    }
    return ConversionPlan(
        specs=specs,
        reads=read_plans,
        order=order,
        consumers=dict(consumers),
        last_use=last_use,
        entries={
            rel: manifest_mod.manifest_entry(src_manifest, rel.split("/")[-1])
            for rel in consumers
        },
        file_sizes={rel: analysis.file_sizes[rel] for rel in sorted(consumers)},
    )
