"""The UCP transformation operations (paper Table 2).

* :func:`extract`      — distributed checkpoint file -> parameter fragments
* :func:`union`        — fragments of one parameter -> consolidated tensor
* :func:`strip_padding`— remove structural padding from a consolidated tensor
* :func:`gen_ucp_metadata` — target strategy -> partition map (:class:`LoadPlan`)
* :func:`load`         — stream atoms into one target rank's flat partition
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.ckpt.naming import FLAT_STATE_FIELDS
from repro.core.atom import STATE_KINDS, AtomStore
from repro.core.diagnostics import Diagnostic
from repro.core.errors import AtomMissingError, PatternMatchError, UCPFormatError
from repro.core.intervals import AtomRows, atom_rows
from repro.dist.topology import ParallelConfig
from repro.models.configs import ModelConfig
from repro.parallel.layout import ModelParallelLayout, PartitionSlice
from repro.parallel.sp import average_param_copies
from repro.parallel.tp import (
    PATTERN_FRAGMENT,
    PATTERN_REPLICATED,
    PATTERN_TO_AVERAGE,
    PATTERN_UNIQUE,
    ShardSpec,
)
from repro.storage.rangeio import WINDOW_AUTO_CAP_BYTES
from repro.storage.serializer import TensorIndexEntry


@dataclasses.dataclass(frozen=True)
class ParamFragment:
    """One contiguous piece of one parameter state from one rank file.

    ``shard_start:shard_end`` locate the piece inside the *flattened TP
    shard* the owning model-parallel rank held; grid coordinates record
    where the piece came from.
    """

    name: str
    kind: str
    data: np.ndarray
    shard_start: int
    shard_end: int
    pp_stage: int
    sp_rank: int
    tp_rank: int
    dp_rank: int
    shard_shape: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.data.ndim != 1:
            raise UCPFormatError("fragment data must be 1-D")
        if self.shard_end - self.shard_start != self.data.size:
            raise UCPFormatError(
                f"fragment of {self.name!r}: range "
                f"[{self.shard_start}, {self.shard_end}) does not match "
                f"{self.data.size} elements"
            )


def extract(payload: Dict, kinds: Sequence[str] = STATE_KINDS) -> List[ParamFragment]:
    """Extract parameter-state fragments from one optimizer-states file.

    The paper's *Extract*: returns the list of parameter states
    contained in a distributed checkpoint file.  Runs independently per
    file, so a converter may call it in parallel across files.

    Dispatches on the file schema: DeepSpeed-style flattened ZeRO
    partitions (``fp32_flat_partition`` + partition metadata) and
    Megatron-classic per-parameter dictionaries (``param_states``) both
    extract into the same fragment representation — which is what lets
    one Union serve either source format.

    Args:
        payload: a deserialized ``zero_dp_rank_*_optim_states`` object.
        kinds: which state kinds to extract.
    """
    if "param_states" in payload:
        return _extract_per_param(payload, kinds)
    meta = payload["partition_meta"]
    dp_rank = int(meta["dp_rank"])
    partition_numel = int(meta["partition_numel"])
    part_start = dp_rank * partition_numel
    part_end = part_start + partition_numel
    pp_stage = int(payload.get("pp_stage", 0))
    sp_rank = int(payload.get("sp_rank", 0))
    tp_rank = int(payload.get("tp_rank", 0))

    fragments: List[ParamFragment] = []
    for kind in kinds:
        field = FLAT_STATE_FIELDS.get(kind)
        if field is None:
            raise KeyError(f"unknown state kind {kind!r}")
        flat = np.asarray(payload[field], dtype=np.float32)
        if flat.size != partition_numel:
            raise UCPFormatError(
                f"partition array has {flat.size} elements, metadata says "
                f"{partition_numel}"
            )
        for segment in meta["segments"]:
            seg_start = int(segment["offset"])
            seg_end = seg_start + int(segment["numel"])
            start = max(seg_start, part_start)
            end = min(seg_end, part_end)
            if start >= end:
                continue
            fragments.append(
                ParamFragment(
                    name=segment["name"],
                    kind=kind,
                    data=flat[start - part_start : end - part_start].copy(),
                    shard_start=start - seg_start,
                    shard_end=end - seg_start,
                    pp_stage=pp_stage,
                    sp_rank=sp_rank,
                    tp_rank=tp_rank,
                    dp_rank=dp_rank,
                    shard_shape=tuple(segment["shard_shape"]),
                )
            )
    return fragments


def _extract_per_param(payload: Dict, kinds: Sequence[str]) -> List[ParamFragment]:
    """Extract from a Megatron-classic per-parameter state file."""
    pp_stage = int(payload.get("pp_stage", 0))
    sp_rank = int(payload.get("sp_rank", 0))
    tp_rank = int(payload.get("tp_rank", 0))
    states = payload["param_states"]
    fragments: List[ParamFragment] = []
    for kind in kinds:
        if kind not in states:
            raise KeyError(f"state kind {kind!r} missing from param_states")
        for name, shard in states[kind].items():
            arr = np.asarray(shard, dtype=np.float32)
            fragments.append(
                ParamFragment(
                    name=name,
                    kind=kind,
                    data=arr.reshape(-1).copy(),
                    shard_start=0,
                    shard_end=int(arr.size),
                    pp_stage=pp_stage,
                    sp_rank=sp_rank,
                    tp_rank=tp_rank,
                    dp_rank=0,
                    shard_shape=tuple(arr.shape),
                )
            )
    return fragments


def _assemble_shard(pieces: List[ParamFragment]) -> np.ndarray:
    """Reassemble one rank's full TP shard from its dp-split pieces.

    The runtime twin of the static shard-assembly proof in
    :mod:`repro.core.plan`: a gap here is what the planner
    reports as UCP017 and an over/under-run as UCP021 — both caught at
    header cost before this function ever materializes a tensor, so
    these raises only fire when the pre-flight was explicitly skipped.
    """
    pieces = sorted(pieces, key=lambda f: f.shard_start)
    expected = 1
    for d in pieces[0].shard_shape:
        expected *= d
    cursor = 0
    chunks = []
    for piece in pieces:
        if piece.shard_start != cursor:
            raise UCPFormatError(
                f"shard of {piece.name!r} has a gap: next piece starts at "
                f"{piece.shard_start}, expected {cursor} (static rule "
                f"UCP017/UCP018)"
            )
        chunks.append(piece.data)
        cursor = piece.shard_end
    if cursor != expected:
        raise UCPFormatError(
            f"shard of {pieces[0].name!r} incomplete: {cursor} of "
            f"{expected} elements (static rule UCP017/UCP021)"
        )
    return np.concatenate(chunks).reshape(pieces[0].shard_shape)


def union(
    fragments: List[ParamFragment],
    spec: ShardSpec,
    tp_degree: int,
    verify_replicas: bool = True,
) -> np.ndarray:
    """Consolidate all fragments of one (parameter, state) pair.

    The paper's *Union*: a pattern-specific merge.  Fragments first
    reassemble into per-rank TP shards (undoing the ZeRO dp-split), then
    the pattern decides: replicated -> first copy (others verified
    equal), params_to_average -> elementwise mean, fragment ->
    sub-pattern join across TP ranks, unique -> the single copy.
    """
    if not fragments:
        raise UCPFormatError("union of zero fragments")
    name = fragments[0].name
    kind = fragments[0].kind
    if any(f.name != name or f.kind != kind for f in fragments):
        raise UCPFormatError("union received fragments of mixed parameters")

    by_coord: Dict[Tuple[int, int, int], List[ParamFragment]] = {}
    for fragment in fragments:
        key = (fragment.pp_stage, fragment.sp_rank, fragment.tp_rank)
        by_coord.setdefault(key, []).append(fragment)
    shards = {
        coord: _assemble_shard(pieces) for coord, pieces in sorted(by_coord.items())
    }

    if spec.pattern == PATTERN_UNIQUE:
        if len(shards) != 1:
            raise PatternMatchError(
                f"{name!r} is unique_params but {len(shards)} ranks hold it"
            )
        return next(iter(shards.values()))

    if spec.pattern == PATTERN_REPLICATED:
        copies = list(shards.values())
        first = copies[0]
        if verify_replicas:
            for other in copies[1:]:
                if not np.array_equal(first, other):
                    raise PatternMatchError(
                        f"{name!r} is replicated_params but rank copies "
                        f"differ; use params_to_average for independently "
                        f"updated parameters"
                    )
        return first

    if spec.pattern == PATTERN_TO_AVERAGE:
        return average_param_copies(list(shards.values()))

    if spec.pattern == PATTERN_FRAGMENT:
        # per TP rank, fragments are replicated across SP and (for tied
        # embeddings) across PP; take the lowest-coordinate copy
        per_tp: Dict[int, np.ndarray] = {}
        for (pp, sp, tp), shard in sorted(shards.items()):
            per_tp.setdefault(tp, shard)
        observed = sorted(per_tp)
        if observed != list(range(tp_degree)):
            raise PatternMatchError(
                f"{name!r}: expected TP shards 0..{tp_degree - 1}, "
                f"got {observed}"
            )
        if tp_degree == 1:
            return per_tp[0]
        return spec.fragmenter.join([per_tp[tp] for tp in range(tp_degree)])

    raise PatternMatchError(f"unhandled pattern {spec.pattern!r}")


def strip_padding(values: np.ndarray, spec: ShardSpec) -> np.ndarray:
    """Remove structural padding from a consolidated tensor.

    The paper's *StripPadding*: atoms never store padding (vocab rows
    added for TP divisibility, alignment padding never reaches here
    because flat segments exclude it).
    """
    if tuple(values.shape) != spec.logical_shape:
        raise UCPFormatError(
            f"expected consolidated shape {spec.logical_shape}, got "
            f"{values.shape}"
        )
    if not spec.has_padding:
        return values
    slices = tuple(slice(0, dim) for dim in spec.unpadded_shape)
    return values[slices].copy()


def add_padding(values: np.ndarray, spec: ShardSpec) -> np.ndarray:
    """Inverse of :func:`strip_padding`: re-pad with zeros for a target.

    Zeros are exact for both weights and Adam moments: padding rows are
    never touched by forward/backward, so their true state is zero.
    """
    if tuple(values.shape) != spec.unpadded_shape:
        raise UCPFormatError(
            f"expected unpadded shape {spec.unpadded_shape}, got "
            f"{values.shape}"
        )
    if not spec.has_padding:
        return values
    out = np.zeros(spec.logical_shape, dtype=values.dtype)
    out[tuple(slice(0, dim) for dim in values.shape)] = values
    return out


@dataclasses.dataclass
class LoadPlan:
    """The target partition map produced by :func:`gen_ucp_metadata`.

    Wraps the target's :class:`ModelParallelLayout`: for every target
    rank and DP partition, which atom slices fill which flat ranges
    (padding re-introduced per the paper's *GenUcpMetadata*).
    """

    model_cfg: ModelConfig
    target_cfg: ParallelConfig
    layout: ModelParallelLayout

    def partition_assignment(
        self, pp_stage: int, sp_rank: int, tp_rank: int, dp_rank: int
    ) -> List[PartitionSlice]:
        """Atom slices composing one (mp rank, dp rank) flat partition."""
        return self.layout.rank_layout(pp_stage, sp_rank, tp_rank).slices_in_partition(
            dp_rank
        )

    def total_partitions(self) -> int:
        """Number of (mp, dp) partitions across the target job."""
        return len(self.layout.mp_coords()) * self.target_cfg.dp


def gen_ucp_metadata(
    model_cfg: ModelConfig, target_cfg: ParallelConfig
) -> LoadPlan:
    """Compute the target-side partition metadata (paper's GenUcpMetadata).

    Calculates, for the *Target* strategy, each parameter's new shape
    and location — TP shard shapes, flat offsets, alignment padding,
    and ZeRO partition boundaries.  The derived layout is validated
    (partition slices must tile every flat buffer exactly) before any
    load uses it, so an unsound target strategy fails here with typed
    diagnostics instead of corrupting a resume.
    """
    layout = ModelParallelLayout(model_cfg, target_cfg)
    layout.validate()
    return LoadPlan(
        model_cfg=model_cfg,
        target_cfg=target_cfg,
        layout=layout,
    )


_Piece = Tuple[str, int, int, int, Sequence[np.ndarray]]
"""``(atom name, tp rank, shard lo, shard hi, one target array per kind)``."""


class AtomShardCache:
    """Planned reader of atom state files for one target plan.

    The load side's one lowering and one executor.  The lowering
    (:meth:`_shard_map`) is a lookup: the columnar shard -> atom element
    map of a parameter's *shape class* — the same interval maps the
    provenance theorems are proven over, shard -> consolidated runs
    composed with the non-padding data intervals, whose concatenation
    *is* the atom file — built once per class by
    :func:`repro.core.intervals.atom_rows`, so identical layers lower
    once.  The executor (:meth:`_fill`) takes any set of target
    pieces (shard ranges with the arrays they land in), groups them by
    atom, and per atom state file issues one header read and one
    payload read of exactly the bytes the pieces need, scattering
    straight into the targets.  A whole-engine load therefore reads
    every state file once, sequentially, for all pipeline stages and tp
    ranks; a single partition or shard range reads only its own bytes —
    the paper's load-cost win for partial restores.
    """

    def __init__(self, atom_store: AtomStore, plan: LoadPlan) -> None:
        self.atom_store = atom_store
        self.plan = plan
        self._entries: Dict[Tuple[str, str], TensorIndexEntry] = {}

    def _shard_map(self, name: str, tp_rank: int) -> AtomRows:
        """Shard -> atom-file element map of one (atom, tp rank)."""
        return atom_rows(
            self.plan.layout.spec(name), self.plan.target_cfg.tp, tp_rank
        )

    def _state_entry(self, name: str, kind: str) -> TensorIndexEntry:
        """Tensor index entry of one atom state file (one header-only
        read, memoized), held to :meth:`AtomStore.check_state`."""
        key = (name, kind)
        entry = self._entries.get(key)
        if entry is None:
            entry = self.atom_store.check_state(
                name, kind, self.plan.layout.spec(name).unpadded_shape
            )
            if isinstance(entry, Diagnostic):
                refusal = (
                    AtomMissingError if entry.rule_id == "UCP001"
                    else UCPFormatError
                )
                raise refusal(
                    f"{entry.location}: {entry.rule_id} [{entry.rule_name}] "
                    f"{entry.message}"
                )
            self._entries[key] = entry
        return entry

    def _fill(self, kinds: Sequence[str], pieces: Iterable[_Piece]) -> None:
        """Fill every target piece, one read per atom state file.

        A piece ``(name, tp_rank, lo, hi, dests)`` asks for elements
        ``[lo, hi)`` of one flattened target TP shard; ``dests`` holds
        one writable ``hi - lo``-element float32 array per entry of
        ``kinds``.  Every element of every destination is written:
        structural padding comes out zero, byte-identical to
        ``add_padding`` + fragment + slice without materializing the
        padded tensor, the shard or a temporary partition.
        """
        by_atom: Dict[str, List[_Piece]] = {}
        for piece in pieces:
            by_atom.setdefault(piece[0], []).append(piece)
        for name, atom_pieces in by_atom.items():
            self._fill_atom(name, kinds, atom_pieces)

    def _fill_atom(
        self, name: str, kinds: Sequence[str], pieces: List[_Piece]
    ) -> None:
        cols: List[np.ndarray] = []  # per piece: (piece, dest offset, atom lo, length)
        for k, (_, tp_rank, lo, hi, dests) in enumerate(pieces):
            shard_lo, shard_hi, atom_lo = self._shard_map(name, tp_rank)
            i0 = int(np.searchsorted(shard_hi, lo, side="right"))
            i1 = int(np.searchsorted(shard_lo, hi, side="left"))
            start = np.maximum(shard_lo[i0:i1], lo)
            length = np.minimum(shard_hi[i0:i1], hi) - start
            if int(length.sum()) < hi - lo:
                for dest in dests:
                    dest[...] = 0.0  # structural padding
            cols.append(np.stack((
                np.full(length.size, k, np.int64),
                start - lo,
                atom_lo[i0:i1] + (start - shard_lo[i0:i1]),
                length,
            )))
        table = np.concatenate(cols, axis=1)
        if table.shape[1] == 0:
            return
        dst, off, pos, length = table[:, np.argsort(table[2], kind="stable")]
        end = pos + length
        # one read call per state file and window; a payload within the
        # cap (every atom of the benchmark models) is a single window
        window = WINDOW_AUTO_CAP_BYTES // np.dtype(np.float32).itemsize
        # while the spans read so far are one run from element 0, every
        # payload is CRC-folded as it streams (whole-engine loads read
        # whole payloads); ``covered`` is that run's end, -1 once broken
        covered = 0
        crcs = [0] * len(kinds)
        for w_lo in range(
            int(pos[0]) // window * window, int(end.max()), window
        ):
            live = np.flatnonzero((end > w_lo) & (pos < w_lo + window))
            if live.size == 0:
                covered = -1
                continue
            lo = np.maximum(pos[live], w_lo)
            hi = np.minimum(end[live], w_lo + window)
            # exact-adjacent and overlapping rows merge into one range
            new_span = np.empty(live.size, dtype=bool)
            new_span[0] = True
            new_span[1:] = lo[1:] > np.maximum.accumulate(hi)[:-1]
            first = np.flatnonzero(new_span)
            span_lo = lo[first]
            span_hi = np.maximum.reduceat(hi, first)
            span = np.cumsum(new_span) - 1
            if first.size == 1 and int(span_lo[0]) == covered:
                covered = int(span_hi[0])
            else:
                covered = -1
            rows = list(zip(
                dst[live].tolist(),
                (off[live] + (lo - pos[live])).tolist(),
                span.tolist(),
                (lo - span_lo[span]).tolist(),
                (hi - lo).tolist(),
            ))
            for j, kind in enumerate(kinds):
                entry = self._state_entry(name, kind)
                bufs = self.atom_store.read_ranges(
                    name, kind, [
                        entry.element_range(int(s), int(e - s))
                        for s, e in zip(span_lo, span_hi)
                    ],
                )
                if covered >= 0:
                    crcs[j] = zlib.crc32(bufs[0], crcs[j])
                views = [np.frombuffer(buf, dtype=np.float32) for buf in bufs]
                dests = [piece[4][j] for piece in pieces]
                for d, o, s, r, n in rows:
                    dests[d][o:o + n] = views[s][r:r + n]
        for j, kind in enumerate(kinds):
            entry = self._state_entry(name, kind)
            if covered == entry.numel and entry.crc32 not in (None, crcs[j]):
                raise UCPFormatError(
                    f"{self.atom_store.path(name, kind)}: payload CRC "
                    f"mismatch: the header records {entry.crc32:#010x}, "
                    f"the bytes read give {crcs[j]:#010x} — the atom was "
                    f"damaged after it was written"
                )

    def shard_slice(
        self, name: str, kind: str, tp_rank: int, lo: int, hi: int
    ) -> np.ndarray:
        """Elements ``[lo, hi)`` of one flattened target TP shard.

        Reads only the bytes backing the request; padding positions
        come back zero.
        """
        if lo < 0 or hi < lo:
            raise ValueError(f"invalid shard slice [{lo}, {hi})")
        out = np.empty(hi - lo, dtype=np.float32)
        self._fill((kind,), [(name, tp_rank, lo, hi, (out,))])
        return out


def load(
    atom_store: AtomStore,
    plan: LoadPlan,
    kind: str,
    pp_stage: int,
    sp_rank: int,
    tp_rank: int,
    dp_rank: int,
) -> np.ndarray:
    """Materialize one target rank's flat partition of one state kind.

    The paper's *Load*: streams atom checkpoints into the rank's flat
    buffer in layer order, alignment padding re-added (zeros).  Each
    partition slice reads only its own byte range of each atom file.
    (A whole-engine load goes through one :class:`AtomShardCache`
    instead: :func:`repro.core.loader.load_ucp_into_engine`.)
    """
    rank_layout = plan.layout.rank_layout(pp_stage, sp_rank, tp_rank)
    partition = np.zeros(rank_layout.partition_numel, dtype=np.float32)
    AtomShardCache(atom_store, plan)._fill(
        (kind,),
        [
            (
                piece.name, tp_rank, piece.shard_start, piece.shard_end,
                (partition[piece.local_start : piece.local_end],),
            )
            for piece in rank_layout.slices_in_partition(dp_rank)
        ],
    )
    return partition
