"""The UCP transformation operations (paper Table 2).

* :func:`extract`      — distributed checkpoint file -> parameter fragments
* :func:`union`        — fragments of one parameter -> consolidated tensor
* :func:`strip_padding`— remove structural padding from a consolidated tensor
* :func:`gen_ucp_metadata` — target strategy -> partition map (:class:`LoadPlan`)
* :func:`load`         — stream atoms into one target rank's flat partition
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.atom import STATE_KINDS, AtomStore
from repro.core.errors import AtomMissingError, PatternMatchError, UCPFormatError
from repro.core.intervals import (
    MapRun,
    data_intervals,
    numel as _interval_numel,
    shard_to_full_runs,
)
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
from repro.storage.rangeio import BlockCache, RangeReader

_KIND_TO_FIELD = {
    "fp32": "fp32_flat_partition",
    "exp_avg": "exp_avg_flat_partition",
    "exp_avg_sq": "exp_avg_sq_flat_partition",
}


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
        field = _KIND_TO_FIELD.get(kind)
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
    :mod:`repro.analysis.provenance`: a gap here is what the checker
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


DEFAULT_LOAD_CACHE_BYTES = 32 << 20
"""Block-cache budget of the loader's range reader."""

_READ_QUEUE_DEPTH = 8
"""Queue depth the storage cost model charges the loader's reads at:
DeepNVMe-style batched reads amortize per-file latency across
concurrent requests."""


class AtomShardCache:
    """Byte-range reader of atom state files for one target plan.

    ``Load`` never reads a whole atom file: :meth:`shard_slice` lowers
    each request through the same interval maps the provenance theorems
    are proven over (shard -> consolidated runs, then the non-padding
    data intervals, which are exactly how atom file elements map onto
    consolidated space) and issues byte-range reads for just the
    requested partition slice — so a target rank reads only its own
    bytes of each atom, the paper's load-cost win for partial restores.

    One planner rule rides on that path: an atom the plan assigns to
    more than one pipeline stage (a tied embedding under pp > 1) is
    lowered once per (state kind, tp rank) for its full shard and the
    frozen result serves the later stages, so no stage re-reads bytes
    the block cache may already have evicted.
    """

    def __init__(self, atom_store: AtomStore, plan: LoadPlan) -> None:
        self.atom_store = atom_store
        self.plan = plan
        self.reader = RangeReader(
            atom_store.store,
            cache=BlockCache(DEFAULT_LOAD_CACHE_BYTES),
            parallel=_READ_QUEUE_DEPTH,
        )
        self._runs: Dict[Tuple[str, int], List[MapRun]] = {}
        # per parameter: [(data_lo, data_hi, atom element offset)] — the
        # order-preserving map from consolidated data intervals onto the
        # flat (unpadded) atom file
        self._data_map: Dict[str, List[Tuple[int, int, int]]] = {}
        self._entries: Dict[Tuple[str, str], object] = {}
        stages_holding = collections.Counter(
            name
            for pp_stage in range(plan.target_cfg.pp)
            for name in plan.layout.stage_plan.params_of_stage(pp_stage)
        )
        self._shared = {name for name, n in stages_holding.items() if n > 1}
        self._shards: Dict[Tuple[str, str, int], np.ndarray] = {}

    def _shard_runs(self, name: str, tp_rank: int) -> List[MapRun]:
        key = (name, tp_rank)
        runs = self._runs.get(key)
        if runs is None:
            spec = self.plan.layout.spec(name)
            runs = shard_to_full_runs(spec, self.plan.target_cfg.tp, tp_rank)
            self._runs[key] = runs
        return runs

    def _atom_data_map(self, name: str) -> List[Tuple[int, int, int]]:
        mapped = self._data_map.get(name)
        if mapped is None:
            spec = self.plan.layout.spec(name)
            mapped = []
            offset = 0
            for d_lo, d_hi in data_intervals(spec):
                mapped.append((d_lo, d_hi, offset))
                offset += d_hi - d_lo
            self._data_map[name] = mapped
        return mapped

    def _state_entry(self, name: str, kind: str):
        """Tensor index entry of one atom state file (header-only read)."""
        key = (name, kind)
        entry = self._entries.get(key)
        if entry is None:
            store = self.atom_store.store
            rel = self.atom_store._atom_path(name, f"{kind}.npt")
            if not store.exists(rel):
                raise AtomMissingError(f"missing atom state {rel}")
            entry = store.load_index(rel)["values"]
            spec = self.plan.layout.spec(name)
            expected = _interval_numel(spec.unpadded_shape)
            if np.dtype(entry.dtype) != np.float32 or entry.numel != expected:
                raise UCPFormatError(
                    f"atom {name!r} ({kind}) holds {entry.numel} "
                    f"{entry.dtype} elements; target expects unpadded "
                    f"shape {spec.unpadded_shape} ({expected} float32)"
                )
            payload_end = entry.offset + entry.numel * entry.itemsize
            file_size = store.size(rel)
            if payload_end > file_size:
                raise UCPFormatError(
                    f"atom state file {rel} is damaged: its header places "
                    f"{entry.numel} {entry.dtype} elements up to byte "
                    f"{payload_end}, the file ends at {file_size}"
                )
            self._entries[key] = entry
        return entry

    @staticmethod
    def _freeze(key: str, arr: np.ndarray) -> None:
        """Write-protect one memoized shard before it is shared.

        Callers get views of a shared atom's shard (``shard_slice``
        returns ``shard[lo:hi]`` zero-copy); freezing turns an
        accidental in-place mutation — which would poison every later
        stage's load — into an immediate ``ValueError``.  With a memory
        sanitizer active the buffer is also registered, so integrity
        sweeps report poisoning (UCP027) and loaded-state aliasing
        (UCP028) under the atom's name.
        """
        from repro.analysis import sanitizer as _sanitizer

        san = _sanitizer.current()
        if san is not None:
            san.register_cache(key, arr)
        else:
            arr.setflags(write=False)

    def shard_slice(
        self, name: str, kind: str, tp_rank: int, lo: int, hi: int
    ) -> np.ndarray:
        """Elements ``[lo, hi)`` of one flattened target TP shard.

        Reads only the bytes backing the request: the shard range maps
        through the parameter's shard -> consolidated runs, intersects
        the non-padding data intervals (whose concatenation *is* the
        atom file), and the resulting atom byte ranges stream through
        the :class:`RangeReader`.  Padding positions stay zero —
        byte-identical to ``add_padding`` + fragment + slice, without
        materializing either the padded tensor or the shard.  Only a
        plan-shared atom's shard is kept: it is lowered whole on first
        use and later requests are views of it.
        """
        if lo < 0 or hi < lo:
            raise ValueError(f"invalid shard slice [{lo}, {hi})")
        if name in self._shared:
            key = (name, kind, tp_rank)
            shard = self._shards.get(key)
            if shard is None:
                spec = self.plan.layout.spec(name)
                shard_numel = _interval_numel(
                    spec.shard_shape(self.plan.target_cfg.tp)
                )
                shard = self._read_slice(name, kind, tp_rank, 0, shard_numel)
                self._freeze(f"atom:{name}:{kind}:tp{tp_rank}", shard)
                self._shards[key] = shard
            return shard[lo:hi]
        return self._read_slice(name, kind, tp_rank, lo, hi)

    def _read_slice(
        self, name: str, kind: str, tp_rank: int, lo: int, hi: int
    ) -> np.ndarray:
        entry = self._state_entry(name, kind)
        out = np.zeros(hi - lo, dtype=np.float32)
        ranges: List[Tuple[int, int]] = []
        places: List[Tuple[int, int]] = []  # (out offset, length)
        for run in self._shard_runs(name, tp_rank):
            s_lo = max(run.shard_start, lo)
            s_hi = min(run.shard_end, hi)
            if s_lo >= s_hi:
                continue
            f_lo = run.full_start + (s_lo - run.shard_start)
            f_hi = f_lo + (s_hi - s_lo)
            for d_lo, d_hi, atom_off in self._atom_data_map(name):
                if d_hi <= f_lo:
                    continue
                if d_lo >= f_hi:
                    break
                seg_lo = max(f_lo, d_lo)
                seg_hi = min(f_hi, d_hi)
                ranges.append(entry.element_range(
                    atom_off + (seg_lo - d_lo), seg_hi - seg_lo
                ))
                places.append((
                    (s_lo - lo) + (seg_lo - f_lo), seg_hi - seg_lo
                ))
        rel = self.atom_store._atom_path(name, f"{kind}.npt")
        for (out_off, count), buf in zip(
            places, self.reader.read_multi(rel, ranges)
        ):
            out[out_off:out_off + count] = np.frombuffer(
                buf, dtype=np.float32, count=count
            )
        return out


def load(
    atom_store: AtomStore,
    plan: LoadPlan,
    kind: str,
    pp_stage: int,
    sp_rank: int,
    tp_rank: int,
    dp_rank: int,
    cache: Optional[AtomShardCache] = None,
) -> np.ndarray:
    """Materialize one target rank's flat partition of one state kind.

    The paper's *Load*: streams atom checkpoints into the rank's flat
    buffer in layer order, alignment padding re-added (zeros).  Each
    partition slice reads only its own byte range of each atom file;
    pass one ``cache`` across calls to share its block cache and its
    plan-shared shards.
    """
    rank_layout = plan.layout.rank_layout(pp_stage, sp_rank, tp_rank)
    partition = np.zeros(rank_layout.partition_numel, dtype=np.float32)
    if cache is None:
        cache = AtomShardCache(atom_store, plan)
    for piece in rank_layout.slices_in_partition(dp_rank):
        partition[piece.local_start : piece.local_end] = cache.shard_slice(
            piece.name, kind, tp_rank, piece.shard_start, piece.shard_end
        )
    return partition
