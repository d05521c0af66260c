"""Model-parallel state layout: the single source of truth for where
every parameter fragment lives.

For a (model config, parallel config) pair, :class:`ModelParallelLayout`
computes, per model-parallel rank (pp stage × sp rank × tp rank):

* the ordered list of parameter shards that rank owns (TP sharding via
  :mod:`repro.parallel.tp`, PP ownership via :mod:`repro.parallel.pp`);
* the flat fp32 buffer layout — offsets, alignment padding, and the
  equal-size partitions ZeRO distributes across data-parallel ranks.

Both the training engine (to build its optimizer state) and UCP's
``GenUcpMetadata`` (to lower a load onto the *target* partitions) use
this class — the UCP load lowers from the engine's own instance — which
is what makes source and target layouts provably consistent.

A rank file's ``partition_meta`` is written from
:meth:`RankShardLayout.partition_meta` and read back through one
:class:`HeaderCheck`: the saver, the strict loader, the conversion's
header pass and ``repro lint-ckpt`` share that one schema.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ckpt.naming import FLAT_STATE_FIELDS
from repro.core.diagnostics import (
    Diagnostic,
    LayoutLintError,
    LintReport,
    error,
    warning,
)
from repro.dist.topology import ParallelConfig
from repro.models.configs import ModelConfig
from repro.parallel.pp import StagePlan, build_stage_plan
from repro.parallel.tp import ShardSpec, build_shard_specs

DEFAULT_ALIGNMENT = 8
"""Default element alignment for partition boundaries (NVMe-friendly)."""


@dataclasses.dataclass(frozen=True)
class ShardEntry:
    """One parameter shard inside a rank's flat buffer."""

    name: str
    shard_shape: Tuple[int, ...]
    offset: int

    @property
    def numel(self) -> int:
        """Elements in the shard."""
        n = 1
        for d in self.shard_shape:
            n *= d
        return n

    @property
    def end(self) -> int:
        """One past the shard's last flat element."""
        return self.offset + self.numel


@dataclasses.dataclass(frozen=True)
class PartitionSlice:
    """Intersection of one parameter shard with one DP partition.

    Attributes:
        name: parameter name.
        partition: dp partition index.
        local_start / local_end: element range inside the partition.
        shard_start / shard_end: element range inside the flattened shard.
    """

    name: str
    partition: int
    local_start: int
    local_end: int
    shard_start: int
    shard_end: int


class RankShardLayout:
    """Flat-buffer layout for one model-parallel rank."""

    def __init__(
        self,
        pp_stage: int,
        sp_rank: int,
        tp_rank: int,
        entries: List[ShardEntry],
        dp_degree: int,
        alignment: int = DEFAULT_ALIGNMENT,
        specs: Optional[Dict[str, ShardSpec]] = None,
    ) -> None:
        self.pp_stage = pp_stage
        self.sp_rank = sp_rank
        self.tp_rank = tp_rank
        self.entries = entries
        self.specs = specs or {}
        """Each held parameter's derived spec, what its rank files record
        in their ``sharding`` table."""
        self.dp_degree = dp_degree
        self.alignment = alignment
        self._by_name = {e.name: e for e in entries}
        payload = entries[-1].end if entries else 0
        unit = alignment * dp_degree
        self.flat_numel = ((payload + unit - 1) // unit) * unit if payload else 0
        self.padding = self.flat_numel - payload
        self.partition_numel = self.flat_numel // dp_degree if dp_degree else 0

    @property
    def payload_numel(self) -> int:
        """Flat length excluding alignment padding."""
        return self.flat_numel - self.padding

    def entry(self, name: str) -> ShardEntry:
        """Shard entry for a parameter name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"parameter {name!r} not owned by pp={self.pp_stage} "
                f"sp={self.sp_rank} tp={self.tp_rank}"
            ) from None

    def owns(self, name: str) -> bool:
        """Whether this rank's buffer contains the parameter."""
        return name in self._by_name

    def partition_slices(self, name: str) -> List[PartitionSlice]:
        """How one shard scatters across the DP partitions.

        A ZeRO partition boundary can cut a parameter anywhere, so a
        shard may span several partitions; this returns the pieces in
        ascending order.
        """
        e = self.entry(name)
        out: List[PartitionSlice] = []
        size = self.partition_numel
        if size == 0:
            return out
        first = e.offset // size
        last = (e.end - 1) // size if e.numel else first
        for part in range(first, last + 1):
            p_start, p_end = part * size, (part + 1) * size
            start = max(e.offset, p_start)
            end = min(e.end, p_end)
            if start >= end:
                continue
            out.append(
                PartitionSlice(
                    name=name,
                    partition=part,
                    local_start=start - p_start,
                    local_end=end - p_start,
                    shard_start=start - e.offset,
                    shard_end=end - e.offset,
                )
            )
        return out

    def slices_in_partition(self, partition: int) -> List[PartitionSlice]:
        """All parameter pieces inside one DP partition, in flat order."""
        if not 0 <= partition < self.dp_degree:
            raise IndexError(
                f"partition {partition} out of range (dp={self.dp_degree})"
            )
        out: List[PartitionSlice] = []
        for e in self.entries:
            for ps in self.partition_slices(e.name):
                if ps.partition == partition:
                    out.append(ps)
        return out

    def partition_meta(self, dp_rank: int, zero_stage: int) -> Dict:
        """The ``partition_meta`` a flat rank file of this layout records.

        At ZeRO stage 0 one file per model-parallel rank holds the whole
        unpartitioned buffer, so its ``partition_numel`` is the flat
        extent; at any other stage it is one dp partition.
        """
        return {
            "dp_rank": dp_rank,
            "partition_numel": (
                self.flat_numel if zero_stage == 0 else self.partition_numel
            ),
            "flat_numel": self.flat_numel,
            "padding": self.padding,
            "alignment": self.alignment,
            "segments": [
                {
                    "name": e.name,
                    "offset": e.offset,
                    "numel": e.numel,
                    "shard_shape": list(e.shard_shape),
                }
                for e in self.entries
            ],
        }

    def header_check(self, dp_rank: int, zero_stage: int, rel: str) -> "HeaderCheck":
        """A check of the rank file ``rel`` (dp rank ``dp_rank``) against
        this layout."""
        return HeaderCheck(self, dp_rank, zero_stage, rel)

    def tiling_diagnostics(self) -> List[Diagnostic]:
        """Statically prove the partition slices tile the flat buffer.

        Checks, from metadata alone: shard entries pack the payload
        region contiguously (no gaps, no overlaps), the alignment
        padding is exactly the round-up to ``alignment * dp``, the DP
        partitions split the padded buffer evenly, and the union of all
        partition slices covers ``[0, payload)`` exactly once with
        nothing extending into the padding tail.  Returns structured
        diagnostics (empty when the layout is sound).
        """
        where = f"pp={self.pp_stage}.sp={self.sp_rank}.tp={self.tp_rank}"
        out: List = []
        cursor = 0
        for e in sorted(self.entries, key=lambda e: e.offset):
            if e.offset > cursor:
                out.append(error(
                    "UCP006",
                    f"flat buffer gap: [{cursor}, {e.offset}) owned by no "
                    f"parameter before {e.name!r}",
                    location=where,
                ))
            elif e.offset < cursor:
                out.append(error(
                    "UCP005",
                    f"shard entries overlap: {e.name!r} starts at "
                    f"{e.offset} inside the previous entry (ends {cursor})",
                    location=where,
                ))
            cursor = max(cursor, e.end)
        payload = cursor

        unit = self.alignment * self.dp_degree
        expected_flat = ((payload + unit - 1) // unit) * unit if payload else 0
        if self.flat_numel != expected_flat:
            out.append(error(
                "UCP003",
                f"flat extent {self.flat_numel} is not payload {payload} "
                f"rounded up to alignment*dp = {unit}",
                location=where,
            ))
        if self.padding != self.flat_numel - payload:
            out.append(error(
                "UCP003",
                f"recorded padding {self.padding} != flat {self.flat_numel} "
                f"- payload {payload}",
                location=where,
            ))
        if self.dp_degree and self.partition_numel * self.dp_degree != self.flat_numel:
            out.append(error(
                "UCP011",
                f"partitions {self.partition_numel} x dp {self.dp_degree} "
                f"!= flat extent {self.flat_numel}",
                location=where,
            ))
            return out  # slice arithmetic below would be garbage

        # union of all partition slices must cover [0, payload) exactly
        intervals = []
        size = self.partition_numel
        for e in self.entries:
            for ps in self.partition_slices(e.name):
                start = ps.partition * size + ps.local_start
                end = ps.partition * size + ps.local_end
                intervals.append((start, end, ps.name))
        intervals.sort()
        cursor = 0
        for start, end, name in intervals:
            if start > cursor:
                out.append(error(
                    "UCP006",
                    f"partition slices leave flat range [{cursor}, {start}) "
                    f"uncovered (next slice: {name!r})",
                    location=where,
                ))
            elif start < cursor:
                out.append(error(
                    "UCP005",
                    f"partition slice of {name!r} [{start}, {end}) overlaps "
                    f"previously assigned flat range (covered to {cursor})",
                    location=where,
                ))
            cursor = max(cursor, end)
        if cursor != payload:
            if cursor < payload:
                out.append(error(
                    "UCP006",
                    f"partition slices cover only [0, {cursor}) of payload "
                    f"{payload}",
                    location=where,
                ))
            else:
                out.append(error(
                    "UCP005",
                    f"partition slices extend to {cursor}, past payload "
                    f"{payload} into the alignment padding",
                    location=where,
                ))
        return out


_META_INTS = ("dp_rank", "partition_numel", "flat_numel", "alignment", "padding")


def _spec_table(table) -> bool:
    """Whether a ``sharding`` table maps names to spec mappings with a
    pattern and integer shapes (what :meth:`ShardSpec.from_dict` reads)."""
    return isinstance(table, dict) and all(
        isinstance(spec, dict) and "pattern" in spec and all(
            isinstance(spec.get(dims), list)
            and all(type(d) is int for d in spec[dims])
            for dims in ("logical_shape", "unpadded_shape")
        )
        for spec in table.values()
    )


_RANK_FIELDS = {
    "optimizer_step": lambda value: type(value) is int,
    "adam": lambda value: isinstance(value, dict),
    "sharding": _spec_table,
}
"""Rank-file fields beside ``partition_meta`` -> whether a value decodes."""


class HeaderCheck:
    """One optimizer-state file's header against the layout that derives it.

    The one rank-file check behind ``repro lint-ckpt``, the conversion
    pre-flight and the strict loader: UCP001-UCP004 and UCP011, UCP019
    for a ``sharding`` entry claiming padding as data, UCP020 for a state
    array not stored as float32, plus UCP022 for a field that does not
    decode.  :meth:`run` walks one decoded header —
    its rank fields, partition metadata, flat arrays and segment table,
    or its per-parameter states — and returns the findings.
    """

    def __init__(
        self, layout: RankShardLayout, dp_rank: int, zero_stage: int, rel: str
    ) -> None:
        self.layout = layout
        self.dp_rank = dp_rank
        self.rel = rel
        self.derived = layout.partition_meta(dp_rank, zero_stage)
        self.diagnostics: List[Diagnostic] = []

    def _add(self, rule_id: str, message: str, make=error) -> None:
        self.diagnostics.append(make(rule_id, message, location=self.rel))

    def run(self, header: Dict) -> List[Diagnostic]:
        """Check a whole decoded header; returns :attr:`diagnostics`."""
        if not isinstance(header, dict):
            self._add("UCP022", "header is not a mapping")
            return self.diagnostics
        self._rank_fields(header)
        if "param_states" in header:
            self._param_states(header["param_states"])
        else:
            segments = self._flat_meta(header)
            if segments is not None:
                for field in FLAT_STATE_FIELDS.values():
                    self._flat_array(field, header.get(field))
                self._segments(segments)
        return self.diagnostics

    def _rank_fields(self, header: Dict) -> None:
        """The fields beside ``partition_meta`` that the strict load and
        the conversion index: an integer ``optimizer_step``, an ``adam``
        mapping and a ``sharding`` table (UCP022 for each one absent or
        malformed), the last also held to the derived specs."""
        bad = [
            key for key, decodes in _RANK_FIELDS.items()
            if key not in header or not decodes(header[key])
        ]
        for key in bad:
            self._add("UCP022", (
                f"header has no {key!r}" if key not in header
                else f"{key} is malformed ({type(header[key]).__name__})"
            ))
        if "sharding" not in bad:
            self._sharding(header["sharding"])

    def _sharding(self, table: Dict) -> None:
        """Every parameter the rank holds recorded exactly as the layout
        derives it, so no rank file's copy can differ from another's.

        A missing entry is UCP022.  A recorded ``unpadded_shape`` wider
        than the derived one claims structural padding rows as real data
        — StripPadding would carry padding bytes into atoms and every
        target rank (UCP019).  Any other difference is UCP004.
        """
        for name, spec in self.layout.specs.items():
            saved = table.get(name)
            if saved is None:
                self._add("UCP022", f"sharding table has no entry for {name!r}")
                continue
            recorded = math.prod(saved["unpadded_shape"])
            derived = math.prod(spec.unpadded_shape)
            if recorded > derived:
                self._add(
                    "UCP019",
                    f"{name!r} records unpadded_shape "
                    f"{tuple(saved['unpadded_shape'])} but the model derives "
                    f"{spec.unpadded_shape}: {recorded - derived} "
                    f"structural-padding elements would flow into target "
                    f"data as if real",
                )
                continue
            want = spec.to_dict()
            differ = [key for key in want if saved.get(key) != want[key]]
            if differ:
                self._add("UCP004", (
                    f"{name!r} sharding records "
                    + ", ".join(f"{k} {saved.get(k)!r}" for k in differ)
                    + "; layout derives "
                    + ", ".join(f"{want[k]!r}" for k in differ)
                ))

    def _flat_meta(self, header: Dict) -> Optional[List]:
        """The recorded segment table, once the dp rank and each extent
        are diffed against the derived ones (UCP011, padding UCP003).
        None, with a UCP022, when a field the partition's position
        depends on does not decode."""
        meta = header.get("partition_meta")
        if not isinstance(meta, dict):
            self._add(
                "UCP022",
                "header has no partition_meta; flat-partition bytes cannot "
                "be traced",
            )
            return None
        recorded: Dict[str, int] = {}
        for key in _META_INTS:
            try:
                recorded[key] = operator.index(meta[key])
            except KeyError:
                self._add("UCP022", f"partition_meta incomplete: no {key!r}")
            except TypeError:
                self._add(
                    "UCP022",
                    f"partition_meta incomplete: {key} is {meta[key]!r}, "
                    f"not an integer",
                )
        derived = self.derived
        for key in ("dp_rank", "partition_numel", "flat_numel", "alignment"):
            if key in recorded and recorded[key] != derived[key]:
                self._add(
                    "UCP011",
                    f"{key} recorded as {recorded[key]}; layout derives "
                    f"{derived[key]}",
                )
        if "padding" in recorded and recorded["padding"] != derived["padding"]:
            self._add(
                "UCP003",
                f"alignment padding recorded as {recorded['padding']}; layout "
                f"derives {derived['padding']} (payload "
                f"{self.layout.payload_numel}, flat {derived['flat_numel']})",
            )
        segments = meta.get("segments")
        if not isinstance(segments, list):
            self._add("UCP022", "partition_meta has no segment table")
            return None
        if not {"dp_rank", "partition_numel", "flat_numel"} <= set(recorded):
            return None
        return segments

    def _flat_array(self, field: str, stub) -> None:
        """One flat state array, by header shape: present (UCP001),
        holding the derived partition (UCP011) and float32 (UCP020)."""
        if stub is None:
            self._add("UCP001", f"flat array {field!r} missing from rank file")
            return
        numel = 1
        for d in getattr(stub, "shape", ()):
            numel *= d
        expected = self.derived["partition_numel"]
        if numel != expected:
            self._add(
                "UCP011",
                f"{field} holds {numel} elements; layout derives {expected} "
                f"for dp_rank {self.dp_rank}",
            )
        self._dtype(field, stub)

    def _dtype(self, field: str, stub) -> None:
        """UCP020 for a state array — an index entry or a decoded array
        — stored as other than float32: the strict load would cast it
        without a word, and the conversion moves state byte-exactly."""
        dtype = getattr(stub, "dtype", None)
        if dtype is not None and np.dtype(dtype) != np.float32:
            self._add(
                "UCP020",
                f"{field} stored as {np.dtype(dtype)}; optimizer state "
                f"arrays are float32",
            )

    def _segments(self, segments: List) -> None:
        """Each segment diffed against the derived one (UCP004; UCP022
        when it does not decode), then the parameters the table lacks
        (UCP001) or adds (UCP002)."""
        derived = {seg["name"]: seg for seg in self.derived["segments"]}
        seen = set()
        for segment in segments:
            try:
                name = segment["name"]
                if not isinstance(name, str):
                    raise TypeError(f"name {name!r} is not a string")
                offset = operator.index(segment["offset"])
                numel = operator.index(segment["numel"])
                shape = tuple(operator.index(d) for d in segment["shard_shape"])
            except (KeyError, TypeError) as exc:
                self._add("UCP022", f"segment table entry unreadable: {exc}")
                continue
            seen.add(name)
            want = derived.get(name)
            if want is not None:
                want_shape = tuple(want["shard_shape"])
                if (offset, numel, shape) != (want["offset"], want["numel"], want_shape):
                    self._add(
                        "UCP004",
                        f"segment {name!r} recorded as offset={offset} "
                        f"numel={numel} shape={shape}; layout derives "
                        f"offset={want['offset']} numel={want['numel']} "
                        f"shape={want_shape}",
                    )
        for name in sorted(set(derived) - seen):
            self._add(
                "UCP001",
                f"parameter {name!r} is owned by this rank per the layout but "
                f"missing from the file's segment table",
            )
        for name in sorted(seen - set(derived)):
            self._add(
                "UCP002",
                f"segment {name!r} recorded in the file but not derivable from "
                f"the job's (model, parallel) configs",
                warning,
            )

    def _param_states(self, states: Dict) -> None:
        """Megatron-classic per-parameter files: per kind, the names
        diffed against the derived ones (UCP001, UCP002; UCP022 for an
        absent kind), then each state's shape against its derived shard
        shape (UCP004) and its dtype against float32 (UCP020)."""
        derived = {e.name: e.shard_shape for e in self.layout.entries}
        for kind in FLAT_STATE_FIELDS:
            shard_map = states.get(kind) if isinstance(states, dict) else None
            if not isinstance(shard_map, dict):
                self._add(
                    "UCP022",
                    f"param_states has no {kind!r} states; their provenance "
                    f"cannot be established",
                )
                continue
            for name in sorted(set(derived) - set(shard_map)):
                self._add(
                    "UCP001",
                    f"parameter {name!r} ({kind}) owned by this rank per the "
                    f"layout but absent from param_states",
                )
            for name in sorted(set(shard_map) - set(derived)):
                self._add(
                    "UCP002",
                    f"param_states entry {name!r} ({kind}) not derivable from "
                    f"the job's configs",
                    warning,
                )
            for name in sorted(shard_map):
                stub = shard_map[name]
                shape = tuple(getattr(stub, "shape", ()))
                if name in derived and shape != tuple(derived[name]):
                    self._add(
                        "UCP004",
                        f"{name!r} ({kind}) stored with shape {shape}; layout "
                        f"derives shard shape {tuple(derived[name])}",
                    )
                self._dtype(f"param_states.{kind}.{name}", stub)


class ModelParallelLayout:
    """Layouts for every model-parallel rank of a training configuration."""

    def __init__(
        self,
        model_cfg: ModelConfig,
        parallel_cfg: ParallelConfig,
        alignment: int = DEFAULT_ALIGNMENT,
    ) -> None:
        self.model_cfg = model_cfg
        self.parallel_cfg = parallel_cfg
        self.alignment = alignment
        self.shard_specs: Dict[str, ShardSpec] = build_shard_specs(
            model_cfg, expert_parallel=parallel_cfg.expert_parallel
        )
        names = list(self.shard_specs)
        self.stage_plan: StagePlan = build_stage_plan(model_cfg, names, parallel_cfg.pp)
        self._ranks: Dict[Tuple[int, int, int], RankShardLayout] = {}
        for pp_stage in range(parallel_cfg.pp):
            stage_params = self.stage_plan.params_of_stage(pp_stage)
            for sp_rank in range(parallel_cfg.sp):
                for tp_rank in range(parallel_cfg.tp):
                    entries: List[ShardEntry] = []
                    offset = 0
                    for name in stage_params:
                        spec = self.shard_specs[name]
                        shape = spec.shard_shape(parallel_cfg.tp)
                        entry = ShardEntry(name=name, shard_shape=shape, offset=offset)
                        entries.append(entry)
                        offset = entry.end
                    self._ranks[(pp_stage, sp_rank, tp_rank)] = RankShardLayout(
                        pp_stage=pp_stage,
                        sp_rank=sp_rank,
                        tp_rank=tp_rank,
                        entries=entries,
                        dp_degree=parallel_cfg.dp,
                        alignment=alignment,
                        specs={
                            name: self.shard_specs[name] for name in stage_params
                        },
                    )

    def tiling_diagnostics(self) -> List[Diagnostic]:
        """Tiling diagnostics across every model-parallel rank."""
        out: List = []
        for coord in self.mp_coords():
            out.extend(self._ranks[coord].tiling_diagnostics())
        return out

    def validate(self) -> None:
        """Assert every rank's partition slices tile its flat buffer.

        Statically proves, for each model-parallel rank, that the shard
        entries pack contiguously, alignment padding is exact, and the
        ZeRO partition slices cover the payload region exactly once.
        Called by the training engine at construction, and the UCP load
        lowers its plan from that layout, so source and target layouts
        are held to the same invariant.

        Raises:
            repro.core.diagnostics.LayoutLintError: with the full
                diagnostic list when any rank's tiling is unsound.
        """
        diagnostics = self.tiling_diagnostics()
        if diagnostics:
            raise LayoutLintError(LintReport(
                subject=f"layout {self.parallel_cfg.describe()}",
                diagnostics=diagnostics,
            ))

    def rank_layout(self, pp_stage: int, sp_rank: int, tp_rank: int) -> RankShardLayout:
        """Layout for one model-parallel rank."""
        try:
            return self._ranks[(pp_stage, sp_rank, tp_rank)]
        except KeyError:
            raise IndexError(
                f"(pp={pp_stage}, sp={sp_rank}, tp={tp_rank}) not on grid "
                f"{self.parallel_cfg.describe()}"
            ) from None

    def mp_rank_index(self, pp_stage: int, sp_rank: int, tp_rank: int) -> int:
        """Flat model-parallel rank index (matches Topology ordering)."""
        cfg = self.parallel_cfg
        return (pp_stage * cfg.sp + sp_rank) * cfg.tp + tp_rank

    def mp_coords(self) -> List[Tuple[int, int, int]]:
        """All (pp, sp, tp) coordinates in mp-rank order."""
        cfg = self.parallel_cfg
        return [
            (pp, sp, tp)
            for pp in range(cfg.pp)
            for sp in range(cfg.sp)
            for tp in range(cfg.tp)
        ]

    def owners_of(self, name: str) -> List[Tuple[int, int, int]]:
        """Every (pp, sp, tp) coordinate whose buffer holds ``name``."""
        return [coord for coord in self.mp_coords() if self._ranks[coord].owns(name)]

    def spec(self, name: str) -> ShardSpec:
        """Shard spec for a parameter name."""
        try:
            return self.shard_specs[name]
        except KeyError:
            raise KeyError(f"unknown parameter {name!r}") from None
