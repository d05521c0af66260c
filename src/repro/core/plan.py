"""The conversion planner: source rank-file headers -> one immutable plan.

The paper's converter (Algorithm 1) is a plan — which source bytes
become which atom bytes — followed by byte movement.  Extract/Union
(source partitions -> atoms) and GenUcpMetadata/Load (atoms -> target
partitions) are one partition <-> atom mapping run in opposite
directions, so the plan is the load's own lowering,
:func:`~repro.core.ops.gen_ucp_metadata`, of the *source* layout (the
DCP shape: planner -> immutable plan -> storage reader);
:mod:`repro.core.convert` executes its rows as they are and the
provenance check (``repro lint-plan --provenance``) checks them.

1. **Header pass + proof** (:func:`analyze_source`) — every rank file's
   header is decoded exactly once (``load_index_sized``: partition
   metadata, tensor index and file size from one ``open``; the payload
   is never read) and held to the derived layout
   (:class:`~repro.parallel.layout.HeaderCheck`, UCP001-UCP004, UCP011,
   UCP019, UCP020, UCP022).  A header that passes records exactly what
   the layout derives — every state array present, float32 and of the
   derived extent — so the source layout's lowering is the source-byte
   map: each row names an atom range and the rank-file elements that
   hold it.  Union's copy rule splits a parameter's rows into the
   primary part and its copies, and every part read is proven to
   deliver its tp shard exactly once (:func:`_delivery`, UCP017 /
   UCP018 at the rank file) — the same theorem the target side proves
   over the load plan.
2. **Resolution** — job-wide state asserted rank-uniform
   (:func:`_check_cross_rank_consistency`) and every spec resolved
   through the UCP-language program (:func:`_resolve_specs`), both from
   the headers of step 1.
3. **Lowering** (:func:`lower_read_plans`, :func:`_plan_reads`) — the
   proven rows of the atoms still to convert are picked by pattern and
   put in file order, as index arrays into that one row table (no
   second representation of a row); each atom's files, consumer
   counts, manifest entries and file sizes complete the
   :class:`ConversionPlan`, which nothing writes to afterwards.

The only tensor-shaped computation is one ``int64`` index map per
``fragment_params`` *shape class* — ``(fragmenter, logical shape, TP
degree, rank)``, shared by every layer — executed through the *real*
fragmenter once and kept as a read-only run table by
:mod:`repro.core.intervals`, so the plan cannot drift from the
executable sharding semantics and disk IO stays header-only (kilobytes
for a multi-terabyte checkpoint).

The pre-flight sits beside the header pass it consumes:
:func:`preflight_convert` gates every conversion and :func:`lint_plan`
every replan and ``repro lint-plan``, before any payload byte is read.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.ckpt import manifest as manifest_mod
from repro.ckpt import naming
from repro.core.atom import STATE_KINDS
from repro.core.diagnostics import (
    Diagnostic,
    LayoutLintError,
    LintReport,
    error,
    warning,
)
from repro.core.errors import PatternMatchError
from repro.core.intervals import (
    atom_rows,
    group_shift,
    merge_intervals,
    merged_bounds,
    numel,
    subtract_intervals,
)
from repro.core.ops import LoadPlan, gen_ucp_metadata
from repro.core.patterns import PatternProgram
from repro.dist.topology import ParallelConfig
from repro.models.configs import ModelConfig
from repro.parallel.layout import ModelParallelLayout, RankShardLayout
from repro.parallel.tp import (
    PATTERN_FRAGMENT,
    PATTERN_REPLICATED,
    PATTERN_TO_AVERAGE,
    ShardSpec,
    build_shard_specs,
)
from repro.storage.serializer import SerializationError, TensorIndexEntry
from repro.storage.store import ObjectStore

FP32_BYTES = 4
"""Flat partitions are fp32; provenance byte ranges are elements * 4."""


def byte_range(start: int, end: int) -> str:
    """Render an element interval as the byte range diagnostics report."""
    return f"bytes [{start * FP32_BYTES}, {end * FP32_BYTES})"


@dataclasses.dataclass
class ProvenanceAnalysis:
    """A source's proven byte map and the report of the proof.

    ``specs`` maps each parameter the model derives to its spec.  An
    analysis of a distributed checkpoint (:func:`analyze_source`) keeps
    what its one header pass decoded — ``layout`` (the source's
    :class:`~repro.parallel.layout.ModelParallelLayout`), ``headers``
    (rank file -> index tree, tensor leaves as
    :class:`~repro.storage.serializer.TensorIndexEntry`) and
    ``file_sizes`` (rank file -> on-disk bytes) — and the source rows:
    ``plan`` is ``gen_ucp_metadata(layout)``, ``parts[name]`` the rows
    the conversion reads for a parameter (the primary part, then each
    copy, each sorted by atom element), and row ``i`` moves elements
    ``file_start[i]:`` of the state arrays of rank file
    ``files[file_of[i]]``.  An analysis of a UCP directory
    (:func:`~repro.analysis.provenance.analyze_ucp_source`) has no rows;
    ``atom_files`` names each atom that supplies its whole tensor.
    """

    model_cfg: ModelConfig
    source_cfg: ParallelConfig
    specs: Dict[str, ShardSpec]
    report: LintReport
    layout: Optional[ModelParallelLayout] = None
    headers: Dict[str, Dict] = dataclasses.field(default_factory=dict)
    file_sizes: Dict[str, int] = dataclasses.field(default_factory=dict)
    optimizer_layout: str = "flat"
    plan: Optional[LoadPlan] = None
    parts: Dict[str, Tuple[np.ndarray, ...]] = dataclasses.field(
        default_factory=dict
    )
    files: Tuple[str, ...] = ()
    file_of: Optional[np.ndarray] = None
    file_start: Optional[np.ndarray] = None
    atom_files: Dict[str, str] = dataclasses.field(default_factory=dict)

    def state_field(self, name: str) -> str:
        """The fp32 state array a row of ``name`` reads in its rank file."""
        if self.optimizer_layout == "per_param":
            return f"param_states.fp32.{name}"
        return naming.FLAT_STATE_FIELDS["fp32"]

    def state_entries(self, rel: str, name: str) -> List[TensorIndexEntry]:
        """The index entries, one per state kind, of the arrays a row of
        ``name`` reads in rank file ``rel``, as the header pass decoded
        them: the flat partitions, or ``param_states.<kind>.<name>``."""
        header = self.headers[rel]
        if self.optimizer_layout == "per_param":
            return [header["param_states"][kind][name] for kind in STATE_KINDS]
        return [header[naming.FLAT_STATE_FIELDS[kind]] for kind in STATE_KINDS]

    def _supplied(self, rows: np.ndarray) -> np.ndarray:
        """The rows whose rank file decoded: an absent or undecodable
        file supplies no source byte."""
        decoded = np.array([rel in self.headers for rel in self.files], dtype=bool)
        return rows[decoded[self.file_of[rows]]]

    def sourced(self, name: str) -> List[Tuple[int, int]]:
        """Merged atom-element intervals of ``name`` a source byte supplies."""
        if self.plan is None:
            whole = numel(self.specs[name].unpadded_shape)
            return [(0, whole)] if name in self.atom_files else []
        rows = self._supplied(self.parts[name][0])
        start = self.plan.atom_start[rows]
        lo, hi = merged_bounds(start, start + self.plan.length[rows])
        return list(zip(lo.tolist(), hi.tolist()))

    def source_chain(self, name: str, atom: int) -> Optional[str]:
        """The source half of a provenance chain: the rank-file bytes
        that supply atom element ``atom`` of ``name``, or None."""
        if self.plan is None:
            if name not in self.atom_files:
                return None
            return (
                f"source pp=0.sp=0.tp=0.dp=0 {self.atom_files[name]}::values "
                f"{byte_range(atom, atom + 1)}"
            )
        rows = self._supplied(self.parts[name][0])
        start = self.plan.atom_start[rows]
        k = int(np.searchsorted(start, atom, "right")) - 1
        if k < 0 or atom >= start[k] + self.plan.length[rows[k]]:
            return None
        row = int(rows[k])
        pp, sp, tp, _ = self.plan.targets[self.plan.target[row]]
        rel = self.files[self.file_of[row]]
        dp = int(naming.OPTIM_STATES_RE.match(rel.split("/")[-1]).group(1))
        element = int(self.file_start[row]) + (atom - int(start[k]))
        return (
            f"source pp={pp}.sp={sp}.tp={tp}.dp={dp} "
            f"{rel}::{self.state_field(name)} {byte_range(element, element + 1)}"
        )


_Target = Tuple[int, int, int, int]
"""A ``(pp, sp, tp, dp)`` partition."""


def _header_pass(
    store: ObjectStore,
    layout: ModelParallelLayout,
    files: Dict[str, _Target],
    report: LintReport,
) -> Tuple[Dict[str, Dict], Dict[str, int]]:
    """The one header pass over every source optimizer-state file.

    ``files`` maps each rank file to the ``(pp, sp, tp, dp)`` of the
    file.  Returns each decoded file's index tree and on-disk size.
    Each header is held to the layout
    (:class:`~repro.parallel.layout.HeaderCheck`: UCP001-UCP004, UCP011,
    UCP019, UCP020, UCP022); an absent or unreadable file is UCP022.
    """
    headers: Dict[str, Dict] = {}
    file_sizes: Dict[str, int] = {}
    for rel, (pp, sp, tp, dp_rank) in files.items():
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
        check = layout.rank_layout(pp, sp, tp).header_check(
            dp_rank, layout.parallel_cfg.zero_stage, rel
        )
        report.extend(check.run(header))
        if isinstance(header, dict):
            headers[rel] = header
    return headers, file_sizes


_Group = Tuple[str, RankShardLayout, np.ndarray]
"""One mp rank's rows of one tensor, sorted by atom element."""


def _delivered(plan: LoadPlan, groups: Sequence[_Group]) -> bool:
    """Whether every group's rows deliver every data element of its tp
    shard exactly once, in one vectorized pass: each group's rows and
    shard tiles are shifted into their own window of one element space
    (:func:`~repro.core.intervals.group_shift`)."""
    if not groups:
        return True
    names, rank_layouts, rows = zip(*groups)
    rows = np.concatenate(rows)
    start = plan.atom_start[rows] + group_shift([g[2].size for g in groups])
    end = start + plan.length[rows]
    if (start[1:] < np.maximum.accumulate(end)[:-1]).any():
        return False
    tables = [
        atom_rows(plan.layout.spec(name), plan.layout.parallel_cfg.tp, r.tp_rank)
        for name, r in zip(names, rank_layouts)
    ]
    shard_lo, shard_hi, atom_lo = (np.concatenate(c) for c in zip(*tables))
    atom_lo = atom_lo + group_shift([t.atom_lo.size for t in tables])
    want = merged_bounds(atom_lo, atom_lo + (shard_hi - shard_lo))
    return all(
        np.array_equal(w, h) for w, h in zip(want, merged_bounds(start, end))
    )


def _delivery(
    plan: LoadPlan,
    groups: Sequence[_Group],
    where: Callable[[_Target, str], str],
) -> List[Diagnostic]:
    """Whether each group — one mp rank's rows of one tensor, sorted by
    atom element — delivers every data element of its tp shard exactly
    once: UCP018 for an element two rows deliver, UCP017 for one no row
    does, each located by ``where`` at the ``(pp, sp, tp, dp)``
    partition it belongs to.  Groups are examined one by one only when
    :func:`_delivered` finds a defect."""
    if _delivered(plan, groups):
        return []
    out: List[Diagnostic] = []
    for name, rank_layout, rows in groups:
        start = plan.atom_start[rows]
        end = start + plan.length[rows]
        reach = np.maximum.accumulate(end)
        for i in (np.flatnonzero(start[1:] < reach[:-1]) + 1).tolist():
            row = int(rows[i])
            part_lo = int(plan.offset[row])
            n = min(int(end[i]), int(reach[i - 1])) - int(start[i])
            out.append(error(
                "UCP018",
                f"partition {byte_range(part_lo, part_lo + n)} of "
                f"{name!r} <- atom elements [{start[i]}, {start[i] + n}), "
                f"which another row of the plan also delivers",
                location=where(plan.targets[plan.target[row]], name),
            ))
        shard_lo, shard_hi, atom_lo = atom_rows(
            plan.layout.spec(name), plan.layout.parallel_cfg.tp,
            rank_layout.tp_rank,
        )
        atom_hi = atom_lo + (shard_hi - shard_lo)
        size = rank_layout.partition_numel
        for m_lo, m_hi in subtract_intervals(
            merge_intervals(list(zip(atom_lo.tolist(), atom_hi.tolist()))),
            merge_intervals(list(zip(start.tolist(), end.tolist()))),
        ):
            # the layout locates what no row moves: atom element -> shard
            # element -> flat buffer position -> (dp partition, offset)
            i = int(np.flatnonzero((atom_lo <= m_lo) & (m_lo < atom_hi))[0])
            flat = rank_layout.entry(name).offset + int(
                shard_lo[i] + m_lo - atom_lo[i]
            )
            dp, part_lo = divmod(flat, size)
            n = min(m_hi, int(atom_hi[i]), m_lo + size - part_lo) - m_lo
            coord = (rank_layout.pp_stage, rank_layout.sp_rank, rank_layout.tp_rank)
            out.append(error(
                "UCP017",
                f"partition {byte_range(part_lo, part_lo + n)} of "
                f"{name!r} <- atom elements [{m_lo}, {m_hi}) <- <no plan "
                f"row>: no plan row moves these data bytes",
                location=where(coord + (dp,), name),
            ))
    return out


def _holders(
    spec: ShardSpec, tp_degree: int, held: List[int]
) -> Tuple[List[int], List[int]]:
    """Union's copy rule over a parameter's holders (mp ranks, sorted):
    the primary holders, then the copies the conversion also reads.

    A fragment at tp > 1 takes, per tp rank, its lowest ``(pp, sp)``
    holder; every other pattern its lowest holder.  Replicated and
    averaged parameters also read every other holder, in coordinate
    order (to compare or to average them); the other copies of a
    fragment (sp > 1, tied embeddings at pp > 1) are never read.
    """
    if spec.pattern == PATTERN_FRAGMENT and tp_degree > 1:
        per_tp: Dict[int, int] = {}
        for rank in held:
            per_tp.setdefault(rank % tp_degree, rank)
        return sorted(per_tp.values()), []
    if spec.pattern in (PATTERN_REPLICATED, PATTERN_TO_AVERAGE):
        return held[:1], held[1:]
    return held[:1], []


def analyze_source(
    store: ObjectStore,
    tag: str,
    model_cfg: ModelConfig,
    source_cfg: ParallelConfig,
    optimizer_layout: str = "flat",
) -> ProvenanceAnalysis:
    """Prove a distributed source's byte map from its rank-file headers.

    The header pass holds every header to the derived layout; the
    layout's lowering (``gen_ucp_metadata``, the load's own) is then the
    source-row map, split by union's copy rule, and every part the
    conversion reads is proven to deliver its tp shard exactly once.
    The returned analysis carries the rows the conversion executes
    (:func:`lower_read_plans` picks and orders them), together with the
    layout, index trees and file sizes of its one header pass.
    """
    report = LintReport(subject=f"provenance {store.base}/{tag}")
    layout = ModelParallelLayout(model_cfg, source_cfg)
    plan = gen_ucp_metadata(layout)

    # each partition's rank file: its own at ZeRO >= 1, else the one
    # dp-0 file holding the whole flat buffer (or per-param states)
    own_files = source_cfg.zero_stage > 0 and optimizer_layout == "flat"
    rank_of = np.array(
        [layout.mp_rank_index(*target[:3]) for target in plan.targets],
        dtype=np.int64,
    )
    rels, base = [], []
    for (pp, sp, tp, dp), mp_rank in zip(plan.targets, rank_of.tolist()):
        file_dp = dp if own_files else 0
        rels.append(f"{tag}/{naming.optim_states_name(file_dp, mp_rank)}")
        base.append((dp - file_dp) * layout.rank_layout(pp, sp, tp).partition_numel)
    files: Dict[str, _Target] = {}
    for rel, target in zip(rels, plan.targets):
        files.setdefault(rel, target)
    headers, file_sizes = _header_pass(store, layout, files, report)
    index = {rel: i for i, rel in enumerate(files)}
    file_of = np.array([index[rel] for rel in rels], dtype=np.int64)[plan.target]
    file_start = np.array(base, dtype=np.int64)[plan.target] + plan.offset

    coords = layout.mp_coords()
    parts: Dict[str, Tuple[np.ndarray, ...]] = {}
    groups: List[_Group] = []
    for name, spec in layout.shard_specs.items():
        rows = plan.rows(name)
        holder = rank_of[plan.target[rows]]
        # the holders the layout derives, whether or not rows reach them
        held = [layout.mp_rank_index(*coord) for coord in layout.owners_of(name)]
        if optimizer_layout == "per_param":
            # a per-parameter array starts at the parameter's flat offset
            for rank in held:
                offset = layout.rank_layout(*coords[rank]).entry(name).offset
                file_start[rows[holder == rank]] -= offset
        primary, copies = _holders(spec, source_cfg.tp, held)
        groups.extend(
            (name, layout.rank_layout(*coords[rank]), rows[holder == rank])
            for rank in primary + copies
        )
        is_primary = np.zeros(len(coords), dtype=bool)
        is_primary[primary] = True
        parts[name] = (
            rows[is_primary[holder]],
            *(rows[holder == rank] for rank in copies),
        )
    rank_file = dict(zip(plan.targets, rels))
    report.extend(_delivery(plan, groups, lambda target, _: rank_file[target]))
    file_of.flags.writeable = file_start.flags.writeable = False
    return ProvenanceAnalysis(
        model_cfg, source_cfg, dict(layout.shard_specs), report,
        layout=layout, headers=headers, file_sizes=file_sizes,
        optimizer_layout=optimizer_layout, plan=plan, parts=parts,
        files=tuple(files), file_of=file_of, file_start=file_start,
    )


def expected_tag_basenames(
    parallel_cfg: ParallelConfig,
    layout: ModelParallelLayout,
    optimizer_layout: str = "flat",
) -> Set[str]:
    """Every data-file basename a complete save of this config writes.

    The symbolic twin of :func:`repro.ckpt.saver.
    save_distributed_checkpoint`: derived from the configs alone, never
    from the directory being linted.
    """
    names: Set[str] = {naming.JOB_CONFIG_FILE}
    for coord in layout.mp_coords():
        mp_rank = layout.mp_rank_index(*coord)
        if parallel_cfg.zero_stage < 3:
            names.add(naming.model_states_name(mp_rank))
        else:
            for d in range(parallel_cfg.dp):
                names.add(naming.zero3_model_states_name(d))
        if optimizer_layout == "per_param":
            names.add(naming.optim_states_name(0, mp_rank))
        else:
            dp_ranks = [0] if parallel_cfg.zero_stage == 0 else range(parallel_cfg.dp)
            for d in dp_ranks:
                names.add(naming.optim_states_name(d, mp_rank))
    return names


def config_diagnostics(
    model_cfg: ModelConfig,
    parallel_cfg: ParallelConfig,
    atom_names: Optional[Iterable[str]] = None,
    role: str = "target",
) -> List[Diagnostic]:
    """Statically check one ``(model, parallel)`` pair.

    Proves, per parameter: the fragmenter divides the config's TP
    degree (UCP007 / UCP012 for expert axes), and — when no
    indivisibility blocks layout construction — that the derived
    layout's partition slices tile every rank's flat buffer (UCP005 /
    UCP006).  With ``atom_names`` (the atoms available in a UCP
    directory), every derived parameter must be among them (UCP001).

    Args:
        model_cfg: the model being reconfigured.
        parallel_cfg: the strategy to prove loadable.
        atom_names: optional atom inventory to check coverage against.
        role: diagnostic location prefix (``"source"`` / ``"target"``).
    """
    out: List[Diagnostic] = []
    prefix = f"{role}:{parallel_cfg.describe()}"
    specs = build_shard_specs(
        model_cfg, expert_parallel=parallel_cfg.expert_parallel
    )

    divisible = True
    for name in sorted(specs):
        spec = specs[name]
        try:
            spec.shard_shape(parallel_cfg.tp)
        except ValueError as exc:
            divisible = False
            kind = getattr(spec.fragmenter, "kind", None)
            if kind == "expert_parallel":
                out.append(error(
                    "UCP012",
                    f"{name!r} cannot split across tp={parallel_cfg.tp} "
                    f"expert-parallel ranks: {exc}",
                    location=prefix,
                ))
            else:
                out.append(error(
                    "UCP007",
                    f"{name!r} fragment dimension does not divide "
                    f"tp={parallel_cfg.tp}: {exc}",
                    location=prefix,
                ))

    if atom_names is not None:
        available = set(atom_names)
        for name in sorted(set(specs) - available):
            out.append(error(
                "UCP001",
                f"{role} layout needs parameter {name!r} but no atom "
                f"provides it",
                location=prefix,
            ))
        for name in sorted(available - set(specs)):
            out.append(warning(
                "UCP002",
                f"atom {name!r} is not consumed by the {role} layout",
                location=prefix,
            ))

    if divisible:
        try:
            layout = ModelParallelLayout(model_cfg, parallel_cfg)
        except ValueError as exc:
            out.append(error(
                "UCP007",
                f"layout underivable for {parallel_cfg.describe()}: {exc}",
                location=prefix,
            ))
        else:
            out.extend(_tiling_diagnostics(layout, prefix))
    return out


def _tiling_diagnostics(
    layout: ModelParallelLayout, prefix: str
) -> List[Diagnostic]:
    """A derived layout's UCP005 / UCP006 findings, located under ``prefix``."""
    return [
        Diagnostic(
            diag.rule_id,
            diag.severity,
            diag.message,
            location=f"{prefix}.{diag.location}",
        )
        for diag in layout.tiling_diagnostics()
    ]


def lint_plan(
    model_cfg: ModelConfig,
    source_cfg: ParallelConfig,
    target_cfg: ParallelConfig,
    atom_names: Optional[Iterable[str]] = None,
) -> LintReport:
    """Statically prove a source -> target conversion well-formed.

    Both sides are checked: the source config must itself be derivable
    (its rank files were written under it), and the target config must
    be reachable — every fragment dimension divides the target degrees
    and the target's partition tiling is exact.  Nothing is read from
    disk; this is the pre-flight ``repro lint-plan`` exposes.

    Args:
        model_cfg: the shared model configuration.
        source_cfg: the strategy the checkpoint was saved under.
        target_cfg: the strategy to resume under.
        atom_names: when converting from a UCP directory, the atoms it
            actually holds; coverage is proven against the target.
    """
    report = LintReport(
        subject=f"{source_cfg.describe()} -> {target_cfg.describe()}"
    )
    report.extend(config_diagnostics(model_cfg, source_cfg, role="source"))
    report.extend(config_diagnostics(
        model_cfg, target_cfg, atom_names=atom_names, role="target"
    ))
    if model_cfg.is_moe and source_cfg.expert_parallel != target_cfg.expert_parallel:
        report.add(warning(
            "UCP013",
            f"expert layout changes across the plan "
            f"(expert_parallel {source_cfg.expert_parallel} -> "
            f"{target_cfg.expert_parallel}); conversion re-fragments "
            f"{model_cfg.num_experts} experts through atoms",
            location=f"{source_cfg.describe()} -> {target_cfg.describe()}",
        ))
    return report


def preflight_convert(
    src_store: ObjectStore,
    src_tag: str,
    manifest: Optional[Dict],
    analysis: ProvenanceAnalysis,
    optimizer_layout: str = "flat",
) -> LintReport:
    """The converter's mandatory pre-pass over a committed source tag.

    Runs before any tensor payload is read: proves the source layout's
    partition slices tile every flat buffer (its fragment divisibility
    was settled when ``analysis.layout`` was derived) and that the
    commit manifest records every rank file the layout derives — a
    manifest that never listed a rank's optimizer state means the save
    was structurally incomplete, which per-file digest verification
    alone cannot see.  When the structural checks pass, the findings
    of :func:`analyze_source` are folded in: every rank-file *header*
    must match the layout and store float32 state (UCP001-UCP004,
    UCP011, UCP019, UCP020, UCP022), and every part of the source rows the
    conversion reads must deliver its atom elements exactly once
    (UCP017, UCP018).  ``repro lint-ckpt`` reports these same findings.

    Args:
        src_store: source checkpoint store.
        src_tag: the committed tag being converted.
        manifest: the tag's commit-manifest payload; None (a tag the
            linter found uncommitted) skips the manifest-vs-layout check.
        analysis: the source's :class:`ProvenanceAnalysis`
            (:func:`analyze_source`) — the object whose rows the
            converter goes on to execute, so the source is analyzed, and
            its layout derived, exactly once.
        optimizer_layout: the job's recorded optimizer layout.
    """
    source_cfg = analysis.source_cfg
    report = LintReport(subject=f"{src_store.base}/{src_tag}")
    report.extend(_tiling_diagnostics(
        analysis.layout, f"source:{source_cfg.describe()}"
    ))
    if not report.ok:
        return report

    if manifest is not None:
        expected = expected_tag_basenames(
            source_cfg, analysis.layout, optimizer_layout
        )
        for basename in sorted(expected - set(manifest["files"])):
            report.add(error(
                "UCP008",
                f"the {source_cfg.describe()} layout derives rank file "
                f"{basename!r} but the commit manifest never recorded it; "
                f"the save was structurally incomplete",
                location=f"{src_tag}/{basename}",
            ))
    if report.ok:
        report.extend(analysis.report.diagnostics)
    return report


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
    instead of comparing them, never move bytes).  The header pass held
    every rank file's record to the derived spec, so that is what is
    read here."""
    specs: Dict[str, ShardSpec] = {}
    for name in sorted(analysis.specs):
        saved_spec = analysis.specs[name]
        spec = program.resolve_spec(
            name, saved_spec.logical_shape, saved_spec.unpadded_shape
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
class ConversionPlan:
    """What the per-atom fan-out executes, fixed before the first atom.

    Shared by every worker and never written after :func:`_plan_reads`
    returned it.  ``parts`` holds the atoms still to convert (a resumed
    run lowers only those) as :func:`lower_read_plans` returned them:
    row indices into ``analysis.plan``, each part in file order.  Row
    ``i`` moves ``analysis.plan.length[i]`` elements from element
    ``analysis.file_start[i]`` of the state arrays of rank file
    ``analysis.files[analysis.file_of[i]]`` to atom element
    ``analysis.plan.atom_start[i]``.  ``files`` names each atom's rank
    files, sorted, and ``order`` the order the atoms fan out in;
    ``consumers`` counts, per touched source file, the atoms that read
    it — the source-file table drops a file when that many have
    released it — and ``last_use`` is the position in ``order`` of the
    last of them; ``entries`` is each touched file's commit-manifest
    record, checked while the file streams in; ``file_sizes`` its
    on-disk size as the header pass saw it.
    """

    specs: Dict[str, ShardSpec]
    analysis: ProvenanceAnalysis
    parts: Dict[str, Tuple[np.ndarray, ...]]
    files: Dict[str, Tuple[str, ...]]
    order: Tuple[str, ...]
    consumers: Dict[str, int]
    last_use: Dict[str, int]
    entries: Dict[str, Optional[Dict]]
    file_sizes: Dict[str, int]


def lower_read_plans(
    analysis: ProvenanceAnalysis, patterns: Dict[str, str]
) -> Dict[str, Tuple[np.ndarray, ...]]:
    """The source rows each planned parameter reads, as index arrays
    into ``analysis.plan``: its primary part, then the copies its pattern
    reads, each in file order (by rank file, then file element) so the
    scatter walks every file forward.

    The rows are ``gen_ucp_metadata`` of the source layout, split by
    union's copy rule; :func:`analyze_source` held every header to the
    layout (the state arrays the rows name are present, float32 and of
    the derived extent) and proved every part delivers its atom elements
    exactly once, so executing exactly these rows writes every atom
    element of every part once, and reads no padding byte.

    Args:
        analysis: a *clean* (``report.ok``) :func:`analyze_source` result.
        patterns: the parameters to plan, each with its pattern from the
            resolved UCP-language program — a custom program may e.g.
            reclassify a replicated norm as ``params_to_average``.  Both
            read every copy: ``params_to_average`` to average them,
            ``replicated_params`` to bit-compare them.
    """
    order = np.lexsort((analysis.file_start, analysis.file_of))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    lowered: Dict[str, Tuple[np.ndarray, ...]] = {}
    for name, pattern in patterns.items():
        primary, *copies = analysis.parts[name]
        if pattern not in (PATTERN_TO_AVERAGE, PATTERN_REPLICATED):
            copies = []
        lowered[name] = tuple(
            rows[np.argsort(rank[rows])] for rows in (primary, *copies)
        )
    return lowered


def _fan_order(files: Dict[str, Tuple[str, ...]]) -> Tuple[str, ...]:
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
    for name in sorted(files, key=lambda n: (files[n], n)):
        for rel in files[name]:
            number.setdefault(rel, len(number))

    def key(name: str) -> Tuple[int, int, str]:
        used = [number[rel] for rel in files[name]]
        return max(used, default=-1), min(used, default=-1), name

    return tuple(sorted(files, key=key))


def _plan_reads(
    analysis: ProvenanceAnalysis,
    src_manifest: Dict,
    specs: Dict[str, ShardSpec],
    parts: Dict[str, Tuple[np.ndarray, ...]],
) -> ConversionPlan:
    """Complete the plan: each atom's files, the fan-out order, each
    touched file's consumer count, manifest entry and size.  A file is
    loaded once by the first atom that needs it — verified against its
    manifest entry before any consumer sees a byte — and leaves when its
    last planned atom has scattered it."""
    files = {
        name: tuple(sorted(
            analysis.files[f]
            for f in np.unique(analysis.file_of[np.concatenate(rows)]).tolist()
        ))
        for name, rows in parts.items()
    }
    consumers = collections.Counter(rel for rels in files.values() for rel in rels)
    order = _fan_order(files)
    last_use = {
        rel: position for position, name in enumerate(order) for rel in files[name]
    }
    return ConversionPlan(
        specs=specs,
        analysis=analysis,
        parts=parts,
        files=files,
        order=order,
        consumers=dict(consumers),
        last_use=last_use,
        entries={
            rel: manifest_mod.manifest_entry(src_manifest, rel.split("/")[-1])
            for rel in consumers
        },
        file_sizes={rel: analysis.file_sizes[rel] for rel in sorted(consumers)},
    )
