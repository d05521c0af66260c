"""Byte-provenance dataflow checker for UCP conversions.

The paper's correctness claim is that a UCP transformation is a pure
re-tiling: every byte of every target rank's flat fp32 partition comes
from exactly one real (non-padding) source byte, for any source ->
target parallelism interchange.  A rank-file header check proves file
presence and shape facts (UCP001-UCP004, UCP011), but not *dataflow*
— double-writes, coverage gaps, or padding leaking into data, the
class ByteCheckpoint and TorchTitan report as the hardest to debug in
production resharding.  ``repro lint-ckpt`` runs both: the header
check and the source-side proof come from the one header pass below.

The source -> consolidated interval map is built, and its source-side
findings made, by the conversion planner (:mod:`repro.core.plan`, from
rank-file *headers* only): it is the object the converter lowers and
executes, so a proof here is about the bytes that will move.  This
module checks and explains that object — the plan types are imported
from ``core.plan``, never the reverse.  The target side is the UCP
load's own plan: :func:`check_target_provenance` and :func:`explain`
take their rows from :func:`~repro.core.ops.gen_ucp_metadata`, the
:class:`~repro.core.ops.LoadPlan` ``load_ucp_into_engine`` executes, and
derive no target slicing of their own (the layout only locates a byte
no row writes).  Three theorems are proven per target tensor:

* **coverage** — every target data byte has a source byte, and the
  load plan delivers every data byte of each target shard (UCP017);
* **exclusivity** — no byte is written twice (UCP018);
* **padding hygiene** — no source padding byte flows into target
  data (UCP019).

Violations carry the stable rule IDs UCP017-UCP022 and exact
``(tensor, rank, byte-range)`` provenance chains (:func:`explain`); see
``docs/ANALYSIS.md`` for the catalogue and a worked chain example.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.ckpt import naming
from repro.ckpt.loader import resolve_tag
from repro.core.atom import STATE_KINDS, AtomStore
from repro.core.diagnostics import Diagnostic, LintReport, error
from repro.core.intervals import (
    atom_rows,
    data_bounds,
    data_intervals,
    intersect_tilings,
    merge_intervals,
    subtract_intervals,
)
from repro.core.metadata import UCP_META_FILE, UCPMetadata
from repro.core.ops import LoadPlan, gen_ucp_metadata
from repro.core.plan import (
    ExtentTable,
    ParamProvenance,
    ProvenanceAnalysis,
    analyze_source,
    byte_range,
)
from repro.dist.topology import ParallelConfig
from repro.models.configs import ModelConfig
from repro.parallel.layout import ModelParallelLayout, RankShardLayout
from repro.parallel.tp import ShardSpec, build_shard_specs
from repro.storage.store import ObjectStore


def _data_tiling(spec: ShardSpec) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The data intervals as a tiling of atom file elements, ``(atom lo,
    atom hi, consolidated lo)``: the atom file is their concatenation."""
    d_lo, d_hi = data_bounds(spec)
    a_hi = np.cumsum(d_hi - d_lo)
    return a_hi - (d_hi - d_lo), a_hi, d_lo


def _where(target: Tuple[int, int, int, int], name: str) -> str:
    pp, sp, tp, dp = target
    return f"target:pp={pp}.sp={sp}.tp={tp}.dp={dp}/{name}"


def explain(
    analysis: ProvenanceAnalysis,
    name: str,
    target_cfg: ParallelConfig,
    pp_stage: int,
    sp_rank: int,
    tp_rank: int,
    dp_rank: int,
    local_element: int,
) -> str:
    """Provenance chain for one element of one target flat partition.

    Finds the partition's load-plan row of ``name`` that writes the
    element, then walks target partition byte -> atom element ->
    consolidated element -> source file byte, rendering each hop.  A
    position the plan writes as zero is padding.
    """
    layout = ModelParallelLayout(analysis.model_cfg, target_cfg)
    plan = gen_ucp_metadata(layout, [(pp_stage, sp_rank, tp_rank, dp_rank)])
    head = (
        f"target pp={pp_stage}.sp={sp_rank}.tp={tp_rank}"
        f".dp={dp_rank} partition "
        f"{byte_range(local_element, local_element + 1)} of "
        f"{name!r}"
    )
    rows = plan.rows(name)
    offset = plan.offset[rows]
    hit = np.flatnonzero(
        (offset <= local_element) & (local_element < offset + plan.length[rows])
    )
    if hit.size:
        row = int(rows[hit[0]])
        atom = int(plan.atom_start[row] + (local_element - plan.offset[row]))
        a_lo, _, d_lo = _data_tiling(layout.spec(name))
        k = int(np.searchsorted(a_lo, atom, "right")) - 1
        full = int(d_lo[k]) + (atom - int(a_lo[k]))
        mid = f"consolidated {byte_range(full, full + 1)}"
        for extent in analysis.params[name].lookup(full, full + 1):
            return f"{head} <- {mid} <- {extent.chain(full, full + 1)}"
        return f"{head} <- {mid} <- <no source byte>"
    zero = (plan.zero_offset <= local_element) & (
        local_element < plan.zero_offset + plan.zero_length
    )
    if offset.size and zero.any():
        return f"{head} <- padding (zero)"
    raise KeyError(
        f"element {local_element} of {name!r} is not in partition "
        f"dp={dp_rank} of pp={pp_stage}.sp={sp_rank}.tp={tp_rank}"
    )


def analyze_ucp_source(
    store: ObjectStore, metadata: Optional[UCPMetadata] = None
) -> ProvenanceAnalysis:
    """Provenance map of an already-converted UCP directory.

    Atoms are consolidated by construction: an atom whose every state
    file passes :meth:`~repro.core.atom.AtomStore.check_state` — the
    check the UCP load runs — supplies its parameter's data intervals,
    in order, from its ``fp32`` file.  Each finding of that check, and
    each parameter the metadata records no atom for (UCP017), leaves
    the parameter without provenance.
    """
    report = LintReport(subject=f"provenance {store.base}")
    if metadata is None:
        metadata = UCPMetadata.load(store)
    model_cfg = ModelConfig.from_dict(metadata.model_config)
    source_cfg = ParallelConfig.from_dict(metadata.source_parallel_config)
    specs = build_shard_specs(
        model_cfg, expert_parallel=source_cfg.expert_parallel
    )

    atom_store = AtomStore(str(store.base), store)
    params: Dict[str, ParamProvenance] = {}
    for name in sorted(specs):
        spec = specs[name]
        data = data_intervals(spec)
        params[name] = ParamProvenance(name, spec, [], data)
        if name not in metadata.params:
            total = sum(hi - lo for lo, hi in data)
            report.add(error(
                "UCP017",
                f"no atom supplies {name!r}; all {byte_range(0, total)} of "
                f"its data lack provenance",
                location=name,
            ))
            continue
        findings = [
            found for found in (
                atom_store.check_state(name, kind, spec.unpadded_shape)
                for kind in STATE_KINDS
            )
            if isinstance(found, Diagnostic)
        ]
        report.extend(findings)
        if findings:
            continue
        # the unpadded tensor's elements fill the data intervals in order
        a_lo, a_hi, d_lo = _data_tiling(spec)
        params[name] = ParamProvenance(name, spec, ExtentTable(
            d_lo, d_lo + (a_hi - a_lo), a_lo, np.zeros_like(a_lo),
            [(atom_store.path(name, "fp32"), "values", (0, 0, 0), 0)],
        ), data)
    return ProvenanceAnalysis(model_cfg, source_cfg, params, report)


def check_target_provenance(
    analysis: ProvenanceAnalysis,
    target_cfg: ParallelConfig,
) -> LintReport:
    """Prove the target theorems over the UCP load's own plan.

    Lowers the target with :func:`~repro.core.ops.gen_ucp_metadata` —
    the plan ``load_ucp_into_engine`` executes — and proves over its
    rows, per target mp rank and tensor: each row's atom elements,
    mapped back through the data intervals, have a source byte
    (UCP017); the rows of all dp partitions deliver every data element
    of the tp shard (:func:`~repro.core.intervals.atom_rows`) exactly
    once (UCP017 missing, UCP018 twice).  Diagnostics carry provenance
    chains naming the target rank, tensor and partition byte range.
    """
    report = LintReport(
        subject=f"provenance {analysis.source_cfg.describe()} -> "
                f"{target_cfg.describe()}"
    )
    layout = ModelParallelLayout(analysis.model_cfg, target_cfg)
    report.extend(layout.tiling_diagnostics())
    plan = gen_ucp_metadata(layout)
    rank_of = np.array(
        [layout.mp_rank_index(*t[:3]) for t in plan.targets], dtype=np.int64
    )
    reported: set = set()
    for coord in layout.mp_coords():
        rank_layout = layout.rank_layout(*coord)
        rank = layout.mp_rank_index(*coord)
        for entry in rank_layout.entries:
            name = entry.name
            rows = plan.rows(name)
            rows = rows[rank_of[plan.target[rows]] == rank]
            for row, m_lo, m_hi, part_lo in _unsourced(
                plan, rows, analysis.params[name]
            ):
                if (name, m_lo, m_hi) in reported:
                    continue
                reported.add((name, m_lo, m_hi))
                report.add(error(
                    "UCP017",
                    f"target partition "
                    f"{byte_range(part_lo, part_lo + (m_hi - m_lo))} of "
                    f"{name!r} <- consolidated {byte_range(m_lo, m_hi)} <- "
                    f"<no source byte>: the interchange would leave these "
                    f"bytes uninitialized",
                    location=_where(plan.targets[plan.target[row]], name),
                ))
            report.extend(_delivery(plan, rows, rank_layout, name))
    return report


def _unsourced(
    plan: LoadPlan, rows: np.ndarray, prov: ParamProvenance
) -> Iterator[Tuple[int, int, int, int]]:
    """``(row, consolidated lo, hi, partition offset)`` of each part of
    the rows' data no source byte supplies."""
    spec = plan.layout.spec(prov.name)
    gaps = subtract_intervals(prov.data, prov.covered())
    if not gaps or not rows.size:
        return
    a_lo, a_hi, d_lo = _data_tiling(spec)
    start = plan.atom_start[rows]
    q, k, lo, hi = intersect_tilings(start, start + plan.length[rows], a_lo, a_hi)
    full = d_lo[k] + (lo - a_lo[k])
    g_lo, g_hi = np.array(gaps, dtype=np.int64).T
    j, _, m_lo, m_hi = intersect_tilings(full, full + (hi - lo), g_lo, g_hi)
    row = rows[q[j]]
    part_lo = plan.offset[row] + (lo[j] + (m_lo - full[j]) - plan.atom_start[row])
    yield from zip(row.tolist(), m_lo.tolist(), m_hi.tolist(), part_lo.tolist())


def _delivery(
    plan: LoadPlan, rows: np.ndarray, rank_layout: RankShardLayout, name: str
) -> List[Diagnostic]:
    """Whether one mp rank's rows of one tensor, sorted by atom element,
    deliver every data element of its tp shard exactly once."""
    out: List[Diagnostic] = []
    start = plan.atom_start[rows]
    end = start + plan.length[rows]
    reach = np.maximum.accumulate(end)
    for i in (np.flatnonzero(start[1:] < reach[:-1]) + 1).tolist():
        row = int(rows[i])
        part_lo = int(plan.offset[row])
        n = min(int(end[i]), int(reach[i - 1])) - int(start[i])
        out.append(error(
            "UCP018",
            f"target partition {byte_range(part_lo, part_lo + n)} of "
            f"{name!r} <- atom elements [{start[i]}, {start[i] + n}), "
            f"which another row of the load plan also delivers",
            location=_where(plan.targets[plan.target[row]], name),
        ))
    shard_lo, shard_hi, atom_lo = atom_rows(
        plan.layout.spec(name), plan.layout.parallel_cfg.tp, rank_layout.tp_rank
    )
    atom_hi = atom_lo + (shard_hi - shard_lo)
    size = rank_layout.partition_numel
    for m_lo, m_hi in subtract_intervals(
        merge_intervals(list(zip(atom_lo.tolist(), atom_hi.tolist()))),
        merge_intervals(list(zip(start.tolist(), end.tolist()))),
    ):
        # the layout locates what no row writes: atom element -> shard
        # element -> flat buffer position -> (dp partition, offset)
        i = int(np.flatnonzero((atom_lo <= m_lo) & (m_lo < atom_hi))[0])
        flat = rank_layout.entry(name).offset + int(shard_lo[i] + m_lo - atom_lo[i])
        dp, part_lo = divmod(flat, size)
        n = min(m_hi, int(atom_hi[i]), m_lo + size - part_lo) - m_lo
        coord = (rank_layout.pp_stage, rank_layout.sp_rank, rank_layout.tp_rank)
        out.append(error(
            "UCP017",
            f"target partition {byte_range(part_lo, part_lo + n)} of "
            f"{name!r} <- atom elements [{m_lo}, {m_hi}) <- <no plan "
            f"row>: the load would write zeros over these data bytes",
            location=_where(coord + (dp,), name),
        ))
    return out


def analyze_interchange(
    source_dir: str,
    target_cfg: ParallelConfig,
    tag: Optional[str] = None,
    store: Optional[ObjectStore] = None,
) -> ProvenanceAnalysis:
    """Full byte-provenance proof for a source -> target interchange.

    Accepts either a distributed checkpoint directory (rank-file
    headers drive the map) or a UCP directory (atom headers drive it);
    the source and target theorems' findings land on one report.
    Tensor payloads are never read.  The analysis keeps the interval
    maps, so callers can render provenance chains (:func:`explain`)
    after the report — the CLI's ``lint-plan --provenance`` uses the
    report, the docs' worked example uses the chains.
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
