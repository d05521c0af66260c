"""Byte-provenance dataflow checker for UCP conversions.

The paper's correctness claim is that a UCP transformation is a pure
re-tiling: every byte of every target rank's flat fp32 partition comes
from exactly one real (non-padding) source byte, for any source ->
target parallelism interchange.  A rank-file header check proves file
presence and shape facts (UCP001-UCP004, UCP011), but not *dataflow*
— double-writes, coverage gaps, or padding leaking into data, the
class ByteCheckpoint and TorchTitan report as the hardest to debug in
production resharding.  ``repro lint-ckpt`` runs both: the header
check and the source-side proof come from the one header pass of
:func:`~repro.core.plan.analyze_source`.

Both directions are one lowering, :func:`~repro.core.ops.gen_ucp_metadata`.
The source side is the source layout's plan, built and proven by the
conversion planner (:mod:`repro.core.plan`, from rank-file *headers*
only): its rows are what the converter executes, so a proof there
is about the bytes that will move.  The
target side is the UCP load's own plan: :func:`check_target_provenance`
and :func:`explain` take their rows from ``gen_ucp_metadata`` of the
target layout — the :class:`~repro.core.ops.LoadPlan`
``load_ucp_into_engine`` executes — and derive no target slicing of
their own (the layout only locates a byte no row writes).  The plan
types and the delivery theorem are imported from ``core``, never the
reverse.  Three theorems are proven per target tensor:

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
    data_bounds,
    intersect_tilings,
    numel,
    subtract_intervals,
)
from repro.core.metadata import UCP_META_FILE, UCPMetadata
from repro.core.ops import LoadPlan, gen_ucp_metadata
from repro.core.plan import (
    ProvenanceAnalysis,
    _delivery,
    analyze_source,
    byte_range,
)
from repro.dist.topology import ParallelConfig
from repro.models.configs import ModelConfig
from repro.parallel.layout import ModelParallelLayout
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
        source = analysis.source_chain(name, atom) or "<no source byte>"
        return f"{head} <- consolidated {byte_range(full, full + 1)} <- {source}"
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
    check the UCP load runs — supplies its whole tensor from its
    ``fp32`` file.  Each finding of that check, and
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
    atom_files: Dict[str, str] = {}
    for name in sorted(specs):
        if name not in metadata.params:
            total = numel(specs[name].unpadded_shape)
            report.add(error(
                "UCP017",
                f"no atom supplies {name!r}; all {byte_range(0, total)} of "
                f"its data lack provenance",
                location=name,
            ))
            continue
        findings = [
            found for found in (
                atom_store.check_state(name, kind, specs[name].unpadded_shape)
                for kind in STATE_KINDS
            )
            if isinstance(found, Diagnostic)
        ]
        report.extend(findings)
        if not findings:
            atom_files[name] = atom_store.path(name, "fp32")
    return ProvenanceAnalysis(
        model_cfg, source_cfg, specs, report, atom_files=atom_files
    )


def check_target_provenance(
    analysis: ProvenanceAnalysis,
    target_cfg: ParallelConfig,
) -> LintReport:
    """Prove the target theorems over the UCP load's own plan.

    Lowers the target with :func:`~repro.core.ops.gen_ucp_metadata` —
    the plan ``load_ucp_into_engine`` executes — and proves over its
    rows, per target mp rank and tensor: each row's atom elements have
    a source byte (UCP017, against
    :meth:`~repro.core.plan.ProvenanceAnalysis.sourced`); the rows of
    all dp partitions deliver every data element of the tp shard
    exactly once (:func:`~repro.core.plan._delivery`, the theorem the
    source rows are proven by: UCP017 missing, UCP018 twice).
    Diagnostics carry provenance chains naming the target rank, tensor
    and partition byte range.
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
    gaps = {
        name: subtract_intervals(
            [(0, numel(spec.unpadded_shape))], analysis.sourced(name)
        )
        for name, spec in layout.shard_specs.items()
    }
    reported: set = set()
    groups = []
    for coord in layout.mp_coords():
        rank_layout = layout.rank_layout(*coord)
        rank = layout.mp_rank_index(*coord)
        for entry in rank_layout.entries:
            name = entry.name
            rows = plan.rows(name)
            rows = rows[rank_of[plan.target[rows]] == rank]
            for row, m_lo, m_hi, part_lo in _unsourced(plan, rows, gaps[name]):
                if (name, m_lo, m_hi) in reported:
                    continue
                reported.add((name, m_lo, m_hi))
                report.add(error(
                    "UCP017",
                    f"target partition "
                    f"{byte_range(part_lo, part_lo + (m_hi - m_lo))} of "
                    f"{name!r} <- atom elements [{m_lo}, {m_hi}) <- "
                    f"<no source byte>: the interchange would leave these "
                    f"bytes uninitialized",
                    location=_where(plan.targets[plan.target[row]], name),
                ))
            groups.append((name, rank_layout, rows))
    report.extend(_delivery(plan, groups, _where))
    return report


def _unsourced(
    plan: LoadPlan, rows: np.ndarray, gaps: List[Tuple[int, int]]
) -> Iterator[Tuple[int, int, int, int]]:
    """``(row, atom lo, atom hi, partition offset)`` of each part of the
    rows' atom elements that falls in a source gap."""
    if not gaps or not rows.size:
        return
    start = plan.atom_start[rows]
    g_lo, g_hi = np.array(gaps, dtype=np.int64).T
    q, _, lo, hi = intersect_tilings(start, start + plan.length[rows], g_lo, g_hi)
    row = rows[q]
    part_lo = plan.offset[row] + (lo - start[q])
    yield from zip(row.tolist(), lo.tolist(), hi.tolist(), part_lo.tolist())


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
    Tensor payloads are never read.  The analysis keeps the source
    rows, so callers can render provenance chains (:func:`explain`)
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
