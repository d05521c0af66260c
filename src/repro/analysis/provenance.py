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
from ``core.plan``, never the reverse.  :func:`check_target_provenance`
re-slices the map under the target :class:`ParallelConfig` exactly as
``GenUcpMetadata``/``Load`` would and proves three theorems per target
tensor:

* **coverage** — every target data byte has a source byte (UCP017);
* **exclusivity** — no byte is written twice (UCP018);
* **padding hygiene** — no source padding byte flows into target
  data (UCP019).

Violations carry the stable rule IDs UCP017-UCP022 and exact
``(tensor, rank, byte-range)`` provenance chains (:func:`explain`); see
``docs/ANALYSIS.md`` for the catalogue and a worked chain example.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.ckpt import naming
from repro.ckpt.loader import resolve_tag
from repro.core.atom import STATE_KINDS, AtomStore
from repro.core.diagnostics import Diagnostic, LintReport, error
from repro.core.intervals import (
    data_intervals,
    intersect_tilings,
    shard_runs,
    subtract_intervals,
)
from repro.core.metadata import UCP_META_FILE, UCPMetadata
from repro.core.plan import (
    ParamProvenance,
    ProvenanceAnalysis,
    SourceExtent,
    analyze_source,
    byte_range,
)
from repro.dist.topology import ParallelConfig
from repro.models.configs import ModelConfig
from repro.parallel.layout import ModelParallelLayout
from repro.parallel.tp import build_shard_specs
from repro.storage.store import ObjectStore


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

    Walks target partition byte -> target shard element ->
    consolidated element -> source file byte, rendering each hop.
    """
    layout = ModelParallelLayout(analysis.model_cfg, target_cfg)
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
            f"{byte_range(local_element, local_element + 1)} of "
            f"{name!r}"
        )
        prov = analysis.params[name]
        runs = shard_runs(prov.spec, target_cfg.tp, tp_rank)
        # runs tile the shard in order: the one holding the element
        # is the last that starts at or before it
        i = int(np.searchsorted(runs.shard_start, shard_element, "right")) - 1
        if i < 0 or shard_element >= runs.shard_start[i] + runs.length[i]:
            return f"{head} <- <element outside the shard map>"
        full = int(runs.full_start[i]) + (
            shard_element - int(runs.shard_start[i])
        )
        mid = f"consolidated {byte_range(full, full + 1)}"
        for extent in prov.lookup(full, full + 1):
            return f"{head} <- {mid} <- {extent.chain(full, full + 1)}"
        for d_start, d_end in prov.data:
            if d_start <= full < d_end:
                return f"{head} <- {mid} <- <no source byte>"
        return f"{head} <- {mid} <- structural padding (zero)"
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
        extents: List[SourceExtent] = []
        consumed = 0
        for lo, hi in data:
            extents.append(SourceExtent(
                full_start=lo,
                full_end=hi,
                file=atom_store.path(name, "fp32"),
                field="values",
                file_start=consumed,
                coord=(0, 0, 0),
                dp_rank=0,
            ))
            consumed += hi - lo
        params[name] = ParamProvenance(name, spec, extents, data)
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
                runs = shard_runs(prov.spec, target_cfg.tp, tp)
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
                    missing = subtract_intervals(needed, prov.covered())
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
                            f"{byte_range(part_lo, part_lo + (m_hi - m_lo))} "
                            f"of {piece.name!r} <- consolidated "
                            f"{byte_range(m_lo, m_hi)} <- <no source "
                            f"byte>: the interchange would leave these "
                            f"bytes uninitialized",
                            location=f"{where}/{piece.name}",
                        ))
    return report


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
