"""Interchange pre-flight: prove a conversion well-formed before IO.

A source -> target reconfiguration can be rejected from the configs
alone: every fragment dimension must divide the target's tensor/expert
degree, the target layout's ZeRO partition slices must tile each flat
buffer exactly, and (when converting *from* a UCP directory) every
parameter the target layout derives must have an atom to read.  The
checks here prove all of that symbolically — no tensor is touched — so
``ucp_convert`` and ``repro lint-plan`` can refuse a doomed plan in
milliseconds instead of failing mid-conversion after terabytes of IO.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.analysis.diagnostics import Diagnostic, LintReport, error, warning
from repro.analysis.layout_lint import expected_tag_basenames
from repro.dist.topology import ParallelConfig
from repro.models.configs import ModelConfig
from repro.parallel.layout import ModelParallelLayout
from repro.parallel.tp import build_shard_specs
from repro.storage.store import ObjectStore

_EXPERT_KINDS = ("expert_parallel",)


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
            if kind in _EXPERT_KINDS:
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
    manifest: Dict,
    analysis,
    optimizer_layout: str = "flat",
) -> LintReport:
    """The converter's mandatory pre-pass over a committed source tag.

    Runs before any tensor payload is read: proves the source layout's
    partition slices tile every flat buffer (its fragment divisibility
    was settled when ``analysis.layout`` was derived) and that the
    commit manifest records every rank file the layout derives — a
    manifest that never listed a rank's optimizer state means the save
    was structurally incomplete, which per-file digest verification
    alone cannot see.  When the structural checks pass, the
    byte-provenance findings made while the conversion plan was composed
    from the rank-file *headers* are folded in: every consolidated data
    byte must be supplied exactly once with no padding read as data
    (UCP017-UCP022).

    Args:
        src_store: source checkpoint store.
        src_tag: the committed tag being converted.
        manifest: the tag's commit-manifest payload.
        analysis: the source's
            :class:`~repro.core.plan.ProvenanceAnalysis`
            (:func:`~repro.core.plan.analyze_source`) — the object the
            converter goes on to lower into read plans, so the source
            is analyzed, and its layout derived, exactly once.
        optimizer_layout: the job's recorded optimizer layout.
    """
    source_cfg = analysis.source_cfg
    report = LintReport(subject=f"{src_store.base}/{src_tag}")
    report.extend(_tiling_diagnostics(
        analysis.layout, f"source:{source_cfg.describe()}"
    ))
    if not report.ok:
        return report

    recorded = set(manifest["files"])
    expected = expected_tag_basenames(
        source_cfg, analysis.layout, optimizer_layout
    )
    for basename in sorted(expected - recorded):
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
