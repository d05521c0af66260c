"""Static checkpoint-layout linter.

A distributed tag is diffed against the layout its job config derives:
its commit manifest against the files on disk, then the conversion's own
header pass and pre-flight — each rank file's ``partition_meta`` through
the :class:`~repro.parallel.layout.HeaderCheck` the strict loader also
runs, and the byte-provenance proof built from the same headers.  Each
rank file is decoded once, header only (flat arrays surface as
:class:`~repro.storage.serializer.TensorIndexEntry` shapes), so linting
a multi-terabyte checkpoint costs kilobytes of IO.  Findings carry the
stable rule IDs of :data:`repro.core.diagnostics.RULES`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.provenance import analyze_ucp_source
from repro.ckpt import manifest as manifest_mod
from repro.ckpt import naming
from repro.ckpt.errors import CheckpointIntegrityError, CheckpointNotFoundError
from repro.ckpt.loader import resolve_tag
from repro.core.atom import SIDECAR, AtomStore
from repro.core.diagnostics import (
    SEVERITY_ERROR,
    Diagnostic,
    LintReport,
    error,
    warning,
)
from repro.core.errors import AtomMissingError, UCPError, UCPFormatError
from repro.core.metadata import UCP_META_FILE, UCPMetadata
from repro.core.plan import analyze_source, preflight_convert
from repro.dist.topology import ParallelConfig
from repro.models.configs import ModelConfig
from repro.storage.serializer import SerializationError
from repro.storage.store import ObjectStore


def crosscheck_manifest(
    store: ObjectStore, tag: str, manifest: Dict, deep: bool = False
) -> List[Diagnostic]:
    """Diff a tag's commit manifest against the files actually on disk:
    :func:`~repro.ckpt.manifest.check_files` as diagnostics (UCP008
    absent, UCP010 size or digest), plus UCP009 for files on disk the
    manifest does not record.

    Args:
        store: checkpoint-root store.
        tag: the committed tag.
        manifest: its manifest payload (``read_manifest`` result).
        deep: also recompute each file's SHA-256 (shallow mode checks
            presence and size only — header-cost, not payload-cost).
    """
    out = [
        error("UCP008" if why == manifest_mod.ABSENT else "UCP010", why, rel)
        for rel, why in manifest_mod.check_files(
            store, tag, manifest, deep
        ).items()
    ]
    for rel in store.list(tag):
        basename = rel.split("/")[-1]
        if basename == naming.MANIFEST_FILE:
            continue
        if basename not in manifest["files"]:
            out.append(warning(
                "UCP009",
                "on disk but not recorded in the commit manifest",
                location=rel,
            ))
    return out


def lint_checkpoint(
    directory: str,
    tag: Optional[str] = None,
    store: Optional[ObjectStore] = None,
    deep: bool = False,
) -> LintReport:
    """Statically lint a checkpoint directory (distributed or UCP).

    A distributed tag gets the manifest cross-check, then
    :func:`~repro.core.plan.analyze_source` and
    :func:`~repro.core.plan.preflight_convert`: what this reports is
    what ``ucp_convert`` refuses on.  A UCP directory (``ucp_meta.npt``
    present) is linted against its own metadata and the specs its model
    config derives, each atom state file through the check the UCP load
    runs (:meth:`~repro.core.atom.AtomStore.check_state`).

    Args:
        directory: checkpoint root (distributed) or UCP directory.
        tag: distributed tag to lint; defaults to ``latest``.
        store: optional pre-built store (shares accounting).
        deep: recompute file digests during the manifest cross-check.

    Raises:
        CheckpointNotFoundError: the directory or tag does not exist.
    """
    if store is None:
        store = ObjectStore(directory)
    if store.exists(UCP_META_FILE):
        return _lint_ucp(store)

    src_tag = resolve_tag(store, tag)
    if not (store.base / src_tag).is_dir():
        raise CheckpointNotFoundError(f"no tag {src_tag!r} under {directory}")
    report = LintReport(subject=f"{directory}/{src_tag}")

    files: List[Diagnostic] = []
    try:
        manifest = manifest_mod.read_manifest(store, src_tag)
    except CheckpointIntegrityError as exc:
        manifest = None
        report.add(error("UCP016", f"commit manifest unreadable: {exc}",
                         location=manifest_mod.manifest_path(src_tag)))
    if manifest is not None:
        files = crosscheck_manifest(store, src_tag, manifest, deep=deep)
        report.extend(files)
    elif report.ok:
        report.add(error(
            "UCP016",
            "tag has no commit manifest: the save that produced it never "
            "completed, or predates the commit protocol",
            location=src_tag,
        ))

    job_rel = f"{src_tag}/{naming.JOB_CONFIG_FILE}"
    if not store.exists(job_rel):
        report.add(error(
            "UCP008", "job_config.npt missing; cannot derive the layout",
            location=job_rel,
        ))
        return report
    try:
        job = store.load(job_rel)
        model_cfg = ModelConfig.from_dict(job["model_config"])
        parallel_cfg = ParallelConfig.from_dict(job["parallel_config"])
    except (SerializationError, UCPError, KeyError, ValueError) as exc:
        report.add(error("UCP013", f"job config unreadable: {exc}", job_rel))
        return report
    optimizer_layout = job.get("optimizer_layout", "flat")

    try:
        analysis = analyze_source(
            store, src_tag, model_cfg, parallel_cfg, optimizer_layout
        )
    except ValueError as exc:
        report.add(error(
            "UCP007",
            f"layout underivable for {parallel_cfg.describe()}: {exc}",
            location=src_tag,
        ))
        return report
    # integrity first, as in the converter: a damaged file's findings echo it
    if not any(diag.severity == SEVERITY_ERROR for diag in files):
        report.extend(preflight_convert(
            store, src_tag, manifest, analysis, optimizer_layout
        ).diagnostics)
    return report


def _lint_ucp(store: ObjectStore) -> LintReport:
    """Lint a UCP directory: metadata vs derived specs vs on-disk atoms,
    then :func:`~repro.analysis.provenance.analyze_ucp_source`'s atom
    state-file findings (the UCP load's own check) and each sidecar."""
    report = LintReport(subject=str(store.base))
    try:
        metadata = UCPMetadata.load(store)
    except UCPError as exc:
        report.add(error("UCP013", f"ucp metadata unreadable: {exc}",
                         location=UCP_META_FILE))
        return report

    analysis = analyze_ucp_source(store, metadata)
    derived = analysis.specs
    recorded = set(metadata.params)
    for name in sorted(set(derived) - recorded):
        report.add(error(
            "UCP001",
            f"model config derives parameter {name!r} but the metadata "
            f"records no atom for it",
            location=name,
        ))
    for name in sorted(recorded - set(derived)):
        report.add(warning(
            "UCP002",
            f"metadata records an atom not derivable from model "
            f"{analysis.model_cfg.name!r}",
            location=name,
        ))
    for name in sorted(recorded & set(derived)):
        meta_shape = tuple(metadata.params[name]["shape"])
        spec_shape = tuple(derived[name].unpadded_shape)
        if meta_shape != spec_shape:
            report.add(error(
                "UCP004",
                f"metadata records shape {meta_shape}; model config derives "
                f"unpadded shape {spec_shape}",
                location=name,
            ))

    atom_store = AtomStore(str(store.base), store)
    on_disk = set(atom_store.list_atoms())
    for name in sorted(recorded - on_disk):
        report.add(error(
            "UCP001", "atom recorded in metadata but absent on disk",
            location=atom_store.path(name),
        ))
    for name in sorted(on_disk - recorded):
        report.add(warning(
            "UCP002", "atom on disk but not recorded in metadata",
            location=atom_store.path(name),
        ))
    # integrity first, as for a distributed tag: a state file of an atom
    # the inventory already misses would only echo that finding
    if report.ok:
        report.extend(analysis.report.diagnostics)

    for name in sorted(recorded & on_disk):
        expected_shape = tuple(metadata.params[name]["shape"])
        rel = atom_store.path(name, SIDECAR)
        try:
            shape = atom_store.read_meta(name).get("shape", ())
        except AtomMissingError:
            continue
        except (UCPFormatError, OSError) as exc:
            report.add(error(
                "UCP013", f"header unreadable: {exc.__cause__ or exc}", rel
            ))
            continue
        shape = tuple(shape) if isinstance(shape, list) else shape
        if not isinstance(shape, tuple) or shape != expected_shape:
            report.add(error(
                "UCP004",
                f"atom sidecar records shape {shape}; metadata records "
                f"{expected_shape}",
                location=rel,
            ))
    return report
