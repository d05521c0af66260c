"""Static checkpoint-layout linter.

From a ``(ModelConfig, ParallelConfig)`` pair the linter symbolically
derives every rank's expected checkpoint contents — atom names, shard
shapes, padded flat-partition extents, segment tables — via
:class:`repro.parallel.layout.ModelParallelLayout`, then diffs that
against what a tag actually recorded: its commit manifest and the
*headers* of its rank files.  Tensor payloads are never read (rank
files are decoded via :func:`ObjectStore.load_header`, so flat arrays
surface as :class:`~repro.storage.serializer.TensorIndexEntry` shapes), which
is what makes linting a multi-terabyte checkpoint cost kilobytes of IO.

Findings carry the stable rule IDs from
:data:`repro.analysis.diagnostics.RULES`; ``repro lint-ckpt`` renders
them as text or JSON and CI gates on error severity.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, LintReport, error, warning
from repro.ckpt import manifest as manifest_mod
from repro.ckpt import naming
from repro.ckpt.errors import CheckpointIntegrityError, CheckpointNotFoundError
from repro.ckpt.loader import resolve_tag
from repro.core.atom import ATOM_META_FILE, ATOMS_DIR, AtomStore
from repro.core.errors import UCPError
from repro.core.metadata import UCP_META_FILE, UCPMetadata
from repro.dist.topology import ParallelConfig
from repro.models.configs import ModelConfig
from repro.parallel.layout import ModelParallelLayout, RankShardLayout
from repro.storage.serializer import SerializationError
from repro.storage.store import ObjectStore

_MODEL_RE = re.compile(r"^mp_rank_(\d+)_model_states\.npt$")
_ZERO3_RE = re.compile(r"^zero3_dp_rank_(\d+)_model_states\.npt$")

_FLAT_FIELDS = tuple(naming.FLAT_STATE_FIELDS.values())


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


def crosscheck_manifest(
    store: ObjectStore, tag: str, manifest: Dict, deep: bool = False
) -> List[Diagnostic]:
    """Diff a tag's commit manifest against the files actually on disk.

    The single implementation of the manifest cross-check: the layout
    linter, ``repro verify --shallow``, and the converter's pre-flight
    all call this instead of re-deriving presence/size/digest logic.

    Args:
        store: checkpoint-root store.
        tag: the committed tag.
        manifest: its manifest payload (``read_manifest`` result).
        deep: also recompute each file's SHA-256 (shallow mode checks
            presence and size only — header-cost, not payload-cost).
    """
    out: List[Diagnostic] = []
    for basename in sorted(manifest["files"]):
        rel = f"{tag}/{basename}"
        entry = manifest["files"][basename]
        if not store.exists(rel):
            out.append(error(
                "UCP008",
                "recorded in the commit manifest but absent on disk",
                location=rel,
            ))
            continue
        nbytes = (store.base / rel).stat().st_size
        if nbytes != int(entry["nbytes"]):
            out.append(error(
                "UCP010",
                f"size mismatch: manifest records {entry['nbytes']} bytes, "
                f"found {nbytes}",
                location=rel,
            ))
        elif deep and store.digest(rel) != entry["sha256"]:
            out.append(error(
                "UCP010",
                "sha256 digest mismatch vs commit manifest",
                location=rel,
            ))
    for rel in store.list(tag):
        basename = rel.split("/")[-1]
        if basename in (naming.MANIFEST_FILE, naming.TRACE_FILE):
            # the collective-trace sidecar is a debug artifact written
            # after the commit point, deliberately outside the manifest
            continue
        if basename not in manifest["files"]:
            out.append(warning(
                "UCP009",
                "on disk but not recorded in the commit manifest",
                location=rel,
            ))
    return out


def _mp_coords_of(mp_rank: int, cfg: ParallelConfig) -> Tuple[int, int, int]:
    """Inverse of ``ModelParallelLayout.mp_rank_index``."""
    per_stage = cfg.sp * cfg.tp
    pp_stage = mp_rank // per_stage
    rem = mp_rank % per_stage
    return pp_stage, rem // cfg.tp, rem % cfg.tp


def _lint_optim_header(
    payload: Dict,
    rank_layout: RankShardLayout,
    parallel_cfg: ParallelConfig,
    dp_rank: int,
    rel: str,
) -> List[Diagnostic]:
    """Diff one optimizer-state file's header against the derived layout."""
    if "param_states" in payload:
        return _lint_per_param_header(payload, rank_layout, rel)
    out: List[Diagnostic] = []
    meta = payload.get("partition_meta")
    if meta is None:
        return [error("UCP013", "rank file header has no partition_meta", rel)]

    expected_partition = (
        rank_layout.flat_numel
        if parallel_cfg.zero_stage == 0
        else rank_layout.partition_numel
    )
    for key, derived in (
        ("partition_numel", expected_partition),
        ("flat_numel", rank_layout.flat_numel),
        ("alignment", rank_layout.alignment),
    ):
        recorded = int(meta.get(key, -1))
        if recorded != derived:
            out.append(error(
                "UCP011",
                f"{key} recorded as {recorded}; layout derives {derived}",
                location=rel,
            ))
    recorded_pad = int(meta.get("padding", -1))
    if recorded_pad != rank_layout.padding:
        out.append(error(
            "UCP003",
            f"alignment padding recorded as {recorded_pad}; layout derives "
            f"{rank_layout.padding} (payload {rank_layout.payload_numel}, "
            f"flat {rank_layout.flat_numel})",
            location=rel,
        ))

    recorded_segments = {
        seg["name"]: seg for seg in meta.get("segments", [])
    }
    derived_entries = {e.name: e for e in rank_layout.entries}
    for name in sorted(set(derived_entries) - set(recorded_segments)):
        out.append(error(
            "UCP001",
            f"parameter {name!r} is owned by this rank per the layout but "
            f"missing from the file's segment table",
            location=rel,
        ))
    for name in sorted(set(recorded_segments) - set(derived_entries)):
        out.append(warning(
            "UCP002",
            f"segment {name!r} recorded in the file but not derivable from "
            f"the job's (model, parallel) configs",
            location=rel,
        ))
    for name in sorted(set(recorded_segments) & set(derived_entries)):
        seg, entry = recorded_segments[name], derived_entries[name]
        recorded = (
            int(seg["offset"]), int(seg["numel"]), tuple(seg["shard_shape"])
        )
        derived = (entry.offset, entry.numel, tuple(entry.shard_shape))
        if recorded != derived:
            out.append(error(
                "UCP004",
                f"segment {name!r} recorded as offset={recorded[0]} "
                f"numel={recorded[1]} shape={recorded[2]}; layout derives "
                f"offset={derived[0]} numel={derived[1]} shape={derived[2]}",
                location=rel,
            ))

    # the flat arrays themselves, by header shape only (index entries)
    for field in _FLAT_FIELDS:
        stub = payload.get(field)
        if stub is None:
            out.append(error(
                "UCP001", f"flat array {field!r} missing from rank file", rel
            ))
            continue
        numel = 1
        for d in getattr(stub, "shape", ()):
            numel *= d
        if numel != expected_partition:
            out.append(error(
                "UCP011",
                f"{field} holds {numel} elements; layout derives "
                f"{expected_partition} for dp_rank {dp_rank}",
                location=rel,
            ))
    return out


def _lint_per_param_header(
    payload: Dict, rank_layout: RankShardLayout, rel: str
) -> List[Diagnostic]:
    """Megatron-classic per-parameter files: names and shard shapes."""
    out: List[Diagnostic] = []
    derived = {e.name: e for e in rank_layout.entries}
    for kind, states in payload["param_states"].items():
        for name in sorted(set(derived) - set(states)):
            out.append(error(
                "UCP001",
                f"parameter {name!r} ({kind}) owned by this rank per the "
                f"layout but absent from param_states",
                location=rel,
            ))
        for name in sorted(set(states) - set(derived)):
            out.append(warning(
                "UCP002",
                f"param_states entry {name!r} ({kind}) not derivable from "
                f"the job's configs",
                location=rel,
            ))
        for name in sorted(set(states) & set(derived)):
            shape = tuple(getattr(states[name], "shape", ()))
            if shape != tuple(derived[name].shard_shape):
                out.append(error(
                    "UCP004",
                    f"{name!r} ({kind}) stored with shape {shape}; layout "
                    f"derives shard shape {tuple(derived[name].shard_shape)}",
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

    Never materializes tensors: the manifest, job config, and rank-file
    *headers* are the only inputs.  A UCP directory (``ucp_meta.npt``
    present) is linted atom-by-atom against its own metadata and the
    layout derived from its model config.

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

    try:
        manifest = manifest_mod.read_manifest(store, src_tag)
    except CheckpointIntegrityError as exc:
        report.add(error("UCP016", f"commit manifest unreadable: {exc}",
                         location=manifest_mod.manifest_path(src_tag)))
        manifest = None
    if manifest is None:
        if not report.diagnostics:
            report.add(error(
                "UCP016",
                "tag has no commit manifest: the save that produced it "
                "never completed, or predates the commit protocol",
                location=src_tag,
            ))
        on_disk = {
            rel.split("/")[-1] for rel in store.list(src_tag)
            if rel.split("/")[-1] != naming.MANIFEST_FILE
        }
    else:
        report.extend(crosscheck_manifest(store, src_tag, manifest, deep=deep))
        on_disk = set(manifest["files"])

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
        layout = ModelParallelLayout(model_cfg, parallel_cfg)
    except ValueError as exc:
        report.add(error(
            "UCP007",
            f"layout underivable for {parallel_cfg.describe()}: {exc}",
            location=src_tag,
        ))
        return report
    report.extend(layout.tiling_diagnostics())

    expected = expected_tag_basenames(parallel_cfg, layout, optimizer_layout)
    for basename in sorted(expected - on_disk):
        report.add(error(
            "UCP008",
            f"layout derives rank file {basename!r} for "
            f"{parallel_cfg.describe()} but the tag does not record it",
            location=f"{src_tag}/{basename}",
        ))
    for basename in sorted(on_disk - expected):
        if naming.OPTIM_STATES_RE.match(basename) or _MODEL_RE.match(basename) \
                or _ZERO3_RE.match(basename):
            report.add(warning(
                "UCP009",
                f"rank file not derivable from the job's "
                f"{parallel_cfg.describe()} layout",
                location=f"{src_tag}/{basename}",
            ))

    mp_size = parallel_cfg.pp * parallel_cfg.sp * parallel_cfg.tp
    for basename in sorted(expected & on_disk):
        match = naming.OPTIM_STATES_RE.match(basename)
        if not match:
            continue
        dp_rank, mp_rank = int(match.group(1)), int(match.group(2))
        rel = f"{src_tag}/{basename}"
        if not store.exists(rel):
            continue  # already reported by the manifest cross-check
        if mp_rank >= mp_size:
            report.add(error(
                "UCP009",
                f"mp_rank {mp_rank} out of range for model-parallel size "
                f"{mp_size}",
                location=rel,
            ))
            continue
        try:
            payload = store.load_header(rel)
        except (SerializationError, OSError) as exc:
            report.add(error("UCP013", f"header unreadable: {exc}", rel))
            continue
        rank_layout = layout.rank_layout(*_mp_coords_of(mp_rank, parallel_cfg))
        report.extend(_lint_optim_header(
            payload, rank_layout, parallel_cfg, dp_rank, rel
        ))
    return report


def _lint_ucp(store: ObjectStore) -> LintReport:
    """Lint a UCP directory: metadata vs derived specs vs on-disk atoms."""
    report = LintReport(subject=str(store.base))
    try:
        metadata = UCPMetadata.load(store)
    except UCPError as exc:
        report.add(error("UCP013", f"ucp metadata unreadable: {exc}",
                         location=UCP_META_FILE))
        return report

    from repro.parallel.tp import build_shard_specs

    model_cfg = ModelConfig.from_dict(metadata.model_config)
    source_cfg = ParallelConfig.from_dict(metadata.source_parallel_config)
    derived = build_shard_specs(
        model_cfg, expert_parallel=source_cfg.expert_parallel
    )

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
            f"{model_cfg.name!r}",
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
            location=f"{ATOMS_DIR}/{name}",
        ))
    for name in sorted(on_disk - recorded):
        report.add(warning(
            "UCP002", "atom on disk but not recorded in metadata",
            location=f"{ATOMS_DIR}/{name}",
        ))

    for name in sorted(recorded & on_disk):
        info = metadata.params[name]
        expected_shape = tuple(info["shape"])
        for kind in info.get("kinds", []):
            rel = f"{ATOMS_DIR}/{name}/{kind}.npt"
            if not store.exists(rel):
                report.add(error(
                    "UCP001", f"state file for kind {kind!r} missing",
                    location=rel,
                ))
                continue
            try:
                header = store.load_header(rel)
            except (SerializationError, OSError) as exc:
                report.add(error("UCP013", f"header unreadable: {exc}", rel))
                continue
            stub = header.get("values")
            shape = tuple(getattr(stub, "shape", ()))
            if shape != expected_shape:
                report.add(error(
                    "UCP004",
                    f"atom state stored with shape {shape}; metadata "
                    f"records {expected_shape}",
                    location=rel,
                ))
        meta_rel = f"{ATOMS_DIR}/{name}/{ATOM_META_FILE}"
        if store.exists(meta_rel):
            try:
                sidecar = store.load_header(meta_rel)
            except (SerializationError, OSError) as exc:
                report.add(error("UCP013", f"header unreadable: {exc}",
                                 location=meta_rel))
                continue
            if tuple(sidecar.get("shape", ())) != expected_shape:
                report.add(error(
                    "UCP004",
                    f"atom sidecar records shape "
                    f"{tuple(sidecar.get('shape', ()))}; metadata records "
                    f"{expected_shape}",
                    location=meta_rel,
                ))
    return report
