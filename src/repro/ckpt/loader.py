"""Strict distributed checkpoint loading.

The loader demands that the checkpoint's per-rank files line up exactly
with the engine's layout: same files present, same flat-segment names,
offsets, and shard shapes, same partition sizes.  Any topology change
— different TP/PP/DP/SP degrees, different ZeRO stage, different world
size — surfaces as a :class:`CheckpointIncompatibleError`, reproducing
the name/shape mismatch failures the paper describes for existing
frameworks (Fig 1).  UCP is the escape hatch: convert to universal
format, then ``engine.load_universal``.

The loader also enforces the commit protocol: only tags with a commit
manifest are loadable, and every file read is verified against its
manifest digest — torn or tampered state raises
:class:`CheckpointIntegrityError` instead of loading garbage.
:func:`latest_committed_tag` is the recovery entry point, and the
crash-state check (``repro lint-trace``) runs it on every post-crash
disk state a recorded save permits — a state from which it fails, or
selects an older tag than one durably committed, is a UCP033 finding.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.ckpt import manifest as manifest_mod
from repro.ckpt import naming
from repro.ckpt.errors import (
    CheckpointIncompatibleError,
    CheckpointIntegrityError,
    CheckpointNotFoundError,
)
from repro.dist.topology import ParallelConfig
from repro.models.configs import ModelConfig
from repro.storage.store import ObjectStore


def resolve_tag(store: ObjectStore, tag: Optional[str]) -> str:
    """The requested tag, or the one named by the ``latest`` file.

    Raises:
        CheckpointIntegrityError: ``latest`` does not decode, or names
            anything but a single tag directory (blank, ``../x``).
    """
    if tag is not None:
        return tag
    try:
        tag = store.read_text(naming.LATEST_FILE).strip()
    except FileNotFoundError:
        raise CheckpointNotFoundError(
            f"no 'latest' file in {store.base}; is this a checkpoint dir?"
        ) from None
    except UnicodeDecodeError as exc:
        raise CheckpointIntegrityError(
            f"{naming.LATEST_FILE}: tag pointer is corrupt: {exc}"
        ) from exc
    if tag in ("", ".", "..") or any(c in tag for c in "/\\\0"):
        raise CheckpointIntegrityError(
            f"{naming.LATEST_FILE}: tag pointer is corrupt: {tag!r} is not "
            f"a single tag directory name"
        )
    return tag


def latest_committed_tag(directory: str) -> str:
    """The newest tag whose commit manifest is intact.

    The ``latest`` pointer is written *after* the manifest, so a crash
    between the two leaves a fully committed tag the pointer does not
    name yet; conversely a crash before the manifest leaves a newer
    directory that never committed.  Elastic recovery must trust
    neither the pointer nor directory mtimes: it scans every tag and
    picks the highest step that has a manifest — saves cut before
    their commit point are skipped, committed-but-unpointed saves are
    found.  A manifest that exists but does not decode is not skipped.

    Raises:
        CheckpointNotFoundError: no committed tag exists at all.
        CheckpointIntegrityError: the newest manifest is damaged.
    """
    from repro.ckpt.retention import list_tags

    store = ObjectStore(directory)
    for tag in reversed(list_tags(directory)):
        if manifest_mod.read_manifest(store, tag) is not None:
            return tag
    raise CheckpointNotFoundError(
        f"no committed checkpoint tag under {directory}: every tag is "
        f"missing its commit manifest"
    )


def read_job_config(directory: str, tag: Optional[str] = None) -> Dict:
    """Read a checkpoint's job config (model/parallel configs, seeds).

    Verified against the tag's commit manifest when one exists; lenient
    about missing manifests so inspection of foreign or pre-protocol
    directories keeps working.
    """
    store = ObjectStore(directory)
    tag = resolve_tag(store, tag)
    rel = f"{tag}/{naming.JOB_CONFIG_FILE}"
    if not store.exists(rel):
        raise CheckpointNotFoundError(f"missing {rel} in {directory}")
    manifest = manifest_mod.read_manifest(store, tag)
    entry = manifest_mod.manifest_entry(manifest, naming.JOB_CONFIG_FILE)
    return manifest_mod.load_verified(store, rel, entry)


def _verified_rank_payload(
    store: ObjectStore, tag: str, basename: str, manifest: Dict
) -> Dict:
    """Load one rank file under the commit protocol.

    A file the manifest records but the disk lacks is integrity loss
    (the tag *was* committed with it); a file neither side has is a
    topology mismatch — the paper's Fig 1 failure.
    """
    rel = f"{tag}/{basename}"
    entry = manifest_mod.manifest_entry(manifest, basename)
    if not store.exists(rel):
        if entry is not None:
            raise CheckpointIntegrityError(
                f"missing rank file {rel}: it is recorded in the commit "
                f"manifest but absent on disk (deleted or lost after commit)"
            )
        raise CheckpointIncompatibleError(
            f"missing rank file {rel}: the checkpoint was saved under "
            f"a different topology or world size"
        )
    return manifest_mod.load_verified(store, rel, entry)


def _check_model_config(engine, job_config: Dict) -> None:
    saved = ModelConfig.from_dict(job_config["model_config"])
    if saved != engine.model_cfg:
        raise CheckpointIncompatibleError(
            f"checkpoint was written for model {saved.name!r}, engine runs "
            f"{engine.model_cfg.name!r}"
        )


def _require_layout(
    rank_layout, payload: Dict, dp_rank: int, zero_stage: int, rel: str
) -> None:
    """The strict load's layout check: the rank file's header against
    the layout the engine derives, through the same check as
    ``repro lint-ckpt`` and the conversion pre-flight."""
    for diag in rank_layout.header_check(dp_rank, zero_stage, rel).run(payload):
        if diag.severity == "error":
            raise CheckpointIncompatibleError(
                f"{diag.location}: {diag.rule_id} [{diag.rule_name}] "
                f"{diag.message}; the checkpoint was saved under a "
                f"different parallelism strategy"
            )


def _load_per_param(
    engine, store: ObjectStore, tag: str, job_config: Dict, manifest: Dict
) -> None:
    """Strict load of a Megatron-classic per-parameter checkpoint.

    Requires zero_stage=0 on the engine (the layout implies replicated
    optimizer state) and the same model-parallel shape as the source.
    """
    cfg = engine.parallel_cfg
    if cfg.zero_stage != 0:
        raise CheckpointIncompatibleError(
            "per_param checkpoints carry unpartitioned optimizer state; "
            "the engine must run zero_stage=0 to load them strictly "
            "(or convert to UCP for any other stage)"
        )
    for coord in engine.layout.mp_coords():
        mp_rank = engine.layout.mp_rank_index(*coord)
        rank_layout = engine.layout.rank_layout(*coord)
        rel = f"{tag}/{naming.optim_states_name(0, mp_rank)}"
        payload = _verified_rank_payload(
            store, tag, naming.optim_states_name(0, mp_rank), manifest
        )
        _require_layout(rank_layout, payload, 0, 0, rel)
        states = payload["param_states"]
        step = int(payload["optimizer_step"])
        for kind in ("fp32", "exp_avg", "exp_avg_sq"):
            flat = np.zeros(rank_layout.flat_numel, dtype=np.float32)
            for entry in rank_layout.entries:
                shard = np.asarray(states[kind][entry.name], dtype=np.float32)
                flat[entry.offset : entry.end] = shard.reshape(-1)
            size = rank_layout.partition_numel
            for d in range(cfg.dp):
                part = engine.zero.partitions[coord][d]
                target = engine.zero._partition_array(part, kind)
                target[...] = flat[d * size : (d + 1) * size]
        for d in range(cfg.dp):
            engine.zero.partitions[coord][d].state.step = step
        scaler_state = payload.get("loss_scaler")
        if scaler_state is not None and engine.loss_scaler is not None:
            engine.loss_scaler.load_state_dict(scaler_state)

    engine.iteration = int(job_config["iteration"])
    engine.sync_model_from_masters()


def load_distributed_checkpoint(
    engine, directory: str, tag: Optional[str] = None
) -> str:
    """Load a distributed checkpoint into an engine with the same topology.

    Returns:
        The tag that was loaded.

    Raises:
        CheckpointNotFoundError: missing directory, tag, or rank file.
        CheckpointIncompatibleError: any topology/layout mismatch.
        CheckpointIntegrityError: the tag never committed (no manifest)
            or a file fails its digest / structural verification.
    """
    store = ObjectStore(directory)
    tag = resolve_tag(store, tag)
    job_config = read_job_config(directory, tag)
    _check_model_config(engine, job_config)
    manifest = manifest_mod.require_manifest(store, tag)

    cfg: ParallelConfig = engine.parallel_cfg
    saved_cfg = ParallelConfig.from_dict(job_config["parallel_config"])
    if saved_cfg.zero_stage != cfg.zero_stage:
        raise CheckpointIncompatibleError(
            f"checkpoint used ZeRO stage {saved_cfg.zero_stage}, engine is "
            f"configured for stage {cfg.zero_stage}"
        )

    if job_config.get("optimizer_layout", "flat") == "per_param":
        _load_per_param(engine, store, tag, job_config, manifest)
        return tag

    for coord in engine.layout.mp_coords():
        mp_rank = engine.layout.mp_rank_index(*coord)
        rank_layout = engine.layout.rank_layout(*coord)
        dp_ranks = [0] if cfg.zero_stage == 0 else list(range(cfg.dp))
        for d in dp_ranks:
            rel = f"{tag}/{naming.optim_states_name(d, mp_rank)}"
            payload = _verified_rank_payload(
                store, tag, naming.optim_states_name(d, mp_rank), manifest
            )
            _require_layout(rank_layout, payload, d, cfg.zero_stage, rel)

            fp32 = np.asarray(payload["fp32_flat_partition"], dtype=np.float32)
            exp_avg = np.asarray(payload["exp_avg_flat_partition"], dtype=np.float32)
            exp_avg_sq = np.asarray(
                payload["exp_avg_sq_flat_partition"], dtype=np.float32
            )
            step = int(payload["optimizer_step"])
            if cfg.zero_stage == 0:
                size = rank_layout.partition_numel
                for dd in range(cfg.dp):
                    part = engine.zero.partitions[coord][dd]
                    part.fp32[...] = fp32[dd * size : (dd + 1) * size]
                    part.state.exp_avg[...] = exp_avg[dd * size : (dd + 1) * size]
                    part.state.exp_avg_sq[...] = exp_avg_sq[dd * size : (dd + 1) * size]
                    part.state.step = step
            else:
                part = engine.zero.partitions[coord][d]
                part.fp32[...] = fp32
                part.state.exp_avg[...] = exp_avg
                part.state.exp_avg_sq[...] = exp_avg_sq
                part.state.step = step

            scaler_state = payload.get("loss_scaler")
            if scaler_state is not None and engine.loss_scaler is not None:
                engine.loss_scaler.load_state_dict(scaler_state)

    engine.iteration = int(job_config["iteration"])
    engine.sync_model_from_masters()
    return tag
