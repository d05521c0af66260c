"""Distributed checkpoint saving.

Each simulated rank persists exactly the state a real DeepSpeed rank
would: the dp-0 rank of every model-parallel group writes its module
shard (working precision), and every (dp, mp) rank writes its ZeRO
partition of the fp32 masters and Adam moments.  The files embed the
per-parameter sharding metadata (pattern + fragmenter) that the UCP
language later consumes — this *is* the "existing distributed
checkpoint saving logic does not need any change" property: UCP adds no
save-time work beyond metadata that is already known at save time.

Saves are crash-consistent: every file is an atomic commit, a per-tag
manifest (:mod:`repro.ckpt.manifest`) records each file's digest, and
``latest`` advances only after the manifest is durable.  The commit is
the conversion's: payloads are built in rank order on the calling
thread, the encode (:func:`~repro.storage.serializer.encode`: a header
block, pads and views of the arrays' own buffers) + SHA-256 of each
rank file fan out over ``min(8, cpu_count)`` threads (order-preserving,
at most ``workers + 1`` encoded files alive at once), the calling thread
*stages* each file's parts in rank order — the page-cache write is the
only copy a payload takes, store write *k* names the same file at every
width, and the fault hooks and byte/simulated-time accounting stay
single-threaded — and the store's
:class:`~repro.storage.store.CommitPool` publishes behind it (fsync,
rename, directory fsync).  The manifest is staged
only once that pool has drained, and leaving the save, however it ends,
waits for every submitted publish.  There is no knob: the width is the
machine's, and at one core the save is the serial one.  That ordering
is machine-checked at runtime by the FS-op witness
(:mod:`repro.analysis.fswitness`), whose crash-state enumerator replays
a recorded save trace and proves recovery from every legal post-crash
disk state (UCP032-UCP035).
"""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import dataclasses
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.ckpt import manifest as manifest_mod
from repro.ckpt import naming
from repro.dist.topology import ParallelConfig
from repro.storage.serializer import encode
from repro.storage.store import (
    CommitGroup,
    CommitPool,
    ObjectStore,
    resolve_workers,
    sha256_hex,
)


@dataclasses.dataclass(frozen=True)
class CheckpointInfo:
    """Summary of one completed save.

    ``files`` and ``total_bytes`` cover the data files only; the
    commit manifest is protocol overhead, reported via
    ``manifest_digest`` (the SHA-256 of the committed manifest bytes —
    a content identity for the whole tag).
    """

    directory: str
    tag: str
    step: int
    files: List[str]
    total_bytes: int
    simulated_write_s: float
    manifest_digest: str = ""


def _job_config_payload(engine) -> Dict:
    return {
        "model_config": engine.model_cfg.to_dict(),
        "parallel_config": engine.parallel_cfg.to_dict(),
        "seed": engine.seed,
        "data_seed": engine.data_seed,
        "global_batch_size": engine.global_batch_size,
        "seq_len": engine.seq_len,
        "iteration": engine.iteration,
        "mp_policy": engine.mp_policy.to_dict(),
        "adam": engine.adam.hyperparameters(),
    }


def _sharding_metadata(engine, names: List[str]) -> Dict:
    out = {}
    for name in names:
        spec = engine.layout.spec(name)
        entry = spec.to_dict()
        entry["pp_stages"] = list(engine.layout.stage_plan.stages_of(name))
        out[name] = entry
    return out


def _partition_meta(rank_layout, dp_rank: int) -> Dict:
    return {
        "dp_rank": dp_rank,
        "partition_numel": rank_layout.partition_numel,
        "flat_numel": rank_layout.flat_numel,
        "padding": rank_layout.padding,
        "alignment": rank_layout.alignment,
        "segments": [
            {
                "name": e.name,
                "offset": e.offset,
                "numel": e.numel,
                "shard_shape": list(e.shard_shape),
            }
            for e in rank_layout.entries
        ],
    }


def _rank_payloads(engine, optimizer_layout: str) -> Iterator[Tuple[str, Dict]]:
    """``(basename, payload)`` of every data file of a save, in rank
    order: the job config, then per model-parallel rank its module
    shard(s) and its optimizer partition(s)."""
    cfg: ParallelConfig = engine.parallel_cfg
    job_config = _job_config_payload(engine)
    job_config["optimizer_layout"] = optimizer_layout
    yield naming.JOB_CONFIG_FILE, job_config

    scaler_state = (
        engine.loss_scaler.state_dict() if engine.loss_scaler is not None else None
    )

    for coord in engine.layout.mp_coords():
        pp_stage, sp_rank, tp_rank = coord
        mp_rank = engine.layout.mp_rank_index(*coord)
        rank_layout = engine.layout.rank_layout(*coord)
        names = [e.name for e in rank_layout.entries]

        if cfg.zero_stage < 3:
            # read-only partition views: at fp32 they are staged
            # zero-copy, like the optimizer partitions below
            module = {
                name: engine.mp_policy.working_copy(engine.zero.shard(coord, name))
                for name in names
            }
            yield naming.model_states_name(mp_rank), {
                "module": module,
                "iteration": engine.iteration,
                "mp_rank": mp_rank,
                "pp_stage": pp_stage,
                "sp_rank": sp_rank,
                "tp_rank": tp_rank,
                "parallel_config": cfg.to_dict(),
                "sharding": _sharding_metadata(engine, names),
            }
        else:
            # ZeRO-3: parameters are flat partitions per dp rank
            for d in range(cfg.dp):
                part = engine.zero.partitions[coord][d]
                yield naming.zero3_model_states_name(d), {
                    "flat_param_partition": engine.mp_policy.working_copy(part.fp32),
                    "iteration": engine.iteration,
                    "dp_rank": d,
                    "parallel_config": cfg.to_dict(),
                    "partition_meta": _partition_meta(rank_layout, d),
                    "sharding": _sharding_metadata(engine, names),
                }

        if optimizer_layout == "per_param":
            yield naming.optim_states_name(0, mp_rank), {
                "param_states": {
                    kind: engine.zero.shard_tensors(coord, kind)
                    for kind in ("fp32", "exp_avg", "exp_avg_sq")
                },
                "optimizer_step": engine.zero.partitions[coord][0].state.step,
                "zero_stage": cfg.zero_stage,
                "parallel_config": cfg.to_dict(),
                "pp_stage": pp_stage,
                "sp_rank": sp_rank,
                "tp_rank": tp_rank,
                "adam": engine.adam.hyperparameters(),
                "loss_scaler": scaler_state,
                "sharding": _sharding_metadata(engine, names),
            }
            continue

        dp_ranks = [0] if cfg.zero_stage == 0 else list(range(cfg.dp))
        for d in dp_ranks:
            if cfg.zero_stage == 0:
                fp32 = engine.zero.full_flat(coord, "fp32")
                exp_avg = engine.zero.full_flat(coord, "exp_avg")
                exp_avg_sq = engine.zero.full_flat(coord, "exp_avg_sq")
                step = engine.zero.partitions[coord][0].state.step
                meta = _partition_meta(rank_layout, 0)
                meta["partition_numel"] = rank_layout.flat_numel
            else:
                part = engine.zero.partitions[coord][d]
                fp32 = part.fp32
                exp_avg = part.state.exp_avg
                exp_avg_sq = part.state.exp_avg_sq
                step = part.state.step
                meta = _partition_meta(rank_layout, d)
            yield naming.optim_states_name(d, mp_rank), {
                "fp32_flat_partition": fp32,
                "exp_avg_flat_partition": exp_avg,
                "exp_avg_sq_flat_partition": exp_avg_sq,
                "optimizer_step": step,
                "partition_meta": meta,
                "zero_stage": cfg.zero_stage,
                "parallel_config": cfg.to_dict(),
                "pp_stage": pp_stage,
                "sp_rank": sp_rank,
                "tp_rank": tp_rank,
                "adam": engine.adam.hyperparameters(),
                "loss_scaler": scaler_state,
                "sharding": _sharding_metadata(engine, names),
            }


def _encode(payload: Dict) -> Tuple[List, str]:
    """A file's committed bytes, as parts, and the digest its manifest
    entry records — one pass over those exact bytes, so the entry
    detects any later mutation."""
    parts = encode(payload)
    return parts, sha256_hex(*parts)


def _encoded(
    payloads: Iterable[Tuple[str, Dict]], workers: int
) -> Iterator[Tuple[str, List, str]]:
    """``(basename, parts, sha256)`` per payload, in input order.

    Above one worker the encodes run on a thread pool while the caller
    stages: a payload is pulled (built) only when fewer than
    ``workers + 1`` files are encoded-or-encoding and not yet handed
    over, which bounds the save's transient memory.  Closing the
    generator joins the pool.
    """
    if workers <= 1:
        for basename, payload in payloads:
            yield (basename, *_encode(payload))
        return
    window: collections.deque = collections.deque()

    def oldest() -> Tuple[str, List, str]:
        # no reference to the future (and so to its parts) stays behind
        basename, fut = window.popleft()
        return (basename, *fut.result())

    with concurrent.futures.ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix="ucp-encode"
    ) as pool:
        for basename, payload in payloads:
            window.append((basename, pool.submit(_encode, payload)))
            del payload  # the encoder's reference is the last one
            if len(window) > workers:
                yield oldest()
        while window:
            yield oldest()


def save_distributed_checkpoint(
    engine,
    directory: str,
    tag: Optional[str] = None,
    store: Optional[ObjectStore] = None,
    optimizer_layout: str = "flat",
) -> CheckpointInfo:
    """Persist the engine's full training state as per-rank files.

    Args:
        engine: a :class:`repro.parallel.engine.TrainingEngine`.
        directory: checkpoint root (one directory per training job).
        tag: sub-directory name; defaults to ``global_step{iteration}``.
        store: optional pre-built store (shares accounting with caller).
        optimizer_layout: "flat" writes DeepSpeed-style flattened ZeRO
            partitions; "per_param" writes Megatron-classic per-tensor
            optimizer states (one dict entry per parameter shard) —
            only valid for ZeRO stage 0, where optimizer state is
            replicated across DP.
    """
    if optimizer_layout not in ("flat", "per_param"):
        raise ValueError(f"unknown optimizer_layout {optimizer_layout!r}")
    if optimizer_layout == "per_param" and engine.parallel_cfg.zero_stage != 0:
        raise ValueError(
            "per_param optimizer layout implies unpartitioned optimizer "
            "state (Megatron-classic); it requires zero_stage=0"
        )
    if store is None:
        store = ObjectStore(directory)
    tag = tag if tag is not None else naming.tag_for_step(engine.iteration)
    entries: Dict[str, Dict] = {}  # basename -> manifest entry, rank order

    # every data file is an atomic commit; its digest feeds the tag
    # manifest written at the end (the tag's commit point).  Encoded on
    # the fan-out, staged here in rank order, published behind: leaving
    # the block joins both pools, whatever ended the save
    workers = resolve_workers(None)
    with CommitPool(workers) as commits, contextlib.closing(
        _encoded(_rank_payloads(engine, optimizer_layout), workers)
    ) as encoded:
        for basename, parts, digest in encoded:
            group = CommitGroup(store)
            commits.reserve()
            try:
                nbytes = group.stage(f"{tag}/{basename}", *parts)
            except BaseException:
                # staging died before the group reached the pool
                commits.release()
                raise
            commits.submit(group)
            del parts  # staged: only the page cache holds the bytes now
            entries[basename] = {"nbytes": nbytes, "sha256": digest}
        # a publish that failed fails the save here, before the manifest
        commits.drain()

    # commit protocol: manifest after every data file is durable,
    # `latest` only after the manifest — a crash anywhere leaves the
    # previous tag fully intact and this tag either committed or
    # provably torn
    manifest_mod.write_manifest(store, tag, entries)
    manifest_digest = store.digest(manifest_mod.manifest_path(tag))
    store.write_text(naming.LATEST_FILE, tag)
    return CheckpointInfo(
        directory=directory,
        tag=tag,
        step=engine.iteration,
        files=[f"{tag}/{basename}" for basename in entries],
        total_bytes=sum(entry["nbytes"] for entry in entries.values()),
        simulated_write_s=store.simulated_write_s,
        manifest_digest=manifest_digest,
    )
