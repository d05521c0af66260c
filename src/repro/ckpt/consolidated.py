"""Consolidated single-file checkpointing (the classic baseline).

The pre-distributed-checkpoint idiom: rank 0 gathers every parameter and
optimizer state into one consolidated file.  Portable across topologies
— but the paper's point is that producing it "unacceptably slows down
training and is impractical at extreme scales": the gather serializes
the full model through one rank and one file.  The benchmarks use this
as the upper-cost baseline against which both distributed checkpoints
and UCP are compared.
"""

from __future__ import annotations

from typing import Optional

from repro.ckpt.errors import CheckpointIncompatibleError, CheckpointNotFoundError
from repro.models.configs import ModelConfig
from repro.storage.store import ObjectStore

CONSOLIDATED_FILE = "consolidated_checkpoint.npt"


def save_consolidated_checkpoint(
    engine, directory: str, store: Optional[ObjectStore] = None
) -> int:
    """Gather all state to a single file; returns bytes written.

    The gather is accounted as all-gather traffic on the cluster's
    tracker, modelling the consolidation cost the paper criticizes.
    """
    if store is None:
        store = ObjectStore(directory)
    fp32 = engine.zero.consolidated_tensors("fp32")
    exp_avg = engine.zero.consolidated_tensors("exp_avg")
    exp_avg_sq = engine.zero.consolidated_tensors("exp_avg_sq")

    world = engine.parallel_cfg.world_size
    if world > 1:
        gathered_bytes = sum(int(v.nbytes) for v in fp32.values()) * 3
        engine.cluster.tracker.record("all_gather", world, gathered_bytes)

    payload = {
        "model_config": engine.model_cfg.to_dict(),
        "iteration": engine.iteration,
        "optimizer_step": engine.zero.global_step,
        "fp32": fp32,
        "exp_avg": exp_avg,
        "exp_avg_sq": exp_avg_sq,
        "adam": engine.adam.hyperparameters(),
    }
    return store.save(CONSOLIDATED_FILE, payload)


def load_consolidated_checkpoint(
    engine, directory: str, store: Optional[ObjectStore] = None
) -> None:
    """Initialize any-topology engine state from a consolidated file."""
    if store is None:
        store = ObjectStore(directory)
    if not store.exists(CONSOLIDATED_FILE):
        raise CheckpointNotFoundError(
            f"no {CONSOLIDATED_FILE} in {directory}"
        )
    payload = store.load(CONSOLIDATED_FILE)
    saved = ModelConfig.from_dict(payload["model_config"])
    if saved != engine.model_cfg:
        raise CheckpointIncompatibleError(
            f"consolidated checkpoint is for model {saved.name!r}, engine "
            f"runs {engine.model_cfg.name!r}"
        )

    step = int(payload["optimizer_step"])
    for kind in ("fp32", "exp_avg", "exp_avg_sq"):
        engine.zero._scatter(payload[kind], kind)
    for coord in engine.layout.mp_coords():
        for part in engine.zero.partitions[coord]:
            part.state.step = step
    engine.iteration = int(payload["iteration"])
    engine.sync_model_from_masters()

