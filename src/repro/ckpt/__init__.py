"""Distributed checkpointing substrate (the pre-UCP world).

Implements DeepSpeed-style distributed checkpoints — per-rank files
tightly coupled to the parallelism strategy that wrote them — plus the
classic consolidated single-file baseline.  The strict loader raises on
any topology change, reproducing the paper's Fig 1 failure mode; UCP
(:mod:`repro.core`) is the system that lifts that restriction.
"""

from repro.ckpt.errors import (
    CheckpointError,
    CheckpointIncompatibleError,
    CheckpointIntegrityError,
    CheckpointNotFoundError,
)
from repro.ckpt.manifest import (
    read_manifest,
    require_manifest,
    verify_tag,
    write_manifest,
)
from repro.ckpt.naming import (
    LATEST_FILE,
    JOB_CONFIG_FILE,
    MANIFEST_FILE,
    model_states_name,
    optim_states_name,
    tag_for_step,
    zero3_model_states_name,
)
from repro.ckpt.saver import CheckpointInfo, save_distributed_checkpoint
from repro.ckpt.loader import (
    latest_committed_tag,
    load_distributed_checkpoint,
    read_job_config,
)
from repro.ckpt.consolidated import (
    load_consolidated_checkpoint,
    save_consolidated_checkpoint,
)
from repro.ckpt.retention import RetentionPolicy, prune_checkpoints

__all__ = [
    "CheckpointError",
    "CheckpointIncompatibleError",
    "CheckpointIntegrityError",
    "CheckpointNotFoundError",
    "read_manifest",
    "require_manifest",
    "verify_tag",
    "write_manifest",
    "LATEST_FILE",
    "JOB_CONFIG_FILE",
    "MANIFEST_FILE",
    "model_states_name",
    "optim_states_name",
    "tag_for_step",
    "zero3_model_states_name",
    "CheckpointInfo",
    "save_distributed_checkpoint",
    "latest_committed_tag",
    "load_distributed_checkpoint",
    "read_job_config",
    "save_consolidated_checkpoint",
    "load_consolidated_checkpoint",
    "RetentionPolicy",
    "prune_checkpoints",
]
