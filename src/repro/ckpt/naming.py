"""Checkpoint directory layout and file naming conventions.

Mirrors DeepSpeed's on-disk layout::

    <dir>/latest                       <- text file naming the newest tag
    <dir>/global_step{N}/
        job_config.npt                 <- model + parallel config, seeds
        mp_rank_{MM}_model_states.npt  <- per model-parallel rank module
        zero_dp_rank_{D}_mp_rank_{MM}_optim_states.npt
        zero3_dp_rank_{D}_model_states.npt   (ZeRO-3 only)
        manifest.npt                   <- per-tag commit record (digests)

The manifest is written after every data file and ``latest`` is only
advanced after the manifest — a tag without a manifest is uncommitted
and is never trusted by the strict loader or the converter.
"""

from __future__ import annotations

import re

LATEST_FILE = "latest"
JOB_CONFIG_FILE = "job_config.npt"
MANIFEST_FILE = "manifest.npt"
TRACE_FILE = "collective_trace.npt"

FLAT_STATE_FIELDS = {
    "fp32": "fp32_flat_partition",
    "exp_avg": "exp_avg_flat_partition",
    "exp_avg_sq": "exp_avg_sq_flat_partition",
}
"""State kind -> the flat array holding it in an ``optim_states`` file."""

_TAG_RE = re.compile(r"^global_step(\d+)$")


def tag_for_step(step: int) -> str:
    """Directory tag for a checkpoint at a global step."""
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    return f"global_step{step}"


def step_from_tag(tag: str) -> int:
    """Inverse of :func:`tag_for_step`."""
    match = _TAG_RE.match(tag)
    if match is None:
        raise ValueError(f"malformed checkpoint tag {tag!r}")
    return int(match.group(1))


def model_states_name(mp_rank: int) -> str:
    """Module-state file for one model-parallel rank."""
    if mp_rank < 0:
        raise ValueError(f"mp_rank must be >= 0, got {mp_rank}")
    return f"mp_rank_{mp_rank:02d}_model_states.npt"


def optim_states_name(dp_rank: int, mp_rank: int) -> str:
    """ZeRO optimizer-partition file for one (dp, mp) rank pair."""
    if dp_rank < 0 or mp_rank < 0:
        raise ValueError(f"ranks must be >= 0, got dp={dp_rank} mp={mp_rank}")
    return f"zero_dp_rank_{dp_rank}_mp_rank_{mp_rank:02d}_optim_states.npt"


OPTIM_STATES_RE = re.compile(r"^zero_dp_rank_(\d+)_mp_rank_(\d+)_optim_states\.npt$")
"""Inverse of :func:`optim_states_name`: groups are ``(dp_rank, mp_rank)``."""


def zero3_model_states_name(dp_rank: int) -> str:
    """ZeRO-3 flat parameter-partition file for one dp rank."""
    if dp_rank < 0:
        raise ValueError(f"dp_rank must be >= 0, got {dp_rank}")
    return f"zero3_dp_rank_{dp_rank}_model_states.npt"
