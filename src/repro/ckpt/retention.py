"""Checkpoint retention: bounded disk usage for long runs.

A multi-month training job checkpointing every few minutes produces
thousands of tags; production systems keep a sliding window plus
periodic "anchor" checkpoints.  This module implements that policy
safely: the tag named by ``latest`` is never deleted, pruning is
atomic per tag, and cached UCP conversions of pruned tags are removed
with them.
"""

from __future__ import annotations

import dataclasses
import shutil
from typing import List, Optional

from repro.ckpt import naming
from repro.ckpt.errors import CheckpointNotFoundError
from repro.ckpt.loader import resolve_tag
from repro.storage.store import ObjectStore


@dataclasses.dataclass(frozen=True)
class RetentionPolicy:
    """Which tags survive a pruning pass.

    Attributes:
        keep_last: newest tags always kept (>= 1; includes ``latest``).
        keep_every: additionally keep tags whose step is a multiple of
            this anchor interval (0 disables anchors).
    """

    keep_last: int = 3
    keep_every: int = 0

    def __post_init__(self) -> None:
        if self.keep_last < 1:
            raise ValueError("keep_last must be >= 1 (never prune latest)")
        if self.keep_every < 0:
            raise ValueError("keep_every must be >= 0")


def list_tags(directory: str) -> List[str]:
    """All checkpoint tags in a directory, sorted by step."""
    store = ObjectStore(directory)
    tags = []
    for path in sorted(store.base.iterdir()):
        if not path.is_dir():
            continue
        try:
            naming.step_from_tag(path.name)
        except ValueError:
            continue
        tags.append(path.name)
    return sorted(tags, key=naming.step_from_tag)


def prune_checkpoints(
    directory: str, policy: Optional[RetentionPolicy] = None
) -> List[str]:
    """Delete tags the policy does not protect; returns pruned tags.

    The ``latest`` tag is always protected even if the policy would
    not keep it.  Cached UCP conversions (``ucp_<tag>`` directories)
    of pruned tags are removed too.

    Raises:
        CheckpointIntegrityError: ``latest`` is damaged (does not
            decode, blank, not a tag name) — nothing is pruned, since
            the tag it was protecting can no longer be told.
    """
    policy = policy if policy is not None else RetentionPolicy()
    store = ObjectStore(directory)
    tags = list_tags(directory)
    if not tags:
        raise CheckpointNotFoundError(f"no checkpoint tags under {directory}")

    protected = set(tags[-policy.keep_last :])
    try:
        protected.add(resolve_tag(store, None))
    except CheckpointNotFoundError:
        pass  # no pointer at all: the window alone decides
    if policy.keep_every:
        for tag in tags:
            if naming.step_from_tag(tag) % policy.keep_every == 0:
                protected.add(tag)

    pruned = []
    for tag in tags:
        if tag in protected:
            continue
        shutil.rmtree(store.base / tag)
        ucp_cache = store.base / f"ucp_{tag}"
        if ucp_cache.is_dir():
            shutil.rmtree(ucp_cache)
        pruned.append(tag)
    return pruned
