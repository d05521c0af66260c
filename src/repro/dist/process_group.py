"""Process groups over the simulated topology."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.dist import collectives
from repro.dist.collectives import CommTracker


class ProcessGroup:
    """A named group of global ranks participating in collectives.

    The simulated runtime executes collectives as group-wide functions:
    callers supply the per-member arrays at once (the simulation has all
    ranks in-process), and the group returns the per-member results.
    """

    def __init__(
        self,
        name: str,
        ranks: Sequence[int],
        tracker: Optional[CommTracker] = None,
    ) -> None:
        if not ranks:
            raise ValueError(f"process group {name!r} has no members")
        if len(set(ranks)) != len(ranks):
            raise ValueError(f"process group {name!r} has duplicate ranks: {ranks}")
        self.name = name
        self.ranks: List[int] = list(ranks)
        self.tracker = tracker

    @property
    def size(self) -> int:
        """Number of member ranks."""
        return len(self.ranks)

    def local_rank(self, global_rank: int) -> int:
        """Index of a global rank within this group."""
        try:
            return self.ranks.index(global_rank)
        except ValueError:
            raise KeyError(
                f"rank {global_rank} not in group {self.name!r} ({self.ranks})"
            ) from None

    def all_reduce(self, shards: Sequence[np.ndarray], op: str = "sum") -> List[np.ndarray]:
        """All-reduce over the group (see :func:`collectives.all_reduce`)."""
        self._check_width(shards, "all_reduce")
        return collectives.all_reduce(shards, op=op, tracker=self.tracker)

    def all_gather(self, shards: Sequence[np.ndarray], axis: int = 0) -> List[np.ndarray]:
        """All-gather over the group."""
        self._check_width(shards, "all_gather")
        return collectives.all_gather(shards, axis=axis, tracker=self.tracker)

    def reduce_scatter(self, shards: Sequence[np.ndarray], op: str = "sum") -> List[np.ndarray]:
        """Reduce-scatter over the group."""
        self._check_width(shards, "reduce_scatter")
        return collectives.reduce_scatter(shards, op=op, tracker=self.tracker)

    def broadcast(self, value: np.ndarray) -> List[np.ndarray]:
        """Broadcast one array to every member."""
        return collectives.broadcast(value, self.size, tracker=self.tracker)

    def _check_width(self, shards: Sequence[np.ndarray], op: str) -> None:
        if len(shards) != self.size:
            raise ValueError(
                f"{op} on group {self.name!r} expected {self.size} shards, "
                f"got {len(shards)}"
            )
