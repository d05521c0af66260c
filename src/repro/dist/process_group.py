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
        trace=None,
    ) -> None:
        if not ranks:
            raise ValueError(f"process group {name!r} has no members")
        if len(set(ranks)) != len(ranks):
            raise ValueError(f"process group {name!r} has duplicate ranks: {ranks}")
        self.name = name
        self.ranks: List[int] = list(ranks)
        self.tracker = tracker
        # CollectiveTraceRecorder feeding the static race detector;
        # duck-typed to keep repro.dist free of analysis imports
        self.trace = trace

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
        self._trace("all_reduce", shards, reduce_op=op)
        return collectives.all_reduce(
            shards, op=op, tracker=self.tracker, group=(self.name, self.ranks)
        )

    def all_gather(self, shards: Sequence[np.ndarray], axis: int = 0) -> List[np.ndarray]:
        """All-gather over the group."""
        self._check_width(shards, "all_gather")
        self._trace("all_gather", shards)
        return collectives.all_gather(
            shards, axis=axis, tracker=self.tracker, group=(self.name, self.ranks)
        )

    def reduce_scatter(self, shards: Sequence[np.ndarray], op: str = "sum") -> List[np.ndarray]:
        """Reduce-scatter over the group."""
        self._check_width(shards, "reduce_scatter")
        self._trace("reduce_scatter", shards, reduce_op=op)
        return collectives.reduce_scatter(
            shards, op=op, tracker=self.tracker, group=(self.name, self.ranks)
        )

    def broadcast(self, value: np.ndarray) -> List[np.ndarray]:
        """Broadcast one array to every member."""
        self._trace("broadcast", [value])
        return collectives.broadcast(
            value, self.size, tracker=self.tracker, group=(self.name, self.ranks)
        )

    def _trace(
        self, op: str, arrays: Sequence[np.ndarray], reduce_op: str = ""
    ) -> None:
        if self.trace is None:
            return
        # record each member's own shape/dtype (argument-mismatch lint
        # needs the per-rank view)
        self.trace.record_call(
            op, self.name, self.ranks, arrays, reduce_op=reduce_op
        )

    def _check_width(self, shards: Sequence[np.ndarray], op: str) -> None:
        if len(shards) != self.size:
            raise ValueError(
                f"{op} on group {self.name!r} expected {self.size} shards, "
                f"got {len(shards)}"
            )
