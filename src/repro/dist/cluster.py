"""Simulated cluster: topology + process groups + failure injection.

A :class:`Cluster` owns the :class:`Topology` for a parallelism config,
builds the standard TP/PP/DP/SP process groups, and supports marking
ranks as failed — the hook the elastic-resume examples use to model the
paper's "continue on remaining healthy hardware" scenario.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.dist.collectives import CommTracker
from repro.dist.process_group import ProcessGroup
from repro.dist.topology import AxisName, ParallelConfig, Topology


class RankFailure(RuntimeError):
    """Raised when an operation touches a failed rank."""


class Cluster:
    """An in-process simulation of a GPU cluster running one job."""

    def __init__(
        self,
        config: ParallelConfig,
        tracker: Optional[CommTracker] = None,
    ) -> None:
        self.config = config
        self.topology = Topology(config)
        self.tracker = tracker if tracker is not None else CommTracker()
        self._failed: Set[int] = set()
        self._groups: Dict[str, ProcessGroup] = {}
        for axis in ("tp", "pp", "dp", "sp"):
            for members in self.topology.groups(axis):
                name = f"{axis}:{','.join(map(str, members))}"
                self._groups[name] = ProcessGroup(name, members, tracker=self.tracker)

    @property
    def world_size(self) -> int:
        """Total rank count."""
        return self.topology.world_size

    def group_for(self, axis: AxisName, rank: int) -> ProcessGroup:
        """The ``axis`` process group containing ``rank``."""
        self.check_alive(rank)
        members = self.topology.group_ranks(axis, rank)
        name = f"{axis}:{','.join(map(str, members))}"
        return self._groups[name]

    def groups(self, axis: AxisName) -> List[ProcessGroup]:
        """All process groups along one axis."""
        return [g for name, g in self._groups.items() if name.startswith(f"{axis}:")]

    def fail_rank(self, rank: int) -> None:
        """Mark a rank as failed (simulated hardware failure)."""
        if not 0 <= rank < self.world_size:
            raise IndexError(f"rank {rank} out of range")
        self._failed.add(rank)

    def heal_rank(self, rank: int) -> None:
        """Bring a failed rank back (e.g. node replaced)."""
        self._failed.discard(rank)

    @property
    def failed_ranks(self) -> Set[int]:
        """Currently failed ranks."""
        return set(self._failed)

    @property
    def healthy_ranks(self) -> List[int]:
        """Ranks that are still alive."""
        return [r for r in self.topology.ranks() if r not in self._failed]

    def check_alive(self, rank: int) -> None:
        """Raise :class:`RankFailure` if ``rank`` has failed."""
        if rank in self._failed:
            raise RankFailure(f"rank {rank} has failed")

    def check_world_alive(self) -> None:
        """Raise if any rank in the world has failed (job-level check)."""
        if self._failed:
            raise RankFailure(
                f"ranks {sorted(self._failed)} have failed; "
                f"{len(self.healthy_ranks)} healthy ranks remain"
            )
