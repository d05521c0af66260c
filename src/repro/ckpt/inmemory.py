"""Gemini-style in-memory checkpointing with peer replication.

Gemini (SOSP'23, the paper's Related Work) checkpoints GPU state into
the *CPU memory of peer machines* every iteration, so failure recovery
reads from RAM instead of remote storage.  We reproduce the mechanism
over the simulated cluster: each (mp, dp) partition is replicated into
the memory of ``replication_factor`` peer ranks chosen to avoid
co-locating replicas with their owner, and recovery reconstructs state
from the surviving replicas.

The comparison the UCP paper draws: Gemini recovers *fast* but only
onto the **same** topology; UCP recovers onto **any** topology at the
cost of a conversion.  The checkpoint-strategies benchmark quantifies
both sides.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro import obs
from repro.ckpt.errors import CheckpointError

PartitionKey = Tuple[Tuple[int, int, int], int]
"""((pp, sp, tp), dp_rank)."""


@dataclasses.dataclass
class _Replica:
    """One partition copy held in a peer rank's memory."""

    host_rank: int
    iteration: int
    fp32: np.ndarray
    exp_avg: np.ndarray
    exp_avg_sq: np.ndarray
    step: int


class InMemoryCheckpointError(CheckpointError):
    """Recovery is impossible: every replica of some partition is lost."""


class InMemoryCheckpoint:
    """Replicated in-RAM checkpoint for one engine's topology."""

    def __init__(self, engine, replication_factor: int = 2) -> None:
        world = engine.parallel_cfg.world_size
        if not 1 <= replication_factor <= world:
            raise ValueError(
                f"replication factor {replication_factor} out of range for "
                f"world size {world}"
            )
        self.engine = engine
        self.replication_factor = replication_factor
        self.iteration: Optional[int] = None
        # a supervisor thread may call recover()/surviving_replicas()
        # while a training thread is mid-commit; the replica map swap is
        # atomic under the lock and readers snapshot it
        self._lock = obs.make_lock("InMemoryCheckpoint._lock")
        self._replicas: Dict[PartitionKey, List[_Replica]] = {}  # guarded-by: self._lock
        self.commit_bytes = 0

    def _check_guarded(self, write: bool = False) -> None:
        """Guarded-access event: every replica-map access under the
        lock reports itself (readers snapshot, commit swaps)."""
        if obs._ACTIVE:
            obs.emit(
                "access", self._lock, "InMemoryCheckpoint._replicas", None, write
            )

    def _owner_rank(self, coord, dp_rank: int) -> int:
        """The global rank that owns a partition."""
        from repro.dist.topology import RankCoord

        pp, sp, tp = coord
        return self.engine.cluster.topology.rank(
            RankCoord(tp=tp, pp=pp, dp=dp_rank, sp=sp)
        )

    def _replica_hosts(self, owner: int) -> List[int]:
        """Peer ranks hosting copies: the next ranks round-robin,
        never the owner itself (unless the world is size 1)."""
        world = self.engine.parallel_cfg.world_size
        if world == 1:
            return [0] * self.replication_factor
        hosts = []
        offset = 1
        while len(hosts) < self.replication_factor:
            hosts.append((owner + offset) % world)
            offset += 1
        return hosts

    def commit(self) -> int:
        """Replicate the current state into peer memory.

        Returns the bytes copied (accounted as broadcast traffic).
        """
        copied = 0
        iteration = self.engine.iteration
        staged: Dict[PartitionKey, List[_Replica]] = {}
        for coord, parts in self.engine.zero.partitions.items():
            for dp_rank, part in enumerate(parts):
                owner = self._owner_rank(coord, dp_rank)
                replicas = []
                for host in self._replica_hosts(owner):
                    replicas.append(
                        _Replica(
                            host_rank=host,
                            iteration=iteration,
                            fp32=part.fp32.copy(),
                            exp_avg=part.state.exp_avg.copy(),
                            exp_avg_sq=part.state.exp_avg_sq.copy(),
                            step=part.state.step,
                        )
                    )
                    copied += int(part.fp32.nbytes) * 3
                staged[(coord, dp_rank)] = replicas
        # a replica aliasing the owner's live partition defeats the whole
        # scheme — the "checkpoint" would track training instead of
        # pinning an iteration (UCP026, when a memory sanitizer listens;
        # it also freezes clean replicas so a recovering rank cannot
        # scribble on peer memory).  Named on the commit-local ``staged``
        # map *before* it is published, so no lock is needed
        if obs._ACTIVE:
            obs.emit(
                "replica_commit", f"inmemory@it{iteration}", staged,
                self.engine.zero,
            )
        # the expensive copy/check work happened outside the lock;
        # a reader sees either the old complete map or the new one
        with self._lock:
            self._check_guarded(write=True)
            self._replicas = staged
            self.iteration = iteration
        self.commit_bytes = copied
        if self.engine.parallel_cfg.world_size > 1:
            self.engine.cluster.tracker.record(
                "broadcast", self.replication_factor, copied
            )
        return copied

    def surviving_replicas(self, failed_ranks: Set[int]) -> Dict[PartitionKey, int]:
        """How many replicas of each partition survive a failure set."""
        with self._lock:
            self._check_guarded()
            replicas_map = dict(self._replicas)
        return {
            key: sum(1 for r in replicas if r.host_rank not in failed_ranks)
            for key, replicas in replicas_map.items()
        }

    def recover(self, failed_ranks: Set[int]) -> int:
        """Restore the engine's state from surviving peer replicas.

        Gemini's constraint applies: the engine keeps its original
        topology (the failed ranks are assumed re-provisioned).  For a
        *changed* topology, persist to disk and go through UCP instead.

        Returns:
            The iteration recovered to.

        Raises:
            InMemoryCheckpointError: some partition lost all replicas.
        """
        with self._lock:
            self._check_guarded()
            iteration = self.iteration
            replicas_map = dict(self._replicas)
        if iteration is None:
            raise InMemoryCheckpointError("no committed in-memory checkpoint")
        dead = []
        for key, replicas in replicas_map.items():
            alive = [r for r in replicas if r.host_rank not in failed_ranks]
            if not alive:
                dead.append(key)
        if dead:
            raise InMemoryCheckpointError(
                f"{len(dead)} partitions lost every replica (e.g. {dead[0]}); "
                f"increase the replication factor or fall back to disk"
            )
        for (coord, dp_rank), replicas in replicas_map.items():
            source = next(
                r for r in replicas if r.host_rank not in failed_ranks
            )
            part = self.engine.zero.partitions[coord][dp_rank]
            part.fp32[...] = source.fp32
            part.state.exp_avg[...] = source.exp_avg
            part.state.exp_avg_sq[...] = source.exp_avg_sq
            part.state.step = source.step
        self.engine.iteration = iteration
        self.engine.sync_model_from_masters()
        return iteration

    @property
    def memory_bytes(self) -> int:
        """Total peer RAM consumed by the replicas."""
        with self._lock:
            self._check_guarded()
            return sum(
                int(r.fp32.nbytes) * 3
                for replicas in self._replicas.values()
                for r in replicas
            )
