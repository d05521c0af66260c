"""ZeRO-style partitioned optimizer state.

Each model-parallel rank's parameters flatten into one aligned fp32
buffer (``fp32_partitioned_groups_flat`` in DeepSpeed) which splits into
equal partitions across the data-parallel ranks.  Every DP rank owns the
fp32 master weights and Adam moments of *its* partition only, updates it
elementwise, and the updated partitions are all-gathered back into the
model's working weights.

Because Adam is elementwise, partitioned updates are bit-identical to an
unpartitioned update — the property that lets UCP re-partition optimizer
state across arbitrary DP widths without changing training math.

ZeRO stage semantics here:

* stage 0 — optimizer states replicated (checkpointed once, by dp 0);
* stage 1 — optimizer states partitioned across DP;
* stage 2 — same persistent state as stage 1 (stage 2 additionally
  partitions *gradients*, which are transient and never checkpointed);
* stage 3 — parameters themselves also partitioned: model-state
  checkpoints hold flat parameter partitions instead of full tensors.

Every read of the partitions goes through :meth:`ZeroOptimizer.shard`,
a read-only view of one parameter's shard, so the engine's sync, the
saver and the consolidated baseline work one parameter at a time and
hold no whole-model copy.  :meth:`ZeroOptimizer.full_flat` joins a
rank's partitions only for a file that stores the join (the zero-stage-0
saver).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.optim.adam import Adam, AdamParamState
from repro.parallel.layout import ModelParallelLayout, RankShardLayout


class ZeroPartition:
    """One DP rank's slice of one model-parallel rank's flat state."""

    def __init__(self, numel: int) -> None:
        self.fp32 = np.zeros(numel, dtype=np.float32)
        self.state = AdamParamState.zeros(numel)

    @property
    def numel(self) -> int:
        """Partition length in elements."""
        return int(self.fp32.size)

    def clone(self) -> "ZeroPartition":
        """Deep copy (used by save paths and tests)."""
        out = ZeroPartition(self.numel)
        out.fp32[...] = self.fp32
        out.state = self.state.clone()
        return out


MpCoord = Tuple[int, int, int]
"""(pp_stage, sp_rank, tp_rank)."""


class ZeroOptimizer:
    """Partitioned Adam over every model-parallel rank's flat buffer."""

    def __init__(self, layout: ModelParallelLayout, adam: Optional[Adam] = None) -> None:
        self.layout = layout
        self.adam = adam if adam is not None else Adam()
        self.partitions: Dict[MpCoord, List[ZeroPartition]] = {}
        dp = layout.parallel_cfg.dp
        for coord in layout.mp_coords():
            rank_layout = layout.rank_layout(*coord)
            self.partitions[coord] = [
                ZeroPartition(rank_layout.partition_numel) for _ in range(dp)
            ]

    @property
    def global_step(self) -> int:
        """Optimizer step count (identical across all partitions)."""
        first = next(iter(self.partitions.values()))
        return first[0].state.step

    def _flat_shard(
        self, rank_layout: RankShardLayout, name: str, full: np.ndarray
    ) -> np.ndarray:
        """One rank's TP shard of a consolidated tensor, flattened and
        checked against the layout's shard shape."""
        spec = self.layout.spec(name)
        tp = self.layout.parallel_cfg.tp
        if spec.fragmenter is not None and tp > 1:
            full = spec.fragmenter.shard(full, tp, rank_layout.tp_rank)
        shard = np.asarray(full, dtype=np.float32)
        expected = rank_layout.entry(name).shard_shape
        if shard.shape != expected:
            raise ValueError(
                f"shard of {name!r} has shape {shard.shape}, "
                f"layout expects {expected}"
            )
        return shard.reshape(-1)

    def _scatter(self, full_tensors: Dict[str, np.ndarray], kind: str) -> None:
        """Write consolidated tensors of one state kind into every
        rank's partitions, shard by shard, through the partition slices
        each shard covers; alignment padding is zeroed."""
        for coord in self.layout.mp_coords():
            rank_layout = self.layout.rank_layout(*coord)
            arrays = [self._partition_array(p, kind) for p in self.partitions[coord]]
            for entry in rank_layout.entries:
                flat = self._flat_shard(rank_layout, entry.name, full_tensors[entry.name])
                for ps in rank_layout.partition_slices(entry.name):
                    arrays[ps.partition][ps.local_start : ps.local_end] = flat[
                        ps.shard_start : ps.shard_end
                    ]
            size = rank_layout.partition_numel
            for d, array in enumerate(arrays):
                array[max(rank_layout.payload_numel - d * size, 0) :] = 0.0

    def initialize_from(self, full_tensors: Dict[str, np.ndarray]) -> None:
        """Seed fp32 master partitions from consolidated model tensors.

        The tensors are only read, so views of the model's own
        parameters serve: no copy of the model is made or kept.
        """
        self._scatter(full_tensors, "fp32")

    @staticmethod
    def _partition_array(partition: ZeroPartition, kind: str) -> np.ndarray:
        if kind == "fp32":
            return partition.fp32
        if kind == "exp_avg":
            return partition.state.exp_avg
        if kind == "exp_avg_sq":
            return partition.state.exp_avg_sq
        raise KeyError(
            f"unknown state kind {kind!r}; expected fp32/exp_avg/exp_avg_sq"
        )

    def full_flat(self, coord: MpCoord, kind: str = "fp32") -> np.ndarray:
        """Join one rank's partitions of one state kind into a flat buffer
        (a copy: only a file that stores the concatenation needs one)."""
        return np.concatenate(
            [self._partition_array(p, kind) for p in self.partitions[coord]]
        )

    def shard(self, coord: MpCoord, name: str, kind: str = "fp32") -> np.ndarray:
        """One parameter's TP shard of one state kind on one rank.

        A shard inside one dp partition is a view of that partition;
        only a shard a partition boundary cuts is concatenated.  Either
        way the result is read-only, so nothing writes through it into
        a partition; a view follows later updates, so a caller that
        keeps the values across a step copies them.
        """
        rank_layout = self.layout.rank_layout(*coord)
        arrays = [self._partition_array(p, kind) for p in self.partitions[coord]]
        pieces = [
            arrays[ps.partition][ps.local_start : ps.local_end]
            for ps in rank_layout.partition_slices(name)
        ]
        flat = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        out = flat.reshape(rank_layout.entry(name).shard_shape)
        out.flags.writeable = False
        return out

    def shard_tensors(self, coord: MpCoord, kind: str = "fp32") -> Dict[str, np.ndarray]:
        """One rank's shards of one state kind (read-only; see :meth:`shard`)."""
        return {
            e.name: self.shard(coord, e.name, kind)
            for e in self.layout.rank_layout(*coord).entries
        }

    def apply_grads(
        self,
        full_grads: Dict[str, np.ndarray],
        lr: float,
    ) -> None:
        """One optimizer step from consolidated (averaged) gradients.

        Each model-parallel rank shards the gradients exactly as its
        parameters are sharded, and each DP rank gathers the gradient
        of its own partition only and updates that partition.
        """
        for coord in self.layout.mp_coords():
            rank_layout = self.layout.rank_layout(*coord)
            for d, part in enumerate(self.partitions[coord]):
                grad = np.zeros(rank_layout.partition_numel, dtype=np.float32)
                for ps in rank_layout.slices_in_partition(d):
                    flat = self._flat_shard(rank_layout, ps.name, full_grads[ps.name])
                    grad[ps.local_start : ps.local_end] = flat[
                        ps.shard_start : ps.shard_end
                    ]
                self.adam.step(part.fp32, grad, part.state, lr=lr)

    def _consolidated(self, name: str, kind: str) -> np.ndarray:
        """One parameter's consolidated state, read-only, from the shards
        of its first owner (see :meth:`consolidated_tensors`)."""
        spec = self.layout.spec(name)
        pp_stage = self.layout.stage_plan.stages_of(name)[0]
        tp = self.layout.parallel_cfg.tp
        if spec.fragmenter is None or tp == 1:
            return self.shard((pp_stage, 0, 0), name, kind)
        out = spec.fragmenter.join(
            [self.shard((pp_stage, 0, r), name, kind) for r in range(tp)]
        )
        out.flags.writeable = False
        return out

    def consolidated_tensors(self, kind: str = "fp32") -> Dict[str, np.ndarray]:
        """Reassemble every parameter's state to its consolidated tensor.

        TP shards join via each parameter's fragmenter; parameters
        replicated across TP/PP/SP take the first owner's copy (owners
        are identical by construction — verified by tests).  Read-only,
        one parameter at a time through :meth:`shard`: an unsplit
        parameter is a view of its partition.

        Args:
            kind: "fp32", "exp_avg", or "exp_avg_sq".
        """
        return {
            name: self._consolidated(name, kind) for name in self.layout.shard_specs
        }

    def verify_replica_consistency(self, atol: float = 0.0) -> None:
        """Assert that every replicated copy of every state is identical.

        Replicas exist across SP ranks, across TP ranks for replicated
        patterns, and across PP stages for tied embeddings.  Training
        math keeps them bit-equal; a divergence indicates a bug.
        """
        for kind in ("fp32", "exp_avg", "exp_avg_sq"):
            reference: Dict[str, np.ndarray] = {}
            for coord in self.layout.mp_coords():
                shards = self.shard_tensors(coord, kind)
                for name, value in shards.items():
                    spec = self.layout.spec(name)
                    key = name
                    if spec.fragmenter is not None and self.layout.parallel_cfg.tp > 1:
                        key = f"{name}@tp{coord[2]}"
                    if key in reference:
                        if not np.allclose(reference[key], value, atol=atol, rtol=0):
                            raise AssertionError(
                                f"replicated state {name!r} ({kind}) diverged "
                                f"at mp coord {coord}"
                            )
                    else:
                        reference[key] = value
