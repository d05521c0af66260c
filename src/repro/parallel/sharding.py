"""Fragmenters: how a consolidated tensor splits into TP shards.

These classes are the executable form of the paper's ``fragment_params``
sub-patterns (Fig 5): even splits along one dimension, fused sections
with *variable sizes* (the GQA QKV case), per-expert 3-D tensors, and
padded vocabulary tables.  Each fragmenter is a bijection between one
consolidated tensor and its ``degree`` shards: ``shard`` produces rank
views, ``join`` reassembles, and round-tripping is exact — a property
the test suite checks exhaustively.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

import numpy as np


class Fragmenter:
    """Base interface for fragment sub-patterns."""

    kind: str = "abstract"

    def shard(self, full: np.ndarray, degree: int, rank: int) -> np.ndarray:
        """The ``rank``-th of ``degree`` shards of the consolidated tensor."""
        raise NotImplementedError

    def join(self, shards: Sequence[np.ndarray]) -> np.ndarray:
        """Reassemble the consolidated tensor from all shards, in order."""
        raise NotImplementedError

    def shard_shape(self, full_shape: Tuple[int, ...], degree: int) -> Tuple[int, ...]:
        """Shape of each shard for a consolidated shape."""
        raise NotImplementedError

    def validate(self, full_shape: Tuple[int, ...], degree: int) -> None:
        """Raise ValueError if the shape cannot split ``degree`` ways."""
        self.shard_shape(full_shape, degree)

    def to_dict(self) -> Dict:
        """JSON form (stored in checkpoint sharding metadata)."""
        raise NotImplementedError

    @staticmethod
    def from_dict(payload: Dict) -> "Fragmenter":
        """Inverse of :meth:`to_dict` across all subclasses."""
        kind = payload["kind"]
        cls = _FRAGMENTER_KINDS.get(kind)
        if cls is None:
            raise KeyError(f"unknown fragmenter kind {kind!r}")
        return cls._from_dict(payload)


@dataclasses.dataclass(frozen=True)
class EvenFragment(Fragmenter):
    """Equal split along one dimension (plain row/column parallelism)."""

    dim: int

    kind = "even"

    def shard(self, full: np.ndarray, degree: int, rank: int) -> np.ndarray:
        self.validate(full.shape, degree)
        if not 0 <= rank < degree:
            raise IndexError(f"rank {rank} out of range for degree {degree}")
        return np.array_split(full, degree, axis=self.dim)[rank].copy()

    def join(self, shards: Sequence[np.ndarray]) -> np.ndarray:
        if not shards:
            raise ValueError("join of zero shards")
        return np.concatenate(list(shards), axis=self.dim)

    def shard_shape(self, full_shape: Tuple[int, ...], degree: int) -> Tuple[int, ...]:
        if self.dim >= len(full_shape):
            raise ValueError(f"dim {self.dim} out of range for shape {full_shape}")
        size = full_shape[self.dim]
        if size % degree != 0:
            raise ValueError(
                f"dim {self.dim} of size {size} not divisible by degree {degree}"
            )
        shape = list(full_shape)
        shape[self.dim] = size // degree
        return tuple(shape)

    def to_dict(self) -> Dict:
        return {"kind": self.kind, "dim": self.dim}

    @classmethod
    def _from_dict(cls, payload: Dict) -> "EvenFragment":
        return cls(dim=int(payload["dim"]))


@dataclasses.dataclass(frozen=True)
class FusedSectionsFragment(Fragmenter):
    """Variable-size fused sections split along one dimension.

    The GQA QKV case from the paper's Fig 5: the fused tensor is
    ``[q_size + k_size + v_size, hidden]``; each TP rank receives its
    slice of *each* section concatenated back together, so section sizes
    need not be equal (q_size != k_size when num_kv_heads < num_heads).
    """

    dim: int
    section_sizes: Tuple[int, ...]

    kind = "fused_sections"

    def __post_init__(self) -> None:
        if not self.section_sizes:
            raise ValueError("fused fragment needs at least one section")
        if any(s <= 0 for s in self.section_sizes):
            raise ValueError(f"section sizes must be positive: {self.section_sizes}")

    def _section_slices(self) -> List[Tuple[int, int]]:
        out, start = [], 0
        for size in self.section_sizes:
            out.append((start, start + size))
            start += size
        return out

    def shard(self, full: np.ndarray, degree: int, rank: int) -> np.ndarray:
        self.validate(full.shape, degree)
        if not 0 <= rank < degree:
            raise IndexError(f"rank {rank} out of range for degree {degree}")
        pieces = []
        for start, end in self._section_slices():
            section = np.take(full, range(start, end), axis=self.dim)
            pieces.append(np.array_split(section, degree, axis=self.dim)[rank])
        return np.concatenate(pieces, axis=self.dim)

    def join(self, shards: Sequence[np.ndarray]) -> np.ndarray:
        if not shards:
            raise ValueError("join of zero shards")
        degree = len(shards)
        per_rank_sizes = [s // degree for s in self.section_sizes]
        sections: List[List[np.ndarray]] = [[] for _ in self.section_sizes]
        for shard in shards:
            offset = 0
            for i, size in enumerate(per_rank_sizes):
                sections[i].append(
                    np.take(shard, range(offset, offset + size), axis=self.dim)
                )
                offset += size
        joined = [np.concatenate(parts, axis=self.dim) for parts in sections]
        return np.concatenate(joined, axis=self.dim)

    def shard_shape(self, full_shape: Tuple[int, ...], degree: int) -> Tuple[int, ...]:
        if self.dim >= len(full_shape):
            raise ValueError(f"dim {self.dim} out of range for shape {full_shape}")
        total = sum(self.section_sizes)
        if full_shape[self.dim] != total:
            raise ValueError(
                f"dim {self.dim} of size {full_shape[self.dim]} != section "
                f"total {total}"
            )
        for size in self.section_sizes:
            if size % degree != 0:
                raise ValueError(
                    f"section of size {size} not divisible by degree {degree}"
                )
        shape = list(full_shape)
        shape[self.dim] = total // degree
        return tuple(shape)

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "dim": self.dim,
            "section_sizes": list(self.section_sizes),
        }

    @classmethod
    def _from_dict(cls, payload: Dict) -> "FusedSectionsFragment":
        return cls(
            dim=int(payload["dim"]),
            section_sizes=tuple(int(s) for s in payload["section_sizes"]),
        )


@dataclasses.dataclass(frozen=True)
class ExpertFragment(Fragmenter):
    """MoE expert tensors: [n_experts, ...] sharded along a non-expert dim.

    The paper's other Fig 5 sub-pattern: a 3-dim expert weight
    ``[n_experts, hidden_out, hidden_in]`` with TP splitting every
    expert's ``hidden_out``.  Mechanically an even split, but the
    sub-pattern carries the expert axis so metadata (and validation)
    know dim 0 is experts, not a shardable feature dim.
    """

    expert_axis: int
    shard_dim: int

    kind = "expert"

    def __post_init__(self) -> None:
        if self.expert_axis == self.shard_dim:
            raise ValueError("cannot shard along the expert axis itself")

    def shard(self, full: np.ndarray, degree: int, rank: int) -> np.ndarray:
        self.validate(full.shape, degree)
        if not 0 <= rank < degree:
            raise IndexError(f"rank {rank} out of range for degree {degree}")
        return np.array_split(full, degree, axis=self.shard_dim)[rank].copy()

    def join(self, shards: Sequence[np.ndarray]) -> np.ndarray:
        if not shards:
            raise ValueError("join of zero shards")
        return np.concatenate(list(shards), axis=self.shard_dim)

    def shard_shape(self, full_shape: Tuple[int, ...], degree: int) -> Tuple[int, ...]:
        if max(self.expert_axis, self.shard_dim) >= len(full_shape):
            raise ValueError(
                f"axes ({self.expert_axis}, {self.shard_dim}) out of range "
                f"for shape {full_shape}"
            )
        size = full_shape[self.shard_dim]
        if size % degree != 0:
            raise ValueError(
                f"shard dim {self.shard_dim} of size {size} not divisible "
                f"by degree {degree}"
            )
        shape = list(full_shape)
        shape[self.shard_dim] = size // degree
        return tuple(shape)

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "expert_axis": self.expert_axis,
            "shard_dim": self.shard_dim,
        }

    @classmethod
    def _from_dict(cls, payload: Dict) -> "ExpertFragment":
        return cls(
            expert_axis=int(payload["expert_axis"]),
            shard_dim=int(payload["shard_dim"]),
        )


@dataclasses.dataclass(frozen=True)
class ExpertParallelFragment(Fragmenter):
    """Expert parallelism: whole experts distributed across ranks.

    The DeepSpeed-MoE layout (vs. the Fig 5 tensor-slicing layout that
    splits *inside* each expert): the [n_experts, ...] tensor splits
    along the expert axis itself, so each rank owns complete experts.
    Added as this reproduction's demonstration of the paper's claim
    that new parallelism patterns slot into the UCP language easily.
    """

    expert_axis: int = 0

    kind = "expert_parallel"

    def shard(self, full: np.ndarray, degree: int, rank: int) -> np.ndarray:
        self.validate(full.shape, degree)
        if not 0 <= rank < degree:
            raise IndexError(f"rank {rank} out of range for degree {degree}")
        return np.array_split(full, degree, axis=self.expert_axis)[rank].copy()

    def join(self, shards: Sequence[np.ndarray]) -> np.ndarray:
        if not shards:
            raise ValueError("join of zero shards")
        return np.concatenate(list(shards), axis=self.expert_axis)

    def shard_shape(self, full_shape: Tuple[int, ...], degree: int) -> Tuple[int, ...]:
        if self.expert_axis >= len(full_shape):
            raise ValueError(
                f"expert axis {self.expert_axis} out of range for shape "
                f"{full_shape}"
            )
        experts = full_shape[self.expert_axis]
        if experts % degree != 0:
            raise ValueError(
                f"{experts} experts not divisible across {degree} "
                f"expert-parallel ranks"
            )
        shape = list(full_shape)
        shape[self.expert_axis] = experts // degree
        return tuple(shape)

    def to_dict(self) -> Dict:
        return {"kind": self.kind, "expert_axis": self.expert_axis}

    @classmethod
    def _from_dict(cls, payload: Dict) -> "ExpertParallelFragment":
        return cls(expert_axis=int(payload["expert_axis"]))


@dataclasses.dataclass(frozen=True)
class VocabFragment(Fragmenter):
    """Vocab-parallel embedding: rows split evenly; table height includes
    Megatron's divisibility padding, which UCP later strips.

    Attributes:
        logical_rows: the unpadded vocabulary size, recorded so
            StripPadding knows how many rows are real.
    """

    logical_rows: int

    kind = "vocab"

    def shard(self, full: np.ndarray, degree: int, rank: int) -> np.ndarray:
        self.validate(full.shape, degree)
        if not 0 <= rank < degree:
            raise IndexError(f"rank {rank} out of range for degree {degree}")
        return np.array_split(full, degree, axis=0)[rank].copy()

    def join(self, shards: Sequence[np.ndarray]) -> np.ndarray:
        if not shards:
            raise ValueError("join of zero shards")
        return np.concatenate(list(shards), axis=0)

    def shard_shape(self, full_shape: Tuple[int, ...], degree: int) -> Tuple[int, ...]:
        rows = full_shape[0]
        if rows < self.logical_rows:
            raise ValueError(
                f"padded table has {rows} rows < logical vocab {self.logical_rows}"
            )
        if rows % degree != 0:
            raise ValueError(
                f"padded vocab {rows} not divisible by degree {degree}"
            )
        return (rows // degree,) + tuple(full_shape[1:])

    def to_dict(self) -> Dict:
        return {"kind": self.kind, "logical_rows": self.logical_rows}

    @classmethod
    def _from_dict(cls, payload: Dict) -> "VocabFragment":
        return cls(logical_rows=int(payload["logical_rows"]))


_FRAGMENTER_KINDS = {
    cls.kind: cls
    for cls in (
        EvenFragment,
        FusedSectionsFragment,
        ExpertFragment,
        ExpertParallelFragment,
        VocabFragment,
    )
}
