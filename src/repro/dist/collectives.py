"""Deterministic in-process collectives with traffic accounting.

Each collective takes the per-rank arrays of one process group and
returns the per-rank results, reducing in fixed (rank) order so results
are bit-reproducible.  A :class:`CommTracker` records ring-algorithm
byte volumes so benchmarks can report communication costs.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs


def sanitize_boundary(
    op: str,
    inputs: Sequence[np.ndarray],
    outputs: Sequence[np.ndarray],
    group: Optional[Tuple[str, Sequence[int]]] = None,
) -> Sequence[np.ndarray]:
    """Name a collective's per-rank results as a ``collective`` event.

    Every collective calls this just before returning: with a memory
    sanitizer listening on :mod:`repro.obs` (``sanitize()`` /
    ``REPRO_SANITIZE=1``) the results are checked for writable
    cross-rank aliasing (UCP025); with none, the cost is one function
    call.  ``group`` carries ``(name, ranks)`` when the caller is a
    :class:`ProcessGroup`, so violations name real global ranks; direct
    module-level calls (e.g. sequence parallelism's ``all_to_all``) fall
    back to local indices.
    """
    if obs._ACTIVE:
        name, ranks = group if group is not None else (op, range(len(outputs)))
        obs.emit("collective", op, name, list(ranks), inputs, outputs)
    return outputs


@dataclasses.dataclass(frozen=True)
class CommRecord:
    """One collective call's accounting entry."""

    op: str
    group_size: int
    bytes_per_rank: int


class CommTracker:
    """Accumulates communication volume across collective calls."""

    def __init__(self) -> None:
        self.records: List[CommRecord] = []

    def record(self, op: str, group_size: int, bytes_per_rank: int) -> None:
        """Append one accounting entry."""
        self.records.append(CommRecord(op, group_size, bytes_per_rank))

    @property
    def total_bytes(self) -> int:
        """Sum of per-rank traffic over all recorded collectives."""
        return sum(r.bytes_per_rank * r.group_size for r in self.records)

    def count(self, op: Optional[str] = None) -> int:
        """Number of recorded calls, optionally filtered by op name."""
        if op is None:
            return len(self.records)
        return sum(1 for r in self.records if r.op == op)

    def reset(self) -> None:
        """Drop all records."""
        self.records.clear()


def _ring_allreduce_bytes(numel: int, itemsize: int, group_size: int) -> int:
    """Per-rank bytes moved by a ring all-reduce."""
    if group_size <= 1:
        return 0
    return 2 * (group_size - 1) * numel * itemsize // group_size


def all_reduce(
    shards: Sequence[np.ndarray],
    op: str = "sum",
    tracker: Optional[CommTracker] = None,
    *,
    group: Optional[Tuple[str, Sequence[int]]] = None,
) -> List[np.ndarray]:
    """All-reduce across a group: every rank receives the reduction.

    Reduction is performed in ascending rank order (deterministic).

    Args:
        shards: one array per rank, identical shapes.
        op: "sum" or "avg".
        tracker: optional traffic accounting sink.
    """
    if not shards:
        raise ValueError("all_reduce over an empty group")
    shapes = {s.shape for s in shards}
    if len(shapes) != 1:
        raise ValueError(f"all_reduce shape mismatch across ranks: {shapes}")
    total = shards[0].astype(np.float32, copy=True)
    for shard in shards[1:]:
        total = total + shard.astype(np.float32)
    if op == "avg":
        total = total / np.float32(len(shards))
    elif op != "sum":
        raise ValueError(f"unsupported all_reduce op {op!r}")
    if tracker is not None:
        tracker.record(
            "all_reduce",
            len(shards),
            _ring_allreduce_bytes(total.size, total.itemsize, len(shards)),
        )
    results = [total.copy() for _ in shards]
    sanitize_boundary("all_reduce", shards, results, group=group)
    return results


def all_gather(
    shards: Sequence[np.ndarray],
    axis: int = 0,
    tracker: Optional[CommTracker] = None,
    *,
    group: Optional[Tuple[str, Sequence[int]]] = None,
) -> List[np.ndarray]:
    """All-gather: every rank receives the rank-order concatenation."""
    if not shards:
        raise ValueError("all_gather over an empty group")
    gathered = np.concatenate([np.asarray(s) for s in shards], axis=axis)
    if tracker is not None:
        per_rank = sum(int(np.asarray(s).nbytes) for s in shards)
        tracker.record("all_gather", len(shards), per_rank)
    results = [gathered.copy() for _ in shards]
    sanitize_boundary("all_gather", shards, results, group=group)
    return results


def reduce_scatter(
    shards: Sequence[np.ndarray],
    op: str = "sum",
    tracker: Optional[CommTracker] = None,
    *,
    group: Optional[Tuple[str, Sequence[int]]] = None,
) -> List[np.ndarray]:
    """Reduce-scatter: sum (or average) then split equally by rank.

    Each input must be 1-D with length divisible by the group size.
    """
    if not shards:
        raise ValueError("reduce_scatter over an empty group")
    width = len(shards)
    reduced = all_reduce(shards, op=op)[0]
    if reduced.ndim != 1 or reduced.size % width != 0:
        raise ValueError(
            f"reduce_scatter needs 1-D arrays with length divisible by "
            f"{width}, got shape {reduced.shape}"
        )
    if tracker is not None:
        per_rank = (width - 1) * reduced.size * reduced.itemsize // width
        tracker.record("reduce_scatter", width, per_rank)
    size = reduced.size // width
    results = [reduced[i * size : (i + 1) * size].copy() for i in range(width)]
    sanitize_boundary("reduce_scatter", shards, results, group=group)
    return results


def all_to_all(
    shards: Sequence[np.ndarray],
    tracker: Optional[CommTracker] = None,
    *,
    group: Optional[Tuple[str, Sequence[int]]] = None,
) -> List[np.ndarray]:
    """All-to-all: rank r sends chunk j of its input to rank j.

    The collective behind DeepSpeed-Ulysses sequence parallelism
    (switching activations between sequence-split and head-split
    layouts).  Each input must be 1-D with length divisible by the
    group size; rank j receives the concatenation of every rank's
    j-th chunk, in rank order.
    """
    if not shards:
        raise ValueError("all_to_all over an empty group")
    width = len(shards)
    arrays = [np.asarray(s) for s in shards]
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1:
        raise ValueError(f"all_to_all shape mismatch across ranks: {shapes}")
    first = arrays[0]
    if first.ndim != 1 or first.size % width != 0:
        raise ValueError(
            f"all_to_all needs 1-D arrays with length divisible by "
            f"{width}, got shape {first.shape}"
        )
    chunk = first.size // width
    outputs = []
    for receiver in range(width):
        outputs.append(
            np.concatenate(
                [a[receiver * chunk : (receiver + 1) * chunk] for a in arrays]
            )
        )
    if tracker is not None:
        per_rank = (width - 1) * chunk * first.itemsize
        tracker.record("all_to_all", width, per_rank)
    sanitize_boundary("all_to_all", shards, outputs, group=group)
    return outputs


def broadcast(
    value: np.ndarray,
    group_size: int,
    tracker: Optional[CommTracker] = None,
    *,
    group: Optional[Tuple[str, Sequence[int]]] = None,
) -> List[np.ndarray]:
    """Broadcast one rank's array to the whole group."""
    if group_size < 1:
        raise ValueError("broadcast to an empty group")
    arr = np.asarray(value)
    if tracker is not None:
        tracker.record("broadcast", group_size, int(arr.nbytes))
    results = [arr.copy() for _ in range(group_size)]
    sanitize_boundary("broadcast", [arr], results, group=group)
    return results
