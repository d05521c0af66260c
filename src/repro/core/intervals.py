"""Interval machinery shared by provenance analysis and the IO planners.

A conversion or sliced load is, at its core, interval arithmetic over
each parameter's *consolidated* (padded logical) flat element space:

* :func:`shard_to_full_runs` — the symbolic shard -> consolidated map
  of one TP rank, as maximal contiguous :class:`MapRun` intervals,
  computed by executing the parameter's *real* fragmenter over an
  ``arange`` index tensor.  Because the map comes from the executable
  sharding code, plans lowered from it cannot drift from what
  ``union``/``Load`` actually do.
* :func:`data_intervals` — the consolidated sub-intervals holding real
  (non-padding) data; their complement is structural padding, which
  plans never read and loads fill with zeros.
* :func:`merge_intervals` / :func:`subtract_intervals` — sorted
  disjoint-interval set algebra.

Originally part of :mod:`repro.analysis.provenance` (which re-exports
these names unchanged); promoted here so the streaming read planner in
:mod:`repro.core.convert` and the sliced-atom reader in
:mod:`repro.core.ops` can lower the same interval maps the UCP017-022
theorems are proven over.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple

import numpy as np

from repro.parallel.tp import PATTERN_FRAGMENT, ShardSpec


def numel(shape: Sequence[int]) -> int:
    """Element count of a shape."""
    n = 1
    for d in shape:
        n *= int(d)
    return n


@dataclasses.dataclass(frozen=True)
class MapRun:
    """One maximal contiguous run of a shard -> consolidated index map.

    Shard flat elements ``[shard_start, shard_start + length)`` map to
    consolidated flat elements ``[full_start, full_start + length)``.
    """

    full_start: int
    shard_start: int
    length: int

    @property
    def shard_end(self) -> int:
        return self.shard_start + self.length

    @property
    def full_end(self) -> int:
        return self.full_start + self.length


def shard_to_full_runs(
    spec: ShardSpec, degree: int, rank: int
) -> List[MapRun]:
    """The symbolic shard -> consolidated element map, as interval runs.

    Executes the parameter's *actual* fragmenter over an ``arange``
    index tensor (memory-only; no disk IO) and collapses the result to
    maximal contiguous runs, so downstream composition works purely on
    intervals while staying exactly faithful to the executable
    sharding semantics — including fused-section and expert layouts
    whose maps are not expressible as a single affine stride.
    """
    full_numel = numel(spec.logical_shape)
    if spec.pattern != PATTERN_FRAGMENT or degree == 1:
        return [MapRun(full_start=0, shard_start=0, length=full_numel)]
    idx = np.arange(full_numel, dtype=np.int64).reshape(spec.logical_shape)
    flat = np.ascontiguousarray(
        spec.fragmenter.shard(idx, degree, rank)
    ).reshape(-1)
    if flat.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(flat) != 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks + 1, [flat.size]))
    return [
        MapRun(
            full_start=int(flat[s]),
            shard_start=int(s),
            length=int(e - s),
        )
        for s, e in zip(starts, ends)
    ]


def data_intervals(spec: ShardSpec) -> List[Tuple[int, int]]:
    """Consolidated flat intervals holding real (non-padding) data.

    Structural padding (e.g. vocab rows added for TP divisibility) is
    the complement: it exists in source shards but must be stripped by
    the conversion, never copied into target data bytes.
    """
    total = numel(spec.logical_shape)
    if not spec.has_padding:
        return [(0, total)]
    shape = tuple(int(d) for d in spec.logical_shape)
    up = tuple(int(d) for d in spec.unpadded_shape)
    out: List[Tuple[int, int]] = []

    def rect(dim: int, base: int) -> None:
        if dim == len(shape) or shape[dim:] == up[dim:]:
            out.append((base, base + numel(shape[dim:])))
            return
        stride = numel(shape[dim + 1:])
        for i in range(up[dim]):
            rect(dim + 1, base + i * stride)

    rect(0, 0)
    return merge_intervals(out)


def merge_intervals(intervals: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Union of intervals as a sorted disjoint list."""
    merged: List[Tuple[int, int]] = []
    for start, end in sorted(intervals):
        if start >= end:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def subtract_intervals(
    keep: List[Tuple[int, int]], remove: List[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """``keep \\ remove`` for sorted disjoint interval lists."""
    out: List[Tuple[int, int]] = []
    for start, end in keep:
        cursor = start
        for r_start, r_end in remove:
            if r_end <= cursor:
                continue
            if r_start >= end:
                break
            if r_start > cursor:
                out.append((cursor, r_start))
            cursor = max(cursor, r_end)
            if cursor >= end:
                break
        if cursor < end:
            out.append((cursor, end))
    return out
