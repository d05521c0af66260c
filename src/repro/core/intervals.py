"""Interval machinery shared by provenance analysis and the IO planners.

A conversion or sliced load is, at its core, interval arithmetic over
each parameter's *consolidated* (padded logical) flat element space.
This module is the one owner of the shard -> consolidated map every
planner composes:

* :func:`shard_runs` — the symbolic shard -> consolidated map of one TP
  rank as maximal contiguous runs, a read-only columnar
  ``(shard_start, full_start, length)`` int64 table obtained by
  executing the parameter's *real* fragmenter over an ``arange`` index
  tensor.  Because the map comes from the executable sharding code,
  plans lowered from it cannot drift from what ``union``/``Load``
  actually do.  The fragmenter is executed **once per shape class** —
  the value ``(fragmenter, logical shape, degree, rank)`` — not once per
  parameter: every layer of a transformer shares its classes, and a
  process that converts and then loads shares them across the two.
* :func:`data_intervals` / :func:`data_bounds` — the consolidated
  sub-intervals holding real (non-padding) data; their complement is
  structural padding, which plans never read and loads fill with zeros.
* :func:`atom_rows` — runs composed with the data intervals into the
  loader's shard -> atom-file rows, again once per class.
* :func:`intersect_tilings` — the one interval-intersection kernel
  (two ``searchsorted`` + one repeat/arange expansion) behind the
  provenance composition, the read-plan lowering and the loader rows.
* :func:`merge_intervals` / :func:`subtract_intervals` — sorted
  disjoint-interval set algebra.

The tables live in one module-level memo bounded by
:data:`MEMO_MAX_BYTES` of index columns (least recently used classes
leave first; a table larger than the bound is built, served and not
kept).  Keys are values, so two equal specs built separately share one
table and nothing keyed by a parameter *name* can go stale; tables are
read-only, so sharing them between threads and callers is safe.
"""

from __future__ import annotations

import collections
import threading
from typing import Callable, Hashable, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.parallel.tp import PATTERN_FRAGMENT, ShardSpec

MEMO_MAX_BYTES = 64 << 20
"""Most bytes of int64 index columns the shape-class memo retains.  A
fixed constant, not an option: one class of the largest benchmark model
is tens of kilobytes, one of a 12k-hidden model a few hundred."""


def numel(shape: Sequence[int]) -> int:
    """Element count of a shape."""
    n = 1
    for d in shape:
        n *= int(d)
    return n


class ShardRuns(NamedTuple):
    """Columnar shard -> consolidated map: maximal contiguous runs.

    Row ``i`` says shard flat elements ``[shard_start[i], shard_start[i]
    + length[i])`` are consolidated flat elements starting at
    ``full_start[i]``.  Rows are sorted by ``shard_start`` and tile the
    shard exactly.
    """

    shard_start: np.ndarray
    full_start: np.ndarray
    length: np.ndarray


class AtomRows(NamedTuple):
    """Columnar shard -> atom-file map: ``[shard_lo[i], shard_hi[i])``
    are atom file elements starting at ``atom_lo[i]``; shard positions
    no row covers are structural padding.  Sorted and disjoint in shard
    space."""

    shard_lo: np.ndarray
    shard_hi: np.ndarray
    atom_lo: np.ndarray


class _TableMemo:
    """Bounded least-recently-used memo of read-only index tables."""

    def __init__(self) -> None:
        self._lock = threading.Lock()  # leaf lock: held over dict ops only
        # key -> tuple of read-only columns, least recently used first
        self._tables = collections.OrderedDict()  # guarded-by: self._lock
        self._nbytes = 0  # guarded-by: self._lock

    def get(
        self, key: Hashable, build: Callable[[], Tuple[np.ndarray, ...]]
    ) -> Tuple[np.ndarray, ...]:
        """The table under ``key``, built (outside the lock) if absent.

        Racing builders of one key produce equal tables; the first one
        stored is kept and each caller is served its own.
        """
        with self._lock:
            table = self._tables.get(key)
            if table is not None:
                self._tables.move_to_end(key)
                return table
        table = build()
        for column in table:
            column.flags.writeable = False
        nbytes = sum(column.nbytes for column in table)
        if nbytes <= MEMO_MAX_BYTES:
            with self._lock:
                if key not in self._tables:
                    self._tables[key] = table
                    self._nbytes += nbytes
                    while self._nbytes > MEMO_MAX_BYTES:
                        _, evicted = self._tables.popitem(last=False)
                        self._nbytes -= sum(c.nbytes for c in evicted)
        return table

    def clear(self) -> None:
        with self._lock:
            self._tables.clear()
            self._nbytes = 0


_MEMO = _TableMemo()


def clear_memo() -> None:
    """Forget every memoised table (tests and cold-start measurements)."""
    _MEMO.clear()


def is_identity_map(spec: ShardSpec, degree: int) -> bool:
    """Whether every rank's shard *is* the consolidated tensor (not
    ``fragment_params``, or degree 1 — every parameter of a tp1 source)."""
    return spec.pattern != PATTERN_FRAGMENT or degree == 1


def _int_tuple(shape: Sequence[int]) -> Tuple[int, ...]:
    """A shape as a hashable value (specs may carry lists)."""
    return tuple(int(d) for d in shape)


def _class_key(spec: ShardSpec, degree: int, rank: int) -> Tuple:
    """The value a shard map depends on — never the parameter's name.
    Identity maps collapse to one key per shape."""
    shape = _int_tuple(spec.logical_shape)
    if is_identity_map(spec, degree):
        return (None, shape, 1, 0)
    return (spec.fragmenter, shape, int(degree), int(rank))


def _execute_fragmenter(fragmenter, shape, degree: int, rank: int) -> ShardRuns:
    """Run the real fragmenter over an ``arange`` (memory-only; no disk
    IO) and collapse the result to maximal contiguous runs — the one
    place the index tensor is materialised."""
    total = numel(shape)
    if fragmenter is None:
        zero = np.zeros(1, dtype=np.int64)
        return ShardRuns(zero, zero.copy(), np.full(1, total, dtype=np.int64))
    idx = np.arange(total, dtype=np.int64).reshape(shape)
    flat = np.ascontiguousarray(fragmenter.shard(idx, degree, rank)).reshape(-1)
    if flat.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return ShardRuns(empty, empty.copy(), empty.copy())
    starts = np.concatenate(([0], np.flatnonzero(np.diff(flat) != 1) + 1))
    return ShardRuns(starts, flat[starts], np.diff(starts, append=flat.size))


def shard_runs(spec: ShardSpec, degree: int, rank: int) -> ShardRuns:
    """The symbolic shard -> consolidated element map, as interval runs.

    Exactly faithful to the executable sharding semantics — including
    fused-section and expert layouts whose maps are not expressible as a
    single affine stride — and memoised per shape class, so downstream
    composition works purely on shared read-only interval columns.
    """
    key = _class_key(spec, degree, rank)
    return _MEMO.get(("runs",) + key, lambda: _execute_fragmenter(*key))


def _padded_data_intervals(spec: ShardSpec) -> List[Tuple[int, int]]:
    """The hyper-rectangle ``unpadded_shape`` inside ``logical_shape`` as
    sorted, merged flat intervals."""
    shape = _int_tuple(spec.logical_shape)
    up = _int_tuple(spec.unpadded_shape)
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


def data_bounds(spec: ShardSpec) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`data_intervals` as read-only ``(d_lo, d_hi)`` int64 columns,
    memoised per ``(logical shape, unpadded shape)``."""

    def build() -> Tuple[np.ndarray, np.ndarray]:
        if spec.has_padding:
            data = _padded_data_intervals(spec)
        else:
            data = [(0, numel(spec.logical_shape))]
        return (
            np.fromiter((d[0] for d in data), np.int64, len(data)),
            np.fromiter((d[1] for d in data), np.int64, len(data)),
        )

    key = ("data", _int_tuple(spec.logical_shape), _int_tuple(spec.unpadded_shape))
    return _MEMO.get(key, build)


def data_intervals(spec: ShardSpec) -> List[Tuple[int, int]]:
    """Consolidated flat intervals holding real (non-padding) data.

    Structural padding (e.g. vocab rows added for TP divisibility) is
    the complement: it exists in source shards but must be stripped by
    the conversion, never copied into target data bytes.
    """
    if not spec.has_padding:
        return [(0, numel(spec.logical_shape))]
    d_lo, d_hi = data_bounds(spec)
    return list(zip(d_lo.tolist(), d_hi.tolist()))


def intersect_tilings(
    q_lo: np.ndarray, q_hi: np.ndarray, t_lo: np.ndarray, t_hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every non-empty intersection of query intervals with a tiling.

    ``[t_lo, t_hi)`` must be sorted and disjoint; the queries
    ``[q_lo, q_hi)`` may be anything.  Two ``searchsorted`` calls locate
    each query's window of overlapping tiles and one repeat/arange
    expansion materialises every (query x tile) intersection at once —
    no per-interval Python loop however fragmented the layout is.
    Returns ``(q, t, lo, hi)``: row ``k`` is ``[lo[k], hi[k])``, the part
    of query ``q[k]`` inside tile ``t[k]``; rows are ordered by query,
    then by tile.
    """
    # query k overlaps exactly the tiles [i0, i1): t_hi > q_lo, t_lo < q_hi
    i0 = np.searchsorted(t_hi, q_lo, side="right")
    i1 = np.searchsorted(t_lo, q_hi, side="left")
    counts = np.maximum(i1 - i0, 0)
    total = int(counts.sum())
    q = np.repeat(np.arange(q_lo.size), counts)
    first = np.cumsum(counts) - counts
    t = np.repeat(i0 - first, counts) + np.arange(total)
    lo = np.maximum(q_lo[q], t_lo[t])
    hi = np.minimum(q_hi[q], t_hi[t])
    keep = hi > lo
    if not keep.all():
        q, t, lo, hi = q[keep], t[keep], lo[keep], hi[keep]
    return q, t, lo, hi


def atom_rows(spec: ShardSpec, degree: int, rank: int) -> AtomRows:
    """Shard -> atom-file element map of one shape class.

    Composes the run table with the non-padding data intervals, whose
    concatenation *is* the atom file — the same two maps the provenance
    theorems are proven over.  Memoised per class (plus the unpadded
    shape, which the data intervals depend on), so identical layers
    lower once.
    """

    def build() -> AtomRows:
        runs = shard_runs(spec, degree, rank)
        d_lo, d_hi = data_bounds(spec)
        d_atom = np.cumsum(d_hi - d_lo) - (d_hi - d_lo)
        run, ivl, lo, hi = intersect_tilings(
            runs.full_start, runs.full_start + runs.length, d_lo, d_hi
        )
        shard_lo = runs.shard_start[run] + (lo - runs.full_start[run])
        return AtomRows(
            shard_lo, shard_lo + (hi - lo), d_atom[ivl] + (lo - d_lo[ivl])
        )

    key = _class_key(spec, degree, rank) + (_int_tuple(spec.unpadded_shape),)
    return _MEMO.get(("rows",) + key, build)


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
