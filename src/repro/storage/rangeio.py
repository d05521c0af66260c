"""Byte-range IO: windowed ``pread`` reads with a shared block cache.

The conversion and load pipelines never need whole rank files — the
provenance interval maps (:mod:`repro.analysis.provenance`) prove
exactly which byte ranges of which files feed each target atom or
partition slice.  This module supplies the IO layer those plans lower
onto:

* :class:`BlockCache` — a bounded, shared, LRU cache of byte blocks
  keyed ``(file, offset, len)``.  Blocks for one file are kept
  disjoint, so any byte is cached at most once.
* :class:`RangeReader` — ``pread``-style windowed reads over an
  :class:`~repro.storage.store.ObjectStore`.  Requested ranges are
  served from cached blocks where possible; the uncached gaps are
  coalesced (adjacent ranges merge; ``coalesce_gap`` optionally merges
  near-adjacent ones) and fetched with at most ``window_bytes`` per
  disk read, so in-flight buffers stay bounded no matter how large a
  plan's extents are.
* :meth:`RangeReader.digest` — streaming SHA-256 in window-sized
  chunks; the chunks land in the shared cache, so a digest
  verification pass *pre-warms* the very blocks the extract phase
  reads next instead of doubling the IO.

Thread-safety and lock discipline: the cache is internally locked —
one :class:`BlockCache` may be shared by several readers and worker
pools — and every container it owns carries a ``# guarded-by:``
annotation enforced by ``repro lint-src`` (SRC005-SRC008).  Each
reader additionally serializes its disk reads under its own lock
(the ``ObjectStore`` byte accounting is not thread-safe); that lock is
declared ``blocking_ok`` because holding it across the read *is* the
serialization.  Fully-cached requests bypass the IO lock entirely —
they assemble from an atomic coverage snapshot, updating their
counters under a leaf stats lock — so concurrent cache hits never
queue behind a cold miss's disk read.  All locks are
:func:`repro.analysis.lockwitness.make_lock` wrappers, so under
``REPRO_LOCKCHECK=1`` the runtime witness sees every acquisition; when
the witness is off the wrappers cost one list check over a plain lock.
Readers always acquire reader-lock before cache-lock or stats-lock
(reader methods call cache methods, never the reverse; the stats lock
is a leaf), which keeps the runtime lock-order graph acyclic.
"""

from __future__ import annotations

import bisect
import collections
import hashlib
import time
from typing import Dict, List, Optional, Tuple

from repro.analysis import lockwitness as _lockwitness
from repro.analysis import schedpoint as _schedpoint
from repro.storage.store import ObjectStore

DEFAULT_WINDOW_BYTES = 1 << 20
"""Default maximum bytes per disk read (and per cached block)."""

DEFAULT_CACHE_BYTES = 64 << 20
"""Default shared block-cache bound."""

_INF = float("inf")

_NEVER_RESIDENT = object()
"""Memo sentinel: this file can never be one cached block (too large)."""


def _overlaps(spans: List[Tuple[int, int]], start: int, end: int) -> bool:
    """Whether ``[start, end)`` intersects any span of a sorted list."""
    i = bisect.bisect_right(spans, (start, _INF)) - 1
    if i >= 0 and spans[i][1] > start:
        return True
    return i + 1 < len(spans) and spans[i + 1][0] < end


class BlockCache:
    """Bounded LRU cache of disjoint byte blocks, keyed ``(file, offset, len)``.

    ``max_bytes`` bounds the total cached payload; insertion evicts
    least-recently-used blocks until the new block fits.  Blocks of one
    file never overlap — :meth:`put` drops a block that intersects an
    already-cached span (two threads that raced to fetch the same gap
    both succeed; the loser's bytes are simply not cached) — so lookups
    can binary-search a sorted per-file span list.

    All mutation happens under ``self._lock``; the ``*_locked`` helpers
    carry ``# holds:`` annotations and double as the runtime witness's
    UCP030 accessor hooks.
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_bytes = max_bytes
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self._lock = _lockwitness.make_lock("BlockCache._lock")
        self._blocks: Dict[Tuple[str, int, int], bytes] = {}  # guarded-by: self._lock
        # per-file sorted, disjoint [(start, end)] spans mirroring _blocks
        self._spans: Dict[str, List[Tuple[int, int]]] = {}  # guarded-by: self._lock
        # LRU order over _blocks keys, least recent first
        self._lru: collections.OrderedDict = collections.OrderedDict()  # guarded-by: self._lock

    def _check_guarded(self, write: bool = False) -> None:
        """UCP030 hook: every ``*_locked`` helper reports its access.

        ``write`` marks the mutations that can change which bytes a
        reader observes (put/evict/clear).  LRU touches and hit
        counters mutate too, but cannot alter any returned byte, so
        they report as reads: the interleaving explorer uses this flag
        as its dependency relation, and classifying unobservable
        mutations as writes would only multiply equivalent schedules.
        """
        ctl = _schedpoint._CONTROLLER
        if ctl is not None:
            ctl.on_access("BlockCache._blocks", write)
        witness = _lockwitness.current()
        if witness is not None:
            witness.check_guarded(self._lock, "BlockCache._blocks")

    def __len__(self) -> int:
        with self._lock:
            self._check_guarded()
            return len(self._blocks)

    def spans(self, rel: str) -> List[Tuple[int, int]]:
        """Sorted disjoint cached ``(start, end)`` spans of one file."""
        with self._lock:
            self._check_guarded()
            return list(self._spans.get(rel, ()))

    def get(self, rel: str, start: int, end: int) -> Optional[bytes]:
        """The cached block exactly spanning ``[start, end)``, LRU-touched."""
        with self._lock:
            return self._get_locked(rel, start, end)

    def _get_locked(self, rel: str, start: int, end: int) -> Optional[bytes]:  # holds: self._lock
        self._check_guarded()
        key = (rel, start, end - start)
        data = self._blocks.get(key)
        if data is not None:
            self._lru.move_to_end(key)
        return data

    def coverage(
        self, rel: str, start: int, end: int
    ) -> List[Tuple[int, int, bytes]]:
        """Cached blocks overlapping ``[start, end)``, as one atomic snapshot.

        Returns sorted ``(block_start, block_end, data)`` triples and
        LRU-touches each.  Because the caller holds direct references to
        the (immutable) block payloads, a concurrent eviction cannot
        invalidate the snapshot — the reader assembles from it without
        re-entering the cache.
        """
        with self._lock:
            self._check_guarded()
            spans = self._spans.get(rel)
            if not spans:
                return []
            out: List[Tuple[int, int, bytes]] = []
            i = max(0, bisect.bisect_right(spans, (start, _INF)) - 1)
            while i < len(spans):
                s, e = spans[i]
                if s >= end:
                    break
                if e > start:
                    key = (rel, s, e - s)
                    self._lru.move_to_end(key)
                    out.append((s, e, self._blocks[key]))
                i += 1
            return out

    def put(self, rel: str, start: int, data: bytes) -> None:
        """Insert one block unless it overlaps an already-cached span.

        The block is stored as immutable ``bytes`` whatever buffer type
        the caller hands in, so every view served out of the cache is
        read-only — a reader cannot poison bytes other readers will
        treat as digest-verified.
        """
        if not data:
            return
        if not isinstance(data, bytes):
            data = bytes(data)
        with self._lock:
            self._put_locked(rel, start, data)

    def put_many(self, rel: str, blocks: List[Tuple[int, bytes]]) -> None:
        """Insert several ``(start, data)`` blocks of one file at once.

        One lock acquisition covers the whole batch, so a windowed fetch
        that lands N blocks pays the cache bookkeeping once instead of N
        times.  Each block follows :meth:`put` semantics individually
        (overlapping or oversized blocks are declined, the rest land).
        """
        items = [
            (start, data if isinstance(data, bytes) else bytes(data))
            for start, data in blocks
            if data
        ]
        if not items:
            return
        with self._lock:
            for start, data in items:
                self._put_locked(rel, start, data)

    def _put_locked(self, rel: str, start: int, data: bytes) -> None:  # holds: self._lock
        self._check_guarded(write=True)
        if len(data) > self.max_bytes:
            return  # a block larger than the whole budget is never cached
        end = start + len(data)
        spans = self._spans.setdefault(rel, [])
        if _overlaps(spans, start, end):
            return  # a concurrent fetch already cached (part of) this range
        while self.current_bytes + len(data) > self.max_bytes:
            self._evict_one_locked()
        self._blocks[(rel, start, len(data))] = data
        self._lru[(rel, start, len(data))] = None
        self.current_bytes += len(data)
        # _evict_one_locked may have dropped the file's last span list
        spans = self._spans.setdefault(rel, spans)
        bisect.insort(spans, (start, end))

    def _evict_one_locked(self) -> None:  # holds: self._lock
        self._check_guarded(write=True)
        key, _ = self._lru.popitem(last=False)
        rel, start, length = key
        data = self._blocks.pop(key)
        self.current_bytes -= len(data)
        spans = self._spans[rel]
        del spans[bisect.bisect_left(spans, (start, start + length))]
        if not spans:
            del self._spans[rel]

    def record_lookup(self, hit: bool) -> None:
        """Count one logical lookup (readers report hit/miss through this)."""
        with self._lock:
            self._check_guarded()
            if hit:
                self.hits += 1
            else:
                self.misses += 1

    def record_lookups(self, hits: int, misses: int) -> None:
        """Count a batch of logical lookups under one lock acquisition."""
        if hits == 0 and misses == 0:
            return
        with self._lock:
            self._check_guarded()
            self.hits += hits
            self.misses += misses

    def clear(self) -> None:
        """Drop every cached block (counters are kept)."""
        with self._lock:
            self._check_guarded(write=True)
            self._blocks.clear()
            self._spans.clear()
            self._lru.clear()
            self.current_bytes = 0


def _uncovered(
    covered: List[Tuple[int, int, bytes]], start: int, end: int
) -> List[Tuple[int, int]]:
    """Sub-ranges of ``[start, end)`` not covered by a sorted block list."""
    gaps: List[Tuple[int, int]] = []
    cursor = start
    for s, e, _ in covered:
        if e <= cursor:
            continue
        if s >= end:
            break
        if s > cursor:
            gaps.append((cursor, s))
        cursor = max(cursor, e)
        if cursor >= end:
            break
    if cursor < end:
        gaps.append((cursor, end))
    return gaps


class RangeReader:
    """Windowed, cached, coalescing byte-range reads over an object store.

    Args:
        store: the backing :class:`ObjectStore`; its byte/simulated-time
            accounting sees exactly the bytes this reader pulls from
            disk (cache hits are free).
        cache: optional shared :class:`BlockCache` (one is created
            otherwise).
        window_bytes: maximum bytes per disk read; large coalesced
            spans are split at this granularity, bounding in-flight
            buffer memory.
        coalesce_gap: two requested ranges separated by at most this
            many unneeded bytes are fetched as one read (the gap bytes
            are cached too).  ``0`` coalesces only exactly-adjacent
            ranges.
        parallel: queue depth passed to the store's simulated-NVMe cost
            model.
    """

    def __init__(
        self,
        store: ObjectStore,
        cache: Optional[BlockCache] = None,
        window_bytes: int = DEFAULT_WINDOW_BYTES,
        coalesce_gap: int = 0,
        parallel: int = 1,
    ) -> None:
        if window_bytes < 1:
            raise ValueError(f"window_bytes must be >= 1, got {window_bytes}")
        if coalesce_gap < 0:
            raise ValueError(f"coalesce_gap must be >= 0, got {coalesce_gap}")
        self.store = store
        self.cache = cache if cache is not None else BlockCache()
        self.window_bytes = window_bytes
        self.coalesce_gap = coalesce_gap
        self.parallel = parallel
        self.bytes_read = 0
        self.read_ops = 0
        self.num_batches = 0
        self.ranges_coalesced = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.peak_window_bytes = 0
        self.fetch_seconds = 0.0
        # serializes this reader's disk IO; holding it across the read
        # is the point, hence blocking_ok (UCP031 stays quiet for it).
        # Fully-cached requests never take it: they assemble straight
        # from a coverage snapshot, so concurrent cache hits don't
        # serialize behind a cold miss's disk read.
        self._io_lock = _lockwitness.make_lock(
            "RangeReader._io_lock", blocking_ok=True
        )
        # leaf lock for the counters above, which the lock-free cache-hit
        # path also updates; ordering is io_lock -> stats_lock, never the
        # reverse, so the witness order graph stays acyclic
        self._stats_lock = _lockwitness.make_lock("RangeReader._stats_lock")
        self._sizes: Dict[str, int] = {}  # guarded-by: self._io_lock
        # lock-free memo of (size, whole-file view) pairs (see
        # _resident_view); values are read-only views over immutable
        # bytes, so the unsynchronized get/set race is benign — both
        # racing writers store an equivalent pair.  Files that can never
        # resolve to one block memoize _NEVER_RESIDENT so later calls
        # skip the size() lookup (and its _io_lock hop) entirely.
        self._resident: Dict[str, object] = {}

    # --- helpers -----------------------------------------------------

    @property
    def num_preads(self) -> int:
        """Positioned reads issued against the store (alias of read_ops).

        Each windowed block inside a batched :meth:`ObjectStore
        .read_ranges` call is one seek+read — one ``pread`` on a real
        file — so this is the syscall-shaped counter the benchmarks and
        the CLI report.
        """
        return self.read_ops

    def _count(
        self,
        *,
        hits: int = 0,
        misses: int = 0,
        coalesced: int = 0,
    ) -> None:
        """Update logical-lookup counters (safe from the lock-free path)."""
        with self._stats_lock:
            self.cache_hits += hits
            self.cache_misses += misses
            self.ranges_coalesced += coalesced
        self.cache.record_lookups(hits, misses)

    def _coalesce(
        self, ranges: List[Tuple[int, int]]
    ) -> List[Tuple[int, int]]:
        """Merge requested ``(offset, length)`` ranges into fetch spans.

        Ranges are sorted into sequential file order first, so the fetch
        plan always walks the file forward; near-adjacent ranges (gap <=
        ``coalesce_gap``) and overlapping ranges merge into one span.
        """
        wanted = sorted((o, o + n) for o, n in ranges if n > 0)
        spans: List[Tuple[int, int]] = []
        for s, e in wanted:
            if spans and s <= spans[-1][1] + self.coalesce_gap:
                spans[-1] = (spans[-1][0], max(spans[-1][1], e))
            else:
                spans.append((s, e))
        return spans

    def size(self, rel: str) -> int:
        """Cached on-disk size of one object."""
        with self._io_lock:
            return self._size_locked(rel)

    def _size_locked(self, rel: str) -> int:  # holds: self._io_lock
        size = self._sizes.get(rel)
        if size is None:
            size = self.store.size(rel)
            self._sizes[rel] = size
        return size

    def _resident_view(self, rel: str) -> Optional[Tuple[int, memoryview]]:
        """``(size, view)`` over the whole file if one cached block holds it.

        Small files (at most one read window) land in the cache as a
        single block during the digest pre-warm pass; every later range
        request against them reduces to slicing one read-only view.  The
        resolved view is memoized, which pins the block's payload for
        this reader's lifetime — a later cache eviction frees the cache
        budget but not the bytes, which is exactly the pin the extract
        phase wants for files it is still scattering from.
        """
        memo = self._resident.get(rel)
        if memo is not None:
            return memo if memo is not _NEVER_RESIDENT else None
        size = self.size(rel)
        if size == 0 or size > self.window_bytes:
            # Blocks are at most one read window, so a bigger file can
            # never be served from a single cached block — remember that
            # so later calls don't re-pay the size lookup and probe.
            self._resident[rel] = _NEVER_RESIDENT
            return None
        data = self.cache.get(rel, 0, size)
        if data is None:
            return None
        memo = (size, memoryview(data).toreadonly())
        self._resident[rel] = memo
        return memo

    def _fetch_locked(  # holds: self._io_lock
        self, rel: str, gaps: List[Tuple[int, int]]
    ) -> List[Tuple[int, int, bytes]]:
        """Read uncached gaps from disk in window-sized blocks.

        All blocks go through one batched :meth:`ObjectStore.read_ranges`
        call — one file open no matter how fragmented the plan is.  Each
        block is offered to the cache (which may decline overlapping or
        oversized ones) and returned directly, so assembly never depends
        on what the cache retained.
        """
        blocks: List[Tuple[int, int]] = []
        for start, end in sorted(gaps):
            cursor = start
            while cursor < end:
                step = min(self.window_bytes, end - cursor)
                blocks.append((cursor, step))
                cursor += step
        if not blocks:
            return []
        witness = _lockwitness.current()
        io_before = getattr(self.store, "simulated_read_s", 0.0)
        wall_before = time.perf_counter()
        # deliberate: this reader's lock exists to serialize disk reads
        payloads = self.store.read_ranges(  # srclint: disable=SRC007
            rel, blocks, parallel=self.parallel
        )
        if witness is not None:
            # a cold-cache miss legitimately holds the reader lock for
            # one windowed read, so it stays under the UCP031 budget
            # model (unlike fsync, which fires unconditionally)
            witness.note_blocking(
                f"read_ranges({rel}, {len(blocks)} blocks)",
                getattr(self.store, "simulated_read_s", 0.0) - io_before,
                kind="cache-miss",
            )
        fresh: List[Tuple[int, int, bytes]] = []
        nbytes = 0
        for (start, step), data in zip(blocks, payloads):
            nbytes += step
            self.peak_window_bytes = max(self.peak_window_bytes, step)
            if not isinstance(data, bytes):
                data = bytes(data)
            fresh.append((start, start + step, data))
        # one cache-lock acquisition for the whole batch
        self.cache.put_many(rel, [(s, d) for s, _, d in fresh])
        with self._stats_lock:
            self.bytes_read += nbytes
            self.read_ops += len(blocks)
            self.num_batches += 1
            self.fetch_seconds += time.perf_counter() - wall_before
        return fresh

    @staticmethod
    def _assemble(
        rel: str,
        offset: int,
        length: int,
        blocks: List[Tuple[int, int, bytes]],
    ) -> memoryview:
        """Build the requested bytes from a sorted disjoint block list.

        ``blocks`` mixes the cache-coverage snapshot with freshly read
        blocks; the caller holds references to every payload, so no
        concurrent eviction can invalidate them.  The cursor only moves
        forward, so after a bisect to the first candidate a single scan
        suffices.
        """
        end = offset + length
        cursor = offset
        pieces: List[Tuple[int, bytes, int, int]] = []
        i = max(0, bisect.bisect_right(blocks, (cursor, _INF)) - 1)
        while cursor < end:
            while i < len(blocks) and blocks[i][1] <= cursor:
                i += 1
            if i >= len(blocks) or blocks[i][0] > cursor:
                raise RuntimeError(
                    f"{rel}: bytes at offset {cursor} unavailable after fetch"
                )
            s, e, data = blocks[i]
            hi = min(e, end)
            pieces.append((cursor, data, cursor - s, hi - s))
            cursor = hi
        if len(pieces) == 1:
            lo, block, b_lo, b_hi = pieces[0]
            # zero-copy fast path; toreadonly() guarantees the cache's
            # bytes cannot be poisoned even if a block type regresses
            return memoryview(block)[b_lo:b_hi].toreadonly()
        # multi-piece: one gather into a scratch buffer, returned as a
        # read-only view directly over it — no trailing bytes() copy
        out = bytearray(length)
        for lo, block, b_lo, b_hi in pieces:
            out[lo - offset : lo - offset + (b_hi - b_lo)] = block[b_lo:b_hi]
        return memoryview(out).toreadonly()

    # --- public API --------------------------------------------------

    def read(self, rel: str, offset: int, length: int) -> memoryview:
        """Bytes ``[offset, offset + length)`` of one object.

        Cached spans are served without disk IO; uncached gaps are
        fetched in at most ``window_bytes``-sized reads.  When one
        cached block covers the whole range the returned memoryview is
        zero-copy into the cache.
        """
        return self.read_multi(rel, [(offset, length)])[0]

    def read_multi(
        self, rel: str, ranges: List[Tuple[int, int]]
    ) -> List[memoryview]:
        """Read several ``(offset, length)`` ranges of one object at once.

        Near-adjacent ranges (gap <= ``coalesce_gap``) are fetched with
        one disk read; each requested range still comes back as its own
        buffer, in input order.  A request fully covered by the cache is
        assembled straight from a coverage snapshot without touching the
        IO lock, so concurrent hits never wait behind a disk read.
        """
        if not ranges:
            return []
        for offset, length in ranges:
            if offset < 0 or length < 0:
                raise ValueError(f"invalid range ({offset}, {length})")
        resident = self._resident_view(rel)
        if resident is not None:
            size, view = resident
            if all(offset + length <= size for offset, length in ranges):
                out = [
                    view[offset : offset + length]
                    if length > 0 else memoryview(b"")
                    for offset, length in ranges
                ]
                self._count(hits=sum(1 for _, n in ranges if n > 0))
                return out
        spans = self._coalesce(ranges)
        n_wanted = sum(1 for _, n in ranges if n > 0)
        served = self._try_cached(rel, ranges, spans, n_wanted)
        if served is not None:
            return served
        with self._io_lock:
            return self._read_multi_locked(rel, ranges, spans, n_wanted)

    def _try_cached(
        self,
        rel: str,
        ranges: List[Tuple[int, int]],
        spans: List[Tuple[int, int]],
        n_wanted: int,
    ) -> Optional[List[memoryview]]:
        """Serve a fully-cached request without the IO lock, else None.

        The coverage snapshot holds direct references to the immutable
        block payloads, so a concurrent eviction between snapshot and
        assembly cannot invalidate the result.  Any gap at all falls
        back to the locked path (which re-snapshots under the lock).
        """
        blocks: List[Tuple[int, int, bytes]] = []
        for s, e in spans:
            cov = self.cache.coverage(rel, s, e)
            if _uncovered(cov, s, e):
                return None
            blocks.extend(cov)
        covered: Dict[Tuple[int, int], bytes] = {
            (s, e): data for s, e, data in blocks
        }
        sorted_blocks = sorted(
            (s, e, data) for (s, e), data in covered.items()
        )
        out = [
            self._assemble(rel, offset, length, sorted_blocks)
            if length > 0 else memoryview(b"")
            for offset, length in ranges
        ]
        self._count(
            hits=len(spans), coalesced=n_wanted - len(spans)
        )
        return out

    def _read_multi_locked(  # holds: self._io_lock
        self,
        rel: str,
        ranges: List[Tuple[int, int]],
        spans: List[Tuple[int, int]],
        n_wanted: int,
    ) -> List[memoryview]:
        # one coverage snapshot per span; a cached block straddling two
        # spans would appear twice, hence the keyed dedup
        covered: Dict[Tuple[int, int], bytes] = {}
        all_gaps: List[Tuple[int, int]] = []
        hits = misses = 0
        for s, e in spans:
            cov = self.cache.coverage(rel, s, e)
            gaps = _uncovered(cov, s, e)
            if sum(b_e - b_s for b_s, b_e, _ in cov) > 0:
                hits += 1
            if gaps:
                misses += 1
            for b_s, b_e, data in cov:
                covered[(b_s, b_e)] = data
            all_gaps.extend(gaps)
        self._count(
            hits=hits, misses=misses, coalesced=n_wanted - len(spans)
        )
        fresh = self._fetch_locked(rel, all_gaps)
        blocks = sorted(
            [(s, e, data) for (s, e), data in covered.items()] + fresh
        )
        return [
            self._assemble(rel, offset, length, blocks)
            if length > 0 else memoryview(b"")
            for offset, length in ranges
        ]

    def digest(self, rel: str, chunk_bytes: Optional[int] = None) -> str:
        """Streaming SHA-256 of a whole object, in bounded chunks.

        Each chunk goes through :meth:`read`, so the verified blocks
        stay in the shared cache for the extract phase to reuse — the
        digest pass and the data pass together read each byte from disk
        once.  Chunks default to this reader's window so the cached
        blocks match the read granularity: a file no larger than one
        window lands as a single block, which the :meth:`read_multi`
        resident-view fast path then serves without any copies.
        """
        chunk = chunk_bytes or self.window_bytes
        size = self.size(rel)
        hasher = hashlib.sha256()
        cursor = 0
        while cursor < size:
            step = min(chunk, size - cursor)
            hasher.update(self.read(rel, cursor, step))
            cursor += step
        return hasher.hexdigest()
