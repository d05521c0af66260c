"""The conversion's source-file table: planned residency, verified loads.

The conversion plan knows, before the first payload byte is read, which
atoms consume which source files and in what order, so nothing here is
discovered at run time: plan -> one verified sequential read per file
-> slices -> release (the why is in ``docs/PERFORMANCE.md``).

* :class:`BlockCache` is the *source-file table*, built from the plan's
  consumer count per file.  A worker asks it for the next file of its
  atom (:meth:`BlockCache.claim_next`): a resident, verified one first,
  else one nobody is loading — the worker then loads it — and a peer's
  load is waited on only when every file left is in flight.  Everyone
  is served slices of the one buffer, and the file is dropped when its
  last planned consumer releases it.  No eviction, no re-read: the
  memory bound is the plan's own working set, reported as
  ``peak_resident_bytes``.
* The buffers come from a free list of at most ``buffers`` (a
  conversion keeps ``workers + 1``): a dropped file's buffer takes the
  next file loaded, so a conversion whose plan keeps its file groups
  apart maps and first-touches that many buffers, not one per file.
  A consumer reads its slices *before* it releases the file: after the
  release the bytes may be another file's.
* :class:`RangeReader` moves the bytes: a claimed file is read in store
  reads of at most :data:`WINDOW_AUTO_CAP_BYTES` straight into its
  buffer, hashed as it streams, and served only after ``verify``
  accepted it — no consumer can obtain a slice of a file whose digest
  has not matched.

Two locks, never nested: the table's ``_lock`` guards its containers
(the ``# guarded-by:`` comments say which; nothing checks them
statically); ``_check_guarded`` names each touch of a file's entry,
and each drop, as an ``access`` event on :mod:`repro.obs`, feeding the
schedule explorer when it listens — the free list's touches are not
named: which buffer a file lands in changes no byte served.  The
reader's ``_io_lock`` serializes store reads (``ObjectStore`` byte
accounting is not thread-safe), so it is held across each read:
holding it across the read *is* the serialization — hashing is
outside.
The names predate the design: ``benchmarks/e2e/trace.py`` patches them.
"""

from __future__ import annotations

import collections
import concurrent.futures
import hashlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.storage.store import ObjectStore

WINDOW_AUTO_CAP_BYTES = 64 << 20
"""Most bytes one store read call moves, here and in the UCP loader; a
larger file (or atom payload) is read in sequential windows this size."""


class BlockCache:
    """Which planned source files are resident, and until when.

    ``consumers`` maps each file the plan touches to the number of atoms
    that read it; ``buffers`` caps the free list of read buffers.
    ``misses`` counts loads, ``hits`` lookups served, ``allocations``
    the read buffers that had to be allocated rather than recycled.
    """

    def __init__(
        self, consumers: Dict[str, int], buffers: int = 1,
        last_use: Optional[Dict[str, int]] = None,
    ) -> None:
        self.hits = self.misses = self.allocations = 0
        self.resident_bytes = self.peak_resident_bytes = 0
        self.buffers = buffers
        self._last_use = dict(last_use or {})
        self._lock = obs.make_lock("BlockCache._lock")
        # planned consumers that have not released the file yet
        self._pending: Dict[str, int] = dict(consumers)  # guarded-by: self._lock
        # files by their last consumer's position; a prefix may be gone
        self._by_last = collections.deque(  # guarded-by: self._lock
            sorted(self._last_use, key=lambda rel: (self._last_use[rel], rel))
        )
        # resolved by the file's loader once its bytes are verified
        self._files: Dict[str, concurrent.futures.Future] = {}  # guarded-by: self._lock
        # resolved when the file is dropped, for claims deferred on it
        self._gone: Dict[str, concurrent.futures.Future] = {}  # guarded-by: self._lock
        # the bytes of each claimed file, verified or not (a read-only
        # view of a lent buffer: ``.obj`` is the buffer)
        self._views: Dict[str, memoryview] = {}  # guarded-by: self._lock
        # buffers no file holds, ready for the next load
        self._free: List[np.ndarray] = []  # guarded-by: self._lock

    def _check_guarded(
        self, rel: Optional[str], write: bool = False,
        resource: str = "BlockCache._files",
    ) -> None:
        """Guarded-access event (per file: entries are independent)."""
        if obs._ACTIVE:
            obs.emit("access", self._lock, resource, rel, write)

    def claim_next(
        self, rels: Sequence[str], position: Optional[int] = None
    ) -> Tuple[Optional[str], concurrent.futures.Future, bool]:
        """Which of ``rels`` — files the caller has yet to consume — to
        take next: ``(file, its future, whether the caller must load it)``.

        A loaded file first (its future is done: verified, or failed
        with its load's error); else the first one nobody has claimed,
        now the caller's to load; else the first one a peer is loading,
        to wait on.  The caller at ``position`` in the plan's order (with
        ``last_use``: each file's last consumer's position) claims only
        once every file that only earlier atoms still need has been
        dropped, so a file group is not loaded over the tail of the one
        before it; until then it gets ``(None, a future resolved when
        that file is dropped, False)``, and waits.  The earliest running
        atom never waits so: everything before it has finished.
        """
        with self._lock:
            unclaimed = in_flight = None
            for rel in rels:
                fut = self._files.get(rel)
                if fut is None:
                    if unclaimed is None:
                        unclaimed = rel
                    continue
                self._check_guarded(rel)
                if fut.done():
                    return rel, fut, False
                if in_flight is None:
                    in_flight = (rel, fut, False)
            if unclaimed is None:
                return in_flight
            before = self._held_for_earlier_locked(rels, position)
            if before is not None:
                if in_flight is not None:
                    return in_flight
                gone = self._gone.setdefault(before, concurrent.futures.Future())
                return None, gone, False
            self._check_guarded(unclaimed, write=True)
            if self._pending.get(unclaimed, 0) < 1:
                raise LookupError(f"{unclaimed}: no planned consumer is pending")
            fut = self._files[unclaimed] = concurrent.futures.Future()
            self.misses += 1
        return unclaimed, fut, True

    def _held_for_earlier_locked(
        self, rels: Sequence[str], position: Optional[int]
    ) -> Optional[str]:  # holds: self._lock
        """A file still pending that only atoms before ``position`` still
        need: last used at or before it, and not one of ``rels``."""
        while self._by_last and self._pending[self._by_last[0]] == 0:
            self._by_last.popleft()  # dropped: no answer depends on it
        if position is None:
            return None
        named = False
        for rel in self._by_last:
            if self._last_use[rel] > position:
                break
            if rel in rels:
                continue
            if not named:
                # the answer is which of these files were dropped
                self._check_guarded(None, resource="BlockCache._dropped")
                named = True
            if self._pending[rel] > 0:
                return rel
        return None

    def lend(self, rel: str, size: int) -> memoryview:
        """A writable ``size``-byte buffer for a claimed file's bytes: the
        smallest free one that holds them, else a new one.  The file is
        resident from here until it is dropped, when the buffer goes
        back to the free list."""
        with self._lock:
            sizes = [buf.size for buf in self._free]
            fits = [i for i, n in enumerate(sizes) if n >= size]
            if fits:
                buf = self._free.pop(min(fits, key=sizes.__getitem__))
            else:
                # np.empty maps pages without touching them: a buffer
                # costs only the bytes that land in it
                buf = np.empty(size, dtype=np.uint8)
                self.allocations += 1
            view = memoryview(buf)[:size]
            self._views[rel] = view.toreadonly()
            self.resident_bytes += size
            self.peak_resident_bytes = max(self.peak_resident_bytes, self.resident_bytes)
        return view

    def view(self, rel: str) -> memoryview:
        """The verified bytes of a loaded file; a failed load's error."""
        with self._lock:
            self._check_guarded(rel)
            fut, view = self._files.get(rel), self._views.get(rel)
            self.hits += 1
        if fut is None or not fut.done():
            raise LookupError(f"{rel}: not loaded (or already released)")
        fut.result()
        return view

    def release(self, rel: str) -> None:
        """One planned consumer is done; the last one drops the file."""
        with self._lock:
            self._check_guarded(rel, write=True)
            self._pending[rel] -= 1
            if self._pending[rel] == 0:
                self._drop_locked(rel)

    def _drop_locked(self, rel: str) -> None:  # holds: self._lock
        self._check_guarded(rel, write=True)
        self._check_guarded(None, write=True, resource="BlockCache._dropped")
        self._files.pop(rel, None)
        gone = self._gone.pop(rel, None)
        if gone is not None:
            gone.set_result(None)
        view = self._views.pop(rel, None)
        if view is None:
            return
        self.resident_bytes -= len(view)
        self._free.append(view.obj)
        if len(self._free) > self.buffers:
            # keep the largest: they hold any file a smaller one does
            sizes = [buf.size for buf in self._free]
            self._free.pop(sizes.index(min(sizes)))

    def clear(self) -> None:
        """Drop every file and free buffer (the conversion returned or
        failed)."""
        with self._lock:
            for rel in list(self._files):
                self._drop_locked(rel)
            for rel in list(self._gone):
                self._drop_locked(rel)
            self._free.clear()


class RangeReader:
    """Verified whole-file loads into the table, slices out of it.

    ``verify(reader, rel)`` runs once per load and must raise unless
    what :meth:`digest` streams is the committed object
    (:func:`repro.ckpt.manifest.verify_streaming` with its manifest
    entry).  ``read_ops`` counts store reads, ``num_batches`` the
    read calls carrying them (one each); ``ranges_coalesced`` stays 0 —
    a range request is a slice, nothing is left to merge.
    """

    def __init__(
        self, store: ObjectStore, cache: BlockCache,
        verify: Callable[["RangeReader", str], None],
    ) -> None:
        self.store = store
        self.cache = cache
        self.verify = verify
        self.read_ops = self.num_batches = 0
        self.ranges_coalesced = self.peak_window_bytes = 0
        self._io_lock = obs.make_lock("RangeReader._io_lock")

    def digest(self, rel: str) -> str:
        """Read a claimed file into a buffer the table lends; returns its
        SHA-256."""
        size = self.store.size(rel)
        view = self.cache.lend(rel, size)
        hasher = hashlib.sha256()
        for cursor in range(0, size, WINDOW_AUTO_CAP_BYTES):
            window = view[cursor:cursor + WINDOW_AUTO_CAP_BYTES]
            with self._io_lock:
                # deliberate: holding this lock across the read is the
                # serialization of store reads
                self.store.read_into(rel, cursor, window)
                self.read_ops += 1
                self.num_batches += 1
                self.peak_window_bytes = max(self.peak_window_bytes, len(window))
            hasher.update(window)
        return hasher.hexdigest()

    def next_ready(
        self, rels: Sequence[str], position: Optional[int] = None
    ) -> str:
        """The next of ``rels`` to consume, resident and verified.

        Takes a loaded file first, else loads one nobody is loading,
        and waits on a peer's load only when every file left is in
        flight (:meth:`BlockCache.claim_next`; ``position`` is the
        caller's place in the plan's order): a worker never blocks on a
        peer while it could be loading, nor holds a claim it has not
        started.  A failed load raises the same error in every consumer.
        """
        while True:
            rel, fut, mine = self.cache.claim_next(rels, position)
            if mine:
                try:
                    self.verify(self, rel)
                except BaseException as exc:
                    fut.set_exception(exc)
                    raise
                fut.set_result(None)
            elif obs._ACTIVE and not fut.done():
                # a yield point the schedule explorer sees
                what = "BlockCache.load" if rel is not None else "BlockCache.drop"
                obs.emit("wait", what, fut.done)
            fut.result()
            if rel is not None:
                return rel

    def read_multi(
        self, rel: str, ranges: Sequence[Tuple[int, int]]
    ) -> List[memoryview]:
        """Read-only ``(offset, length)`` slices of a loaded file, in input
        order (``ValueError`` for a negative range, ``EOFError`` past the end)."""
        view = self.cache.view(rel)
        for offset, length in ranges:
            if offset < 0 or length < 0:
                raise ValueError(f"invalid range ({offset}, {length})")
            if offset + length > len(view):
                raise EOFError(f"{rel}: range ({offset}, {length}) reads "
                               f"past end of file ({len(view)} bytes)")
        return [view[offset : offset + length] for offset, length in ranges]
