"""The conversion's source-file table: planned residency, verified loads.

The conversion plan knows, before the first payload byte is read, which
atoms consume which source files and in what order, so nothing here is
discovered at run time: plan -> one verified sequential read per file
-> slices -> planned release (the why is in ``docs/PERFORMANCE.md``).

* :class:`BlockCache` is the *source-file table*, built from the plan's
  consumer count per file.  The first consumer to claim a file loads
  it, peers wait on the loader's future, everyone is served slices of
  that one buffer, and it is dropped when its last planned consumer
  releases it.  No eviction, no re-read: the memory bound is the plan's
  own working set, reported as ``peak_resident_bytes``.
* :class:`RangeReader` moves the bytes: a claimed file is streamed in
  store reads of at most :data:`WINDOW_AUTO_CAP_BYTES`, hashed as it
  streams, and served only after ``verify`` accepted it — no consumer
  can obtain a slice of a file whose digest has not matched.

Two locks, never nested: the table's ``_lock`` guards its containers
(``# guarded-by:``; ``_check_guarded`` names each touch as an ``access``
event on :mod:`repro.obs`, feeding the schedule explorer when it
listens); the reader's ``_io_lock`` serializes store reads (``ObjectStore``
byte accounting is not thread-safe), so the read under it carries an
SRC007 suppression: holding it across the read *is* the serialization —
hashing is outside.
The names predate the design: ``benchmarks/e2e/trace.py`` patches them.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
from typing import Callable, Dict, List, Sequence, Tuple

from repro import obs
from repro.storage.store import ObjectStore

WINDOW_AUTO_CAP_BYTES = 64 << 20
"""Most bytes one store read call moves, here and in the UCP loader; a
larger file (or atom payload) is read in sequential windows this size."""


class BlockCache:
    """Which planned source files are resident, and until when.

    ``consumers`` maps each file the plan touches to the number of atoms
    that read it.  ``misses`` counts loads, ``hits`` lookups served.
    """

    def __init__(self, consumers: Dict[str, int]) -> None:
        self.hits = self.misses = 0
        self.resident_bytes = self.peak_resident_bytes = 0
        self._lock = obs.make_lock("BlockCache._lock")
        # planned consumers that have not released the file yet
        self._pending: Dict[str, int] = dict(consumers)  # guarded-by: self._lock
        # resolved by the file's loader once its bytes are verified
        self._files: Dict[str, concurrent.futures.Future] = {}  # guarded-by: self._lock
        # the bytes of each claimed file, verified or not
        self._views: Dict[str, memoryview] = {}  # guarded-by: self._lock

    def _check_guarded(self, rel: str, write: bool = False) -> None:
        """Guarded-access event (per file: entries are independent)."""
        if obs._ACTIVE:
            obs.emit("access", self._lock, "BlockCache._files", rel, write)

    def claim(self, rel: str) -> Tuple[concurrent.futures.Future, bool]:
        """The file's future, and whether the caller must load it."""
        with self._lock:
            self._check_guarded(rel, write=True)
            fut = self._files.get(rel)
            if fut is not None:
                return fut, False
            if self._pending.get(rel, 0) < 1:
                raise LookupError(f"{rel}: no planned consumer is pending")
            fut = self._files[rel] = concurrent.futures.Future()
            self.misses += 1
        return fut, True

    def fill(self, rel: str, view: memoryview) -> None:
        """Hold a claimed file's bytes (served once its future resolves)."""
        with self._lock:
            self._check_guarded(rel, write=True)
            self._views[rel] = view
            self.resident_bytes += len(view)
            self.peak_resident_bytes = max(self.peak_resident_bytes, self.resident_bytes)

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
        self._files.pop(rel, None)
        self.resident_bytes -= len(self._views.pop(rel, b""))

    def clear(self) -> None:
        """Drop every file (the conversion returned or failed)."""
        with self._lock:
            for rel in list(self._files):
                self._drop_locked(rel)


class RangeReader:
    """Verified whole-file loads into the table, slices out of it.

    ``verify(reader, rel)`` runs once per load and must raise unless
    what :meth:`digest` streams is the committed object
    (:func:`repro.ckpt.manifest.verify_streaming` with its manifest
    entry).  ``read_ops`` counts store reads, ``num_batches`` the
    ``read_ranges`` calls carrying them (one each); ``ranges_coalesced``
    stays 0 — a range request is a slice, nothing is left to merge.
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
        """Stream a claimed file into the table; returns its SHA-256."""
        size = self.store.size(rel)
        hasher = hashlib.sha256()
        chunks: List[bytes] = []
        for cursor in range(0, size, WINDOW_AUTO_CAP_BYTES):
            step = min(WINDOW_AUTO_CAP_BYTES, size - cursor)
            with self._io_lock:
                # deliberate: this lock exists to serialize store reads
                (chunk,) = self.store.read_ranges(  # srclint: disable=SRC007
                    rel, [(cursor, step)]
                )
                self.read_ops += 1
                self.num_batches += 1
                self.peak_window_bytes = max(self.peak_window_bytes, step)
            hasher.update(chunk)
            chunks.append(chunk)
        # a file within the cap (every benchmark file) is served from
        # the one buffer the store returned: no copy
        data = chunks[0] if len(chunks) == 1 else b"".join(chunks)
        self.cache.fill(rel, memoryview(data).toreadonly())
        return hasher.hexdigest()

    def load(self, rels: Sequence[str]) -> None:
        """Block until every file in ``rels`` is resident and verified.

        Claim one file, load it if the claim is ours, then claim the next;
        wait for peers' loads last: a worker never blocks on a peer's load
        while it could be loading itself, nor holds a claim it has not
        started.  A failed load raises the same error in every waiter.
        """
        futures = []
        for rel in rels:
            fut, mine = self.cache.claim(rel)
            if mine:
                try:
                    self.verify(self, rel)
                except BaseException as exc:
                    fut.set_exception(exc)
                    raise
                fut.set_result(None)
            futures.append(fut)
        for fut in futures:
            if obs._ACTIVE:  # a yield point the schedule explorer sees
                obs.emit("wait", "BlockCache.load", fut.done)
            fut.result()

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
