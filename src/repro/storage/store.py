"""Directory-backed object store with byte and simulated-time accounting.

All writes are *atomic commits* in two steps (:class:`CommitGroup`):
bytes are first *staged* into a ``*.tmp`` sibling, and a group of
staged files is then *published* together — every temp fsynced, every
temp renamed over its final name with ``os.replace`` (in staging
order), each distinct parent directory fsynced once.  A reader never
observes a torn object: it sees either the previous version or the new
one.  With ``durable`` (the default, controlled by ``REPRO_DURABLE``)
the fsyncs make the commit *power-loss safe*: no rename can become
durable ahead of the bytes it names, and once :meth:`CommitGroup.publish`
returns no rename of the group can be rolled back by a crash.
:meth:`ObjectStore.put_bytes` is the one-file group, so there is exactly
one commit implementation; callers that own several files which only
mean something together (an atom's three states and its sidecar) stage
them all and pay one publish — and may run that publish on another
thread, because nothing but the group's own temps is touched by it.
:class:`CommitPool` is that other thread for both writers (the saver's
rank files, the converter's atoms): the store's one write-behind
publisher, as wide as :func:`resolve_workers` says.

Every write, publish and read runs through the optional
:class:`~repro.storage.faults.FaultPolicy` hook (crash, rank-kill and
publish-failure injection).  Nothing is retried: an IO error, injected
or real, propagates to the caller.

Every file effect (write / fsync / rename / directory fsync / unlink)
is named as an ``fs_op`` event on the one hook slot (:mod:`repro.obs`);
whoever subscribed — the FS-op recorder feeding the crash-state
enumerator behind ``repro lint-trace``, the schedule explorer — is
not this module's business.  An fsync is named by the one helper that
makes the syscall (:meth:`ObjectStore._fsync`), so a recorded fsync is
always a real one.  This module is the only one in ``src/`` that
renames, replaces or fsyncs a file (a repo test holds it to that).
With nothing subscribed each hook is one truthiness check.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import os
import pathlib
import threading
import time
from typing import Any, List, Optional, Set, Tuple

from repro import obs
from repro.storage.faults import FaultPolicy, InjectedCrash
from repro.storage.nvme import DEFAULT_NVME
from repro.storage.serializer import (
    deserialize,
    read_npt_index,
    serialize,
)


def sha256_hex(*parts: Any) -> str:
    """Content digest used by checkpoint manifests: SHA-256 of the
    bytes ``parts`` join to, taken in one pass over the parts."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def _durable_default() -> bool:
    """Whether commits default to power-loss-safe (``REPRO_DURABLE``).

    Durability is on unless the environment explicitly opts out with
    ``REPRO_DURABLE=0`` — the off-switch exists for speed-sensitive
    test suites, where two extra fsyncs per object write dominate the
    runtime of tiny checkpoints.
    """
    return os.environ.get("REPRO_DURABLE", "1") != "0"


class CommitGroup:
    """Files staged as ``*.tmp`` siblings, then published together.

    The store's one commit implementation, split so the expensive half
    can be batched and moved off the writer's thread:

    * :meth:`stage` — write hook (:meth:`FaultPolicy.on_write`), then
      the bytes land in ``<name>.tmp``: page cache only, nothing visible
      or durable yet.  The bytes may come as parts (a header, pads,
      views of the arrays' own buffers, see
      :func:`~repro.storage.serializer.encode`), written in order: the
      write is the only copy they take.  The file is charged to the
      store's byte and simulated-time accounting here, one file at a
      time.
    * :meth:`publish` — fsync every staged temp back to back, rename
      them all in staging order (so a file staged last is visible only
      once everything before it is), fsync each distinct parent
      directory once.  For ``n`` files in one directory that is
      ``n + 1`` fsyncs instead of ``2n``, and the fsyncs wait for
      writeback the kernel has had since staging to start.

    A stage whose write fails, and a publish that raises, unlink every
    temp the group still owns and re-raise — an ``OSError`` the write
    hook injects (ENOSPC, EIO) included, as if the write had raised it.
    Injected crashes fire from the write hook, *before* the write, and
    leave the group's temps where a real crash would.  A group belongs
    to one thread at a time; staging on one thread and publishing on
    another is the intended write-behind use.
    """

    def __init__(self, store: "ObjectStore") -> None:
        self.store = store
        # (rel_path, temp, final) per staged file, in staging order
        self._staged: List[Tuple[str, pathlib.Path, pathlib.Path]] = []
        # parent directories this group has made sure exist
        self._made: Set[pathlib.Path] = set()

    def stage(self, rel_path: str, *parts: Any) -> int:
        """Write the bytes ``parts`` join to, part by part, to
        ``rel_path``'s temp sibling; returns the file's size.

        The write hook and the ``fs_op`` event get the file's exact
        bytes, joined only when a policy or a subscriber is there to
        look at them.
        """
        store = self.store
        path = store._resolve(rel_path)
        if path.parent not in self._made:
            path.parent.mkdir(parents=True, exist_ok=True)
            self._made.add(path.parent)
        tmp = path.with_suffix(path.suffix + ".tmp")
        try:
            if store.faults is not None or obs._ACTIVE:
                data = b"".join(parts)
                if store.faults is not None:
                    store.faults.on_write(rel_path, tmp, data)
                if obs._ACTIVE:
                    store._emit_fs("write", tmp, data=data)
            self._staged.append((rel_path, tmp, path))
            with open(tmp, "wb") as fh:
                fh.writelines(parts)
        except InjectedCrash:
            raise  # a dead process unlinks nothing
        except BaseException:
            self.abandon()
            raise
        nbytes = sum(memoryview(part).nbytes for part in parts)
        store.bytes_written += nbytes
        store.simulated_write_s += DEFAULT_NVME.write_time(nbytes)
        return nbytes

    def publish(self) -> None:
        """Make every staged file durable and visible; empties the group."""
        store = self.store
        try:
            if store.durable:
                for _, tmp, _ in self._staged:
                    store._fsync(tmp)
            parents: List[pathlib.Path] = []
            for rel_path, tmp, path in self._staged:
                if store.faults is not None:
                    store.faults.on_publish(rel_path, tmp)
                os.replace(tmp, path)
                if obs._ACTIVE:
                    store._emit_fs("rename", tmp, dst=path)
                if path.parent not in parents:
                    parents.append(path.parent)
            for parent in parents:
                store._sync_dir(parent)
        except BaseException:
            self.abandon()
            raise
        self._staged.clear()

    def abandon(self) -> None:
        """Unlink every temp the group still owns; empties the group."""
        for _, tmp, _ in self._staged:
            try:
                tmp.unlink()
            except OSError:
                continue  # already renamed, or never created
            if obs._ACTIVE:
                self.store._emit_fs("unlink", tmp)
        self._staged.clear()


def resolve_workers(workers: Optional[int]) -> int:
    """CPU-aware width of a writer: ``None`` means ``min(8, cpu_count)``.

    Explicit ``0``/``1`` stay serial; explicit counts are respected.
    The *output bytes* are the same at any count — a writer's fan-out
    preserves input order regardless of completion order.  Above 1 the
    same count also sizes its :class:`CommitPool`.
    """
    if workers is None:
        return min(8, os.cpu_count() or 1)
    return workers


class CommitPool:
    """The store's write-behind publisher of staged :class:`CommitGroup`-s.

    A writer stages a group and hands it to :meth:`submit`; one of
    ``workers`` commit threads then runs the group's fsyncs and renames
    while the writer is already on its next file — the fsyncs wait for
    writeback with the GIL released, so a pool as wide as the writer's
    fan-out keeps up with it without taking CPU from it.  At
    ``workers <= 1`` there are no threads: :meth:`submit` publishes
    inline and the rest is a no-op.

    A writer :meth:`reserve`-s a slot before it stages and the commit
    thread frees it once the group is published, so at most
    ``2 * workers`` groups are ever staged-but-unpublished (dirty page
    cache and temp files, not process memory).  Leaving the ``with``
    block waits for every submitted publish, success or not: no file
    effect outlives the save or conversion that caused it.
    """

    def __init__(self, workers: int) -> None:
        # appended by writers (list.append is atomic), read by drain()
        # only after the last writer has submitted
        self._publishes: List[concurrent.futures.Future] = []
        self._pool: Optional[concurrent.futures.ThreadPoolExecutor] = None
        if workers <= 1:
            return
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="ucp-commit"
        )
        self._slots = threading.BoundedSemaphore(2 * workers)
        # Start the commit threads now, ahead of the writer's fan-out,
        # rather than at the first submit.  glibc hands a new thread the
        # most recently freed malloc arena; with a fixed start order the
        # threads that allocate payloads get the same arenas run after
        # run, instead of trading them with the commit threads and
        # leaving every arena holding freed buffers (measured on the
        # converter: ~40 MB of peak RSS per process, at any model size).
        started = threading.Barrier(workers + 1)
        for _ in range(workers):
            self._pool.submit(started.wait)
        started.wait()

    def __enter__(self) -> "CommitPool":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def reserve(self) -> None:
        """Block until fewer than ``2 * workers`` groups are in flight."""
        if self._pool is not None:
            if obs._ACTIVE:  # a yield point the schedule explorer sees
                obs.emit("wait", "CommitPool.slots", self._slot_free)
            self._slots.acquire()

    def _slot_free(self) -> bool:
        return self._slots._value > 0

    def release(self) -> None:
        """Give back a reserved slot whose group was never submitted."""
        if self._pool is not None:
            self._slots.release()

    def submit(self, group: CommitGroup) -> None:
        """Queue a fully staged group for publishing."""
        if self._pool is None:
            group.publish()
        else:
            self._publishes.append(self._pool.submit(self._publish, group))

    def _publish(self, group: CommitGroup) -> float:
        t_p = time.perf_counter()
        try:
            group.publish()
        finally:
            self._slots.release()
        return time.perf_counter() - t_p

    def drain(self) -> float:
        """Wait until every submitted group is durable; returns the
        publish thread-seconds (0.0 inline: the writer already spent
        them).  Raises the first publish failure."""
        total = 0.0
        for fut in self._publishes:
            if obs._ACTIVE:
                obs.emit("wait", "CommitPool.drain", fut.done)
            total += fut.result()
        return total


class ObjectStore:
    """Persist ``.npt`` objects under a base directory.

    Tracks bytes read/written and accumulates simulated time on the
    :data:`~repro.storage.nvme.DEFAULT_NVME` profile, so the benchmark
    harness can report the same save/load cost curves as the paper's
    Figs 11-12 without real datacenter storage.

    Args:
        base_dir: directory all relative paths resolve under.
        faults: optional fault-injection policy hooked into every IO.
        durable: fsync commits for power-loss safety; None defers to
            the ``REPRO_DURABLE`` environment default (on).
    """

    def __init__(
        self,
        base_dir: str,
        faults: Optional[FaultPolicy] = None,
        durable: Optional[bool] = None,
    ) -> None:
        self.base = pathlib.Path(base_dir)
        self.base.mkdir(parents=True, exist_ok=True)
        # anchored once: containment below is then purely lexical, for
        # "." and other relative bases too
        self._base_str = os.path.abspath(str(self.base))
        self.faults = faults
        self.durable = _durable_default() if durable is None else durable
        self.bytes_written = 0
        self.bytes_read = 0
        self.simulated_write_s = 0.0
        self.simulated_read_s = 0.0

    def _resolve_str(self, rel_path: str) -> str:
        # lexical containment check (no symlink resolution syscalls:
        # this runs once per atom access on the load hot path)
        normalized = os.path.normpath(os.path.join(self._base_str, rel_path))
        if not (normalized + os.sep).startswith(self._base_str + os.sep):
            raise ValueError(f"path {rel_path!r} escapes the store root")
        return normalized

    def _resolve(self, rel_path: str) -> pathlib.Path:
        return pathlib.Path(self._resolve_str(rel_path))

    # --- byte-level primitives (all object IO funnels through these) ---

    def put_bytes(self, rel_path: str, data: bytes) -> int:
        """Atomically commit raw bytes; returns bytes written.

        The one-file :class:`CommitGroup`: the write goes to a temp
        file first and is published with an atomic rename — a crash at
        any point leaves either the previous object or the new one
        visible, never a torn file.  Under :attr:`durable` the commit
        also survives power loss: the temp file is fsynced *before* the
        rename (the publish can never become durable ahead of the bytes
        it names) and the parent directory *after* it (the publish
        itself cannot be rolled back).  A write that fails mid-commit
        cleans up its temp file; injected crash faults fire before the
        write and deliberately leave their torn temp behind, as a real
        crash would.
        """
        group = CommitGroup(self)
        nbytes = group.stage(rel_path, data)
        group.publish()
        return nbytes

    def fsync_dir(self, rel_dir: str) -> None:
        """Make one directory's entries durable (no-op unless
        :attr:`durable`).

        For entries no publish covers: a directory created by
        ``mkdir(parents=True)`` on the way to a staged file is an entry
        of *its* parent, which that file's group never fsyncs.
        """
        self._sync_dir(self._resolve(rel_dir))

    def _rel(self, path: pathlib.Path) -> str:
        """Store-relative ``/``-separated form of a resolved path — the
        ``fs_op`` event's vocabulary (``"."`` is the root)."""
        return os.path.relpath(str(path), self._base_str).replace(os.sep, "/")

    def _emit_fs(
        self, kind: str, path: pathlib.Path,
        dst: Optional[pathlib.Path] = None, data: Optional[bytes] = None,
    ) -> None:
        """Name one file effect of this store on the hook slot (callers
        check ``obs._ACTIVE`` first, so the off path builds nothing)."""
        obs.emit(
            "fs_op", kind, self._base_str, self._rel(path),
            None if dst is None else self._rel(dst), data,
        )

    def _fsync(self, path: pathlib.Path, kind: str = "fsync") -> None:
        """Fsync a file or directory through a fresh read-only
        descriptor, then name it (``kind``) on the hook slot.

        The kernel flushes the inode's dirty pages whichever descriptor
        asks, so a staged temp needs no handle kept open from its write
        to its publish (possibly on another thread).  The event is
        emitted here, after the syscall and nowhere else, so a trace
        check never sees an fsync that did not happen.
        """
        fd = os.open(str(path), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        if obs._ACTIVE:
            self._emit_fs(kind, path)

    def _sync_dir(self, dir_path: pathlib.Path) -> None:
        """Fsync a directory (under :attr:`durable`) so entry ops inside
        it survive power loss.

        A rename or unlink only mutates the parent directory; POSIX
        makes that mutation durable at the next fsync of the
        *directory*, not of any file.  Skipping this leaves a
        committed-looking publish that a crash can roll back — what
        UCP032 flags in a recorded trace.
        """
        if self.durable:
            self._fsync(dir_path, "fsync_dir")

    def read_bytes(self, rel_path: str) -> bytes:
        """Read one object's raw bytes."""
        path = self._resolve(rel_path)
        if not path.is_file():
            raise FileNotFoundError(f"no object at {rel_path!r} in {self.base}")
        if self.faults is not None:
            self.faults.on_read(rel_path, path)
        data = path.read_bytes()
        self.bytes_read += len(data)
        self.simulated_read_s += DEFAULT_NVME.read_time(len(data))
        return data

    def read_range(self, rel_path: str, offset: int, length: int) -> bytes:
        """``pread``-style windowed read: ``length`` bytes at ``offset`` —
        one range of :meth:`read_ranges`, checked and charged as that."""
        return self.read_ranges(rel_path, [(offset, length)])[0]

    def read_ranges(
        self, rel_path: str, ranges: List[Tuple[int, int]]
    ) -> List[bytes]:
        """Batched ``pread``: many ``(offset, length)`` ranges, one open.

        Only the requested bytes are charged to read accounting and the
        simulated NVMe clock, each range as one request.  A negative
        range is a ``ValueError``; one extending past end-of-file an
        ``EOFError`` (the caller's plan referenced bytes the object does
        not have).
        """
        for offset, length in ranges:
            if offset < 0 or length < 0:
                raise ValueError(
                    f"invalid byte range ({offset}, {length}) for {rel_path!r}"
                )
        path = self._resolve(rel_path)
        if not path.is_file():
            raise FileNotFoundError(f"no object at {rel_path!r} in {self.base}")
        if self.faults is not None:
            self.faults.on_read(rel_path, path)
        out: List[bytes] = []
        with open(path, "rb") as fh:
            for offset, length in ranges:
                fh.seek(offset)
                data = fh.read(length)
                if len(data) != length:
                    raise EOFError(
                        f"{rel_path}: range [{offset}, {offset + length}) "
                        f"reads past end of file "
                        f"({offset + len(data)} bytes available)"
                    )
                out.append(data)
                self.bytes_read += length
                self.simulated_read_s += DEFAULT_NVME.read_time(length)
        return out

    def read_into(self, rel_path: str, offset: int, out: memoryview) -> None:
        """``pread`` into the caller's buffer: ``len(out)`` bytes at
        ``offset`` land in the writable byte view ``out`` — one range of
        :meth:`read_ranges`, checked and charged as that, with no copy."""
        length = len(out)
        if offset < 0:
            raise ValueError(
                f"invalid byte range ({offset}, {length}) for {rel_path!r}"
            )
        path = self._resolve(rel_path)
        if not path.is_file():
            raise FileNotFoundError(f"no object at {rel_path!r} in {self.base}")
        if self.faults is not None:
            self.faults.on_read(rel_path, path)
        got = 0
        with open(path, "rb", buffering=0) as fh:
            fh.seek(offset)
            while got < length:
                n = fh.readinto(out[got:])
                if not n:
                    raise EOFError(
                        f"{rel_path}: range [{offset}, {offset + length}) "
                        f"reads past end of file "
                        f"({offset + got} bytes available)"
                    )
                got += n
        self.bytes_read += length
        self.simulated_read_s += DEFAULT_NVME.read_time(length)

    def size(self, rel_path: str) -> int:
        """An object's on-disk byte size (no accounting)."""
        path = self._resolve(rel_path)
        if not path.is_file():
            raise FileNotFoundError(f"no object at {rel_path!r} in {self.base}")
        return path.stat().st_size

    # --- object API ---

    def save(self, rel_path: str, obj: Any) -> int:
        """Serialize and write one object; returns bytes written."""
        return self.put_bytes(rel_path, serialize(obj))

    def load(self, rel_path: str) -> Any:
        """Read and deserialize one object."""
        return deserialize(self.read_bytes(rel_path))

    def load_index(self, rel_path: str) -> Any:
        """Decode one object from its ``.npt`` header only.

        Tensor leaves come back as
        :class:`~repro.storage.serializer.TensorIndexEntry` objects
        carrying each payload's absolute byte offset — the input a read
        planner lowers into exact :meth:`read_range` calls, and all a
        header check needs.  Payload bytes are never read; only the
        header bytes are charged to read accounting.
        """
        return self.load_index_sized(rel_path)[0]

    def load_index_sized(self, rel_path: str) -> Tuple[Any, int]:
        """:meth:`load_index` plus the object's on-disk byte size.

        One ``open`` and no path ``stat``: a missing object is the
        ``open`` failing, and the size is ``fstat`` of the handle the
        header was read through — the size the header's own claims were
        checked against — at no extra file-system round trip.
        """
        path = self._resolve_str(rel_path)
        try:
            fh = open(path, "rb")
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            raise FileNotFoundError(
                f"no object at {rel_path!r} in {self.base}"
            ) from None
        with fh:
            if self.faults is not None:
                self.faults.on_read(rel_path, pathlib.Path(path))
            obj = read_npt_index(fh)
            header_bytes = fh.tell()
            file_size = os.fstat(fh.fileno()).st_size
        self.bytes_read += header_bytes
        self.simulated_read_s += DEFAULT_NVME.read_time(header_bytes)
        return obj, file_size

    def digest(self, rel_path: str) -> str:
        """SHA-256 of an object's current on-disk bytes (no accounting)."""
        path = self._resolve(rel_path)
        if not path.is_file():
            raise FileNotFoundError(f"no object at {rel_path!r} in {self.base}")
        return sha256_hex(path.read_bytes())

    def exists(self, rel_path: str) -> bool:
        """Whether an object exists at the path."""
        return self._resolve(rel_path).is_file()

    def list(self, rel_dir: str = ".") -> List[str]:
        """Relative paths of all objects under a directory, sorted.

        Uncommitted ``*.tmp`` leftovers (from crashes mid-write) are
        never listed — they are not part of any committed state.
        """
        root = self._resolve(rel_dir)
        if not root.is_dir():
            return []
        out = []
        for path in root.rglob("*"):
            if path.is_file() and not path.name.endswith(".tmp"):
                out.append(os.path.relpath(str(path), self._base_str))
        return sorted(out)

    def delete(self, *rel_paths: str) -> None:
        """Remove objects (missing objects are ignored).

        Under :attr:`durable` every directory that lost an entry is then
        fsynced once, so the removals themselves survive power loss —
        retention decisions stay made, a cleared directory stays clear.
        """
        parents: List[pathlib.Path] = []
        for rel_path in rel_paths:
            path = self._resolve(rel_path)
            if path.is_file():
                path.unlink()
                if obs._ACTIVE:
                    self._emit_fs("unlink", path)
                if path.parent not in parents:
                    parents.append(path.parent)
        for parent in parents:
            self._sync_dir(parent)

    def write_text(self, rel_path: str, text: str) -> None:
        """Atomically write a small text marker file (e.g. ``latest``).

        Goes through the same temp-file + rename commit (and, under
        :attr:`durable`, the same fsync protocol) as object writes:
        advancing the ``latest`` tag is all-or-nothing and cannot
        outlive the manifest it points at.
        """
        self.put_bytes(rel_path, text.encode())

    def read_text(self, rel_path: str) -> str:
        """Read a text marker file."""
        path = self._resolve(rel_path)
        if not path.is_file():
            raise FileNotFoundError(f"no text file at {rel_path!r} in {self.base}")
        return path.read_text()
