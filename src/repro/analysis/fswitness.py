"""Runtime FS-op witness + ALICE-style crash-state enumeration.

The store's file effects are *recorded* while code runs — every
:class:`~repro.storage.store.ObjectStore` write, fsync, publishing
rename, directory fsync and unlink lands in the active
:class:`FSOpRecorder` (:func:`fstrace`; the ``"fs"`` role of the one
hook slot, :mod:`repro.obs`), each store a root labeled ``s0/``,
``s1/``, ... — and the trace is *replayed* offline
(:func:`check_fs_trace`, ``repro lint-trace``) against an adversarial
persistence model.  All effects come from one commit implementation,
:class:`~repro.storage.store.CommitGroup`.

The model (:func:`_durable_at` is its one statement): a write is
durable at its file's fsync, a rename or unlink at its parent
directory's; whatever is not durable at a crash may independently be
lost, and a write torn to a prefix.

- **UCP032**: a rename published before its bytes are durable, or never
  made durable; **UCP034**: a ``*.tmp`` left when every op applied.
- **UCP033**: per crash point, the all-applied prefix, the durable-only
  state and every drop-one / torn-one volatile variant, kept when
  recovery can tell it apart, then checked per store root by that
  root's contract: ``latest_committed_tag`` plus a deep manifest verify
  for a checkpoint, the commit point and the resume gate for a
  conversion.
- **UCP035** (warning): the enumeration hit ``state_cap`` or the trace
  carries no payloads — a bounded run never passes as exhaustive.

Diagnostics carry state labels (``crash@i/drop#k``) and root-relative
paths, never scratch paths, so ``--format json`` output is byte-stable.
"""

from __future__ import annotations

import base64
import contextlib
import functools
import hashlib
import json
import os
import posixpath
import shutil
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro import obs
from repro.core.diagnostics import LintReport, error, warning

PAYLOAD_VERSION = 1

DEFAULT_STATE_CAP = 2048
"""Distinct-state budget for one enumeration run (UCP035 when hit): twice
what the CI save -> kill -> save -> ``workers=2`` convert trace needs."""

WRITE = "write"
FSYNC = "fsync"
RENAME = "rename"
FSYNC_DIR = "fsync_dir"
UNLINK = "unlink"
_KINDS = (WRITE, FSYNC, RENAME, FSYNC_DIR, UNLINK)

_ENTRY_OPS = (WRITE, RENAME, UNLINK)
"""Ops that change disk contents (fsyncs only change durability)."""


class TraceFormatError(ValueError):
    """An FS-op trace file whose payload is not a version-1 trace."""


@functools.lru_cache(maxsize=1 << 14)
def _dirname(rel: str) -> str:
    """Parent directory of a store-relative path (``"."`` for the root)."""
    return posixpath.dirname(rel) or "."


@dataclass(frozen=True)
class FSOp:
    """One recorded filesystem effect.

    Attributes:
        kind: ``write``/``fsync``/``rename``/``fsync_dir``/``unlink``.
        path: root-labeled store-relative subject path (the directory
            for ``fsync_dir``, the rename *source* for ``rename``).
        dst: rename destination (``rename`` only).
        nbytes / sha256: a write's payload size and digest — its
            content identity, captured bytes or not.
        data: a write's payload bytes, when captured (the enumerator
            needs them to materialize states).
        thread: the thread that performed the op — the commit pool
            publishes groups staged on several threads.
    """

    kind: str
    path: str
    dst: Optional[str] = None
    nbytes: int = 0
    sha256: str = ""
    data: Optional[bytes] = None
    thread: str = ""

    def to_dict(self, with_data: bool) -> Dict:
        """JSON-ready form; ``with_data`` inlines write bytes as base64."""
        out: Dict = {"kind": self.kind, "path": self.path}
        if self.dst is not None:
            out["dst"] = self.dst
        if self.thread:
            out["thread"] = self.thread
        if self.kind == WRITE:
            out["nbytes"] = self.nbytes
            out["sha256"] = self.sha256
            if with_data and self.data is not None:
                out["data_b64"] = base64.b64encode(self.data).decode("ascii")
        return out

    @staticmethod
    def from_dict(raw) -> "FSOp":
        """Inverse of :meth:`to_dict`; a missing or wrong-typed field, or
        captured bytes that disagree with their recorded size or digest,
        is a ``ValueError`` saying which."""
        if not isinstance(raw, dict):
            raise ValueError(f"is {type(raw).__name__}, not a mapping")
        kind, dst = raw.get("kind"), raw.get("dst")
        if not (isinstance(kind, str) and kind in _KINDS):
            raise ValueError(f"kind {kind!r} is not one of {'/'.join(_KINDS)}")
        if not _is_rel(raw.get("path")):
            raise ValueError("path is not a store-relative path")
        if not (_is_rel(dst) if kind == RENAME else dst is None):
            raise ValueError(
                "dst is not a store-relative path" if kind == RENAME
                else f"a {kind} carries a dst"
            )
        nbytes, data = raw.get("nbytes", 0), raw.get("data_b64")
        if type(nbytes) is not int or nbytes < 0:
            raise ValueError(f"nbytes {nbytes!r} is not a byte count")
        for key in ("sha256", "thread"):
            if not isinstance(raw.get(key, ""), str):
                raise ValueError(f"{key} is not a string")
        if data is not None:
            if not isinstance(data, str):
                raise ValueError("data_b64 is not a string")
            data = base64.b64decode(data, validate=True)
            # crash states are told apart by the recorded digest (an op
            # that records none is identified by its bytes: _content)
            sha = raw.get("sha256", "")
            if len(data) != nbytes or sha not in (
                "", hashlib.sha256(data).hexdigest()
            ):
                raise ValueError("data_b64 disagrees with nbytes or sha256")
        return FSOp(
            kind=kind,
            path=raw["path"],
            dst=dst,
            nbytes=nbytes,
            sha256=raw.get("sha256", ""),
            data=data,
            thread=raw.get("thread", ""),
        )


def _is_rel(path) -> bool:
    """A normalized store-relative path: materialized under a scratch
    root, it can neither leave it nor be refused by the OS."""
    return (
        isinstance(path, str) and path == posixpath.normpath(path)
        and not path.startswith("/") and "\0" not in path
        and path != ".." and not path.startswith("../")
    )


def label_path(roots: Dict[str, str], root: str, rel: str) -> str:
    """Root-labeled form of a store path (``s0/...``, ``s1/...``: labels
    are assigned in first-touch order and kept in ``roots``)."""
    label = roots.setdefault(root, f"s{len(roots)}")
    # "s0/." -> "s0": a root fsync must match _dirname() of its entries
    return posixpath.normpath(f"{label}/{rel}")


class FSOpRecorder:
    """Thread-safe append-only trace of store file effects, each path
    prefixed with its store's root label (``s0``, ``s1``, ... in
    first-touch order): ops of several stores never collide, and replay
    output holds no machine-specific path.

    Args:
        capture_data: record each write's payload bytes (crash-state
            enumeration needs them; without them it reports UCP035 and
            only the structural UCP032/UCP034 checks run).
    """

    def __init__(self, capture_data: bool = True) -> None:
        self.capture_data = capture_data
        self._mu = threading.Lock()
        self._ops: List[FSOp] = []  # guarded-by: self._mu
        self._roots: Dict[str, str] = {}  # guarded-by: self._mu

    def on_fs_op(
        self, kind: str, root: str, rel: str,
        dst: Optional[str] = None, data: Optional[bytes] = None,
    ) -> None:
        """Slot handler: store ``root`` performed one file effect
        (``write`` carries the payload, ``rename`` publishes
        ``rel -> dst``)."""
        nbytes, digest, kept = 0, "", None
        if kind == WRITE:
            nbytes, digest = len(data), hashlib.sha256(data).hexdigest()
            kept = bytes(data) if self.capture_data else None
        thread = threading.current_thread().name
        with self._mu:
            self._ops.append(FSOp(
                kind, label_path(self._roots, root, rel),
                None if dst is None else label_path(self._roots, root, dst),
                nbytes, digest, kept, thread,
            ))

    def ops(self) -> List[FSOp]:
        """Snapshot of the trace so far."""
        with self._mu:
            return list(self._ops)

    def roots(self) -> List[str]:
        """Root labels recorded so far, sorted."""
        with self._mu:
            return sorted(self._roots.values())

    def __len__(self) -> int:
        with self._mu:
            return len(self._ops)

    def to_payload(self) -> Dict:
        """JSON-able trace for offline replay (``repro lint-trace``)."""
        with self._mu:
            return {
                "version": PAYLOAD_VERSION,
                "captured_data": self.capture_data,
                "roots": sorted(self._roots.values()),
                "fs_ops": [op.to_dict(self.capture_data) for op in self._ops],
            }


def ops_from_payload(payload, source: str = "fs trace") -> List[FSOp]:
    """Decode a :meth:`FSOpRecorder.to_payload` dict, the trace's one
    decode boundary: anything but a list of well-typed ops and a list
    of store labels is a :class:`TraceFormatError` naming ``source``
    (the file it was read from), so a damaged trace never replays as
    clean."""

    def damaged(what: str) -> TraceFormatError:
        return TraceFormatError(f"{source} is not an fs-op trace: {what}")

    if not isinstance(payload, dict):
        raise damaged(f"decodes to {type(payload).__name__}, not a mapping")
    version = payload.get("version")
    if type(version) is not int or version != PAYLOAD_VERSION:
        raise damaged(
            f"unsupported payload version {version!r}; this build replays "
            f"version {PAYLOAD_VERSION}"
        )
    for key in ("fs_ops", "roots"):
        if key not in payload:
            raise damaged(f"no {key}")
    roots, raw_ops = payload["roots"], payload["fs_ops"]
    if not (isinstance(roots, list) and all(_is_rel(r) for r in roots)):
        raise damaged("roots is not a list of store labels")
    if not isinstance(raw_ops, list):
        raise damaged(f"fs_ops is {type(raw_ops).__name__}, not a list")
    ops = []
    for i, raw in enumerate(raw_ops):
        try:
            ops.append(FSOp.from_dict(raw))
        except ValueError as exc:
            raise damaged(f"fs_ops[{i}]: {exc}") from None
    return ops


# --- activation -------------------------------------------------------

@contextlib.contextmanager
def fstrace(capture_data: bool = True) -> Iterator[FSOpRecorder]:
    """Record every store file effect inside the block.

    Usage::

        with fstrace() as rec:
            saver.save(...)
        report = check_fs_trace(rec)
    """
    recorder = FSOpRecorder(capture_data=capture_data)
    with obs.subscribed("fs", recorder):
        yield recorder


# --- persistence model ------------------------------------------------

def _durable_at(ops: List[FSOp]) -> List[int]:
    """For each entry op, the index of the fsync that makes it durable
    (``len(ops)`` if none does), so ``{k < i : durable_at[k] < i}`` is
    what survives a crash at ``i``.  A write is durable at the next
    fsync of its path unless the path is renamed or unlinked first; a
    rename or unlink at the next fsync of its entry's directory."""
    durable_at = [len(ops)] * len(ops)
    unsynced = {FSYNC: {}, FSYNC_DIR: {}}  # fsync'd path -> entry ops
    for j, op in enumerate(ops):
        if op.kind == WRITE:
            unsynced[FSYNC].setdefault(op.path, []).append(j)
        elif op.kind in (RENAME, UNLINK):
            unsynced[FSYNC].pop(op.path, None)
            parent = _dirname(op.dst or op.path)
            unsynced[FSYNC_DIR].setdefault(parent, []).append(j)
        else:
            for k in unsynced[op.kind].pop(op.path, ()):
                durable_at[k] = j
    return durable_at


_EMPTY = hashlib.sha256(b"").hexdigest()


def _content(op: FSOp) -> str:
    """A write's content identity: its recorded digest (its bytes' own,
    for an op built without one)."""
    return op.sha256 or hashlib.sha256(op.data or b"").hexdigest()


def _image(ops: List[FSOp], include, torn: Optional[int] = None):
    """The ``path -> (content, torn)`` image a subset of a trace leaves;
    a rename whose source write was dropped publishes an empty file."""
    fs: Dict[str, Tuple[str, bool]] = {}
    for k, op in enumerate(ops):
        if k not in include:
            continue
        if op.kind == WRITE:
            fs[op.path] = (_content(op), torn == k)
        elif op.kind == RENAME:
            fs[op.dst or op.path] = fs.pop(op.path, (_EMPTY, False))
        elif op.kind == UNLINK:
            fs.pop(op.path, None)
    return fs


def _files(image, ops: List[FSOp]) -> Dict[str, bytes]:
    """An image's bytes; a torn write keeps a half-size prefix, the
    fault harness's torn-write model."""
    data = {_content(op): op.data for op in ops if op.data is not None}
    fs = {}
    for path, (content, torn) in image.items():
        fs[path] = data.get(content, b"")
        if torn:
            fs[path] = fs[path][: max(1, len(fs[path]) // 2)]
    return fs


def apply_ops(
    ops: List[FSOp], include, torn: Optional[int] = None
) -> Dict[str, bytes]:
    """Replay the entry ops in ``include`` into a ``path -> bytes`` disk
    image, write ``torn`` cut to a half-size prefix."""
    return _files(_image(ops, include, torn), ops)


def _state_key(files: Dict) -> FrozenSet:
    """What recovery can tell apart in an image: the set of directories
    plus each published file's content.  Recovery never opens a
    ``*.tmp`` (``ObjectStore.list`` skips them), so a temp counts only
    for the directory it makes exist."""
    return frozenset(
        (path, content) for path, content in files.items()
        if not path.endswith(".tmp")
    ).union((_dirname(path), None) for path in files)


@dataclass
class CrashState:
    """One enumerated post-crash disk image: ``label`` (e.g.
    ``crash@7/drop#4``, a crash after 7 ops were issued with volatile op
    4 lost), its ``files``, and the root-labeled ``guaranteed_tags``
    durably committed by then — recovery must find one this new."""

    label: str
    files: Dict[str, bytes]
    crash_point: int
    guaranteed_tags: Tuple[str, ...] = ()


@dataclass
class Enumeration:
    """The bounded output of :func:`enumerate_crash_states`."""

    states: List[CrashState] = field(default_factory=list)
    capped: bool = False
    crash_points_total: int = 0
    crash_points_covered: int = 0


def _guaranteed_tags(
    ops: List[FSOp], upto: int, durable_at: List[int]
) -> Tuple[str, ...]:
    """Tags whose commit is durable at ``upto`` under every legal state:
    the manifest's publish and *every* entry op under the tag so far
    are durable, so no state can miss one of its files.  A tag
    retention has started deleting is never guaranteed."""
    from repro.ckpt import naming

    issued = list(enumerate(ops[:upto]))
    tags = sorted({
        _dirname(op.dst) for k, op in issued
        if op.kind == RENAME and durable_at[k] < upto
        and (op.dst or "").endswith("/" + naming.MANIFEST_FILE)
    })
    return tuple(tag for tag in tags if all(
        op.kind != UNLINK and durable_at[k] < upto
        for k, op in issued if op.kind in _ENTRY_OPS and (
            op.path.startswith(tag + "/")
            or (op.dst or "").startswith(tag + "/")
        )
    ))


def enumerate_crash_states(
    ops: List[FSOp],
    state_cap: int = DEFAULT_STATE_CAP,
) -> Enumeration:
    """Every post-crash disk state the trace permits that recovery can
    tell apart (:func:`_state_key`, over the recorded digests): per
    crash point ``i`` (after ``ops[:i]`` were issued), the all-applied
    prefix, the durable-only state, and for every volatile entry op the
    drop-that-one-op state (and for a write the torn one).  Stops at
    ``state_cap`` states (:attr:`Enumeration.capped`: report UCP035)."""
    durable_at = _durable_at(ops)
    result = Enumeration(crash_points_total=len(ops) + 1)
    seen: Set[FrozenSet] = set()
    volatile: List[int] = []
    for i in range(len(ops) + 1):
        if i and ops[i - 1].kind in _ENTRY_OPS:
            volatile.append(i - 1)
        volatile = [k for k in volatile if durable_at[k] >= i]
        issued = range(i)
        variants = [
            (f"crash@{i}/all", issued, None),
            (f"crash@{i}/durable", set(issued).difference(volatile), None),
        ]
        for v in volatile:
            variants.append((f"crash@{i}/drop#{v}", set(issued) - {v}, None))
            if ops[v].kind == WRITE:
                variants.append((f"crash@{i}/torn#{v}", issued, v))
        guaranteed = _guaranteed_tags(ops, i, durable_at)
        for label, include, torn in variants:
            image = _image(ops[:i], include, torn)
            key = _state_key(image)
            if key in seen:
                continue
            if len(result.states) >= state_cap:
                result.capped = True
                return result
            seen.add(key)
            result.states.append(
                CrashState(label, _files(image, ops), i, guaranteed)
            )
        result.crash_points_covered = i + 1
    return result


# --- recovery check, by the contract of each store root ---------------

def materialize(fs: Dict[str, bytes], root: Path) -> None:
    """Write a disk image into directory ``root``."""
    for rel in sorted(fs):
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(fs[rel])


def _in_root(files: Dict[str, bytes], dom: str) -> Dict[str, bytes]:
    """The part of a disk image under one store root, root-relative."""
    prefix = "" if dom == "." else dom + "/"
    return {p[len(prefix):]: b for p, b in files.items() if p.startswith(prefix)}


def _check_checkpoint_root(
    files: Dict[str, bytes], base: Path, expected: List[str]
) -> Optional[str]:
    """``latest_committed_tag``, then a deep manifest verify of the tag
    it selects (what ``repro verify`` runs), never older than the
    newest ``expected`` (durably committed) tag.  Returns None, or what
    went wrong without a filesystem path."""
    from repro.ckpt import naming
    from repro.ckpt.errors import CheckpointNotFoundError
    from repro.ckpt.loader import latest_committed_tag
    from repro.ckpt.manifest import verify_tag
    from repro.storage.store import ObjectStore

    materialize(files, base)
    newest = expected[-1] if expected else None
    try:
        tag = latest_committed_tag(str(base))
    except CheckpointNotFoundError:
        if newest:
            return (
                f"recovery found no committed tag, but {newest} was durably "
                f"committed before the crash"
            )
        return None
    except Exception as exc:  # noqa: BLE001 - any raise IS the finding
        return (
            f"recovery raised {type(exc).__name__} instead of selecting a "
            f"committed tag or reporting a clean cold start"
        )
    try:
        problems = verify_tag(ObjectStore(str(base)), tag, deep=True)
    except Exception as exc:  # noqa: BLE001 - any raise IS the finding
        return (
            f"recovered tag {tag} failed its deep verify with "
            f"{type(exc).__name__}"
        )
    if problems:
        shown = "; ".join(
            f"{posixpath.basename(rel)}: {why}"
            for rel, why in sorted(problems.items())[:2]
        )
        return f"recovered tag {tag} contains torn or missing data: {shown}"
    if newest:
        try:
            behind = naming.step_from_tag(tag) < naming.step_from_tag(newest)
        except ValueError:
            behind = tag < newest
        if behind:
            return f"recovery selected {tag}, losing durably committed {newest}"
    return None


def _conversion_check(ops: List[FSOp], dom: str):
    """The check of a root whose trace publishes ``ucp_meta.npt`` or
    ``ucp_convert_source.npt`` (None for any other root): the two
    promises :mod:`repro.core.convert` makes about what a crash leaves.

    (a) a surviving ``ucp_meta.npt`` (the commit point) has every file
        published beside it, as it was while that one was live — the
        final image's, for one conversion;
    (b) while the state's source marker is the final image's, every
        atom ``AtomStore.reusable_entry`` accepts is the final image's.
    """
    from repro.core.atom import AtomStore
    from repro.core.convert import CONVERT_SOURCE_FILE
    from repro.core.errors import UCPError
    from repro.core.metadata import UCP_META_FILE

    if not {
        posixpath.normpath(f"{dom}/{name}")
        for name in (UCP_META_FILE, CONVERT_SOURCE_FILE)
    } & {op.dst for op in ops if op.kind == RENAME}:
        return None

    def by_dir(files: Dict[str, bytes]) -> Dict[str, Dict[str, bytes]]:
        out: Dict[str, Dict[str, bytes]] = {}
        for rel, data in files.items():
            if not rel.endswith(".tmp"):
                out.setdefault(_dirname(rel), {})[rel] = data
        return out

    commits = {}  # ucp_meta -> the files beside it until replaced or removed
    meta = posixpath.normpath(f"{dom}/{UCP_META_FILE}")
    for end in [
        j for j, op in enumerate(ops)
        if op.kind in (RENAME, UNLINK) and meta in (op.path, op.dst)
    ] + [len(ops)]:
        image = _in_root(apply_ops(ops, range(end)), dom)
        if UCP_META_FILE in image:
            commits[image[UCP_META_FILE]] = {
                rel: data for rel, data in image.items() if not rel.endswith(".tmp")
            }
    final, atoms = image, {}  # the last end is the trace's
    with tempfile.TemporaryDirectory(prefix="repro-crashenum-") as scratch:
        materialize(final, Path(scratch))
        store = AtomStore(scratch)
        for name in store.list_atoms():
            try:
                atoms[name] = (store.path(name), store.read_meta(name)["spec"])
            except (UCPError, KeyError):
                atoms[name] = (store.path(name), None)  # never reusable
    final_parts = by_dir(final)

    def check(files: Dict[str, bytes], base: Path, _) -> Optional[str]:
        if UCP_META_FILE in files:
            committed = commits.get(files[UCP_META_FILE])
            if committed is None:
                return f"commit point {UCP_META_FILE} is torn or empty"
            for rel, data in sorted(committed.items()):
                if files.get(rel) != data:
                    return (
                        f"{UCP_META_FILE} survived, but {rel} beside it is "
                        + ("missing" if rel not in files else "another file")
                    )
        if files.get(CONVERT_SOURCE_FILE) != final.get(CONVERT_SOURCE_FILE):
            return None  # another source's marker: a resume starts over
        present, store = by_dir(files), None
        for name, (where, spec) in sorted(atoms.items()):
            if any(files.get(rel) != data
                   for rel, data in final_parts[where].items()):
                store = store or AtomStore(str(base))
                materialize(present.get(where, {}), base)  # all the gate reads
                if store.reusable_entry(name, spec) is not None:
                    return (
                        f"a resume would reuse atom {name}, which is not "
                        f"the one the conversion wrote"
                    )
        return None

    return check


# --- the replay check (lint-trace) ------------------------------------

def check_fs_trace(
    trace,
    state_cap: int = DEFAULT_STATE_CAP,
    enumerate_states: bool = True,
    clean_exit: bool = True,
) -> LintReport:
    """Replay a recorded FS-op trace against the persistence model.

    Args:
        trace: an :class:`FSOpRecorder`, a payload dict from
            :meth:`FSOpRecorder.to_payload`, the path of a JSON file
            holding one, or a raw :class:`FSOp` list (replayed as one
            anonymous store domain).
        state_cap: distinct-state budget for the enumerator.
        enumerate_states: run the crash-state enumeration (needs a
            trace captured with file contents); the structural
            UCP032/UCP034 checks always run.
        clean_exit: the traced run finished without an injected crash,
            so leftover ``*.tmp`` files are leaks (UCP034).  Pass False
            when replaying a deliberately killed run.
    """
    if isinstance(trace, FSOpRecorder):
        ops, domains = trace.ops(), trace.roots() or ["."]
    elif isinstance(trace, (dict, str, os.PathLike)):
        source = "fs trace"
        if not isinstance(trace, dict):
            source = str(trace)
            try:
                trace = json.loads(Path(trace).read_bytes())
            except ValueError as exc:  # bad JSON or bad UTF-8
                raise TraceFormatError(
                    f"{source} is not an fs-op trace: not JSON ({exc})"
                ) from None
        ops = ops_from_payload(trace, source)
        domains = list(trace["roots"] or ["."])
    else:
        ops, domains = list(trace), ["."]
    report = LintReport(subject="fs-trace")

    # UCP032: a publish the persistence model never makes safe
    durable_at, source_write = _durable_at(ops), {}
    for r, op in enumerate(ops):
        if op.kind == WRITE:
            source_write[op.path] = r
        if op.kind != RENAME:
            continue
        dst, w = op.dst or op.path, source_write.pop(op.path, None)
        if w is not None and durable_at[w] > r:
            report.add(error(
                "UCP032",
                f"op#{r}: rename publishes {dst} before its bytes were "
                f"fsynced — after a power loss the rename can survive "
                f"while the data does not, leaving a committed-looking "
                f"empty or torn file",
                location=dst,
            ))
        if durable_at[r] == len(ops):
            report.add(error(
                "UCP032",
                f"op#{r}: publishing rename of {dst} is never made "
                f"durable by an fsync of directory {_dirname(dst)} — the "
                f"publish itself can be rolled back by a crash",
                location=dst,
            ))

    # UCP034: tmp files surviving the clean-exit final state
    for rel in sorted(_image(ops, range(len(ops))) if clean_exit else ()):
        if rel.endswith(".tmp"):
            report.add(error(
                "UCP034",
                f"temp file {rel} still exists after the traced run "
                f"finished cleanly: some write was never published "
                f"or cleaned up",
                location=rel,
            ))

    if not enumerate_states:
        return report
    writes = [op for op in ops if op.kind == WRITE]
    missing = sum(op.data is None for op in writes)
    if missing:
        report.add(warning(
            "UCP035",
            f"crash-state enumeration skipped: {missing} of "
            f"{len(writes)} writes in the trace carry no captured "
            f"payload (recorded with capture_data=False); only the "
            f"structural checks ran",
            location="enumeration",
        ))
        return report

    enum = enumerate_crash_states(ops, state_cap=state_cap)
    checks = {
        dom: _conversion_check(ops, dom) or _check_checkpoint_root
        for dom in domains
    }
    verdicts: Dict[Tuple, Optional[str]] = {}  # one per distinct root image
    scratch = Path(tempfile.mkdtemp(prefix="repro-crashenum-"))
    try:
        for state in enum.states:
            for dom in domains:
                files = _in_root(state.files, dom)
                expected = tuple(
                    posixpath.basename(t) for t in state.guaranteed_tags
                    if dom == "." or t.startswith(dom + "/")
                )
                memo = (dom, _state_key(files), expected)
                if memo not in verdicts:
                    base = scratch / str(len(verdicts))
                    verdicts[memo] = checks[dom](files, base, expected)
                    shutil.rmtree(base, ignore_errors=True)
                if verdicts[memo]:
                    where = "" if dom == "." else f"store {dom}: "
                    report.add(error(
                        "UCP033",
                        f"crash state {state.label} ({len(state.files)} "
                        f"files on disk): {where}{verdicts[memo]}",
                        location=state.label,
                    ))
                    break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if enum.capped:
        report.add(warning(
            "UCP035",
            f"crash-state enumeration bounded: stopped at the "
            f"{state_cap}-state cap after covering "
            f"{enum.crash_points_covered} of {enum.crash_points_total} "
            f"crash points; raise state_cap for an exhaustive run",
            location="enumeration",
        ))
    return report
