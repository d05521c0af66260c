"""Runtime FS-op witness + ALICE-style crash-state enumeration.

The crash-consistency checker: the store's file effects are *recorded*
while code runs, and the resulting trace is *replayed* offline against
an adversarial persistence model.  Every effect comes from one commit
implementation (:class:`~repro.storage.store.CommitGroup`), so the
traces the tests record cover every publish ``src/`` performs.

Recording
    Every :class:`~repro.storage.store.ObjectStore` file operation —
    data write, fsync, publishing rename, directory fsync, unlink —
    lands in the innermost active :class:`FSOpRecorder` (:func:`fstrace`
    subscribes it to the one hook slot, :mod:`repro.obs`, role
    ``"fs"``; zero cost when nothing is subscribed).  Ops
    from different stores (a save's checkpoint dir, a conversion's
    output dir) are namespaced by a per-root label (``s0/``, ``s1/``,
    assigned in first-touch order), so one trace can cover a whole
    save→convert pipeline without path collisions.

Replay (``repro lint-trace``)
    :func:`check_fs_trace` analyzes a recorded trace two ways:

    - *structurally*: a publishing rename whose source bytes were never
      fsynced, or that is never followed by a directory fsync, fires
      **UCP032** (publish-observed-before-durable); a ``*.tmp`` still
      present after every op applied fires **UCP034**.
    - *exhaustively*: the crash-state enumerator derives every legal
      post-crash disk state the trace permits — for each crash point,
      the all-applied prefix, the durable-only state (every op a
      missing fsync leaves reorderable is dropped), every
      drop-one-volatile-op variant, and every torn-volatile-write
      variant (mirroring the fault harness's torn-write model).  Each
      deduplicated state is materialized in a scratch directory and
      recovery is run against every store root in it:
      ``latest_committed_tag`` + a deep manifest verify.  A state from
      which recovery fails, loads torn data, or loses a durably
      committed tag fires **UCP033**.

    The enumeration is *bounded*: at most ``state_cap`` distinct states
    are materialized, and hitting the cap (or replaying a trace whose
    payload carries no file contents) is reported as a **UCP035**
    warning — a bounded run never silently passes as an exhaustive one.

The persistence model (what "legal post-crash state" means)
    - a data write becomes durable at the matching file's ``fsync``;
    - a rename/unlink (directory-entry op) becomes durable at the next
      ``fsync`` of the *parent directory*;
    - anything not yet durable at the crash point may independently be
      lost or (for writes) torn to a prefix — in particular a rename
      can survive while the data write it published is lost, leaving a
      committed-looking empty file.

All diagnostics carry deterministic state labels (``crash@i/drop#k``)
and store-root labels, never scratch-directory paths, so
``--format json`` output is byte-stable across runs and machines.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import os
import posixpath
import shutil
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro import obs
from repro.core.diagnostics import LintReport, error, warning

PAYLOAD_VERSION = 1

DEFAULT_STATE_CAP = 512
"""Materialization budget for one enumeration run (UCP035 when hit)."""

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


def _dirname(rel: str) -> str:
    """Parent directory of a store-relative path (``"."`` for the root)."""
    return posixpath.dirname(rel) or "."


@dataclass(frozen=True)
class FSOp:
    """One recorded filesystem effect.

    Attributes:
        kind: one of ``write``/``fsync``/``rename``/``fsync_dir``/
            ``unlink``.
        path: root-labeled store-relative subject path (the directory
            for ``fsync_dir``, the rename *source* for ``rename``).
        dst: rename destination (``rename`` only).
        nbytes: payload size (``write`` only).
        sha256: payload digest (``write`` only) — identifies content
            even when the bytes themselves were not captured.
        data: payload bytes when the recorder captured them; the
            enumerator needs these to materialize states.
        thread: name of the thread that performed the op (stamped by
            the recorder) — what lets interleaving traces and
            crash-state enumeration compose now that the commit pool
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
        """Inverse of :meth:`to_dict`; a missing or wrong-typed field is
        a ``ValueError`` saying which."""
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
        if data is not None and not isinstance(data, str):
            raise ValueError("data_b64 is not a string")
        return FSOp(
            kind=kind,
            path=raw["path"],
            dst=dst,
            nbytes=nbytes,
            sha256=raw.get("sha256", ""),
            data=None if data is None else base64.b64decode(data, validate=True),
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
    # normpath collapses the store root itself ("s0/." -> "s0") so
    # directory-fsync paths match _dirname() of the entries they cover
    return posixpath.normpath(f"{label}/{rel}")


class FSOpRecorder:
    """Thread-safe append-only trace of store file effects.

    Every op arrives with the recording store's identity (its
    base-directory string); the recorder maps each distinct root to a
    stable label (``s0``, ``s1``, ... in first-touch order) and prefixes
    recorded paths with it, so ops from several stores never collide and
    replay output stays free of machine-specific temp paths.

    Args:
        capture_data: record each write's payload bytes (required for
            crash-state materialization).  Disable for long traces
            where only the structural UCP032/UCP034 checks are wanted —
            the enumerator then reports UCP035 instead of guessing.
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
        """Slot handler: store ``root`` performed one file effect.

        ``write`` carries the payload (typically to a ``*.tmp``);
        ``fsync`` makes the file at ``rel`` durable; ``rename`` is the
        atomic publish ``rel -> dst``; ``fsync_dir`` makes the entry ops
        under directory ``rel`` durable; ``unlink`` removes a file.
        """
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
                "fs_ops": [
                    op.to_dict(self.capture_data) for op in self._ops
                ],
            }


def ops_from_payload(payload, source: str = "fs trace") -> List[FSOp]:
    """Decode a :meth:`FSOpRecorder.to_payload` dict: the trace's one
    decode boundary.

    ``fs_ops`` must be a list of ops whose fields have the right types
    and ``roots`` a list of store labels (str); anything else is a
    :class:`TraceFormatError` naming ``source`` (the file it was read
    from), so a truncated or wrong-kind trace never replays as clean.
    """

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


# --- activation (mirrors the sanitizer) -------------------------------


def current() -> Optional[FSOpRecorder]:
    """The innermost active recorder, or None."""
    return obs.current("fs")


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

def _durable_set(ops: List[FSOp], upto: int) -> Set[int]:
    """Indices of entry ops in ``ops[:upto]`` that are durable at ``upto``.

    A write is durable once a later-but-pre-crash fsync names its path
    (before the entry is renamed away — fsyncing after the rename names
    a different path); a rename/unlink once a later fsync covers the
    parent directory of the entry it changed.  Everything else is
    volatile — the crash may independently drop it.
    """
    durable: Set[int] = set()
    for k in range(upto):
        op = ops[k]
        if op.kind == WRITE:
            for j in range(k + 1, upto):
                later = ops[j]
                if later.kind == FSYNC and later.path == op.path:
                    durable.add(k)
                    break
                if later.kind in (RENAME, UNLINK) and later.path == op.path:
                    break
        elif op.kind == RENAME:
            want = _dirname(op.dst or op.path)
            if any(
                ops[j].kind == FSYNC_DIR and ops[j].path == want
                for j in range(k + 1, upto)
            ):
                durable.add(k)
        elif op.kind == UNLINK:
            want = _dirname(op.path)
            if any(
                ops[j].kind == FSYNC_DIR and ops[j].path == want
                for j in range(k + 1, upto)
            ):
                durable.add(k)
    return durable


def apply_ops(
    ops: List[FSOp],
    include: Set[int],
    torn: Optional[int] = None,
) -> Dict[str, bytes]:
    """Replay a subset of a trace into a ``path -> bytes`` disk image.

    ``include`` selects which entry ops take effect (fsyncs never
    change contents); ``torn`` truncates that one write to a half-size
    prefix, the same torn-write model as the fault harness.  A rename
    whose source write was dropped publishes an *empty* file — the
    signature crash state of a missing pre-publish fsync.
    """
    fs: Dict[str, bytes] = {}
    for k, op in enumerate(ops):
        if k not in include or op.kind not in _ENTRY_OPS:
            continue
        if op.kind == WRITE:
            data = op.data if op.data is not None else b""
            if torn == k and data:
                data = data[: max(1, len(data) // 2)]
            fs[op.path] = data
        elif op.kind == RENAME:
            fs[op.dst or op.path] = fs.pop(op.path, b"")
        elif op.kind == UNLINK:
            fs.pop(op.path, None)
    return fs


def _signature(fs: Dict[str, bytes]) -> Tuple[Tuple[str, str], ...]:
    """Content identity of a disk image, for deduplication."""
    return tuple(sorted(
        (path, hashlib.sha256(data).hexdigest())
        for path, data in fs.items()
    ))


@dataclass
class CrashState:
    """One enumerated post-crash disk image."""

    label: str
    """Deterministic identity, e.g. ``crash@7/drop#4`` — crash after
    the first 7 ops were issued, with volatile op 4 independently
    lost."""

    files: Dict[str, bytes]
    crash_point: int
    guaranteed_tags: Tuple[str, ...] = ()
    """Root-labeled tags durably committed at the crash point —
    recovery from this state must find one at least this new."""


@dataclass
class Enumeration:
    """The bounded output of :func:`enumerate_crash_states`."""

    states: List[CrashState] = field(default_factory=list)
    capped: bool = False
    crash_points_total: int = 0
    crash_points_covered: int = 0


def _guaranteed_tags(
    ops: List[FSOp], upto: int, durable: Set[int]
) -> Tuple[str, ...]:
    """Tags whose commit is durable at ``upto`` under every legal state.

    A tag qualifies when its manifest was durably published (write
    fsynced, rename directory-fsynced) and *every* entry op under the
    tag so far is durable — then no enumerated state can be missing any
    of its files.  A tag retention has started deleting is never
    guaranteed.
    """
    from repro.ckpt import naming

    manifest_suffix = "/" + naming.MANIFEST_FILE
    candidates: Set[str] = set()
    for k in range(upto):
        op = ops[k]
        if op.kind == RENAME and k in durable and (
            op.dst or ""
        ).endswith(manifest_suffix):
            candidates.add(posixpath.dirname(op.dst or ""))
    out = []
    for tag in sorted(candidates):
        prefix = tag + "/"
        ok = True
        for k in range(upto):
            op = ops[k]
            touched = op.path.startswith(prefix) or (
                op.dst or ""
            ).startswith(prefix)
            if not touched or op.kind not in _ENTRY_OPS:
                continue
            if op.kind == UNLINK or k not in durable:
                ok = False
                break
        if ok:
            out.append(tag)
    return tuple(out)


def enumerate_crash_states(
    ops: List[FSOp],
    state_cap: int = DEFAULT_STATE_CAP,
) -> Enumeration:
    """Every distinct post-crash disk state the trace permits, bounded.

    Per crash point ``i`` (crash after ``ops[:i]`` were issued) the
    enumerated variants are: the all-applied prefix; the durable-only
    state; for every volatile entry op, the drop-that-one-op state; and
    for every volatile write, the torn-prefix state.  States are
    deduplicated by content, and enumeration stops at ``state_cap``
    distinct states (:attr:`Enumeration.capped` set — callers must
    surface UCP035, never silently treat a capped run as exhaustive).
    """
    result = Enumeration(crash_points_total=len(ops) + 1)
    seen: Set[Tuple[Tuple[str, str], ...]] = set()
    for i in range(len(ops) + 1):
        durable = _durable_set(ops, i)
        guaranteed = _guaranteed_tags(ops, i, durable)
        volatile = [
            k for k in range(i)
            if ops[k].kind in _ENTRY_OPS and k not in durable
        ]
        variants: List[Tuple[str, Set[int], Optional[int]]] = [
            (f"crash@{i}/all", set(range(i)), None),
            (f"crash@{i}/durable", set(durable), None),
        ]
        for v in volatile:
            variants.append(
                (f"crash@{i}/drop#{v}", set(range(i)) - {v}, None)
            )
            if ops[v].kind == WRITE:
                variants.append((f"crash@{i}/torn#{v}", set(range(i)), v))
        for label, include, torn in variants:
            fs = apply_ops(ops, include, torn)
            sig = _signature(fs)
            if sig in seen:
                continue
            if len(result.states) >= state_cap:
                result.capped = True
                return result
            seen.add(sig)
            result.states.append(CrashState(
                label=label,
                files=fs,
                crash_point=i,
                guaranteed_tags=guaranteed,
            ))
        result.crash_points_covered = i + 1
    return result


# --- recovery check ---------------------------------------------------

def materialize(fs: Dict[str, bytes], root: Path) -> None:
    """Write a disk image into ``root`` (created empty by the caller)."""
    for rel in sorted(fs):
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(fs[rel])


def _check_recovery(
    state: CrashState, root: Path, domains: List[str]
) -> Optional[str]:
    """Run recovery against a materialized state; describe any failure.

    Recovery = ``latest_committed_tag`` over each store domain, then a
    deep manifest verify of the recovered tag (what ``repro verify``
    runs).  Returns None when the state is survivable from every
    domain, else a deterministic description (no filesystem paths).
    """
    from repro.ckpt import naming
    from repro.ckpt.errors import CheckpointNotFoundError
    from repro.ckpt.loader import latest_committed_tag
    from repro.ckpt.manifest import verify_tag
    from repro.storage.store import ObjectStore

    for dom in domains:
        base = root if dom == "." else root / dom
        where = "" if dom == "." else f"store {dom}: "
        expected = [
            posixpath.basename(t) for t in state.guaranteed_tags
            if dom == "." or t.startswith(dom + "/")
        ]
        try:
            tag = latest_committed_tag(str(base))
        except CheckpointNotFoundError:
            tag = None
        except Exception as exc:  # noqa: BLE001 - any raise IS the finding
            return (
                f"{where}recovery raised {type(exc).__name__} instead of "
                f"selecting a committed tag or reporting a clean cold "
                f"start"
            )
        if tag is None:
            if expected:
                return (
                    f"{where}recovery found no committed tag, but "
                    f"{expected[-1]} was durably committed before the "
                    f"crash"
                )
            continue
        try:
            problems = verify_tag(ObjectStore(str(base)), tag, deep=True)
        except Exception as exc:  # noqa: BLE001 - any raise IS the finding
            return (
                f"{where}recovered tag {tag} failed its deep verify with "
                f"{type(exc).__name__}"
            )
        if problems:
            shown = "; ".join(
                f"{posixpath.basename(rel)}: {why}"
                for rel, why in sorted(problems.items())[:2]
            )
            return (
                f"{where}recovered tag {tag} contains torn or missing "
                f"data: {shown}"
            )
        if expected:
            newest = expected[-1]
            try:
                behind = (
                    naming.step_from_tag(tag) < naming.step_from_tag(newest)
                )
            except ValueError:
                behind = tag < newest
            if behind:
                return (
                    f"{where}recovery selected {tag}, losing durably "
                    f"committed {newest}"
                )
    return None


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
        state_cap: materialization budget for the enumerator.
        enumerate_states: run the crash-state enumeration (needs a
            trace captured with file contents); the structural
            UCP032/UCP034 checks always run.
        clean_exit: the traced run finished without an injected crash,
            so leftover ``*.tmp`` files are leaks (UCP034).  Pass False
            when replaying a deliberately killed run.
    """
    if isinstance(trace, FSOpRecorder):
        ops = trace.ops()
        domains = trace.roots() or ["."]
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
        ops = list(trace)
        domains = ["."]
    report = LintReport(subject="fs-trace")

    # UCP032: structural durability-ordering scan (no materialization)
    for r, op in enumerate(ops):
        if op.kind != RENAME:
            continue
        dst = op.dst or op.path
        last_write = None
        for w in range(r - 1, -1, -1):
            if ops[w].kind == WRITE and ops[w].path == op.path:
                last_write = w
                break
        if last_write is not None and not any(
            ops[j].kind == FSYNC and ops[j].path == op.path
            for j in range(last_write + 1, r)
        ):
            report.add(error(
                "UCP032",
                f"op#{r}: rename publishes {dst} before its bytes were "
                f"fsynced — after a power loss the rename can survive "
                f"while the data does not, leaving a committed-looking "
                f"empty or torn file",
                location=dst,
            ))
        want = _dirname(dst)
        if not any(
            ops[j].kind == FSYNC_DIR and ops[j].path == want
            for j in range(r + 1, len(ops))
        ):
            report.add(error(
                "UCP032",
                f"op#{r}: publishing rename of {dst} is never made "
                f"durable by an fsync of directory {want} — the publish "
                f"itself can be rolled back by a crash",
                location=dst,
            ))

    # UCP034: tmp files surviving the clean-exit final state
    final_fs = apply_ops(ops, set(range(len(ops))))
    if clean_exit:
        for rel in sorted(final_fs):
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

    total_writes = sum(1 for op in ops if op.kind == WRITE)
    missing_data = sum(
        1 for op in ops if op.kind == WRITE and op.data is None
    )
    if missing_data:
        report.add(warning(
            "UCP035",
            f"crash-state enumeration skipped: {missing_data} of "
            f"{total_writes} writes in the trace carry no captured "
            f"payload (recorded with capture_data=False); only the "
            f"structural checks ran",
            location="enumeration",
        ))
        return report

    enum = enumerate_crash_states(ops, state_cap=state_cap)
    scratch = Path(tempfile.mkdtemp(prefix="repro-crashenum-"))
    try:
        for n, state in enumerate(enum.states):
            state_root = scratch / f"state{n}"
            state_root.mkdir()
            materialize(state.files, state_root)
            failure = _check_recovery(state, state_root, domains)
            if failure is not None:
                report.add(error(
                    "UCP033",
                    f"crash state {state.label} "
                    f"({len(state.files)} files on disk): {failure}",
                    location=state.label,
                ))
            shutil.rmtree(state_root)
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
