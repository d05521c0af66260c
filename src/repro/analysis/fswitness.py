"""Runtime FS-op witness + ALICE-style crash-state enumeration.

The runtime half of the crash-consistency checker (the static half is
:mod:`repro.analysis.fseffects`), in the same shape as the
locks/lockwitness split: the store's file effects are *recorded* while
code runs, and the resulting trace is *replayed* offline against an
adversarial persistence model.

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

Replay (``repro lint-trace --fs``)
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
      committed-looking empty file, exactly the state SRC009 warns
      about statically.

All diagnostics carry deterministic state labels (``crash@i/drop#k``)
and store-root labels, never scratch-directory paths, so
``--format json`` output is byte-stable across runs and machines.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import posixpath
import shutil
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro import obs
from repro.analysis.diagnostics import LintReport, error, warning

PAYLOAD_VERSION = 1

DEFAULT_STATE_CAP = 512
"""Materialization budget for one enumeration run (UCP035 when hit)."""

WRITE = "write"
FSYNC = "fsync"
RENAME = "rename"
FSYNC_DIR = "fsync_dir"
UNLINK = "unlink"

_ENTRY_OPS = (WRITE, RENAME, UNLINK)
"""Ops that change disk contents (fsyncs only change durability)."""


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
            crash-state enumeration compose once the async persister's
            queue coalesces writes from several threads.
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
    def from_dict(raw: Dict) -> "FSOp":
        data = raw.get("data_b64")
        return FSOp(
            kind=raw["kind"],
            path=raw["path"],
            dst=raw.get("dst"),
            nbytes=int(raw.get("nbytes", 0)),
            sha256=raw.get("sha256", ""),
            data=base64.b64decode(data) if data is not None else None,
            thread=raw.get("thread", ""),
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
        """JSON-able trace for offline replay (``lint-trace --fs``)."""
        with self._mu:
            return {
                "version": PAYLOAD_VERSION,
                "captured_data": self.capture_data,
                "roots": sorted(self._roots.values()),
                "fs_ops": [
                    op.to_dict(self.capture_data) for op in self._ops
                ],
            }


def ops_from_payload(payload: Dict) -> List[FSOp]:
    """Decode a :meth:`FSOpRecorder.to_payload` dict."""
    version = payload.get("version")
    if version != PAYLOAD_VERSION:
        raise ValueError(
            f"unsupported fs-trace payload version {version!r}; this build "
            f"replays version {PAYLOAD_VERSION}"
        )
    return [FSOp.from_dict(raw) for raw in payload.get("fs_ops", [])]


# --- activation (mirrors lockwitness/sanitizer) -----------------------


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


# --- the replay check (lint-trace --fs) -------------------------------

def check_fs_trace(
    trace,
    state_cap: int = DEFAULT_STATE_CAP,
    enumerate_states: bool = True,
    clean_exit: bool = True,
) -> LintReport:
    """Replay a recorded FS-op trace against the persistence model.

    Args:
        trace: an :class:`FSOpRecorder`, a payload dict from
            :meth:`FSOpRecorder.to_payload`, or a raw :class:`FSOp`
            list (replayed as one anonymous store domain).
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
    elif isinstance(trace, dict):
        ops = ops_from_payload(trace)
        domains = list(trace.get("roots") or ["."])
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
