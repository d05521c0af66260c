"""MemorySanitizer: buffer-ownership checks for the simulated cluster.

`repro.dist` simulates NCCL in a single Python process, so the address-
space isolation real DeepSpeed ranks get for free does not exist here: a
single missing ``.copy()`` lets rank 3 silently mutate rank 0's fp32
partition, or lets a CheckFreq-style background persist write state the
engine has already advanced past.  The resulting files are internally
*consistent* — manifests, digests, and the byte-provenance checker all
pass — which is exactly what makes this bug class invisible to every
analyzer below this one.

This module is the runtime half of the defense (the static half is
:mod:`repro.analysis.srclint`).  It tracks ndarray *base-buffer*
ownership per simulated rank, write-protects buffers that cross an
isolation boundary, and reports violations through the standard
:class:`~repro.analysis.diagnostics.LintReport` machinery:

========  =============================  =====================================
rule      name                           boundary
========  =============================  =====================================
UCP025    cross-rank-writable-aliasing   collectives / engine rank partitions
UCP026    snapshot-aliases-live-state    CheckFreq snapshots, Gemini replicas
========  =============================  =====================================

Activation
----------

The sanitizer is a context manager::

    from repro.analysis.sanitizer import sanitize

    with sanitize(strict=True) as san:
        engine.train(5)
        engine.save_checkpoint(ckpt)

subscribed to the one hook slot (:mod:`repro.obs`, role ``"mem"``; the
``on_<event>`` handlers below receive what the instrumented sites name
there, and the off-mode cost is that module's).  ``REPRO_SANITIZE=1``
makes the test suite's session fixture (``tests/conftest.py``) wrap the
whole tier-1 run in a strict sanitizer *and* a strict lock witness.

Escape hatches: :meth:`MemorySanitizer.claim` returns a writable private
copy of a protected array (ownership transfer by copy — always safe);
:meth:`MemorySanitizer.thaw` re-enables writes *in place* and records
the buffer as deliberately unprotected so later scans do not flag it.
"""

from __future__ import annotations

import contextlib
import os
import threading
import weakref
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.analysis.diagnostics import (
    Diagnostic,
    LayoutLintError,
    LintReport,
    error,
)

ENV_VAR = "REPRO_SANITIZE"
"""Set to ``1`` to run the test session checked (the one switch)."""


class SanitizerError(LayoutLintError):
    """A memory-sanitizer check found error-severity violations."""

    def __init__(self, report: LintReport) -> None:
        super().__init__(report, prefix="memory sanitizer violation")


def _root(arr: np.ndarray):
    """The object ultimately owning an ndarray's memory.

    Follows the ``.base`` chain through views; the terminal object may
    be an ndarray (owns its data) or an exporting buffer (``bytes``,
    ``memoryview`` — the ``np.frombuffer`` case).  Two arrays alias iff
    they reach the same root object.
    """
    node = arr
    while isinstance(node, np.ndarray) and node.base is not None:
        node = node.base
    return node


def _writable(arr: np.ndarray) -> bool:
    return bool(arr.flags.writeable)


def zero_state_arrays(zero) -> Iterable[Tuple[str, np.ndarray]]:
    """``(rank-label:kind, array)`` pairs over a ZeroOptimizer's state.

    Duck-typed (``partitions``/``fp32``/``state``) so this module never
    imports :mod:`repro.parallel` — the sanitizer sits above the
    runtime in the layering, not beside it.
    """
    for coord in sorted(zero.partitions):
        pp, sp, tp = coord
        for d, part in enumerate(zero.partitions[coord]):
            label = f"pp{pp}.sp{sp}.tp{tp}/dp{d}"
            yield f"{label}:fp32", part.fp32
            yield f"{label}:exp_avg", part.state.exp_avg
            yield f"{label}:exp_avg_sq", part.state.exp_avg_sq


def replica_arrays(staged) -> Iterable[Tuple[str, np.ndarray]]:
    """``(rank-label@host:kind, array)`` pairs over an in-memory
    commit's staged replica map (``(coord, dp_rank) -> [replica]``)."""
    for (coord, dp_rank), replicas in staged.items():
        pp, sp, tp = coord
        base = f"pp{pp}.sp{sp}.tp{tp}/dp{dp_rank}"
        for r in replicas:
            yield f"{base}@host{r.host_rank}:fp32", r.fp32
            yield f"{base}@host{r.host_rank}:exp_avg", r.exp_avg
            yield f"{base}@host{r.host_rank}:exp_avg_sq", r.exp_avg_sq


def model_param_arrays(engine) -> Iterable[Tuple[str, np.ndarray]]:
    """``(param-label, array)`` pairs over an engine's model parameters.

    Labels embed the model-parallel coordinates whose shard layout
    covers the parameter (the engine's per-rank shard enumeration), so
    a finding names the simulated ranks whose training steps would
    write through the alias.  Duck-typed like :func:`zero_state_arrays`
    (``model.named_parameters``/``layout.rank_layout``).
    """
    shard_owners: Dict[str, List[str]] = {}
    for pp, sp, tp in engine.layout.mp_coords():
        for entry in engine.layout.rank_layout(pp, sp, tp).entries:
            shard_owners.setdefault(entry.name, []).append(
                f"pp{pp}.sp{sp}.tp{tp}"
            )
    for name, param in engine.model.named_parameters():
        owners = ",".join(shard_owners.get(name, ())) or "unsharded"
        yield f"model/{name}[{owners}]", param.data


class MemorySanitizer:
    """Tracks buffer ownership across the simulation's isolation boundaries.

    Args:
        strict: raise :class:`SanitizerError` at the first error-severity
            violation (the CI mode).  ``False`` accumulates findings in
            :attr:`report` for inspection (the injection-test mode).
        subject: label for the report header.
    """

    def __init__(self, strict: bool = True, subject: str = "memory-sanitizer") -> None:
        self.strict = strict
        self.report = LintReport(subject=subject)
        self.checks = 0
        self._lock = threading.Lock()
        # snapshot label -> [(weakref, state key, root id at capture)]
        self._snapshots: Dict[str, List[Tuple[weakref.ref, str, int]]] = {}  # guarded-by: self._lock
        # root ids deliberately un-protected via thaw()
        self._thawed: set = set()  # guarded-by: self._lock

    # --- violation plumbing ------------------------------------------

    def _violation(self, diag: Diagnostic) -> None:
        with self._lock:
            self.report.add(diag)
        if self.strict and diag.severity == "error":
            raise SanitizerError(LintReport(self.report.subject, [diag]))

    # --- collective boundary (UCP025) --------------------------------

    def on_collective(
        self,
        op: str,
        group_name: Optional[str],
        ranks: Sequence[int],
        inputs: Sequence[np.ndarray],
        outputs: Sequence[np.ndarray],
        reduce_op: str = "",
    ) -> List[Diagnostic]:
        """Check one collective's per-rank results for writable aliasing.

        NCCL semantics: every member receives a *private* buffer (the
        in-place case — a rank's own output aliasing its own input — is
        allowed).  Two ranks sharing one writable buffer, or a rank's
        output aliasing another rank's input, is the missing-``.copy()``
        bug (UCP025).  Read-only sharing is permitted: frozen broadcast
        fan-out is safe by construction.  A groupless call (``None``)
        is named by its op.
        """
        self.checks += 1
        if group_name is None:
            group_name = op
        found: List[Diagnostic] = []
        outs = [np.asarray(o) for o in outputs]
        roots = [id(_root(o)) for o in outs]
        first_for_root: Dict[int, int] = {}
        for i, (out, rid) in enumerate(zip(outs, roots)):
            if not _writable(out):
                continue
            j = first_for_root.setdefault(rid, i)
            if j != i:
                found.append(error(
                    "UCP025",
                    f"{op} on group {group_name!r}: ranks {ranks[j]} and "
                    f"{ranks[i]} received writable views of one buffer "
                    f"(missing per-rank copy); a write by either corrupts "
                    f"the other",
                    location=f"{group_name}:{op}",
                ))
        in_roots: Dict[int, int] = {}
        for j, arr in enumerate(inputs):
            in_roots.setdefault(id(_root(np.asarray(arr))), j)
        for i, (out, rid) in enumerate(zip(outs, roots)):
            j = in_roots.get(rid)
            if j is not None and j != i and _writable(out):
                found.append(error(
                    "UCP025",
                    f"{op} on group {group_name!r}: rank {ranks[i]}'s result "
                    f"is a writable alias of rank "
                    f"{ranks[j] if j < len(ranks) else j}'s input buffer",
                    location=f"{group_name}:{op}",
                ))
        for diag in found:
            self._violation(diag)
        return found

    # --- snapshot boundary (UCP026) ----------------------------------

    def on_snapshot_capture(self, label: str, captured_zero, live_zero) -> None:
        """Slot handler: a CheckFreq capture of ``live_zero`` was taken."""
        live = zero_state_arrays(live_zero)
        self.guard_snapshot(label, zero_state_arrays(captured_zero), live)

    def on_snapshot_persist(self, label: str, live_zero) -> None:
        """Slot handler: capture ``label`` is about to be written out."""
        self.verify_snapshot(label, zero_state_arrays(live_zero))

    def on_replica_commit(self, label: str, staged, live_zero) -> None:
        """Slot handler: an in-memory commit staged its peer replicas."""
        self.guard_snapshot(
            label, replica_arrays(staged), zero_state_arrays(live_zero)
        )

    def guard_snapshot(
        self,
        label: str,
        captured: Iterable[Tuple[str, np.ndarray]],
        live: Iterable[Tuple[str, np.ndarray]],
    ) -> List[Diagnostic]:
        """Register a point-in-time capture and check it against live state.

        Every captured array must be backed by memory disjoint from the
        live engine state (else a later training step leaks into the
        persisted files — UCP026).  Clean captures are write-protected
        so the background persist writes exactly the captured bytes.
        """
        self.checks += 1
        live_roots: Dict[int, str] = {}
        for key, arr in live:
            live_roots.setdefault(id(_root(arr)), key)
        found: List[Diagnostic] = []
        entries: List[Tuple[weakref.ref, str, int]] = []
        for key, arr in captured:
            rid = id(_root(arr))
            live_key = live_roots.get(rid)
            if live_key is not None:
                found.append(error(
                    "UCP026",
                    f"snapshot {label!r}: captured state {key} aliases live "
                    f"engine state {live_key}; training past the snapshot "
                    f"instant would leak into the persisted files",
                    location=f"{label}:{key}",
                ))
            else:
                arr.setflags(write=False)
                entries.append((weakref.ref(arr), key, rid))
        with self._lock:
            # prune snapshots whose arrays are all gone (superseded
            # commits), keeping the registry bounded over long runs
            for old in [
                lbl for lbl, ents in self._snapshots.items()
                if all(ref() is None for ref, _, _ in ents)
            ]:
                del self._snapshots[old]
            self._snapshots[label] = entries
        for diag in found:
            self._violation(diag)
        return found

    def verify_snapshot(
        self, label: str, live: Iterable[Tuple[str, np.ndarray]]
    ) -> List[Diagnostic]:
        """Re-check a registered capture at persist time (UCP026).

        Training may have advanced arbitrarily since the capture; the
        snapshot buffers must still be disjoint from the live state and
        still write-protected (unless explicitly :meth:`thaw`-ed).
        """
        self.checks += 1
        live_roots: Dict[int, str] = {}
        for key, arr in live:
            live_roots.setdefault(id(_root(arr)), key)
        found: List[Diagnostic] = []
        with self._lock:
            entries = list(self._snapshots.get(label, ()))
            thawed = set(self._thawed)
        for ref, key, rid in entries:
            arr = ref()
            if arr is None:
                continue
            live_key = live_roots.get(id(_root(arr)))
            if live_key is not None:
                found.append(error(
                    "UCP026",
                    f"snapshot {label!r}: state {key} aliases live engine "
                    f"state {live_key} at persist time; the files would "
                    f"record post-snapshot training",
                    location=f"{label}:{key}",
                ))
            elif _writable(arr) and rid not in thawed:
                found.append(error(
                    "UCP026",
                    f"snapshot {label!r}: write protection of {key} was "
                    f"removed before the background persist completed",
                    location=f"{label}:{key}",
                ))
        for diag in found:
            self._violation(diag)
        return found

    # --- engine sweep (UCP025) ---------------------------------------

    def check_engine(self, engine, context: str = "") -> List[Diagnostic]:
        """Sweep an engine's per-rank state for isolation violations.

        Two simulated ranks sharing one writable base buffer is UCP025.
        Model-parameter buffers are swept too: a parameter whose memory
        aliases a rank's optimizer partition writes through every
        ``sync_model_from_masters`` — the cross-rank alias the shard
        enumeration labels with its owning mp coordinates.
        """
        self.checks += 1
        where = f"{context}: " if context else ""
        found: List[Diagnostic] = []
        owners: Dict[int, Tuple[str, str]] = {}
        for key, arr in zero_state_arrays(engine.zero):
            rank_label = key.split(":", 1)[0]
            rid = id(_root(arr))
            if not _writable(arr):
                continue
            prev = owners.get(rid)
            if prev is not None and prev[0] != rank_label:
                found.append(error(
                    "UCP025",
                    f"{where}simulated ranks {prev[0]} and {rank_label} "
                    f"share one writable base buffer ({prev[1]} aliases "
                    f"{key})",
                    location=key,
                ))
            else:
                owners.setdefault(rid, (rank_label, key))
        for key, arr in model_param_arrays(engine):
            rid = id(_root(arr))
            if not _writable(arr):
                continue
            prev = owners.get(rid)
            if prev is not None:
                found.append(error(
                    "UCP025",
                    f"{where}model parameter {key} is a writable alias of "
                    f"rank state {prev[1]}: a parameter write on the "
                    f"sharing ranks silently rewrites another rank's "
                    f"optimizer partition",
                    location=key,
                ))
        for diag in found:
            self._violation(diag)
        return found

    on_engine_loaded = check_engine  # the UCP loader's event

    # --- escape hatches ----------------------------------------------

    def claim(self, arr: np.ndarray) -> np.ndarray:
        """Ownership transfer by copy: a writable private copy of ``arr``."""
        return np.array(arr)

    def thaw(self, arr: np.ndarray) -> np.ndarray:
        """Deliberately re-enable writes on a protected array, in place.

        The buffer is recorded so the persist-time re-check (UCP026)
        does not flag it; the caller takes responsibility for every
        alias of it.
        """
        with self._lock:
            self._thawed.add(id(_root(arr)))
        arr.setflags(write=True)
        return arr


# --- activation --------------------------------------------------------


def current() -> Optional[MemorySanitizer]:
    """The innermost active sanitizer, or ``None``."""
    return obs.current("mem")


def enabled_from_env() -> bool:
    """Whether ``REPRO_SANITIZE`` requests a checked run."""
    return os.environ.get(ENV_VAR, "") not in ("", "0")


@contextlib.contextmanager
def sanitize(strict: bool = True, subject: str = "memory-sanitizer"):
    """Activate a :class:`MemorySanitizer` for the enclosed block.

    Nested activations stack; hooks always report to the innermost one,
    so an injection test may run its own permissive sanitizer inside a
    strict session-wide one.
    """
    san = MemorySanitizer(strict=strict, subject=subject)
    with obs.subscribed("mem", san):
        yield san


def check_engine_isolation(engine) -> LintReport:
    """Standalone rank-isolation sweep of one engine (UCP025), on a
    fresh permissive sanitizer — no activation ceremony."""
    san = MemorySanitizer(strict=False, subject="engine-isolation")
    san.check_engine(engine)
    return san.report
