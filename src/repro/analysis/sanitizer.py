"""MemorySanitizer: buffer-ownership checks for the simulated cluster.

`repro.dist` simulates NCCL in a single Python process, so the address-
space isolation real DeepSpeed ranks get for free does not exist here: a
single missing ``.copy()`` lets rank 3 silently mutate rank 0's fp32
partition, or lets a loaded engine's parameters write through another
rank's optimizer state.  The resulting files are internally
*consistent* — manifests, digests, and the byte-provenance checker all
pass — which is exactly what makes this bug class invisible to every
analyzer below this one.

This module is the runtime half of the defense (the static half is
:mod:`repro.analysis.srclint`).  It tracks ndarray *base-buffer*
ownership per simulated rank and reports violations through the
standard :class:`~repro.core.diagnostics.LintReport` machinery:

========  =============================  =====================================
rule      name                           boundary
========  =============================  =====================================
UCP025    cross-rank-writable-aliasing   collectives / engine rank partitions
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
whole tier-1 run in a strict sanitizer.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.diagnostics import (
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
