"""Scheduler hook registry for the interleaving explorer.

The cooperative scheduler (:mod:`repro.analysis.interleave`) does not
instrument code itself — it reuses the yield points the runtime
checkers already own: :class:`~repro.analysis.lockwitness.WitnessedLock`
acquire/release, the source-file table's accessor hooks behind UCP030, and
the :class:`~repro.analysis.fswitness.FSOpRecorder` store-op hooks.
Those modules cannot import :mod:`repro.analysis.interleave` (it
imports them), so the one shared global lives here, in a module with
no dependencies that everyone can import at module scope.

Cost model: when no controller is installed every hook site is a
single module-global load plus a ``None`` check — the same
zero-when-off contract as the sanitizer and the lock witness, and the
property ``benchmarks/test_interleave_overhead.py`` gates.
"""

from __future__ import annotations

from typing import Optional

_CONTROLLER: Optional[object] = None
"""The active cooperative scheduler, or None (the common case)."""


def controller() -> Optional[object]:
    """The installed controller, or None when no exploration is live."""
    return _CONTROLLER


def install(ctl: object) -> None:
    """Install ``ctl`` as the active controller (one at a time).

    Nested explorations are a programming error — a controlled thread
    reaching a second scheduler could deadlock both — so installation
    over a live controller raises instead of stacking.
    """
    global _CONTROLLER
    if _CONTROLLER is not None and _CONTROLLER is not ctl:
        raise RuntimeError(
            "an interleaving controller is already installed; "
            "nested explorations are not supported"
        )
    _CONTROLLER = ctl


def uninstall(ctl: object) -> None:
    """Remove ``ctl``; a no-op if something else is installed."""
    global _CONTROLLER
    if _CONTROLLER is ctl:
        _CONTROLLER = None
