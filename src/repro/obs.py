"""The one hook slot: who is watching the byte-moving layers.

The byte-moving layers never name a checker.  At a checked site (all
of them in ``storage``) they name an *event* — ``if obs._ACTIVE:
obs.emit(...)`` — and a switchable witness subscribes to it,
implementing ``on_<event>`` for the events it cares about.  This
module has no dependencies, so everyone can import it at module scope.

Roles, in delivery order (:data:`ROLES`): ``fs``, the FS-op recorder,
then ``sched``, the interleaving scheduler.  The order is fixed because
the sites rely on it: the scheduler yields *after* an FS op was
recorded (trace order == effect order).  Per role the innermost
activation wins; subscribing ``None`` masks a role for the enclosed
block.

Events, with their arguments: ``lock_enter`` / ``lock_exit``
``(lock)``; ``access (lock, resource, item, write)`` for guarded state;
``wait (resource, ready)`` before blocking on a peer; ``fs_op (kind,
root, rel, dst, data)`` for a store file effect.

Cost model: when nothing is subscribed every hook site is a single
module-global load plus a truthiness check — the zero-when-off contract
``benchmarks/test_interleave_overhead.py`` gates.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Dict, Iterator, List, Optional, Tuple

ROLES = ("fs", "sched")

_ACTIVE: Tuple[object, ...] = ()
"""Each role's innermost subscriber in :data:`ROLES` order; ``()`` when
nothing is on (the common case, and all a hook site checks)."""

_STACKS: Dict[str, List[Optional[object]]] = {role: [] for role in ROLES}
_MU = threading.Lock()


def _rebuild() -> None:  # holds: _MU
    global _ACTIVE
    tops = (_STACKS[role][-1] for role in ROLES if _STACKS[role])
    # replaced, never mutated: a racing emit sees the old or the new tuple
    _ACTIVE = tuple(sub for sub in tops if sub is not None)


def emit(event: str, *args) -> None:
    """Deliver one event to every active subscriber that handles it
    (the subscriber's ``on_<event>`` method, called with ``args``)."""
    for subscriber in _ACTIVE:
        handler = getattr(subscriber, "on_" + event, None)
        if handler is not None:
            handler(*args)


def current(role: str) -> Optional[object]:
    """The innermost subscriber of ``role``, or ``None``."""
    stack = _STACKS[role]
    return stack[-1] if stack else None


@contextlib.contextmanager
def subscribed(role: str, subscriber: Optional[object]) -> Iterator[None]:
    """Subscribe ``subscriber`` under ``role`` for the enclosed block.

    Activations of one role stack and the innermost receives the events;
    the slot is restored on exit, exception or not, from any thread.
    """
    stack = _STACKS[role]
    with _MU:
        stack.append(subscriber)
        _rebuild()
    try:
        yield
    finally:
        with _MU:
            for i in range(len(stack) - 1, -1, -1):
                if stack[i] is subscriber:
                    del stack[i]
                    break
            _rebuild()


class WitnessedLock:
    """A named lock that reports acquire and release to the slot.

    Drop-in for ``threading.Lock`` in ``with`` statements; the
    interleaving scheduler is what listens.
    """

    __slots__ = ("name", "_inner")

    def __init__(self, name: str) -> None:
        self.name = name
        self._inner = threading.Lock()

    def __repr__(self) -> str:
        return f"WitnessedLock({self.name!r})"

    def __enter__(self) -> "WitnessedLock":
        if _ACTIVE:
            # under the interleaving explorer the thread parks here and
            # is dispatched only once the lock is free in the scheduler's
            # model, so the real acquire below can never block
            emit("lock_enter", self)
        self._inner.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if _ACTIVE:
            # reported while still holding the lock, so a competing
            # acquire always sequences after the release event
            emit("lock_exit", self)
        self._inner.release()

    def acquire(self) -> bool:
        """Bare acquire (prefer ``with``); reported like ``__enter__``."""
        self.__enter__()
        return True

    def release(self) -> None:
        """Bare release counterpart of :meth:`acquire`."""
        self.__exit__(None, None, None)


def make_lock(name: str) -> WitnessedLock:
    """A :class:`WitnessedLock`; the one lock factory instrumented code uses."""
    return WitnessedLock(name)
