"""Deterministic interleaving explorer for the threaded IO layer.

A threaded test checks the *one* schedule the OS happened to run.  The
concurrency claims the commit pool
(:class:`~repro.storage.store.CommitPool`) and the source-file table
(:mod:`repro.storage.rangeio`) rest on are quantified over *all*
schedules, so this module explores the schedule *space*: a cooperative
scheduler runs a scenario's threads one at a time, switching only at
instrumented yield points, and a DFS explorer with dynamic partial-order
reduction and a preemption bound drives the scenario through every
inequivalent schedule it can afford, checking per-schedule invariants.

The scheduler does not instrument code itself: its :class:`Controller`
subscribes to the one hook slot (:mod:`repro.obs`, role ``"sched"`` —
delivered after the FS recorder, before the sanitizer) and yields at
the events the byte-moving layers already name there:

* :class:`~repro.obs.WitnessedLock` acquire/release,
* the source-file table's (``BlockCache``) guarded accesses (carrying
  a read/write flag),
* a conversion worker's wait on a peer's file load
  (:meth:`Controller.on_wait`: runnable again once the future is done),
* every store file op — with or without an FS recorder active,
* explicit :func:`access` calls for scenario-declared shared state.

Per-schedule invariants and the rules they report:

========  ==============================  ================================
rule      name                            finding
========  ==============================  ================================
UCP036    schedule-dependent-divergence   a schedule whose output
                                          fingerprint differs from the
                                          serial reference — reported
                                          with both schedules' yield
                                          traces and a delta-shrunk
                                          minimal counterexample
UCP037    deadlock-schedule               an all-blocked state, with the
                                          wait cycle and the acquisition
                                          stacks of every held lock
UCP038    unsynchronized-access-pair      two accesses to one resource
                                          from different threads with no
                                          common lock and no
                                          happens-before edge at
                                          yield-point granularity
UCP039    bounded-exploration             the schedule cap or preemption
                                          bound was hit; counts reported
                                          (a bounded run never silently
                                          passes as exhaustive)
========  ==============================  ================================

The reduction is race-reversal DPOR: after each executed schedule the
explorer finds racing pairs — adjacent-concurrent dependent events from
different threads — and queues a schedule that reverses each pair at
the branch point where the earlier event was chosen.  Two events are
dependent when they touch the same resource with at least one write,
or when they acquire the same lock while at least one holder nests it
under another lock (the shape that can create a wait cycle).  Lock
acquisitions whose critical sections touch no conflicting state are
treated as independent, which is what keeps real IO scenarios — where
every cache hit takes the same lock — tractable.

Everything is deterministic: thread names are fixed (``T0``, ``T1``,
...), schedules are branch-choice lists, the DFS order is sorted, and
:meth:`ExploreReport.to_json` is byte-stable for one seed/schedule.
``repro explore`` is the CLI entry; ``--schedule FILE`` replays one
exact schedule, which is how a UCP036/UCP037 minimal counterexample is
reproduced.
"""

from __future__ import annotations

import collections
import concurrent.futures
import dataclasses
import errno
import hashlib
import itertools
import json
import os
import tempfile
import threading
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.analysis.diagnostics import (
    Diagnostic,
    LintReport,
    error,
    warning,
)
from repro.analysis.fswitness import label_path

DEFAULT_SCHEDULE_CAP = 256
"""Executed-schedule budget per exploration (UCP039 when exceeded)."""

DEFAULT_MAX_STEPS = 100_000
"""Per-schedule step budget; past it the run is treated as divergent
non-termination and the exploration raises :class:`ExploreError`."""

DEFAULT_SHRINK_BUDGET = 64
"""Extra runs the delta-shrinker may spend per counterexample."""

_TRACE_LIMIT = 400
"""Events kept per serialized yield trace in reports (head)."""

_STACK_FRAMES = 10
"""Frames kept per recorded acquisition stack."""


class ExploreError(Exception):
    """The exploration itself is misconfigured (bad scenario, bad
    schedule file, step-budget blowout) — distinct from a *finding*."""


class _Abort(BaseException):
    """Unwinds a controlled thread when the scheduler cancels a run.

    A ``BaseException`` so scenario code's ``except Exception`` blocks
    cannot swallow the unwind.
    """


def _capture_stack(skip: int) -> Tuple[str, ...]:
    """Compact acquisition stack minus the ``skip`` innermost frames:
    innermost-last ``file:line in fn`` (the hook slot's own frames never
    count: a handler reached through ``obs.emit`` sees the stack a
    direct call from the site would)."""
    frames = [
        f for f in traceback.extract_stack() if f.filename != obs.__file__
    ][:-skip]
    return tuple(
        f"{f.filename.rsplit('/', 1)[-1]}:{f.lineno} in {f.name}"
        for f in frames[-_STACK_FRAMES:]
    )


def _fmt_stack(stack: Tuple[str, ...]) -> str:
    return " <- ".join(reversed(stack[-4:])) if stack else "<no stack>"


# --- events and per-run results ----------------------------------------


@dataclasses.dataclass(frozen=True)
class Event:
    """One executed yield point.

    ``key`` is the dependency identity (lock uid / resource / path);
    ``resource`` is the display name.  ``branch`` is the index into the
    run's branch-choice list when >1 thread was runnable at this step,
    else ``-1``; ``runnable`` records which threads were runnable.
    """

    seq: int
    thread: int
    name: str
    kind: str  # start | acquire | release | access | fs | wait
    resource: str
    key: str
    write: bool
    held: Tuple[str, ...]
    branch: int
    runnable: Tuple[int, ...]

    def to_row(self) -> List:
        """Compact JSON trace row: seq, thread, kind, resource, r/w, held."""
        return [
            self.seq, self.name, self.kind, self.resource,
            "w" if self.write else "r", list(self.held),
        ]


@dataclasses.dataclass
class _Deadlock:
    """An all-blocked state: who waits for what, and who holds it."""

    waiters: List[Dict]  # [{thread, wants, owner, stack, owner_stack}]

    def cycle_key(self) -> frozenset:
        return frozenset(
            (w["thread"], w["wants"], w["owner"]) for w in self.waiters
        )

    def describe(self) -> str:
        hops = []
        for w in self.waiters:
            hops.append(
                f"thread {w['thread']!r} waits for {w['wants']!r} held by "
                f"{w['owner']!r} (blocked at [{w['stack']}]; owner "
                f"acquired it at [{w['owner_stack']}])"
            )
        return "; ".join(hops)


@dataclasses.dataclass
class RunResult:
    """Everything one controlled execution produced."""

    choices: List[int]
    trace: List[Event]
    deadlock: Optional[_Deadlock]
    fingerprint: Optional[str]
    preemptions: int
    bound_exceeded: bool
    sanitizer_errors: List[Diagnostic]


# --- the cooperative scheduler -----------------------------------------


class _TState:
    """One controlled thread's scheduling state."""

    __slots__ = (
        "index", "name", "thread", "go", "parked", "done", "aborting",
        "pending", "error",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.name = f"T{index}"
        self.thread: Optional[threading.Thread] = None
        self.go = threading.Event()
        self.parked = False
        self.done = False
        self.aborting = False
        # (kind, resource, key, write, lock_obj, stack)
        self.pending: Optional[Tuple] = None
        self.error: Optional[BaseException] = None


class Controller:
    """Cooperative scheduler: one controlled thread runs at a time.

    Controlled threads park at every yield point; the scheduler (the
    spawning thread) picks which parked thread proceeds.  Lock
    ownership is modeled by the scheduler itself — a thread whose
    pending acquire targets a lock owned by another controlled thread
    is not runnable — so the real lock acquire that follows a dispatch
    can never block, and an all-blocked state is *detected and
    reported* (UCP037) instead of hanging the process.
    """

    def __init__(
        self,
        n_threads: int,
        forced: Sequence[int],
        preemption_bound: Optional[int],
        max_steps: int,
    ) -> None:
        self.order = [_TState(i) for i in range(n_threads)]
        self._by_ident: Dict[int, _TState] = {}
        self._forced = list(forced)
        self._pbound = preemption_bound
        self._max_steps = max_steps
        self._back = threading.Event()
        self._abort = False
        self._finished = False
        self.trace: List[Event] = []
        self.choices: List[int] = []
        self.preemptions = 0
        self.bound_exceeded = False
        self.deadlock: Optional[_Deadlock] = None
        # scheduler-side lock model (only the scheduler mutates these)
        self._owner: Dict[int, _TState] = {}  # id(lock) -> holder
        self._held: Dict[_TState, List[object]] = {}
        self._lock_uids: Dict[int, str] = {}
        self._acq_stacks: Dict[Tuple[int, int], str] = {}
        self._fs_roots: Dict[str, str] = {}  # store root -> s0, s1, ...

    # --- controlled-thread side (slot handlers) ----------------------

    def _state(self) -> Optional[_TState]:
        return self._by_ident.get(threading.get_ident())

    def _park(self, ts: _TState, pending: Tuple) -> None:
        ts.pending = pending
        ts.parked = True
        self._back.set()
        ts.go.wait()
        ts.go.clear()
        if self._abort:
            ts.aborting = True
            raise _Abort()

    def _yield(self, kind, resource, key="", write=False, obj=None, skip=0) -> None:
        """Park the calling thread at one yield point (a no-op off the
        controlled threads and once the run is over); ``skip`` > 0 also
        records where, minus that many innermost frames."""
        ts = self._state()
        if ts is None or ts.aborting or self._finished:
            return
        stack = ""
        if skip:
            stack = _fmt_stack(_capture_stack(skip))
        self._park(ts, (kind, resource, key, write, obj, stack))

    def on_lock_enter(self, lock) -> None:
        """``WitnessedLock.__enter__``, before the real acquire."""
        self._yield("acquire", lock.name, obj=lock, skip=3)

    def on_lock_exit(self, lock) -> None:
        """``WitnessedLock.__exit__``, before the real release."""
        self._yield("release", lock.name, obj=lock)

    def on_access(self, lock, resource: str, item=None, write=False) -> None:
        """A guarded-state access (keyed per ``item`` where the
        container's entries are independent), or :func:`access`."""
        if item is not None:
            resource = f"{resource}[{item}]"
        self._yield("access", resource, resource, write)

    def on_fs_op(self, kind: str, root: str, rel: str, dst=None, data=None) -> None:
        """A store file effect, already performed (and, with an FS
        recorder active, already recorded)."""
        if self._state() is None:
            return  # only the controlled threads (one at a time) label
        path = label_path(self._fs_roots, root, rel)
        write = kind in ("write", "rename", "unlink")
        self._yield("fs", f"{kind}:{path}", path, write)

    def on_wait(self, resource: str, ready: Callable[[], bool]) -> None:
        """Before a blocking wait on a peer (a future): the thread
        is runnable again once ``ready()`` holds, so the real wait that
        follows a dispatch can never block."""
        self._yield("wait", resource, resource, obj=ready, skip=4)

    # --- scheduler side ----------------------------------------------

    def _uid(self, lock) -> str:
        uid = self._lock_uids.get(id(lock))
        if uid is None:
            uid = f"{lock.name}#{len(self._lock_uids)}"
            self._lock_uids[id(lock)] = uid
        return uid

    def _enabled(self, ts: _TState) -> bool:
        if not ts.parked or ts.pending is None:
            return False
        kind, _, _, _, lock, _ = ts.pending
        if kind == "wait":
            return lock()  # the ``ready`` predicate rides in the lock slot
        if kind != "acquire":
            return True
        owner = self._owner.get(id(lock))
        return owner is None or owner is ts

    def _held_names(self, ts: _TState) -> Tuple[str, ...]:
        return tuple(self._uid(lk) for lk in self._held.get(ts, ()))

    def _dispatch(self, ts: _TState) -> None:
        ts.parked = False
        ts.go.set()
        self._back.wait()
        self._back.clear()

    def _await_all_parked(self) -> None:
        while True:
            if all(ts.done or ts.parked for ts in self.order):
                return
            self._back.wait()
            self._back.clear()

    def _abort_all(self) -> None:
        self._abort = True
        live = [ts for ts in self.order if not ts.done]
        for ts in live:
            ts.go.set()
        for ts in live:
            if ts.thread is not None:
                ts.thread.join()

    def _wait_cycle(self) -> _Deadlock:
        waiters = []
        for ts in sorted(
            (t for t in self.order if not t.done), key=lambda t: t.index
        ):
            kind, resource, _, _, lock, stack = ts.pending
            if kind == "wait":
                waiters.append({
                    "thread": ts.name, "wants": resource, "owner": "?",
                    "stack": stack, "owner_stack": "<unknown>",
                })
                continue
            owner = self._owner.get(id(lock))
            # keyed by the lock *name*, not the per-run uid: the same
            # wait cycle found via two schedules must dedupe to one
            # finding even though first-touch uid numbering differs
            waiters.append({
                "thread": ts.name,
                "wants": lock.name,
                "owner": owner.name if owner else "?",
                "stack": stack,
                "owner_stack": self._acq_stacks.get(
                    (owner.index if owner else -1, id(lock)), "<unknown>"
                ),
            })
        return _Deadlock(waiters=waiters)

    def run(self, thread_fns: Sequence[Callable[[], None]]) -> None:
        """Execute the scenario threads under the forced schedule."""
        for ts, fn in zip(self.order, thread_fns):
            ts.thread = threading.Thread(
                target=self._thread_main, args=(ts, fn),
                name=ts.name, daemon=True,
            )
        for ts in self.order:
            ts.thread.start()
        self._await_all_parked()
        prev: Optional[_TState] = None
        steps = 0
        try:
            while True:
                live = [ts for ts in self.order if not ts.done]
                if not live:
                    break
                runnable = [ts for ts in live if self._enabled(ts)]
                if not runnable:
                    self.deadlock = self._wait_cycle()
                    self._abort_all()
                    break
                if len(runnable) > 1:
                    branch = len(self.choices)
                    if branch < len(self._forced):
                        want = self._forced[branch]
                        chosen = next(
                            (t for t in runnable if t.index == want), None
                        )
                        if chosen is None:
                            raise ExploreError(
                                f"schedule chooses T{want} at branch "
                                f"{branch}, but only "
                                f"{[t.name for t in runnable]} are runnable"
                            )
                    elif prev is not None and prev in runnable:
                        chosen = prev
                    else:
                        chosen = runnable[0]
                    self.choices.append(chosen.index)
                else:
                    branch = -1
                    chosen = runnable[0]
                if (
                    prev is not None
                    and chosen is not prev
                    and prev in runnable
                ):
                    self.preemptions += 1
                    if (
                        self._pbound is not None
                        and self.preemptions > self._pbound
                    ):
                        self.bound_exceeded = True
                        self._abort_all()
                        break
                self._record(chosen, branch, runnable)
                steps += 1
                if steps > self._max_steps:
                    self._abort_all()
                    raise ExploreError(
                        f"schedule exceeded {self._max_steps} steps; the "
                        f"scenario does not terminate under this schedule"
                    )
                self._dispatch(chosen)
                self._await_all_parked()
                prev = chosen
        finally:
            self._finished = True
            for ts in self.order:
                if ts.thread is not None:
                    ts.thread.join()
        for ts in self.order:
            if ts.error is not None:
                raise ExploreError(
                    f"thread {ts.name} raised under schedule "
                    f"{self.choices}: {ts.error!r}"
                ) from ts.error

    def _record(self, ts: _TState, branch: int, runnable: List[_TState]) -> None:
        kind, resource, key, write, lock, stack = ts.pending
        held = self._held_names(ts)
        if kind == "acquire":
            key = self._uid(lock)
            resource = key
            self._owner[id(lock)] = ts
            self._held.setdefault(ts, []).append(lock)
            self._acq_stacks[(ts.index, id(lock))] = stack
        elif kind == "release":
            key = self._uid(lock)
            resource = key
            held_list = self._held.get(ts, [])
            for i in range(len(held_list) - 1, -1, -1):
                if held_list[i] is lock:
                    del held_list[i]
                    break
            if not any(lk is lock for lk in held_list):
                self._owner.pop(id(lock), None)
        self.trace.append(Event(
            seq=len(self.trace),
            thread=ts.index,
            name=ts.name,
            kind=kind,
            resource=resource,
            key=key,
            write=write,
            held=held,
            branch=branch,
            runnable=tuple(t.index for t in runnable),
        ))

    def _thread_main(self, ts: _TState, fn: Callable[[], None]) -> None:
        self._by_ident[threading.get_ident()] = ts
        try:
            self._park(ts, ("start", f"thread:{ts.name}", "", False, None, ""))
            fn()
        except _Abort:
            pass
        except BaseException as exc:  # reported as ExploreError by run()
            ts.error = exc
        finally:
            ts.done = True
            ts.parked = False
            ts.pending = None
            self._back.set()


def access(resource: str, write: bool = False) -> None:
    """Declare one access to scenario-shared state (a yield point).

    Scenario and test code wraps its shared-state touches in this so
    the explorer sees them; outside a controlled run it costs one
    global load.  Unsynchronized conflicting pairs across threads are
    reported as UCP038.
    """
    if obs._ACTIVE:
        obs.emit("access", None, resource, None, write)


# --- dependency relation and race reversal -----------------------------


class _Dependence:
    """The dependency relation over one executed trace, by event index.

    Two events are dependent when reordering them could change the
    execution:

    * access/fs events on a common key with at least one write and
      **no common held lock** — a pair serialized by a shared lock
      cannot be reordered at the access itself, only by reversing the
      enclosing acquires, which the next clause covers;
    * same-lock acquires whose critical-section *footprints* conflict
      (both touch some resource, at least one writing) — reversing
      which thread enters the critical section first is the only
      scheduler-visible way to reorder lock-protected effects;
    * same-lock acquires where one side holds a lock the other thread
      also uses — the cross-nesting shape that can reverse into a
      wait cycle (ABBA), even when the sections share no data.

    Everything else commutes.  In particular a nesting lock private to
    one thread triggers neither acquire clause, which is what keeps
    lock-heavy IO scenarios explorable.
    """

    def __init__(self, events: Sequence[Event]) -> None:
        self.events = events
        self.locks_used: Dict[int, Set[str]] = {}
        # acquire event index -> {resource key: wrote}
        self.footprints: Dict[int, Dict[str, bool]] = {}
        open_frames: Dict[int, List[Tuple[str, int]]] = {}
        for idx, ev in enumerate(events):
            if ev.kind == "acquire":
                self.locks_used.setdefault(ev.thread, set()).add(ev.key)
                open_frames.setdefault(ev.thread, []).append((ev.key, idx))
                self.footprints[idx] = {}
            elif ev.kind == "release":
                frames = open_frames.get(ev.thread, [])
                for i in range(len(frames) - 1, -1, -1):
                    if frames[i][0] == ev.key:
                        del frames[i]
                        break
            elif ev.kind in ("access", "fs"):
                for _, acq_idx in open_frames.get(ev.thread, ()):
                    fp = self.footprints[acq_idx]
                    fp[ev.key] = fp.get(ev.key, False) or ev.write

    def __call__(self, i: int, j: int) -> bool:
        a, b = self.events[i], self.events[j]
        if a.thread == b.thread:
            return False
        if a.kind in ("access", "fs") and b.kind in ("access", "fs"):
            return (
                a.key == b.key
                and (a.write or b.write)
                and not (set(a.held) & set(b.held))
            )
        if a.kind == "acquire" and b.kind == "acquire" and a.key == b.key:
            fa = self.footprints.get(i, {})
            fb = self.footprints.get(j, {})
            for res, wrote_a in fa.items():
                wrote_b = fb.get(res)
                if wrote_b is not None and (wrote_a or wrote_b):
                    return True
            a_cross = set(a.held) & self.locks_used.get(b.thread, set())
            b_cross = set(b.held) & self.locks_used.get(a.thread, set())
            return bool(a_cross - {a.key} or b_cross - {b.key})
        return False


def _reversal_candidates(result: RunResult) -> List[Tuple[int, ...]]:
    """Forced-prefix schedules that reverse each racing pair.

    For each event ``e_j`` the latest earlier dependent event ``e_i``
    of each other thread is considered; the pair races when no
    intermediate event is dependent with both (which would order
    them).  The candidate replays the branch choices up to ``e_i``'s
    branch point and schedules ``e_j``'s thread there instead —
    possible only when it was runnable at that point.
    """
    events = result.trace
    dep = _Dependence(events)
    out: Set[Tuple[int, ...]] = set()
    for j, ej in enumerate(events):
        paired: Set[int] = set()  # threads whose latest racer is found
        for i in range(j - 1, -1, -1):
            ei = events[i]
            if ei.thread in paired or not dep(i, j):
                continue
            paired.add(ei.thread)
            ordered = False
            for k in range(i + 1, j):
                if dep(i, k) and dep(k, j):
                    ordered = True
                    break
            if ordered:
                continue
            if ei.branch >= 0 and ej.thread in ei.runnable:
                out.add(
                    tuple(result.choices[:ei.branch]) + (ej.thread,)
                )
    return sorted(out)


def clock_lte(a: Dict, b: Dict) -> bool:
    """Vector-clock partial order: ``a`` happened-before-or-equal ``b``
    (keys are thread ids)."""
    return all(count <= b.get(t, 0) for t, count in a.items())


def _hb_races(trace: List[Event]) -> List[Tuple]:
    """Unsynchronized conflicting access pairs in one executed schedule.

    Happens-before at yield-point granularity: program order plus
    lock release -> acquire hand-offs.  Two access/fs events on one
    key from different threads with at least one write, no common held
    lock, and vector-clock-concurrent are a UCP038 pair.
    """
    clocks: Dict[int, Dict[int, int]] = {}
    release_clock: Dict[str, Dict[int, int]] = {}
    last: Dict[str, Dict[int, Tuple[Dict[int, int], frozenset, Event]]] = {}
    races: List[Tuple] = []
    for ev in trace:
        clock = clocks.setdefault(ev.thread, {})
        clock[ev.thread] = clock.get(ev.thread, 0) + 1
        if ev.kind == "acquire":
            handoff = release_clock.get(ev.key)
            if handoff:
                for t, count in handoff.items():
                    if count > clock.get(t, 0):
                        clock[t] = count
        elif ev.kind == "release":
            release_clock[ev.key] = dict(clock)
        elif ev.kind in ("access", "fs"):
            write = ev.write
            held = frozenset(ev.held)
            for other, (oclock, oheld, oev) in last.get(ev.key, {}).items():
                if other == ev.thread:
                    continue
                if not (write or oev.write):
                    continue
                if held & oheld:
                    continue
                if clock_lte(oclock, clock) or clock_lte(clock, oclock):
                    continue
                races.append((ev.key, oev, ev))
            last.setdefault(ev.key, {})[ev.thread] = (
                dict(clock), held, ev
            )
    return races


# --- scenarios ---------------------------------------------------------


class RunCase:
    """One fresh execution of a scenario: thread bodies + fingerprint."""

    def __init__(
        self,
        threads: Sequence[Callable[[], None]],
        fingerprint: Optional[Callable[[], str]] = None,
        cleanup: Optional[Callable[[], None]] = None,
    ) -> None:
        if len(threads) < 2:
            raise ExploreError("a scenario needs at least two threads")
        self.threads = list(threads)
        self._fingerprint = fingerprint
        self._cleanup = cleanup

    def fingerprint(self) -> str:
        """Digest of the run's observable output (schedule-invariant)."""
        return self._fingerprint() if self._fingerprint else ""

    def cleanup(self) -> None:
        """Release per-run state after the schedule finishes."""
        if self._cleanup is not None:
            self._cleanup()


class Scenario:
    """A named, reproducible concurrency scenario.

    ``fresh()`` must return a :class:`RunCase` over *identical* initial
    state every time it is called — the explorer executes it once per
    schedule and compares fingerprints across runs.
    """

    name = "scenario"
    description = ""

    def fresh(self) -> RunCase:
        """Build one run over identical initial state (called per schedule)."""
        raise NotImplementedError


class _FnScenario(Scenario):
    def __init__(self, name: str, fresh: Callable[[], RunCase], description: str = "") -> None:
        self.name = name
        self.description = description
        self._fresh = fresh

    def fresh(self) -> RunCase:
        return self._fresh()


def scenario(
    name: str, fresh: Callable[[], RunCase], description: str = ""
) -> Scenario:
    """Build a scenario from a ``fresh()`` factory (test/CLI helper)."""
    return _FnScenario(name, fresh, description)


def _blob(seed: int, tag: str, nbytes: int) -> bytes:
    """Deterministic pseudo-random payload (no RNG state involved)."""
    out = bytearray()
    counter = 0
    while len(out) < nbytes:
        out += hashlib.sha256(f"{seed}:{tag}:{counter}".encode()).digest()
        counter += 1
    return bytes(out[:nbytes])


SCENARIOS: Dict[str, str] = {
    "source-files": (
        "two conversion workers whose planned file sets overlap "
        "({a, b} then {c}, and {b}) take, load, slice and release "
        "their files one at a time through the real source-file table, "
        "in the plan's order (c waits until b has left) and into "
        "recycled read buffers; invariants: output is "
        "schedule-independent, each file is read once, every slice "
        "holds its own file's bytes (none is read after its buffer is "
        "refilled), at most workers + 1 buffers are allocated and one "
        "is reused, nothing is resident at the end"
    ),
    "commit-pool": (
        "two stagers and two commit threads drive the store's "
        "CommitPool (reserve -> stage -> submit, publish, drain): three "
        "groups over the two free slots of 2 x workers, one publish "
        "failing; invariants: no deadlock, every reserved slot "
        "released, drain raises the failure, no temp survives"
    ),
}
"""Registry names -> one-line descriptions (``repro explore --list``)."""


def build_scenario(name: str, seed: int = 0, root: Optional[str] = None) -> Scenario:
    """Instantiate a registry scenario.

    ``root`` is a directory for the scenario's on-disk stores; the
    caller owns its lifetime (the CLI uses a temp dir).  Expensive
    shared state (source files, stores) is built once here —
    *outside* any controlled run — and ``fresh()`` only rebuilds the
    cheap per-run state (caches, readers, outputs).
    """
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise ExploreError(f"unknown scenario {name!r} (known: {known})")
    if root is None:
        root = tempfile.mkdtemp(prefix=f"interleave-{name}-")
    builder = {
        "source-files": _build_source_files,
        "commit-pool": _build_commit_pool,
    }[name]
    return builder(seed, root)


def _build_source_files(seed: int, root: str) -> Scenario:
    from repro.storage.rangeio import BlockCache, RangeReader
    from repro.storage.store import ObjectStore

    store = ObjectStore(os.path.join(root, "src"), durable=False)
    blobs = {f"{name}.bin": _blob(seed, name, 1024) for name in "abc"}
    for rel, data in blobs.items():
        store.put_bytes(rel, data)
    # each worker's atoms — (position in the plan's order, planned
    # slices per file); c.bin is loaded only once a.bin and b.bin have
    # left the table, so in every schedule it refills a recycled buffer
    plans = [
        [
            (0, {"a.bin": [(0, 512)], "b.bin": [(256, 512), (0, 64)]}),
            (2, {"c.bin": [(128, 256), (768, 256)]}),
        ],
        [(1, {"b.bin": [(512, 512)]})],
    ]
    consumers = {"a.bin": 1, "b.bin": 2, "c.bin": 1}
    last_use = {"a.bin": 0, "b.bin": 1, "c.bin": 2}
    buffers = len(plans) + 1

    def fresh() -> RunCase:
        loads: Dict[str, int] = {}
        stale = [0]  # slices whose bytes are not their file's

        def verify(reader, rel: str) -> None:
            loads[rel] = loads.get(rel, 0) + 1
            reader.digest(rel)

        table = BlockCache(consumers, buffers, last_use)
        reader = RangeReader(store, table, verify)
        out: Dict[str, str] = {}

        def worker(index: int) -> Callable[[], None]:
            def run() -> None:
                for position, atom in plans[index]:
                    left = sorted(atom)
                    while left:
                        rel = reader.next_ready(left, position)
                        hasher = hashlib.sha256()
                        views = reader.read_multi(rel, atom[rel])
                        for (offset, length), view in zip(atom[rel], views):
                            hasher.update(view)
                            stale[0] += bytes(view) != blobs[rel][offset:offset + length]
                        # read, so released (the conversion's order)
                        left.remove(rel)
                        table.release(rel)
                        out[f"{position}:{rel}"] = hasher.hexdigest()

            return run

        def fingerprint() -> str:
            return json.dumps({
                **out,
                "loads": loads,
                "read_ops": reader.read_ops,
                "resident": table.resident_bytes,
                "stale_slices": stale[0],
                "buffers_bounded": table.allocations <= buffers,
                "recycled": table.allocations < table.misses,
            }, sort_keys=True)

        return RunCase([worker(0), worker(1)], fingerprint)

    return scenario("source-files", fresh, SCENARIOS["source-files"])


class _ExploredExecutor:
    """Stands in for the commit pool's ``ThreadPoolExecutor``: the same
    ``submit() -> Future`` contract, but the tasks are run by the
    scenario's controlled threads (:meth:`worker`), so the explorer
    schedules the commit side as well as the stagers.  Commit threads
    are interchangeable, so each serves one stager's FIFO (stager ``Ti``
    -> commit thread ``i``): one legal assignment, and the one that
    keeps the schedule space enumerable — the stagers still contend for
    the pool's slots and its list of futures."""

    def __init__(self, producers: int) -> None:
        self._locks = [obs.make_lock(f"commit-queue[{i}]") for i in range(producers)]
        self._tasks: List[collections.deque] = [
            collections.deque() for _ in range(producers)
        ]
        self._open = [True] * producers  # stager i may still submit
        self._futures: List[concurrent.futures.Future] = []

    @staticmethod
    def _stager() -> int:
        return int(threading.current_thread().name[1:])  # "T0" / "T1"

    def submit(self, fn, *args) -> concurrent.futures.Future:
        fut: concurrent.futures.Future = concurrent.futures.Future()
        i = self._stager()
        with self._locks[i]:
            access(f"commit-queue[{i}]", write=True)
            self._tasks[i].append((fut, fn, args))
        self._futures.append(fut)
        return fut

    def producer_done(self) -> None:
        i = self._stager()
        with self._locks[i]:
            access(f"commit-queue[{i}]", write=True)
            self._open[i] = False

    @property
    def open(self) -> bool:
        return any(self._open)

    def worker(self, i: int) -> Callable[[], None]:
        """Commit thread ``i``'s life: run stager ``i``'s queued tasks
        until the queue is empty and the stager has finished."""
        def run() -> None:
            tasks = self._tasks[i]

            def ready() -> bool:
                return bool(tasks) or not self._open[i]

            while True:
                obs.emit("wait", f"commit-queue[{i}]", ready)
                with self._locks[i]:
                    access(f"commit-queue[{i}]", write=True)
                    if not tasks:
                        return
                    fut, fn, args = tasks.popleft()
                try:
                    fut.set_result(fn(*args))
                except BaseException as exc:
                    fut.set_exception(exc)

        return run

    def shutdown(self, wait: bool = True) -> None:
        """Like the real one's: returns once every submitted task ran."""
        for fut in self._futures:
            obs.emit("wait", "commit-queue.shutdown", fut.done)
            fut.exception()


def _build_commit_pool(seed: int, root: str) -> Scenario:
    from repro.storage.faults import FaultPolicy
    from repro.storage.store import CommitGroup, CommitPool, ObjectStore

    workers = 2
    held = 2  # slots an earlier writer's groups still occupy
    # each stager's groups (two files each): three groups over the two
    # free slots of 2 * workers, so some reserve has to wait for a publish
    plans = [["a0", "a1"], ["b0"]]
    failing = "a1/y.bin"  # the second rename of its group
    blob = _blob(seed, "group", 256)
    runs = itertools.count()

    class FailOne(FaultPolicy):
        def _publish_fault(self, op_index, rel_path, tmp_path) -> None:
            if rel_path == failing:
                raise OSError(errno.ENOSPC, f"injected ENOSPC publishing {rel_path}")

    def fresh() -> RunCase:
        base = os.path.join(root, f"run{next(runs)}")
        store = ObjectStore(base, faults=FailOne(), durable=False)
        pool = CommitPool(workers)
        pool._pool.shutdown()  # the explorer's threads do the publishing
        for _ in range(held):
            pool.reserve()
        executor = pool._pool = _ExploredExecutor(len(plans))
        out: Dict[str, object] = {}

        def stager(index: int) -> Callable[[], None]:
            def stage_all() -> None:
                try:
                    for name in plans[index]:
                        pool.reserve()
                        group = CommitGroup(store)
                        try:
                            for leaf in ("x.bin", "y.bin"):
                                group.stage(f"{name}/{leaf}", blob)
                        except BaseException:
                            pool.release()
                            raise
                        pool.submit(group)
                finally:
                    executor.producer_done()

            def run() -> None:
                if index:
                    return stage_all()
                # the first stager is also the writer that owns the
                # pool: it joins the other, drains, and leaves the block
                with pool:
                    stage_all()
                    obs.emit("wait", "stagers", lambda: not executor.open)
                    try:
                        pool.drain()
                    except OSError as exc:
                        out["drain"] = errno.errorcode[exc.errno]
                # every publish has finished, one of them by failing
                tmps = sorted(p.name for p in store.base.rglob("*.tmp"))
                free = pool._slots._value
                if out.get("drain") != "ENOSPC" or free != 2 * workers - held or tmps:
                    raise AssertionError(
                        f"left the pool with drain -> {out.get('drain')}, "
                        f"{free} of {2 * workers - held} slots free, temps {tmps}"
                    )

            return run

        def fingerprint() -> str:
            return json.dumps({
                "drain": out.get("drain"),
                "files": store.list(),
                "submitted": len(pool._publishes),
            }, sort_keys=True)

        return RunCase(
            [stager(0), stager(1), executor.worker(0), executor.worker(1)],
            fingerprint,
        )

    return scenario("commit-pool", fresh, SCENARIOS["commit-pool"])


# --- one controlled execution ------------------------------------------


def run_schedule(
    case: RunCase,
    forced: Sequence[int] = (),
    preemption_bound: Optional[int] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> RunResult:
    """Execute one :class:`RunCase` under a forced branch schedule.

    The run is wrapped in its own non-strict memory sanitizer, so
    "sanitizer clean" is checked per schedule and findings are
    *collected*, never raised mid-run.

    Nested explorations are a programming error (a controlled thread
    reaching a second scheduler could deadlock both): they raise.
    """
    from repro.analysis import sanitizer as _sanitizer

    if obs.current("sched") is not None:
        raise RuntimeError(
            "an interleaving controller is already installed; "
            "nested explorations are not supported"
        )
    ctl = Controller(
        len(case.threads), forced, preemption_bound, max_steps
    )
    try:
        with _sanitizer.sanitize(
            strict=False, subject="interleave"
        ) as san:
            with obs.subscribed("sched", ctl):
                ctl.run(case.threads)
        fingerprint = None
        if ctl.deadlock is None and not ctl.bound_exceeded:
            fingerprint = case.fingerprint()
        return RunResult(
            choices=list(ctl.choices),
            trace=list(ctl.trace),
            deadlock=ctl.deadlock,
            fingerprint=fingerprint,
            preemptions=ctl.preemptions,
            bound_exceeded=ctl.bound_exceeded,
            sanitizer_errors=list(san.report.errors),
        )
    finally:
        case.cleanup()


# --- the explorer ------------------------------------------------------


@dataclasses.dataclass
class ExploreReport:
    """The deterministic outcome of one exploration."""

    scenario: str
    seed: int
    schedule_cap: int
    preemption_bound: Optional[int]
    schedules_run: int = 0
    shrink_runs: int = 0
    preemption_skipped: int = 0
    pending_unexplored: int = 0
    max_trace_steps: int = 0
    replayed: Optional[List[int]] = None
    exhaustive: bool = False
    report: LintReport = dataclasses.field(
        default_factory=lambda: LintReport(subject="interleave")
    )
    counterexamples: List[Dict] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.report.ok

    def to_dict(self) -> Dict:
        """The full report as a JSON-ready dict (stable key order)."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "schedule_cap": self.schedule_cap,
            "preemption_bound": self.preemption_bound,
            "schedules_run": self.schedules_run,
            "shrink_runs": self.shrink_runs,
            "preemption_skipped": self.preemption_skipped,
            "pending_unexplored": self.pending_unexplored,
            "max_trace_steps": self.max_trace_steps,
            "replayed": self.replayed,
            "exhaustive": self.exhaustive,
            "counterexamples": self.counterexamples,
            "report": self.report.to_dict(),
        }

    def to_json(self) -> str:
        """Byte-stable JSON (one seed + schedule -> identical bytes)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        """Human-readable summary: counts, exhaustiveness, findings."""
        lines = [
            f"explore {self.scenario}: "
            f"{self.schedules_run} schedules "
            f"({self.shrink_runs} shrink runs, "
            f"{self.preemption_skipped} over the preemption bound, "
            f"{self.pending_unexplored} unexplored), "
            f"{'exhaustive' if self.exhaustive else 'bounded'}",
        ]
        lines.append(self.report.render_text())
        for cx in self.counterexamples:
            lines.append(
                f"  minimal schedule [{cx['rule']}]: "
                f"{json.dumps(cx['schedule'])}"
            )
        return "\n".join(lines)


def _trace_rows(trace: List[Event]) -> List[List]:
    rows = [ev.to_row() for ev in trace[:_TRACE_LIMIT]]
    if len(trace) > _TRACE_LIMIT:
        rows.append([len(trace), "...", "truncated", "", "r", []])
    return rows


class _Explorer:
    def __init__(
        self,
        scen: Scenario,
        schedule_cap: int,
        preemption_bound: Optional[int],
        max_steps: int,
        shrink_budget: int,
        seed: int,
    ) -> None:
        self.scen = scen
        self.out = ExploreReport(
            scenario=scen.name,
            seed=seed,
            schedule_cap=schedule_cap,
            preemption_bound=preemption_bound,
        )
        self.max_steps = max_steps
        self.shrink_budget = shrink_budget
        self.ref_fp: Optional[str] = None
        self.ref_trace: List[Event] = []
        self._seen_races: Set[Tuple] = set()
        self._seen_cycles: Set[frozenset] = set()
        self._seen_fps: Set[str] = set()
        self._seen_diags: Set[Tuple[str, str]] = set()

    # --- execution plumbing ------------------------------------------

    def _run(self, forced: Sequence[int], shrink: bool = False) -> RunResult:
        result = run_schedule(
            self.scen.fresh(),
            forced,
            preemption_bound=self.out.preemption_bound,
            max_steps=self.max_steps,
        )
        if shrink:
            self.out.shrink_runs += 1
        elif result.bound_exceeded:
            self.out.preemption_skipped += 1
        else:
            self.out.schedules_run += 1
        self.out.max_trace_steps = max(
            self.out.max_trace_steps, len(result.trace)
        )
        return result

    def _add(self, diag: Diagnostic) -> None:
        key = (diag.rule_id, diag.location)
        if key in self._seen_diags:
            return
        self._seen_diags.add(key)
        self.out.report.add(diag)

    # --- per-run analysis --------------------------------------------

    def _analyze(self, result: RunResult) -> None:
        for diag in result.sanitizer_errors:
            self._add(dataclasses.replace(
                diag,
                location=f"{self.scen.name}/{diag.location}",
            ))
        for key, older, newer in _hb_races(result.trace):
            pair_key = (key, frozenset((older.name, newer.name)))
            if pair_key in self._seen_races:
                continue
            self._seen_races.add(pair_key)
            self._add(error(
                "UCP038",
                f"conflicting unsynchronized access pair on {key}: "
                f"thread {older.name!r} "
                f"({'write' if older.write else 'read'}, step "
                f"{older.seq}) and thread {newer.name!r} "
                f"({'write' if newer.write else 'read'}, step "
                f"{newer.seq}) touched it with no common lock held and "
                f"no happens-before edge between them at yield-point "
                f"granularity",
                location=f"{self.scen.name}/{key}",
            ))
        if result.deadlock is not None:
            self._report_deadlock(result)
        elif (
            self.ref_fp is not None
            and result.fingerprint is not None
            and result.fingerprint != self.ref_fp
        ):
            self._report_divergence(result)

    def _shrink(
        self,
        choices: Sequence[int],
        still_fails: Callable[[RunResult], bool],
    ) -> Tuple[List[int], RunResult]:
        """Delta-shrink a failing schedule to a minimal counterexample.

        Phase 1 binary-searches the shortest failing prefix (the
        continue-policy suffix fills in the rest); phase 2 drops
        individual choices back-to-front.  Every trial costs one run
        from the shrink budget; the returned schedule always re-fails.
        """
        budget = self.shrink_budget
        best = list(choices)
        best_result: Optional[RunResult] = None

        def fails(prefix: List[int]) -> Optional[RunResult]:
            nonlocal budget
            if budget <= 0:
                return None
            budget -= 1
            result = self._run(prefix, shrink=True)
            return result if still_fails(result) else None

        lo, hi = 0, len(best)
        while lo < hi:
            mid = (lo + hi) // 2
            result = fails(best[:mid])
            if result is not None:
                hi = mid
                best = list(result.choices[:mid])
                best_result = result
            else:
                lo = mid + 1
        best = best[:hi]
        i = len(best) - 1
        while i >= 0:
            trial = best[:i] + best[i + 1:]
            result = fails(trial)
            if result is not None:
                best = trial
                best_result = result
            i -= 1
        if best_result is None:
            best_result = self._run(best, shrink=True)
        return best, best_result

    def _report_deadlock(self, result: RunResult) -> None:
        minimal, shrunk = self._shrink(
            result.choices, lambda r: r.deadlock is not None
        )
        deadlock = shrunk.deadlock or result.deadlock
        cycle_key = deadlock.cycle_key()
        if cycle_key in self._seen_cycles:
            return
        self._seen_cycles.add(cycle_key)
        threads = "+".join(sorted(w["thread"] for w in deadlock.waiters))
        self.out.counterexamples.append({
            "rule": "UCP037",
            "schedule": list(minimal),
            "trace": _trace_rows(shrunk.trace),
            "reference_trace": _trace_rows(self.ref_trace),
        })
        self._add(error(
            "UCP037",
            f"deadlock schedule in scenario {self.scen.name!r}: all "
            f"threads blocked — {deadlock.describe()}; minimal schedule "
            f"{json.dumps(list(minimal))} (replay with `repro explore "
            f"{self.scen.name} --schedule FILE`)",
            location=f"{self.scen.name}/deadlock/{threads}",
        ))

    def _report_divergence(self, result: RunResult) -> None:
        fp = result.fingerprint
        if fp in self._seen_fps:
            return
        self._seen_fps.add(fp)

        def diverges(r: RunResult) -> bool:
            return (
                r.deadlock is None
                and r.fingerprint is not None
                and r.fingerprint != self.ref_fp
            )

        minimal, shrunk = self._shrink(result.choices, diverges)
        got = shrunk.fingerprint or fp
        self.out.counterexamples.append({
            "rule": "UCP036",
            "schedule": list(minimal),
            "fingerprint": got,
            "reference_fingerprint": self.ref_fp,
            "trace": _trace_rows(shrunk.trace),
            "reference_trace": _trace_rows(self.ref_trace),
        })
        self._add(error(
            "UCP036",
            f"schedule-dependent output divergence in scenario "
            f"{self.scen.name!r}: schedule {json.dumps(list(minimal))} "
            f"produced fingerprint {_short(got)} where the serial "
            f"reference produced {_short(self.ref_fp)}; both yield "
            f"traces are attached to the counterexample, and the "
            f"minimal schedule replays with `repro explore "
            f"{self.scen.name} --schedule FILE`",
            location=f"{self.scen.name}/divergence/{_short(got)}",
        ))

    # --- the DFS loop ------------------------------------------------

    def explore(self) -> ExploreReport:
        ref = self._run(())
        self.ref_fp = ref.fingerprint
        self.ref_trace = ref.trace
        self._analyze(ref)
        stack: List[Tuple[int, ...]] = []
        seen_prefix: Set[Tuple[int, ...]] = {tuple(ref.choices)}
        executed: Set[Tuple[int, ...]] = {tuple(ref.choices)}
        for cand in sorted(_reversal_candidates(ref), reverse=True):
            if cand not in seen_prefix:
                seen_prefix.add(cand)
                stack.append(cand)
        total = 1
        while stack:
            if total >= self.out.schedule_cap:
                break
            prefix = stack.pop()
            result = self._run(prefix)
            total += 1
            if result.bound_exceeded:
                continue
            full = tuple(result.choices)
            if full in executed:
                continue
            executed.add(full)
            self._analyze(result)
            for cand in sorted(_reversal_candidates(result), reverse=True):
                if cand not in seen_prefix:
                    seen_prefix.add(cand)
                    stack.append(cand)
        self.out.pending_unexplored = len(stack)
        capped = bool(stack)
        self.out.exhaustive = (
            not capped and self.out.preemption_skipped == 0
        )
        if capped or self.out.preemption_skipped:
            reasons = []
            if capped:
                reasons.append(
                    f"schedule cap {self.out.schedule_cap} hit with "
                    f"{len(stack)} candidate schedules unexplored"
                )
            if self.out.preemption_skipped:
                reasons.append(
                    f"{self.out.preemption_skipped} schedules exceeded "
                    f"the preemption bound {self.out.preemption_bound}"
                )
            self._add(warning(
                "UCP039",
                f"bounded exploration of scenario {self.scen.name!r}: "
                + "; ".join(reasons)
                + f" — {self.out.schedules_run} schedules were checked, "
                f"but absence of findings is not exhaustive proof",
                location=f"{self.scen.name}/bounded",
            ))
        return self.out

    def replay(self, forced: Sequence[int]) -> ExploreReport:
        ref = self._run(())
        self.ref_fp = ref.fingerprint
        self.ref_trace = ref.trace
        result = self._run(forced)
        self.out.replayed = list(forced)
        if result.bound_exceeded:
            raise ExploreError(
                f"replayed schedule exceeds the preemption bound "
                f"{self.out.preemption_bound}"
            )
        self._analyze(result)
        self.out.exhaustive = False
        return self.out


def _short(fp: Optional[str]) -> str:
    if not fp:
        return "<none>"
    digest = hashlib.sha256(fp.encode()).hexdigest()[:12]
    return f"sha256:{digest}"


def explore(
    scen,
    schedules: int = DEFAULT_SCHEDULE_CAP,
    preemptions: Optional[int] = None,
    schedule: Optional[Sequence[int]] = None,
    seed: int = 0,
    max_steps: int = DEFAULT_MAX_STEPS,
    shrink_budget: int = DEFAULT_SHRINK_BUDGET,
) -> ExploreReport:
    """Explore (or replay) a scenario's schedule space.

    Args:
        scen: a :class:`Scenario`, or a registry name from
            :data:`SCENARIOS` (built in a private temp directory).
        schedules: executed-schedule cap; hitting it reports UCP039.
        preemptions: preemption bound (``None`` = unbounded).  Runs
            that exceed it are cancelled and counted, and their count
            reports UCP039.
        schedule: exact branch-choice list to replay instead of
            exploring (the ``--schedule FILE`` path).  The serial
            reference still runs first so divergence is checkable.
        seed: forwarded to registry scenario construction.
        max_steps: per-run step budget (non-termination guard).
        shrink_budget: extra runs the delta-shrinker may spend per
            counterexample.
    """
    cleanup_dir: Optional[tempfile.TemporaryDirectory] = None
    if isinstance(scen, str):
        cleanup_dir = tempfile.TemporaryDirectory(
            prefix=f"interleave-{scen}-"
        )
        scen = build_scenario(scen, seed=seed, root=cleanup_dir.name)
    try:
        explorer = _Explorer(
            scen,
            schedule_cap=schedules,
            preemption_bound=preemptions,
            max_steps=max_steps,
            shrink_budget=shrink_budget,
            seed=seed,
        )
        if schedule is not None:
            return explorer.replay([int(c) for c in schedule])
        return explorer.explore()
    finally:
        if cleanup_dir is not None:
            cleanup_dir.cleanup()


def load_schedule(text: str) -> List[int]:
    """Parse a ``--schedule`` file: a bare JSON list, an object with a
    ``"schedule"`` key, or a full :class:`ExploreReport` JSON (the
    first counterexample's minimal schedule is taken)."""
    payload = json.loads(text)
    if isinstance(payload, list):
        return [int(c) for c in payload]
    if isinstance(payload, dict):
        if isinstance(payload.get("schedule"), list):
            return [int(c) for c in payload["schedule"]]
        counterexamples = payload.get("counterexamples")
        if counterexamples:
            return [int(c) for c in counterexamples[0]["schedule"]]
    raise ExploreError(
        "schedule file must be a JSON list, an object with a "
        "'schedule' key, or an ExploreReport with counterexamples"
    )
