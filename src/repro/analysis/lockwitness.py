"""Runtime lock-order witness for the threaded IO layer.

The static half of the concurrency checker (:mod:`repro.analysis.locks`,
rules SRC005-SRC008) proves lock *discipline* from the source text; this
module witnesses lock *behavior* at runtime.  Instrumented locks
(:class:`WitnessedLock`, built via :func:`make_lock`) report every
acquisition to the active :class:`LockWitness`, which keeps per-thread
held-lock stacks plus a global lock-order graph with the acquisition
stack that first created each edge, and reports:

========  ============================  =====================================
rule      name                          witness
========  ============================  =====================================
UCP029    lock-order-cycle              two threads acquired the same locks
                                        in opposite orders — a potential
                                        ABBA deadlock, reported with *both*
                                        acquisition stacks
UCP030    unguarded-state-access        guarded state (``BlockCache`` files,
                                        replica tables) touched with the
                                        declared lock not held — via accessor
                                        hooks, no ``sys.settrace``
UCP031    lock-held-across-blocking-io  a lock not marked ``blocking_ok``
                                        held across a blocking IO call whose
                                        (simulated) cost exceeds the budget
========  ============================  =====================================

Activation mirrors :mod:`repro.analysis.sanitizer`: :func:`lockcheck`
subscribes a witness to the one hook slot (:mod:`repro.obs`, role
``"locks"`` — where the locks themselves live, so ``storage`` uses them
without importing this checker); ``REPRO_SANITIZE=1`` makes the test
session fixture wrap the whole run in a strict one.

The witness also records a bounded event log (acquire / release /
access / blocking, with a global sequence number).  Its
:meth:`LockWitness.to_payload` form replays offline through
:func:`check_lock_trace`, which extends the rank-level vector-clock
happens-before analyzer (:mod:`repro.analysis.collective_trace`) to
*thread*-level events: lock release -> acquire hand-offs join clocks,
and two accesses to one resource from different threads with no common
lock and unordered clocks are reported as a race (UCP030).
``repro lint-trace --locks payload.json`` runs this from the CLI.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import traceback
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.analysis.collective_trace import clock_lte, find_cycle
from repro.analysis.diagnostics import (
    Diagnostic,
    LayoutLintError,
    LintReport,
    error,
)
from repro.obs import WitnessedLock, make_lock  # noqa: F401 (re-export)

DEFAULT_IO_BUDGET_S = 0.05
"""Max (simulated) blocking-IO seconds tolerated under a held lock."""

DEFAULT_MAX_EVENTS = 100_000
"""Event-log bound; past it the log stops growing (``truncated``)."""

_STACK_FRAMES = 10
"""Frames kept per recorded acquisition stack."""


class LockWitnessError(LayoutLintError):
    """A lock-witness check found error-severity violations."""

    def __init__(self, report: LintReport) -> None:
        super().__init__(report, prefix="lock witness violation")


def _capture_stack(skip: int = 2) -> Tuple[str, ...]:
    """Compact acquisition stack: innermost-last ``file:line in fn``
    (the hook slot's own frames never count: a handler reached through
    ``obs.emit`` sees the stack a direct call from the site would)."""
    frames = [
        f for f in traceback.extract_stack() if f.filename != obs.__file__
    ][:-skip]
    return tuple(
        f"{f.filename.rsplit('/', 1)[-1]}:{f.lineno} in {f.name}"
        for f in frames[-_STACK_FRAMES:]
    )


def _fmt_stack(stack: Tuple[str, ...]) -> str:
    return " <- ".join(reversed(stack[-4:])) if stack else "<no stack>"


class LockWitness:
    """Per-thread acquisition stacks + a global lock-order graph.

    Args:
        strict: raise :class:`LockWitnessError` at the first
            error-severity violation (the CI mode).  ``False``
            accumulates findings in :attr:`report` (injection-test mode).
        subject: label for the report header.
        io_budget_s: UCP031 threshold — blocking seconds tolerated
            while holding a lock not marked ``blocking_ok``.
        max_events: replay-log bound; the order graph keeps growing
            regardless, only the event log truncates.
    """

    def __init__(
        self,
        strict: bool = True,
        subject: str = "lock-witness",
        io_budget_s: float = DEFAULT_IO_BUDGET_S,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> None:
        self.strict = strict
        self.report = LintReport(subject=subject)
        self.checks = 0
        self.io_budget_s = io_budget_s
        self.max_events = max_events
        self.truncated = False
        self._tls = threading.local()
        self._mu = threading.Lock()  # meta-lock; deliberately unwitnessed
        # (lock_a, lock_b) -> first-observation witness
        self._edges: Dict[Tuple[str, str], Dict] = {}  # guarded-by: self._mu
        # event log, sharded per thread so the hot hooks never contend
        # on the meta-lock: each thread appends to its own buffer and
        # next(self._seq) hands out a global order (atomic under the
        # GIL); to_payload merges and sorts.  Only buffer *registration*
        # needs the meta-lock.
        self._buffers: List[List[Tuple[int, str, str, str, Tuple[str, ...]]]] = []  # guarded-by: self._mu
        self._seq = itertools.count(1)
        self._reported_cycles: set = set()  # guarded-by: self._mu

    # --- held-stack plumbing -----------------------------------------

    def _held(self) -> List[WitnessedLock]:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = self._tls.held = []
        return held

    def held_names(self) -> List[str]:
        """Names of locks the *calling thread* currently holds."""
        return [lock.name for lock in self._held()]

    def _thread_state(self) -> Tuple[str, List]:
        """This thread's cached ``(name, event buffer)`` pair."""
        state = getattr(self._tls, "state", None)
        if state is None:
            buf: List = []
            with self._mu:
                self._buffers.append(buf)
            state = self._tls.state = (
                threading.current_thread().name, buf,
            )
        return state

    def _log(
        self, kind: str, name: str, held: Tuple[str, ...] = ()
    ) -> str:
        """Append one event to the calling thread's buffer; returns the
        thread name (hot path: no meta-lock, one counter tick)."""
        thread, buf = self._thread_state()
        seq = next(self._seq)
        if seq > self.max_events:
            self.truncated = True
        else:
            buf.append((seq, thread, kind, name, held))
        return thread

    def _violation(self, diag: Diagnostic) -> None:
        with self._mu:
            self.report.add(diag)
        if self.strict and diag.severity == "error":
            raise LockWitnessError(LintReport(self.report.subject, [diag]))

    # --- lock hooks (UCP029) -----------------------------------------

    def on_lock_enter(self, lock: WitnessedLock) -> None:
        """Record order edges held-lock -> ``lock`` and check for cycles.

        Runs *before* the real acquire so a strict witness reports the
        ABBA cycle instead of deadlocking on it.
        """
        held = self._held()
        if not held:
            return  # no ordering context
        # lock-free fast path (dict membership is atomic under the
        # GIL): in steady state every held->lock edge is already known,
        # so the hot path never touches the meta-lock.  A benign race
        # only sends two threads into the slow path, which re-checks
        # under the guard before mutating.
        edges = self._edges  # srclint: disable=SRC005
        for h in held:
            if h is lock:
                return  # reentrant re-acquire
        fresh = [
            (h.name, lock.name) for h in held
            if h.name != lock.name
            and (h.name, lock.name) not in edges
        ]
        if not fresh:
            return
        thread = threading.current_thread().name
        stack = _capture_stack(skip=2)
        pending: List[Diagnostic] = []
        with self._mu:
            for edge in fresh:
                if edge in self._edges:
                    continue  # another thread recorded it meanwhile
                self._edges[edge] = {"thread": thread, "stack": stack}
                diag = self._cycle_diag_locked(edge)
                if diag is not None:
                    pending.append(diag)
        self.checks += 1
        for diag in pending:
            self._violation(diag)

    def _cycle_diag_locked(
        self, edge: Tuple[str, str]
    ) -> Optional[Diagnostic]:  # holds: self._mu
        src, dst = edge
        graph: Dict[str, List[str]] = {}
        for a, b in self._edges:
            graph.setdefault(a, []).append(b)
            graph.setdefault(b, [])
        path = self._path_locked(graph, dst, src)
        if path is None:
            return None
        cycle_key = frozenset(path)
        if cycle_key in self._reported_cycles:
            return None
        self._reported_cycles.add(cycle_key)
        this = self._edges[edge]
        # the first edge on the return path is the opposing acquisition
        back = self._edges.get((path[0], path[1]), {})
        ring = " -> ".join(path + [path[0]])
        return error(
            "UCP029",
            f"lock-order cycle {ring}: thread {this['thread']!r} acquired "
            f"{dst!r} while holding {src!r} at "
            f"[{_fmt_stack(this['stack'])}]; thread "
            f"{back.get('thread', '?')!r} previously acquired "
            f"{path[1]!r} while holding {path[0]!r} at "
            f"[{_fmt_stack(back.get('stack', ()))}] — a potential "
            f"deadlock if both threads run concurrently",
            location=f"{src}->{dst}",
        )

    @staticmethod
    def _path_locked(
        graph: Dict[str, List[str]], src: str, dst: str
    ) -> Optional[List[str]]:  # holds: self._mu
        """Deterministic DFS path ``src -> .. -> dst`` in the order graph."""
        stack = [(src, [src])]
        seen = {src}
        while stack:
            node, path = stack.pop()
            if node == dst:
                return path
            for nxt in sorted(graph.get(node, ()), reverse=True):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, path + [nxt]))
        return None

    def on_lock_acquired(self, lock: WitnessedLock) -> None:
        """Push onto the held stack and log, post-acquisition."""
        self._held().append(lock)
        self._log("acquire", lock.name)

    def on_lock_exit(self, lock: WitnessedLock) -> None:
        """Pop the held stack and log, pre-release."""
        held = self._held()
        for i in range(len(held) - 1, -1, -1):
            if held[i] is lock:
                del held[i]
                break
        self._log("release", lock.name)

    # --- accessor hook (UCP030) --------------------------------------

    def check_guarded(
        self, lock: Optional[WitnessedLock], resource: str,
        item: Optional[str] = None, write: bool = False,
    ) -> Optional[Diagnostic]:
        """Assert the calling thread holds ``lock`` while touching ``resource``.

        Instrumented containers report this from inside their mutators
        (no ``sys.settrace``; it is the ``access`` event's handler, whose
        per-item key and read/write flag are the scheduler's): the
        locked public API always passes, a bypass — or a future refactor
        that grows an unlocked path — fires UCP030 with the offending
        access stack.
        """
        self.checks += 1
        held = self._held()
        thread = self._log(
            "access", resource, tuple(h.name for h in held)
        )
        if lock is None or any(h is lock for h in held):
            return None
        stack = _capture_stack(skip=3)
        diag = error(
            "UCP030",
            f"guarded state {resource} touched by thread {thread!r} "
            f"without holding {lock.name!r} "
            f"(held: {[h.name for h in held] or 'none'}) at "
            f"[{_fmt_stack(stack)}]",
            location=resource,
        )
        self._violation(diag)
        return diag

    on_access = check_guarded

    # --- blocking-IO hook (UCP031) -----------------------------------

    def note_blocking(
        self, desc: str, seconds: float, kind: str = "io"
    ) -> Optional[Diagnostic]:
        """Report one blocking call (disk read, fsync, future wait).

        ``seconds`` should be the *simulated* IO cost where one exists
        (the store's NVMe clock) so the check is deterministic; flags
        UCP031 when any held lock not marked ``blocking_ok`` rode
        across the call.  ``kind`` decides the severity model:

        - ``"io"`` / ``"cache-miss"``: budgeted — a cold-cache miss
          legitimately holds its lock for one brief windowed read, so
          only costs beyond ``io_budget_s`` fire;
        - ``"fsync"``: unconditional — durable-write latency is
          device-dependent and unbounded (a busy disk can take
          hundreds of ms to flush), so *any* fsync/flush under a
          non-``blocking_ok`` lock fires regardless of the budget.
        """
        self.checks += 1
        held = self._held()
        thread = self._log(
            "blocking", desc, tuple(h.name for h in held)
        )
        offenders = [h for h in held if not h.blocking_ok]
        if not offenders:
            return None
        if kind != "fsync" and seconds <= self.io_budget_s:
            return None
        stack = _capture_stack(skip=3)
        if kind == "fsync":
            why = (
                f"lock {offenders[0].name!r} held across {desc}: "
                f"fsync/flush latency is unbounded (device-dependent), "
                f"so no budget excuses it — move the durable write "
                f"outside the critical section"
            )
        else:
            why = (
                f"lock {offenders[0].name!r} held across blocking call "
                f"{desc} costing {seconds * 1e3:.1f}ms "
                f"(budget {self.io_budget_s * 1e3:.1f}ms)"
            )
        diag = error(
            "UCP031",
            f"{why} at [{_fmt_stack(stack)}]: every thread contending "
            f"for the lock stalls behind this IO",
            location=offenders[0].name,
        )
        self._violation(diag)
        return diag

    on_blocking = note_blocking

    # --- replay payload ----------------------------------------------

    def to_payload(self) -> Dict:
        """JSON-able form of the order graph + event log for offline replay."""
        with self._mu:
            return {
                "version": 1,
                "truncated": self.truncated,
                "edges": [
                    {
                        "src": a,
                        "dst": b,
                        "thread": w["thread"],
                        "stack": list(w["stack"]),
                    }
                    for (a, b), w in sorted(self._edges.items())
                ],
                "events": [
                    [seq, thread, kind, name, list(held)]
                    for seq, thread, kind, name, held in sorted(
                        event
                        for buf in self._buffers
                        for event in buf
                    )
                ],
            }


# --- offline thread-level happens-before replay ------------------------


def check_lock_trace(payload: Dict) -> LintReport:
    """Replay a witness payload: order cycles + thread-level races.

    The thread-level extension of the rank-level vector-clock analyzer:
    each thread carries a clock keyed by thread name; a lock release
    joins into the next acquire of the same lock (the hand-off edge).
    Two ``access`` events on one resource from different threads with no
    common held lock and *unordered* clocks are a data race — reported
    as UCP030, since nothing guarded the state.  Lock-order cycles in
    the recorded graph are re-checked as UCP029 with the recorded
    witness stacks, so a saved payload carries the full diagnosis.
    """
    report = LintReport(subject="lock trace")

    # 1) order-graph cycles (UCP029) with the recorded witnesses
    edges = {
        (e["src"], e["dst"]): e for e in payload.get("edges", ())
    }
    graph: Dict[str, List[str]] = {}
    for a, b in sorted(edges):
        graph.setdefault(a, []).append(b)
        graph.setdefault(b, [])
    cycle = find_cycle(graph)
    if cycle is not None:
        hops = []
        for i, name in enumerate(cycle):
            nxt = cycle[(i + 1) % len(cycle)]
            w = edges.get((name, nxt), {})
            hops.append(
                f"thread {w.get('thread', '?')!r} acquired {nxt!r} while "
                f"holding {name!r} at "
                f"[{_fmt_stack(tuple(w.get('stack', ())))}]"
            )
        ring = " -> ".join(cycle + [cycle[0]])
        report.add(error(
            "UCP029",
            f"lock-order cycle {ring}: " + "; ".join(hops),
            location="->".join(cycle),
        ))

    # 2) thread-level vector-clock race replay (UCP030)
    clocks: Dict[str, Dict[str, int]] = {}
    last_release: Dict[str, Dict[str, int]] = {}
    last_access: Dict[str, Dict[str, Tuple[Dict[str, int], frozenset, int]]] = {}
    reported_pairs: set = set()
    for seq, thread, kind, name, held in sorted(payload.get("events", ())):
        clock = clocks.setdefault(thread, {})
        clock[thread] = clock.get(thread, 0) + 1
        if kind == "acquire":
            handoff = last_release.get(name)
            if handoff:
                for t, count in handoff.items():
                    if count > clock.get(t, 0):
                        clock[t] = count
        elif kind == "release":
            last_release[name] = dict(clock)
        elif kind == "access":
            held_set = frozenset(held)
            for other, (oclock, oheld, oseq) in last_access.get(
                name, {}
            ).items():
                if other == thread or (held_set & oheld):
                    continue
                if clock_lte(oclock, clock) or clock_lte(clock, oclock):
                    continue
                pair = (name, frozenset((thread, other)))
                if pair in reported_pairs:
                    continue
                reported_pairs.add(pair)
                report.add(error(
                    "UCP030",
                    f"data race on {name}: threads {other!r} (event "
                    f"{oseq}) and {thread!r} (event {seq}) both touched "
                    f"it with no common lock held and neither access "
                    f"ordered before the other",
                    location=name,
                ))
            last_access.setdefault(name, {})[thread] = (
                dict(clock), held_set, seq
            )
    return report


# --- activation --------------------------------------------------------


def current() -> Optional[LockWitness]:
    """The innermost active witness, or ``None``."""
    return obs.current("locks")


@contextlib.contextmanager
def lockcheck(
    strict: bool = True,
    subject: str = "lock-witness",
    io_budget_s: float = DEFAULT_IO_BUDGET_S,
):
    """Activate a :class:`LockWitness` for the enclosed block.

    Nested activations stack; hooks report to the innermost one, so an
    injection test may run its own permissive witness inside a strict
    session-wide one (locks must not straddle an activation boundary —
    acquire and release under the same innermost witness).

    A strict witness raises at the point of the offense *and* re-checks
    at context exit: a violation raised inside a bare worker thread dies
    with that thread (``threading`` swallows it), so the exit check is
    what surfaces it to the spawning test or the session fixture.
    """
    witness = LockWitness(
        strict=strict, subject=subject, io_budget_s=io_budget_s
    )
    with obs.subscribed("locks", witness):
        yield witness
    # only reached when the body exited cleanly: violations that raised
    # on this thread already propagated through the subscription above
    if strict and witness.report.errors:
        raise LockWitnessError(witness.report)
