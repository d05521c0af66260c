"""Collective-trace analysis: ordering, arguments, and happens-before.

Deadlocks and silent corruption in distributed training very often
trace back to a small set of bug shapes: ranks of the same process
group issuing *different* collective sequences (one rank skips an
all-reduce behind a data-dependent branch), ranks disagreeing on a
collective's arguments (shape, dtype, reduce op), or two code paths —
a save and a conversion, say — entering overlapping critical sections
whose collectives interleave.  A real NCCL job hangs (or worse,
mismatched buffers silently reduce); the simulator, which executes
collectives group-wide, cannot hang — so these bug classes would be
invisible here without explicit checks.

Three checkers read the per-rank :class:`TraceEvent` logs of a
:class:`CollectiveTraceRecorder` subscribed under the ``collective``
role of :mod:`repro.obs` (with nothing subscribed, no trace exists):

* :func:`check_collective_ordering` — per-group sequence equality
  (UCP014), the classic skipped-collective detector.  Numel is
  bucketed to its power-of-two class so benign size wobble (uneven
  final microbatch) passes while genuine size disagreement is flagged.
* :func:`check_collective_args` — positional argument lint (UCP024):
  ranks that *did* line up on the same collective must agree on
  dtype, reduce op, and (for shape-preserving ops) tensor shape.
* :func:`check_happens_before` — a vector-clock happens-before
  analysis (UCP023).  The per-rank logs are replayed as a
  synchronization game: a collective fires only when every member's
  log head has reached it.  A stuck replay is exactly a deadlock, and
  the cross-group wait-for graph names the cycle.  Fired barriers
  carry vector clocks, so ``save:<tag>``/``convert:<tag>``
  enter/commit critical sections can be checked for overlap: two
  sections neither of which happens-before the other would interleave
  their file writes on a real cluster.

:func:`check_trace` composes all three — the ``repro lint-trace``
entry point.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.diagnostics import LintReport, error

TRACE_VERSION = 1

_SECTION_RE = re.compile(r"^barrier:(save|convert):(.+):(enter|commit)$")

_RANK_KEY_RE = re.compile(r"0|[1-9][0-9]{0,8}")
"""An ``events`` key: ``str(rank)`` exactly (no sign, padding or
non-ASCII digits)."""

_SHAPE_STRICT_OPS = ("all_reduce", "broadcast", "reduce_scatter")
"""Ops whose per-member input shapes must match exactly (all_gather is
exempt: members may legitimately contribute uneven shards along the
gather axis)."""


class TraceFormatError(ValueError):
    """A collective-trace file whose payload is not a version-1 trace."""


def numel_class(numel: int) -> int:
    """Power-of-two bucket of an element count (0 stays 0).

    Collectives whose sizes fall in the same bucket are considered
    order-compatible; a rank sending half its peers' message size lands
    in a different bucket and is flagged.
    """
    if numel < 0:
        raise ValueError(f"numel must be >= 0, got {numel}")
    return int(numel).bit_length()


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One collective call as one rank observed it.

    ``shape`` and ``reduce_op`` are argument-level detail for the
    UCP024 lint; they are *not* part of :attr:`signature`, so the
    ordering check keeps its original wobble tolerance.
    """

    op: str
    group: str
    dtype: str
    numel_class: int
    shape: Tuple[int, ...] = ()
    reduce_op: str = ""

    @property
    def signature(self) -> Tuple[str, str, str, int]:
        """The ordering-equality key: (op, group, dtype, numel class)."""
        return (self.op, self.group, self.dtype, self.numel_class)

    def render(self) -> str:
        """Compact text form, e.g. ``all_reduce(dp:0,2 f32 ~2^14)``."""
        return (
            f"{self.op}({self.group} {self.dtype} ~2^{self.numel_class})"
        )

    def to_record(self) -> List:
        """Serializable list form (``[op, group, dtype, numel class,
        shape, reduce op]``)."""
        return [
            self.op, self.group, self.dtype, self.numel_class,
            list(self.shape), self.reduce_op,
        ]


def _is_index(value) -> bool:
    return type(value) is int and value >= 0


def _is_record(record) -> bool:
    """A :meth:`TraceEvent.to_record` list, field types included."""
    return (
        isinstance(record, list) and len(record) == 6
        and all(isinstance(record[i], str) for i in (0, 1, 2, 5))
        and _is_index(record[3]) and isinstance(record[4], list)
        and all(_is_index(d) for d in record[4])
    )


class CollectiveTraceRecorder:
    """Per-rank log of every collective a job issues.

    Subscribed under the ``collective`` role of :mod:`repro.obs`,
    :meth:`on_collective` logs each grouped call for every member rank.
    :meth:`record`'s ``rank=`` override logs what one rank alone
    observed — exactly the divergence the checkers then catch.
    """

    def __init__(self) -> None:
        self.events: Dict[int, List[TraceEvent]] = {}
        self.group_members: Dict[str, Tuple[int, ...]] = {}

    def record(
        self,
        op: str,
        group: str,
        ranks: Sequence[int],
        numel: int,
        dtype: str = "float32",
        rank: Optional[int] = None,
        shape: Sequence[int] = (),
        reduce_op: str = "",
    ) -> TraceEvent:
        """Log one collective call.

        Args:
            op: collective name (``all_reduce``, ``barrier:save`` ...).
            group: process-group name the call ran on.
            ranks: the group's member ranks.
            numel: per-rank input element count (bucketed for matching).
            dtype: element dtype name.
            rank: record for this member only (divergence injection);
                default records the event for every member.
            shape: per-rank input tensor shape (argument lint).
            reduce_op: reduction operator for reducing collectives.
        """
        members = tuple(ranks)
        self.group_members.setdefault(group, members)
        event = TraceEvent(
            op=op, group=group, dtype=dtype,
            numel_class=numel_class(numel),
            shape=tuple(int(d) for d in shape), reduce_op=reduce_op,
        )
        targets = members if rank is None else (rank,)
        for r in targets:
            self.events.setdefault(r, []).append(event)
        return event

    def on_collective(
        self,
        op: str,
        group: Optional[str],
        ranks: Sequence[int],
        inputs: Sequence[np.ndarray],
        outputs: Sequence[np.ndarray],
        reduce_op: str = "",
    ) -> None:
        """Slot handler: log one collective with each member's *own*
        argument facts.

        Per-member shape/dtype/numel come from the member's input
        buffer, so a rank passing a differently-shaped or
        differently-typed buffer is visible to the UCP024 argument lint.
        A single input is broadcast to all members (the ``broadcast``
        calling convention); a call with no inputs (the engine's
        modelled DP sync) reports its results; a barrier, with neither,
        logs a payload-free ``none`` event.  A groupless module-level
        call (``group`` is ``None``) names no real ranks and is skipped.
        """
        if group is None:
            return
        members = tuple(ranks)
        self.group_members.setdefault(group, members)
        arrays = [np.asarray(a) for a in (inputs if len(inputs) else outputs)]
        if not arrays:
            self.record(op, group, members, 0, dtype="none")
            return
        if len(arrays) == 1:
            arrays = arrays * len(members)
        for r, arr in zip(members, arrays, strict=True):
            self.events.setdefault(r, []).append(TraceEvent(
                op=op, group=group, dtype=str(arr.dtype),
                numel_class=numel_class(int(arr.size)),
                shape=tuple(int(d) for d in arr.shape),
                reduce_op=reduce_op,
            ))

    def events_of(self, rank: int, group: Optional[str] = None) -> List[TraceEvent]:
        """One rank's event log, optionally restricted to one group."""
        log = self.events.get(rank, [])
        if group is None:
            return list(log)
        return [e for e in log if e.group == group]

    @property
    def num_events(self) -> int:
        """Total logged events across all ranks."""
        return sum(len(v) for v in self.events.values())

    def to_payload(self) -> Dict:
        """JSON-safe form (str keys, list leaves)."""
        return {
            "version": TRACE_VERSION,
            "group_members": {
                group: list(members)
                for group, members in sorted(self.group_members.items())
            },
            "events": {
                str(rank): [e.to_record() for e in log]
                for rank, log in sorted(self.events.items())
            },
        }

    @classmethod
    def from_payload(
        cls, payload, source: str = "collective trace"
    ) -> "CollectiveTraceRecorder":
        """Inverse of :meth:`to_payload`.  The tree is checked here, once:
        a damaged one is a :class:`TraceFormatError` naming ``source``
        (the file it was read from)."""

        def damaged(what: str) -> TraceFormatError:
            return TraceFormatError(f"{source} is not a collective trace: {what}")

        if not isinstance(payload, dict):
            raise damaged(f"decodes to {type(payload).__name__}, not a mapping")
        version = payload.get("version")
        if type(version) is not int or version != TRACE_VERSION:
            raise damaged(f"version {version!r}, this build reads {TRACE_VERSION}")
        groups, events = payload.get("group_members"), payload.get("events")
        if not isinstance(groups, dict) or not isinstance(events, dict):
            raise damaged("group_members and events must be mappings")
        recorder = cls()
        for group, members in groups.items():
            if not (
                isinstance(group, str) and isinstance(members, list) and members
                and all(_is_index(r) for r in members)
                and len(set(members)) == len(members)
            ):
                raise damaged(f"group_members[{group!r}] is not distinct ranks")
            recorder.group_members[group] = tuple(members)
        for key, records in events.items():
            if not (
                isinstance(key, str) and _RANK_KEY_RE.fullmatch(key)
                and isinstance(records, list)
                and all(_is_record(r) for r in records)
            ):
                raise damaged(f"events[{key!r}] is not a list of 6-field records")
            recorder.events[int(key)] = [
                TraceEvent(*r[:4], tuple(r[4]), r[5]) for r in records
            ]
        return recorder

    @classmethod
    def load(cls, path: str) -> "CollectiveTraceRecorder":
        """Read a trace written as JSON :meth:`to_payload` output."""
        try:
            payload = json.loads(pathlib.Path(path).read_text())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TraceFormatError(
                f"{path} is not a collective trace: not JSON ({exc})"
            ) from exc
        return cls.from_payload(payload, source=str(path))


def check_collective_ordering(recorder: CollectiveTraceRecorder) -> LintReport:
    """Prove every group's ranks issued identical collective sequences.

    For each group the recorder saw, the per-rank event subsequences
    (restricted to that group) must be signature-identical across all
    member ranks: same ops, in the same order, with matching dtype and
    numel-class.  Any divergence is a UCP014 error naming the group,
    the disagreeing ranks, and the first divergent position — the
    information needed to find the data-dependent branch that caused
    it.
    """
    report = LintReport(subject="collective trace")
    for group in sorted(recorder.group_members):
        members = recorder.group_members[group]
        logs = {r: recorder.events_of(r, group) for r in members}
        reference_rank = members[0]
        reference = logs[reference_rank]
        for r in members[1:]:
            log = logs[r]
            if [e.signature for e in log] == [e.signature for e in reference]:
                continue
            limit = min(len(log), len(reference))
            index = next(
                (
                    i for i in range(limit)
                    if log[i].signature != reference[i].signature
                ),
                limit,
            )
            if index < limit:
                detail = (
                    f"rank {reference_rank} issued "
                    f"{reference[index].render()}, rank {r} issued "
                    f"{log[index].render()}"
                )
            else:
                detail = (
                    f"rank {reference_rank} issued {len(reference)} "
                    f"calls, rank {r} issued {len(log)}"
                )
            report.add(error(
                "UCP014",
                f"ranks {reference_rank} and {r} diverge at collective "
                f"#{index}: {detail}; mismatched sequences deadlock (or "
                f"silently corrupt) a real communicator",
                location=f"group {group}",
            ))
    return report


def check_collective_args(recorder: CollectiveTraceRecorder) -> LintReport:
    """Lint collectives whose ranks disagree on arguments (UCP024).

    Walks each group's per-rank logs positionally: at every position
    where all members issued the *same op* (sequence divergence itself
    is UCP014's domain), the dtype and reduce op must match across
    ranks, and for shape-preserving ops (:data:`_SHAPE_STRICT_OPS`)
    the input shapes must be identical — a rank reducing a transposed
    or truncated buffer corrupts every peer's result silently.
    """
    report = LintReport(subject="collective trace")
    for group in sorted(recorder.group_members):
        members = recorder.group_members[group]
        logs = {r: recorder.events_of(r, group) for r in members}
        depth = min(len(log) for log in logs.values()) if logs else 0
        for index in range(depth):
            events = [(r, logs[r][index]) for r in members]
            ops = {e.op for _, e in events}
            if len(ops) != 1:
                continue
            op = ops.pop()
            first_rank, first = events[0]
            for r, event in events[1:]:
                mismatches = []
                if event.dtype != first.dtype:
                    mismatches.append(
                        f"dtype {first.dtype} vs {event.dtype}"
                    )
                if event.reduce_op != first.reduce_op:
                    mismatches.append(
                        f"reduce op {first.reduce_op or '<none>'} vs "
                        f"{event.reduce_op or '<none>'}"
                    )
                if (
                    op in _SHAPE_STRICT_OPS
                    and first.shape and event.shape
                    and event.shape != first.shape
                ):
                    mismatches.append(
                        f"shape {first.shape} vs {event.shape}"
                    )
                if mismatches:
                    report.add(error(
                        "UCP024",
                        f"collective #{index} ({op}): ranks "
                        f"{first_rank} and {r} disagree on "
                        f"{'; '.join(mismatches)}; mismatched arguments "
                        f"silently corrupt the reduction on a real "
                        f"communicator",
                        location=f"group {group}",
                    ))
    return report


@dataclasses.dataclass(frozen=True)
class FiredCollective:
    """One collective instance the happens-before replay retired.

    ``clock`` is the members' joined vector clock *after* the fire —
    the partial-order timestamp critical-section analysis compares.
    """

    op: str
    group: str
    members: Tuple[int, ...]
    clock: Dict[int, int]


@dataclasses.dataclass
class HappensBeforeResult:
    """Outcome of replaying the per-rank logs as a synchronization game."""

    fired: List[FiredCollective]
    completed: bool
    stuck_heads: Dict[int, TraceEvent]
    exhausted_ranks: List[int]

    def wait_graph(
        self, group_members: Dict[str, Tuple[int, ...]]
    ) -> Dict[int, List[int]]:
        """Cross-group wait-for edges at the stuck point.

        Rank ``r`` (blocked on its head event's group) waits for every
        member of that group whose own head is elsewhere (or whose log
        is exhausted).
        """
        graph: Dict[int, List[int]] = {}
        for rank in sorted(self.stuck_heads):
            head = self.stuck_heads[rank]
            members = group_members.get(head.group, ())
            waits = [
                m for m in members
                if m != rank and (
                    m not in self.stuck_heads
                    or self.stuck_heads[m].group != head.group
                )
            ]
            graph[rank] = waits
        return graph


def simulate_happens_before(
    recorder: CollectiveTraceRecorder,
) -> HappensBeforeResult:
    """Replay per-rank logs as blocking collectives; build vector clocks.

    A collective on group ``g`` fires only when *every* member's log
    head has reached an event on ``g`` — exactly the blocking semantics
    of a real communicator (op-name mismatches still fire; naming
    divergence is UCP014's domain, while *reachability* is decided
    purely by which group a rank is blocked on).  On fire, all members
    synchronize: their vector clocks join and each member's own
    component increments.  A replay that stops with unconsumed events
    is a deadlock; the stuck heads drive the wait-for graph.
    """
    pointers: Dict[int, int] = {r: 0 for r in recorder.events}
    clocks: Dict[int, Dict[int, int]] = {r: {} for r in recorder.events}
    fired: List[FiredCollective] = []

    def head(rank: int) -> Optional[TraceEvent]:
        log = recorder.events.get(rank, [])
        index = pointers.get(rank, 0)
        return log[index] if index < len(log) else None

    progress = True
    while progress:
        progress = False
        for group in sorted(recorder.group_members):
            members = recorder.group_members[group]
            heads = [head(r) for r in members]
            if any(h is None or h.group != group for h in heads):
                continue
            joined: Dict[int, int] = {}
            for member in members:
                for r, count in clocks.setdefault(member, {}).items():
                    joined[r] = max(joined.get(r, 0), count)
            for member in members:
                joined[member] = clocks[member].get(member, 0) + 1
            for member in members:
                clocks[member] = dict(joined)
                pointers[member] = pointers.get(member, 0) + 1
            fired.append(FiredCollective(
                op=heads[0].op, group=group, members=members,
                clock=dict(joined),
            ))
            progress = True

    stuck_heads = {
        r: h for r in sorted(recorder.events)
        if (h := head(r)) is not None
    }
    exhausted = sorted(
        r for r in recorder.events
        if head(r) is None and any(
            r in recorder.group_members.get(h.group, ())
            for h in stuck_heads.values()
        )
    )
    return HappensBeforeResult(
        fired=fired,
        completed=not stuck_heads,
        stuck_heads=stuck_heads,
        exhausted_ranks=exhausted,
    )


def clock_lte(a: Dict, b: Dict) -> bool:
    """Vector-clock partial order: ``a`` happened-before-or-equal ``b``.

    Keys are event-source identities — simulated ranks here, thread
    names in :mod:`repro.analysis.interleave`'s happens-before check,
    which reuses this exact partial order.
    """
    return all(count <= b.get(r, 0) for r, count in a.items())


def find_cycle(graph: Dict) -> Optional[List]:
    """One directed cycle in a wait-for/order graph, or None.

    Nodes may be any sortable hashable (ranks here, lock names in the
    static lock-order lint); traversal order is deterministic (sorted
    roots).
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {r: WHITE for r in graph}
    for start in sorted(graph):
        if color[start] != WHITE:
            continue
        stack: List[Tuple[int, int]] = [(start, 0)]
        path: List[int] = []
        while stack:
            node, edge_index = stack.pop()
            if edge_index == 0:
                color[node] = GRAY
                path.append(node)
            edges = graph.get(node, [])
            advanced = False
            for i in range(edge_index, len(edges)):
                nxt = edges[i]
                if color.get(nxt, BLACK) == GRAY:
                    return path[path.index(nxt):]
                if color.get(nxt, BLACK) == WHITE:
                    stack.append((node, i + 1))
                    stack.append((nxt, 0))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
    return None


def check_happens_before(recorder: CollectiveTraceRecorder) -> LintReport:
    """Deadlock cycles and critical-section overlaps (UCP023).

    Two findings come out of the vector-clock replay:

    * **deadlock** — the replay stuck with unconsumed events.  The
      wait-for graph's cycle (rank-by-rank, naming the group each rank
      is blocked on) is rendered when one exists; otherwise the stuck
      ranks are blocked on peers that already exhausted their logs
      (e.g. a dropped barrier).
    * **critical-section overlap** — ``barrier:save:<tag>:enter`` /
      ``:commit`` (and ``convert:``) pairs delimit sections whose file
      writes must serialize.  Two sections neither of whose commits
      happens-before the other's enter would interleave on a real
      cluster; and a section entered but never committed is a torn
      protocol (dropped commit barrier).
    """
    report = LintReport(subject="collective trace")
    result = simulate_happens_before(recorder)

    if not result.completed:
        graph = result.wait_graph(recorder.group_members)
        cycle = find_cycle(graph)
        if cycle is not None:
            hops = []
            for i, rank in enumerate(cycle):
                head_event = result.stuck_heads[rank]
                nxt = cycle[(i + 1) % len(cycle)]
                hops.append(
                    f"rank {rank} waits for rank {nxt} on group "
                    f"{head_event.group} ({head_event.render()})"
                )
            report.add(error(
                "UCP023",
                f"collective deadlock cycle: {'; '.join(hops)}; a real "
                f"communicator would hang here forever",
                location="trace",
            ))
        else:
            blocked = "; ".join(
                f"rank {r} blocked on group "
                f"{result.stuck_heads[r].group} "
                f"({result.stuck_heads[r].render()})"
                for r in sorted(result.stuck_heads)
            )
            exhausted = (
                f"; ranks {result.exhausted_ranks} already exhausted "
                f"their logs (dropped collective?)"
                if result.exhausted_ranks else ""
            )
            report.add(error(
                "UCP023",
                f"collective replay deadlocks with no cycle: {blocked}"
                f"{exhausted}",
                location="trace",
            ))

    # critical sections from fired barriers, in fire order
    open_sections: Dict[Tuple[str, str, str], Dict[int, int]] = {}
    closed: List[Tuple[Tuple[str, str, str], Dict[int, int], Dict[int, int]]] = []
    for fired in result.fired:
        match = _SECTION_RE.match(fired.op)
        if match is None:
            continue
        kind, tag, edge = match.groups()
        key = (kind, tag, fired.group)
        if edge == "enter":
            open_sections[key] = fired.clock
        elif key in open_sections:
            closed.append((key, open_sections.pop(key), fired.clock))

    for key in sorted(open_sections):
        kind, tag, group = key
        report.add(error(
            "UCP023",
            f"{kind} critical section {tag!r} entered but never "
            f"committed (dropped commit barrier on group {group}); a "
            f"crash here leaves a torn checkpoint that looks committed "
            f"to stragglers",
            location=f"group {group}",
        ))

    for i in range(len(closed)):
        for j in range(i + 1, len(closed)):
            (kind_a, tag_a, _), enter_a, commit_a = closed[i]
            (kind_b, tag_b, _), enter_b, commit_b = closed[j]
            if clock_lte(commit_a, enter_b) or clock_lte(commit_b, enter_a):
                continue
            report.add(error(
                "UCP023",
                f"critical sections {kind_a}:{tag_a} and "
                f"{kind_b}:{tag_b} overlap: neither commit "
                f"happens-before the other's enter, so their file "
                f"writes interleave on a real cluster",
                location="trace",
            ))
    return report


def check_trace(recorder: CollectiveTraceRecorder) -> LintReport:
    """All trace checks composed: ordering, arguments, happens-before.

    The ``repro lint-trace`` entry point (UCP014 + UCP023 + UCP024).
    """
    report = LintReport(subject="collective trace")
    report.extend(check_collective_ordering(recorder).diagnostics)
    report.extend(check_collective_args(recorder).diagnostics)
    report.extend(check_happens_before(recorder).diagnostics)
    return report
