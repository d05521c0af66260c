"""Injectable IO fault policies for the object store.

A :class:`FaultPolicy` hooks every byte-level write, publish and read
the :class:`~repro.storage.store.ObjectStore` performs.  The base policy
only counts operations (used to enumerate crash points); subclasses
inject the failure modes a production checkpointing system must
survive:

* :class:`CrashAtWrite` — the process dies at a chosen write boundary,
  optionally leaving a torn partial file (the bytes that reached disk
  before death).  Because the store writes through a temp file and an
  atomic rename, torn bytes only ever land in ``*.tmp`` files that no
  reader consults — that invariant is what the crash-matrix tests pin.
* :class:`NoSpaceAtPublish` — the Nth publishing rename fails with
  ``OSError(ENOSPC)``: the store stays up, the commit group the rename
  belonged to must fail whole and leave no ``*.tmp`` behind.
* :class:`RankKillAtWrite` — named ranks die at a write boundary
  (positional, or the first write matching a path), leaving survivors
  a supervisor regroups onto a smaller topology.

The store retries nothing: an IO error, injected or real, is a failure
to survive and surfaces to the caller.

Policies are plugged in at construction time::

    store = ObjectStore(path, faults=CrashAtWrite(3, torn=True))
    save_distributed_checkpoint(engine, path, store=store)  # raises InjectedCrash
"""

from __future__ import annotations

import dataclasses
import errno
import pathlib
import random as _random
from typing import Callable, List, Optional, Sequence, Tuple


class InjectedCrash(RuntimeError):
    """Simulated process death at an IO boundary.

    Raised by fault policies to model a rank dying mid-checkpoint; the
    store makes no attempt to catch it, exactly like a real SIGKILL.
    """


class RankKilled(InjectedCrash):
    """Specific ranks died (SIGKILL) rather than the whole job.

    Unlike a plain :class:`InjectedCrash` — which models the job
    vanishing — a rank kill leaves survivors that a supervisor can
    regroup onto a smaller topology.  Carries the dead ranks so the
    recovery path knows how much capacity remains.
    """

    def __init__(self, ranks: Sequence[int], where: str) -> None:
        super().__init__(
            f"rank(s) {sorted(ranks)} killed {where}"
        )
        self.ranks: Tuple[int, ...] = tuple(sorted(ranks))


class FaultPolicy:
    """Base policy: observes every IO boundary, injects nothing.

    ``write_ops`` / ``publish_ops`` / ``read_ops`` count the writes,
    publishing renames and reads the store performs, which is how tests
    enumerate the write boundaries of a save or conversion before
    replaying it with crashes.
    """

    def __init__(self) -> None:
        self.write_ops = 0
        self.publish_ops = 0
        self.read_ops = 0

    # --- hooks called by ObjectStore ---

    def on_write(self, rel_path: str, tmp_path: pathlib.Path, data: bytes) -> None:
        """Called before bytes are written (to ``tmp_path``, then renamed)."""
        self.write_ops += 1
        self._write_fault(self.write_ops, rel_path, tmp_path, data)

    def on_publish(self, rel_path: str, tmp_path: pathlib.Path) -> None:
        """Called before a staged ``tmp_path`` is renamed over its final
        name (its bytes were written, and fsynced if durable)."""
        self.publish_ops += 1
        self._publish_fault(self.publish_ops, rel_path, tmp_path)

    def on_read(self, rel_path: str, path: pathlib.Path) -> None:
        """Called before bytes are read from ``path``."""
        self.read_ops += 1

    # --- subclass extension points ---

    def _write_fault(
        self, op_index: int, rel_path: str, tmp_path: pathlib.Path, data: bytes
    ) -> None:
        pass

    def _publish_fault(
        self, op_index: int, rel_path: str, tmp_path: pathlib.Path
    ) -> None:
        pass


class CrashAtWrite(FaultPolicy):
    """Die at the Nth write boundary (0-based across the store's life).

    Args:
        crash_at: index of the fatal write.
        torn: when True, half of the payload is flushed to the temp
            file before death — the bytes a kernel may have written out
            before the process was killed.  The final path is never
            touched: POSIX ``rename`` is atomic, so a commit either
            fully happens or not at all.
    """

    def __init__(self, crash_at: int, torn: bool = False) -> None:
        super().__init__()
        if crash_at < 0:
            raise ValueError("crash_at must be >= 0")
        self.crash_at = crash_at
        self.torn = torn
        self.crashed = False

    def _write_fault(
        self, op_index: int, rel_path: str, tmp_path: pathlib.Path, data: bytes
    ) -> None:
        if op_index - 1 != self.crash_at:
            return
        self.crashed = True
        if self.torn and data:
            tmp_path.write_bytes(data[: max(1, len(data) // 2)])
        raise InjectedCrash(
            f"injected crash at write boundary {self.crash_at} ({rel_path})"
        )


class NoSpaceAtPublish(FaultPolicy):
    """The Nth publishing rename (0-based) fails with ``ENOSPC``.

    Not a crash: the process lives on, so the store must clean up — the
    commit group the rename belonged to fails as a whole, its remaining
    temps are unlinked, and whatever the caller treats as its commit
    point (``ucp_meta.npt``, a manifest) must not be written.  Fires
    once; later publishes succeed, which is what lets a plain re-run
    finish the job.
    """

    def __init__(self, at: int) -> None:
        super().__init__()
        if at < 0:
            raise ValueError("at must be >= 0")
        self.at = at

    def _publish_fault(
        self, op_index: int, rel_path: str, tmp_path: pathlib.Path
    ) -> None:
        if op_index - 1 == self.at:
            raise OSError(
                errno.ENOSPC,
                f"injected ENOSPC publishing {rel_path}",
            )


class RankKillAtWrite(FaultPolicy):
    """Kill specific ranks at a write boundary inside a save/conversion.

    The trigger is either positional (``at`` — the Nth write the store
    performs, 0-based, like :class:`CrashAtWrite`) or content-based
    (``match`` — the first write whose relative path contains the
    substring).  Content matching is how a supervisor aims a kill at a
    semantic point of the commit protocol: ``match=MANIFEST_FILE``
    dies immediately *before* the tag commits, ``match=LATEST_FILE``
    dies after the manifest committed but before the ``latest`` pointer
    advanced.

    Args:
        ranks: which ranks die (reported via :class:`RankKilled`).
        at: 0-based write boundary to die at; mutually exclusive with
            ``match``.
        match: substring of the relative path to die on.
        torn: leave half the payload in the temp file, as
            :class:`CrashAtWrite` does.
        on_kill: optional callback invoked with the dead ranks just
            before the exception is raised — the hook the supervisor
            uses to mark cluster ranks failed without this module ever
            importing :mod:`repro.dist`.

    The policy fires at most once; after the kill it becomes a passive
    counter so a store can be probed post-mortem.
    """

    def __init__(
        self,
        ranks: Sequence[int],
        at: Optional[int] = None,
        match: Optional[str] = None,
        torn: bool = False,
        on_kill: Optional[Callable[[Tuple[int, ...]], None]] = None,
    ) -> None:
        super().__init__()
        if (at is None) == (match is None):
            raise ValueError("exactly one of 'at' and 'match' is required")
        if at is not None and at < 0:
            raise ValueError("at must be >= 0")
        if not ranks:
            raise ValueError("at least one rank must die")
        self.ranks = tuple(sorted(ranks))
        self.at = at
        self.match = match
        self.torn = torn
        self.on_kill = on_kill
        self.killed = False

    def _write_fault(
        self, op_index: int, rel_path: str, tmp_path: pathlib.Path, data: bytes
    ) -> None:
        if self.killed:
            return
        if self.at is not None:
            if op_index - 1 != self.at:
                return
        elif self.match not in rel_path:
            return
        self.killed = True
        if self.torn and data:
            tmp_path.write_bytes(data[: max(1, len(data) // 2)])
        if self.on_kill is not None:
            self.on_kill(self.ranks)
        raise RankKilled(self.ranks, f"at write of {rel_path}")


# Lifecycle phases a kill can target.  ``step`` kills strike between
# IO, detected by the engine's next health check; the ``save_*`` pair
# brackets the commit point of the save protocol (manifest write);
# ``convert`` strikes during a recovery's own resharding conversion.
PHASE_STEP = "step"
PHASE_SAVE_PRE_COMMIT = "save_pre_commit"
PHASE_SAVE_POST_COMMIT = "save_post_commit"
PHASE_CONVERT = "convert"

KILL_PHASES = (
    PHASE_STEP,
    PHASE_SAVE_PRE_COMMIT,
    PHASE_SAVE_POST_COMMIT,
    PHASE_CONVERT,
)

# CLI spellings (repro supervise --kill STEP:PHASE:RANKS) -> phase.
_PHASE_ALIASES = {
    "step": PHASE_STEP,
    "save-pre": PHASE_SAVE_PRE_COMMIT,
    "save_pre_commit": PHASE_SAVE_PRE_COMMIT,
    "save-post": PHASE_SAVE_POST_COMMIT,
    "save_post_commit": PHASE_SAVE_POST_COMMIT,
    "convert": PHASE_CONVERT,
}


@dataclasses.dataclass(frozen=True)
class KillEvent:
    """One scheduled failure: *who* dies, *when*, and at which phase.

    Attributes:
        step: the training step the event is armed at.  ``step`` kills
            strike before that step executes; ``save_*`` kills strike
            inside the save issued at that step; ``convert`` kills
            strike during the first conversion triggered at or after
            that step.
        phase: one of :data:`KILL_PHASES`.
        ranks: the ranks that die.
        at_write: for ``convert`` events, the 0-based write boundary
            of the conversion to die at (default 1: after the source
            marker, mid-atom-stream).
        torn: leave a torn temp file behind (save/convert phases).
    """

    step: int
    phase: str
    ranks: Tuple[int, ...]
    at_write: int = 1
    torn: bool = False

    def __post_init__(self) -> None:
        if self.phase not in KILL_PHASES:
            raise ValueError(
                f"unknown kill phase {self.phase!r}; expected one of "
                f"{', '.join(KILL_PHASES)}"
            )
        if self.step < 0:
            raise ValueError("step must be >= 0")
        if not self.ranks:
            raise ValueError("at least one rank must die")

    @classmethod
    def from_spec(cls, spec: str) -> "KillEvent":
        """Parse the CLI form ``STEP:PHASE:RANKS[:AT_WRITE]``.

        ``RANKS`` is comma-separated; ``PHASE`` accepts the CLI
        spellings ``step``, ``save-pre``, ``save-post``, ``convert``.
        Example: ``6:save-pre:3`` or ``9:convert:0,1:2``.
        """
        parts = spec.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(
                f"bad kill spec {spec!r}: expected STEP:PHASE:RANKS[:AT_WRITE]"
            )
        phase = _PHASE_ALIASES.get(parts[1].strip().lower())
        if phase is None:
            raise ValueError(
                f"bad kill spec {spec!r}: unknown phase {parts[1]!r} "
                f"(use step, save-pre, save-post, or convert)"
            )
        try:
            step = int(parts[0])
            ranks = tuple(sorted(int(r) for r in parts[2].split(",")))
            at_write = int(parts[3]) if len(parts) == 4 else 1
        except ValueError:
            raise ValueError(
                f"bad kill spec {spec!r}: step, ranks, and at_write "
                f"must be integers"
            ) from None
        return cls(step=step, phase=phase, ranks=ranks, at_write=at_write)

    def describe(self) -> str:
        """The canonical spec string this event round-trips through."""
        alias = {v: k for k, v in _PHASE_ALIASES.items() if "-" in k or v == k}
        base = (
            f"{self.step}:{alias.get(self.phase, self.phase)}:"
            + ",".join(str(r) for r in self.ranks)
        )
        if self.phase == PHASE_CONVERT and self.at_write != 1:
            base += f":{self.at_write}"
        return base


class KillSchedule:
    """An ordered set of :class:`KillEvent` consumed once each.

    A supervisor polls the schedule by phase: step kills before each
    training step, save kills when issuing a save, and convert kills
    when launching a recovery conversion.  Events are consumed exactly
    once, so a replayed step (after a resume rewound the iteration
    counter) does not re-fire a kill that already happened.
    """

    def __init__(self, events: Sequence[KillEvent] = ()) -> None:
        self.events: List[KillEvent] = sorted(
            events, key=lambda e: (e.step, KILL_PHASES.index(e.phase), e.ranks)
        )
        self._consumed = [False] * len(self.events)

    @classmethod
    def from_specs(cls, specs: Sequence[str]) -> "KillSchedule":
        """Build a schedule from CLI ``STEP:PHASE:RANKS`` strings."""
        return cls([KillEvent.from_spec(s) for s in specs])

    @classmethod
    def random(
        cls,
        seed: int,
        world_size: int,
        horizon: int,
        save_every: int,
        failures: int = 1,
        phases: Sequence[str] = KILL_PHASES,
    ) -> "KillSchedule":
        """A deterministic randomized schedule for chaos sweeps.

        Uses :class:`random.Random` seeded with ``seed`` only — two
        calls with equal arguments yield equal schedules regardless of
        process or hash seed.  Single-rank kills at distinct steps;
        save-phase kills are aligned to save steps so they actually
        strike a save.
        """
        if failures < 1 or world_size < 2:
            raise ValueError("need failures >= 1 and world_size >= 2")
        rng = _random.Random(seed)
        events = []
        used_steps: set = set()
        save_steps = [s for s in range(save_every, horizon, save_every)]
        for _ in range(failures):
            phase = rng.choice(list(phases))
            if phase in (PHASE_SAVE_PRE_COMMIT, PHASE_SAVE_POST_COMMIT):
                candidates = [s for s in save_steps if s not in used_steps]
                if not candidates:
                    phase = PHASE_STEP
            if phase in (PHASE_SAVE_PRE_COMMIT, PHASE_SAVE_POST_COMMIT):
                step = rng.choice(candidates)
            else:
                candidates = [
                    s for s in range(1, horizon) if s not in used_steps
                ]
                if not candidates:
                    break
                step = rng.choice(candidates)
            used_steps.add(step)
            rank = rng.randrange(world_size)
            events.append(
                KillEvent(step=step, phase=phase, ranks=(rank,))
            )
        return cls(events)

    def __len__(self) -> int:
        return len(self.events)

    def pending(self) -> List[KillEvent]:
        """Events not yet consumed, in schedule order."""
        return [
            e for e, done in zip(self.events, self._consumed) if not done
        ]

    def _take(self, index: int) -> KillEvent:
        self._consumed[index] = True
        return self.events[index]

    def take_step_kills(self, step: int) -> List[KillEvent]:
        """Consume every pending ``step``-phase event armed at ``step``."""
        taken = []
        for i, event in enumerate(self.events):
            if (
                not self._consumed[i]
                and event.phase == PHASE_STEP
                and event.step == step
            ):
                taken.append(self._take(i))
        return taken

    def take_save_kill(self, step: int) -> Optional[KillEvent]:
        """Consume the pending save-phase event armed at ``step``, if any."""
        for i, event in enumerate(self.events):
            if (
                not self._consumed[i]
                and event.phase
                in (PHASE_SAVE_PRE_COMMIT, PHASE_SAVE_POST_COMMIT)
                and event.step == step
            ):
                return self._take(i)
        return None

    def take_convert_kill(self, step: int) -> Optional[KillEvent]:
        """Consume the earliest pending convert event armed at or
        before ``step`` — 'the next conversion after step N dies'."""
        for i, event in enumerate(self.events):
            if (
                not self._consumed[i]
                and event.phase == PHASE_CONVERT
                and event.step <= step
            ):
                return self._take(i)
        return None
