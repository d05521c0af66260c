"""CheckFreq-style asynchronous snapshotting and frequency tuning.

CheckFreq (FAST'21, the paper's Related Work) reduces checkpoint stalls
by splitting a save into a fast in-memory *snapshot* (GPU -> host copy,
blocks training briefly) and a background *persist* (host -> disk,
overlapped with subsequent compute), and by tuning the checkpoint
interval so total overhead stays under a budget.

We reproduce both mechanisms against the simulated engine.  The key
correctness property — a snapshot taken at step *t* persists exactly
the state a synchronous save at *t* would have written, even if
training advances before the persist completes — is what the tests pin
down.  UCP composes with this: the persisted files are ordinary
distributed checkpoints, so they remain convertible.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro import obs
from repro.ckpt.saver import CheckpointInfo, save_distributed_checkpoint
from repro.parallel.zero import ZeroOptimizer


@dataclasses.dataclass
class EngineSnapshot:
    """A consistent point-in-time copy of an engine's training state."""

    iteration: int
    zero: ZeroOptimizer
    loss_scaler_state: Optional[Dict]
    source_engine: object  # config/topology provider (never mutated state)
    label: str = ""  # sanitizer registry key (unique per capture)


class _SnapshotView:
    """Engine look-alike backed by frozen snapshot state.

    Exposes exactly the attributes the checkpoint saver reads, with
    ``zero`` and ``iteration`` pinned to the snapshot instant.
    """

    def __init__(self, snapshot: EngineSnapshot) -> None:
        engine = snapshot.source_engine
        self.model_cfg = engine.model_cfg
        self.parallel_cfg = engine.parallel_cfg
        self.layout = engine.layout
        self.adam = engine.adam
        self.mp_policy = engine.mp_policy
        self.seed = engine.seed
        self.data_seed = engine.data_seed
        self.global_batch_size = engine.global_batch_size
        self.seq_len = engine.seq_len
        self.zero = snapshot.zero
        self.iteration = snapshot.iteration
        if snapshot.loss_scaler_state is not None and engine.loss_scaler is not None:
            from repro.optim.mixed_precision import LossScaler

            scaler = LossScaler()
            scaler.load_state_dict(snapshot.loss_scaler_state)
            self.loss_scaler = scaler
        else:
            self.loss_scaler = None


class SnapshotManager:
    """Two-phase checkpointing: snapshot now, persist later."""

    def __init__(self, engine) -> None:
        self.engine = engine
        # the persist phase is meant to run on a background thread while
        # the training thread keeps snapshotting; only the bookkeeping
        # is locked — disk writes happen outside the critical section
        self._lock = obs.make_lock("SnapshotManager._lock")
        self._pending: List[EngineSnapshot] = []  # guarded-by: self._lock
        self._captures = 0  # guarded-by: self._lock

    def snapshot(self) -> EngineSnapshot:
        """Capture a consistent copy of the current training state.

        This is the blocking phase (CheckFreq's GPU->host copy): cheap
        relative to disk I/O because it is memory-to-memory.
        """
        frozen = ZeroOptimizer(self.engine.layout, self.engine.adam)
        for coord, parts in self.engine.zero.partitions.items():
            frozen.partitions[coord] = [p.clone() for p in parts]
        with self._lock:
            self._captures += 1
            capture_id = self._captures
        snap = EngineSnapshot(
            iteration=self.engine.iteration,
            zero=frozen,
            loss_scaler_state=(
                self.engine.loss_scaler.state_dict()
                if self.engine.loss_scaler is not None
                else None
            ),
            source_engine=self.engine,
            label=f"snapshot#{capture_id}@it{self.engine.iteration}",
        )
        # a listening memory sanitizer checks every captured array is
        # backed by memory disjoint from the live engine (a missing
        # ``clone()`` is UCP026) and write-protects the clean captures so
        # nothing can mutate them between capture and persist
        if obs._ACTIVE:
            obs.emit("snapshot_capture", snap.label, snap.zero, self.engine.zero)
        with self._lock:
            self._pending.append(snap)
        return snap

    def persist(self, snapshot: EngineSnapshot, directory: str) -> CheckpointInfo:
        """Write a snapshot to disk (the background phase).

        Training may have advanced arbitrarily since ``snapshot()``;
        the files reflect the snapshot instant regardless.
        """
        if obs._ACTIVE:  # the capture is re-verified (UCP026 on regression)
            obs.emit("snapshot_persist", snapshot.label, self.engine.zero)
        # the disk write must not happen under the lock (SRC007):
        # a concurrent snapshot() would stall behind the whole persist
        info = save_distributed_checkpoint(_SnapshotView(snapshot), directory)
        with self._lock:
            if snapshot in self._pending:
                self._pending.remove(snapshot)
        return info

    def save_async(self, directory: str) -> EngineSnapshot:
        """Snapshot immediately; caller persists when convenient."""
        snap = self.snapshot()
        snap.pending_directory = directory  # type: ignore[attr-defined]
        return snap

    def drain(self) -> List[CheckpointInfo]:
        """Persist every outstanding snapshot (e.g. at shutdown)."""
        with self._lock:
            outstanding = list(self._pending)
        infos = []
        for snap in outstanding:
            directory = getattr(snap, "pending_directory", None)
            if directory is None:
                continue
            infos.append(self.persist(snap, directory))
        return infos

    @property
    def pending_count(self) -> int:
        """Snapshots captured but not yet persisted."""
        with self._lock:
            return len(self._pending)


@dataclasses.dataclass(frozen=True)
class FrequencyPlan:
    """A tuned checkpoint cadence."""

    interval_steps: int
    overhead_fraction: float
    expected_lost_steps_on_failure: float


def tune_checkpoint_interval(
    step_time_s: float,
    snapshot_time_s: float,
    max_overhead_fraction: float = 0.035,
    min_interval: int = 1,
    max_interval: int = 10_000,
) -> FrequencyPlan:
    """CheckFreq's tuning rule: the smallest interval whose blocking
    snapshot overhead stays under the budget.

    Smaller intervals lose fewer steps on failure; the snapshot stall
    (`snapshot_time_s` per checkpoint) is the price.  Persist time does
    not count — it overlaps training.
    """
    if step_time_s <= 0 or snapshot_time_s < 0:
        raise ValueError("step_time_s must be > 0 and snapshot_time_s >= 0")
    if not 0 < max_overhead_fraction < 1:
        raise ValueError("max_overhead_fraction must be in (0, 1)")
    for interval in range(min_interval, max_interval + 1):
        overhead = snapshot_time_s / (interval * step_time_s + snapshot_time_s)
        if overhead <= max_overhead_fraction:
            return FrequencyPlan(
                interval_steps=interval,
                overhead_fraction=overhead,
                expected_lost_steps_on_failure=interval / 2.0,
            )
    return FrequencyPlan(
        interval_steps=max_interval,
        overhead_fraction=snapshot_time_s
        / (max_interval * step_time_s + snapshot_time_s),
        expected_lost_steps_on_failure=max_interval / 2.0,
    )
