"""Elastic failure recovery: the supervised kill→reshard→resume loop.

The paper's reconfigurable parallelism is exercised elsewhere in this
repo as an *offline* ``ucp_convert`` call.  This module closes the
loop the introduction motivates: a :class:`Supervisor` drives a
simulated training job toward a step horizon while a
:class:`~repro.storage.faults.KillSchedule` strikes ranks at the
interesting points of the step/save/convert lifecycle.  Each failure
triggers the production recovery sequence:

1. **detect** — the engine's next health check (or the save/convert
   fault itself) surfaces the dead ranks;
2. **replan** — :class:`~repro.core.resume.ElasticResumeManager`
   picks a feasible surviving :class:`ParallelConfig` for the reduced
   capacity, and the interchange pre-flight linter proves the
   source→target conversion well-formed *before any tensor is read*
   (an infeasible requested topology is rejected with UCP
   diagnostics via :class:`TopologyRejectedError`, never a crash);
3. **convert** — the streamed resumable ``ucp_convert`` reshards the
   newest *committed* tag (:func:`~repro.ckpt.loader.latest_committed_tag`
   — never a torn save) into universal atoms, reusing every atom a
   previously interrupted conversion already committed;
4. **resume** — a fresh engine is rebuilt from the checkpoint's job
   config under the new topology and loads the atoms.

Every stage is charged deterministic simulated seconds (fixed costs
for compute/detection/replan, the object stores' NVMe accounting for
IO), so the emitted :class:`RecoveryReport` — stage timings, MTTR,
goodput, bytes reconverted vs reused — is bit-reproducible for a
given schedule and seed.  ``repro supervise`` exposes the loop on the
command line; the chaos matrix in ``tests/test_supervisor_chaos.py``
is its correctness proof.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional, Sequence, Tuple

# repro.core must initialize before repro.analysis: the analysis
# package's diagnostics module imports repro.core.errors mid-cycle and
# only survives when repro.core started first (the same entry order
# repro/__init__ establishes) — so UCPError is pulled ahead of the
# continuity import here, deliberately out of alphabetical order.
from repro.core.errors import UCPError
from repro.analysis.continuity import (
    PAPER_LOSS_BAND,
    ContinuityReport,
    check_loss_continuity,
)
from repro.ckpt import naming
from repro.ckpt.loader import latest_committed_tag, read_job_config
from repro.dist.topology import ParallelConfig
from repro.models.configs import ModelConfig
from repro.storage.faults import (
    KillEvent,
    KillSchedule,
    PHASE_SAVE_PRE_COMMIT,
    RankKillAtWrite,
    RankKilled,
)
from repro.storage.store import ObjectStore


class TopologyRejectedError(UCPError):
    """A requested target topology failed the interchange pre-flight.

    Raised during replan, before any tensor is read.  Carries the
    offending target and the linter's :class:`LintReport`, so callers
    see *which* UCP rule (e.g. UCP007 fragment divisibility) rejected
    the topology.
    """

    def __init__(self, target: ParallelConfig, report) -> None:
        rules = ", ".join(
            sorted({d.rule_id for d in report.errors})
        ) or "no diagnostics"
        super().__init__(
            f"target topology {target.describe()} rejected by interchange "
            f"pre-flight ({rules}): "
            + "; ".join(d.message for d in report.errors[:2])
        )
        self.target = target
        self.report = report


@dataclasses.dataclass(frozen=True)
class StageTimings:
    """Simulated seconds spent in each stage of one recovery."""

    detection_s: float
    replan_s: float
    convert_s: float
    resume_s: float

    @property
    def total_s(self) -> float:
        """End-to-end repair time of this recovery."""
        return self.detection_s + self.replan_s + self.convert_s + self.resume_s

    def to_dict(self) -> Dict:
        """JSON-ready dict with rounded floats."""
        return {
            "detection_s": round(self.detection_s, 6),
            "replan_s": round(self.replan_s, 6),
            "convert_s": round(self.convert_s, 6),
            "resume_s": round(self.resume_s, 6),
            "total_s": round(self.total_s, 6),
        }


@dataclasses.dataclass(frozen=True)
class RecoveryEvent:
    """One recovery attempt: a failure and the path back to training.

    ``completed`` is False when the recovery itself was struck by a
    mid-convert kill — the follow-up attempt appears as the next event
    and reuses every atom this one committed.
    """

    index: int
    trigger_phase: str
    trigger_step: int
    killed_ranks: Tuple[int, ...]
    capacity_after: int
    source_config: str
    target_config: str
    resume_tag: str
    resume_step: int
    lost_steps: int
    atoms_reused: int
    bytes_read: int
    bytes_written: int
    timings: StageTimings
    completed: bool
    integrity_ok: bool
    plan_reason: str

    def to_dict(self) -> Dict:
        """JSON-ready dict of this recovery attempt."""
        return {
            "index": self.index,
            "trigger_phase": self.trigger_phase,
            "trigger_step": self.trigger_step,
            "killed_ranks": list(self.killed_ranks),
            "capacity_after": self.capacity_after,
            "source_config": self.source_config,
            "target_config": self.target_config,
            "resume_tag": self.resume_tag,
            "resume_step": self.resume_step,
            "lost_steps": self.lost_steps,
            "atoms_reused": self.atoms_reused,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "timings": self.timings.to_dict(),
            "completed": self.completed,
            "integrity_ok": self.integrity_ok,
            "plan_reason": self.plan_reason,
        }


@dataclasses.dataclass
class RecoveryReport:
    """The supervisor's structured account of one supervised run.

    Attributes:
        model: model name.
        initial_config / final_config: ``describe()`` strings of the
            topology the job started and finished under.
        horizon: the step count the job was asked to reach.
        useful_steps: steps whose results survived to the end (== the
            horizon when the run finished).
        wall_steps: train steps actually executed, including work a
            rollback discarded — the goodput denominator.
        goodput: ``useful_steps / wall_steps`` (1.0 = no lost work).
        interruptions: kill events that fired.
        mttr_s: mean simulated repair time over completed recoveries.
        committed_tags: every tag that ever committed, in commit order.
        lost_committed_tags: committed tags whose manifest is gone or
            broken at the end of the run — must always be empty.
        events: per-recovery detail.
        losses: the final per-step loss curve (replays overwrite).
        continuity: loss-continuity check against a golden curve, when
            one was supplied.
        sim_time_s: total simulated wall-clock of the run.
    """

    model: str
    initial_config: str
    final_config: str
    horizon: int
    useful_steps: int
    wall_steps: int
    goodput: float
    interruptions: int
    mttr_s: float
    committed_tags: List[str]
    lost_committed_tags: List[str]
    events: List[RecoveryEvent]
    losses: List[float]
    continuity: Optional[ContinuityReport]
    sim_time_s: float

    def to_dict(self) -> Dict:
        """JSON-ready dict of the whole run (rounded floats)."""
        return {
            "model": self.model,
            "initial_config": self.initial_config,
            "final_config": self.final_config,
            "horizon": self.horizon,
            "useful_steps": self.useful_steps,
            "wall_steps": self.wall_steps,
            "goodput": round(self.goodput, 6),
            "interruptions": self.interruptions,
            "recoveries": len([e for e in self.events if e.completed]),
            "mttr_s": round(self.mttr_s, 6),
            "committed_tags": list(self.committed_tags),
            "lost_committed_tags": list(self.lost_committed_tags),
            "events": [e.to_dict() for e in self.events],
            "losses": [round(x, 6) for x in self.losses],
            "continuity": (
                self.continuity.to_dict() if self.continuity else None
            ),
            "sim_time_s": round(self.sim_time_s, 6),
        }

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, rounded floats — byte-stable
        across runs of the same schedule and seed."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        """Human-readable multi-line summary of the run."""
        lines = [
            f"supervised run: {self.model} @ {self.initial_config} "
            f"-> {self.final_config}",
            f"  steps: {self.useful_steps}/{self.horizon} useful, "
            f"{self.wall_steps} executed (goodput {self.goodput:.3f})",
            f"  interruptions: {self.interruptions}, "
            f"mttr {self.mttr_s:.4f}s, sim time {self.sim_time_s:.4f}s",
            f"  committed tags: {', '.join(self.committed_tags) or '-'}",
        ]
        if self.lost_committed_tags:
            lines.append(
                f"  LOST committed tags: {', '.join(self.lost_committed_tags)}"
            )
        for e in self.events:
            status = "ok" if e.completed else "interrupted"
            lines.append(
                f"  recovery {e.index}: {e.trigger_phase}@step"
                f"{e.trigger_step} killed {list(e.killed_ranks)} -> "
                f"{e.target_config} from {e.resume_tag} "
                f"(lost {e.lost_steps} steps, reused {e.atoms_reused} "
                f"atoms, {e.timings.total_s:.4f}s, {status})"
            )
        if self.continuity is not None:
            c = self.continuity
            lines.append(
                f"  continuity: max |Δloss| {c.max_delta:.6f} over "
                f"{c.num_steps} steps (band {c.tolerance}) -> "
                f"{'ok' if c.ok else 'VIOLATED'}"
            )
        return "\n".join(lines)


class Supervisor:
    """Drives one simulated job to a horizon across injected failures.

    Args:
        model_cfg: the model to train.
        parallel_cfg: the initial topology (defines initial capacity).
        workdir: directory for the job's checkpoints and conversions.
        horizon: target step count.
        save_every: checkpoint cadence in steps (saves fire when the
            iteration count is a positive multiple).
        schedule: the kill schedule; empty means an uninterrupted
            (golden) run.
        target_overrides: optional queue of topologies to force, one
            per recovery, instead of the planner's choice — still
            validated by the pre-flight linter.
        seed / data_seed / global_batch_size / seq_len / micro_batches:
            forwarded to :class:`~repro.parallel.engine.TrainingEngine`.
        step_time_s / detection_time_s / replan_time_s: fixed simulated
            costs; convert/resume stages are charged from the object
            stores' NVMe accounting instead.
        tolerance: loss-continuity band used when a golden curve is
            supplied to :meth:`run`.
    """

    def __init__(
        self,
        model_cfg: ModelConfig,
        parallel_cfg: ParallelConfig,
        workdir: str,
        horizon: int = 16,
        save_every: int = 4,
        schedule: Optional[KillSchedule] = None,
        target_overrides: Optional[Sequence[ParallelConfig]] = None,
        seed: int = 7,
        data_seed: int = 1234,
        global_batch_size: int = 8,
        seq_len: int = 16,
        micro_batches: int = 1,
        step_time_s: float = 0.05,
        detection_time_s: float = 0.01,
        replan_time_s: float = 0.002,
        tolerance: float = PAPER_LOSS_BAND,
    ) -> None:
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if save_every < 1:
            raise ValueError("save_every must be >= 1")
        self.model_cfg = model_cfg
        self.parallel_cfg = parallel_cfg
        self.workdir = workdir
        self.horizon = horizon
        self.save_every = save_every
        self.schedule = schedule if schedule is not None else KillSchedule()
        self._overrides: List[ParallelConfig] = list(target_overrides or [])
        self.seed = seed
        self.data_seed = data_seed
        self.global_batch_size = global_batch_size
        self.seq_len = seq_len
        self.micro_batches = micro_batches
        self.step_time_s = step_time_s
        self.detection_time_s = detection_time_s
        self.replan_time_s = replan_time_s
        self.tolerance = tolerance

        self.capacity = parallel_cfg.world_size
        self.committed_tags: List[str] = []
        self.loss_by_step: Dict[int, float] = {}
        self.events: List[RecoveryEvent] = []
        self.wall_steps = 0
        self.sim_time_s = 0.0
        self.interruptions = 0

    # --- engine construction -------------------------------------------------

    def _initial_engine(self):
        from repro.parallel.engine import TrainingEngine

        return TrainingEngine(
            self.model_cfg,
            self.parallel_cfg,
            seed=self.seed,
            data_seed=self.data_seed,
            global_batch_size=self.global_batch_size,
            seq_len=self.seq_len,
            micro_batches=self.micro_batches,
        )

    def _map_ranks(self, engine, ranks: Sequence[int]) -> List[int]:
        """Clamp scheduled ranks into the engine's current world.

        Kill schedules are written against the *initial* topology; after
        a reshard the world is smaller, so a scheduled rank is folded
        onto the surviving world (rank mod world size) — the chaos
        equivalent of "some currently-running rank dies".
        """
        world = engine.cluster.world_size
        return sorted({r % world for r in ranks})

    def _kill_engine_ranks(self, engine, ranks: Sequence[int]) -> List[int]:
        """Mark ranks dead on the cluster; returns the newly dead."""
        fresh = []
        for rank in self._map_ranks(engine, ranks):
            if rank not in engine.cluster.failed_ranks:
                engine.cluster.fail_rank(rank)
                fresh.append(rank)
        self.capacity = max(1, self.capacity - len(fresh))
        return fresh

    # --- save path -----------------------------------------------------------

    def _save(self, engine, kill: Optional[KillEvent]) -> None:
        """Checkpoint the engine, optionally dying at a commit boundary.

        A ``save_pre_commit`` kill strikes the manifest write — the tag
        never commits; a ``save_post_commit`` kill strikes the
        ``latest`` pointer write — the tag *is* committed even though
        the pointer still names its predecessor.
        """
        from repro.ckpt.saver import save_distributed_checkpoint

        faults = None
        if kill is not None:
            match = (
                naming.MANIFEST_FILE
                if kill.phase == PHASE_SAVE_PRE_COMMIT
                else naming.LATEST_FILE
            )
            faults = RankKillAtWrite(
                ranks=kill.ranks,
                match=match,
                torn=kill.torn,
                on_kill=lambda ranks: self._kill_engine_ranks(engine, ranks),
            )
        store = ObjectStore(self.workdir, faults=faults)
        tag = naming.tag_for_step(engine.iteration)
        try:
            info = save_distributed_checkpoint(engine, self.workdir, store=store)
            self.committed_tags.append(info.tag)
        except RankKilled:
            self.interruptions += 1
            # manifest write happens before `latest`: a post-commit
            # kill leaves the tag durably committed despite the death
            if kill is not None and kill.phase != PHASE_SAVE_PRE_COMMIT:
                self.committed_tags.append(tag)
            raise
        finally:
            self.sim_time_s += store.simulated_write_s

    # --- replan --------------------------------------------------------------

    def _plan_target(
        self, source_cfg: ParallelConfig
    ) -> Tuple[ParallelConfig, str]:
        """Choose (and pre-flight validate) the surviving topology."""
        from repro.analysis.interchange import lint_plan
        from repro.core.resume import ElasticResumeManager

        if self._overrides:
            target = self._overrides.pop(0)
            reason = f"operator override -> {target.describe()}"
        else:
            manager = ElasticResumeManager(
                self.workdir,
                global_batch_size=self.global_batch_size,
                micro_batches=self.micro_batches,
                seq_len=self.seq_len,
            )
            plan = manager.plan_resize(source_cfg, self.capacity)
            target, reason = plan.target, plan.reason
        report = lint_plan(self.model_cfg, source_cfg, target)
        if not report.ok:
            raise TopologyRejectedError(target, report)
        return target, reason

    # --- recovery ------------------------------------------------------------

    def _recover(self, engine, trigger_phase: str, trigger_step: int):
        """Run detect→replan→convert→resume until an attempt survives.

        A mid-convert kill aborts the attempt (recorded as an
        incomplete :class:`RecoveryEvent`) and loops back to replan
        with the further-reduced capacity; the next attempt's
        conversion reuses every atom the dead one committed.  A
        failure before any tag ever committed cold-restarts the job
        from step 0 under the replanned topology — there is no
        checkpoint to lose, so nothing is converted or loaded.
        """
        from repro.ckpt.errors import CheckpointNotFoundError
        from repro.core.convert import ucp_convert
        from repro.core.inspect import verify_directory
        from repro.core.loader import load_ucp_into_engine
        from repro.core.resume import _engine_from_job_config

        killed = tuple(sorted(engine.cluster.failed_ranks))
        while True:
            detection_s = self.detection_time_s
            replan_s = self.replan_time_s

            try:
                tag = latest_committed_tag(self.workdir)
            except CheckpointNotFoundError:
                return self._cold_restart(
                    engine, trigger_phase, trigger_step, killed,
                    detection_s, replan_s,
                )
            job_config = read_job_config(self.workdir, tag)
            source_cfg = ParallelConfig.from_dict(job_config["parallel_config"])
            target, reason = self._plan_target(source_cfg)

            ucp_dir = f"{self.workdir}/ucp_{tag}"
            kill = self.schedule.take_convert_kill(trigger_step)
            faults = None
            if kill is not None:
                faults = RankKillAtWrite(
                    ranks=kill.ranks, at=kill.at_write, torn=kill.torn
                )
            dst_store = ObjectStore(ucp_dir, faults=faults)
            resume_step = int(job_config["iteration"])
            lost = max(0, engine.iteration - resume_step)
            try:
                # "the N-th write" only names a fixed set of landed
                # atoms under a serial write order, so the attempt a
                # positional kill is aimed at runs on one worker
                conv = ucp_convert(
                    self.workdir, ucp_dir, tag=tag, dst_store=dst_store,
                    workers=1 if kill is not None else None,
                )
            except RankKilled as exc:
                self.interruptions += 1
                self.capacity = max(1, self.capacity - len(exc.ranks))
                convert_s = (
                    dst_store.simulated_write_s + dst_store.simulated_read_s
                )
                self.sim_time_s += detection_s + replan_s + convert_s
                self.events.append(
                    RecoveryEvent(
                        index=len(self.events),
                        trigger_phase=trigger_phase,
                        trigger_step=trigger_step,
                        killed_ranks=killed,
                        capacity_after=self.capacity,
                        source_config=source_cfg.describe(),
                        target_config=target.describe(),
                        resume_tag=tag,
                        resume_step=resume_step,
                        lost_steps=lost,
                        atoms_reused=0,
                        bytes_read=dst_store.bytes_read,
                        bytes_written=dst_store.bytes_written,
                        timings=StageTimings(
                            detection_s, replan_s, convert_s, 0.0
                        ),
                        completed=False,
                        integrity_ok=True,
                        plan_reason=reason,
                    )
                )
                killed = exc.ranks
                trigger_phase = "convert"
                continue

            convert_s = conv.simulated_read_s + conv.simulated_write_s
            fresh = _engine_from_job_config(
                job_config, target, micro_batches=self.micro_batches
            )
            load_store = ObjectStore(ucp_dir)
            load_ucp_into_engine(fresh, ucp_dir, store=load_store)
            resume_s = load_store.simulated_read_s
            self.sim_time_s += detection_s + replan_s + convert_s + resume_s
            integrity_ok = verify_directory(self.workdir).ok
            self.events.append(
                RecoveryEvent(
                    index=len(self.events),
                    trigger_phase=trigger_phase,
                    trigger_step=trigger_step,
                    killed_ranks=killed,
                    capacity_after=self.capacity,
                    source_config=source_cfg.describe(),
                    target_config=target.describe(),
                    resume_tag=tag,
                    resume_step=resume_step,
                    lost_steps=lost,
                    atoms_reused=conv.num_reused,
                    bytes_read=conv.bytes_read,
                    bytes_written=conv.bytes_written,
                    timings=StageTimings(
                        detection_s, replan_s, convert_s, resume_s
                    ),
                    completed=True,
                    integrity_ok=integrity_ok,
                    plan_reason=reason,
                )
            )
            return fresh

    def _cold_restart(
        self,
        engine,
        trigger_phase: str,
        trigger_step: int,
        killed: Tuple[int, ...],
        detection_s: float,
        replan_s: float,
    ):
        """Restart from step 0: a failure struck before the first
        commit, so there is no checkpoint to resume — the job rebuilds
        under the replanned topology with its original seeds."""
        from repro.core.inspect import verify_directory
        from repro.parallel.engine import TrainingEngine

        source_cfg = engine.parallel_cfg
        target, reason = self._plan_target(source_cfg)
        fresh = TrainingEngine(
            self.model_cfg,
            target,
            seed=self.seed,
            data_seed=self.data_seed,
            global_batch_size=self.global_batch_size,
            seq_len=self.seq_len,
            micro_batches=self.micro_batches,
        )
        self.sim_time_s += detection_s + replan_s
        self.events.append(
            RecoveryEvent(
                index=len(self.events),
                trigger_phase=trigger_phase,
                trigger_step=trigger_step,
                killed_ranks=killed,
                capacity_after=self.capacity,
                source_config=source_cfg.describe(),
                target_config=target.describe(),
                resume_tag="",
                resume_step=0,
                lost_steps=engine.iteration,
                atoms_reused=0,
                bytes_read=0,
                bytes_written=0,
                timings=StageTimings(detection_s, replan_s, 0.0, 0.0),
                completed=True,
                integrity_ok=(
                    verify_directory(self.workdir).ok
                    if self.committed_tags
                    else True
                ),
                plan_reason=f"cold restart (no committed tag): {reason}",
            )
        )
        return fresh

    # --- main loop -----------------------------------------------------------

    def run(self, golden: Optional[Sequence[float]] = None) -> RecoveryReport:
        """Drive the job to the horizon; returns the structured report.

        Args:
            golden: per-step losses of an uninterrupted run of the
                same job, to fold a loss-continuity verdict into the
                report.

        Raises:
            TopologyRejectedError: a forced target failed pre-flight.
            UCPError: no feasible topology exists for the survivors.
        """
        from repro.dist.cluster import RankFailure

        engine = self._initial_engine()
        while engine.iteration < self.horizon:
            step = engine.iteration
            step_kills = self.schedule.take_step_kills(step)
            if step_kills:
                self.interruptions += len(step_kills)
                for event in step_kills:
                    self._kill_engine_ranks(engine, event.ranks)
            try:
                result = engine.train_step()
            except RankFailure:
                engine = self._recover(engine, "step", step)
                continue
            self.wall_steps += 1
            self.sim_time_s += self.step_time_s
            self.loss_by_step[result.step] = result.loss
            if engine.iteration % self.save_every == 0:
                kill = self.schedule.take_save_kill(engine.iteration)
                try:
                    self._save(engine, kill)
                except RankKilled:
                    phase = kill.phase if kill is not None else "save"
                    engine = self._recover(engine, phase, engine.iteration)

        if engine.iteration % self.save_every != 0:
            self._save(engine, None)
        self.final_config = engine.parallel_cfg.describe()

        losses = [self.loss_by_step[s] for s in sorted(self.loss_by_step)]
        continuity = None
        if golden is not None:
            continuity = check_loss_continuity(
                golden, losses, tolerance=self.tolerance
            )
        completed = [e for e in self.events if e.completed]
        mttr = (
            sum(e.timings.total_s for e in completed) / len(completed)
            if completed
            else 0.0
        )
        return RecoveryReport(
            model=self.model_cfg.name,
            initial_config=self.parallel_cfg.describe(),
            final_config=self.final_config,
            horizon=self.horizon,
            useful_steps=engine.iteration,
            wall_steps=self.wall_steps,
            goodput=(
                engine.iteration / self.wall_steps if self.wall_steps else 0.0
            ),
            interruptions=self.interruptions,
            mttr_s=mttr,
            committed_tags=list(self.committed_tags),
            lost_committed_tags=self._lost_committed_tags(),
            events=list(self.events),
            losses=losses,
            continuity=continuity,
            sim_time_s=self.sim_time_s,
        )

    def _lost_committed_tags(self) -> List[str]:
        """Committed tags whose manifest is no longer intact on disk."""
        from repro.ckpt import manifest as manifest_mod

        store = ObjectStore(self.workdir)
        lost = []
        for tag in self.committed_tags:
            if manifest_mod.read_manifest(store, tag) is None:
                lost.append(tag)
        return lost


def supervise(
    model_cfg: ModelConfig,
    parallel_cfg: ParallelConfig,
    workdir: str,
    golden: bool = True,
    **kwargs,
) -> RecoveryReport:
    """One-call convenience: run a supervised job, optionally preceded
    by an uninterrupted golden run (in ``<workdir>/golden``) whose loss
    curve feeds the report's continuity verdict."""
    golden_curve = None
    if golden:
        golden_sup = Supervisor(
            model_cfg,
            parallel_cfg,
            f"{workdir}/golden",
            **{**kwargs, "schedule": KillSchedule(), "target_overrides": None},
        )
        golden_curve = golden_sup.run().losses
    sup = Supervisor(model_cfg, parallel_cfg, f"{workdir}/run", **kwargs)
    return sup.run(golden=golden_curve)
