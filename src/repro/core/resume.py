"""High-level resume flows: lazy conversion and elastic failover.

``resume_training`` is the user-facing entry point matching the paper's
Fig 3 flow: it loads a distributed checkpoint directly when the target
strategy matches the source, and otherwise converts to UCP *lazily, on
demand* before loading — existing save logic never changes.

:class:`ElasticResumeManager` implements the headline use cases from
the introduction: continuing on remaining healthy hardware after a
failure, and opportunistically growing onto elastic capacity.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.ckpt.loader import read_job_config, resolve_tag
from repro.core.convert import converted_from, ucp_convert
from repro.core.errors import UCPError
from repro.core.metadata import UCP_META_FILE
from repro.dist.topology import ParallelConfig
from repro.models.configs import ModelConfig
from repro.parallel.engine import TrainingEngine
from repro.storage.store import ObjectStore


def _engine_from_job_config(
    job_config: Dict, target_cfg: ParallelConfig, **overrides
) -> TrainingEngine:
    kwargs = dict(
        model_cfg=ModelConfig.from_dict(job_config["model_config"]),
        parallel_cfg=target_cfg,
        seed=job_config["seed"],
        data_seed=job_config["data_seed"],
        global_batch_size=job_config["global_batch_size"],
        seq_len=job_config["seq_len"],
    )
    kwargs.update(overrides)
    return TrainingEngine(**kwargs)


def resume_training(
    ckpt_dir: str,
    target_cfg: ParallelConfig,
    tag: Optional[str] = None,
    ucp_dir: Optional[str] = None,
    **engine_overrides,
) -> TrainingEngine:
    """Resume a training job under an arbitrary target strategy.

    If ``target_cfg`` equals the source strategy, this is a plain
    distributed load (no conversion).  Otherwise the checkpoint is
    converted to UCP (cached next to the checkpoint as
    ``<ckpt_dir>/ucp_<tag>``, at :func:`ucp_convert`'s default width)
    and loaded under the new strategy.  A cached conversion is reused
    only while its source marker names the tag's current commit
    manifest; a tag re-saved since (a rollback) is converted again.

    Args:
        ckpt_dir: the job's checkpoint directory.
        target_cfg: the new parallelism strategy / hardware shape.
        tag: source tag; defaults to latest.
        ucp_dir: where to place converted atoms.
        **engine_overrides: forwarded to :class:`TrainingEngine`
            (e.g. a new LR schedule or mixed-precision policy).
    """
    store = ObjectStore(ckpt_dir)
    src_tag = resolve_tag(store, tag)
    job_config = read_job_config(ckpt_dir, src_tag)
    source_cfg = ParallelConfig.from_dict(job_config["parallel_config"])

    engine = _engine_from_job_config(job_config, target_cfg, **engine_overrides)
    if source_cfg == target_cfg:
        engine.load_checkpoint(ckpt_dir, tag=src_tag)
        return engine

    if ucp_dir is None:
        ucp_dir = f"{ckpt_dir}/ucp_{src_tag}"
    ucp_store = ObjectStore(ucp_dir)
    if not (
        ucp_store.exists(UCP_META_FILE)
        and converted_from(ucp_store, store, src_tag)
    ):
        ucp_convert(ckpt_dir, ucp_dir, tag=src_tag)
    engine.load_universal(ucp_dir)
    return engine


@dataclasses.dataclass(frozen=True)
class ResizePlan:
    """A chosen target strategy for a new world size."""

    target: ParallelConfig
    reason: str


class ElasticResumeManager:
    """Chooses and executes topology changes when capacity changes.

    Policy: keep the model-parallel shape (TP × PP × SP) if the new
    world size still fits it, adjusting only DP; shrink PP (then TP) to
    the largest divisor that fits otherwise.  DP is additionally
    constrained to divide the global batch size.

    Two objectives are available: ``"ranks"`` maximizes ranks used
    (the default), ``"throughput"`` scores candidates by estimated
    useful compute — ranks × (1 − pipeline bubble) — using the 1F1B
    bubble model, which prefers shallower pipelines when micro-batch
    counts are small.
    """

    def __init__(
        self,
        ckpt_dir: str,
        global_batch_size: int,
        micro_batches: int = 4,
        memory_budget_gb: Optional[float] = None,
        model_cfg: Optional[ModelConfig] = None,
        seq_len: int = 2048,
    ) -> None:
        if micro_batches < 1:
            raise ValueError(f"micro_batches must be >= 1, got {micro_batches}")
        if memory_budget_gb is not None and model_cfg is None:
            raise ValueError(
                "a memory budget requires model_cfg to size the candidates"
            )
        self.ckpt_dir = ckpt_dir
        self.global_batch_size = global_batch_size
        self.micro_batches = micro_batches
        self.memory_budget_gb = memory_budget_gb
        self.model_cfg = model_cfg
        self.seq_len = seq_len

    def _fits_memory(self, target: ParallelConfig) -> bool:
        if self.memory_budget_gb is None:
            return True
        from repro.parallel.memory import fits_budget

        micro_size = max(
            1, self.global_batch_size // (target.dp * self.micro_batches)
        )
        return fits_budget(
            self.model_cfg,
            target,
            self.memory_budget_gb,
            micro_batch_size=micro_size,
            seq_len=self.seq_len,
            micro_batches=self.micro_batches,
        )

    def estimated_throughput(self, target: ParallelConfig) -> float:
        """Useful ranks after pipeline bubble, for candidate scoring."""
        from repro.parallel.schedule import analytic_bubble_fraction

        bubble = analytic_bubble_fraction(target.pp, self.micro_batches)
        return target.world_size * (1.0 - bubble)

    def _dp_for(self, world: int, mp_size: int) -> int:
        if world < mp_size or world % mp_size != 0:
            return 0
        dp = world // mp_size
        while dp > 0 and self.global_batch_size % dp != 0:
            dp -= 1
        return dp

    def plan_resize(
        self,
        source: ParallelConfig,
        new_world: int,
        objective: str = "ranks",
    ) -> ResizePlan:
        """Pick a target strategy for ``new_world`` ranks.

        Args:
            source: the strategy the checkpoint was written under.
            new_world: available rank count.
            objective: "ranks" (most ranks used) or "throughput"
                (bubble-adjusted useful compute).

        Raises:
            UCPError: no feasible configuration exists.
        """
        if objective not in ("ranks", "throughput"):
            raise ValueError(f"unknown objective {objective!r}")
        if new_world < 1:
            raise UCPError("cannot resume with zero healthy ranks")

        candidates: List[ResizePlan] = []
        mp = source.tp * source.pp * source.sp
        dp = self._dp_for(new_world, mp)
        if dp:
            candidates.append(
                ResizePlan(
                    ParallelConfig(tp=source.tp, pp=source.pp, dp=dp, sp=source.sp,
                                   zero_stage=source.zero_stage),
                    reason=f"kept model-parallel shape, dp {source.dp} -> {dp}",
                )
            )
        for pp in range(source.pp, 0, -1):
            for tp in range(source.tp, 0, -1):
                mp = tp * pp * source.sp
                dp = self._dp_for(new_world, mp)
                if dp:
                    candidates.append(
                        ResizePlan(
                            ParallelConfig(tp=tp, pp=pp, dp=dp, sp=source.sp,
                                           zero_stage=source.zero_stage),
                            reason=f"resized to tp={tp} pp={pp} dp={dp}",
                        )
                    )
        if not candidates:
            raise UCPError(
                f"no parallel configuration fits {new_world} ranks with "
                f"global batch {self.global_batch_size}"
            )
        if self.memory_budget_gb is not None:
            fitting = [c for c in candidates if self._fits_memory(c.target)]
            if not fitting:
                raise UCPError(
                    f"no candidate for {new_world} ranks fits the "
                    f"{self.memory_budget_gb} GB/GPU budget; best "
                    f"candidate was {candidates[0].target.describe()}"
                )
            candidates = fitting
        if objective == "throughput":
            return max(
                candidates, key=lambda plan: self.estimated_throughput(plan.target)
            )
        # "ranks": prefer the plan using the most ranks; earlier
        # candidates (closer to the source shape) win ties
        return max(candidates, key=lambda plan: plan.target.world_size)

    def resume_after_failure(
        self,
        source: ParallelConfig,
        healthy_ranks: int,
        tag: Optional[str] = None,
        **engine_overrides,
    ) -> TrainingEngine:
        """Plan a downsize and resume from the latest checkpoint."""
        plan = self.plan_resize(source, healthy_ranks)
        return resume_training(
            self.ckpt_dir, plan.target, tag=tag, **engine_overrides
        )

    def resume_with_capacity(
        self,
        source: ParallelConfig,
        new_world: int,
        tag: Optional[str] = None,
        **engine_overrides,
    ) -> TrainingEngine:
        """Grow (or shrink) onto a new world size — elastic capacity."""
        plan = self.plan_resize(source, new_world)
        return resume_training(
            self.ckpt_dir, plan.target, tag=tag, **engine_overrides
        )
