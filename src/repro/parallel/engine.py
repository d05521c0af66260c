"""The 3D-parallel training engine.

One :class:`TrainingEngine` simulates a complete distributed training
job: a model replicated/sharded over the (TP, PP, DP, SP) grid, a
ZeRO-partitioned Adam, mixed precision, LR schedule, gradient clipping,
and a deterministic data stream.  Compute executes once on the logical
model (the simulation holds all ranks in-process); *state* — the thing
checkpoints persist — is maintained in the exact per-rank sharded
layouts the real systems use.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from repro.data.corpus import SyntheticCorpus
from repro.data.dataloader import DataLoader
from repro.dist.cluster import Cluster
from repro.dist.topology import ParallelConfig
from repro.models.builder import build_transformer
from repro.models.configs import ModelConfig
from repro.optim.adam import Adam
from repro.optim.grad_clip import clip_grad_norm
from repro.optim.lr_schedule import ConstantLRSchedule
from repro.optim.mixed_precision import LossScaler, MixedPrecisionPolicy
from repro.parallel.layout import ModelParallelLayout
from repro.parallel.zero import ZeroOptimizer


@dataclasses.dataclass(frozen=True)
class TrainStepResult:
    """Outcome of one training step."""

    step: int
    loss: float
    grad_norm: float
    lr: float
    skipped: bool = False


class TrainingEngine:
    """A distributed training job under one parallelism strategy."""

    def __init__(
        self,
        model_cfg: ModelConfig,
        parallel_cfg: ParallelConfig,
        seed: int = 0,
        data_seed: int = 1234,
        global_batch_size: int = 8,
        seq_len: int = 32,
        adam: Optional[Adam] = None,
        lr_schedule=None,
        mp_policy: Optional[MixedPrecisionPolicy] = None,
        grad_clip: float = 1.0,
        micro_batches: int = 1,
    ) -> None:
        if global_batch_size % parallel_cfg.dp != 0:
            raise ValueError(
                f"global batch {global_batch_size} must divide across "
                f"dp={parallel_cfg.dp}"
            )
        per_replica = global_batch_size // parallel_cfg.dp
        if micro_batches < 1 or per_replica % micro_batches != 0:
            raise ValueError(
                f"per-replica batch {per_replica} must split into "
                f"micro_batches={micro_batches} equal micro-batches"
            )
        self.micro_batches = micro_batches
        self.model_cfg = model_cfg
        self.parallel_cfg = parallel_cfg
        self.seed = seed
        self.data_seed = data_seed
        self.global_batch_size = global_batch_size
        self.seq_len = seq_len
        self.grad_clip = grad_clip

        self.cluster = Cluster(parallel_cfg)
        self.model = build_transformer(model_cfg, seed=seed)
        self.layout = ModelParallelLayout(model_cfg, parallel_cfg)
        self._check_layout_covers_model()
        # static proof that every rank's ZeRO partition slices tile its
        # flat buffer exactly (raises LayoutLintError otherwise) — the
        # same invariant gen_ucp_metadata asserts on the target side
        self.layout.validate()

        self.adam = adam if adam is not None else Adam()
        self.zero = ZeroOptimizer(self.layout, self.adam)
        self.zero.initialize_from(
            {name: p.data for name, p in self.model.named_parameters()}
        )
        self.lr_schedule = (
            lr_schedule if lr_schedule is not None else ConstantLRSchedule(self.adam.lr)
        )
        self.mp_policy = mp_policy if mp_policy is not None else MixedPrecisionPolicy()
        self.loss_scaler = LossScaler() if self.mp_policy.compute_dtype.name == "fp16" else None

        corpus = SyntheticCorpus(model_cfg.vocab_size, seq_len, seed=data_seed)
        self.loader = DataLoader(corpus, global_batch_size, dp_world=parallel_cfg.dp)

        self.iteration = 0
        self.loss_history: List[float] = []
        self.sync_model_from_masters()

    def _check_layout_covers_model(self) -> None:
        """Every model parameter must have a shard spec, and vice versa."""
        model_names = {name for name, _ in self.model.named_parameters()}
        spec_names = set(self.layout.shard_specs)
        if model_names != spec_names:
            missing = sorted(model_names - spec_names)
            extra = sorted(spec_names - model_names)
            raise RuntimeError(
                f"shard specs out of sync with model: missing={missing}, "
                f"extra={extra}"
            )
        for name, param in self.model.named_parameters():
            spec = self.layout.spec(name)
            if tuple(param.shape) != spec.logical_shape:
                raise RuntimeError(
                    f"spec shape {spec.logical_shape} != model shape "
                    f"{param.shape} for {name!r}"
                )

    def sync_model_from_masters(self) -> None:
        """Refresh model working weights from the fp32 masters (the
        paper's rebroadcast into ``fp16_partitioned_groups_flat``).

        One parameter at a time: its master is a read-only view of a
        partition (joined across TP where the parameter is split), and
        the copy into ``param.data`` is the only one it takes — model
        weights never alias a partition (UCP025).
        """
        for name, param in self.model.named_parameters():
            master = self.zero._consolidated(name, "fp32")
            param.data[...] = self.mp_policy.working_copy(master)

    def train_step(self) -> TrainStepResult:
        """Run one full training step (all ranks), return the metrics."""
        self.cluster.check_world_alive()
        step = self.iteration
        lr = self.lr_schedule.lr_at(step)
        dp = self.parallel_cfg.dp

        from repro.nn.dropout import set_dropout_context

        set_dropout_context(self.seed, step)
        self.model.zero_grad()
        losses = []
        for d in range(dp):
            batch = self.loader.replica_batch(step, d)
            # pipeline-style gradient accumulation: equal micro-batches,
            # grads summed then averaged with the DP divisor below
            micro_size = batch.num_samples // self.micro_batches
            for m in range(self.micro_batches):
                lo, hi = m * micro_size, (m + 1) * micro_size
                losses.append(
                    self.model.loss_and_backward(
                        batch.inputs[lo:hi], batch.targets[lo:hi]
                    )
                )
        loss = float(np.mean(np.asarray(losses, dtype=np.float64)))

        # gradients are averaged in place and released when the step
        # ends, on either exit: between steps the engine holds only what
        # a checkpoint persists
        grads: Dict[str, np.ndarray] = {}
        overflow = False
        inv_dp = np.float32(1.0 / (dp * self.micro_batches))
        for name, param in self.model.named_parameters():
            if param.grad is None:
                raise RuntimeError(f"parameter {name!r} received no gradient")
            param.grad *= inv_dp
            if self.loss_scaler is not None and self.loss_scaler.check_overflow(
                param.grad
            ):
                overflow = True
            grads[name] = param.grad

        if overflow:
            self.model.zero_grad()
            self.loss_scaler.update(True)
            self.iteration += 1
            self.loss_history.append(loss)
            return TrainStepResult(step=step, loss=loss, grad_norm=float("inf"),
                                   lr=lr, skipped=True)

        # account the DP gradient all-reduce per model-parallel rank
        if dp > 1:
            for coord in self.layout.mp_coords():
                numel = self.layout.rank_layout(*coord).flat_numel
                self.cluster.tracker.record(
                    "all_reduce", dp, 2 * (dp - 1) * numel * 4 // dp
                )

        grad_norm = clip_grad_norm(list(grads.values()), self.grad_clip)
        self.zero.apply_grads(grads, lr)
        del grads
        self.model.zero_grad()

        # account the ZeRO parameter all-gather per model-parallel rank
        if dp > 1 and self.parallel_cfg.zero_stage >= 1:
            for coord in self.layout.mp_coords():
                numel = self.layout.rank_layout(*coord).flat_numel
                self.cluster.tracker.record("all_gather", dp, numel * 4)

        self.sync_model_from_masters()
        if self.loss_scaler is not None:
            self.loss_scaler.update(False)
        self.iteration += 1
        self.loss_history.append(loss)
        return TrainStepResult(step=step, loss=loss, grad_norm=grad_norm, lr=lr)

    def train(self, num_steps: int) -> List[TrainStepResult]:
        """Run ``num_steps`` consecutive steps."""
        if num_steps < 0:
            raise ValueError(f"num_steps must be >= 0, got {num_steps}")
        return [self.train_step() for _ in range(num_steps)]

    def evaluate_loss(self, step: Optional[int] = None) -> float:
        """LM loss on the (deterministic) batch of a step, without training."""
        from repro.nn.dropout import dropout_disabled

        eval_step = self.iteration if step is None else step
        batch = self.loader.global_batch(eval_step)
        with dropout_disabled():
            return self.model.loss(batch.inputs, batch.targets)

    HOLDOUT_OFFSET = 1_000_000
    """Step offset of the held-out stream (never reached by training)."""

    def evaluate_perplexity(self, num_batches: int = 4) -> float:
        """Perplexity on a held-out slice of the synthetic stream.

        The corpus is keyed by step, so batches at ``HOLDOUT_OFFSET``
        and beyond are disjoint from anything training has seen —
        a validation set without storing one.
        """
        from repro.nn.dropout import dropout_disabled

        if num_batches < 1:
            raise ValueError(f"num_batches must be >= 1, got {num_batches}")
        losses = []
        with dropout_disabled():
            for i in range(num_batches):
                batch = self.loader.global_batch(self.HOLDOUT_OFFSET + i)
                losses.append(self.model.loss(batch.inputs, batch.targets))
        return float(np.exp(np.mean(losses)))

    # --- checkpoint integration (lazy imports avoid cycles) ---

    def save_checkpoint(
        self, directory: str, optimizer_layout: str = "flat"
    ) -> "object":
        """Persist a standard distributed checkpoint.

        Args:
            directory: checkpoint root.
            optimizer_layout: "flat" (DeepSpeed-style ZeRO partitions)
                or "per_param" (Megatron-classic per-tensor states;
                zero_stage=0 only).
        """
        from repro.ckpt.saver import save_distributed_checkpoint

        return save_distributed_checkpoint(
            self, directory, optimizer_layout=optimizer_layout
        )

    def load_checkpoint(self, directory: str, tag: Optional[str] = None) -> None:
        """Resume from a distributed checkpoint.

        Raises :class:`repro.ckpt.errors.CheckpointIncompatibleError`
        when the checkpoint's parallelism strategy or world size differs
        from this engine's (the Fig 1 failure mode).
        """
        from repro.ckpt.loader import load_distributed_checkpoint

        load_distributed_checkpoint(self, directory, tag=tag)

    def load_universal(self, ucp_dir: str) -> None:
        """Resume from a UCP checkpoint under *this* engine's topology."""
        from repro.core.loader import load_ucp_into_engine

        load_ucp_into_engine(self, ucp_dir)
