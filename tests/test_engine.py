"""Tests for the 3D-parallel training engine."""

import contextlib
import gc
import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.dist.cluster import RankFailure
from repro.dist.topology import ParallelConfig
from repro.models import get_config
from repro.optim.lr_schedule import CosineLRSchedule
from repro.optim.mixed_precision import MixedPrecisionPolicy
from repro.parallel.engine import TrainingEngine
from repro.tensor.dtypes import BF16, FP16, dtype_from_name

from tests.helpers import make_engine


class TestBasics:
    def test_loss_decreases_over_training(self):
        engine = make_engine()
        results = engine.train(15)
        first = np.mean([r.loss for r in results[:3]])
        last = np.mean([r.loss for r in results[-3:]])
        assert last < first

    def test_iteration_advances(self):
        engine = make_engine()
        engine.train(3)
        assert engine.iteration == 3
        assert len(engine.loss_history) == 3

    def test_grad_norm_respects_clip(self):
        engine = make_engine(grad_clip=0.01)
        result = engine.train_step()
        assert result.grad_norm >= 0  # pre-clip norm is reported

    def test_lr_follows_schedule(self):
        sched = CosineLRSchedule(max_lr=1e-3, min_lr=1e-5, warmup_steps=2, total_steps=10)
        engine = make_engine(lr_schedule=sched)
        results = engine.train(4)
        for r in results:
            assert np.isclose(r.lr, sched.lr_at(r.step))

    def test_batch_must_divide_across_dp(self):
        with pytest.raises(ValueError, match="divide"):
            make_engine(parallel=ParallelConfig(dp=3), global_batch_size=4)

    def test_negative_steps_raise(self):
        with pytest.raises(ValueError, match=">= 0"):
            make_engine().train(-1)


class TestTopologyEquivalence:
    @pytest.mark.parametrize(
        "parallel",
        [
            ParallelConfig(dp=2),
            ParallelConfig(dp=4),
            ParallelConfig(tp=2),
            ParallelConfig(pp=2),
            ParallelConfig(tp=2, pp=2, dp=2),
            ParallelConfig(sp=2),
            ParallelConfig(dp=2, zero_stage=0),
            ParallelConfig(dp=2, zero_stage=2),
            ParallelConfig(dp=2, zero_stage=3),
        ],
    )
    def test_losses_match_single_rank_run(self, parallel):
        """The simulation's core guarantee: the parallel strategy changes
        state layout, not training math (within fp32 accumulation noise)."""
        base = make_engine(parallel=ParallelConfig())
        other = make_engine(parallel=parallel)
        base_losses = [r.loss for r in base.train(5)]
        other_losses = [r.loss for r in other.train(5)]
        assert np.allclose(base_losses, other_losses, atol=2e-2)

    def test_replicas_stay_consistent(self):
        engine = make_engine(parallel=ParallelConfig(tp=2, pp=2, dp=2))
        engine.train(3)
        engine.zero.verify_replica_consistency()


class TestMixedPrecision:
    def test_bf16_training_converges(self):
        engine = make_engine(mp_policy=MixedPrecisionPolicy(BF16))
        results = engine.train(10)
        assert results[-1].loss < results[0].loss

    def test_bf16_weights_are_truncated(self):
        engine = make_engine(mp_policy=MixedPrecisionPolicy(BF16))
        engine.train(1)
        weight = engine.model.blocks[0].attn.qkv.weight.data
        assert (weight.view(np.uint32) & 0xFFFF).max() == 0

    def test_fp32_masters_keep_full_precision(self):
        engine = make_engine(mp_policy=MixedPrecisionPolicy(BF16))
        engine.train(2)
        masters = engine.zero.consolidated_tensors("fp32")
        bits = masters["blocks.0.attn.qkv.weight"].view(np.uint32)
        assert (bits & 0xFFFF).any()  # masters are NOT truncated

    def test_fp16_engine_has_loss_scaler(self):
        engine = make_engine(mp_policy=MixedPrecisionPolicy(FP16))
        assert engine.loss_scaler is not None
        engine.train(2)

    def test_bf16_engine_has_no_scaler(self):
        engine = make_engine(mp_policy=MixedPrecisionPolicy(BF16))
        assert engine.loss_scaler is None


class TestFailureInteraction:
    def test_step_fails_when_rank_dead(self):
        engine = make_engine(parallel=ParallelConfig(dp=2))
        engine.train(2)
        engine.cluster.fail_rank(1)
        with pytest.raises(RankFailure):
            engine.train_step()

    def test_heal_allows_continuation(self):
        engine = make_engine(parallel=ParallelConfig(dp=2))
        engine.cluster.fail_rank(0)
        engine.cluster.heal_rank(0)
        engine.train_step()


class TestCommAccounting:
    def test_dp_gradients_tracked(self):
        engine = make_engine(parallel=ParallelConfig(dp=2))
        engine.train(2)
        assert engine.cluster.tracker.count("all_reduce") > 0
        assert engine.cluster.tracker.count("all_gather") > 0

    def test_single_rank_has_no_traffic(self):
        engine = make_engine(parallel=ParallelConfig())
        engine.train(2)
        assert engine.cluster.tracker.total_bytes == 0


class TestDataDeterminism:
    def test_same_seed_same_losses(self):
        a = [r.loss for r in make_engine(seed=11).train(4)]
        b = [r.loss for r in make_engine(seed=11).train(4)]
        assert a == b

    def test_different_data_seed_different_losses(self):
        a = [r.loss for r in make_engine(data_seed=1).train(2)]
        b = [r.loss for r in make_engine(data_seed=2).train(2)]
        assert a != b

    def test_evaluate_loss_does_not_train(self):
        engine = make_engine()
        before = engine.evaluate_loss(step=0)
        after = engine.evaluate_loss(step=0)
        assert before == after
        assert engine.iteration == 0


class TestGradAccumulation:
    def test_micro_batches_match_full_batch_math(self):
        """Splitting a replica batch into micro-batches must not change
        training (beyond fp32 accumulation order)."""
        whole = make_engine(micro_batches=1)
        split = make_engine(micro_batches=2)
        a = [r.loss for r in whole.train(5)]
        b = [r.loss for r in split.train(5)]
        assert np.allclose(a, b, atol=2e-2)

    def test_micro_batches_compose_with_parallelism(self):
        engine = make_engine(
            parallel=ParallelConfig(tp=2, dp=2), micro_batches=2
        )
        results = engine.train(3)
        assert results[-1].loss < results[0].loss + 0.1
        engine.zero.verify_replica_consistency()

    def test_indivisible_micro_batches_raise(self):
        with pytest.raises(ValueError, match="micro_batches"):
            make_engine(global_batch_size=4, micro_batches=3)

    def test_checkpoint_resume_with_different_micro_batching(self, tmp_path):
        """Micro-batching is an execution detail, not checkpoint state:
        a resume may pick a different accumulation factor."""
        src = make_engine(micro_batches=2)
        src.train(3)
        src.save_checkpoint(str(tmp_path))
        dst = make_engine(micro_batches=4)
        dst.load_checkpoint(str(tmp_path))
        a = [r.loss for r in src.train(2)]
        b = [r.loss for r in dst.train(2)]
        assert np.allclose(a, b, atol=2e-2)


class TestHeldOutEvaluation:
    def test_perplexity_improves_with_training(self):
        engine = make_engine()
        before = engine.evaluate_perplexity(num_batches=2)
        engine.train(20)
        after = engine.evaluate_perplexity(num_batches=2)
        assert after < before

    def test_perplexity_is_deterministic_and_side_effect_free(self):
        engine = make_engine()
        engine.train(2)
        a = engine.evaluate_perplexity()
        b = engine.evaluate_perplexity()
        assert a == b
        assert engine.iteration == 2

    def test_perplexity_bounded_by_vocab(self):
        engine = make_engine()
        assert 1.0 < engine.evaluate_perplexity(num_batches=1) <= engine.model_cfg.vocab_size * 1.5

    def test_bad_num_batches_raises(self):
        with pytest.raises(ValueError, match="num_batches"):
            make_engine().evaluate_perplexity(num_batches=0)

    def test_holdout_survives_resume(self, tmp_path):
        """Held-out perplexity agrees before/after a UCP reshard."""
        from repro.core.resume import resume_training

        src = make_engine(parallel=ParallelConfig(tp=2, dp=2), seed=7)
        src.train(3)
        src.save_checkpoint(str(tmp_path))
        dst = resume_training(str(tmp_path), ParallelConfig())
        assert np.isclose(
            src.evaluate_perplexity(num_batches=1),
            dst.evaluate_perplexity(num_batches=1),
            rtol=1e-5,
        )


# --- engine state without whole-model copies --------------------------

SMALL_GRID = ParallelConfig(tp=2, pp=2, dp=2)


def _traced(fn):
    """``(result, peak above the start, retained)`` of one call, in bytes
    as tracemalloc counts them (numpy buffers included).

    The call runs with every hook role masked: a subscriber (the
    ``REPRO_SANITIZE=1`` session's sanitizer) makes the store join each
    staged file into one buffer for its ``fs_op`` event, a cost of the
    checked run and not of the program being measured.
    """
    gc.collect()
    with contextlib.ExitStack() as masked:
        for role in obs.ROLES:
            masked.enter_context(obs.subscribed(role, None))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = fn()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return result, peak - start, current - start


def _largest_param_bytes(engine) -> int:
    return max(p.data.size for p in engine.model.parameters()) * 4


class TestTransientMemory:
    """Build, sync, save and step hold at most a few parameters' worth
    of transient memory beyond the state a checkpoint persists (sized
    on gpt3-mini tp2·pp2·dp2, where a whole-model copy is ~13x the
    largest parameter)."""

    def test_build_peak_is_state_plus_a_few_parameters(self):
        make_engine(parallel=SMALL_GRID)  # imports and caches warm
        engine, peak, retained = _traced(lambda: make_engine(parallel=SMALL_GRID))
        assert peak <= retained + 4 * _largest_param_bytes(engine), (peak, retained)

    def test_sync_peak_is_a_few_parameters(self):
        engine = make_engine(parallel=SMALL_GRID)
        engine.train(1)
        engine.sync_model_from_masters()
        _, peak, _ = _traced(engine.sync_model_from_masters)
        assert peak <= 4 * _largest_param_bytes(engine), peak

    def test_save_transient_is_a_few_parameters_plus_headers(self, tmp_path):
        from repro.ckpt.saver import _rank_payloads
        from repro.storage.serializer import encode

        engine = make_engine(parallel=SMALL_GRID)
        engine.train(1)
        engine.save_checkpoint(str(tmp_path / "warm"))
        _, peak, _ = _traced(lambda: engine.save_checkpoint(str(tmp_path / "ckpt")))
        header_bytes = sum(
            len(encode(payload)[0]) for _, payload in _rank_payloads(engine, "flat")
        )
        assert peak <= 4 * _largest_param_bytes(engine) + header_bytes, (
            peak, header_bytes,
        )

    def test_gradients_released_when_the_step_ends(self):
        engine = make_engine(parallel=SMALL_GRID)
        (result,) = engine.train(1)
        assert not result.skipped
        assert all(p.grad is None for p in engine.model.parameters())

    def test_gradients_released_on_fp16_overflow(self, monkeypatch):
        engine = make_engine(
            parallel=SMALL_GRID, mp_policy=MixedPrecisionPolicy(FP16)
        )
        backward = engine.model.loss_and_backward

        def overflowing(inputs, targets):
            loss = backward(inputs, targets)
            engine.model.parameters()[0].grad[...] = np.inf
            return loss

        monkeypatch.setattr(engine.model, "loss_and_backward", overflowing)
        (result,) = engine.train(1)
        assert result.skipped
        assert all(p.grad is None for p in engine.model.parameters())


# The parent semantics, spelled out: every rank's partitions joined into
# one flat, every shard copied out of it, TP shards joined, and the
# optimizer fed whole-rank flats.  The engine must match it bit for bit.


def _reference_flat(zero, rank_layout, full_tensors):
    tp = zero.layout.parallel_cfg.tp
    flat = np.zeros(rank_layout.flat_numel, dtype=np.float32)
    for e in rank_layout.entries:
        shard = full_tensors[e.name]
        fragmenter = zero.layout.spec(e.name).fragmenter
        if fragmenter is not None and tp > 1:
            shard = fragmenter.shard(shard, tp, rank_layout.tp_rank)
        flat[e.offset : e.end] = np.asarray(shard, dtype=np.float32).reshape(-1)
    return flat


def _reference_scatter(zero, full_tensors, kind):
    for coord in zero.layout.mp_coords():
        rank_layout = zero.layout.rank_layout(*coord)
        flat = _reference_flat(zero, rank_layout, full_tensors)
        size = rank_layout.partition_numel
        for d, part in enumerate(zero.partitions[coord]):
            zero._partition_array(part, kind)[...] = flat[d * size : (d + 1) * size]


def _reference_apply_grads(zero, full_grads, lr):
    for coord in zero.layout.mp_coords():
        rank_layout = zero.layout.rank_layout(*coord)
        flat = _reference_flat(zero, rank_layout, full_grads)
        size = rank_layout.partition_numel
        for d, part in enumerate(zero.partitions[coord]):
            zero.adam.step(part.fp32, flat[d * size : (d + 1) * size], part.state, lr=lr)


def _reference_shards(zero, coord, kind):
    flat = zero.full_flat(coord, kind)
    return {
        e.name: flat[e.offset : e.end].reshape(e.shard_shape).copy()
        for e in zero.layout.rank_layout(*coord).entries
    }


def _reference_consolidated(zero, kind):
    tp = zero.layout.parallel_cfg.tp
    cache = {c: _reference_shards(zero, c, kind) for c in zero.layout.mp_coords()}
    out = {}
    for name, spec in zero.layout.shard_specs.items():
        pp_stage = zero.layout.stage_plan.stages_of(name)[0]
        if spec.fragmenter is not None and tp > 1:
            out[name] = spec.fragmenter.join(
                [cache[(pp_stage, 0, r)][name] for r in range(tp)]
            )
        else:
            out[name] = cache[(pp_stage, 0, 0)][name]
    return out


def _reference_sync(engine):
    masters = _reference_consolidated(engine.zero, "fp32")
    for name, param in engine.model.named_parameters():
        param.data[...] = engine.mp_policy.working_copy(masters[name])


def _assert_same_state(got, want):
    for (name, a), (_, b) in zip(
        got.model.named_parameters(), want.model.named_parameters()
    ):
        assert a.data.dtype == b.data.dtype and np.array_equal(a.data, b.data), name
    for coord, parts in got.zero.partitions.items():
        for d, (a, b) in enumerate(zip(parts, want.zero.partitions[coord])):
            for kind in ("fp32", "exp_avg", "exp_avg_sq"):
                x = got.zero._partition_array(a, kind)
                y = want.zero._partition_array(b, kind)
                assert np.array_equal(x, y), (coord, d, kind)
            assert a.state.step == b.state.step


class TestConsolidateThenCopyEquivalence:
    """Views, per-parameter sync and in-place gradient scaling change no
    engine value: build, train(2) and every restart path (standard,
    UCP, consolidated) match the consolidate-then-copy reference, and
    the saved module shards are the reference's bytes.  Every mini
    model pads its vocabulary (211 -> 224 rows); gpt3 ties its
    embeddings, so at pp2 the tie crosses stages."""

    CASES = [
        ("gpt3-mini", ParallelConfig(tp=2, pp=2, dp=2), "fp32"),
        ("llama-mini", ParallelConfig(tp=2, dp=2), "bf16"),  # GQA fused QKV
        ("moe-mini", ParallelConfig(tp=2, pp=2, dp=2), "fp16"),  # experts
        ("gpt3-mini", ParallelConfig(dp=2, sp=2), "bf16"),
        ("gpt3-mini", ParallelConfig(tp=4, zero_stage=0), "fp16"),
        ("gpt3-mini", ParallelConfig(dp=4, zero_stage=3), "fp32"),
    ]

    @pytest.mark.parametrize(
        "model,parallel,dtype",
        CASES,
        ids=[f"{m}-{p.describe()}-{d}" for m, p, d in CASES],
    )
    def test_engine_state_matches_reference(
        self, model, parallel, dtype, monkeypatch, tmp_path
    ):
        from repro.ckpt import naming
        from repro.ckpt.consolidated import (
            load_consolidated_checkpoint,
            save_consolidated_checkpoint,
        )
        from repro.core.convert import ucp_convert
        from repro.core.loader import load_ucp_into_engine
        from repro.parallel.zero import ZeroOptimizer
        from repro.storage.store import ObjectStore

        policy = MixedPrecisionPolicy(dtype_from_name(dtype))
        kwargs = dict(parallel=parallel, mp_policy=policy, global_batch_size=8)

        def reference(fn):
            with monkeypatch.context() as m:
                m.setattr(ZeroOptimizer, "initialize_from",
                          lambda zero, full: _reference_scatter(zero, full, "fp32"))
                m.setattr(ZeroOptimizer, "_scatter", _reference_scatter)
                m.setattr(ZeroOptimizer, "apply_grads", _reference_apply_grads)
                m.setattr(TrainingEngine, "sync_model_from_masters", _reference_sync)
                return fn()

        engine = make_engine(model, **kwargs)
        want = reference(lambda: make_engine(model, **kwargs))
        _assert_same_state(engine, want)

        engine.train(2)
        reference(lambda: want.train(2))
        _assert_same_state(engine, want)

        ckpt = str(tmp_path / "ckpt")
        tag = engine.save_checkpoint(ckpt).tag
        if parallel.zero_stage < 3:
            store = ObjectStore(ckpt)
            for coord in engine.layout.mp_coords():
                name = naming.model_states_name(engine.layout.mp_rank_index(*coord))
                module = store.load(f"{tag}/{name}")["module"]
                for key, shard in _reference_shards(engine.zero, coord, "fp32").items():
                    expected = policy.working_copy(shard)
                    assert module[key].dtype == expected.dtype, key
                    assert np.array_equal(module[key], expected), key
        cons = str(tmp_path / "cons")
        save_consolidated_checkpoint(engine, cons)
        ucp = str(tmp_path / "ucp")
        ucp_convert(ckpt, ucp)

        loads = {
            "standard": lambda e: e.load_checkpoint(ckpt),
            "ucp": lambda e: load_ucp_into_engine(e, ucp),
            "consolidated": lambda e: load_consolidated_checkpoint(e, cons),
        }
        for path, load in loads.items():
            got = make_engine(model, **kwargs)
            load(got)
            ref = reference(lambda: make_engine(model, **kwargs))
            reference(lambda: load(ref))
            _assert_same_state(got, ref)
            if path != "ucp":  # UCP atoms drop the vocab padding rows
                _assert_same_state(got, engine)
