"""Tests for the ZeRO partitioned optimizer."""

import numpy as np
import pytest

from repro.dist.topology import ParallelConfig
from repro.models import build_model, get_config
from repro.optim.adam import Adam, AdamParamState
from repro.parallel.layout import ModelParallelLayout
from repro.parallel.zero import ZeroOptimizer


def make_zero(model_name="gpt3-mini", parallel=None, seed=3):
    cfg = get_config(model_name)
    parallel = parallel if parallel is not None else ParallelConfig()
    model = build_model(model_name, seed=seed)
    layout = ModelParallelLayout(cfg, parallel)
    zero = ZeroOptimizer(layout, Adam())
    zero.initialize_from(model.state_dict())
    return model, zero


class TestInitialization:
    def test_consolidated_round_trip(self):
        model, zero = make_zero(parallel=ParallelConfig(tp=2, pp=2, dp=2))
        state = model.state_dict()
        recovered = zero.consolidated_tensors("fp32")
        for name, original in state.items():
            assert np.array_equal(recovered[name], original), name

    def test_moments_start_at_zero(self):
        _, zero = make_zero(parallel=ParallelConfig(dp=2))
        for tensors in (zero.consolidated_tensors("exp_avg"),
                        zero.consolidated_tensors("exp_avg_sq")):
            assert all(np.array_equal(v, np.zeros_like(v)) for v in tensors.values())

    def test_partition_sizes_equal(self):
        _, zero = make_zero(parallel=ParallelConfig(dp=4))
        parts = zero.partitions[(0, 0, 0)]
        assert len({p.numel for p in parts}) == 1

    def test_unknown_kind_raises(self):
        _, zero = make_zero()
        with pytest.raises(KeyError, match="state kind"):
            zero.full_flat((0, 0, 0), "exp_avg_cubed")


class TestUpdateEquivalence:
    def _grads_for(self, model, scale=0.01):
        gen = np.random.default_rng(5)
        return {
            name: (gen.standard_normal(p.shape) * scale).astype(np.float32)
            for name, p in model.named_parameters()
        }

    @pytest.mark.parametrize(
        "parallel",
        [
            ParallelConfig(),
            ParallelConfig(dp=2),
            ParallelConfig(dp=4, zero_stage=2),
            ParallelConfig(tp=2, dp=2),
            ParallelConfig(tp=2, pp=2, dp=2),
            ParallelConfig(dp=2, zero_stage=3),
            ParallelConfig(sp=2, dp=2),
        ],
    )
    def test_update_matches_unpartitioned_adam(self, parallel):
        """Any sharding of the update must equal plain full-tensor Adam."""
        model, zero = make_zero(parallel=parallel)
        grads = self._grads_for(model)
        zero.apply_grads(grads, lr=1e-3)
        updated = zero.consolidated_tensors("fp32")

        reference_model = build_model("gpt3-mini", seed=3)
        adam = Adam()
        for name, param in reference_model.named_parameters():
            flat = param.data.reshape(-1).copy()
            state = AdamParamState.zeros(flat.size)
            adam.step(flat, grads[name].reshape(-1), state, lr=1e-3)
            assert np.array_equal(
                updated[name], flat.reshape(param.shape)
            ), f"{name} under {parallel.describe()}"

    def test_step_counter_advances(self):
        model, zero = make_zero(parallel=ParallelConfig(dp=2))
        assert zero.global_step == 0
        zero.apply_grads(self._grads_for(model), lr=1e-3)
        assert zero.global_step == 1

    def test_moments_populated_after_step(self):
        model, zero = make_zero(parallel=ParallelConfig(dp=2))
        zero.apply_grads(self._grads_for(model), lr=1e-3)
        exp_avg = zero.consolidated_tensors("exp_avg")
        assert any(np.abs(v).sum() > 0 for v in exp_avg.values())


class TestReplicaConsistency:
    def test_consistent_after_updates(self):
        model, zero = make_zero(parallel=ParallelConfig(tp=2, pp=2, dp=2))
        gen = np.random.default_rng(5)
        grads = {
            name: (gen.standard_normal(p.shape) * 0.01).astype(np.float32)
            for name, p in model.named_parameters()
        }
        zero.apply_grads(grads, lr=1e-3)
        zero.verify_replica_consistency()

    def test_detects_divergence(self):
        _, zero = make_zero(parallel=ParallelConfig(tp=2))
        # corrupt a replicated norm param on one tp rank only
        layout = zero.layout.rank_layout(0, 0, 1)
        entry = layout.entry("final_norm.weight")
        flat_offset = entry.offset
        part = zero.partitions[(0, 0, 1)][0]
        part.fp32[flat_offset] += 1.0
        with pytest.raises(AssertionError, match="diverged"):
            zero.verify_replica_consistency()


class TestShardTensors:
    def test_shard_shapes_match_layout(self):
        _, zero = make_zero(parallel=ParallelConfig(tp=2, pp=2))
        for coord in zero.layout.mp_coords():
            shards = zero.shard_tensors(coord)
            for entry in zero.layout.rank_layout(*coord).entries:
                assert shards[entry.name].shape == entry.shard_shape

    def test_bad_grad_shape_raises(self):
        model, zero = make_zero()
        grads = {name: p.data for name, p in model.named_parameters()}
        grads["final_norm.weight"] = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            zero.apply_grads(grads, lr=1e-3)


class TestShardAccessor:
    """``shard`` is the one read path over the partitions: a read-only
    view inside one partition, a read-only concatenation across a
    partition boundary, equal to the consolidate-then-copy slicing of
    the rank's joined flat."""

    KINDS = ("fp32", "exp_avg", "exp_avg_sq")

    def _stepped(self, parallel):
        model, zero = make_zero(parallel=parallel)
        gen = np.random.default_rng(5)
        zero.apply_grads(
            {
                name: (gen.standard_normal(p.shape) * 0.01).astype(np.float32)
                for name, p in model.named_parameters()
            },
            lr=1e-3,
        )
        return zero

    @pytest.mark.parametrize(
        "parallel",
        [
            ParallelConfig(tp=2, pp=2, dp=2),
            ParallelConfig(dp=4, zero_stage=3),
            ParallelConfig(tp=2, sp=2, dp=2),
        ],
        ids=lambda p: p.describe(),
    )
    def test_views_are_read_only_and_match_the_joined_flat(self, parallel):
        zero = self._stepped(parallel)
        views = straddling = 0
        for coord in zero.layout.mp_coords():
            rank_layout = zero.layout.rank_layout(*coord)
            for kind in self.KINDS:
                flat = zero.full_flat(coord, kind)
                arrays = [zero._partition_array(p, kind) for p in zero.partitions[coord]]
                for e in rank_layout.entries:
                    shard = zero.shard(coord, e.name, kind)
                    assert not shard.flags.writeable
                    with pytest.raises(ValueError, match="read-only"):
                        shard[...] = 0.0
                    assert shard.shape == e.shard_shape
                    assert np.array_equal(
                        shard, flat[e.offset : e.end].reshape(e.shard_shape)
                    )
                    pieces = rank_layout.partition_slices(e.name)
                    if len(pieces) == 1:
                        views += 1
                        assert np.shares_memory(shard, arrays[pieces[0].partition])
                    else:
                        straddling += 1
                        assert not any(np.shares_memory(shard, a) for a in arrays)
        assert views and straddling

    def test_consolidated_tensors_are_read_only(self):
        zero = self._stepped(ParallelConfig(tp=2, pp=2, dp=2))
        for kind in self.KINDS:
            for name, value in zero.consolidated_tensors(kind).items():
                assert not value.flags.writeable, (kind, name)

    def test_unknown_kind_raises(self):
        _, zero = make_zero()
        with pytest.raises(KeyError, match="state kind"):
            zero.shard((0, 0, 0), "final_norm.weight", "exp_avg_cubed")
