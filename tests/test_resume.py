"""Tests for high-level resume flows and elastic failover planning."""

import inspect

import numpy as np
import pytest

from repro.core.errors import UCPError
from repro.core.resume import ElasticResumeManager, resume_training
from repro.dist.topology import ParallelConfig
from repro.storage.store import ObjectStore

from tests.helpers import make_engine


@pytest.fixture
def trained_ckpt(tmp_path):
    engine = make_engine(parallel=ParallelConfig(tp=2, pp=2, dp=2), seed=7)
    engine.train(3)
    ckpt = str(tmp_path / "ckpt")
    engine.save_checkpoint(ckpt)
    return engine, ckpt


class TestResumeTraining:
    def test_same_topology_skips_conversion(self, trained_ckpt):
        _, ckpt = trained_ckpt
        engine = resume_training(ckpt, ParallelConfig(tp=2, pp=2, dp=2))
        assert engine.iteration == 3
        # no UCP directory created
        assert not ObjectStore(ckpt).exists("ucp_global_step3/ucp_meta.npt")

    def test_changed_topology_converts_lazily(self, trained_ckpt):
        _, ckpt = trained_ckpt
        engine = resume_training(ckpt, ParallelConfig(dp=2))
        assert engine.iteration == 3
        assert ObjectStore(f"{ckpt}/ucp_global_step3").exists("ucp_meta.npt")

    def test_conversion_cached_across_resumes(self, trained_ckpt):
        _, ckpt = trained_ckpt
        resume_training(ckpt, ParallelConfig(dp=2))
        store = ObjectStore(f"{ckpt}/ucp_global_step3")
        marker_mtime = (store.base / "ucp_meta.npt").stat().st_mtime_ns
        resume_training(ckpt, ParallelConfig(dp=4))  # different target, same UCP
        assert (store.base / "ucp_meta.npt").stat().st_mtime_ns == marker_mtime

    def test_rolled_back_tag_is_converted_again(self, tmp_path):
        """``ucp_global_step3`` caches a conversion of one commit of the
        tag; after a rollback re-saves the tag, the resume converts the
        new commit instead of loading the cache."""
        from repro.core.convert import ucp_convert
        from repro.optim.lr_schedule import ConstantLRSchedule

        source = ParallelConfig(tp=2, pp=2, dp=2)
        ckpt = str(tmp_path / "ckpt")
        engine = make_engine(parallel=source, seed=7)
        engine.train(2)
        engine.save_checkpoint(ckpt)
        engine.train(1)
        engine.save_checkpoint(ckpt)
        resume_training(ckpt, ParallelConfig(dp=2))

        redo = make_engine(
            parallel=source, seed=7, lr_schedule=ConstantLRSchedule(5e-5)
        )
        redo.load_checkpoint(ckpt, tag="global_step2")
        redo.train(1)
        redo.save_checkpoint(ckpt)  # global_step3 again, other bytes

        resumed = resume_training(ckpt, ParallelConfig(dp=2))
        fresh = str(tmp_path / "fresh")
        ucp_convert(ckpt, fresh)
        want = make_engine(parallel=ParallelConfig(dp=2), seed=7)
        want.load_universal(fresh)
        got_fp32 = resumed.zero.consolidated_tensors("fp32")
        for name, values in want.zero.consolidated_tensors("fp32").items():
            assert np.array_equal(got_fp32[name], values), name

    def test_loss_continuity_across_topology_change(self, trained_ckpt):
        src, ckpt = trained_ckpt
        continued = [r.loss for r in src.train(3)]
        resumed_engine = resume_training(ckpt, ParallelConfig(tp=1, pp=2, dp=2))
        resumed = [r.loss for r in resumed_engine.train(3)]
        assert np.allclose(continued, resumed, atol=2e-2)

    def test_engine_overrides_forwarded(self, trained_ckpt):
        from repro.optim.lr_schedule import ConstantLRSchedule
        _, ckpt = trained_ckpt
        engine = resume_training(
            ckpt, ParallelConfig(dp=2), lr_schedule=ConstantLRSchedule(5e-5)
        )
        assert engine.train_step().lr == 5e-5

    def test_conversion_runs_at_ucp_converts_default_width(self):
        """No caller-less width knob: a resume converts exactly as
        ``ucp_convert`` and ``repro convert`` do by default."""
        assert "workers" not in inspect.signature(resume_training).parameters

    def test_training_seeds_restored(self, trained_ckpt):
        src, ckpt = trained_ckpt
        engine = resume_training(ckpt, ParallelConfig(dp=2))
        assert engine.data_seed == src.data_seed
        assert engine.global_batch_size == src.global_batch_size


class TestResizePlanning:
    def _manager(self, tmp_path):
        return ElasticResumeManager(str(tmp_path), global_batch_size=8)

    def test_keeps_mp_shape_when_possible(self, tmp_path):
        manager = self._manager(tmp_path)
        source = ParallelConfig(tp=2, pp=2, dp=2)  # world 8
        plan = manager.plan_resize(source, new_world=4)
        assert plan.target.tp == 2 and plan.target.pp == 2
        assert plan.target.dp == 1

    def test_shrinks_pp_when_world_too_small(self, tmp_path):
        manager = self._manager(tmp_path)
        source = ParallelConfig(tp=2, pp=2, dp=2)
        plan = manager.plan_resize(source, new_world=2)
        assert plan.target.world_size <= 2

    def test_grows_dp_with_more_capacity(self, tmp_path):
        manager = self._manager(tmp_path)
        source = ParallelConfig(tp=2, pp=2, dp=1)  # world 4
        plan = manager.plan_resize(source, new_world=16)
        assert plan.target.dp == 4
        assert plan.target.world_size == 16

    def test_dp_constrained_by_batch_divisibility(self, tmp_path):
        manager = ElasticResumeManager(str(tmp_path), global_batch_size=6)
        source = ParallelConfig(tp=1, pp=1, dp=4)
        plan = manager.plan_resize(source, new_world=4)
        assert 6 % plan.target.dp == 0

    def test_zero_world_raises(self, tmp_path):
        with pytest.raises(UCPError, match="zero healthy"):
            self._manager(tmp_path).plan_resize(ParallelConfig(), 0)

    def test_preserves_zero_stage(self, tmp_path):
        manager = self._manager(tmp_path)
        source = ParallelConfig(dp=4, zero_stage=2)
        plan = manager.plan_resize(source, new_world=2)
        assert plan.target.zero_stage == 2


class TestFailoverEndToEnd:
    def test_resume_after_failure_continues_training(self, trained_ckpt):
        """The paper's headline scenario: lose half the cluster, keep
        training on the survivors with consistent loss."""
        src, ckpt = trained_ckpt
        continued = [r.loss for r in src.train(2)]

        manager = ElasticResumeManager(ckpt, global_batch_size=4)
        engine = manager.resume_after_failure(
            source=ParallelConfig(tp=2, pp=2, dp=2), healthy_ranks=4
        )
        assert engine.parallel_cfg.world_size <= 4
        resumed = [r.loss for r in engine.train(2)]
        assert np.allclose(continued, resumed, atol=2e-2)

    def test_resume_with_extra_capacity(self, trained_ckpt):
        src, ckpt = trained_ckpt
        manager = ElasticResumeManager(ckpt, global_batch_size=4)
        engine = manager.resume_with_capacity(
            source=ParallelConfig(tp=2, pp=2, dp=2), new_world=16
        )
        assert engine.parallel_cfg.world_size == 16
        assert engine.iteration == 3
        engine.train(1)


class TestThroughputObjective:
    def _manager(self, tmp_path, micro_batches=2):
        return ElasticResumeManager(
            str(tmp_path), global_batch_size=8, micro_batches=micro_batches
        )

    def test_throughput_prefers_shallow_pipelines(self, tmp_path):
        """With few micro-batches, a deep pipeline's bubble makes it
        slower than a shallower one using the same ranks."""
        manager = self._manager(tmp_path, micro_batches=2)
        source = ParallelConfig(tp=1, pp=4, dp=1)
        plan = manager.plan_resize(source, new_world=4, objective="throughput")
        assert plan.target.pp < 4

    def test_ranks_objective_keeps_source_shape(self, tmp_path):
        manager = self._manager(tmp_path, micro_batches=2)
        source = ParallelConfig(tp=1, pp=4, dp=1)
        plan = manager.plan_resize(source, new_world=4, objective="ranks")
        assert plan.target == source

    def test_many_micro_batches_tolerate_deep_pipelines(self, tmp_path):
        manager = self._manager(tmp_path, micro_batches=64)
        source = ParallelConfig(tp=1, pp=4, dp=1)
        deep = manager.estimated_throughput(ParallelConfig(tp=1, pp=4, dp=1))
        shallow = manager.estimated_throughput(ParallelConfig(tp=1, pp=1, dp=4))
        # at m=64 the pp=4 bubble is ~4.5%: almost as good as pure DP
        assert deep > 0.9 * shallow

    def test_unknown_objective_raises(self, tmp_path):
        manager = self._manager(tmp_path)
        with pytest.raises(ValueError, match="objective"):
            manager.plan_resize(ParallelConfig(), 1, objective="vibes")

    def test_bad_micro_batches_raise(self, tmp_path):
        with pytest.raises(ValueError, match="micro_batches"):
            ElasticResumeManager(str(tmp_path), 8, micro_batches=0)
