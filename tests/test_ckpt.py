"""Tests for distributed checkpoint save/load and the consolidated baseline."""

import numpy as np
import pytest

from repro.ckpt import naming
from repro.ckpt.consolidated import (
    load_consolidated_checkpoint,
    save_consolidated_checkpoint,
)
from repro.ckpt.errors import (
    CheckpointIncompatibleError,
    CheckpointIntegrityError,
    CheckpointNotFoundError,
)
from repro.ckpt.loader import latest_committed_tag, read_job_config, resolve_tag
from repro.ckpt.manifest import read_manifest
from repro.dist.topology import ParallelConfig
from repro.storage.store import ObjectStore

from tests.helpers import make_engine


class TestNaming:
    def test_tag_round_trip(self):
        assert naming.step_from_tag(naming.tag_for_step(1234)) == 1234

    def test_malformed_tag_raises(self):
        with pytest.raises(ValueError, match="malformed"):
            naming.step_from_tag("step_100")

    def test_negative_values_raise(self):
        with pytest.raises(ValueError):
            naming.tag_for_step(-1)
        with pytest.raises(ValueError):
            naming.model_states_name(-1)
        with pytest.raises(ValueError):
            naming.optim_states_name(-1, 0)

    def test_file_name_formats(self):
        assert naming.model_states_name(3) == "mp_rank_03_model_states.npt"
        assert naming.optim_states_name(1, 2) == "zero_dp_rank_1_mp_rank_02_optim_states.npt"
        assert naming.zero3_model_states_name(0) == "zero3_dp_rank_0_model_states.npt"


class TestSave:
    def test_file_inventory_matches_topology(self, tmp_path):
        engine = make_engine(parallel=ParallelConfig(tp=2, pp=2, dp=2))
        engine.train(2)
        info = engine.save_checkpoint(str(tmp_path))
        # 4 mp ranks x (1 model file + 2 optim files) + job config
        assert len(info.files) == 1 + 4 * 3
        assert info.tag == "global_step2"

    def test_zero0_saves_single_optim_file_per_mp_rank(self, tmp_path):
        engine = make_engine(parallel=ParallelConfig(dp=2, zero_stage=0))
        engine.train(1)
        info = engine.save_checkpoint(str(tmp_path))
        optim_files = [f for f in info.files if "optim_states" in f]
        assert len(optim_files) == 1  # only dp rank 0 writes

    def test_zero3_saves_flat_param_partitions(self, tmp_path):
        engine = make_engine(parallel=ParallelConfig(dp=2, zero_stage=3))
        engine.train(1)
        info = engine.save_checkpoint(str(tmp_path))
        assert any("zero3_dp_rank_0_model_states" in f for f in info.files)
        assert any("zero3_dp_rank_1_model_states" in f for f in info.files)
        assert not any(f.endswith("mp_rank_00_model_states.npt") for f in info.files)

    def test_latest_marker_updated(self, tmp_path):
        engine = make_engine()
        engine.train(1)
        engine.save_checkpoint(str(tmp_path))
        engine.train(1)
        engine.save_checkpoint(str(tmp_path))
        store = ObjectStore(str(tmp_path))
        assert store.read_text("latest") == "global_step2"

    def test_job_config_contents(self, tmp_path):
        engine = make_engine(parallel=ParallelConfig(tp=2, dp=2))
        engine.train(1)
        engine.save_checkpoint(str(tmp_path))
        job = read_job_config(str(tmp_path))
        assert job["iteration"] == 1
        assert job["parallel_config"]["tp"] == 2
        assert job["model_config"]["name"] == "gpt3-mini"


class TestLoad:
    def test_bit_exact_resume_same_topology(self, tmp_path):
        src = make_engine(parallel=ParallelConfig(tp=2, dp=2), seed=7)
        src.train(3)
        src.save_checkpoint(str(tmp_path))
        continued = [r.loss for r in src.train(3)]

        dst = make_engine(parallel=ParallelConfig(tp=2, dp=2), seed=99)
        dst.load_checkpoint(str(tmp_path))
        resumed = [r.loss for r in dst.train(3)]
        assert continued == resumed  # bit-exact

    def test_iteration_restored(self, tmp_path):
        src = make_engine()
        src.train(5)
        src.save_checkpoint(str(tmp_path))
        dst = make_engine()
        dst.load_checkpoint(str(tmp_path))
        assert dst.iteration == 5

    def test_specific_tag_loadable(self, tmp_path):
        src = make_engine()
        src.train(2)
        src.save_checkpoint(str(tmp_path))
        src.train(2)
        src.save_checkpoint(str(tmp_path))
        dst = make_engine()
        dst.load_checkpoint(str(tmp_path), tag="global_step2")
        assert dst.iteration == 2

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(CheckpointNotFoundError, match="latest"):
            make_engine().load_checkpoint(str(tmp_path))

    @pytest.mark.parametrize(
        "target",
        [
            ParallelConfig(tp=1, pp=1, dp=1),
            ParallelConfig(tp=1, pp=2, dp=2),   # same world size, different shape
            ParallelConfig(tp=2, pp=2, dp=1),   # fewer ranks
            ParallelConfig(tp=2, pp=1, dp=4),
        ],
    )
    def test_fig1_topology_change_fails(self, tmp_path, target):
        """The paper's Fig 1: strict loaders reject any topology change."""
        src = make_engine(parallel=ParallelConfig(tp=2, pp=1, dp=2))
        src.train(1)
        src.save_checkpoint(str(tmp_path))
        dst = make_engine(parallel=target)
        with pytest.raises(CheckpointIncompatibleError):
            dst.load_checkpoint(str(tmp_path))

    def test_zero_stage_change_fails(self, tmp_path):
        src = make_engine(parallel=ParallelConfig(dp=2, zero_stage=1))
        src.train(1)
        src.save_checkpoint(str(tmp_path))
        dst = make_engine(parallel=ParallelConfig(dp=2, zero_stage=2))
        with pytest.raises(CheckpointIncompatibleError, match="ZeRO stage"):
            dst.load_checkpoint(str(tmp_path))

    def test_different_model_fails(self, tmp_path):
        src = make_engine("gpt3-mini")
        src.train(1)
        src.save_checkpoint(str(tmp_path))
        dst = make_engine("llama-mini")
        with pytest.raises(CheckpointIncompatibleError, match="model"):
            dst.load_checkpoint(str(tmp_path))


class TestDamagedCommitRecords:
    """A commit record that decodes to the wrong thing ends in a typed
    error naming the file — never an AttributeError / UnicodeDecodeError
    / "escapes the store root" traceback from a caller further down."""

    @pytest.mark.parametrize(
        "payload", [[1, 2, 3], "manifest", 7], ids=["list", "str", "int"]
    )
    def test_manifest_that_is_not_a_mapping(self, tmp_path, payload):
        from repro.core.inspect import verify_directory

        src = make_engine()
        src.train(1)
        src.save_checkpoint(str(tmp_path))
        store = ObjectStore(str(tmp_path))
        rel = f"{naming.tag_for_step(1)}/{naming.MANIFEST_FILE}"
        store.save(rel, payload)
        with pytest.raises(CheckpointIntegrityError, match="manifest.npt"):
            read_manifest(store, naming.tag_for_step(1))
        # the supervisor's recovery entry point names the damaged tag
        with pytest.raises(CheckpointIntegrityError, match="manifest.npt"):
            latest_committed_tag(str(tmp_path))
        report = verify_directory(str(tmp_path))
        assert any(rel == path for path, _ in report.corrupt)

    @pytest.mark.parametrize(
        "raw",
        [b"\xff\xfe\x00bad", b"", b"  \n", b"../x", b"a/b", b".."],
        ids=["non-utf8", "empty", "blank", "dotdot-slash", "nested", "dotdot"],
    )
    def test_latest_that_is_not_a_tag_name(self, tmp_path, raw):
        src = make_engine()
        src.train(1)
        src.save_checkpoint(str(tmp_path))
        (tmp_path / naming.LATEST_FILE).write_bytes(raw)
        store = ObjectStore(str(tmp_path))
        with pytest.raises(CheckpointIntegrityError, match="latest"):
            resolve_tag(store, None)
        with pytest.raises(CheckpointIntegrityError, match="latest"):
            make_engine().load_checkpoint(str(tmp_path))
        # an explicit tag never reads the pointer
        assert resolve_tag(store, "global_step1") == "global_step1"


class TestConsolidatedBaseline:
    def test_cross_topology_load_works(self, tmp_path):
        src = make_engine(parallel=ParallelConfig(tp=2, dp=2), seed=7)
        src.train(3)
        save_consolidated_checkpoint(src, str(tmp_path))
        continued = [r.loss for r in src.train(2)]

        dst = make_engine(parallel=ParallelConfig(pp=2), seed=0)
        load_consolidated_checkpoint(dst, str(tmp_path))
        resumed = [r.loss for r in dst.train(2)]
        assert np.allclose(continued, resumed, atol=1e-6)

    def test_gather_traffic_accounted(self, tmp_path):
        engine = make_engine(parallel=ParallelConfig(tp=2, dp=2))
        engine.train(1)
        before = engine.cluster.tracker.count("all_gather")
        save_consolidated_checkpoint(engine, str(tmp_path))
        assert engine.cluster.tracker.count("all_gather") == before + 1

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointNotFoundError):
            load_consolidated_checkpoint(make_engine(), str(tmp_path))

    def test_wrong_model_raises(self, tmp_path):
        src = make_engine("gpt3-mini")
        src.train(1)
        save_consolidated_checkpoint(src, str(tmp_path))
        with pytest.raises(CheckpointIncompatibleError):
            load_consolidated_checkpoint(make_engine("llama-mini"), str(tmp_path))

    def test_single_file_larger_than_any_rank_file(self, tmp_path):
        """The scaling argument: consolidation concentrates all bytes."""
        engine = make_engine(parallel=ParallelConfig(tp=2, dp=2))
        engine.train(1)
        consolidated_bytes = save_consolidated_checkpoint(engine, str(tmp_path))
        info = engine.save_checkpoint(str(tmp_path / "dist"))
        per_file = info.total_bytes / len(info.files)
        assert consolidated_bytes > per_file
