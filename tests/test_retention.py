"""Tests for checkpoint retention policies."""

import pytest

from repro.ckpt import naming
from repro.ckpt.errors import CheckpointIntegrityError, CheckpointNotFoundError
from repro.ckpt.retention import RetentionPolicy, list_tags, prune_checkpoints
from repro.core.resume import resume_training
from repro.dist.topology import ParallelConfig
from repro.storage.store import ObjectStore

from tests.helpers import make_engine


@pytest.fixture
def many_checkpoints(tmp_path):
    """A run that checkpointed at steps 1..6."""
    engine = make_engine(seed=7)
    ckpt = str(tmp_path / "ckpt")
    for _ in range(6):
        engine.train(1)
        engine.save_checkpoint(ckpt)
    return engine, ckpt


class TestListTags:
    def test_sorted_by_step(self, many_checkpoints):
        _, ckpt = many_checkpoints
        assert list_tags(ckpt) == [f"global_step{i}" for i in range(1, 7)]

    def test_ignores_foreign_directories(self, many_checkpoints):
        _, ckpt = many_checkpoints
        (ObjectStore(ckpt).base / "notes").mkdir()
        assert len(list_tags(ckpt)) == 6


class TestPrune:
    def test_keep_last_window(self, many_checkpoints):
        _, ckpt = many_checkpoints
        pruned = prune_checkpoints(ckpt, RetentionPolicy(keep_last=2))
        assert pruned == [f"global_step{i}" for i in range(1, 5)]
        assert list_tags(ckpt) == ["global_step5", "global_step6"]

    def test_anchors_survive(self, many_checkpoints):
        _, ckpt = many_checkpoints
        pruned = prune_checkpoints(
            ckpt, RetentionPolicy(keep_last=1, keep_every=3)
        )
        kept = list_tags(ckpt)
        assert "global_step3" in kept  # anchor
        assert "global_step6" in kept  # anchor + latest
        assert "global_step2" not in kept
        assert "global_step2" in pruned

    def test_latest_always_protected(self, many_checkpoints):
        _, ckpt = many_checkpoints
        # point latest at an old tag, then prune aggressively
        ObjectStore(ckpt).write_text("latest", "global_step2")
        prune_checkpoints(ckpt, RetentionPolicy(keep_last=1))
        assert "global_step2" in list_tags(ckpt)

    def test_remaining_checkpoint_still_loads(self, many_checkpoints):
        engine, ckpt = many_checkpoints
        continued = [r.loss for r in engine.train(2)]
        prune_checkpoints(ckpt, RetentionPolicy(keep_last=1))
        resumed = resume_training(ckpt, ParallelConfig())
        assert resumed.iteration == 6
        assert [r.loss for r in resumed.train(2)] == continued

    def test_cached_ucp_pruned_with_tag(self, many_checkpoints):
        _, ckpt = many_checkpoints
        # create a cached conversion for an old tag
        resume_training(ckpt, ParallelConfig(dp=2), tag="global_step2")
        store = ObjectStore(ckpt)
        assert (store.base / "ucp_global_step2").is_dir()
        prune_checkpoints(ckpt, RetentionPolicy(keep_last=1))
        assert not (store.base / "ucp_global_step2").exists()

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(CheckpointNotFoundError):
            prune_checkpoints(str(tmp_path))

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="keep_last"):
            RetentionPolicy(keep_last=0)
        with pytest.raises(ValueError, match="keep_every"):
            RetentionPolicy(keep_every=-1)


class TestPruneEdgeCases:
    def test_non_numeric_tag_suffixes_ignored(self, many_checkpoints):
        _, ckpt = many_checkpoints
        base = ObjectStore(ckpt).base
        (base / "global_stepabc").mkdir()
        (base / "global_step2b").mkdir()
        assert list_tags(ckpt) == [f"global_step{i}" for i in range(1, 7)]
        prune_checkpoints(ckpt, RetentionPolicy(keep_last=1))
        # foreign directories are neither counted nor deleted
        assert (base / "global_stepabc").is_dir()
        assert (base / "global_step2b").is_dir()

    def test_keep_every_zero_disables_anchors(self, many_checkpoints):
        _, ckpt = many_checkpoints
        pruned = prune_checkpoints(
            ckpt, RetentionPolicy(keep_last=1, keep_every=0)
        )
        assert pruned == [f"global_step{i}" for i in range(1, 6)]
        assert list_tags(ckpt) == ["global_step6"]

    def test_missing_latest_file_prunes_by_window_only(
        self, many_checkpoints
    ):
        _, ckpt = many_checkpoints
        (ObjectStore(ckpt).base / "latest").unlink()
        prune_checkpoints(ckpt, RetentionPolicy(keep_last=2))
        assert list_tags(ckpt) == ["global_step5", "global_step6"]

    def test_latest_pointing_at_missing_tag_is_harmless(
        self, many_checkpoints
    ):
        _, ckpt = many_checkpoints
        ObjectStore(ckpt).write_text("latest", "global_step999")
        pruned = prune_checkpoints(ckpt, RetentionPolicy(keep_last=1))
        assert "global_step6" not in pruned
        assert list_tags(ckpt) == ["global_step6"]

    def test_protected_latest_tag_loads_after_aggressive_prune(
        self, many_checkpoints
    ):
        """Pruning around the tag `latest` names must leave a loadable,
        integrity-clean checkpoint behind."""
        from repro.core.inspect import verify_directory

        _, ckpt = many_checkpoints
        ObjectStore(ckpt).write_text("latest", "global_step2")
        prune_checkpoints(ckpt, RetentionPolicy(keep_last=1))
        assert sorted(list_tags(ckpt)) == ["global_step2", "global_step6"]
        resumed = resume_training(ckpt, ParallelConfig())
        assert resumed.iteration == 2
        assert verify_directory(ckpt).ok

    @pytest.mark.parametrize(
        "raw",
        [b"\xff\xfe\x00bad", b"", b"  \n", b"../x", b"a/b", b".."],
        ids=["non-utf8", "empty", "blank", "dotdot-slash", "nested", "dotdot"],
    )
    def test_damaged_latest_prunes_nothing(self, tmp_path, raw):
        """``latest`` named the only committed tag and a newer save tore:
        with the pointer damaged, pruning must refuse (naming the file)
        rather than keep the torn tag and delete the committed one."""
        engine = make_engine(seed=7)
        engine.train(2)
        engine.save_checkpoint(str(tmp_path))
        base = ObjectStore(str(tmp_path)).base
        (base / "global_step4").mkdir()  # a save that died before its manifest
        (base / naming.LATEST_FILE).write_bytes(raw)
        with pytest.raises(CheckpointIntegrityError, match="latest"):
            prune_checkpoints(str(tmp_path), RetentionPolicy(keep_last=1))
        assert list_tags(str(tmp_path)) == ["global_step2", "global_step4"]
        assert (base / "global_step2" / naming.MANIFEST_FILE).is_file()
