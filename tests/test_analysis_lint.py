"""Static checkpoint-layout linter: clean runs and rule-ID regressions."""

from __future__ import annotations

import collections
import os

import pytest

from tests.helpers import make_engine
from repro.analysis import LayoutLintError, lint_checkpoint
from repro.ckpt.loader import load_distributed_checkpoint
from repro.ckpt.manifest import refresh_entry
from repro.ckpt.saver import save_distributed_checkpoint
from repro.core.diagnostics import Diagnostic, LintReport, RULES, error
from repro.dist.topology import ParallelConfig
from repro.parallel.layout import ModelParallelLayout, RankShardLayout, ShardEntry
from repro.storage.store import ObjectStore


def _save(tmp_path, parallel, **kwargs):
    eng = make_engine(parallel=parallel)
    directory = str(tmp_path / "ckpt")
    info = save_distributed_checkpoint(eng, directory, **kwargs)
    return eng, directory, info


class TestCleanCheckpoints:
    def test_flat_zero1_is_clean(self, tmp_path):
        _, directory, _ = _save(
            tmp_path, ParallelConfig(tp=2, pp=1, dp=2, sp=1, zero_stage=1)
        )
        report = lint_checkpoint(directory)
        assert report.ok
        assert report.diagnostics == []

    def test_zero0_and_zero3_are_clean(self, tmp_path):
        for sub, parallel in (
            ("z0", ParallelConfig(tp=1, pp=1, dp=2, sp=1, zero_stage=0)),
            ("z3", ParallelConfig(tp=1, pp=1, dp=2, sp=1, zero_stage=3)),
        ):
            eng = make_engine(parallel=parallel)
            directory = str(tmp_path / sub)
            save_distributed_checkpoint(eng, directory)
            assert lint_checkpoint(directory).ok

    def test_per_param_layout_is_clean(self, tmp_path):
        _, directory, _ = _save(
            tmp_path,
            ParallelConfig(tp=2, pp=1, dp=1, sp=1, zero_stage=0),
            optimizer_layout="per_param",
        )
        assert lint_checkpoint(directory).ok

    def test_deep_mode_is_clean(self, tmp_path):
        _, directory, _ = _save(
            tmp_path, ParallelConfig(tp=1, pp=2, dp=1, sp=1, zero_stage=1)
        )
        assert lint_checkpoint(directory, deep=True).ok

    def test_linter_never_reads_tensor_payloads(self, tmp_path):
        _, directory, info = _save(
            tmp_path, ParallelConfig(tp=2, pp=1, dp=2, sp=1, zero_stage=1)
        )
        store = ObjectStore(directory)
        assert lint_checkpoint(directory, store=store).ok
        # manifest + job config are full reads; every rank file costs
        # only its header, so total read volume stays far below the
        # checkpoint's size
        assert store.bytes_read < info.total_bytes / 2

    def test_linter_decodes_each_rank_header_once(self, tmp_path, monkeypatch):
        """Header cost as counts, like the conversion's planner gate: one
        header-only decode per optimizer-state file, no full load of
        one, and one layout derivation for the whole tag."""
        _, directory, info = _save(
            tmp_path, ParallelConfig(tp=2, pp=1, dp=2, sp=1, zero_stage=1)
        )
        counts = collections.Counter()

        def counting(owner, attr, counted):
            real = getattr(owner, attr)

            def wrapper(self, *args, **kwargs):
                counts[attr] += counted(*args)
                return real(self, *args, **kwargs)

            monkeypatch.setattr(owner, attr, wrapper)

        def rank_file(rel, *_):
            return rel.endswith("_optim_states.npt")

        for attr in ("load_index_sized", "load", "read_bytes"):
            counting(ObjectStore, attr, rank_file)
        counting(ModelParallelLayout, "__init__", lambda *_: True)

        assert lint_checkpoint(directory).ok
        rank_files = [f for f in info.files if rank_file(f)]
        assert len(rank_files) == 4
        assert counts["load_index_sized"] == 4
        assert counts["load"] == counts["read_bytes"] == 0
        assert counts["__init__"] == 1


class TestNegativeCases:
    def test_deleted_rank_file_is_ucp008(self, tmp_path):
        _, directory, info = _save(
            tmp_path, ParallelConfig(tp=2, pp=1, dp=2, sp=1, zero_stage=1)
        )
        victim = os.path.join(
            directory, info.tag, "zero_dp_rank_1_mp_rank_01_optim_states.npt"
        )
        os.remove(victim)
        report = lint_checkpoint(directory)
        assert not report.ok
        assert [d.rule_id for d in report.errors] == ["UCP008"]
        assert "zero_dp_rank_1_mp_rank_01" in report.errors[0].location

    def test_renamed_rank_file_is_ucp008_plus_unknown(self, tmp_path):
        _, directory, info = _save(
            tmp_path, ParallelConfig(tp=2, pp=1, dp=1, sp=1, zero_stage=1)
        )
        tag_dir = os.path.join(directory, info.tag)
        old = os.path.join(tag_dir, "zero_dp_rank_0_mp_rank_01_optim_states.npt")
        new = os.path.join(tag_dir, "zero_dp_rank_7_mp_rank_01_optim_states.npt")
        os.rename(old, new)
        report = lint_checkpoint(directory)
        assert "UCP008" in [d.rule_id for d in report.errors]
        # the renamed file is on disk but in no manifest: flagged too
        assert "UCP009" in report.rule_ids()

    def test_corrupt_manifest_size_entry_is_ucp010(self, tmp_path):
        _, directory, info = _save(
            tmp_path, ParallelConfig(tp=1, pp=1, dp=2, sp=1, zero_stage=1)
        )
        store = ObjectStore(directory)
        rel = f"{info.tag}/manifest.npt"
        manifest = store.load(rel)
        basename = "zero_dp_rank_0_mp_rank_00_optim_states.npt"
        manifest["files"][basename]["nbytes"] += 1
        store.save(rel, manifest)
        report = lint_checkpoint(directory)
        ucp010 = report.by_rule("UCP010")
        assert ucp010 and ucp010[0].severity == "error"
        assert basename in ucp010[0].location

    def test_digest_mismatch_needs_deep_mode(self, tmp_path):
        _, directory, info = _save(
            tmp_path, ParallelConfig(tp=1, pp=1, dp=1, sp=1, zero_stage=1)
        )
        store = ObjectStore(directory)
        rel = f"{info.tag}/manifest.npt"
        manifest = store.load(rel)
        basename = "zero_dp_rank_0_mp_rank_00_optim_states.npt"
        manifest["files"][basename]["sha256"] = "0" * 64
        store.save(rel, manifest)
        assert lint_checkpoint(directory).ok  # shallow: size still matches
        deep = lint_checkpoint(directory, deep=True)
        assert [d.rule_id for d in deep.errors] == ["UCP010"]

    def test_segment_no_layout_derives_is_ucp002_warning(self, tmp_path):
        """An extra, empty segment is reported but refused by no reader."""
        parallel = ParallelConfig(tp=1, pp=1, dp=1, sp=1, zero_stage=1)
        _, directory, info = _save(tmp_path, parallel)
        store = ObjectStore(directory)
        basename = "zero_dp_rank_0_mp_rank_00_optim_states.npt"
        rel = f"{info.tag}/{basename}"
        payload = store.load(rel)
        payload["partition_meta"]["segments"].append(
            {"name": "ghost.weight", "offset": 0, "numel": 0, "shard_shape": [0]}
        )
        store.save(rel, payload)
        refresh_entry(store, info.tag, basename)
        report = lint_checkpoint(directory)
        assert report.ok
        assert [(d.rule_id, d.location) for d in report.warnings] == [
            ("UCP002", rel)
        ]
        load_distributed_checkpoint(make_engine(parallel=parallel), directory)

    def test_uncommitted_tag_is_ucp016(self, tmp_path):
        _, directory, info = _save(
            tmp_path, ParallelConfig(tp=1, pp=1, dp=1, sp=1, zero_stage=1)
        )
        os.remove(os.path.join(directory, info.tag, "manifest.npt"))
        report = lint_checkpoint(directory, tag=info.tag)
        assert "UCP016" in [d.rule_id for d in report.errors]

    def test_missing_atom_in_ucp_dir_is_ucp001(self, tmp_path):
        from repro.core.convert import ucp_convert

        _, directory, _ = _save(
            tmp_path, ParallelConfig(tp=2, pp=1, dp=2, sp=1, zero_stage=1)
        )
        ucp_dir = str(tmp_path / "ucp")
        ucp_convert(directory, ucp_dir)
        assert lint_checkpoint(ucp_dir).ok
        store = ObjectStore(ucp_dir)
        victims = [r for r in store.list("atoms") if "final_norm" in r]
        assert victims
        for rel in victims:
            store.delete(rel)
        report = lint_checkpoint(ucp_dir)
        assert "UCP001" in [d.rule_id for d in report.errors]
        assert any("final_norm" in d.location for d in report.errors)


class TestTilingValidation:
    def _entries(self, sizes):
        entries, offset = [], 0
        for i, numel in enumerate(sizes):
            entries.append(ShardEntry(name=f"p{i}", shard_shape=(numel,),
                                      offset=offset))
            offset += numel
        return entries

    def test_sound_layout_has_no_diagnostics(self):
        layout = RankShardLayout(0, 0, 0, self._entries([24, 40]), dp_degree=2)
        assert layout.tiling_diagnostics() == []

    def test_overlapping_entries_are_ucp005(self):
        entries = [
            ShardEntry(name="a", shard_shape=(32,), offset=0),
            ShardEntry(name="b", shard_shape=(32,), offset=16),
        ]
        layout = RankShardLayout(0, 0, 0, entries, dp_degree=1)
        rules = [d.rule_id for d in layout.tiling_diagnostics()]
        assert "UCP005" in rules

    def test_gap_between_entries_is_ucp006(self):
        entries = [
            ShardEntry(name="a", shard_shape=(16,), offset=0),
            ShardEntry(name="b", shard_shape=(16,), offset=48),
        ]
        layout = RankShardLayout(0, 0, 0, entries, dp_degree=1)
        rules = [d.rule_id for d in layout.tiling_diagnostics()]
        assert "UCP006" in rules

    def test_tampered_padding_is_ucp003(self):
        layout = RankShardLayout(0, 0, 0, self._entries([24]), dp_degree=2)
        layout.flat_numel += layout.alignment * 2  # corrupt the round-up
        rules = [d.rule_id for d in layout.tiling_diagnostics()]
        assert "UCP003" in rules

    def test_alignment_padding_regression(self):
        # 24 elements, alignment 32, dp 2 -> flat 64, padding 40; the
        # padded tail must be exactly the round-up to alignment*dp and
        # stay outside every partition slice
        layout = RankShardLayout(0, 0, 0, self._entries([24]), dp_degree=2,
                                 alignment=32)
        assert layout.flat_numel == 64
        assert layout.padding == 40
        assert layout.partition_numel == 32
        assert layout.tiling_diagnostics() == []

    def test_validate_raises_layout_lint_error(self):
        entries = [
            ShardEntry(name="a", shard_shape=(32,), offset=0),
            ShardEntry(name="b", shard_shape=(32,), offset=16),
        ]
        bad = RankShardLayout(0, 0, 0, entries, dp_degree=1)

        eng = make_engine()
        layout = eng.layout
        assert layout.tiling_diagnostics() == []
        layout.validate()  # sound layout: no raise
        coord = layout.mp_coords()[0]
        layout._ranks[coord] = bad
        with pytest.raises(LayoutLintError) as excinfo:
            layout.validate()
        assert "UCP005" in str(excinfo.value)
        assert excinfo.value.report.by_rule("UCP005")

    def test_engine_validates_layout_on_init(self):
        # construction runs validate(); a fresh engine proving clean is
        # the positive half of the invariant
        eng = make_engine(parallel=ParallelConfig(tp=2, pp=2, dp=1, sp=1))
        assert eng.layout.tiling_diagnostics() == []


class TestDiagnosticTypes:
    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic("UCP999", "error", "nope")

    def test_rule_catalogue_is_stable(self):
        # rule IDs are API: renaming or renumbering breaks CI gates
        assert RULES["UCP001"] == "missing-atom"
        assert RULES["UCP003"] == "padding-mismatch"
        assert RULES["UCP005"] == "overlapping-partition-slices"
        assert RULES["UCP007"] == "fragment-indivisible"
        assert RULES["UCP014"] == "collective-order-mismatch"

    def test_report_rendering(self):
        report = LintReport(subject="demo")
        report.add(error("UCP001", "gone", location="atoms/w"))
        text = report.render_text()
        assert "1 error" in text
        assert "UCP001" in text and "missing-atom" in text
        payload = report.to_dict()
        assert payload["ok"] is False
        assert payload["diagnostics"][0]["rule_name"] == "missing-atom"

    def test_raise_if_errors(self):
        clean = LintReport(subject="x")
        assert clean.raise_if_errors() is clean
        bad = LintReport(subject="x", diagnostics=[error("UCP001", "m")])
        with pytest.raises(LayoutLintError):
            bad.raise_if_errors()
