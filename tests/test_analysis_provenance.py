"""Byte-provenance checker: clean checkpoints pass, corruptions fire.

The provenance analyzer proves three theorems per target tensor from
rank-file *headers* alone — coverage, exclusivity, padding hygiene.
These tests pin both directions: every saver-produced checkpoint (flat,
per-param, ZeRO-3, SP, MoE, and converted UCP directories) verifies
clean, and each class of injected plan corruption raises exactly its
designated UCP017-UCP022 rule.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import make_engine
from tests.reference_convert import assert_matches_reference
from repro.analysis import (
    LintReport,
    analyze_interchange,
    analyze_source,
    check_target_provenance,
    error,
    warning,
)
from repro.analysis.provenance import explain
from repro.ckpt import manifest as manifest_mod
from repro.ckpt import naming
from repro.ckpt.saver import save_distributed_checkpoint
from repro.core import intervals
from repro.core.convert import ucp_convert
from repro.core.loader import load_ucp_into_engine
from repro.dist.topology import ParallelConfig
from repro.models import get_config
from repro.storage.store import ObjectStore

FLAT_PARALLEL = ParallelConfig(tp=2, pp=1, dp=2, sp=1, zero_stage=1)


def _save(tmp_path, parallel, model="gpt3-mini", optimizer_layout="flat"):
    eng = make_engine(model, parallel=parallel)
    eng.train(1)
    info = save_distributed_checkpoint(
        eng, str(tmp_path), optimizer_layout=optimizer_layout
    )
    return ObjectStore(str(tmp_path)), info.tag, get_config(model)


def _tamper(store, tag, basename, mutate):
    """Modify one committed rank file, keeping its manifest entry valid.

    The manifest refresh matters: without it the tamper would surface as
    a checkpoint-integrity error (PR 1's contract) before the static
    provenance pass ever runs.
    """
    rel = f"{tag}/{basename}"
    payload = store.load(rel)
    mutate(payload)
    store.save(rel, payload)
    manifest_mod.refresh_entry(store, tag, basename)


class TestCleanSources:
    def test_flat_zero1_source_proves_clean(self, tmp_path):
        store, tag, model = _save(tmp_path, FLAT_PARALLEL)
        report = analyze_source(store, tag, model, FLAT_PARALLEL).report
        assert report.ok, report.render_text()

    def test_per_param_zero0_source_proves_clean(self, tmp_path):
        parallel = ParallelConfig(tp=2, pp=1, dp=2, sp=1, zero_stage=0)
        store, tag, model = _save(
            tmp_path, parallel, optimizer_layout="per_param"
        )
        report = analyze_source(
            store, tag, model, parallel, optimizer_layout="per_param"
        ).report
        assert report.ok, report.render_text()

    def test_zero3_source_proves_clean(self, tmp_path):
        parallel = ParallelConfig(tp=1, pp=1, dp=4, sp=1, zero_stage=3)
        store, tag, model = _save(tmp_path, parallel)
        report = analyze_source(store, tag, model, parallel).report
        assert report.ok, report.render_text()

    def test_sequence_parallel_source_proves_clean(self, tmp_path):
        parallel = ParallelConfig(tp=2, pp=1, dp=1, sp=2, zero_stage=1)
        store, tag, model = _save(tmp_path, parallel)
        report = analyze_source(store, tag, model, parallel).report
        assert report.ok, report.render_text()

    def test_expert_parallel_moe_source_proves_clean(self, tmp_path):
        parallel = ParallelConfig(
            tp=2, pp=1, dp=2, sp=1, zero_stage=1, expert_parallel=True
        )
        store, tag, model = _save(tmp_path, parallel, model="moe-mini")
        report = analyze_source(store, tag, model, parallel).report
        assert report.ok, report.render_text()

    def test_converted_ucp_dir_proves_clean(self, tmp_path):
        _save(tmp_path / "src", FLAT_PARALLEL)
        ucp_convert(str(tmp_path / "src"), str(tmp_path / "ucp"))
        target = ParallelConfig(tp=1, pp=2, dp=2, sp=1, zero_stage=2)
        report = analyze_interchange(str(tmp_path / "ucp"), target).report
        assert report.ok, report.render_text()

    def test_header_only_io_stays_in_kilobytes(self, tmp_path):
        store, tag, model = _save(tmp_path, FLAT_PARALLEL)
        payload_bytes = sum(
            f.stat().st_size for f in (tmp_path / tag).glob("*.npt")
        )
        fresh = ObjectStore(str(tmp_path))
        report = analyze_source(fresh, tag, model, FLAT_PARALLEL).report
        assert report.ok
        # headers only: orders of magnitude below the payload, and small
        # in absolute terms — this is the "no tensor reads" guarantee
        assert fresh.bytes_read < 256 * 1024
        assert fresh.bytes_read < payload_bytes / 2


class TestTargetTheorems:
    def test_interchange_proves_coverage_for_reconfiguration(self, tmp_path):
        _save(tmp_path, FLAT_PARALLEL)
        target = ParallelConfig(tp=1, pp=2, dp=2, sp=1, zero_stage=2)
        analysis = analyze_interchange(str(tmp_path), target)
        assert analysis.report.ok, analysis.report.render_text()

    def test_explain_renders_byte_chain(self, tmp_path):
        store, tag, model = _save(tmp_path, FLAT_PARALLEL)
        analysis = analyze_source(store, tag, model, FLAT_PARALLEL)
        target = ParallelConfig(tp=1, pp=1, dp=2, sp=1, zero_stage=1)
        chain = explain(
            analysis, "embedding.weight", target,
            pp_stage=0, sp_rank=0, tp_rank=0, dp_rank=0, local_element=5,
        )
        assert "target pp=0" in chain
        assert "consolidated bytes [" in chain
        assert "optim_states.npt::fp32_flat_partition" in chain

    def test_explain_rejects_element_outside_partition(self, tmp_path):
        store, tag, model = _save(tmp_path, FLAT_PARALLEL)
        analysis = analyze_source(store, tag, model, FLAT_PARALLEL)
        with pytest.raises(KeyError):
            explain(
                analysis, "embedding.weight", FLAT_PARALLEL,
                pp_stage=0, sp_rank=0, tp_rank=0, dp_rank=0,
                local_element=10 ** 9,
            )

    def test_missing_param_is_target_gap(self, tmp_path):
        store, tag, model = _save(tmp_path, FLAT_PARALLEL)
        analysis = analyze_source(store, tag, model, FLAT_PARALLEL)
        # erase one param's provenance: every target byte of it is now
        # unsourced and must be reported as a UCP017 chain ending in
        # "<no source byte>"
        victim = analysis.params["embedding.weight"]
        analysis.params["embedding.weight"] = type(victim)(
            name=victim.name, spec=victim.spec, extents=[], data=victim.data
        )
        target = ParallelConfig(tp=1, pp=1, dp=1, sp=1, zero_stage=0)
        report = check_target_provenance(analysis, target)
        gaps = [d for d in report.errors if d.rule_id == "UCP017"]
        assert gaps, report.render_text()
        assert any("<no source byte>" in d.message for d in gaps)


class TestInjectedPlanCorruptions:
    """Each corruption class fires exactly its designated rule."""

    def test_overlapping_fragments_fire_ucp018(self, tmp_path):
        store, tag, model = _save(tmp_path, FLAT_PARALLEL)
        # dp rank 1's file claims partition window 0: every byte it
        # holds is now also claimed by dp rank 0's fragments
        _tamper(
            store, tag, naming.optim_states_name(1, 0),
            lambda p: p["partition_meta"].__setitem__("dp_rank", 0),
        )
        report = analyze_source(store, tag, model, FLAT_PARALLEL).report
        assert not report.ok
        assert "UCP018" in report.rule_ids()
        overlap = next(d for d in report.errors if d.rule_id == "UCP018")
        assert "bytes [" in overlap.message

    def test_off_by_one_segment_extension_fires_ucp021(self, tmp_path):
        store, tag, model = _save(tmp_path, FLAT_PARALLEL)

        def extend(payload):
            payload["partition_meta"]["segments"][0]["numel"] += 1

        _tamper(store, tag, naming.optim_states_name(0, 0), extend)
        report = analyze_source(store, tag, model, FLAT_PARALLEL).report
        assert not report.ok
        assert "UCP021" in report.rule_ids()

    def test_off_by_one_segment_shrink_fires_ucp017(self, tmp_path):
        store, tag, model = _save(tmp_path, FLAT_PARALLEL)

        def shrink(payload):
            payload["partition_meta"]["segments"][0]["numel"] -= 1

        _tamper(store, tag, naming.optim_states_name(0, 0), shrink)
        report = analyze_source(store, tag, model, FLAT_PARALLEL).report
        assert not report.ok
        assert "UCP017" in report.rule_ids()

    def test_padding_recorded_as_data_fires_ucp019(self, tmp_path):
        store, tag, model = _save(tmp_path, FLAT_PARALLEL)

        def widen(payload):
            meta = payload["sharding"]["embedding.weight"]
            assert meta["logical_shape"] != meta["unpadded_shape"]
            meta["unpadded_shape"] = list(meta["logical_shape"])

        _tamper(store, tag, naming.optim_states_name(0, 0), widen)
        report = analyze_source(store, tag, model, FLAT_PARALLEL).report
        assert not report.ok
        leaks = [d for d in report.errors if d.rule_id == "UCP019"]
        assert leaks, report.render_text()
        assert "structural-padding" in leaks[0].message

    def test_wrong_dtype_fires_ucp020(self, tmp_path):
        store, tag, model = _save(tmp_path, FLAT_PARALLEL)

        def degrade(payload):
            payload["fp32_flat_partition"] = (
                payload["fp32_flat_partition"].astype(np.float64)
            )

        _tamper(store, tag, naming.optim_states_name(0, 0), degrade)
        report = analyze_source(store, tag, model, FLAT_PARALLEL).report
        assert not report.ok
        assert "UCP020" in report.rule_ids()

    def test_missing_rank_file_fires_ucp022(self, tmp_path):
        store, tag, model = _save(tmp_path, FLAT_PARALLEL)
        (tmp_path / tag / naming.optim_states_name(0, 0)).unlink()
        report = analyze_source(store, tag, model, FLAT_PARALLEL).report
        assert not report.ok
        assert "UCP022" in report.rule_ids()


class TestDeterministicOrdering:
    """Diagnostic order is a function of content, not insertion order."""

    def _diagnostics(self):
        return [
            error("UCP018", "b overlaps", location="z/param"),
            error("UCP017", "gap two", location="b/param"),
            warning("UCP019", "padding", location="a/file"),
            error("UCP017", "gap one", location="a/param"),
            error("UCP021", "out of bounds", location="a/file"),
        ]

    def test_shuffled_insertion_yields_identical_json(self):
        reference = None
        for seed in range(8):
            diags = self._diagnostics()
            random.Random(seed).shuffle(diags)
            report = LintReport(subject="determinism")
            report.extend(diags)
            text = report.to_json()
            if reference is None:
                reference = text
            assert text == reference

    def test_sorted_diagnostics_key_is_rule_then_location(self):
        report = LintReport(subject="determinism")
        report.extend(reversed(self._diagnostics()))
        ordered = report.sorted_diagnostics()
        keys = [(d.rule_id, d.location) for d in ordered]
        assert keys == sorted(keys)

    def test_provenance_json_is_byte_identical_across_runs(self, tmp_path):
        store, tag, model = _save(tmp_path, FLAT_PARALLEL)
        (tmp_path / tag / naming.optim_states_name(0, 0)).unlink()
        outputs = set()
        for _ in range(3):
            report = analyze_source(
                ObjectStore(str(tmp_path)), tag, model, FLAT_PARALLEL
            ).report
            outputs.add(report.to_json())
        assert len(outputs) == 1
        json.loads(outputs.pop())  # and it is valid JSON


class TestConvertPreflight:
    def test_convert_refuses_corrupt_plan_with_provenance_rule(self, tmp_path):
        from repro.analysis import LayoutLintError

        store, tag, _ = _save(tmp_path / "src", FLAT_PARALLEL)

        def widen(payload):
            meta = payload["sharding"]["embedding.weight"]
            meta["unpadded_shape"] = list(meta["logical_shape"])

        _tamper(store, tag, naming.optim_states_name(0, 0), widen)
        with pytest.raises(LayoutLintError) as exc:
            ucp_convert(str(tmp_path / "src"), str(tmp_path / "ucp"))
        assert "UCP019" in str(exc.value)


def _tiling(cuts):
    """Sorted disjoint non-empty intervals from a strictly rising cut list
    (every other gap is a hole, so queries can fall between tiles)."""
    pairs = list(zip(cuts[:-1], cuts[1:]))
    keep = pairs[::2] + pairs[1::4]
    lo, hi = zip(*sorted(keep)) if keep else ((), ())
    return np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)


class TestSharedShardMap:
    """The planners compose one columnar table; the loops stay here."""

    @given(
        cuts=st.lists(st.integers(0, 200), min_size=2, max_size=24, unique=True),
        queries=st.lists(
            st.tuples(st.integers(0, 200), st.integers(0, 40)), max_size=12
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_intersect_tilings_equals_the_double_loop(self, cuts, queries):
        t_lo, t_hi = _tiling(sorted(cuts))
        q_lo = np.array([q for q, _ in queries], dtype=np.int64)
        q_hi = q_lo + np.array([n for _, n in queries], dtype=np.int64)
        expected = [
            (i, j, max(a, c), min(b, d))
            for i, (a, b) in enumerate(zip(q_lo.tolist(), q_hi.tolist()))
            for j, (c, d) in enumerate(zip(t_lo.tolist(), t_hi.tolist()))
            if max(a, c) < min(b, d)
        ]
        got = intervals.intersect_tilings(q_lo, q_hi, t_lo, t_hi)
        assert list(zip(*(col.tolist() for col in got))) == expected

    def test_extents_name_the_real_source_bytes(self, tmp_path):
        """Every columnar extent of a tp4 x dp2 source, checked against
        the bytes: the consolidated elements it claims equal the file
        elements it names."""
        parallel = ParallelConfig(tp=4, pp=1, dp=2, sp=1, zero_stage=1)
        engine = make_engine(parallel=parallel)
        engine.train(1)
        tag = save_distributed_checkpoint(engine, str(tmp_path)).tag
        store = ObjectStore(str(tmp_path))
        analysis = analyze_source(store, tag, get_config("gpt3-mini"), parallel)
        assert analysis.report.ok, analysis.report.render_text()
        consolidated = engine.zero.consolidated_tensors("fp32")
        payloads = {}
        for name, prov in analysis.params.items():
            full = consolidated[name].reshape(-1)
            table = prov.extents
            assert len(table) > 0
            assert list(table) == [table.extent(i) for i in range(len(table))]
            for e in table:
                flat = payloads.setdefault(
                    e.file, store.load(e.file)
                )[e.field]
                n = e.full_end - e.full_start
                assert np.array_equal(
                    full[e.full_start:e.full_end],
                    np.asarray(flat)[e.file_start:e.file_start + n],
                ), (name, e)
            covered = prov.covered()
            assert covered == intervals.merge_intervals(
                [(e.full_start, e.full_end) for e in table]
            )
            assert prov.lookup(0, 1) == [table.extent(0)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_memo_that_keeps_nothing_changes_no_byte(
        self, tmp_path, monkeypatch, workers
    ):
        """A conversion and whole-engine load planned from tables that
        are rebuilt on every lookup equal the warm-memo run: same UCP
        digest map (and the reference oracle's atoms), same bytes read,
        same engine state."""
        source = ParallelConfig(tp=4, pp=1, dp=2, sp=1, zero_stage=1)
        target = ParallelConfig(tp=2, pp=1, dp=2, sp=1, zero_stage=1)
        engine = make_engine(parallel=source)
        engine.train(1)
        ckpt = str(tmp_path / "ckpt")
        engine.save_checkpoint(ckpt)

        def run(label):
            ucp = str(tmp_path / label)
            report = ucp_convert(ckpt, ucp, workers=workers)
            ucp_store = ObjectStore(ucp)
            digests = {rel: ucp_store.digest(rel) for rel in ucp_store.list(".")}
            loaded = make_engine(parallel=target, seed=0)
            load_ucp_into_engine(loaded, ucp, store=ucp_store)
            state = [
                partition.fp32.tobytes()
                + partition.state.exp_avg.tobytes()
                + partition.state.exp_avg_sq.tobytes()
                for coord in loaded.layout.mp_coords()
                for partition in loaded.zero.partitions[coord]
            ]
            return ucp, digests, report.bytes_read, ucp_store.bytes_read, state

        intervals.clear_memo()
        run("fill")  # leaves every class of this pair memoised
        warm = run("warm")
        intervals.clear_memo()
        monkeypatch.setattr(intervals, "MEMO_MAX_BYTES", 0)
        cold = run("cold")
        assert cold[1:] == warm[1:]
        assert_matches_reference(cold[0], ckpt)
