"""Collective-trace analyzers: ordering races, argument lint, and the
vector-clock happens-before replay (deadlocks, critical sections)."""

from __future__ import annotations

import numpy as np
import pytest

from tests.helpers import make_engine
from repro.analysis.collective_trace import (
    CollectiveTraceRecorder,
    TraceEvent,
    check_collective_args,
    check_collective_ordering,
    check_happens_before,
    check_trace,
    numel_class,
    simulate_happens_before,
)
from repro.ckpt.saver import save_distributed_checkpoint
from repro.core.convert import ucp_convert
from repro.dist.topology import ParallelConfig


class TestNumelClass:
    def test_power_of_two_buckets(self):
        assert numel_class(0) == 0
        assert numel_class(1) == 1
        assert numel_class(1023) == 10
        assert numel_class(1024) == 11

    def test_same_bucket_tolerates_wobble(self):
        # uneven final microbatch: 1000 vs 900 elements still match
        assert numel_class(1000) == numel_class(900)
        # halved message size lands in a different bucket
        assert numel_class(1024) != numel_class(512)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            numel_class(-1)


class TestRecorder:
    def test_group_wide_record_hits_every_member(self):
        rec = CollectiveTraceRecorder()
        rec.record("all_reduce", "dp:0", (0, 2), 64)
        assert rec.events_of(0) == rec.events_of(2)
        assert rec.num_events == 2
        assert rec.group_members["dp:0"] == (0, 2)

    def test_events_of_filters_by_group(self):
        rec = CollectiveTraceRecorder()
        rec.record("all_reduce", "dp:0", (0, 1), 64)
        rec.record("broadcast", "tp:0", (0, 1), 32)
        assert [e.op for e in rec.events_of(0, "tp:0")] == ["broadcast"]

    def test_reset(self):
        rec = CollectiveTraceRecorder()
        rec.record("all_reduce", "dp:0", (0, 1), 64)
        rec.reset()
        assert rec.num_events == 0
        assert rec.group_members == {}

    def test_event_render(self):
        event = TraceEvent("all_reduce", "dp:0", "float32", 14)
        assert "all_reduce" in event.render()
        assert "~2^14" in event.render()


class TestCheckOrdering:
    def test_empty_trace_is_clean(self):
        assert check_collective_ordering(CollectiveTraceRecorder()).ok

    def test_identical_sequences_are_clean(self):
        rec = CollectiveTraceRecorder()
        for _ in range(3):
            rec.record("all_reduce", "dp:0", (0, 1, 2), 4096)
        assert check_collective_ordering(rec).ok

    def test_injected_divergent_op_is_ucp014(self):
        rec = CollectiveTraceRecorder()
        rec.record("all_reduce", "dp:0", (0, 1), 4096)
        # rank 1 alone takes a data-dependent branch and gathers instead
        rec.record("all_gather", "dp:0", (0, 1), 4096, rank=1)
        rec.record("all_reduce", "dp:0", (0, 1), 4096, rank=0)
        report = check_collective_ordering(rec)
        assert not report.ok
        assert [d.rule_id for d in report.errors] == ["UCP014"]
        message = report.errors[0].message
        assert "#1" in message  # first divergent index
        assert "all_gather" in message and "all_reduce" in message
        assert report.errors[0].location == "group dp:0"

    def test_length_mismatch_is_ucp014(self):
        rec = CollectiveTraceRecorder()
        rec.record("all_reduce", "dp:0", (0, 1), 4096)
        rec.record("all_reduce", "dp:0", (0, 1), 4096, rank=0)
        report = check_collective_ordering(rec)
        assert not report.ok
        assert "2 calls" in report.errors[0].message
        assert "1" in report.errors[0].message

    def test_size_disagreement_is_ucp014(self):
        rec = CollectiveTraceRecorder()
        rec.record("all_reduce", "dp:0", (0, 1), 4096, rank=0)
        rec.record("all_reduce", "dp:0", (0, 1), 1024, rank=1)
        report = check_collective_ordering(rec)
        assert "UCP014" in [d.rule_id for d in report.errors]


class TestEngineTrace:
    def test_training_and_save_trace_is_race_free(self, tmp_path):
        eng = make_engine(
            parallel=ParallelConfig(tp=2, pp=1, dp=2, sp=1, zero_stage=1)
        )
        eng.train(2)
        save_distributed_checkpoint(eng, str(tmp_path / "ckpt"))
        trace = eng.cluster.trace
        assert trace.num_events > 0
        assert check_collective_ordering(trace).ok

    def test_save_path_emits_commit_barriers(self, tmp_path):
        eng = make_engine(parallel=ParallelConfig(dp=2))
        eng.train(1)
        info = save_distributed_checkpoint(eng, str(tmp_path / "ckpt"))
        ops = [e.op for e in eng.cluster.trace.events_of(0, "world")]
        assert f"barrier:save:{info.tag}:enter" in ops
        assert f"barrier:save:{info.tag}:commit" in ops
        # the commit barrier comes last: no rank may see the latest
        # pointer move before every peer finished writing
        assert ops.index(f"barrier:save:{info.tag}:enter") < ops.index(
            f"barrier:save:{info.tag}:commit"
        )

    def test_dp_gradient_reduction_is_traced(self):
        eng = make_engine(
            parallel=ParallelConfig(tp=1, pp=1, dp=2, sp=1, zero_stage=1)
        )
        eng.train(1)
        trace = eng.cluster.trace
        dp_groups = [g for g in trace.group_members if g.startswith("dp")]
        assert dp_groups
        ops = [
            e.op
            for g in dp_groups
            for e in trace.events_of(trace.group_members[g][0], g)
        ]
        assert "all_reduce" in ops  # gradient reduction
        assert "all_gather" in ops  # zero1 parameter re-gather

    def test_injected_rank_divergence_is_caught(self):
        eng = make_engine(
            parallel=ParallelConfig(tp=1, pp=1, dp=2, sp=1, zero_stage=1)
        )
        eng.train(1)
        trace = eng.cluster.trace
        group = next(g for g in trace.group_members if g.startswith("dp"))
        members = trace.group_members[group]
        trace.record("all_reduce", group, members, 4096, rank=members[0])
        report = check_collective_ordering(trace)
        assert not report.ok
        assert any(d.rule_id == "UCP014" for d in report.errors)


class TestPayloadRoundTrip:
    def test_to_payload_from_payload_preserves_events(self):
        rec = CollectiveTraceRecorder()
        rec.record(
            "all_reduce", "dp:0", (0, 1), 64, shape=(8, 8), reduce_op="sum"
        )
        rec.record("broadcast", "tp:0", (0, 1), 32)
        back = CollectiveTraceRecorder.from_payload(rec.to_payload())
        assert back.num_events == rec.num_events
        assert back.group_members == rec.group_members
        assert back.events_of(0) == rec.events_of(0)
        assert back.events_of(0)[0].shape == (8, 8)
        assert back.events_of(0)[0].reduce_op == "sum"

    def test_old_four_field_records_still_decode(self):
        # traces dumped before shape/reduce_op existed remain readable
        event = TraceEvent.from_record(["all_reduce", "dp:0", "float32", 14])
        assert event.signature == ("all_reduce", "dp:0", "float32", 14)
        assert event.shape == ()
        assert event.reduce_op == ""

    def test_record_call_derives_per_member_metadata(self):
        rec = CollectiveTraceRecorder()
        rec.record_call(
            "all_reduce", "dp:0", (0, 1),
            [np.zeros((4, 8), dtype=np.float32),
             np.zeros((4, 8), dtype=np.float32)],
            reduce_op="sum",
        )
        for rank in (0, 1):
            (event,) = rec.events_of(rank)
            assert event.shape == (4, 8)
            assert event.reduce_op == "sum"
            assert event.dtype == "float32"


class TestArgumentLint:
    def test_matching_args_are_clean(self):
        rec = CollectiveTraceRecorder()
        rec.record("all_reduce", "dp:0", (0, 1), 64, shape=(8, 8),
                   reduce_op="sum")
        assert check_collective_args(rec).ok

    def test_shape_mismatch_is_ucp024(self):
        rec = CollectiveTraceRecorder()
        rec.record("all_reduce", "dp:0", (0, 1), 64, shape=(8, 8), rank=0)
        rec.record("all_reduce", "dp:0", (0, 1), 64, shape=(64,), rank=1)
        report = check_collective_args(rec)
        assert not report.ok
        assert [d.rule_id for d in report.errors] == ["UCP024"]
        assert "(8, 8)" in report.errors[0].message

    def test_reduce_op_mismatch_is_ucp024(self):
        rec = CollectiveTraceRecorder()
        rec.record("all_reduce", "dp:0", (0, 1), 64, reduce_op="sum", rank=0)
        rec.record("all_reduce", "dp:0", (0, 1), 64, reduce_op="max", rank=1)
        report = check_collective_args(rec)
        assert "UCP024" in report.rule_ids()
        assert "sum" in report.errors[0].message
        assert "max" in report.errors[0].message

    def test_dtype_mismatch_is_ucp024(self):
        rec = CollectiveTraceRecorder()
        rec.record("all_reduce", "dp:0", (0, 1), 64, dtype="float32", rank=0)
        rec.record("all_reduce", "dp:0", (0, 1), 64, dtype="float16", rank=1)
        assert "UCP024" in check_collective_args(rec).rule_ids()

    def test_all_gather_shape_wobble_tolerated(self):
        # gather inputs legitimately differ in leading dim (uneven last
        # microbatch); only strictly shape-coupled ops are linted
        rec = CollectiveTraceRecorder()
        rec.record("all_gather", "dp:0", (0, 1), 64, shape=(8, 8), rank=0)
        rec.record("all_gather", "dp:0", (0, 1), 64, shape=(7, 8), rank=1)
        assert check_collective_args(rec).ok


class TestHappensBefore:
    def test_clean_replay_fires_everything(self):
        rec = CollectiveTraceRecorder()
        rec.record("all_reduce", "dp:0", (0, 1), 64)
        rec.record("all_reduce", "tp:0", (0, 1), 32)
        result = simulate_happens_before(rec)
        assert result.completed
        assert len(result.fired) == 2
        # vector clocks are monotone along each rank's program order
        first, second = result.fired
        assert all(a <= b for a, b in zip(first.clock, second.clock))

    def test_cyclic_waits_fire_ucp023_with_cycle(self):
        rec = CollectiveTraceRecorder()
        # ranks enter the two groups in opposite orders: classic deadlock
        rec.record("all_reduce", "g1", (0, 1), 64, rank=0)
        rec.record("all_reduce", "g2", (0, 1), 64, rank=0)
        rec.record("all_reduce", "g2", (0, 1), 64, rank=1)
        rec.record("all_reduce", "g1", (0, 1), 64, rank=1)
        report = check_happens_before(rec)
        assert not report.ok
        assert "UCP023" in report.rule_ids()
        message = report.errors[0].message
        assert "deadlock cycle" in message
        assert "rank 0 waits for rank 1" in message

    def test_dropped_commit_barrier_fires_ucp023(self):
        rec = CollectiveTraceRecorder()
        rec.record("barrier:save:global_step2:enter", "world", (0, 1), 0,
                   dtype="none")
        report = check_happens_before(rec)
        assert not report.ok
        unclosed = [d for d in report.errors if "never committed" in d.message]
        assert unclosed and unclosed[0].rule_id == "UCP023"

    def test_single_rank_dropping_barrier_deadlocks(self):
        rec = CollectiveTraceRecorder()
        rec.record("barrier:save:global_step2:enter", "world", (0, 1), 0,
                   dtype="none")
        rec.record("barrier:save:global_step2:commit", "world", (0, 1), 0,
                   dtype="none", rank=0)
        report = check_happens_before(rec)
        assert not report.ok
        assert "UCP023" in report.rule_ids()
        assert any("dropped collective" in d.message for d in report.errors)

    def test_save_convert_section_overlap_fires_ucp023(self):
        rec = CollectiveTraceRecorder()
        # disjoint subgroups, so no barrier orders save against convert:
        # the sections are concurrent under happens-before
        rec.record("barrier:save:global_step2:enter", "dp:0,1", (0, 1), 0,
                   dtype="none")
        rec.record("barrier:convert:global_step2:enter", "dp:2,3", (2, 3), 0,
                   dtype="none")
        rec.record("barrier:save:global_step2:commit", "dp:0,1", (0, 1), 0,
                   dtype="none")
        rec.record("barrier:convert:global_step2:commit", "dp:2,3", (2, 3), 0,
                   dtype="none")
        report = check_happens_before(rec)
        assert not report.ok
        overlaps = [d for d in report.errors if "overlap" in d.message]
        assert overlaps and overlaps[0].rule_id == "UCP023"
        assert "save:global_step2" in overlaps[0].message
        assert "convert:global_step2" in overlaps[0].message

    def test_serialized_save_then_convert_is_clean(self, tmp_path):
        # the real pipeline: barriers on the shared world group order the
        # convert section strictly after the save section
        eng = make_engine(
            parallel=ParallelConfig(tp=2, pp=1, dp=2, sp=1, zero_stage=1)
        )
        eng.train(1)
        info = save_distributed_checkpoint(eng, str(tmp_path / "ckpt"))
        # the caller brackets a conversion it runs on the cluster's
        # behalf, as the saver brackets its own section
        eng.cluster.barrier(f"convert:{info.tag}:enter")
        ucp_convert(str(tmp_path / "ckpt"), str(tmp_path / "ucp"))
        eng.cluster.barrier(f"convert:{info.tag}:commit")
        report = check_trace(eng.cluster.trace)
        assert report.ok, report.render_text()
        ops = [e.op for e in eng.cluster.trace.events_of(0, "world")]
        assert any(o.startswith("barrier:convert:") for o in ops)

    def test_check_trace_composes_all_three_analyzers(self):
        rec = CollectiveTraceRecorder()
        rec.record("all_reduce", "dp:0", (0, 1), 64, reduce_op="sum", rank=0)
        rec.record("all_reduce", "dp:0", (0, 1), 64, reduce_op="max", rank=1)
        rec.record("barrier:save:t:enter", "world", (0, 1), 0, dtype="none")
        report = check_trace(rec)
        assert not report.ok
        assert {"UCP023", "UCP024"} <= set(report.rule_ids())


class TestTraceDump:
    def test_dump_trace_sidecar_verifies_clean(self, tmp_path):
        from repro.ckpt import naming
        from repro.storage.store import ObjectStore

        eng = make_engine(parallel=ParallelConfig(dp=2, zero_stage=1))
        eng.train(1)
        info = save_distributed_checkpoint(
            eng, str(tmp_path), dump_trace=True
        )
        store = ObjectStore(str(tmp_path))
        rel = f"{info.tag}/{naming.TRACE_FILE}"
        assert store.exists(rel)
        rec = CollectiveTraceRecorder.from_payload(store.load(rel))
        report = check_trace(rec)
        assert report.ok, report.render_text()

    def test_trace_sidecar_is_not_manifested(self, tmp_path):
        from repro.ckpt import manifest as manifest_mod
        from repro.ckpt import naming
        from repro.storage.store import ObjectStore

        eng = make_engine(parallel=ParallelConfig(dp=2, zero_stage=1))
        eng.train(1)
        info = save_distributed_checkpoint(
            eng, str(tmp_path), dump_trace=True
        )
        manifest = manifest_mod.read_manifest(ObjectStore(str(tmp_path)),
                                              info.tag)
        assert naming.TRACE_FILE not in manifest["files"]
