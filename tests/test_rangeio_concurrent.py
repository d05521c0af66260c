"""Threaded stress: a fan-out wider than the box over one shared
source-file table, under a strict lock witness.

Every fan-out worker of a conversion claims, loads, slices and releases
through the one ``BlockCache`` table and ``RangeReader`` of its plan.
Under ``lockcheck(strict=True)`` any lock-order cycle, unguarded table
mutation, or over-budget IO under a non-IO lock (UCP029-UCP031) raises
— and the conversion output must still be byte-identical to a
single-threaded reference run.
"""

import dataclasses
import sys

import pytest

from repro.analysis.lockwitness import check_lock_trace, lockcheck
from repro.ckpt.saver import save_distributed_checkpoint
from repro.core.convert import ucp_convert
from repro.dist.topology import ParallelConfig
from repro.models import get_config
from repro.parallel.engine import TrainingEngine
from repro.storage.store import ObjectStore

from tests.helpers import record_source_tables

PARALLEL = ParallelConfig(tp=2, dp=2, zero_stage=1)


def dir_digests(root):
    store = ObjectStore(str(root))
    return {rel: store.digest(rel) for rel in store.list(".")}


@pytest.fixture(scope="module")
def stress_setup(tmp_path_factory):
    """A committed source checkpoint and its reference conversion."""
    root = tmp_path_factory.mktemp("rangeio_stress")
    ckpt = root / "ckpt"
    cfg = dataclasses.replace(get_config("gpt3-mini"), num_layers=1)
    engine = TrainingEngine(
        cfg, PARALLEL, seed=11, global_batch_size=4, seq_len=16
    )
    engine.train(2)
    save_distributed_checkpoint(engine, str(ckpt))

    ref = root / "ref_ucp"
    ucp_convert(str(ckpt), str(ref), workers=1)
    return ckpt, dir_digests(ref)


class TestConcurrentConvertAndVerify:
    def test_shared_cache_stress_is_witness_clean_and_byte_identical(
        self, stress_setup, tmp_path, monkeypatch
    ):
        """Eight workers (and eight commit threads) on a 10 µs switch
        interval share one table: every file is still loaded once, the
        output is the serial reference's, nothing stays resident."""
        ckpt, ref_digests = stress_setup
        tables = record_source_tables(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with lockcheck(strict=True, subject="rangeio stress") as w:
                # a worker-thread LockWitnessError fails the conversion
                report = ucp_convert(
                    str(ckpt), str(tmp_path / "ucp"), workers=8
                )
        finally:
            sys.setswitchinterval(interval)
        assert dir_digests(tmp_path / "ucp") == ref_digests
        ((table, consumers),) = tables
        assert table.misses == len(consumers) == report.num_preads
        assert table.hits > 0
        assert table.resident_bytes == 0
        # the recorded schedule replays clean offline too
        payload = w.to_payload()
        assert not payload["truncated"]
        assert check_lock_trace(payload).ok

    def test_witnessed_run_matches_unwitnessed_run(
        self, stress_setup, tmp_path
    ):
        """The witness observes, never alters: converting under the
        strict witness produces the same bytes as without it."""
        ckpt, ref_digests = stress_setup
        out = tmp_path / "ucp_w"
        with lockcheck(strict=True):
            ucp_convert(str(ckpt), str(out), workers=2)
        assert dir_digests(out) == ref_digests


class TestScheduleSpaceExploration:
    """The stress tests above sample a handful of OS schedules; the
    explorer walks the *space*.  Two workers with overlapping file
    sets over the real table must hold their invariants on every
    explored interleaving."""

    def test_convert_verify_scenario_is_schedule_clean(self):
        from repro.analysis import interleave

        # a bounded sweep: CI proves the full space with ``repro explore
        # source-files --require-exhaustive``; here the first 64
        # schedules must stay clean — a UCP039 warning is the only
        # acceptable diagnostic
        result = interleave.explore("source-files", schedules=64)
        assert result.report.errors == []
        assert result.counterexamples == []
        assert {d.rule_id for d in result.report.warnings} <= {"UCP039"}
        assert result.schedules_run > 10  # branches were really explored
