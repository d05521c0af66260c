"""FS-op witness + crash-state enumeration (UCP032-UCP035).

Three layers, mirroring the lockwitness test split:

- recorder mechanics: activation stack, root labeling, payload
  round-trip;
- the persistence model on hand-built traces: durable commits survive
  every enumerated state, missing fsyncs produce the exact
  publish-observed-before-durable / lost-tag states ALICE predicts;
- the real store end to end: a durable save trace enumerates
  exhaustively with zero findings, a non-durable one fails, and a
  bounded save→convert run reports its cap (UCP035) instead of
  silently passing.
"""

import json

import pytest

from repro.analysis.fswitness import (
    DEFAULT_STATE_CAP,
    FSOp,
    FSOpRecorder,
    apply_ops,
    check_fs_trace,
    enumerate_crash_states,
    fstrace,
    ops_from_payload,
)
from repro.ckpt.manifest import write_manifest
from repro.storage.store import ObjectStore


def rule_ids(report):
    return sorted(d.rule_id for d in report.diagnostics)


def save_tag(store: ObjectStore, tag: str, step_data: bytes) -> None:
    """A minimal committed tag: one data file, manifest, then latest."""
    rel = f"{tag}/model_tp0.npt"
    nbytes = store.put_bytes(rel, step_data)
    import hashlib

    write_manifest(store, tag, {
        "model_tp0.npt": {
            "nbytes": nbytes,
            "sha256": hashlib.sha256(step_data).hexdigest(),
        },
    })
    store.write_text("latest", tag)


class TestRecorder:
    def test_inactive_by_default(self, tmp_path):
        store = ObjectStore(str(tmp_path), durable=True)
        store.put_bytes("a/x.npt", b"payload")
        with fstrace() as rec:
            pass
        assert len(rec) == 0

    def test_durable_put_records_full_commit_sequence(self, tmp_path):
        with fstrace() as rec:
            store = ObjectStore(str(tmp_path), durable=True)
            store.put_bytes("a/x.npt", b"payload")
        kinds = [op.kind for op in rec.ops()]
        assert kinds == ["write", "fsync", "rename", "fsync_dir"]
        write, fsync, rename, fsync_dir = rec.ops()
        assert write.path.endswith(".tmp") and write.path.startswith("s0/")
        assert fsync.path == write.path
        assert (rename.path, rename.dst) == (write.path, "s0/a/x.npt")
        assert fsync_dir.path == "s0/a"

    def test_non_durable_put_skips_fsyncs(self, tmp_path):
        with fstrace() as rec:
            store = ObjectStore(str(tmp_path), durable=False)
            store.put_bytes("a/x.npt", b"payload")
        assert [op.kind for op in rec.ops()] == ["write", "rename"]

    def test_root_fsync_dir_label_has_no_trailing_dot(self, tmp_path):
        """A root-level publish must fsync ``s0``, not ``s0/.`` — the
        enumerator matches dir-fsync paths against ``dirname()`` of the
        published entry."""
        with fstrace() as rec:
            ObjectStore(str(tmp_path), durable=True).write_text("latest", "t")
        assert rec.ops()[-1].path == "s0"

    def test_two_stores_get_distinct_labels(self, tmp_path):
        with fstrace() as rec:
            ObjectStore(str(tmp_path / "ckpt"), durable=True).put_bytes(
                "f.npt", b"a")
            ObjectStore(str(tmp_path / "ucp"), durable=True).put_bytes(
                "f.npt", b"b")
        assert rec.roots() == ["s0", "s1"]
        renames = [op for op in rec.ops() if op.kind == "rename"]
        assert {op.dst for op in renames} == {"s0/f.npt", "s1/f.npt"}

    def test_payload_round_trip_is_lossless(self, tmp_path):
        with fstrace() as rec:
            store = ObjectStore(str(tmp_path), durable=True)
            store.put_bytes("a/x.npt", b"payload")
            store.delete("a/x.npt")
        payload = json.loads(json.dumps(rec.to_payload()))
        assert payload["version"] == 1
        assert payload["roots"] == ["s0"]
        assert ops_from_payload(payload) == rec.ops()

    def test_every_op_carries_its_thread(self, tmp_path):
        """FS effects are stamped with the emitting thread, so the
        interleaving explorer and crash enumeration compose: a crash
        state can be attributed to the schedule that produced it."""
        import threading

        with fstrace() as rec:
            store = ObjectStore(str(tmp_path), durable=True)
            store.put_bytes("a/x.npt", b"payload")
            worker = threading.Thread(
                target=lambda: store.put_bytes("a/y.npt", b"peer"),
                name="peer-writer",
            )
            worker.start()
            worker.join()
        threads = {op.thread for op in rec.ops()}
        assert threading.current_thread().name in threads
        assert "peer-writer" in threads
        # and the identity survives the JSON round trip
        payload = json.loads(json.dumps(rec.to_payload()))
        assert [op.thread for op in ops_from_payload(payload)] == [
            op.thread for op in rec.ops()
        ]

    def test_capture_data_off_keeps_digest_only(self, tmp_path):
        with fstrace(capture_data=False) as rec:
            ObjectStore(str(tmp_path), durable=True).put_bytes("x", b"abc")
        write = rec.ops()[0]
        assert write.data is None and write.nbytes == 3
        assert write.sha256
        raw = json.dumps(rec.to_payload())
        assert "data_b64" not in raw

    def test_unsupported_payload_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            ops_from_payload({"version": 99, "fs_ops": []})


class TestPersistenceModel:
    def test_rename_with_dropped_write_publishes_empty_file(self):
        ops = [
            FSOp(kind="write", path="x.tmp", nbytes=4, data=b"data"),
            FSOp(kind="rename", path="x.tmp", dst="x"),
        ]
        fs = apply_ops(ops, include={1})
        assert fs == {"x": b""}

    def test_torn_write_is_half_prefix(self):
        ops = [FSOp(kind="write", path="x", nbytes=8, data=b"datadata")]
        assert apply_ops(ops, include={0}, torn=0) == {"x": b"data"}

    def test_durable_commit_enumerates_exhaustively_and_small(self, tmp_path):
        with fstrace() as rec:
            save_tag(ObjectStore(str(tmp_path), durable=True),
                     "global_step10", b"\x01" * 64)
        enum = enumerate_crash_states(rec.ops())
        assert not enum.capped
        assert enum.crash_points_covered == enum.crash_points_total
        # every fully-applied state carries the committed tag
        final = enum.states[-1]
        assert final.guaranteed_tags == ("s0/global_step10",)
        # early crash points guarantee nothing
        assert enum.states[0].guaranteed_tags == ()

    def test_guaranteed_tags_progress_across_saves(self, tmp_path):
        with fstrace() as rec:
            store = ObjectStore(str(tmp_path), durable=True)
            save_tag(store, "global_step10", b"\x01" * 64)
            save_tag(store, "global_step20", b"\x02" * 64)
        enum = enumerate_crash_states(rec.ops())
        assert enum.states[-1].guaranteed_tags == (
            "s0/global_step10", "s0/global_step20",
        )

    def test_volatile_write_spawns_torn_variant_and_dedups_drop(self):
        ops = [FSOp(kind="write", path="x", nbytes=4, data=b"data")]
        labels = {s.label for s in enumerate_crash_states(ops).states}
        # drop#0 and durable-only both equal the empty disk already seen
        # at crash@0, so dedup leaves exactly three distinct images:
        # nothing, the full write, the torn write
        assert labels == {"crash@0/all", "crash@1/all", "crash@1/torn#0"}


class TestUCP032PublishBeforeDurable:
    def test_non_durable_trace_fires_both_flavors(self, tmp_path):
        with fstrace() as rec:
            ObjectStore(str(tmp_path), durable=False).put_bytes(
                "a/x.npt", b"payload")
        report = check_fs_trace(rec, enumerate_states=False)
        messages = [d.message for d in report.by_rule("UCP032")]
        assert len(messages) == 2
        assert any("before its bytes were fsynced" in m for m in messages)
        assert any("never made durable" in m for m in messages)

    def test_durable_trace_is_quiet(self, tmp_path):
        with fstrace() as rec:
            ObjectStore(str(tmp_path), durable=True).put_bytes(
                "a/x.npt", b"payload")
        report = check_fs_trace(rec, enumerate_states=False)
        assert report.by_rule("UCP032") == []


class TestUCP033CrashStateRecoveryFailure:
    def test_durable_save_survives_every_state(self, tmp_path):
        with fstrace() as rec:
            store = ObjectStore(str(tmp_path), durable=True)
            save_tag(store, "global_step10", b"\x01" * 64)
            save_tag(store, "global_step20", b"\x02" * 64)
        report = check_fs_trace(rec)
        assert report.ok, report.render_text()
        assert report.diagnostics == []

    def test_non_durable_save_loses_states(self, tmp_path):
        with fstrace() as rec:
            save_tag(ObjectStore(str(tmp_path), durable=False),
                     "global_step10", b"\x01" * 64)
        report = check_fs_trace(rec)
        failures = report.by_rule("UCP033")
        assert failures, report.render_text()
        assert any("crash state" in d.message for d in failures)
        # deterministic labels, no scratch paths
        assert all("/tmp" not in d.message for d in failures)

    def test_deleting_committed_manifest_is_caught(self, tmp_path):
        """An unlink under a committed tag revokes its guarantee — but a
        surviving ``latest`` pointing at the gutted tag must still fail
        recovery in the states where the unlink applied."""
        with fstrace() as rec:
            store = ObjectStore(str(tmp_path), durable=True)
            save_tag(store, "global_step10", b"\x01" * 64)
            store.delete("global_step10/model_tp0.npt")
        report = check_fs_trace(rec)
        assert report.by_rule("UCP033"), report.render_text()


class TestUCP034TmpLeak:
    def test_leftover_tmp_fires_on_clean_exit(self):
        ops = [FSOp(kind="write", path="s0/x.npt.tmp", nbytes=1, data=b"a")]
        report = check_fs_trace(ops, enumerate_states=False)
        (diag,) = report.by_rule("UCP034")
        assert "x.npt.tmp" in diag.message

    def test_crashed_run_excuses_leftover_tmp(self):
        ops = [FSOp(kind="write", path="s0/x.npt.tmp", nbytes=1, data=b"a")]
        report = check_fs_trace(
            ops, enumerate_states=False, clean_exit=False)
        assert report.by_rule("UCP034") == []

    def test_published_and_cleaned_trace_is_quiet(self, tmp_path):
        with fstrace() as rec:
            ObjectStore(str(tmp_path), durable=True).put_bytes("x", b"a")
        report = check_fs_trace(rec, enumerate_states=False)
        assert report.by_rule("UCP034") == []


class TestUCP035BoundedEnumeration:
    def test_state_cap_reported_not_silent(self, tmp_path):
        with fstrace() as rec:
            store = ObjectStore(str(tmp_path), durable=True)
            save_tag(store, "global_step10", b"\x01" * 64)
            save_tag(store, "global_step20", b"\x02" * 64)
        report = check_fs_trace(rec, state_cap=5)
        (diag,) = report.by_rule("UCP035")
        assert diag.severity == "warning"
        assert "5-state cap" in diag.message
        assert report.ok  # warnings alone never fail the gate

    def test_missing_payload_skips_enumeration_with_warning(self, tmp_path):
        with fstrace(capture_data=False) as rec:
            save_tag(ObjectStore(str(tmp_path), durable=True),
                     "global_step10", b"\x01" * 64)
        report = check_fs_trace(rec)
        (diag,) = report.by_rule("UCP035")
        assert "capture_data=False" in diag.message


class TestEndToEnd:
    def test_engine_save_trace_is_exhaustively_survivable(self, tmp_path):
        from repro.dist.topology import ParallelConfig
        from tests.helpers import make_engine

        engine = make_engine(parallel=ParallelConfig(tp=1, dp=1), seed=3)
        engine.train(1)
        import os

        os.environ["REPRO_DURABLE"] = "1"
        try:
            with fstrace() as rec:
                engine.save_checkpoint(str(tmp_path / "ckpt"))
        finally:
            os.environ["REPRO_DURABLE"] = "0"
        enum = enumerate_crash_states(rec.ops())
        assert not enum.capped
        report = check_fs_trace(rec)
        assert report.ok, report.render_text()
        assert report.diagnostics == []

    def test_save_convert_trace_bounded_run_reports_cap(self, tmp_path):
        """The full pipeline trace is too big for an in-suite exhaustive
        sweep (the CI crashfs job runs that); a bounded replay must pass
        with the cap *reported*, never silently."""
        from repro.core.convert import ucp_convert
        from repro.dist.topology import ParallelConfig
        from tests.helpers import make_engine

        engine = make_engine(parallel=ParallelConfig(tp=1, dp=1), seed=3)
        engine.train(1)
        import os

        ck = str(tmp_path / "ckpt")
        out = str(tmp_path / "ucp")
        os.environ["REPRO_DURABLE"] = "1"
        try:
            with fstrace() as rec:
                engine.save_checkpoint(ck)
                ucp_convert(ck, out)
        finally:
            os.environ["REPRO_DURABLE"] = "0"
        assert rec.roots() == ["s0", "s1"]
        report = check_fs_trace(rec, state_cap=64)
        assert report.errors == [], report.render_text()
        (diag,) = report.by_rule("UCP035")
        assert "64-state cap" in diag.message
        assert report.ok


class TestCLIReplay:
    """``repro lint-trace --fs`` (and combined ``--locks --fs``)."""

    def _fs_payload(self, tmp_path, durable):
        with fstrace() as rec:
            save_tag(ObjectStore(str(tmp_path / "ckpt"), durable=durable),
                     "global_step10", b"\x01" * 64)
        return rec.to_payload()

    def _write(self, tmp_path, payload):
        p = tmp_path / "trace.json"
        p.write_text(json.dumps(payload))
        return str(p)

    def test_clean_fs_payload_passes(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write(tmp_path, self._fs_payload(tmp_path, True))
        assert main(["lint-trace", "--fs", "--format", "json", path]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_non_durable_fs_payload_fails_with_rules(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write(tmp_path, self._fs_payload(tmp_path, False))
        assert main(["lint-trace", "--fs", path]) == 1
        out = capsys.readouterr().out
        assert "UCP032" in out and "UCP033" in out

    def test_state_cap_flag_bounds_and_reports(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write(tmp_path, self._fs_payload(tmp_path, True))
        assert main(
            ["lint-trace", "--fs", "--state-cap", "3", path]) == 0
        assert "UCP035" in capsys.readouterr().out

    def test_crashed_flag_excuses_tmp_leftovers(self, tmp_path, capsys):
        from repro.cli import main

        payload = FSOpRecorder()
        payload.on_fs_op("write", "r", "x.npt.tmp", data=b"a")
        path = self._write(tmp_path, payload.to_payload())
        assert main(["lint-trace", "--fs", path]) == 1
        assert "UCP034" in capsys.readouterr().out
        assert main(["lint-trace", "--fs", "--crashed", path]) == 0

    def test_combined_families_one_deterministic_report(
        self, tmp_path, capsys
    ):
        """``--locks --fs`` on a two-family payload: one merged JSON
        report, byte-identical across invocations."""
        from repro.analysis.lockwitness import lockcheck, make_lock
        from repro.cli import main

        with lockcheck(strict=False) as w:
            with make_lock("a"):
                pass
        payload = {
            "locks": w.to_payload(),
            "fs": self._fs_payload(tmp_path, True),
        }
        path = self._write(tmp_path, payload)
        argv = ["lint-trace", "--locks", "--fs", "--format", "json", path]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        report = json.loads(first)
        assert report["ok"] is True
        assert report["subject"] == "locks+fs"

    def test_combined_reports_findings_from_both_families(
        self, tmp_path, capsys
    ):
        from repro.analysis.lockwitness import lockcheck, make_lock
        from repro.cli import main

        with lockcheck(strict=False) as w:
            a, b = make_lock("lock_a"), make_lock("lock_b")
            import threading

            def order(first, second, name):
                def run():
                    with first:
                        with second:
                            pass
                t = threading.Thread(target=run, name=name)
                t.start()
                t.join()

            order(a, b, "loader")
            order(b, a, "verifier")
        payload = {
            "locks": w.to_payload(),
            "fs": self._fs_payload(tmp_path, False),
        }
        path = self._write(tmp_path, payload)
        assert main(["lint-trace", "--locks", "--fs", path]) == 1
        out = capsys.readouterr().out
        assert "UCP029" in out and "UCP032" in out
