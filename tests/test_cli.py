"""Tests for the repro CLI."""

import json

import pytest

from repro.cli import main
from repro.core.convert import ucp_convert
from repro.core.errors import PatternMatchError
from repro.core.patterns import PatternProgram, PatternRule, program_for_config
from repro.dist.topology import ParallelConfig
from repro.models import get_config
from repro.parallel.tp import PATTERN_REPLICATED
from repro.storage.store import ObjectStore

from tests.helpers import make_engine
from tests.reference_convert import assert_matches_reference


@pytest.fixture
def checkpoint(tmp_path):
    engine = make_engine(parallel=ParallelConfig(tp=2, dp=2), seed=7)
    engine.train(2)
    ckpt = str(tmp_path / "ckpt")
    engine.save_checkpoint(ckpt)
    return ckpt, tmp_path


class TestModels:
    def test_lists_registry(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "gpt3-350m" in out
        assert "mixtral-moe-42b" in out


class TestInspect:
    def test_distributed_checkpoint(self, checkpoint, capsys):
        ckpt, _ = checkpoint
        assert main(["inspect", ckpt]) == 0
        out = capsys.readouterr().out
        assert "distributed checkpoint" in out
        assert "tp2.pp1.dp2" in out
        assert "global_step2" in out

    def test_ucp_directory(self, checkpoint, capsys):
        ckpt, tmp = checkpoint
        ucp = str(tmp / "ucp")
        assert main(["convert", ckpt, ucp]) == 0
        capsys.readouterr()
        assert main(["inspect", ucp]) == 0
        out = capsys.readouterr().out
        assert "UCP checkpoint" in out
        assert "atoms" in out

    def test_missing_directory_fails(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "nope")]) == 1
        assert "unrecognized" in capsys.readouterr().out


class TestConvert:
    def test_basic_conversion(self, checkpoint, capsys):
        ckpt, tmp = checkpoint
        assert main(["convert", ckpt, str(tmp / "ucp")]) == 0
        out = capsys.readouterr().out
        assert "atoms" in out
        assert ObjectStore(str(tmp / "ucp")).exists("ucp_meta.npt")

    def test_worker_flag(self, checkpoint, capsys):
        ckpt, tmp = checkpoint
        assert main(["convert", ckpt, str(tmp / "ucp"), "--workers", "4"]) == 0

    def test_bad_tag_fails(self, checkpoint, capsys):
        ckpt, tmp = checkpoint
        code = main(["convert", ckpt, str(tmp / "u"), "--tag", "global_step99"])
        assert code == 1

    def test_average_replicas_flag(self, checkpoint, capsys):
        """The tp2 source holds every norm as replicated copies; the
        flag's program averages them instead of comparing them, which
        moves no byte, so the conversion is admitted and matches the
        reference operators under the same program."""
        ckpt, tmp = checkpoint
        ucp = str(tmp / "ucp-avg")
        assert main(["convert", ckpt, ucp, "--average-replicas"]) == 0
        assert "atoms" in capsys.readouterr().out
        program = program_for_config(get_config("gpt3-mini"), average_replicas=True)
        assert_matches_reference(ucp, ckpt, program)

    def test_program_moving_fragmented_bytes_is_refused(self, checkpoint):
        """Reclassifying a tp-fragmented tensor as replicated would
        consolidate one shard as the whole tensor: refused on placement,
        before the destination is created."""
        ckpt, tmp = checkpoint
        program = program_for_config(get_config("gpt3-mini"))
        bad = PatternProgram(
            [PatternRule(r"^blocks\.0\.attn\.qkv\.weight$", PATTERN_REPLICATED)]
            + program.rules
        )
        with pytest.raises(PatternMatchError, match="qkv.weight"):
            ucp_convert(ckpt, str(tmp / "ucp-bad"), program=bad)
        assert not (tmp / "ucp-bad").exists()


class TestPlan:
    def test_downsize_plan(self, checkpoint, capsys):
        ckpt, _ = checkpoint
        assert main(["plan", ckpt, "--world", "2"]) == 0
        out = capsys.readouterr().out
        assert "source:  tp2.pp1.dp2" in out
        assert "target:" in out
        assert "convert to UCP" in out

    def test_same_size_plan_keeps_topology(self, checkpoint, capsys):
        ckpt, _ = checkpoint
        assert main(["plan", ckpt, "--world", "4"]) == 0
        out = capsys.readouterr().out
        assert "loads directly" in out

    def test_impossible_plan_fails(self, checkpoint, capsys):
        ckpt, _ = checkpoint
        assert main(["plan", ckpt, "--world", "0"]) == 1

    def test_awkward_batch_still_finds_a_plan(self, checkpoint, capsys):
        """A prime batch size forces dp=1 but a plan always exists."""
        ckpt, _ = checkpoint
        assert main(["plan", ckpt, "--world", "4", "--batch", "7"]) == 0
        assert "dp1" in capsys.readouterr().out


class TestLintPlan:
    def test_provenance_pass_on_clean_plan(self, checkpoint, capsys):
        ckpt, _ = checkpoint
        code = main([
            "lint-plan", "--source", ckpt,
            "--target", "tp1.pp2.dp2.sp1.zero2", "--provenance",
        ])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_provenance_flags_corrupt_plan(self, checkpoint, capsys):
        from repro.ckpt import manifest as manifest_mod
        from repro.ckpt import naming

        ckpt, _ = checkpoint
        store = ObjectStore(ckpt)
        basename = naming.optim_states_name(0, 0)
        rel = f"global_step2/{basename}"
        payload = store.load(rel)
        meta = payload["sharding"]["embedding.weight"]
        meta["unpadded_shape"] = list(meta["logical_shape"])
        store.save(rel, payload)
        manifest_mod.refresh_entry(store, "global_step2", basename)

        code = main([
            "lint-plan", "--source", ckpt,
            "--target", "tp1.pp2.dp2.sp1.zero2", "--provenance",
        ])
        assert code == 1
        assert "UCP019" in capsys.readouterr().out

    def test_provenance_json_is_deterministic(self, checkpoint, capsys):
        ckpt, _ = checkpoint
        argv = [
            "lint-plan", "--source", ckpt,
            "--target", "tp1.pp2.dp2.sp1.zero2",
            "--provenance", "--format", "json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestLintTrace:
    @pytest.fixture
    def trace_file(self, tmp_path):
        """A durable dp2 save, recorded by the FS-op witness and written
        as JSON."""
        from repro.analysis.fswitness import fstrace
        from repro.ckpt.saver import save_distributed_checkpoint

        engine = make_engine(parallel=ParallelConfig(dp=2), seed=7)
        engine.train(1)
        ckpt = str(tmp_path / "ckpt")
        with fstrace() as rec:
            save_distributed_checkpoint(
                engine, ckpt, store=ObjectStore(ckpt, durable=True)
            )
        path = tmp_path / "fs_trace.json"
        path.write_text(json.dumps(rec.to_payload()))
        return path

    def test_clean_trace_from_file_json(self, trace_file, capsys):
        assert main(["lint-trace", str(trace_file), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_leaked_temp_flags_ucp034(self, trace_file, capsys):
        payload = json.loads(trace_file.read_text())
        # a write that was never published nor cleaned up
        payload["fs_ops"].append(
            {"kind": "write", "path": "s0/stray.npt.tmp", "nbytes": 0,
             "sha256": "", "data_b64": ""}
        )
        trace_file.write_text(json.dumps(payload))

        assert main(["lint-trace", str(trace_file)]) == 1
        assert "UCP034" in capsys.readouterr().out
        assert main(["lint-trace", "--crashed", str(trace_file)]) == 0

    def test_checkpoint_directory_is_not_a_trace(self, checkpoint, capsys):
        ckpt, _ = checkpoint
        assert main(["lint-trace", ckpt]) == 1
        assert ckpt in capsys.readouterr().err

    def test_damaged_trace_file_is_named(self, trace_file, capsys):
        payload = json.loads(trace_file.read_text())
        payload["roots"] = 5
        trace_file.write_text(json.dumps(payload))

        assert main(["lint-trace", str(trace_file)]) == 1
        err = capsys.readouterr().err
        assert str(trace_file) in err and "roots" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", [
        '{"version": 1}',
        '{"version": 1, "roots": [], "fs_ops": [{"kind": "write"}]}',
        '{"version": 1, "roots": [], "fs_ops": "xyz"}',
        '{"version": 1, "roots": 5, "fs_ops": []}',
        '{"version": 1, "roots": ["s0"], "fs_ops": [',
    ], ids=["no-ops", "op-without-path", "ops-as-str", "roots-as-int",
            "truncated"])
    def test_damaged_trace_is_refused_by_name(self, tmp_path, capsys, text):
        """Neither passed as clean nor answered with bare exception text."""
        path = tmp_path / "fs_trace.json"
        path.write_text(text)
        assert main(["lint-trace", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {path} is not an fs-op trace: " in captured.err


class TestVerify:
    def test_clean_checkpoint_passes(self, checkpoint, capsys):
        ckpt, _ = checkpoint
        assert main(["verify", ckpt]) == 0
        out = capsys.readouterr().out
        assert "CORRUPT" not in out

    def test_corrupt_file_detected(self, checkpoint, capsys):
        ckpt, _ = checkpoint
        store = ObjectStore(ckpt)
        rel = next(f for f in store.list() if "optim_states" in f)
        path = store.base / rel
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF
        path.write_bytes(bytes(data))
        assert main(["verify", ckpt]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_empty_directory_fails(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path)]) == 1


class TestSupervise:
    ARGS = [
        "supervise",
        "--model", "gpt3-mini",
        "--topology", "tp1.pp1.dp2.zero1",
        "--steps", "6",
        "--save-every", "2",
        "--batch", "4",
        "--kill", "3:step:1",
    ]

    def test_text_report(self, tmp_path, capsys):
        rc = main(self.ARGS + ["--workdir", str(tmp_path / "job")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "supervised run" in out
        assert "recovery 0: step@step3" in out
        assert "continuity" in out

    def test_json_report_structure(self, tmp_path, capsys):
        import json

        rc = main(
            self.ARGS
            + ["--workdir", str(tmp_path / "job"), "--format", "json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["horizon"] == 6
        assert payload["useful_steps"] == 6
        assert 0 < payload["goodput"] <= 1
        assert payload["interruptions"] == 1
        assert payload["lost_committed_tags"] == []
        assert payload["continuity"]["ok"] is True
        (event,) = payload["events"]
        assert event["trigger_phase"] == "step"
        assert event["timings"]["total_s"] > 0

    def test_report_file_matches_stdout_json(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = main(
            self.ARGS
            + [
                "--workdir", str(tmp_path / "job"),
                "--format", "json",
                "--report", str(report_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert report_path.read_text().strip() == out.strip()

    def test_json_is_deterministic_across_runs(self, tmp_path, capsys):
        outs = []
        for sub in ("a", "b"):
            rc = main(
                self.ARGS
                + ["--workdir", str(tmp_path / sub), "--format", "json"]
            )
            assert rc == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_no_golden_skips_continuity(self, tmp_path, capsys):
        import json

        rc = main(
            self.ARGS
            + [
                "--workdir", str(tmp_path / "job"),
                "--format", "json",
                "--no-golden",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["continuity"] is None

    def test_kill_and_kill_seed_are_exclusive(self, tmp_path, capsys):
        rc = main(
            self.ARGS
            + ["--workdir", str(tmp_path / "job"), "--kill-seed", "3"]
        )
        assert rc == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_kill_seed_random_schedule(self, tmp_path, capsys):
        import json

        rc = main([
            "supervise",
            "--model", "gpt3-mini",
            "--topology", "tp1.pp1.dp2.zero1",
            "--steps", "6",
            "--save-every", "2",
            "--batch", "4",
            "--kill-seed", "3",
            "--workdir", str(tmp_path / "job"),
            "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["interruptions"] >= 1

    def test_misaligned_save_kill_warns(self, tmp_path, capsys):
        rc = main([
            "supervise",
            "--model", "gpt3-mini",
            "--topology", "tp1.pp1.dp2.zero1",
            "--steps", "4",
            "--save-every", "4",
            "--batch", "4",
            "--kill", "6:save-post:1",
            "--no-golden",
            "--workdir", str(tmp_path / "job"),
        ])
        assert rc == 0  # the kill never fires; the run just completes
        err = capsys.readouterr().err
        assert "will never trigger" in err


class TestExplore:
    def test_list_scenarios(self, capsys):
        assert main(["explore", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("source-files", "commit-pool"):
            assert name in out

    def test_missing_scenario_fails(self, capsys):
        assert main(["explore"]) == 1
        assert "scenario name is required" in capsys.readouterr().err

    def test_unknown_scenario_fails(self, capsys):
        assert main(["explore", "nope"]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_blockcache_exhaustive_json(self, capsys, tmp_path):
        import json

        report_path = tmp_path / "interleave.json"
        rc = main([
            "explore", "source-files",
            "--require-exhaustive",
            "--report", str(report_path),
            "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exhaustive"] is True
        assert payload["counterexamples"] == []
        # the artifact matches stdout byte for byte
        assert report_path.read_text() == json.dumps(
            payload, indent=2, sort_keys=True
        ) + "\n"

    def test_capped_run_fails_require_exhaustive(self, capsys):
        rc = main([
            "explore", "source-files",
            "--schedules", "3",
            "--require-exhaustive",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "bounded" in err and "--require-exhaustive" in err

    def test_schedule_replay(self, capsys, tmp_path):
        import json

        sched = tmp_path / "sched.json"
        sched.write_text("[1]")
        rc = main([
            "explore", "source-files",
            "--schedule", str(sched),
            "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["replayed"] == [1]
        assert payload["exhaustive"] is False
