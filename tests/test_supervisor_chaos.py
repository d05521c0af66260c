"""Chaos matrix for the elastic failure-recovery supervisor.

The correctness proof of :mod:`repro.dist.supervisor`: a sweep over
*failure point* (mid-step, mid-save pre-/post-commit, mid-convert) ×
*surviving topology* (TP / PP / DP / ZeRO shrink paths, plus an
infeasible one the supervisor must reject) × *seed*.  Every feasible
cell must

- reach the horizon and resume with loss-curve continuity against an
  uninterrupted golden run of the same job (paper band, 0.02);
- leave every committed manifest and digest intact
  (``verify_directory`` plus ``lost_committed_tags == []`` — no
  committed checkpoint is ever lost);
- report sane accounting: goodput in (0, 1], non-negative stage
  timings, MTTR over completed recoveries.

The whole module runs under ``REPRO_SANITIZE=1`` (the CI chaos job
sets it), so every recovery also passes the buffer-isolation
sanitizer.
"""

import json

import pytest

from repro.analysis.continuity import check_loss_continuity
from repro.ckpt.loader import latest_committed_tag
from repro.core.inspect import verify_directory
from repro.dist.supervisor import Supervisor, TopologyRejectedError, supervise
from repro.dist.topology import ParallelConfig
from repro.models import get_config
from repro.storage.faults import (
    PHASE_SAVE_PRE_COMMIT,
    KillEvent,
    KillSchedule,
)

MODEL = get_config("gpt3-mini")

# world-4 source for the dense phase sweep; world-8 for the PP path
SOURCE4 = ParallelConfig(tp=2, pp=1, dp=2, zero_stage=1)
SOURCE8 = ParallelConfig(tp=2, pp=2, dp=2, zero_stage=1)
SOURCE_Z2 = ParallelConfig(tp=2, pp=1, dp=2, zero_stage=2)

HORIZON = 10
SAVE_EVERY = 4
SEEDS = (7, 11)


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """Lazily-computed golden loss curves, keyed by (source, seed).

    A golden run is the same supervised job with an empty kill
    schedule; its curve is the continuity reference for every chaos
    cell sharing the source topology and seed.
    """
    root = tmp_path_factory.mktemp("goldens")
    cache = {}

    def get(source: ParallelConfig, seed: int):
        key = (source.describe(), seed)
        if key not in cache:
            sup = Supervisor(
                MODEL,
                source,
                str(root / f"g{len(cache)}"),
                horizon=HORIZON,
                save_every=SAVE_EVERY,
                seed=seed,
            )
            cache[key] = sup.run().losses
        return cache[key]

    return get


def run_cell(
    workdir,
    source=SOURCE4,
    specs=(),
    events=(),
    overrides=None,
    seed=7,
    golden_curve=None,
):
    """One chaos cell: a supervised run under the given kill schedule."""
    schedule = (
        KillSchedule.from_specs(specs) if specs else KillSchedule(events)
    )
    sup = Supervisor(
        MODEL,
        source,
        str(workdir),
        horizon=HORIZON,
        save_every=SAVE_EVERY,
        schedule=schedule,
        target_overrides=overrides,
        seed=seed,
    )
    return sup.run(golden=golden_curve)


def assert_cell_invariants(report, workdir):
    """The invariants every feasible chaos cell must satisfy."""
    assert report.useful_steps == HORIZON
    assert 0.0 < report.goodput <= 1.0
    assert report.wall_steps >= HORIZON
    # zero lost committed checkpoints, ever
    assert report.lost_committed_tags == []
    assert report.committed_tags, "run never committed a checkpoint"
    # manifest/digest integrity of the whole job directory
    assert verify_directory(str(workdir)).ok
    assert all(e.integrity_ok for e in report.events)
    for e in report.events:
        t = e.timings
        assert t.detection_s > 0 and t.replan_s > 0
        assert t.convert_s >= 0 and t.resume_s >= 0
        # every resume point is a committed tag ("" = cold restart:
        # the failure struck before the first commit ever happened)
        assert e.resume_tag == "" or e.resume_tag in report.committed_tags
    completed = [e for e in report.events if e.completed]
    if completed:
        assert report.mttr_s > 0
    if report.continuity is not None:
        assert report.continuity.ok, report.continuity


class TestFailurePointMatrix:
    """Failure point × seed on the world-4 source, planner-chosen target."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "specs,phase,resume_tag,lost",
        [
            # mid-step: rank 3 dies at step 6 -> roll back to step 4
            (["6:step:3"], "step", "global_step4", 2),
            # pre-commit save kill: the step-8 tag never commits
            (["8:save-pre:1"], PHASE_SAVE_PRE_COMMIT, "global_step4", 4),
            # post-commit save kill: the step-8 tag IS committed even
            # though the `latest` pointer still names its predecessor
            (["8:save-post:1"], "save_post_commit", "global_step8", 0),
        ],
        ids=["mid-step", "save-pre-commit", "save-post-commit"],
    )
    def test_single_failure(
        self, tmp_path, golden, specs, phase, resume_tag, lost, seed
    ):
        report = run_cell(
            tmp_path,
            specs=specs,
            seed=seed,
            golden_curve=golden(SOURCE4, seed),
        )
        assert_cell_invariants(report, tmp_path)
        assert report.interruptions == 1
        assert len(report.events) == 1
        (event,) = report.events
        assert event.trigger_phase == phase
        assert event.resume_tag == resume_tag
        assert event.lost_steps == lost
        assert event.completed
        # a post-commit kill loses no work at all
        if lost == 0:
            assert report.goodput == 1.0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mid_convert_kill_resumes_conversion(self, tmp_path, golden, seed):
        """The recovery conversion itself dies; the retry (at further
        reduced capacity) reuses every atom the dead attempt committed."""
        report = run_cell(
            tmp_path,
            specs=["6:step:3", "6:convert:2:5"],
            seed=seed,
            golden_curve=golden(SOURCE4, seed),
        )
        assert_cell_invariants(report, tmp_path)
        assert report.interruptions == 2
        assert len(report.events) == 2
        first, second = report.events
        assert not first.completed and first.atoms_reused == 0
        assert second.completed
        assert second.trigger_phase == "convert"
        assert second.atoms_reused > 0, "retry rewrote atoms it had"
        assert second.resume_tag == first.resume_tag == "global_step4"
        # two ranks gone from a world of four
        assert second.capacity_after == 2

    def test_torn_pre_commit_save_never_loads(self, tmp_path, golden):
        """A *torn* manifest write (half the bytes hit the tmp file)
        must behave exactly like a clean pre-commit kill: the torn tag
        is skipped and the previous committed tag is the resume point."""
        event = KillEvent(
            step=8, phase=PHASE_SAVE_PRE_COMMIT, ranks=(1,), torn=True
        )
        report = run_cell(
            tmp_path,
            events=[event],
            golden_curve=golden(SOURCE4, 7),
        )
        assert_cell_invariants(report, tmp_path)
        assert report.events[0].resume_tag == "global_step4"


class TestSurvivingTopologyMatrix:
    """Forced shrink paths across TP/PP/DP/ZeRO, all linter-validated."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "source,specs,override",
        [
            (SOURCE4, ["6:step:3"], ParallelConfig(tp=1, pp=1, dp=2, zero_stage=1)),
            (SOURCE4, ["6:step:3"], ParallelConfig(tp=2, pp=1, dp=1, zero_stage=1)),
            (SOURCE8, ["6:step:5"], ParallelConfig(tp=2, pp=1, dp=2, zero_stage=1)),
            # ZeRO reshard: stage 2 source resumes as stage 1
            (SOURCE_Z2, ["6:step:3"], ParallelConfig(tp=2, pp=1, dp=1, zero_stage=1)),
        ],
        ids=["tp-shrink", "dp-shrink", "pp-shrink", "zero-shrink"],
    )
    def test_forced_shrink_path(
        self, tmp_path, golden, source, specs, override, seed
    ):
        report = run_cell(
            tmp_path,
            source=source,
            specs=specs,
            overrides=[override],
            seed=seed,
            golden_curve=golden(source, seed),
        )
        assert_cell_invariants(report, tmp_path)
        assert report.final_config == override.describe()
        assert report.events[-1].target_config == override.describe()
        assert report.events[-1].source_config == source.describe()

    def test_planner_picks_feasible_topology_unforced(self, tmp_path, golden):
        """With no override the ElasticResumeManager chooses: 3
        survivors of tp2.dp2 (batch 8) can only run as tp1.pp1.dp2."""
        report = run_cell(
            tmp_path, specs=["6:step:3"], golden_curve=golden(SOURCE4, 7)
        )
        assert_cell_invariants(report, tmp_path)
        event = report.events[0]
        assert event.capacity_after == 3
        target = event.target_config
        assert target == ParallelConfig(tp=1, pp=1, dp=2, zero_stage=1).describe()
        assert "dp" in event.plan_reason or "resized" in event.plan_reason

    def test_infeasible_topology_rejected_not_crashed(self, tmp_path):
        """tp=3 cannot divide gpt3-mini's heads/hidden: the pre-flight
        linter must reject it with a UCP diagnostic before any tensor
        is read — and the job directory must stay fully intact."""
        bad = ParallelConfig(tp=3, pp=1, dp=1, zero_stage=1)
        with pytest.raises(TopologyRejectedError) as err:
            run_cell(tmp_path, specs=["6:step:3"], overrides=[bad])
        assert err.value.target == bad
        rules = {d.rule_id for d in err.value.report.errors}
        assert "UCP007" in rules
        assert "UCP007" in str(err.value)
        # the rejection touched nothing: the last committed checkpoint
        # is still there and the directory verifies clean
        assert latest_committed_tag(str(tmp_path)) == "global_step4"
        assert verify_directory(str(tmp_path)).ok


class TestRandomizedSchedules:
    """Seeded random chaos: no expected values, only the invariants."""

    @pytest.mark.parametrize("chaos_seed", [3, 17])
    def test_random_schedule_holds_invariants(
        self, tmp_path, golden, chaos_seed
    ):
        schedule = KillSchedule.random(
            seed=chaos_seed,
            world_size=SOURCE4.world_size,
            horizon=HORIZON,
            save_every=SAVE_EVERY,
            failures=2,
        )
        assert len(schedule) == 2
        sup = Supervisor(
            MODEL,
            SOURCE4,
            str(tmp_path),
            horizon=HORIZON,
            save_every=SAVE_EVERY,
            schedule=schedule,
        )
        report = sup.run(golden=golden(SOURCE4, 7))
        assert_cell_invariants(report, tmp_path)
        assert report.interruptions >= 1

    def test_random_schedule_is_seed_deterministic(self):
        a = KillSchedule.random(seed=5, world_size=4, horizon=12, save_every=4)
        b = KillSchedule.random(seed=5, world_size=4, horizon=12, save_every=4)
        assert a.events == b.events
        c = KillSchedule.random(seed=6, world_size=4, horizon=12, save_every=4)
        assert a.events != c.events


class TestReportDeterminism:
    def test_report_json_is_byte_stable(self, tmp_path, golden):
        """Same schedule + seed -> byte-identical RecoveryReport JSON
        (the CI chaos artifact is diffable across runs)."""
        curve = golden(SOURCE4, 7)
        r1 = run_cell(
            tmp_path / "a",
            specs=["6:step:3", "6:convert:2:5"],
            golden_curve=curve,
        )
        r2 = run_cell(
            tmp_path / "b",
            specs=["6:step:3", "6:convert:2:5"],
            golden_curve=curve,
        )
        assert r1.to_json() == r2.to_json()
        payload = json.loads(r1.to_json())
        assert payload["recoveries"] == 1
        assert payload["events"][1]["timings"]["total_s"] > 0

    def test_report_json_is_stable_across_core_counts(
        self, tmp_path, golden, monkeypatch
    ):
        """The default fan-out is ``min(8, cpus)``, so the report must not
        depend on the host: the attempt a positional convert kill is
        aimed at runs serial (the N-th write names the same landed
        atoms everywhere) and the simulated clock never reads the
        worker count."""
        curve = golden(SOURCE4, 7)
        reports = set()
        for cpus in (1, 2, 8):
            monkeypatch.setattr("os.cpu_count", lambda cpus=cpus: cpus)
            report = run_cell(
                tmp_path / f"c{cpus}",
                specs=["6:step:3", "6:convert:2:5"],
                golden_curve=curve,
            )
            reports.add(report.to_json())
        assert len(reports) == 1

    def test_supervise_convenience_runs_golden_first(self, tmp_path):
        report = supervise(
            MODEL,
            SOURCE4,
            str(tmp_path),
            horizon=HORIZON,
            save_every=SAVE_EVERY,
            schedule=KillSchedule.from_specs(["6:step:3"]),
        )
        assert report.continuity is not None
        assert report.continuity.ok
        assert_cell_invariants(report, tmp_path / "run")
