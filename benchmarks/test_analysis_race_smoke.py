"""Race-detector smoke: a real training + save trace must verify clean.

A :class:`~repro.analysis.collective_trace.CollectiveTraceRecorder`
subscribed under the ``collective`` role of :mod:`repro.obs` hears every
collective an ordinary training run plus a checkpoint save issues.  This
smoke gate verifies the happy path stays race-free at benchmark scale,
and that an injected single-rank divergence is still caught — i.e. the
detector has not silently become a no-op.
"""

from repro import obs
from repro.analysis import CollectiveTraceRecorder, check_collective_ordering
from repro.dist.topology import ParallelConfig

from bench_util import make_engine, record_result

PARALLEL = ParallelConfig(tp=2, pp=2, dp=2, zero_stage=1)


def test_race_smoke(tmp_path):
    engine = make_engine("gpt3-mini", parallel=PARALLEL)
    trace = CollectiveTraceRecorder()
    with obs.subscribed("collective", trace):
        engine.train(2)
        engine.save_checkpoint(str(tmp_path / "ckpt"))

    report = check_collective_ordering(trace)
    assert trace.num_events > 0
    assert report.ok, report.render_text()

    clean_events = trace.num_events

    # sanity: the detector must still flag a rank that takes a branch
    # its peers do not
    group = next(g for g in trace.group_members if g.startswith("dp:"))
    members = trace.group_members[group]
    trace.record("all_reduce", group, members, 4096, rank=members[0])
    injected = check_collective_ordering(trace)
    assert not injected.ok
    assert "UCP014" in [d.rule_id for d in injected.errors]

    record_result(
        "analysis_race_smoke",
        {
            "parallel": PARALLEL.describe(),
            "events_traced": clean_events,
            "groups_traced": len(trace.group_members),
            "clean": True,
            "injected_divergence_caught": True,
        },
    )
