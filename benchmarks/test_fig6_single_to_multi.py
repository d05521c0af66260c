"""Fig 6 — single Source to multiple Targets.

The paper trains GPT-3 with TP=2, PP=2, DP=2 (ZeRO-1), converts the
iteration-100 checkpoint to UCP, and resumes under many different GPU
counts and strategies; all training curves continue the baseline.  We
reproduce the experiment at mini scale: resume at iteration 20 of 40.
"""


from repro.core.resume import resume_training
from repro.dist.topology import ParallelConfig

from bench_util import (
    PAPER_LOSS_BAND,
    check_loss_continuity,
    loss_curve,
    make_engine,
    record_result,
)

SOURCE = ParallelConfig(tp=2, pp=2, dp=2, zero_stage=1)
TARGETS = [
    ParallelConfig(tp=1, pp=1, dp=1),                 # 8 GPUs -> 1 GPU
    ParallelConfig(tp=2, pp=1, dp=2),                 # drop pipeline
    ParallelConfig(tp=1, pp=2, dp=2),                 # drop tensor slicing
    ParallelConfig(tp=1, pp=1, dp=4, zero_stage=2),   # pure ZeRO-2 DP
    ParallelConfig(tp=1, pp=1, dp=2, sp=2),           # sequence parallel
]
RESUME_AT = 20
TOTAL = 40


def test_fig6_single_source_to_multiple_targets(benchmark, tmp_path):
    source = make_engine(parallel=SOURCE)
    pre = loss_curve(source, RESUME_AT)
    ckpt = str(tmp_path / "ckpt")
    source.save_checkpoint(ckpt)
    baseline = loss_curve(source, TOTAL - RESUME_AT)

    curves = {"source_continued": baseline}
    deltas = {}

    first_target = TARGETS[0]
    engine = benchmark.pedantic(
        lambda: resume_training(ckpt, first_target), rounds=1, iterations=1
    )
    curves[first_target.describe()] = loss_curve(engine, TOTAL - RESUME_AT)

    for target in TARGETS[1:]:
        engine = resume_training(ckpt, target)
        assert engine.iteration == RESUME_AT
        curves[target.describe()] = loss_curve(engine, TOTAL - RESUME_AT)

    for name, curve in curves.items():
        if name == "source_continued":
            continue
        deltas[name] = check_loss_continuity(baseline, curve).max_delta
        assert deltas[name] <= PAPER_LOSS_BAND, name

    # the curve keeps descending across the resume boundary
    assert baseline[-1] < pre[0]

    record_result(
        "fig6_single_to_multi",
        {
            "source": SOURCE.describe(),
            "resume_at": RESUME_AT,
            "total_iterations": TOTAL,
            "pre_resume_losses": pre,
            "curves": curves,
            "max_loss_delta_per_target": deltas,
            "paper_band": PAPER_LOSS_BAND,
        },
    )
