"""Fig 9 — BLOOM architecture resume.

Paper: BLOOM-176B trained with TP=2, PP=24, DP=8 and resumed mid-run
under TP=2, PP=24, DP=4 (halved data-parallel width).  Mini scale:
the 8-layer BLOOM-mini with a deep pipeline (PP=4), halving DP across
the resume exactly as the paper does.
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

SOURCE = ParallelConfig(tp=2, pp=4, dp=4)   # deep pipeline, wide DP
TARGET = ParallelConfig(tp=2, pp=4, dp=2)   # halve DP, keep MP shape
RESUME_AT = 15
TOTAL = 30


def test_fig9_bloom_resume(benchmark, tmp_path):
    source = make_engine("bloom-mini", parallel=SOURCE)
    pre = loss_curve(source, RESUME_AT)
    ckpt = str(tmp_path / "ckpt")
    source.save_checkpoint(ckpt)
    baseline = loss_curve(source, TOTAL - RESUME_AT)

    engine = benchmark.pedantic(
        lambda: resume_training(ckpt, TARGET), rounds=1, iterations=1
    )
    resumed = loss_curve(engine, TOTAL - RESUME_AT)
    delta = check_loss_continuity(baseline, resumed).max_delta
    assert delta <= PAPER_LOSS_BAND
    assert baseline[-1] < pre[0]

    record_result(
        "fig9_bloom",
        {
            "model": "bloom-mini (deep pipeline)",
            "source": SOURCE.describe(),
            "target": TARGET.describe(),
            "pre_resume_losses": pre,
            "baseline_losses": baseline,
            "resumed_losses": resumed,
            "max_loss_delta": delta,
        },
    )
