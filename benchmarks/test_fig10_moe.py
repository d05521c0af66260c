"""Fig 10 — Mixtral-style MoE resume.

Paper: a Mixtral-7x8B variant trained with TP=1, PP=2, DP=4 and
resumed at iteration 501 under TP=2, PP=2, DP=2 — the hardest case,
because TP=2 on the target means the 3-dim expert tensors must be
*split* from consolidated atoms that were built from unsharded experts.
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

SOURCE = ParallelConfig(tp=1, pp=2, dp=4)
TARGET = ParallelConfig(tp=2, pp=2, dp=2)
RESUME_AT = 15
TOTAL = 30


def test_fig10_moe_resume(benchmark, tmp_path):
    source = make_engine("moe-mini", parallel=SOURCE)
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
        "fig10_moe",
        {
            "model": "moe-mini (4 experts, top-2 routing, GQA)",
            "source": SOURCE.describe(),
            "target": TARGET.describe(),
            "pre_resume_losses": pre,
            "baseline_losses": baseline,
            "resumed_losses": resumed,
            "max_loss_delta": delta,
        },
    )
