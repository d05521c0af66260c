"""Fig 8 — LLaMA architecture resume.

Paper: LLaMA (RMSNorm / SwiGLU / RoPE, untied head) trained with
TP=2, PP=2, DP=2; resumed at iteration 101 under TP=2, PP=1, DP=2 and
TP=2, PP=2, DP=1.  Mini scale, with GQA enabled (num_kv_heads <
num_heads) so the variable-size QKV sub-pattern is on the hot path.
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

SOURCE = ParallelConfig(tp=2, pp=2, dp=2)
TARGETS = [ParallelConfig(tp=2, pp=1, dp=2), ParallelConfig(tp=2, pp=2, dp=1)]
RESUME_AT = 15
TOTAL = 30


def test_fig8_llama_resume(benchmark, tmp_path):
    source = make_engine("llama-mini", parallel=SOURCE)
    pre = loss_curve(source, RESUME_AT)
    ckpt = str(tmp_path / "ckpt")
    source.save_checkpoint(ckpt)
    baseline = loss_curve(source, TOTAL - RESUME_AT)

    engine = benchmark.pedantic(
        lambda: resume_training(ckpt, TARGETS[0]), rounds=1, iterations=1
    )
    curves = {TARGETS[0].describe(): loss_curve(engine, TOTAL - RESUME_AT)}
    curves[TARGETS[1].describe()] = loss_curve(
        resume_training(ckpt, TARGETS[1]), TOTAL - RESUME_AT
    )

    deltas = {name: check_loss_continuity(baseline, c).max_delta for name, c in curves.items()}
    for name, delta in deltas.items():
        assert delta <= PAPER_LOSS_BAND, name
    assert baseline[-1] < pre[0]  # loss still descending after resume

    record_result(
        "fig8_llama",
        {
            "model": "llama-mini (RMSNorm/SwiGLU/RoPE/GQA, untied head)",
            "source": SOURCE.describe(),
            "pre_resume_losses": pre,
            "baseline_losses": baseline,
            "curves": curves,
            "max_loss_delta_per_target": deltas,
        },
    )
