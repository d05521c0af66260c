"""Fig 7 — multiple Sources to a single Target.

The inverse of Fig 6: with a fixed seed, several different source
strategies each train to iteration 100, convert their checkpoints to
UCP, and all resume under one target (TP=2, PP=2, DP=1); each resumed
curve matches its own source's continuation.
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

SOURCES = [
    ParallelConfig(tp=2, pp=2, dp=2, zero_stage=1),
    ParallelConfig(tp=1, pp=1, dp=4, zero_stage=1),
    ParallelConfig(tp=2, pp=1, dp=1, zero_stage=1),
    ParallelConfig(tp=1, pp=1, dp=2, zero_stage=3),
]
TARGET = ParallelConfig(tp=2, pp=2, dp=1, zero_stage=1)
RESUME_AT = 20
TOTAL = 40


def test_fig7_multiple_sources_to_single_target(benchmark, tmp_path):
    results = {}
    checkpoints = {}
    continuations = {}
    for i, source in enumerate(SOURCES):
        engine = make_engine(parallel=source)  # fixed seed: same init
        engine.train(RESUME_AT)
        ckpt = str(tmp_path / f"src{i}")
        engine.save_checkpoint(ckpt)
        checkpoints[source.describe()] = ckpt
        continuations[source.describe()] = loss_curve(engine, TOTAL - RESUME_AT)

    def resume_first():
        return resume_training(checkpoints[SOURCES[0].describe()], TARGET)

    benchmark.pedantic(resume_first, rounds=1, iterations=1)

    for source in SOURCES:
        engine = resume_training(checkpoints[source.describe()], TARGET)
        curve = loss_curve(engine, TOTAL - RESUME_AT)
        delta = check_loss_continuity(continuations[source.describe()], curve).max_delta
        results[source.describe()] = {
            "resumed_losses": curve,
            "max_delta_vs_own_continuation": delta,
        }
        assert delta <= PAPER_LOSS_BAND, source.describe()

    # all sources share the seed, so their resumed curves also agree
    curves = [r["resumed_losses"] for r in results.values()]
    cross = max(check_loss_continuity(curves[0], c).max_delta for c in curves[1:])
    assert cross <= 2 * PAPER_LOSS_BAND

    record_result(
        "fig7_multi_to_single",
        {
            "target": TARGET.describe(),
            "resume_at": RESUME_AT,
            "per_source": results,
            "cross_source_max_delta": cross,
        },
    )
