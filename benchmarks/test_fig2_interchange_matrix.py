"""Fig 2/3 — UCP as a common interchange format.

The design argument: direct converters need N x (N-1) implementations;
UCP needs one converter per source (to UCP) and one loader per target
(from UCP).  We exercise the full Source x Target matrix through the
single UCP path and benchmark one complete convert+load.
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
    ParallelConfig(tp=2, pp=2, dp=2),
    ParallelConfig(tp=1, pp=1, dp=4, zero_stage=2),
    ParallelConfig(tp=1, pp=1, dp=2, zero_stage=3),
    ParallelConfig(tp=2, pp=1, dp=2, sp=1),
]
TARGETS = [
    ParallelConfig(tp=1, pp=1, dp=1),
    ParallelConfig(tp=2, pp=2, dp=1),
    ParallelConfig(tp=1, pp=2, dp=2),
    ParallelConfig(tp=1, pp=1, dp=4, zero_stage=2),
]


def test_fig2_interchange_matrix(benchmark, tmp_path):
    matrix = []
    baselines = {}
    checkpoints = {}
    for i, source in enumerate(SOURCES):
        engine = make_engine(parallel=source)
        engine.train(2)
        ckpt = str(tmp_path / f"src{i}")
        engine.save_checkpoint(ckpt)
        checkpoints[source.describe()] = ckpt
        baselines[source.describe()] = loss_curve(engine, 2)

    def convert_and_load_one():
        return resume_training(
            checkpoints[SOURCES[0].describe()], TARGETS[1],
            ucp_dir=str(tmp_path / "bench_ucp"),
        )

    benchmark.pedantic(convert_and_load_one, rounds=1, iterations=1)

    for source in SOURCES:
        for target in TARGETS:
            engine = resume_training(checkpoints[source.describe()], target)
            resumed = loss_curve(engine, 2)
            delta = check_loss_continuity(baselines[source.describe()], resumed).max_delta
            matrix.append(
                {
                    "source": source.describe(),
                    "target": target.describe(),
                    "max_loss_delta": delta,
                }
            )
            assert delta <= PAPER_LOSS_BAND, (source.describe(), target.describe())

    record_result(
        "fig2_interchange_matrix",
        {
            "pairs_tested": len(matrix),
            "converters_needed_direct": len(SOURCES) * (len(SOURCES) - 1),
            "converters_needed_ucp": 1,
            "matrix": matrix,
        },
    )
