"""Table 3 — detailed training losses across the full target grid.

The paper's table resumes the TP=2/PP=2/DP=2 (ZeRO-1) GPT checkpoint
under eleven target strategies and reports LM loss at iterations 101,
120, 140, 160, 180, 200; all rows stay within 0.02 of the baseline.
We reproduce the same eleven-row grid at mini scale (resume at 20,
sample every 4 iterations to 40).
"""


from repro.core.resume import resume_training
from repro.dist.continuity import assert_loss_continuity
from repro.dist.topology import ParallelConfig

from bench_util import (
    PAPER_LOSS_BAND,
    loss_curve,
    make_engine,
    record_result,
)

SOURCE = ParallelConfig(tp=2, pp=2, dp=2, zero_stage=1)

# the eleven Target rows of Table 3: (tp, pp, dp, sp, zero_stage)
TABLE3_TARGETS = [
    (2, 2, 2, 1, 1),
    (1, 1, 1, 1, 1),
    (1, 2, 2, 1, 1),
    (2, 1, 1, 1, 1),
    (1, 1, 2, 2, 1),
    (2, 1, 2, 1, 1),
    (2, 2, 1, 1, 1),
    (1, 1, 4, 1, 2),
    (2, 1, 2, 1, 2),
    (1, 1, 2, 1, 3),
    (1, 1, 4, 1, 3),
]
RESUME_AT = 20
TOTAL = 40
SAMPLE_EVERY = 4


def test_table3_loss_grid(benchmark, tmp_path):
    source = make_engine(parallel=SOURCE)
    source.train(RESUME_AT)
    ckpt = str(tmp_path / "ckpt")
    source.save_checkpoint(ckpt)
    baseline = loss_curve(source, TOTAL - RESUME_AT)
    sample_idx = list(range(0, TOTAL - RESUME_AT, SAMPLE_EVERY))

    rows = []

    def run_row(spec):
        tp, pp, dp, sp, zero = spec
        target = ParallelConfig(tp=tp, pp=pp, dp=dp, sp=sp, zero_stage=zero)
        engine = resume_training(ckpt, target)
        curve = loss_curve(engine, TOTAL - RESUME_AT)
        return target, curve

    # benchmark one representative row end-to-end (resume + train)
    benchmark.pedantic(lambda: run_row(TABLE3_TARGETS[1]), rounds=1, iterations=1)

    worst = 0.0
    for spec in TABLE3_TARGETS:
        target, curve = run_row(spec)
        # the same library check the elastic supervisor applies after
        # every recovery — raises ContinuityError outside the band
        report = assert_loss_continuity(
            baseline, curve, context=target.describe()
        )
        worst = max(worst, report.max_delta)
        rows.append(
            {
                "target": f"{spec[0]}/{spec[1]}/{spec[2]}/{spec[3]}",
                "zero": spec[4],
                "losses": {
                    f"iter_{RESUME_AT + i + 1}": curve[i] for i in sample_idx
                },
                "max_delta_vs_baseline": report.max_delta,
            }
        )

    record_result(
        "table3_loss_grid",
        {
            "source": SOURCE.describe(),
            "baseline_losses": {
                f"iter_{RESUME_AT + i + 1}": baseline[i] for i in sample_idx
            },
            "rows": rows,
            "worst_delta": worst,
            "paper_band": PAPER_LOSS_BAND,
        },
    )
