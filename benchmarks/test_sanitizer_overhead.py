"""BENCH_sanitizer_overhead — cost of the strict memory sanitizer.

The sanitizer now sits on every isolation boundary of the simulated
cluster, including the engine's DP gradient-sync path (UCP025 checks
on every ``train_step``).  That only stays on by default in CI if it
is cheap: this benchmark times a representative workload — training
steps on a TP×DP ZeRO-1 engine plus a checkpoint save — with and
without a strict sanitizer active, and fails if the sanitized median
costs more than ``MAX_OVERHEAD``× the plain one.  Plain and sanitized
runs alternate so order effects (warm caches, allocator growth) land on
both sides.  The plain side is the off-mode cost of every hook site:
one ``obs._ACTIVE`` truthiness check with nothing subscribed.
"""

from repro import obs
from repro.analysis.sanitizer import sanitize
from repro.ckpt.saver import save_distributed_checkpoint
from repro.dist.topology import ParallelConfig

from bench_util import (
    make_engine,
    median_and_iqr,
    record_result,
    time_alternating,
)

PARALLEL = ParallelConfig(tp=2, pp=1, dp=2, zero_stage=1)
STEPS = 8
REPEATS = 9
MAX_OVERHEAD = 1.3


def _workload(tmp_path, label):
    engine = make_engine(parallel=PARALLEL)
    engine.train(STEPS)
    save_distributed_checkpoint(engine, str(tmp_path / label))


def test_sanitizer_overhead_within_budget(benchmark, tmp_path):
    runs = [0]

    def plain():
        assert obs._ACTIVE == ()  # really plain: the one slot is empty
        runs[0] += 1
        _workload(tmp_path, f"plain{runs[0]}")

    def sanitized():
        runs[0] += 1
        with sanitize(strict=True):
            _workload(tmp_path, f"san{runs[0]}")

    # a warmup of each before timing
    plain()
    sanitized()
    plain_times, sanitized_times = time_alternating(plain, sanitized, REPEATS)
    plain_s, plain_iqr = median_and_iqr(plain_times)
    sanitized_s, sanitized_iqr = median_and_iqr(sanitized_times)
    ratio = sanitized_s / plain_s

    benchmark.pedantic(sanitized, rounds=1, iterations=1)

    record_result(
        "BENCH_sanitizer_overhead",
        {
            "workload": {
                "parallel": PARALLEL.describe(),
                "steps": STEPS,
                "save": True,
            },
            "repeats": REPEATS,
            "plain_s": round(plain_s, 4),
            "plain_iqr_s": round(plain_iqr, 4),
            "sanitized_s": round(sanitized_s, 4),
            "sanitized_iqr_s": round(sanitized_iqr, 4),
            "overhead_ratio": round(ratio, 3),
            "budget_ratio": MAX_OVERHEAD,
        },
    )
    assert ratio <= MAX_OVERHEAD, (
        f"strict sanitizer costs {ratio:.2f}x the plain run "
        f"(budget {MAX_OVERHEAD}x): {sanitized_s:.3f}s vs {plain_s:.3f}s"
    )


def test_sanitizer_checks_actually_ran(tmp_path):
    """Guard the benchmark itself: the sanitized workload must cross
    the collective boundary on every step, or the timing is meaningless."""
    with sanitize(strict=True) as san:
        _workload(tmp_path, "probe")
    assert san.checks > STEPS
