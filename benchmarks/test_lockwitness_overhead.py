"""BENCH_lockwitness_overhead — cost of the runtime lock witness.

Two budgets keep the witness honest:

* **Active overhead**: a representative threaded-IO workload — a
  ``ucp_convert`` whose reader and source-file-table locks are all
  witnessed — run with and without a strict :func:`lockcheck` active
  must cost at most ``MAX_OVERHEAD``x the plain run, median against
  median over alternating plain/witnessed runs (the CI ``checked``
  job keeps the witness on under ``REPRO_SANITIZE=1`` only while this
  holds).
* **Off-mode cost**: with nothing subscribed to the one hook slot
  (``repro.obs``) a :class:`WitnessedLock` must stay a near-free
  wrapper (one ``obs._ACTIVE`` truthiness check around a plain lock).  The micro-ratio budget is deliberately loose — it
  exists to catch an accidental always-on instrumentation regression
  (unconditional stack capture is ~100x), not to police nanoseconds.
"""

import time

from repro import obs
from repro.analysis.lockwitness import lockcheck
from repro.ckpt.saver import save_distributed_checkpoint
from repro.core.convert import ucp_convert
from repro.dist.topology import ParallelConfig

from bench_util import (
    make_engine,
    median_and_iqr,
    record_result,
    time_alternating,
)

PARALLEL = ParallelConfig(tp=2, pp=1, dp=2, zero_stage=1)
REPEATS = 9
MAX_OVERHEAD = 1.3
MAX_OFF_MODE_RATIO = 40.0
ACQUIRES = 20_000


def _best_of(fn, repeats=3):
    """Min-of-N wall time: the least-noise estimator for a micro loop."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_lockwitness_overhead_within_budget(benchmark, tmp_path):
    engine = make_engine(parallel=PARALLEL)
    engine.train(2)
    ckpt = tmp_path / "ckpt"
    save_distributed_checkpoint(engine, str(ckpt))
    runs = [0]

    def _convert():
        runs[0] += 1
        ucp_convert(str(ckpt), str(tmp_path / f"ucp{runs[0]}"), workers=2)

    def witnessed():
        with lockcheck(strict=True):
            _convert()

    # a warmup of each before timing
    _convert()
    witnessed()
    plain_times, witnessed_times = time_alternating(_convert, witnessed, REPEATS)
    plain_s, plain_iqr = median_and_iqr(plain_times)
    witnessed_s, witnessed_iqr = median_and_iqr(witnessed_times)
    ratio = witnessed_s / plain_s

    benchmark.pedantic(witnessed, rounds=1, iterations=1)

    # off-mode micro: an unwitnessed WitnessedLock vs a plain lock
    import threading

    assert obs._ACTIVE == ()
    wlock, plock = obs.make_lock("bench"), threading.Lock()

    def spin(lock):
        for _ in range(ACQUIRES):
            with lock:
                pass

    plain_acquire_s = _best_of(lambda: spin(plock))
    off_acquire_s = _best_of(lambda: spin(wlock))
    off_ratio = off_acquire_s / plain_acquire_s

    record_result(
        "BENCH_lockwitness_overhead",
        {
            "workload": {
                "parallel": PARALLEL.describe(),
                "convert": "streaming",
                "workers": 2,
            },
            "repeats": REPEATS,
            "plain_s": round(plain_s, 4),
            "plain_iqr_s": round(plain_iqr, 4),
            "witnessed_s": round(witnessed_s, 4),
            "witnessed_iqr_s": round(witnessed_iqr, 4),
            "overhead_ratio": round(ratio, 3),
            "budget_ratio": MAX_OVERHEAD,
            "off_mode_acquires": ACQUIRES,
            "off_mode_ratio": round(off_ratio, 2),
            "off_mode_budget_ratio": MAX_OFF_MODE_RATIO,
        },
    )
    assert ratio <= MAX_OVERHEAD, (
        f"strict lock witness costs {ratio:.2f}x the plain run "
        f"(budget {MAX_OVERHEAD}x): {witnessed_s:.3f}s vs {plain_s:.3f}s"
    )
    assert off_ratio <= MAX_OFF_MODE_RATIO, (
        f"inactive WitnessedLock costs {off_ratio:.1f}x a plain lock "
        f"(budget {MAX_OFF_MODE_RATIO}x): the empty-slot fast "
        f"path regressed"
    )


def test_lockwitness_checks_actually_ran(tmp_path):
    """Guard the benchmark itself: the witnessed conversion must cross
    lock and accessor hooks, or the timing is meaningless."""
    engine = make_engine(parallel=PARALLEL)
    engine.train(1)
    ckpt = tmp_path / "ckpt"
    save_distributed_checkpoint(engine, str(ckpt))
    with lockcheck(strict=True) as w:
        ucp_convert(str(ckpt), str(tmp_path / "ucp"), workers=2)
    assert w.checks > 0
    kinds = {e[2] for e in w.to_payload()["events"]}
    assert {"acquire", "release", "access"} <= kinds
