"""BENCH_crash_enum — cost of the FS-op witness and crash enumerator.

Two claims keep the crash-consistency tooling usable:

* **Recording is cheap**: tracing every store file effect of a durable
  save (:func:`fstrace`) must cost at most ``MAX_RECORD_OVERHEAD``x the
  untraced save — the recorder is list appends plus one SHA-256 per
  write, and the fsyncs it records dwarf both.
* **Replay is exhaustive and bounded**: enumerating the crash states of
  a full save→convert trace at the default state budget must close
  (no UCP035: every content-distinct post-crash state is materialized),
  prove recovery from each of them, and finish within ``MAX_ENUM_S``
  seconds — the recorded row times the whole replay, not a truncated
  one.
"""

import os
import time

from repro.analysis.fswitness import DEFAULT_STATE_CAP, check_fs_trace, fstrace
from repro.ckpt.saver import save_distributed_checkpoint
from repro.core.convert import ucp_convert
from repro.dist.topology import ParallelConfig

from bench_util import make_engine, record_result

PARALLEL = ParallelConfig(tp=2, pp=1, dp=1)
REPEATS = 3
MAX_RECORD_OVERHEAD = 1.5
MAX_ENUM_S = 60.0


def _best_of(fn, repeats=REPEATS):
    """Min-of-N wall time: the least-noise estimator for short runs."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_crash_enum_smoke(benchmark, tmp_path):
    os.environ["REPRO_DURABLE"] = "1"
    try:
        engine = make_engine(parallel=PARALLEL)
        engine.train(1)
        runs = [0]

        def save_plain():
            runs[0] += 1
            save_distributed_checkpoint(
                engine, str(tmp_path / f"plain{runs[0]}")
            )

        def save_traced():
            runs[0] += 1
            with fstrace():
                save_distributed_checkpoint(
                    engine, str(tmp_path / f"traced{runs[0]}")
                )

        save_plain()  # warmup
        plain_s = _best_of(save_plain)
        traced_s = _best_of(save_traced)
        record_ratio = traced_s / plain_s

        # one full pipeline trace for the replay side
        ckpt = str(tmp_path / "ckpt")
        ucp = str(tmp_path / "ucp")
        with fstrace() as rec:
            save_distributed_checkpoint(engine, ckpt)
            ucp_convert(ckpt, ucp)

        start = time.perf_counter()
        report = benchmark.pedantic(
            lambda: check_fs_trace(rec),
            rounds=1, iterations=1,
        )
        enum_s = time.perf_counter() - start
    finally:
        os.environ.pop("REPRO_DURABLE", None)

    capped = [d for d in report.by_rule("UCP035")]
    record_result(
        "BENCH_crash_enum",
        {
            "workload": {
                "parallel": PARALLEL.describe(),
                "trace": "save + ucp_convert",
            },
            "repeats": REPEATS,
            "trace_ops": len(rec),
            "store_roots": rec.roots(),
            "save_plain_s": round(plain_s, 4),
            "save_traced_s": round(traced_s, 4),
            "record_overhead_ratio": round(record_ratio, 3),
            "record_budget_ratio": MAX_RECORD_OVERHEAD,
            "state_cap": DEFAULT_STATE_CAP,
            "enumeration_capped": bool(capped),
            "enum_s": round(enum_s, 3),
            "enum_budget_s": MAX_ENUM_S,
            "errors": len(report.errors),
        },
    )
    assert report.errors == [], report.render_text()
    assert record_ratio <= MAX_RECORD_OVERHEAD, (
        f"fstrace recording costs {record_ratio:.2f}x the plain durable "
        f"save (budget {MAX_RECORD_OVERHEAD}x): {traced_s:.3f}s vs "
        f"{plain_s:.3f}s"
    )
    assert enum_s <= MAX_ENUM_S, (
        f"exhaustive crash enumeration took {enum_s:.1f}s "
        f"(budget {MAX_ENUM_S:.0f}s)"
    )
    # the default budget closes this trace: the replay is the whole one
    assert not capped, report.render_text()
