"""BENCH_interleave — cost of running one schedule under the explorer.

Three measurements keep the cooperative scheduler honest:

* **plain_s**: two conversion workers at production granularity
  (overlapping planned sets of 4 MiB source files through the real
  source-file table, 1 MiB slices) run serially with nothing attached
  — the context number.
* **witnessed_s**: the same workload with the hook slot active — a
  subscriber that handles no event on the ``fs`` role — so every hook
  site builds and delivers its event the way it does under the
  explorer (store ops reach the scheduler through the slot itself, no
  FS trace), with no checker behind it.
* **controlled_s**: the full :func:`interleave.run_schedule` — park
  every thread at every yield point, dispatch serially, record the
  trace.  The gate: ``controlled_s / witnessed_s <= MAX_OVERHEAD``,
  i.e. the scheduler machinery proper adds at most 30% on top of the
  instrumentation the run needs anyway.  Yield-point handoffs are two
  ``Event`` round trips (~tens of µs); at production window sizes they
  amortize into the real IO/digest work between them.

Off-mode, the whole subsystem must vanish: outside ``run_schedule``
nothing is subscribed to the hook slot (``repro.obs``), and every hook
site is one module-global load plus a truthiness check.  The
micro-ratio budget is loose on
purpose — it exists to catch an accidental always-on regression
(unconditional stack capture or event recording is ~100x), not to
police nanoseconds.
"""

import os
import time

from repro import obs
from repro.analysis import interleave
from repro.storage.rangeio import BlockCache, RangeReader
from repro.storage.store import ObjectStore

from bench_util import record_result

MB = 1 << 20
FILE_BYTES = 4 * MB
WINDOW_BYTES = MB
PLANS = (("a.bin", "b.bin"), ("b.bin", "c.bin"))
REPEATS = 4
MAX_OVERHEAD = 1.3
MAX_OFF_MODE_RATIO = 10.0
OFF_CALLS = 200_000


def _best_of(fn, repeats=REPEATS):
    """Min-of-N wall time: the least-noise estimator for short runs."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_scenario(root) -> interleave.Scenario:
    """The ``source-files`` shape at production granularity: two
    workers whose planned file sets overlap take, load (verified),
    slice and release their files one at a time through one table,
    each publishing an atom."""
    src = ObjectStore(os.path.join(root, "src"), durable=False)
    for name in "abc":
        src.put_bytes(f"{name}.bin", interleave._blob(0, name, FILE_BYTES))
    dst_root = os.path.join(root, "dst")
    slices = [(off, WINDOW_BYTES) for off in range(0, FILE_BYTES, WINDOW_BYTES)]

    def fresh() -> interleave.RunCase:
        dst = ObjectStore(dst_root, durable=False)
        table = BlockCache({"a.bin": 1, "b.bin": 2, "c.bin": 1}, buffers=3)
        reader = RangeReader(src, table, lambda r, rel: r.digest(rel))

        def worker(index: int):
            def run() -> None:
                # file by file, as the table hands them out; a file's
                # slices are copied out before it is released (its
                # buffer may take another file next)
                parts = {}
                left = list(PLANS[index])
                while left:
                    rel = reader.next_ready(left)
                    left.remove(rel)
                    parts[rel] = b"".join(reader.read_multi(rel, slices))
                    table.release(rel)
                dst.put_bytes(
                    f"atom{index}.bin", b"".join(parts[rel] for rel in PLANS[index])
                )

            return run

        return interleave.RunCase(
            threads=[worker(0), worker(1)],
            fingerprint=lambda: (
                dst.digest("atom0.bin") + dst.digest("atom1.bin")
            ),
        )

    return interleave.Scenario("bench-source-files", fresh)


def test_interleave_overhead_within_budget(benchmark, tmp_path):
    scen = _bench_scenario(str(tmp_path))

    def plain():
        case = scen.fresh()
        for fn in case.threads:
            fn()
        case.fingerprint()
        case.cleanup()

    def witnessed():
        with obs.subscribed("fs", object()):
            plain()

    def controlled():
        interleave.run_schedule(scen.fresh())

    # the fingerprints must agree before any timing means anything
    case = scen.fresh()
    for fn in case.threads:
        fn()
    serial_fp = case.fingerprint()
    case.cleanup()
    result = interleave.run_schedule(scen.fresh())
    assert result.fingerprint == serial_fp
    # and the controlled run really crossed the yield points
    kinds = {ev.kind for ev in result.trace}
    assert {"acquire", "release", "access", "fs"} <= kinds
    assert len(result.trace) > 50

    witnessed()  # extra warmup (plain/controlled warmed above)
    plain_s = _best_of(plain)
    witnessed_s = _best_of(witnessed)
    controlled_s = _best_of(controlled)
    ratio = controlled_s / witnessed_s

    benchmark.pedantic(controlled, rounds=1, iterations=1)

    # off-mode micro: a yield point with nothing subscribed to the one
    # slot is a global load + truthiness check around a no-op
    assert obs._ACTIVE == ()

    def baseline():
        for _ in range(OFF_CALLS):
            pass

    def hooked():
        for _ in range(OFF_CALLS):
            interleave.access("bench")

    baseline_s = _best_of(lambda: baseline())
    hooked_s = _best_of(lambda: hooked())
    off_ratio = hooked_s / max(baseline_s, 1e-9)

    record_result(
        "BENCH_interleave",
        {
            "workload": {
                "source_bytes": 3 * FILE_BYTES,
                "window_bytes": WINDOW_BYTES,
                "threads": 2,
                "trace_events": len(result.trace),
            },
            "repeats": REPEATS,
            "plain_s": round(plain_s, 4),
            "witnessed_s": round(witnessed_s, 4),
            "controlled_s": round(controlled_s, 4),
            "overhead_ratio": round(ratio, 3),
            "budget_ratio": MAX_OVERHEAD,
            "off_mode_calls": OFF_CALLS,
            "off_mode_ratio": round(off_ratio, 2),
            "off_mode_budget_ratio": MAX_OFF_MODE_RATIO,
        },
    )
    assert ratio <= MAX_OVERHEAD, (
        f"controlled schedule costs {ratio:.2f}x the witnessed run "
        f"(budget {MAX_OVERHEAD}x): {controlled_s:.3f}s vs "
        f"{witnessed_s:.3f}s over {len(result.trace)} yield points"
    )
    assert off_ratio <= MAX_OFF_MODE_RATIO, (
        f"inactive yield point costs {off_ratio:.1f}x an empty loop "
        f"body (budget {MAX_OFF_MODE_RATIO}x): the empty-slot fast "
        f"path regressed"
    )


def test_interleave_off_mode_is_inert():
    """Outside a controlled run nothing is subscribed: no controller
    exists, and a hook call leaves no trace behind."""
    assert obs.current("sched") is None and obs._ACTIVE == ()
    interleave.access("off-mode", write=True)
    assert obs.current("sched") is None and obs._ACTIVE == ()
