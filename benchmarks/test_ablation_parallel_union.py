"""Ablation — parallelism in Extract/Union (paper Table 2 note).

"The Union operation can execute in parallel at individual parameter
level.  More parallelism leads to faster speed but is also more memory
intensive."  We sweep the converter's worker count and record wall time
per setting, verifying the outputs are identical regardless of the
worker count.
"""

import time

import numpy as np

from repro.core.atom import AtomStore
from repro.core.convert import ucp_convert
from repro.dist.topology import ParallelConfig

from bench_util import make_engine, record_result

WORKER_COUNTS = [0, 2, 4, 8]


def test_ablation_parallel_union(benchmark, tmp_path):
    src = make_engine("gpt3-medium-bench", parallel=ParallelConfig(tp=2, pp=2, dp=2))
    src.train(1)
    ckpt = str(tmp_path / "ckpt")
    src.save_checkpoint(ckpt)

    rows = []
    outputs = {}
    for workers in WORKER_COUNTS:
        out = str(tmp_path / f"ucp-w{workers}")
        start = time.perf_counter()
        report = ucp_convert(ckpt, out, workers=workers)
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "workers": workers,
                "wall_s": round(elapsed, 4),
                **{
                    f"{stage}_s": round(seconds, 4)
                    for stage, seconds in report.stage_seconds.items()
                },
            }
        )
        outputs[workers] = out

    # correctness is worker-count invariant
    base = AtomStore(outputs[0])
    for workers in WORKER_COUNTS[1:]:
        other = AtomStore(outputs[workers])
        assert base.list_atoms() == other.list_atoms()
        for name in base.list_atoms()[:10]:
            assert np.array_equal(
                base.read_state(name, "fp32"), other.read_state(name, "fp32")
            )

    benchmark.pedantic(
        lambda: ucp_convert(ckpt, str(tmp_path / "bench"), workers=4),
        rounds=1, iterations=1,
    )

    record_result("ablation_parallel_union", {"rows": rows})
