"""Provenance-checker smoke: header-only cost at benchmark scale.

The byte-provenance pass claims to prove coverage, exclusivity, and
padding hygiene for a whole conversion plan without reading a single
tensor payload.  This gate makes the claim measurable: it runs the full
source + target proof over a benchmark-scale checkpoint and records the
wall time and exact bytes of IO, asserting the reads stay in kilobytes
while the checkpoint payload is megabytes.
"""

import time

from repro.analysis import analyze_interchange
from repro.dist.topology import ParallelConfig
from repro.storage.store import ObjectStore

from bench_util import make_engine, record_result

SOURCE = ParallelConfig(tp=2, pp=2, dp=2, sp=1, zero_stage=1)
TARGET = ParallelConfig(tp=1, pp=1, dp=4, sp=1, zero_stage=2)


def test_provenance_smoke(tmp_path):
    engine = make_engine("gpt3-mini", parallel=SOURCE)
    engine.train(1)
    directory = str(tmp_path / "ckpt")
    info = engine.save_checkpoint(directory)

    # a fresh store so the counters measure the checker's IO alone
    store = ObjectStore(directory)
    start = time.perf_counter()
    analysis = analyze_interchange(directory, TARGET, store=store)
    wall_s = time.perf_counter() - start

    assert analysis.report.ok, analysis.report.render_text()
    params_proven = len(analysis.specs)
    assert params_proven > 0

    payload_bytes = info.total_bytes
    bytes_read = store.bytes_read
    # the header-only contract, as numbers: kilobytes of reads against a
    # megabyte-scale checkpoint
    assert bytes_read < 256 * 1024, f"read {bytes_read} bytes"
    assert bytes_read * 4 < payload_bytes, (
        f"read {bytes_read} of {payload_bytes} payload bytes"
    )

    record_result(
        "analysis_provenance_smoke",
        {
            "source": SOURCE.describe(),
            "target": TARGET.describe(),
            "params_proven": params_proven,
            "checkpoint_bytes": payload_bytes,
            "provenance_bytes_read": bytes_read,
            "read_fraction": round(bytes_read / payload_bytes, 6),
            "wall_seconds": round(wall_s, 4),
            "clean": True,
        },
    )
