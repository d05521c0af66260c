"""Fig 4 — the UCP workflow for ZeRO-3 (DP=4 source -> DP=2 target).

Follows the paper's figure exactly: a ZeRO-3 run on 4 GPUs saves flat
fp32 shards with alignment padding; Extract/Union build consolidated
atoms with padding stripped; GenUcpMetadata computes the DP=2 target
map with fresh padding; Load streams atoms into the 2-GPU flat buffers.
"""

import numpy as np

from repro.core.atom import AtomStore
from repro.core.convert import ucp_convert
from repro.core.loader import load_ucp_into_engine
from repro.core.ops import gen_ucp_metadata
from repro.dist.topology import ParallelConfig
from repro.models import get_config
from repro.parallel.layout import ModelParallelLayout

from bench_util import (
    PAPER_LOSS_BAND,
    check_loss_continuity,
    loss_curve,
    make_engine,
    record_result,
)

SOURCE = ParallelConfig(tp=1, pp=1, dp=4, zero_stage=3)
TARGET = ParallelConfig(tp=1, pp=1, dp=2, zero_stage=3)


def test_fig4_zero3_workflow(benchmark, tmp_path):
    src = make_engine(parallel=SOURCE)
    src.train(2)
    ckpt = str(tmp_path / "ckpt")
    info = src.save_checkpoint(ckpt)
    baseline = loss_curve(src, 3)

    # ZeRO-3 model states are flat per-dp partitions, not full tensors
    assert sum("zero3_dp_rank" in f for f in info.files) == 4

    ucp_dir = str(tmp_path / "ucp")
    report = benchmark.pedantic(
        lambda: ucp_convert(ckpt, ucp_dir) if not AtomStore(ucp_dir).list_atoms()
        else None,
        rounds=1, iterations=1,
    )

    # atoms are consolidated and padding-free
    store = AtomStore(ucp_dir)
    cfg = get_config("gpt3-mini")
    emb = store.read_state("embedding.weight", "fp32")
    assert emb.shape[0] == cfg.vocab_size

    # target metadata re-introduces alignment padding for the new width,
    # and the load plan writes zeros over exactly the padding:
    # StripPadding's vocabulary rows plus the alignment tail
    layout = ModelParallelLayout(cfg, TARGET)
    rank_layout = layout.rank_layout(0, 0, 0)
    assert rank_layout.flat_numel % (2 * rank_layout.alignment) == 0
    plan = gen_ucp_metadata(layout)
    stripped = sum(
        int(np.prod(spec.logical_shape)) - int(np.prod(spec.unpadded_shape))
        for spec in layout.shard_specs.values()
    )
    assert stripped > 0
    assert int(plan.zero_length.sum()) == stripped + rank_layout.padding

    dst = make_engine(parallel=TARGET, seed=0)
    load_ucp_into_engine(dst, ucp_dir)
    resumed = loss_curve(dst, 3)
    delta = check_loss_continuity(baseline, resumed).max_delta
    assert delta <= PAPER_LOSS_BAND

    record_result(
        "fig4_zero3_workflow",
        {
            "source": SOURCE.describe(),
            "target": TARGET.describe(),
            "source_rank_files": len(info.files),
            "baseline_losses": baseline,
            "resumed_losses": resumed,
            "max_loss_delta": delta,
        },
    )
