"""Extension — expert parallelism as a new UCP pattern (paper §5).

The paper's future work calls for "extensible patterns for emerging
parallelism strategies".  This benchmark exercises the repository's
demonstration of that claim: MoE expert tensors sharded along the
*expert axis* (DeepSpeed-MoE layout) — a pattern the original Fig 5
does not cover — converting to and from the tensor-sliced layout.
"""

from repro.core.atom import AtomStore
from repro.core.resume import resume_training
from repro.dist.topology import ParallelConfig

from bench_util import (
    PAPER_LOSS_BAND,
    check_loss_continuity,
    loss_curve,
    make_engine,
    record_result,
)

EP_SOURCE = ParallelConfig(tp=2, pp=2, dp=2, expert_parallel=True)
TS_TARGET = ParallelConfig(tp=2, pp=1, dp=2, expert_parallel=False)
EP_TARGET = ParallelConfig(tp=1, pp=2, dp=2, expert_parallel=True)
RESUME_AT = 10
TOTAL = 20


def test_ext_expert_parallel(benchmark, tmp_path):
    source = make_engine("moe-mini", parallel=EP_SOURCE)
    source.train(RESUME_AT)
    ckpt = str(tmp_path / "ckpt")
    source.save_checkpoint(ckpt)
    baseline = loss_curve(source, TOTAL - RESUME_AT)

    engine = benchmark.pedantic(
        lambda: resume_training(ckpt, TS_TARGET), rounds=1, iterations=1
    )
    to_tensor_sliced = loss_curve(engine, TOTAL - RESUME_AT)
    to_ep = loss_curve(resume_training(ckpt, EP_TARGET), TOTAL - RESUME_AT)

    deltas = {
        "ep->tensor_sliced": check_loss_continuity(baseline, to_tensor_sliced).max_delta,
        "ep->ep_new_shape": check_loss_continuity(baseline, to_ep).max_delta,
    }
    for name, delta in deltas.items():
        assert delta <= PAPER_LOSS_BAND, name

    # atoms are layout-free: the expert tensor is consolidated 3-dim
    atoms = AtomStore(str(tmp_path / "ckpt/ucp_global_step10"))
    expert = atoms.read_state("blocks.0.ffn.up_weight", "fp32")
    cfg = source.model_cfg
    assert expert.shape == (cfg.num_experts, cfg.intermediate, cfg.hidden)

    record_result(
        "ext_expert_parallel",
        {
            "source": EP_SOURCE.describe(),
            "targets": {name: float(d) for name, d in deltas.items()},
            "expert_atom_shape": list(expert.shape),
            "note": "a pattern added after the fact (expert_parallel) "
                    "interoperates with every existing layout through the "
                    "same atoms",
        },
    )
