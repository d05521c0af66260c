"""Checkpoint strategies side by side on one node loss.

The paper's Fig 1 story with the three strategies this repository
implements: an 8-GPU job checkpoints, a node failure leaves 4
survivors, and each strategy tries to continue on them.

* standard distributed checkpoint — cheap to save, but the strict
  loader refuses the shrunk topology;
* consolidated single file — loads on any topology, but every save
  first all-gathers the whole model through one rank;
* UCP — saves the same distributed checkpoint, then converts it and
  resumes on the survivors.

Run:  python examples/checkpoint_strategies.py
"""

import tempfile
import time

from repro import (
    CheckpointIncompatibleError,
    ParallelConfig,
    TrainingEngine,
    get_config,
    resume_training,
)
from repro.ckpt.consolidated import (
    load_consolidated_checkpoint,
    save_consolidated_checkpoint,
)


def _gathered_bytes(engine) -> int:
    return sum(
        r.bytes_per_rank * r.group_size
        for r in engine.cluster.tracker.records if r.op == "all_gather"
    )


def main() -> None:
    model_cfg = get_config("gpt3-mini")

    def build(topology):
        return TrainingEngine(
            model_cfg, topology, seed=7, global_batch_size=8, seq_len=32,
        )

    with tempfile.TemporaryDirectory() as workdir:
        source = ParallelConfig(tp=2, pp=2, dp=2, zero_stage=1)
        survivors = ParallelConfig(tp=2, pp=2, dp=1, zero_stage=1)
        engine = build(source)
        engine.train(10)
        print(f"training gpt3-mini on {source.world_size} GPUs "
              f"({source.describe()}); checkpointing at iteration 10\n")

        start = time.perf_counter()
        engine.save_checkpoint(f"{workdir}/dist")
        dist_save_s = time.perf_counter() - start

        gathered_before = _gathered_bytes(engine)
        start = time.perf_counter()
        written = save_consolidated_checkpoint(engine, f"{workdir}/consolidated")
        cons_save_s = time.perf_counter() - start
        gathered = _gathered_bytes(engine) - gathered_before

        print("save cost:")
        print(f"  standard distributed:  {dist_save_s * 1e3:7.1f} ms "
              f"({source.world_size} ranks write their own shards)")
        print(f"  consolidated file:     {cons_save_s * 1e3:7.1f} ms "
              f"(all-gather of {gathered / 1e6:.1f} MB, "
              f"then one rank writes {written / 1e6:.1f} MB)")
        print(f"  UCP:                   {dist_save_s * 1e3:7.1f} ms "
              f"(the standard checkpoint; conversion waits for a restart)")

        print(f"\nfailure: a node dies, {survivors.world_size} survivors "
              f"({survivors.describe()})")
        print("restart time:")

        start = time.perf_counter()
        try:
            build(survivors).load_checkpoint(f"{workdir}/dist")
        except CheckpointIncompatibleError as exc:
            fail_s = time.perf_counter() - start
            print(f"  standard distributed:  refused after "
                  f"{fail_s * 1e3:.1f} ms — {exc}")

        start = time.perf_counter()
        restored = build(survivors)
        load_consolidated_checkpoint(restored, f"{workdir}/consolidated")
        cons_load_s = time.perf_counter() - start
        print(f"  consolidated file:     {cons_load_s * 1e3:7.1f} ms "
              f"(resumes at iteration {restored.iteration})")

        start = time.perf_counter()
        shrunk = resume_training(f"{workdir}/dist", survivors)
        ucp_s = time.perf_counter() - start
        print(f"  UCP resume:            {ucp_s * 1e3:7.1f} ms "
              f"(convert + load, resumes at iteration {shrunk.iteration} "
              f"on {shrunk.parallel_cfg.describe()})")

        loss = shrunk.train(1)[0].loss
        print(f"\nUCP job keeps training on the survivors: loss {loss:.4f}")


if __name__ == "__main__":
    main()
