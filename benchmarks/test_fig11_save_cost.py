"""Fig 11 — checkpoint saving cost: standard vs UCP-enabled training.

The paper's claim: UCP adds **zero** save-time overhead, because the
input to UCP is the ordinary distributed checkpoint that training
already writes — conversion happens lazily, only on a topology change.
We measure save wall-time and bytes for three model sizes with UCP
disabled and enabled, as alternating pairs into fresh directories
(:func:`bench_util.time_alternating`); the code path is identical — the
staged save of ``repro.ckpt.saver`` — and the two sides' medians cannot
be told apart by more than their own spread.
"""

import os
import shutil

from repro.dist.topology import ParallelConfig
from repro.core.resume import resume_training
from repro.storage.store import resolve_workers

from bench_util import make_engine, median_and_iqr, record_result, time_alternating

MODELS = ["gpt3-small-bench", "gpt3-medium-bench", "gpt3-large-bench"]
PARALLEL = ParallelConfig(tp=2, pp=2, dp=2)
PAIRS = 8


def _side(times):
    median, iqr = median_and_iqr(times)
    return {
        "median_s": round(median, 4),
        "iqr_s": round(iqr, 4),
        "samples_s": [round(t, 4) for t in times],
    }


def test_fig11_save_cost(benchmark, tmp_path):
    rows = []
    for model in MODELS:
        # standard training run: checkpoints, never converts
        standard = make_engine(model, parallel=PARALLEL)
        standard.train(1)
        # UCP-enabled run: same save call; conversion deferred to resume
        ucp_run = make_engine(model, parallel=PARALLEL)
        ucp_run.train(1)
        std_dir, ucp_dir = str(tmp_path / f"{model}-std"), str(tmp_path / f"{model}-ucp")
        infos = {}

        def save(engine, directory):
            infos[directory] = engine.save_checkpoint(directory)

        sides = [
            (lambda: save(standard, std_dir), []),
            (lambda: save(ucp_run, ucp_dir), []),
        ]
        for pair in range(PAIRS):
            # whichever side runs second in a pair follows a durable
            # write of the whole checkpoint: take turns going first
            (first, first_s), (second, second_s) = (
                sides if pair % 2 == 0 else sides[::-1]
            )
            one_first, one_second = time_alternating(first, second, 1)
            first_s += one_first
            second_s += one_second
            if pair == PAIRS - 1:
                # ... later, a resume elsewhere converts; the saves above
                # already happened and their cost is fixed
                resume_training(ucp_dir, ParallelConfig(dp=2))
            # every timed save lands in a fresh directory
            shutil.rmtree(std_dir)
            shutil.rmtree(ucp_dir)

        std_info, ucp_info = infos[std_dir], infos[ucp_dir]
        std_s, ucp_s = sides[0][1], sides[1][1]
        assert ucp_info.total_bytes == std_info.total_bytes
        assert len(ucp_info.files) == len(std_info.files)
        row = {
            "model": model,
            "bytes": std_info.total_bytes,
            "simulated_nvme_write_s": round(std_info.simulated_write_s, 4),
            "pairs": PAIRS,
            "standard_save_s": _side(std_s),
            "ucp_enabled_save_s": _side(ucp_s),
        }
        row["ratio"] = round(
            row["ucp_enabled_save_s"]["median_s"] / row["standard_save_s"]["median_s"], 3
        )
        rows.append(row)

    # benchmark the largest model's save path precisely
    big = make_engine(MODELS[-1], parallel=PARALLEL)
    big.train(1)
    counter = [0]

    def save_once():
        counter[0] += 1
        return big.save_checkpoint(str(tmp_path / f"bench-{counter[0]}"))

    benchmark.pedantic(save_once, rounds=3, iterations=1)

    record_result(
        "fig11_save_cost",
        {
            "parallel": PARALLEL.describe(),
            "rows": rows,
            "code_path": "staged save (repro.ckpt.saver): encode (header block, "
                         "pads, views of the arrays' own buffers) + SHA-256 on a "
                         "fan-out, rank-order staging of the parts on the calling "
                         "thread, write-behind publish on storage.store.CommitPool; "
                         "both sides call the same engine.save_checkpoint",
            "environment": {
                "cpus": os.cpu_count(),
                "save_width": resolve_workers(None),
                "durable": os.environ.get("REPRO_DURABLE", "1") != "0",
            },
            "claim": "UCP-enabled saving writes byte-identical checkpoints "
                     "through the identical code path (zero overhead): the "
                     "medians differ by less than the two sides' IQRs",
        },
    )

    # identical code path => identical bytes; the medians must sit inside
    # the band the run itself measured, not inside a constant
    for row in rows:
        std, ucp = row["standard_save_s"], row["ucp_enabled_save_s"]
        assert abs(ucp["median_s"] - std["median_s"]) <= std["iqr_s"] + ucp["iqr_s"], row
