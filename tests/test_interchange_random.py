"""Property-based interchange: random source -> target topology pairs.

The paper's Fig 2 claim, sampled instead of enumerated: for *any*
source and target drawn from the (tp, pp, dp, sp, zero_stage) space,
save -> convert -> load reproduces the optimizer state exactly.  The
sample is seeded for reproducibility; override via environment to
re-roll or widen the sweep::

    UCP_INTERCHANGE_SEED=123 UCP_INTERCHANGE_PAIRS=50 pytest tests/test_interchange_random.py
"""

import os

import numpy as np
import pytest

from repro.core.convert import ucp_convert
from repro.dist.topology import ParallelConfig

from tests.helpers import assert_rank_isolated, make_engine

SEED = int(os.environ.get("UCP_INTERCHANGE_SEED", "20250805"))
N_PAIRS = int(os.environ.get("UCP_INTERCHANGE_PAIRS", "25"))

MAX_WORLD = 8  # keep simulated rank counts test-sized


def _sample_config(rng: np.random.Generator) -> ParallelConfig:
    while True:
        zero = int(rng.choice([0, 1, 1, 2, 3]))
        if zero == 3:
            # ZeRO-3 shards parameters too; the repo models it for
            # pure-DP grids only (matching its validation rule)
            cfg = ParallelConfig(
                tp=1, pp=1, dp=int(rng.choice([2, 4])), sp=1, zero_stage=3
            )
        else:
            cfg = ParallelConfig(
                tp=int(rng.choice([1, 2])),
                pp=int(rng.choice([1, 2, 4])),  # gpt3-mini has 4 layers
                dp=int(rng.choice([1, 2])),
                sp=int(rng.choice([1, 2])),
                zero_stage=zero,
            )
        if cfg.world_size <= MAX_WORLD:
            return cfg


def _sample_pairs():
    rng = np.random.default_rng(SEED)
    pairs = []
    while len(pairs) < N_PAIRS:
        source, target = _sample_config(rng), _sample_config(rng)
        if source != target:
            pairs.append((source, target))
    return pairs


PAIRS = _sample_pairs()


class TestRandomizedInterchange:
    @pytest.mark.parametrize(
        "source,target",
        PAIRS,
        ids=[f"{s.describe()}->{t.describe()}" for s, t in PAIRS],
    )
    def test_save_convert_load_is_exact(self, tmp_path, source, target):
        src = make_engine(parallel=source, seed=13)
        src.train(1)
        ckpt, ucp = str(tmp_path / "ckpt"), str(tmp_path / "ucp")
        src.save_checkpoint(ckpt)
        ucp_convert(ckpt, ucp)

        dst = make_engine(parallel=target, seed=0)
        dst.load_universal(ucp)
        for kind in ("fp32", "exp_avg"):
            a = src.zero.consolidated_tensors(kind)
            b = dst.zero.consolidated_tensors(kind)
            assert set(a) == set(b)
            for name in a:
                cut = tuple(
                    slice(0, d)
                    for d in src.layout.spec(name).unpadded_shape
                )
                assert np.array_equal(a[name][cut], b[name][cut]), (
                    f"{source.describe()} -> {target.describe()}: "
                    f"{kind}/{name} diverged"
                )

        # isolation property: after the full train -> save -> convert ->
        # load cycle, no two simulated ranks of either engine share memory
        for engine in (src, dst):
            assert_rank_isolated(engine)
