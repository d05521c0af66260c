"""End-to-end params_to_average: divergent replicas through real files.

The paper's fourth pattern covers SP/TP variants where some parameters
(typically norms) are updated independently per rank.  We simulate that
by diverging the norm-parameter values across SP ranks *inside the
saved checkpoint files*, then verify:

* the default (replicated) program refuses the checkpoint loudly;
* the ``average_replicas`` program consolidates by elementwise mean;
* the averaged checkpoint resumes within the paper's loss band.
"""

import numpy as np
import pytest

from repro.ckpt import manifest, naming
from repro.core.convert import ucp_convert
from repro.core.atom import AtomStore
from repro.core.errors import PatternMatchError
from repro.core.patterns import program_for_config
from repro.dist.topology import ParallelConfig
from repro.models import get_config
from repro.storage.store import ObjectStore

from tests.helpers import make_engine
from tests.reference_convert import assert_matches_reference

SOURCE = ParallelConfig(tp=1, pp=1, dp=2, sp=2)
NORM_NAME = "final_norm.weight"
PERTURBATION = 1e-3


def _perturb_norm_on_sp_rank(ckpt_dir: str, tag: str, sp_rank: int) -> np.ndarray:
    """Add deterministic noise to one SP rank's copy of the norm param
    in its optimizer-state files; returns the noise applied."""
    store = ObjectStore(ckpt_dir)
    mp_rank = sp_rank  # pp=1, tp=1 -> mp index == sp coordinate
    noise = None
    for dp_rank in range(SOURCE.dp):
        basename = naming.optim_states_name(dp_rank, mp_rank)
        rel = f"{tag}/{basename}"
        payload = store.load(rel)
        meta = payload["partition_meta"]
        segment = next(s for s in meta["segments"] if s["name"] == NORM_NAME)
        part_lo = dp_rank * meta["partition_numel"]
        part_hi = part_lo + meta["partition_numel"]
        lo = max(segment["offset"], part_lo)
        hi = min(segment["offset"] + segment["numel"], part_hi)
        if lo >= hi:
            store.save(rel, payload)
            manifest.refresh_entry(store, tag, basename)
            continue
        flat = payload["fp32_flat_partition"]
        gen = np.random.default_rng(sp_rank + 1)
        full_noise = (gen.standard_normal(segment["numel"]) * PERTURBATION).astype(
            np.float32
        )
        if noise is None:
            noise = full_noise
        flat[lo - part_lo : hi - part_lo] += full_noise[
            lo - segment["offset"] : hi - segment["offset"]
        ]
        store.save(rel, payload)
        # out-of-band edit: re-commit the manifest entry so integrity
        # checks reflect the perturbed content
        manifest.refresh_entry(store, tag, basename)
    return noise


@pytest.fixture
def diverged_checkpoint(tmp_path):
    engine = make_engine(parallel=SOURCE, seed=7)
    engine.train(3)
    ckpt = str(tmp_path / "ckpt")
    info = engine.save_checkpoint(ckpt)
    base_value = engine.zero.consolidated_tensors("fp32")[NORM_NAME].copy()
    noise = {
        sp: _perturb_norm_on_sp_rank(ckpt, info.tag, sp)
        for sp in range(SOURCE.sp)
    }
    return engine, ckpt, tmp_path, base_value, noise


class TestDivergedReplicas:
    def test_replicated_program_refuses(self, diverged_checkpoint):
        _, ckpt, tmp, _, _ = diverged_checkpoint
        with pytest.raises(PatternMatchError, match="params_to_average"):
            ucp_convert(ckpt, str(tmp / "ucp-strict"))

    def test_average_program_consolidates_by_mean(self, diverged_checkpoint):
        engine, ckpt, tmp, base_value, noise = diverged_checkpoint
        program = program_for_config(engine.model_cfg, average_replicas=True)
        ucp_convert(ckpt, str(tmp / "ucp-avg"), program=program)
        atom = AtomStore(str(tmp / "ucp-avg")).read_state(NORM_NAME, "fp32")
        expected = base_value + (noise[0] + noise[1]) / 2.0
        assert np.allclose(atom, expected, atol=1e-6)
        assert_matches_reference(str(tmp / "ucp-avg"), ckpt, program)

    def test_averaged_checkpoint_resumes_within_band(self, diverged_checkpoint):
        engine, ckpt, tmp, _, _ = diverged_checkpoint
        continued = [r.loss for r in engine.train(3)]

        program = program_for_config(engine.model_cfg, average_replicas=True)
        ucp_convert(ckpt, str(tmp / "ucp-avg"), program=program)
        target = make_engine(parallel=ParallelConfig(dp=2), seed=0)
        target.load_universal(str(tmp / "ucp-avg"))
        resumed = [r.loss for r in target.train(3)]
        deltas = [abs(a - b) for a, b in zip(continued, resumed)]
        # the 1e-3 perturbation moves the curve slightly; the paper's
        # 0.02 band is the acceptance criterion
        assert max(deltas) <= 0.02
