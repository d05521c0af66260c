"""Tests for the Megatron-classic per-parameter checkpoint layout.

A second on-disk source format: unpartitioned, per-tensor optimizer
states (what Megatron-LM writes without ZeRO).  UCP's Extract
dispatches on the schema, so both formats consolidate into identical
atoms — the one-converter-per-format property (paper §3.1).
"""

import re

import numpy as np
import pytest

from repro.ckpt import manifest as manifest_mod
from repro.ckpt.errors import CheckpointIncompatibleError
from repro.core.atom import AtomStore
from repro.core.convert import ucp_convert
from repro.core.resume import resume_training
from repro.dist.topology import ParallelConfig
from repro.storage.store import ObjectStore

from tests.helpers import make_engine

MEGATRON_STYLE = ParallelConfig(tp=2, pp=2, dp=2, zero_stage=0)


class TestSave:
    def test_one_optim_file_per_mp_rank(self, tmp_path):
        engine = make_engine(parallel=MEGATRON_STYLE)
        engine.train(1)
        info = engine.save_checkpoint(str(tmp_path), optimizer_layout="per_param")
        optim = [f for f in info.files if "optim_states" in f]
        assert len(optim) == 4  # one per mp rank, none per dp rank

    def test_payload_holds_per_tensor_states(self, tmp_path):
        engine = make_engine(parallel=MEGATRON_STYLE)
        engine.train(1)
        info = engine.save_checkpoint(str(tmp_path), optimizer_layout="per_param")
        store = ObjectStore(str(tmp_path))
        rel = next(f for f in info.files if "optim_states" in f)
        payload = store.load(rel)
        assert "param_states" in payload
        assert "fp32_flat_partition" not in payload
        fp32 = payload["param_states"]["fp32"]
        assert any(v.ndim == 2 for v in fp32.values())  # real tensor shapes

    def test_requires_zero_stage_0(self, tmp_path):
        engine = make_engine(parallel=ParallelConfig(dp=2, zero_stage=1))
        engine.train(1)
        with pytest.raises(ValueError, match="zero_stage=0"):
            engine.save_checkpoint(str(tmp_path), optimizer_layout="per_param")

    def test_unknown_layout_rejected(self, tmp_path):
        engine = make_engine()
        with pytest.raises(ValueError, match="optimizer_layout"):
            engine.save_checkpoint(str(tmp_path), optimizer_layout="columnar")


class TestStrictLoad:
    def test_bit_exact_resume(self, tmp_path):
        src = make_engine(parallel=MEGATRON_STYLE, seed=7)
        src.train(3)
        src.save_checkpoint(str(tmp_path), optimizer_layout="per_param")
        continued = [r.loss for r in src.train(2)]

        dst = make_engine(parallel=MEGATRON_STYLE, seed=0)
        dst.load_checkpoint(str(tmp_path))
        resumed = [r.loss for r in dst.train(2)]
        assert continued == resumed

    def test_zero_stage_change_requires_ucp(self, tmp_path):
        src = make_engine(parallel=MEGATRON_STYLE, seed=7)
        src.train(1)
        src.save_checkpoint(str(tmp_path), optimizer_layout="per_param")
        dst = make_engine(parallel=ParallelConfig(tp=2, pp=2, dp=2, zero_stage=1))
        with pytest.raises(CheckpointIncompatibleError, match="ZeRO stage"):
            dst.load_checkpoint(str(tmp_path))

    def test_narrowed_state_is_ucp020(self, tmp_path):
        """A per-parameter master stored as float16 is refused at its
        file, not widened back to float32 without a word."""
        src = make_engine(parallel=MEGATRON_STYLE, seed=7)
        src.train(1)
        info = src.save_checkpoint(str(tmp_path), optimizer_layout="per_param")
        store = ObjectStore(str(tmp_path))
        rel = next(f for f in info.files if "optim_states" in f)
        payload = store.load(rel)
        masters = payload["param_states"]["fp32"]
        name = sorted(masters)[0]
        masters[name] = masters[name].astype(np.float16)
        store.save(rel, payload)
        manifest_mod.refresh_entry(store, info.tag, rel.split("/")[-1])
        dst = make_engine(parallel=MEGATRON_STYLE, seed=0)
        with pytest.raises(
            CheckpointIncompatibleError, match=f"^{re.escape(rel)}: UCP020 "
        ):
            dst.load_checkpoint(str(tmp_path))

    def test_topology_change_fails(self, tmp_path):
        src = make_engine(parallel=MEGATRON_STYLE, seed=7)
        src.train(1)
        src.save_checkpoint(str(tmp_path), optimizer_layout="per_param")
        dst = make_engine(parallel=ParallelConfig(tp=1, pp=1, dp=1, zero_stage=0))
        with pytest.raises(CheckpointIncompatibleError):
            dst.load_checkpoint(str(tmp_path))


class TestConversionAcrossFormats:
    def test_both_formats_produce_identical_atoms(self, tmp_path):
        """The crux: flat-ZeRO and per-param sources consolidate to the
        same universal representation."""
        engine = make_engine(parallel=MEGATRON_STYLE, seed=7)
        engine.train(2)
        flat_dir = str(tmp_path / "flat")
        pp_dir = str(tmp_path / "per_param")
        engine.save_checkpoint(flat_dir, optimizer_layout="flat")
        engine.save_checkpoint(pp_dir, optimizer_layout="per_param")

        ucp_convert(flat_dir, str(tmp_path / "ucp-flat"))
        ucp_convert(pp_dir, str(tmp_path / "ucp-pp"))

        a = AtomStore(str(tmp_path / "ucp-flat"))
        b = AtomStore(str(tmp_path / "ucp-pp"))
        assert a.list_atoms() == b.list_atoms()
        for name in a.list_atoms():
            for kind in ("fp32", "exp_avg", "exp_avg_sq"):
                assert np.array_equal(
                    a.read_state(name, kind), b.read_state(name, kind)
                ), (name, kind)

    def test_per_param_source_resumes_under_zero2(self, tmp_path):
        """Megatron-classic source -> UCP -> ZeRO-2 data parallelism."""
        src = make_engine(parallel=MEGATRON_STYLE, seed=7)
        src.train(2)
        ckpt = str(tmp_path / "ckpt")
        src.save_checkpoint(ckpt, optimizer_layout="per_param")
        continued = [r.loss for r in src.train(2)]

        dst = resume_training(ckpt, ParallelConfig(dp=4, zero_stage=2))
        resumed = [r.loss for r in dst.train(2)]
        assert np.allclose(continued, resumed, atol=2e-2)
