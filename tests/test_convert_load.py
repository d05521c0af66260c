"""Tests for UCP conversion (Algorithm 1) and target-side loading."""

import errno

import numpy as np
import pytest

from repro.core.atom import AtomStore
from repro.core.convert import ucp_convert
from repro.core.errors import PatternMatchError, UCPFormatError, UCPIncompatibleError
from repro.core.loader import load_ucp_into_engine
from repro.core.metadata import UCPMetadata
from repro.core.patterns import PatternProgram, PatternRule
from repro.dist.topology import ParallelConfig
from repro.parallel.tp import PATTERN_REPLICATED
from repro.storage.faults import FaultPolicy
from repro.storage.store import ObjectStore

from tests.helpers import make_engine


class EIOAtRead(FaultPolicy):
    """Counts like the base policy; the ``at``-th read (1-based) fails
    with ``OSError(EIO)``, as a failing device would."""

    def __init__(self, at: int) -> None:
        super().__init__()
        self.at = at

    def on_read(self, rel_path, path) -> None:
        super().on_read(rel_path, path)
        if self.read_ops == self.at:
            raise OSError(errno.EIO, f"injected EIO reading {rel_path}")


def unpadded(engine, name, values):
    """Slice away structural padding (whose contents are dead state:
    the source carries random init there, UCP re-pads with zeros)."""
    spec = engine.layout.spec(name)
    return values[tuple(slice(0, d) for d in spec.unpadded_shape)]


@pytest.fixture
def source_checkpoint(tmp_path):
    """A trained source run (tp2.pp2.dp2) with a saved checkpoint."""
    engine = make_engine(parallel=ParallelConfig(tp=2, pp=2, dp=2), seed=7)
    engine.train(3)
    ckpt_dir = str(tmp_path / "ckpt")
    engine.save_checkpoint(ckpt_dir)
    return engine, ckpt_dir, str(tmp_path / "ucp")


class TestConvert:
    def test_atoms_created_for_every_parameter(self, source_checkpoint):
        engine, ckpt_dir, ucp_dir = source_checkpoint
        report = ucp_convert(ckpt_dir, ucp_dir)
        atoms = AtomStore(ucp_dir).list_atoms()
        assert set(atoms) == set(engine.layout.shard_specs)
        assert report.num_params == len(atoms)

    def test_atom_values_match_consolidated_state(self, source_checkpoint):
        engine, ckpt_dir, ucp_dir = source_checkpoint
        ucp_convert(ckpt_dir, ucp_dir)
        store = AtomStore(ucp_dir)
        for kind in ("fp32", "exp_avg", "exp_avg_sq"):
            consolidated = engine.zero.consolidated_tensors(kind)
            for name, full in consolidated.items():
                spec = engine.layout.spec(name)
                expected = full[tuple(slice(0, d) for d in spec.unpadded_shape)]
                assert np.array_equal(store.read_state(name, kind), expected), (
                    name, kind,
                )

    def test_atoms_are_padding_free(self, source_checkpoint):
        engine, ckpt_dir, ucp_dir = source_checkpoint
        ucp_convert(ckpt_dir, ucp_dir)
        emb = AtomStore(ucp_dir).read_state("embedding.weight", "fp32")
        assert emb.shape[0] == engine.model_cfg.vocab_size  # unpadded

    def test_metadata_records_provenance(self, source_checkpoint):
        _, ckpt_dir, ucp_dir = source_checkpoint
        ucp_convert(ckpt_dir, ucp_dir)
        meta = UCPMetadata.load(ObjectStore(ucp_dir))
        assert meta.iteration == 3
        assert meta.optimizer_step == 3
        assert meta.source_parallel_config["tp"] == 2
        assert len(meta.params) > 0
        assert meta.pattern_program["rules"]

    def test_parallel_workers_produce_identical_atoms(self, source_checkpoint, tmp_path):
        _, ckpt_dir, _ = source_checkpoint
        serial_dir = str(tmp_path / "serial")
        threaded_dir = str(tmp_path / "threaded")
        ucp_convert(ckpt_dir, serial_dir, workers=0)
        ucp_convert(ckpt_dir, threaded_dir, workers=4)
        a, b = AtomStore(serial_dir), AtomStore(threaded_dir)
        assert a.list_atoms() == b.list_atoms()
        for name in a.list_atoms():
            assert np.array_equal(
                a.read_state(name, "fp32"), b.read_state(name, "fp32")
            )

    def test_report_timings_populated(self, source_checkpoint):
        _, ckpt_dir, ucp_dir = source_checkpoint
        report = ucp_convert(ckpt_dir, ucp_dir)
        assert report.total_seconds > 0
        assert report.num_files == 8  # 4 mp ranks x 2 dp ranks
        assert report.atom_bytes > 0
        assert report.simulated_read_s > 0

    def test_wrong_program_detected(self, source_checkpoint):
        """strict_spec_check catches a program that disagrees with how
        the checkpoint was actually sharded."""
        _, ckpt_dir, ucp_dir = source_checkpoint
        bad_program = PatternProgram([PatternRule(r".*", PATTERN_REPLICATED)])
        with pytest.raises(PatternMatchError, match="classifies"):
            ucp_convert(ckpt_dir, ucp_dir, program=bad_program)

    def test_empty_checkpoint_dir_raises(self, tmp_path):
        from repro.ckpt.errors import CheckpointNotFoundError
        with pytest.raises(CheckpointNotFoundError):
            ucp_convert(str(tmp_path / "nothing"), str(tmp_path / "out"))


class TestLoadIntoEngine:
    def test_state_equivalence_after_reshard(self, source_checkpoint):
        """The paper's core guarantee: convert -> load preserves every
        fp32 master and Adam moment exactly, under a new topology."""
        engine, ckpt_dir, ucp_dir = source_checkpoint
        ucp_convert(ckpt_dir, ucp_dir)
        target = make_engine(parallel=ParallelConfig(tp=1, pp=1, dp=4, zero_stage=2), seed=0)
        load_ucp_into_engine(target, ucp_dir)
        for kind in ("fp32", "exp_avg", "exp_avg_sq"):
            src = engine.zero.consolidated_tensors(kind)
            dst = target.zero.consolidated_tensors(kind)
            for name in src:
                assert np.array_equal(
                    unpadded(engine, name, src[name]),
                    unpadded(engine, name, dst[name]),
                ), (name, kind)

    def test_iteration_and_step_restored(self, source_checkpoint):
        _, ckpt_dir, ucp_dir = source_checkpoint
        ucp_convert(ckpt_dir, ucp_dir)
        target = make_engine(parallel=ParallelConfig(dp=2))
        load_ucp_into_engine(target, ucp_dir)
        assert target.iteration == 3
        assert target.zero.global_step == 3

    def test_model_weights_synced(self, source_checkpoint):
        engine, ckpt_dir, ucp_dir = source_checkpoint
        ucp_convert(ckpt_dir, ucp_dir)
        target = make_engine(parallel=ParallelConfig())
        load_ucp_into_engine(target, ucp_dir)
        src_state = engine.model.state_dict()
        dst_state = target.model.state_dict()
        for name in src_state:
            assert np.array_equal(
                unpadded(engine, name, src_state[name]),
                unpadded(engine, name, dst_state[name]),
            ), name

    def test_wrong_model_raises(self, source_checkpoint):
        _, ckpt_dir, ucp_dir = source_checkpoint
        ucp_convert(ckpt_dir, ucp_dir)
        target = make_engine("llama-mini")
        with pytest.raises(UCPIncompatibleError, match="model"):
            load_ucp_into_engine(target, ucp_dir)

    def test_not_a_ucp_dir_raises(self, tmp_path):
        with pytest.raises(UCPFormatError, match="not a UCP directory"):
            load_ucp_into_engine(make_engine(), str(tmp_path))

    def test_missing_atom_detected(self, source_checkpoint):
        _, ckpt_dir, ucp_dir = source_checkpoint
        ucp_convert(ckpt_dir, ucp_dir)
        store = ObjectStore(ucp_dir)
        meta = UCPMetadata.load(store)
        del meta.params["final_norm.weight"]
        meta.save(store)
        with pytest.raises(UCPIncompatibleError, match="missing atoms"):
            load_ucp_into_engine(make_engine(), ucp_dir)

    def test_truncated_atom_payload_is_a_typed_error(self, source_checkpoint):
        _, ckpt_dir, ucp_dir = source_checkpoint
        ucp_convert(ckpt_dir, ucp_dir)
        rel = "atoms/final_norm.weight/fp32.npt"
        path = ObjectStore(ucp_dir).base / rel
        path.write_bytes(path.read_bytes()[:-64])
        with pytest.raises(UCPFormatError, match=rel):
            load_ucp_into_engine(make_engine(), ucp_dir)

    def test_atom_header_overstating_numel_is_a_typed_error(
        self, source_checkpoint
    ):
        """A header that declares the expected element count over a
        payload that holds half of it, as a lying writer would leave."""
        _, ckpt_dir, ucp_dir = source_checkpoint
        ucp_convert(ckpt_dir, ucp_dir)
        rel = "atoms/final_norm.weight/exp_avg.npt"
        store = ObjectStore(ucp_dir)
        entry = store.load_index(rel)["values"]
        path = store.base / rel
        path.write_bytes(path.read_bytes()[:entry.offset + entry.nbytes // 2])
        with pytest.raises(UCPFormatError, match=rel):
            load_ucp_into_engine(make_engine(), ucp_dir)

    def test_read_fault_propagates(self, source_checkpoint):
        """Every loader read goes through the store's fault hook, and the
        store retries nothing: a device error surfaces from the load."""
        _, ckpt_dir, ucp_dir = source_checkpoint
        ucp_convert(ckpt_dir, ucp_dir)
        faults = EIOAtRead(at=3)
        store = ObjectStore(ucp_dir, faults=faults)
        with pytest.raises(OSError, match="injected EIO") as err:
            load_ucp_into_engine(make_engine(), ucp_dir, store=store)
        assert err.value.errno == errno.EIO
        assert faults.read_ops == 3


class TestDamagedUCPMetadata:
    @pytest.mark.parametrize(
        "damage",
        [
            lambda store: store.save("ucp_meta.npt", [1, 2, 3]),
            lambda store: store.put_bytes("ucp_meta.npt", b"not an npt file"),
            lambda store: store.put_bytes("ucp_meta.npt", b""),
        ],
        ids=["list-payload", "junk-bytes", "empty"],
    )
    def test_ucp_meta_that_does_not_decode(self, tmp_path, damage):
        """``ucp_meta.npt`` that decodes to the wrong thing, or not at
        all, is a ``UCPFormatError`` naming the file."""
        src = make_engine(parallel=ParallelConfig(tp=1, dp=1))
        src.train(1)
        src.save_checkpoint(str(tmp_path / "ckpt"))
        ucp_convert(str(tmp_path / "ckpt"), str(tmp_path / "ucp"))
        store = ObjectStore(str(tmp_path / "ucp"))
        damage(store)
        with pytest.raises(UCPFormatError, match="ucp_meta.npt"):
            UCPMetadata.load(store)
        with pytest.raises(UCPFormatError, match="ucp_meta.npt"):
            load_ucp_into_engine(
                make_engine(parallel=ParallelConfig(tp=1, dp=1)),
                str(tmp_path / "ucp"),
            )


class TestConversionIdempotency:
    def test_reconversion_overwrites_cleanly(self, source_checkpoint):
        """Running the converter twice into the same directory is safe
        and produces the same atoms (crash-and-retry friendliness)."""
        _, ckpt_dir, ucp_dir = source_checkpoint
        first = ucp_convert(ckpt_dir, ucp_dir)
        second = ucp_convert(ckpt_dir, ucp_dir)
        assert first.num_params == second.num_params
        store = AtomStore(ucp_dir)
        assert len(store.list_atoms()) == first.num_params

    def test_interrupted_conversion_recovers_on_retry(self, source_checkpoint):
        """A conversion that died before writing ucp_meta (the commit
        point) is not loadable; re-running completes it."""
        engine, ckpt_dir, ucp_dir = source_checkpoint
        ucp_convert(ckpt_dir, ucp_dir)
        store = ObjectStore(ucp_dir)
        store.delete("ucp_meta.npt")  # simulate a crash pre-commit
        with pytest.raises(UCPFormatError, match="not a UCP"):
            load_ucp_into_engine(make_engine(), ucp_dir)
        ucp_convert(ckpt_dir, ucp_dir)  # retry
        target = make_engine(parallel=ParallelConfig(dp=2))
        load_ucp_into_engine(target, ucp_dir)
        assert target.iteration == 3


@pytest.mark.parametrize(
    "damaged",
    [
        pytest.param({"other": np.zeros(2, dtype=np.float32)}, id="no-values"),
        pytest.param([1, 2, 3], id="not-a-mapping"),
        pytest.param({"values": 7}, id="values-not-a-tensor"),
    ],
)
def test_wrong_shaped_atom_state_is_a_typed_error(tmp_path, damaged):
    """An atom state file that decodes cleanly but is not ``{"values":
    tensor}`` is damage, named by file — not a KeyError / TypeError /
    AttributeError out of the loader's header pass."""
    source = make_engine("moe-mini", parallel=ParallelConfig(pp=2, dp=2))
    source.train(1)
    ckpt_dir, ucp_dir = str(tmp_path / "ckpt"), str(tmp_path / "ucp")
    source.save_checkpoint(ckpt_dir)
    ucp_convert(ckpt_dir, ucp_dir)
    rel = "atoms/final_norm.weight/exp_avg.npt"
    ObjectStore(ucp_dir).save(rel, damaged)
    target = make_engine("moe-mini", parallel=ParallelConfig(tp=2, dp=2))
    with pytest.raises(UCPFormatError, match=rel):
        load_ucp_into_engine(target, ucp_dir)
