"""Tests for the programmatic inspection API."""

import pytest

from repro.ckpt.consolidated import save_consolidated_checkpoint
from repro.core.convert import ucp_convert
from repro.core.inspect import inspect_directory, verify_directory
from repro.dist.topology import ParallelConfig
from repro.parallel.tp import PATTERN_FRAGMENT, PATTERN_REPLICATED
from repro.storage.store import ObjectStore

from tests.helpers import make_engine


@pytest.fixture
def trained(tmp_path):
    engine = make_engine(parallel=ParallelConfig(tp=2, pp=2, dp=2), seed=7)
    engine.train(2)
    ckpt = str(tmp_path / "ckpt")
    engine.save_checkpoint(ckpt)
    return engine, ckpt, tmp_path


class TestInspectDirectory:
    def test_distributed_summary(self, trained):
        engine, ckpt, _ = trained
        summary = inspect_directory(ckpt)
        assert summary.kind == "distributed"
        assert summary.model.name == "gpt3-mini"
        assert summary.parallel == engine.parallel_cfg
        assert summary.iteration == 2
        assert summary.tag == "global_step2"
        assert summary.num_files == 14  # 13 data files + commit manifest
        assert summary.total_bytes > 0

    def test_distributed_census_reads_rank_headers_only(
        self, trained, monkeypatch
    ):
        """The census takes each optimizer-state file's ``sharding`` from
        its header: no rank-file payload is read or decoded."""
        _, ckpt, _ = trained
        read = []
        real = ObjectStore.read_bytes

        def recording(self, rel_path, *args, **kwargs):
            read.append(rel_path)
            return real(self, rel_path, *args, **kwargs)

        monkeypatch.setattr(ObjectStore, "read_bytes", recording)
        assert inspect_directory(ckpt).census is not None
        assert [rel for rel in read if "optim_states" in rel] == []

    def test_distributed_census_covers_all_stages(self, trained):
        engine, ckpt, _ = trained
        summary = inspect_directory(ckpt)
        # pp=2: the census must merge both stages' params
        assert summary.census.total_params == len(engine.layout.shard_specs)
        assert summary.census.counts[PATTERN_FRAGMENT] > 0
        assert summary.census.counts[PATTERN_REPLICATED] > 0

    def test_ucp_summary(self, trained):
        engine, ckpt, tmp = trained
        ucp = str(tmp / "ucp")
        ucp_convert(ckpt, ucp)
        summary = inspect_directory(ucp)
        assert summary.kind == "ucp"
        assert summary.model.name == "gpt3-mini"
        assert summary.parallel == engine.parallel_cfg  # provenance
        assert summary.census.total_params == len(engine.layout.shard_specs)

    def test_consolidated_summary(self, trained):
        engine, _, tmp = trained
        cons = str(tmp / "cons")
        save_consolidated_checkpoint(engine, cons)
        summary = inspect_directory(cons)
        assert summary.kind == "consolidated"
        assert summary.iteration == 2

    def test_unknown_directory(self, tmp_path):
        ObjectStore(str(tmp_path / "junk")).save("random.npt", {"v": 1})
        summary = inspect_directory(str(tmp_path / "junk"))
        assert summary.kind == "unknown"
        assert summary.num_files == 1

    def test_census_element_totals_match_model(self, trained):
        engine, ckpt, _ = trained
        summary = inspect_directory(ckpt)
        expected = 0
        for spec in engine.layout.shard_specs.values():
            numel = 1
            for d in spec.unpadded_shape:
                numel *= d
            expected += numel
        assert summary.census.total_elements == expected


class TestVerifyDirectory:
    def test_clean_directory(self, trained):
        _, ckpt, _ = trained
        report = verify_directory(ckpt)
        assert report.ok
        assert report.total == 14  # 13 data files + commit manifest
        assert report.manifests == 1
        assert not report.missing

    def test_corruption_located(self, trained):
        _, ckpt, _ = trained
        store = ObjectStore(ckpt)
        rel = [f for f in store.list() if "optim" in f][0]
        path = store.base / rel
        data = bytearray(path.read_bytes())
        data[-10] ^= 0x55
        path.write_bytes(bytes(data))
        report = verify_directory(ckpt)
        assert not report.ok
        assert len(report.corrupt) == 1
        assert report.corrupt[0][0] == rel

    def test_empty_directory_not_ok(self, tmp_path):
        report = verify_directory(str(tmp_path))
        assert report.total == 0
        assert not report.ok
