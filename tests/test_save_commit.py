"""The save's commit: encode on a fan-out, stage in rank order on the
calling thread, publish write-behind on the store's commit pool.

What must hold at every width: the same bytes, the same write order,
the same accounting; every rank file durable before the manifest, the
manifest before ``latest``; a failed save leaves no temp, no moved
pointer and no thread behind; and a bounded number of encoded files
alive at once.
"""

import dataclasses
import errno
import os
import sys
import threading

import pytest

from repro.analysis.fswitness import fstrace
from repro.ckpt import naming
from repro.ckpt import saver as saver_mod
from repro.ckpt.saver import save_distributed_checkpoint
from repro.dist.topology import ParallelConfig
from repro.storage.faults import FaultPolicy, NoSpaceAtPublish
from repro.storage.store import CommitGroup, ObjectStore

from tests.helpers import make_engine
from tests.test_crash_consistency import dir_digests, leftover_tmps


class WriteSequence(FaultPolicy):
    """Counts like the base policy and remembers which file each store
    write index named."""

    def __init__(self) -> None:
        super().__init__()
        self.sequence = []

    def on_write(self, rel_path, tmp_path, data) -> None:
        self.sequence.append(rel_path)
        super().on_write(rel_path, tmp_path, data)


def pool_threads():
    return sorted(
        t.name for t in threading.enumerate()
        if t.name.startswith(("ucp-commit", "ucp-encode"))
    )


@pytest.fixture(scope="module")
def engine():
    engine = make_engine(parallel=ParallelConfig(tp=2, pp=2, dp=2, zero_stage=1))
    engine.train(1)
    return engine


@pytest.fixture
def width(monkeypatch):
    """Set the machine's core count as the save resolves it."""
    return lambda n: monkeypatch.setattr(os, "cpu_count", lambda: n)


class TestWidthInvariance:
    def test_bytes_order_and_accounting_are_the_serial_saves(
        self, engine, tmp_path, width
    ):
        seen = {}
        for n in (1, 2, 8):
            width(n)
            root = tmp_path / f"w{n}"
            policy = WriteSequence()
            store = ObjectStore(str(root), faults=policy)
            info = save_distributed_checkpoint(engine, str(root), store=store)
            assert leftover_tmps(root) == []
            assert pool_threads() == []
            seen[n] = (
                dir_digests(root),
                policy.sequence,
                dataclasses.replace(info, directory=""),
                store.bytes_written,
                store.simulated_write_s,
            )
        digests, sequence, info, _, _ = seen[1]
        assert naming.LATEST_FILE in digests
        assert f"{info.tag}/{naming.MANIFEST_FILE}" in digests
        # rank files in rank order, then the manifest, then the pointer
        assert sequence == info.files + [
            f"{info.tag}/{naming.MANIFEST_FILE}", naming.LATEST_FILE,
        ]
        assert seen[2] == seen[1]
        assert seen[8] == seen[1]


    def test_oversubscribed_save_publishes_every_file_once(
        self, engine, tmp_path, width
    ):
        """Eight encoders and eight commit threads on two cores, a 10 us
        switch interval: the digest map is the serial save's, nothing is
        left staged and no pool thread outlives the save."""
        width(1)
        save_distributed_checkpoint(engine, str(tmp_path / "serial"))
        reference = dir_digests(tmp_path / "serial")
        width(8)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for attempt in range(3):
                root = tmp_path / f"w8-{attempt}"
                save_distributed_checkpoint(engine, str(root))
                assert dir_digests(root) == reference
                assert leftover_tmps(root) == []
                assert pool_threads() == []
        finally:
            sys.setswitchinterval(previous)


class TestOrdering:
    def test_rank_files_are_durable_before_the_manifest_is_staged(
        self, engine, tmp_path, width
    ):
        width(2)
        store = ObjectStore(str(tmp_path), durable=True)
        with fstrace(capture_data=False) as rec:
            info = save_distributed_checkpoint(engine, str(tmp_path), store=store)
        ops = rec.ops()

        def index(kind, path=None, dst=None):
            (hit,) = [
                i for i, op in enumerate(ops)
                if op.kind == kind
                and (path is None or op.path == path)
                and (dst is None or op.dst == dst)
            ]
            return hit

        manifest = f"s0/{info.tag}/{naming.MANIFEST_FILE}"
        manifest_write = index("write", path=manifest + ".tmp")
        tag_syncs = [
            i for i, op in enumerate(ops)
            if op.kind == "fsync_dir" and op.path == f"s0/{info.tag}"
        ]
        for rel in info.files:
            renamed = index("rename", dst=f"s0/{rel}")
            assert index("fsync", path=f"s0/{rel}.tmp") < renamed
            synced = min(i for i in tag_syncs if i > renamed)
            assert renamed < synced < manifest_write, rel
        assert index("rename", dst=manifest) < index(
            "write", path=f"s0/{naming.LATEST_FILE}.tmp"
        )
        # the publishes really ran behind the calling thread
        publishers = {op.thread for op in ops if op.kind == "fsync"}
        assert any(name.startswith("ucp-commit") for name in publishers)


class TestFailure:
    @pytest.mark.parametrize("cores", [1, 2])
    def test_publish_failure_fails_before_the_manifest(
        self, engine, tmp_path, width, cores
    ):
        width(cores)
        first = save_distributed_checkpoint(engine, str(tmp_path), tag="first")
        # publish 2 is the third rank file's rename
        store = ObjectStore(str(tmp_path), faults=NoSpaceAtPublish(at=2))
        with pytest.raises(OSError) as excinfo:
            save_distributed_checkpoint(
                engine, str(tmp_path), tag="second", store=store
            )
        assert excinfo.value.errno == errno.ENOSPC
        assert not (tmp_path / "second" / naming.MANIFEST_FILE).exists()
        assert leftover_tmps(tmp_path) == []
        assert (tmp_path / naming.LATEST_FILE).read_text() == first.tag
        assert pool_threads() == []

    def test_payload_failure_shuts_both_pools_down(
        self, engine, tmp_path, width, monkeypatch
    ):
        width(2)
        real = saver_mod._rank_payloads

        def dies_midway(*args):
            for i, item in enumerate(real(*args)):
                if i == 4:
                    raise RuntimeError("rank 4 lost its partition")
                yield item

        monkeypatch.setattr(saver_mod, "_rank_payloads", dies_midway)
        with pytest.raises(RuntimeError, match="rank 4"):
            save_distributed_checkpoint(engine, str(tmp_path))
        assert pool_threads() == []
        # what was staged before the failure was published, not leaked
        assert leftover_tmps(tmp_path) == []
        assert not (tmp_path / naming.LATEST_FILE).exists()


class TestBound:
    def test_encoded_files_in_flight_stay_within_workers_plus_one(
        self, engine, tmp_path, width, monkeypatch
    ):
        workers = 2
        width(workers)
        lock = threading.Lock()
        live = {"now": 0, "peak": 0, "largest": 0}
        # id() of every encoded rank file's header block -> the file's
        # size, while its parts are alive
        encoded = {}
        real_encode, real_stage = saver_mod.encode, CommitGroup.stage

        def counting_encode(obj):
            parts = real_encode(obj)
            nbytes = sum(len(part) for part in parts)
            with lock:
                encoded[id(parts[0])] = nbytes
                live["now"] += nbytes
                live["peak"] = max(live["peak"], live["now"])
                live["largest"] = max(live["largest"], nbytes)
            return parts

        def counting_stage(self, rel_path, *parts):
            try:
                return real_stage(self, rel_path, *parts)
            finally:
                with lock:
                    # not the manifest / `latest`
                    live["now"] -= encoded.pop(id(parts[0]), 0)

        monkeypatch.setattr(saver_mod, "encode", counting_encode)
        monkeypatch.setattr(CommitGroup, "stage", counting_stage)
        info = save_distributed_checkpoint(engine, str(tmp_path))
        assert len(info.files) > 2 * (workers + 1)  # the window had to slide
        assert live["now"] == 0
        assert 0 < live["peak"] <= (workers + 1) * live["largest"]
