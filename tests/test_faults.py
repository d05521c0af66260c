"""Tests for the fault-injection harness and the store's commit path."""

import numpy as np
import pytest

from repro.storage.faults import (
    CrashAtWrite,
    FaultPolicy,
    InjectedCrash,
    LatencySpikes,
    NoSpaceAtPublish,
    RetryPolicy,
    TransientFaults,
    TransientIOError,
)
from repro.storage.nvme import NVMeModel
from repro.storage.serializer import (
    ChecksumError,
    SerializationError,
    serialize,
    validate_npt,
)
from repro.storage.store import ObjectStore, sha256_hex


class TestRetryPolicy:
    def test_backoff_is_exponential(self):
        policy = RetryPolicy(max_attempts=4, backoff_s=0.01, multiplier=2.0)
        assert policy.delay_s(1) == pytest.approx(0.01)
        assert policy.delay_s(2) == pytest.approx(0.02)
        assert policy.delay_s(3) == pytest.approx(0.04)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)


class TestFaultPolicyCounting:
    def test_counts_write_and_read_boundaries(self, tmp_path, rng):
        policy = FaultPolicy()
        store = ObjectStore(str(tmp_path), faults=policy)
        store.save("a.npt", {"x": rng.standard_normal(8).astype(np.float32)})
        store.save("b.npt", {"v": 1})
        store.write_text("latest", "a")
        store.load("a.npt")
        assert policy.write_ops == 3  # two objects + the text marker
        assert policy.publish_ops == 3  # one publishing rename each
        assert policy.read_ops == 1


class TestCrashAtWrite:
    def test_clean_crash_leaves_previous_object(self, tmp_path):
        store = ObjectStore(str(tmp_path))
        store.save("x.npt", {"v": 1})
        crashing = ObjectStore(str(tmp_path), faults=CrashAtWrite(0))
        with pytest.raises(InjectedCrash):
            crashing.save("x.npt", {"v": 2})
        assert ObjectStore(str(tmp_path)).load("x.npt") == {"v": 1}

    def test_torn_crash_only_touches_tmp_file(self, tmp_path, rng):
        store = ObjectStore(str(tmp_path))
        obj = {"x": rng.standard_normal(64).astype(np.float32)}
        store.save("x.npt", obj)
        before = (store.base / "x.npt").read_bytes()
        crashing = ObjectStore(str(tmp_path), faults=CrashAtWrite(0, torn=True))
        with pytest.raises(InjectedCrash):
            crashing.save("x.npt", {"x": np.zeros(64, dtype=np.float32)})
        # the committed object is bit-identical; the torn bytes are in
        # the .tmp sibling, which list() never surfaces
        assert (store.base / "x.npt").read_bytes() == before
        tmp = store.base / "x.npt.tmp"
        assert tmp.is_file() and 0 < tmp.stat().st_size < len(before)
        assert store.list() == ["x.npt"]

    def test_later_boundary_crashes_after_earlier_commits(self, tmp_path):
        crashing = ObjectStore(str(tmp_path), faults=CrashAtWrite(1))
        crashing.save("a.npt", {"v": 1})
        with pytest.raises(InjectedCrash):
            crashing.save("b.npt", {"v": 2})
        fresh = ObjectStore(str(tmp_path))
        assert fresh.load("a.npt") == {"v": 1}
        assert not fresh.exists("b.npt")

    def test_crash_during_latest_marker_is_atomic(self, tmp_path):
        store = ObjectStore(str(tmp_path))
        store.write_text("latest", "global_step1")
        crashing = ObjectStore(
            str(tmp_path), faults=CrashAtWrite(0, torn=True)
        )
        with pytest.raises(InjectedCrash):
            crashing.write_text("latest", "global_step2")
        assert ObjectStore(str(tmp_path)).read_text("latest") == "global_step1"


class TestNoSpaceAtPublish:
    def test_nth_publish_fails_once_and_cleans_up(self, tmp_path):
        import errno

        policy = NoSpaceAtPublish(at=1)
        store = ObjectStore(str(tmp_path), faults=policy)
        store.put_bytes("a.npt", b"a")
        with pytest.raises(OSError) as excinfo:
            store.put_bytes("b.npt", b"b")
        assert excinfo.value.errno == errno.ENOSPC
        assert not store.exists("b.npt")
        assert not list(tmp_path.rglob("*.tmp"))
        store.put_bytes("b.npt", b"b")  # fires once: the retry lands
        assert store.list() == ["a.npt", "b.npt"]
        assert policy.publish_ops == 3

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="at must be >= 0"):
            NoSpaceAtPublish(at=-1)


class TestTransientFaults:
    def test_retries_absorb_faults_and_charge_backoff(self, tmp_path):
        policy = TransientFaults(write_failures=2)
        retry = RetryPolicy(max_attempts=3, backoff_s=0.01, multiplier=2.0)
        store = ObjectStore(str(tmp_path), faults=policy, retry=retry)
        base_cost = ObjectStore(str(tmp_path / "ref")).save("x.npt", {"v": 1})
        assert base_cost > 0
        store.save("x.npt", {"v": 1})
        assert store.load("x.npt") == {"v": 1}
        assert policy.write_ops == 3  # two failed attempts + the success
        # both backoffs (0.01 + 0.02) were charged to simulated time
        assert store.simulated_write_s >= 0.03

    def test_exhausted_retries_surface_the_fault(self, tmp_path):
        policy = TransientFaults(write_failures=5)
        store = ObjectStore(
            str(tmp_path), faults=policy, retry=RetryPolicy(max_attempts=3)
        )
        with pytest.raises(TransientIOError):
            store.save("x.npt", {"v": 1})
        assert not store.exists("x.npt")

    def test_read_faults_also_retried(self, tmp_path):
        store = ObjectStore(str(tmp_path))
        store.save("x.npt", {"v": 7})
        flaky = ObjectStore(
            str(tmp_path), faults=TransientFaults(read_failures=1)
        )
        assert flaky.load("x.npt") == {"v": 7}
        assert flaky.simulated_read_s > 0


class TestLatencySpikes:
    def test_spikes_add_simulated_time(self, tmp_path, rng):
        obj = {"x": rng.standard_normal(128).astype(np.float32)}
        plain = ObjectStore(str(tmp_path / "plain"))
        plain.save("x.npt", obj)
        spiky = ObjectStore(
            str(tmp_path / "spiky"), faults=LatencySpikes(spike_s=0.5, every=1)
        )
        spiky.save("x.npt", obj)
        assert spiky.simulated_write_s >= plain.simulated_write_s + 0.5

    def test_degraded_nvme_profile(self):
        nvme = NVMeModel()
        slow = nvme.degraded(4.0)
        nbytes = 10**8
        assert slow.write_time(nbytes) > nvme.write_time(nbytes)
        with pytest.raises(ValueError):
            nvme.degraded(0.5)


class TestValidateNpt:
    def test_valid_bytes_pass(self, rng):
        data = serialize({"x": rng.standard_normal(32).astype(np.float32)})
        validate_npt(data)  # no exception

    def test_truncation_detected(self, rng):
        data = serialize({"x": rng.standard_normal(32).astype(np.float32)})
        with pytest.raises(SerializationError, match="truncated"):
            validate_npt(data[: len(data) // 2])

    def test_bad_magic_detected(self):
        with pytest.raises(SerializationError, match="magic"):
            validate_npt(b"JUNK" + b"\x00" * 64)

    def test_payload_corruption_detected(self, rng):
        data = bytearray(serialize({"x": rng.standard_normal(32).astype(np.float32)}))
        data[-5] ^= 0xFF
        with pytest.raises(ChecksumError):
            validate_npt(bytes(data))


class TestDigests:
    def test_manifest_entries_match_disk(self, tmp_path):
        """The saver digests the exact bytes it commits: every manifest
        entry's size and SHA-256 are the on-disk file's."""
        from repro.ckpt.manifest import read_manifest
        from tests.helpers import make_engine

        engine = make_engine()
        engine.train(1)
        info = engine.save_checkpoint(str(tmp_path))
        store = ObjectStore(str(tmp_path))
        entries = read_manifest(store, info.tag)["files"]
        assert sorted(f"{info.tag}/{name}" for name in entries) == sorted(info.files)
        for name, entry in entries.items():
            on_disk = (store.base / info.tag / name).read_bytes()
            assert entry["nbytes"] == len(on_disk)
            assert entry["sha256"] == sha256_hex(on_disk)
            assert entry["sha256"] == store.digest(f"{info.tag}/{name}")
