"""Tests for the storage substrate: serializer, object store, NVMe model."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.nvme import NVMeModel
from repro.storage.serializer import (
    MAGIC,
    SerializationError,
    deserialize,
    encode,
    serialize,
)
from repro.storage.store import CommitGroup, ObjectStore, sha256_hex

CRC32_DAMAGE = {
    "crc32_str": b'"crc32": "abc"',
    "crc32_float": b'"crc32": 1.5',
    "crc32_bool": b'"crc32": true',
    "crc32_negative": b'"crc32": -1',
    "crc32_2**32": b'"crc32": 4294967296',
}
"""A tensor entry's ``crc32`` field -> a value no CRC32 takes."""


def layout_matrix(rng):
    """Every array shape the zero-copy encode could get wrong, in one
    object: strided, Fortran-ordered, 0-d, empty, byte-swapped, bool,
    read-only, and odd sizes that need an alignment pad after them."""
    base = rng.standard_normal((6, 10)).astype(np.float32)
    frozen = rng.standard_normal(33).astype(np.float32)
    frozen.setflags(write=False)
    return {
        "strided": base[:, ::2],
        "fortran": np.asfortranarray(base),
        "scalar": np.array(2.5, dtype=np.float64),
        "empty": np.zeros((0, 3), dtype=np.float16),
        "big_endian": np.arange(5, dtype=">i4"),
        "bools": np.array([True, False, True]),
        "read_only": frozen,
        "odd": [rng.standard_normal(7), {"tail": np.arange(3, dtype=np.int8)}],
    }


class TestSerializer:
    def test_round_trip_nested(self, rng):
        obj = {
            "weights": rng.standard_normal((3, 4)).astype(np.float32),
            "meta": {"step": 100, "name": "gpt", "flag": True, "none": None},
            "history": [1.5, 2.5, {"inner": rng.standard_normal(5).astype(np.float32)}],
        }
        out = deserialize(serialize(obj))
        assert np.array_equal(out["weights"], obj["weights"])
        assert out["meta"] == obj["meta"]
        assert out["history"][:2] == [1.5, 2.5]
        assert np.array_equal(out["history"][2]["inner"], obj["history"][2]["inner"])

    def test_preserves_dtypes(self):
        obj = {
            "f32": np.zeros(3, dtype=np.float32),
            "f16": np.zeros(3, dtype=np.float16),
            "i64": np.arange(3, dtype=np.int64),
        }
        out = deserialize(serialize(obj))
        assert out["f32"].dtype == np.float32
        assert out["f16"].dtype == np.float16
        assert out["i64"].dtype == np.int64

    def test_tuple_becomes_list(self):
        assert deserialize(serialize({"t": (1, 2)}))["t"] == [1, 2]

    def test_numpy_scalars_become_python(self):
        out = deserialize(serialize({"i": np.int64(5), "f": np.float32(1.5)}))
        assert out == {"i": 5, "f": 1.5}

    def test_reserved_key_raises(self):
        with pytest.raises(SerializationError, match="reserved"):
            serialize({"__tensor__": 1})

    def test_non_string_key_raises(self):
        with pytest.raises(SerializationError, match="keys must be str"):
            serialize({1: "a"})

    def test_unsupported_type_raises(self):
        with pytest.raises(SerializationError, match="unsupported type"):
            serialize({"f": lambda: None})

    def test_bad_magic_raises(self):
        with pytest.raises(SerializationError, match="magic"):
            deserialize(b"NOPE" + b"\x00" * 100)

    def test_truncated_file_raises(self):
        data = serialize({"x": np.arange(100, dtype=np.float32)})
        with pytest.raises(SerializationError, match="truncated"):
            deserialize(data[: len(data) // 2])

    def test_empty_array(self):
        out = deserialize(serialize({"e": np.zeros(0, dtype=np.float32)}))
        assert out["e"].size == 0

    @given(
        shapes=st.lists(
            st.lists(st.integers(1, 5), min_size=1, max_size=3), min_size=0, max_size=4
        ),
        scalars=st.dictionaries(
            st.text(st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=6),
            st.one_of(st.integers(-1000, 1000), st.booleans(), st.none(),
                      st.floats(allow_nan=False, allow_infinity=False, width=32)),
            max_size=4,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, shapes, scalars):
        gen = np.random.default_rng(0)
        obj = dict(scalars)
        arrays = {
            f"tensor_{i}": gen.standard_normal(shape).astype(np.float32)
            for i, shape in enumerate(shapes)
        }
        obj.update(arrays)
        out = deserialize(serialize(obj))
        for key, value in scalars.items():
            if key in arrays:
                continue
            assert out[key] == value or (value is None and out[key] is None)
        for key, arr in arrays.items():
            assert np.array_equal(out[key], arr)


class TestSerializerLayout:
    """``serialize`` assembles the file from views of the arrays' own
    buffers; the bytes must be what the documented layout says, for
    every array shape the zero-copy path could get wrong."""

    @staticmethod
    def reference_bytes(obj) -> bytes:
        """The ``.npt`` layout composed the slow way: header from a
        decode of the real output (so only the payload section is
        rebuilt), every payload through ``tobytes``."""
        import io
        import json
        import zlib

        data = serialize(obj)
        header_len = int.from_bytes(data[4:12], "little")
        header = json.loads(data[12:12 + header_len])
        arrays = []

        def collect(node):
            if isinstance(node, np.ndarray):
                arrays.append(np.ascontiguousarray(node))
            elif isinstance(node, dict):
                for value in node.values():
                    collect(value)
            elif isinstance(node, (list, tuple)):
                for value in node:
                    collect(value)

        collect(obj)
        out = io.BytesIO()
        out.write(MAGIC + header_len.to_bytes(8, "little"))
        out.write(data[12:12 + header_len])
        out.write(b"\x00" * (-out.tell() % 64))
        start = out.tell()
        for arr, entry in zip(arrays, header["tensors"]):
            out.write(b"\x00" * (start + entry["offset"] - out.tell()))
            raw = arr.tobytes()
            assert entry["crc32"] == zlib.crc32(raw) & 0xFFFFFFFF
            assert entry["nbytes"] == len(raw)
            out.write(raw)
        return out.getvalue()

    def test_payloads_and_crcs_match_tobytes(self, rng):
        obj = layout_matrix(rng)
        base = obj["fortran"]
        data = serialize(obj)
        assert data == self.reference_bytes(obj)
        out = deserialize(data)
        assert np.array_equal(out["strided"], base[:, ::2])
        assert np.array_equal(out["fortran"], base)
        assert out["big_endian"].tolist() == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("case", [
        "matrix", "nested", "no_tensors", "non_contiguous", "empty", "zero_d",
        "pads",
    ])
    def test_encode_parts_join_to_serialize(self, rng, case):
        obj = {
            "matrix": lambda: layout_matrix(rng),
            "nested": lambda: {
                "w": rng.standard_normal((3, 4)).astype(np.float32),
                "meta": {"step": 100, "name": "gpt", "flag": True, "none": None},
                "history": [1.5, (2, 3), {"inner": np.arange(5, dtype=np.int16)}],
            },
            "no_tensors": lambda: {"i": np.int64(5), "f": np.float32(1.5), "s": "x"},
            "non_contiguous": lambda: {
                "t": rng.standard_normal((5, 7)).T, "s": np.arange(20)[::3],
            },
            "empty": lambda: {"a": np.zeros(0, dtype=np.float32),
                              "b": np.zeros((2, 0), dtype=np.int8)},
            "zero_d": lambda: [np.array(7, dtype=np.int32), np.array(1.5)],
            # 3 + 5 + 1 bytes: each payload but the first starts on a pad
            "pads": lambda: [np.arange(3, dtype=np.int8), np.ones(5, dtype=np.uint8),
                             np.array([True])],
        }[case]()
        parts = encode(obj)
        assert b"".join(parts) == serialize(obj)
        # every payload part is a read-only flat byte view
        for part in parts:
            if isinstance(part, memoryview):
                assert part.readonly and part.format == "B" and part.ndim == 1

    def test_contiguous_payloads_alias_their_arrays(self, rng):
        arr = rng.standard_normal(100).astype(np.float32)
        parts = encode({"a": arr, "b": np.arange(4)})
        views = [part for part in parts if isinstance(part, memoryview)]
        assert len(views) == 2
        assert np.shares_memory(np.frombuffer(views[0], dtype=np.uint8), arr)

    def test_stream_writer_emits_the_same_bytes(self, rng, tmp_path):
        """What the store commits is exactly what ``serialize`` encodes."""
        obj = {"a": rng.standard_normal((4, 4)), "b": [1, "x", None]}
        written = ObjectStore(str(tmp_path)).save("obj.npt", obj)
        assert (tmp_path / "obj.npt").read_bytes() == serialize(obj)
        assert written == len(serialize(obj))


class TestObjectStore:
    def test_save_load_round_trip(self, tmp_path, rng):
        store = ObjectStore(str(tmp_path))
        obj = {"x": rng.standard_normal(10).astype(np.float32)}
        nbytes = store.save("sub/dir/file.npt", obj)
        assert nbytes > 0
        out = store.load("sub/dir/file.npt")
        assert np.array_equal(out["x"], obj["x"])

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ObjectStore(str(tmp_path)).load("ghost.npt")

    def test_exists_and_delete(self, tmp_path):
        store = ObjectStore(str(tmp_path))
        store.save("a.npt", {"v": 1})
        assert store.exists("a.npt")
        store.delete("a.npt")
        assert not store.exists("a.npt")
        store.delete("a.npt")  # idempotent

    def test_list_sorted_recursive(self, tmp_path):
        store = ObjectStore(str(tmp_path))
        store.save("b/2.npt", {"v": 1})
        store.save("a/1.npt", {"v": 1})
        assert store.list() == ["a/1.npt", "b/2.npt"]
        assert store.list("a") == ["a/1.npt"]

    def test_path_escape_rejected(self, tmp_path, monkeypatch):
        """Objects resolve under the root and ``..`` out of it is
        refused, whether the root was given absolute, as the working
        directory, or as a relative path that normalises."""
        monkeypatch.chdir(tmp_path)
        for base in (str(tmp_path / "inner"), ".", "sub/../inner2"):
            store = ObjectStore(base)
            store.save("a/x.npt", {"v": 1})
            assert store.exists("a/x.npt") and store.load("a/x.npt") == {"v": 1}
            assert "a/x.npt" in store.list()
            with pytest.raises(ValueError, match="escapes"):
                store.save("../escape.npt", {"v": 1})

    @pytest.mark.parametrize(
        "damage",
        ["header_len_2**40", "no_tensors_table", "not_utf8", "shape_vs_nbytes",
         *CRC32_DAMAGE],
    )
    def test_lying_header_is_a_serialization_error(self, tmp_path, damage):
        """Every reader decodes through one header parse that believes
        nothing the file says about itself: the error is typed, names
        the file, and nothing of the declared size is allocated.  A
        ``crc32`` that is not an unsigned 32-bit int is refused there
        too (it used to reach the CRC check's format string as an
        untyped ValueError, or pass the index read)."""
        good = serialize({"x": np.arange(8, dtype=np.float32)})
        header_len = int.from_bytes(good[4:12], "little")
        header, payload = good[12:12 + header_len], good[12 + header_len:]

        def npt(header: bytes, declared: int) -> bytes:
            return MAGIC + declared.to_bytes(8, "little") + header + payload

        if damage == "header_len_2**40":
            data = npt(header, 1 << 40)
        elif damage == "no_tensors_table":
            lying = header.replace(b'"tensors"', b'"tensorz"')
            data = npt(lying, len(lying))
        elif damage == "not_utf8":
            data = npt(b"\xff" + header[1:], header_len)
        elif damage in CRC32_DAMAGE:
            lying = re.sub(rb'"crc32": \d+', CRC32_DAMAGE[damage], header)
            assert len(lying) <= header_len
            data = npt(lying.ljust(header_len), header_len)
        else:
            lying = header.replace(b'"shape": [8]', b'"shape": [9]')
            data = npt(lying, len(lying))
        assert data != good
        store = ObjectStore(str(tmp_path))
        (tmp_path / "lying.npt").write_bytes(data)
        for read in (store.load_index, store.load):
            with pytest.raises(SerializationError, match="lying.npt|<bytes>"):
                read("lying.npt")

    def test_byte_accounting(self, tmp_path, rng):
        store = ObjectStore(str(tmp_path))
        n = store.save("x.npt", {"x": rng.standard_normal(100).astype(np.float32)})
        store.load("x.npt")
        assert store.bytes_written == n
        assert store.bytes_read == n

    def test_simulated_time_accumulates(self, tmp_path, rng):
        store = ObjectStore(str(tmp_path))
        store.save("x.npt", {"x": rng.standard_normal(1000).astype(np.float32)})
        store.load("x.npt")
        assert store.simulated_write_s > 0
        assert store.simulated_read_s > 0

    def test_text_markers(self, tmp_path):
        store = ObjectStore(str(tmp_path))
        store.write_text("latest", "global_step100")
        assert store.read_text("latest") == "global_step100"


class TestNVMeModel:
    def test_time_scales_with_bytes(self):
        nvme = NVMeModel()
        assert nvme.read_time(10**9) > nvme.read_time(10**6)

    def test_latency_floor(self):
        nvme = NVMeModel(latency_s=1e-3)
        assert nvme.read_time(0) == pytest.approx(1e-3)

    def test_parallelism_amortizes_latency(self):
        nvme = NVMeModel(latency_s=1e-3)
        assert nvme.read_time(0, parallel=4) == pytest.approx(2.5e-4)

    def test_parallelism_capped_at_queue_depth(self):
        nvme = NVMeModel(latency_s=1e-3, max_parallel=4)
        assert nvme.read_time(0, parallel=100) == nvme.read_time(0, parallel=4)

    def test_writes_slower_than_reads(self):
        nvme = NVMeModel(read_gbps=3.2, write_gbps=1.8)
        nbytes = 10**9
        assert nvme.write_time(nbytes) > nvme.read_time(nbytes)

    def test_negative_bytes_raise(self):
        with pytest.raises(ValueError, match=">= 0"):
            NVMeModel().read_time(-1)

    def test_bad_profile_raises(self):
        with pytest.raises(ValueError, match="positive"):
            NVMeModel(read_gbps=0)


class TestChecksums:
    def test_flipped_payload_byte_detected(self, rng):
        from repro.storage.serializer import ChecksumError
        data = bytearray(serialize({"x": rng.standard_normal(64).astype(np.float32)}))
        data[-5] ^= 0xFF  # corrupt a tensor payload byte
        with pytest.raises(ChecksumError, match="CRC32"):
            deserialize(bytes(data))

    def test_files_without_checksums_still_read(self, rng):
        """Forward compatibility: pre-checksum files lack the crc32
        field and must load without error."""
        import json
        from repro.storage.serializer import MAGIC
        data = serialize({"x": rng.standard_normal(8).astype(np.float32)})
        header_len = int.from_bytes(data[4:12], "little")
        header = json.loads(data[12 : 12 + header_len].decode())
        for entry in header["tensors"]:
            entry.pop("crc32", None)
        new_header = json.dumps(header).encode()
        # only safe if the header length is preserved; pad with spaces
        assert len(new_header) <= header_len
        new_header = new_header + b" " * (header_len - len(new_header))
        patched = data[:12] + new_header + data[12 + header_len:]
        out = deserialize(patched)
        assert out["x"].shape == (8,)

    def test_checksum_error_is_a_serialization_error(self):
        from repro.storage.serializer import ChecksumError
        assert issubclass(ChecksumError, SerializationError)


class TestDurability:
    def test_default_follows_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_DURABLE", raising=False)
        assert ObjectStore(str(tmp_path)).durable is True
        monkeypatch.setenv("REPRO_DURABLE", "0")
        assert ObjectStore(str(tmp_path)).durable is False
        monkeypatch.setenv("REPRO_DURABLE", "1")
        assert ObjectStore(str(tmp_path)).durable is True

    def test_explicit_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DURABLE", "0")
        assert ObjectStore(str(tmp_path), durable=True).durable is True
        monkeypatch.setenv("REPRO_DURABLE", "1")
        assert ObjectStore(str(tmp_path), durable=False).durable is False

    def test_durable_commit_round_trips_with_no_tmp_left(self, tmp_path, rng):
        store = ObjectStore(str(tmp_path), durable=True)
        obj = {"x": rng.standard_normal(16).astype(np.float32)}
        store.save("tag/file.npt", obj)
        assert np.array_equal(store.load("tag/file.npt")["x"], obj["x"])
        assert not list(tmp_path.rglob("*.tmp"))

    def test_durable_write_text_round_trips(self, tmp_path):
        store = ObjectStore(str(tmp_path), durable=True)
        store.write_text("latest", "global_step7")
        assert store.read_text("latest") == "global_step7"
        assert not list(tmp_path.rglob("*.tmp"))

    def test_failed_commit_cleans_its_tmp(self, tmp_path, monkeypatch):
        """A mid-commit error (here: the publishing rename itself) must
        not leak the temp file."""
        store = ObjectStore(str(tmp_path), durable=True)

        def boom(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr("os.replace", boom)
        with pytest.raises(OSError, match="simulated rename"):
            store.put_bytes("x.npt", b"data")
        assert not list(tmp_path.rglob("*.tmp"))
        assert not (tmp_path / "x.npt").exists()

    def test_injected_crash_leaves_torn_tmp(self, tmp_path):
        """Fault injection models a kill, not an error: the torn temp
        stays on disk (the crash matrix inspects it) and the final path
        is never touched."""
        from repro.storage.faults import CrashAtWrite, InjectedCrash

        store = ObjectStore(
            str(tmp_path), faults=CrashAtWrite(0, torn=True), durable=True
        )
        with pytest.raises(InjectedCrash):
            store.put_bytes("x.npt", b"datadata")
        (leftover,) = tmp_path.rglob("*.tmp")
        assert leftover.read_bytes() == b"data"
        assert not (tmp_path / "x.npt").exists()

    def test_torn_multi_part_write_leaves_half_the_joined_bytes(
        self, tmp_path, rng
    ):
        from repro.storage.faults import CrashAtWrite, InjectedCrash

        parts = encode(layout_matrix(rng))
        assert len(parts) > 2
        data = b"".join(parts)
        store = ObjectStore(
            str(tmp_path), faults=CrashAtWrite(0, torn=True), durable=True
        )
        with pytest.raises(InjectedCrash):
            CommitGroup(store).stage("x.npt", *parts)
        (leftover,) = tmp_path.rglob("*.tmp")
        assert leftover.read_bytes() == data[: len(data) // 2]
        assert not (tmp_path / "x.npt").exists()


class TestCommitGroup:
    """The two-step commit under ``put_bytes``: stage, then publish a
    group.  Sequence and failure behaviour, on the witness's record."""

    @staticmethod
    def traced(tmp_path, durable=True, faults=None):
        from repro.analysis.fswitness import fstrace

        store = ObjectStore(str(tmp_path), durable=durable, faults=faults)
        return store, fstrace()

    def test_group_fsyncs_then_renames_in_order_then_one_dir_fsync(
        self, tmp_path
    ):
        store, trace = self.traced(tmp_path)
        with trace as rec:
            group = CommitGroup(store)
            for name in ("a", "b", "c"):
                group.stage(f"atom/{name}.npt", name.encode())
            assert store.list() == []  # staged is not visible
            assert len(list(tmp_path.rglob("*.tmp"))) == 3
            group.publish()
        ops = rec.ops()
        assert [op.kind for op in ops] == (
            ["write"] * 3 + ["fsync"] * 3 + ["rename"] * 3 + ["fsync_dir"]
        )
        assert [op.dst for op in ops[6:9]] == [
            "s0/atom/a.npt", "s0/atom/b.npt", "s0/atom/c.npt"
        ]
        assert ops[-1].path == "s0/atom"
        assert store.list() == ["atom/a.npt", "atom/b.npt", "atom/c.npt"]
        assert not list(tmp_path.rglob("*.tmp"))

    def test_each_distinct_parent_is_fsynced_once(self, tmp_path):
        store, trace = self.traced(tmp_path)
        with trace as rec:
            group = CommitGroup(store)
            for rel in ("x/1.npt", "y/1.npt", "x/2.npt", "top.npt"):
                group.stage(rel, b"v")
            group.publish()
        dirs = [op.path for op in rec.ops() if op.kind == "fsync_dir"]
        assert dirs == ["s0/x", "s0/y", "s0"]

    def test_staged_parts_publish_their_join(self, tmp_path, rng):
        """The file, the returned size and the ``fs_op`` write event all
        see the bytes the parts join to."""
        store, trace = self.traced(tmp_path)
        obj = layout_matrix(rng)
        parts = encode(obj)
        with trace as rec:
            group = CommitGroup(store)
            nbytes = group.stage("d/x.npt", *parts)
            group.publish()
        published = (tmp_path / "d" / "x.npt").read_bytes()
        assert published == serialize(obj)
        assert nbytes == len(published) == store.bytes_written
        (write,) = [op for op in rec.ops() if op.kind == "write"]
        assert write.sha256 == sha256_hex(published) == sha256_hex(*parts)
        assert write.nbytes == len(published)

    def test_one_mkdir_per_distinct_parent(self, tmp_path, monkeypatch):
        import os

        store = ObjectStore(str(tmp_path))
        (tmp_path / "d").mkdir()
        (tmp_path / "e").mkdir()
        made = []
        real_mkdir = os.mkdir
        monkeypatch.setattr(
            os, "mkdir", lambda path, *a, **k: (made.append(str(path)),
                                               real_mkdir(path, *a, **k))
        )
        group = CommitGroup(store)
        for rel in ("d/1.npt", "d/2.npt", "e/1.npt", "d/3.npt", "e/2.npt"):
            group.stage(rel, b"v")
        group.publish()
        assert made == [str(tmp_path / "d"), str(tmp_path / "e")]

    def test_stage_charges_accounting_per_file(self, tmp_path):
        store = ObjectStore(str(tmp_path))
        group = CommitGroup(store)
        assert group.stage("a.npt", b"12345") == 5
        assert (store.bytes_written, store.simulated_write_s > 0) == (5, True)
        group.abandon()
        assert not list(tmp_path.rglob("*")), "abandon left a temp behind"

    def test_failed_stage_abandons_the_whole_group(self, tmp_path):
        store = ObjectStore(str(tmp_path), durable=True)
        group = CommitGroup(store)
        group.stage("d/a.npt", b"first")
        (tmp_path / "d" / "b.npt.tmp").mkdir()  # open(..., "wb") will raise
        with pytest.raises(OSError):
            group.stage("d/b.npt", b"second")
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == []

    def test_failed_publish_unlinks_what_is_still_staged(self, tmp_path):
        from repro.storage.faults import NoSpaceAtPublish

        store, trace = self.traced(tmp_path, faults=NoSpaceAtPublish(at=1))
        with trace as rec:
            group = CommitGroup(store)
            for name in ("a", "b", "c"):
                group.stage(f"{name}.npt", name.encode())
            with pytest.raises(OSError) as excinfo:
                group.publish()
        import errno

        assert excinfo.value.errno == errno.ENOSPC
        # the rename before the fault stands; nothing staged survives
        assert store.list() == ["a.npt"]
        assert not list(tmp_path.rglob("*.tmp"))
        assert [op.path for op in rec.ops() if op.kind == "unlink"] == [
            "s0/b.npt.tmp", "s0/c.npt.tmp"
        ]

    def test_fsync_dir_records_and_honours_durable(self, tmp_path):
        from repro.analysis.fswitness import fstrace

        (tmp_path / "atoms").mkdir()
        with fstrace() as rec:
            ObjectStore(str(tmp_path), durable=False).fsync_dir("atoms")
            ObjectStore(str(tmp_path), durable=True).fsync_dir("atoms")
        assert [(op.kind, op.path) for op in rec.ops()] == [
            ("fsync_dir", "s0/atoms")
        ]
