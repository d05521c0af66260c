"""Source-file table and reader: verified loads, read-only slices."""

import hashlib
import threading

import numpy as np
import pytest

from repro.ckpt import manifest as manifest_mod
from repro.ckpt.errors import CheckpointIntegrityError
from repro.storage.rangeio import BlockCache, RangeReader
from repro.storage.serializer import SerializationError
from repro.storage.store import ObjectStore


@pytest.fixture
def store(tmp_path):
    store = ObjectStore(str(tmp_path))
    payload = bytes(range(256)) * 400  # 102400 bytes, position-dependent
    (tmp_path / "blob.bin").write_bytes(payload)
    return store, payload


def open_reader(store, consumers=1, entry=None):
    """A reader over a one-file plan; ``entry`` is the file's manifest
    record (None: load without a record to check against)."""
    return RangeReader(
        store,
        BlockCache({"blob.bin": consumers}),
        lambda reader, rel: manifest_mod.verify_streaming(reader, rel, entry),
    )


def load(reader, rels):
    """Take every file of ``rels`` the way a conversion worker does:
    each as the table hands it out, resident and verified."""
    left = list(rels)
    while left:
        left.remove(reader.next_ready(left))


def loaded(store, **kwargs):
    reader = open_reader(store, **kwargs)
    load(reader, ["blob.bin"])
    return reader


def tiny_window(monkeypatch, nbytes):
    monkeypatch.setattr("repro.storage.rangeio.WINDOW_AUTO_CAP_BYTES", nbytes)


class TestReadRange:
    def test_exact_bytes(self, store):
        store, payload = store
        assert store.read_range("blob.bin", 1000, 37) == payload[1000:1037]

    def test_short_read_raises(self, store):
        store, payload = store
        with pytest.raises(EOFError):
            store.read_range("blob.bin", len(payload) - 10, 20)

    def test_invalid_range_rejected(self, store):
        store, _ = store
        with pytest.raises(ValueError):
            store.read_range("blob.bin", -1, 4)
        with pytest.raises(ValueError):
            store.read_range("blob.bin", 0, -4)

    def test_bytes_accounted(self, store):
        store, _ = store
        before = store.bytes_read
        store.read_range("blob.bin", 0, 512)
        assert store.bytes_read - before == 512

    def test_read_into_lands_in_place_and_is_accounted(self, store):
        store, payload = store
        buf = bytearray(300)
        store.read_into("blob.bin", 1000, memoryview(buf)[100:])
        assert bytes(buf[100:]) == payload[1000:1200]
        assert bytes(buf[:100]) == bytes(100)  # nothing outside the view
        assert store.bytes_read == 200
        with pytest.raises(EOFError):
            store.read_into("blob.bin", len(payload) - 10, memoryview(buf))
        with pytest.raises(ValueError):
            store.read_into("blob.bin", -1, memoryview(buf))
        assert store.bytes_read == 200  # a failed read charges nothing


class TestRangeReader:
    def test_read_returns_exact_bytes(self, store):
        store, payload = store
        reader = loaded(store)
        (view,) = reader.read_multi("blob.bin", [(500, 300)])
        assert bytes(view) == payload[500:800]

    def test_windowed_fetch_bounds_single_reads(self, store, monkeypatch):
        store, payload = store
        tiny_window(monkeypatch, 1000)
        reader = loaded(store)
        (data,) = reader.read_multi("blob.bin", [(0, 10240)])
        assert bytes(data) == payload[:10240]
        assert reader.peak_window_bytes == 1000
        # the whole file, sequentially: 102 full windows + a 400-byte tail
        assert reader.read_ops == reader.num_batches == 103
        assert store.bytes_read == len(payload)

    def test_cache_serves_repeat_reads_without_io(self, store):
        store, payload = store
        reader = loaded(store)
        assert (reader.read_ops, reader.cache.misses) == (1, 1)
        reader.read_multi("blob.bin", [(0, 4096)])
        (again,) = reader.read_multi("blob.bin", [(1024, 1024)])
        assert bytes(again) == payload[1024:2048]
        assert reader.read_ops == 1  # the load was the only store read
        assert reader.cache.hits == 2
        assert store.bytes_read == len(payload)

    def test_adjacent_ranges_coalesce_into_one_read(self, store):
        store, payload = store
        reader = loaded(store)
        parts = reader.read_multi("blob.bin", [(0, 100), (100, 100), (200, 100)])
        assert [bytes(p) for p in parts] == [
            payload[0:100], payload[100:200], payload[200:300]
        ]
        assert reader.read_ops == 1
        assert reader.ranges_coalesced == 0  # slices: nothing to merge

    def test_results_in_input_order(self, store):
        store, payload = store
        reader = loaded(store)
        parts = reader.read_multi("blob.bin", [(900, 10), (100, 10), (500, 10)])
        assert [bytes(p) for p in parts] == [
            payload[900:910], payload[100:110], payload[500:510]
        ]

    def test_digest_matches_and_warms_cache(self, store, monkeypatch):
        store, payload = store
        tiny_window(monkeypatch, 4096)
        digests = []
        reader = RangeReader(
            store,
            BlockCache({"blob.bin": 1}),
            lambda reader, rel: digests.append(reader.digest(rel)),
        )
        load(reader, ["blob.bin"])
        assert digests == [hashlib.sha256(payload).hexdigest()]
        ops = reader.read_ops
        (view,) = reader.read_multi("blob.bin", [(0, len(payload))])
        assert bytes(view) == payload
        assert reader.read_ops == ops  # extract rides the digest's read

    def test_zero_length_range(self, store):
        store, _ = store
        reader = loaded(store)
        (view,) = reader.read_multi("blob.bin", [(10, 0)])
        assert bytes(view) == b""

    def test_missing_file_raises(self, store):
        store, _ = store
        reader = RangeReader(
            store, BlockCache({"nope.bin": 1}), lambda r, rel: r.digest(rel)
        )
        with pytest.raises(FileNotFoundError):
            load(reader, ["nope.bin"])
        # the failed load is what every later consumer gets, too
        with pytest.raises(FileNotFoundError):
            reader.read_multi("nope.bin", [(0, 10)])

    def test_invalid_ranges_rejected(self, store):
        store, payload = store
        reader = loaded(store)
        with pytest.raises(ValueError):
            reader.read_multi("blob.bin", [(-1, 4)])
        with pytest.raises(ValueError):
            reader.read_multi("blob.bin", [(0, -4)])
        with pytest.raises(EOFError):
            reader.read_multi("blob.bin", [(len(payload) - 10, 20)])

    def test_only_planned_resident_files_are_served(self, store):
        store, _ = store
        reader = open_reader(store)
        with pytest.raises(LookupError):  # planned, but nobody loaded it
            reader.read_multi("blob.bin", [(0, 4)])
        with pytest.raises(LookupError):  # not in the plan at all
            load(reader, ["other.bin"])
        load(reader, ["blob.bin"])
        reader.cache.release("blob.bin")  # its one planned consumer is done
        assert reader.cache.resident_bytes == 0
        with pytest.raises(LookupError):
            reader.read_multi("blob.bin", [(0, 4)])

    def test_file_stays_until_its_last_planned_consumer(self, store):
        store, payload = store
        reader = loaded(store, consumers=2)
        load(reader, ["blob.bin"])  # the second consumer: no second read
        assert (reader.read_ops, reader.cache.misses) == (1, 1)
        reader.cache.release("blob.bin")
        assert reader.cache.resident_bytes == len(payload)
        reader.cache.release("blob.bin")
        assert reader.cache.resident_bytes == 0
        assert reader.cache.peak_resident_bytes == len(payload)

    def test_peers_split_a_shared_file_group(self, tmp_path):
        """Two workers load the same four files: each claims one file,
        loads it, then claims the next, so while one is still verifying
        its first file the other loads the rest — instead of waiting on
        claims its peer has not started."""
        store = ObjectStore(str(tmp_path))
        files = [f"f{i}.bin" for i in range(4)]
        for i, rel in enumerate(files):
            (tmp_path / rel).write_bytes(bytes([i]) * 1024)
        verified = []  # (file, thread) per verify call
        first_verifying, peer_verified = threading.Event(), threading.Event()

        def verify(reader, rel):
            me = threading.current_thread().name
            verified.append((rel, me))
            if me == "first":
                first_verifying.set()
                peer_verified.wait(timeout=2)  # the parent's claims never let it
            else:
                peer_verified.set()
            reader.digest(rel)

        reader = RangeReader(store, BlockCache(dict.fromkeys(files, 2)), verify)
        errors = []

        def worker():
            try:
                load(reader, files)
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        first = threading.Thread(target=worker, name="first")
        first.start()
        assert first_verifying.wait(timeout=10)
        second = threading.Thread(target=worker, name="second")
        second.start()
        for thread in (first, second):
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert errors == []
        assert sorted(rel for rel, _ in verified) == files
        assert {me for _, me in verified} == {"first", "second"}

    @pytest.mark.parametrize("damage", ["digest", "size"])
    def test_unverified_file_is_never_served(self, store, damage):
        store, payload = store
        entry = {
            "nbytes": len(payload) + (damage == "size"),
            "sha256": hashlib.sha256(
                payload + b"x" * (damage == "digest")
            ).hexdigest(),
        }
        reader = open_reader(store, consumers=2, entry=entry)
        with pytest.raises(CheckpointIntegrityError, match="blob.bin"):
            load(reader, ["blob.bin"])
        # neither a slice request nor the second planned consumer can
        # get past the failed verification, and nothing is re-read
        with pytest.raises(CheckpointIntegrityError, match="blob.bin"):
            reader.read_multi("blob.bin", [(0, 4)])
        with pytest.raises(CheckpointIntegrityError, match="blob.bin"):
            load(reader, ["blob.bin"])
        assert reader.read_ops == (damage == "digest")
        reader.cache.clear()
        assert reader.cache.resident_bytes == 0


class TestRecycledBuffers:
    """A dropped file's buffer takes the next file loaded."""

    def two_files(self, tmp_path, buffers=1):
        store = ObjectStore(str(tmp_path))
        blobs = {"a.bin": bytes(range(256)) * 8, "b.bin": bytes([7]) * 1500}
        for rel, data in blobs.items():
            (tmp_path / rel).write_bytes(data)
        cache = BlockCache(dict.fromkeys(blobs, 1), buffers=buffers)
        return RangeReader(store, cache, lambda r, rel: r.digest(rel)), blobs

    def test_next_file_lands_in_the_dropped_files_buffer(self, tmp_path):
        reader, blobs = self.two_files(tmp_path)
        load(reader, ["a.bin"])
        (a_view,) = reader.read_multi("a.bin", [(0, 2048)])
        assert bytes(a_view) == blobs["a.bin"]
        reader.cache.release("a.bin")
        load(reader, ["b.bin"])
        (b_view,) = reader.read_multi("b.bin", [(0, 1500)])
        assert bytes(b_view) == blobs["b.bin"]
        assert b_view.obj is a_view.obj  # one buffer, two files
        assert reader.cache.allocations == 1
        assert reader.cache.peak_resident_bytes == 2048

    def test_a_buffer_too_small_is_not_reused(self, tmp_path):
        reader, blobs = self.two_files(tmp_path)
        load(reader, ["b.bin"])
        reader.cache.release("b.bin")
        load(reader, ["a.bin"])  # 2048 bytes do not fit in 1500
        (view,) = reader.read_multi("a.bin", [(0, 2048)])
        assert bytes(view) == blobs["a.bin"]
        assert reader.cache.allocations == 2

    def test_free_list_keeps_at_most_its_cap(self, tmp_path):
        reader, _ = self.two_files(tmp_path, buffers=1)
        load(reader, ["a.bin", "b.bin"])  # both resident: two buffers
        assert reader.cache.allocations == 2
        reader.cache.release("b.bin")
        reader.cache.release("a.bin")
        # the larger buffer stays; clear() frees the list too
        assert [buf.size for buf in reader.cache._free] == [2048]
        reader.cache.clear()
        assert reader.cache._free == []


class TestCoalescingEdgeCases:
    """Range shape never changes a payload byte, or costs a second read.

    Every case checks the returned buffers against a plain slice of the
    original payload; whatever the ranges look like, the file was read
    once, when it was loaded.
    """

    def test_overlapping_ranges_fetch_union_once(self, store):
        store, payload = store
        reader = loaded(store)
        ranges = [(0, 200), (100, 200), (250, 100)]
        parts = reader.read_multi("blob.bin", ranges)
        assert [bytes(p) for p in parts] == [
            payload[o:o + n] for o, n in ranges
        ]
        assert reader.read_ops == 1
        assert store.bytes_read == len(payload)

    def test_out_of_order_ranges_sorted_into_one_pread(self, store):
        store, payload = store
        reader = loaded(store)
        ranges = [(200, 100), (0, 100), (100, 100)]
        parts = reader.read_multi("blob.bin", ranges)
        # results in request order
        assert [bytes(p) for p in parts] == [
            payload[o:o + n] for o, n in ranges
        ]
        assert reader.read_ops == 1
        assert reader.num_batches == 1

    def test_adjacent_single_byte_slices_one_pread(self, store):
        store, payload = store
        reader = loaded(store)
        parts = reader.read_multi("blob.bin", [(i, 1) for i in range(64)])
        assert [bytes(p) for p in parts] == [
            payload[i:i + 1] for i in range(64)
        ]
        assert reader.read_ops == 1

    def test_coalesced_span_straddling_window_boundary(
        self, store, monkeypatch
    ):
        store, payload = store
        tiny_window(monkeypatch, 100)
        reader = loaded(store)
        # both ranges cross the read-window edges at 100: each still
        # comes back intact, from reads no larger than the window
        parts = reader.read_multi("blob.bin", [(0, 160), (70, 50)])
        assert bytes(parts[0]) == payload[0:160]
        assert bytes(parts[1]) == payload[70:120]
        assert reader.peak_window_bytes <= 100

    def test_range_straddling_cached_block_boundary(self, store, monkeypatch):
        store, payload = store
        tiny_window(monkeypatch, 100)
        reader = loaded(store)  # read as 1024 windows of 100 bytes
        ops = reader.read_ops
        (view,) = reader.read_multi("blob.bin", [(90, 120)])  # three windows
        assert bytes(view) == payload[90:210]
        assert reader.read_ops == ops

    def test_random_plans_identical_with_and_without_coalescing(
        self, store, monkeypatch
    ):
        """Random plans against a file held as the store's one buffer
        and against one assembled from many small read windows."""
        store, payload = store
        rng = np.random.default_rng(7)
        whole = loaded(store)
        tiny_window(monkeypatch, 4096)
        windowed = loaded(store)
        assert windowed.read_ops > whole.read_ops == 1
        for _ in range(20):
            n = int(rng.integers(1, 12))
            offsets = rng.integers(0, len(payload) - 64, size=n)
            ranges = [
                (int(o), int(rng.integers(1, 64))) for o in offsets
            ]
            expected = [payload[o:o + ln] for o, ln in ranges]
            for reader in (whole, windowed):
                assert [
                    bytes(p) for p in reader.read_multi("blob.bin", ranges)
                ] == expected


class TestReadOnlyReturns:
    """Poisoning defense: served bytes are immutable.

    Every buffer the reader hands out is a read-only view of the one
    verified copy — a consumer mutating its view must get an immediate
    error, never a silent corruption of bytes other consumers will
    treat as digest-verified.
    """

    def test_single_block_view_is_readonly(self, store):
        store, _ = store
        (view,) = loaded(store).read_multi("blob.bin", [(100, 50)])
        assert view.readonly
        with pytest.raises(TypeError):
            view[0] = 0xFF

    def test_multi_piece_view_is_readonly(self, store, monkeypatch):
        store, _ = store
        tiny_window(monkeypatch, 100)
        # spans two read windows of a file assembled from many
        (view,) = loaded(store).read_multi("blob.bin", [(50, 100)])
        assert view.readonly

    def test_frombuffer_over_view_is_readonly(self, store):
        store, _ = store
        (view,) = loaded(store).read_multi("blob.bin", [(0, 400)])
        arr = np.frombuffer(view, dtype=np.float32)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0

    def test_cache_mutation_attempt_does_not_reach_later_reads(self, store):
        store, payload = store
        reader = loaded(store)
        (view,) = reader.read_multi("blob.bin", [(0, 64)])
        with pytest.raises(TypeError):
            view[:] = b"\x00" * 64
        (again,) = reader.read_multi("blob.bin", [(0, 64)])
        assert bytes(again) == payload[:64]


class TestIndexReads:
    def test_load_index_locates_payload_bytes(self, tmp_path):
        store = ObjectStore(str(tmp_path))
        arr = np.arange(1000, dtype=np.float32)
        store.save("obj.npt", {"values": arr, "meta": {"k": 1}})
        tree = store.load_index("obj.npt")
        assert tree["meta"] == {"k": 1}
        entry = tree["values"]
        offset, nbytes = entry.element_range(10, 5)
        raw = store.read_range("obj.npt", offset, nbytes)
        assert np.array_equal(
            np.frombuffer(raw, dtype=np.float32), arr[10:15]
        )

    def test_element_range_rejects_overrun(self, tmp_path):
        store = ObjectStore(str(tmp_path))
        store.save("obj.npt", {"values": np.zeros(8, dtype=np.float32)})
        entry = store.load_index("obj.npt")["values"]
        with pytest.raises(SerializationError):
            entry.element_range(6, 4)
