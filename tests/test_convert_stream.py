"""Planned byte-range conversion and sliced loading.

The conversion pipeline (read plans lowered from provenance interval
maps, fanned over a thread pool) must be *byte-identical* to the
paper's operators composed naively over fully read rank files
(``tests/reference_convert.py``) while reading strictly fewer source
bytes, and the sliced load path must reproduce the same engine state
while reading strictly fewer atom bytes.  A crash mid-fan-out must
resume reusing exactly the atoms that committed.
"""

import collections
import inspect

import numpy as np
import pytest

from repro.ckpt.errors import CheckpointIntegrityError
from repro.ckpt.loader import resolve_tag
from repro.ckpt.manifest import load_verified
from repro.ckpt.saver import save_distributed_checkpoint
from repro.core.atom import STATE_KINDS, AtomStore
from repro.core.convert import _scatter, _strided_runs, ucp_convert
from repro.core.errors import UCPFormatError
from repro.core.loader import load_ucp_into_engine
from repro.core.ops import AtomShardCache, load
from repro.core.patterns import program_for_config
from repro.dist.topology import ParallelConfig
from repro.storage.faults import CrashAtWrite, InjectedCrash, RankKillAtWrite
from repro.storage.store import CommitGroup, CommitPool, ObjectStore

from tests.helpers import make_engine, record_source_tables
from tests.reference_convert import (
    assert_matches_reference,
    reference_load_shard,
)


def dir_digests(root, sub="."):
    store = ObjectStore(str(root))
    return {rel: store.digest(rel) for rel in store.list(sub)}


def tag_bytes(ckpt_dir):
    """Total committed bytes of the checkpoint's latest tag."""
    store = ObjectStore(ckpt_dir)
    tag = resolve_tag(store, None)
    return sum(store.size(rel) for rel in store.list(tag))


def unpadded(engine, name, values):
    spec = engine.layout.spec(name)
    return values[tuple(slice(0, d) for d in spec.unpadded_shape)]


@pytest.fixture(scope="module")
def tp4_checkpoint(tmp_path_factory):
    """A trained tp4.dp2 source run — the TP-degree-change workhorse."""
    root = tmp_path_factory.mktemp("stream_tp4")
    engine = make_engine(parallel=ParallelConfig(tp=4, dp=2), seed=11)
    engine.train(3)
    ckpt_dir = str(root / "ckpt")
    engine.save_checkpoint(ckpt_dir)
    return engine, ckpt_dir


@pytest.fixture(scope="module")
def moe_checkpoint(tmp_path_factory):
    """An expert-parallel MoE source run."""
    root = tmp_path_factory.mktemp("stream_moe")
    engine = make_engine(
        "moe-mini",
        parallel=ParallelConfig(tp=2, dp=2, expert_parallel=True),
        seed=11,
    )
    engine.train(2)
    ckpt_dir = str(root / "ckpt")
    engine.save_checkpoint(ckpt_dir)
    return engine, ckpt_dir


@pytest.fixture(scope="module")
def per_param_checkpoint(tmp_path_factory):
    """A Megatron-classic per-parameter optimizer layout source."""
    root = tmp_path_factory.mktemp("stream_per_param")
    engine = make_engine(
        parallel=ParallelConfig(tp=2, dp=2, zero_stage=0), seed=3
    )
    engine.train(2)
    ckpt_dir = str(root / "ckpt")
    save_distributed_checkpoint(engine, ckpt_dir, optimizer_layout="per_param")
    return engine, ckpt_dir


class CountingStore(ObjectStore):
    """An ObjectStore that counts payload read calls per object (and
    remembers the largest single range it was asked for)."""

    def __init__(self, base_dir):
        super().__init__(base_dir)
        self.payload_reads = collections.Counter()
        self.largest_range = 0

    def read_bytes(self, rel_path):
        self.payload_reads[rel_path] += 1
        return super().read_bytes(rel_path)

    def read_range(self, rel_path, offset, length):
        self.payload_reads[rel_path] += 1
        return super().read_range(rel_path, offset, length)

    def read_ranges(self, rel_path, ranges):
        self.payload_reads[rel_path] += 1
        self.largest_range = max(
            [self.largest_range] + [length for _, length in ranges]
        )
        return super().read_ranges(rel_path, ranges)

    def read_into(self, rel_path, offset, out):
        self.payload_reads[rel_path] += 1
        self.largest_range = max(self.largest_range, len(out))
        return super().read_into(rel_path, offset, out)


@pytest.fixture(scope="module")
def pp2_checkpoint(tmp_path_factory):
    """A two-stage pipeline source: two disjoint groups of rank files."""
    root = tmp_path_factory.mktemp("stream_pp2")
    engine = make_engine(parallel=ParallelConfig(tp=2, pp=2, dp=2), seed=5)
    engine.train(1)
    ckpt_dir = str(root / "ckpt")
    engine.save_checkpoint(ckpt_dir)
    return engine, ckpt_dir


def count_source_reads(monkeypatch) -> list:
    """Every source store a conversion opens from here on is a
    :class:`CountingStore`; returns the list they are appended to."""
    stores = []

    def counting(base_dir):
        stores.append(CountingStore(base_dir))
        return stores[-1]

    monkeypatch.setattr("repro.core.convert.ObjectStore", counting)
    return stores


class TestByteIdentityWithReference:
    def test_atoms_byte_identical_tp_change(self, tp4_checkpoint, tmp_path):
        """TP=4 source conversion == the reference operators, state for
        state across every atom."""
        _, ckpt_dir = tp4_checkpoint
        ucp_dir = str(tmp_path / "ucp")
        report = ucp_convert(ckpt_dir, ucp_dir)
        assert report.num_params == len(AtomStore(ucp_dir).list_atoms())
        assert_matches_reference(ucp_dir, ckpt_dir)

    def test_atoms_byte_identical_moe(self, moe_checkpoint, tmp_path):
        _, ckpt_dir = moe_checkpoint
        ucp_dir = str(tmp_path / "ucp")
        ucp_convert(ckpt_dir, ucp_dir)
        assert_matches_reference(ucp_dir, ckpt_dir)

    def test_identical_under_per_param_layout(
        self, per_param_checkpoint, tmp_path
    ):
        _, ckpt_dir = per_param_checkpoint
        ucp_dir = str(tmp_path / "ucp")
        ucp_convert(ckpt_dir, ucp_dir)
        assert_matches_reference(ucp_dir, ckpt_dir)

    def test_identical_under_params_to_average_program(
        self, tp4_checkpoint, tmp_path
    ):
        """A custom program reclassifying the norms changes *which*
        copies the plans read; the mean must match the reference's."""
        engine, ckpt_dir = tp4_checkpoint
        program = program_for_config(engine.model_cfg, average_replicas=True)
        ucp_dir = str(tmp_path / "ucp")
        ucp_convert(ckpt_dir, ucp_dir, program=program)
        assert_matches_reference(ucp_dir, ckpt_dir, program)

    def test_worker_count_does_not_change_bytes(self, tp4_checkpoint, tmp_path):
        _, ckpt_dir = tp4_checkpoint
        serial_dir = str(tmp_path / "serial")
        threaded_dir = str(tmp_path / "threaded")
        ucp_convert(ckpt_dir, serial_dir, workers=1)
        ucp_convert(ckpt_dir, threaded_dir, workers=4)
        assert dir_digests(serial_dir) == dir_digests(threaded_dir)


class TestReadByteBounds:
    def test_streamed_reads_less_than_checkpoint(self, tp4_checkpoint, tmp_path):
        """The read plans skip model_states files and the padding/
        non-selected bytes entirely: a streamed conversion must read
        strictly less than the source tag's total size."""
        _, ckpt_dir = tp4_checkpoint
        report = ucp_convert(ckpt_dir, str(tmp_path / "ucp"))
        total = tag_bytes(ckpt_dir)
        assert 0 < report.bytes_read < total, (report.bytes_read, total)
        assert report.bytes_written > 0
        assert report.peak_window_bytes > 0

    def test_resume_touches_only_fresh_atom_files(self, tp4_checkpoint, tmp_path):
        """Streaming resume reads only the files the *fresh* atoms'
        plans touch: with one atom missing, the re-run must read far
        fewer source bytes than the clean conversion did."""
        _, ckpt_dir = tp4_checkpoint
        ucp_dir = str(tmp_path / "ucp")
        clean = ucp_convert(ckpt_dir, ucp_dir)
        store = ObjectStore(ucp_dir)
        for rel in store.list("atoms/final_norm.weight"):
            store.delete(rel)
        store.delete("ucp_meta.npt")
        resumed = ucp_convert(ckpt_dir, ucp_dir)
        assert resumed.num_reused == clean.num_params - 1
        # final_norm is replicated: its plan (with replica verification)
        # touches one dp-group's tp files — half the source files
        assert 0 < resumed.bytes_read < 0.75 * clean.bytes_read, (
            resumed.bytes_read, clean.bytes_read,
        )

    def test_digest_pass_shares_cache_with_extract(
        self, tp4_checkpoint, moe_checkpoint, tmp_path, monkeypatch
    ):
        """Verification and extraction share one read: every touched
        optimizer file gets exactly one payload read call (it fits the
        read window), a ``model_states`` file none — at any worker
        count, for a TP change, an MoE source and a resumed half."""
        stores = count_source_reads(monkeypatch)
        tables = record_source_tables(monkeypatch)

        def check(num_touched=None):
            src, (_, consumers) = stores.pop(), tables.pop()
            reads = {
                rel: n for rel, n in src.payload_reads.items()
                if "_states" in rel
            }
            assert reads == dict.fromkeys(consumers, 1)
            assert all("optim_states" in rel for rel in reads)
            if num_touched is not None:
                assert len(reads) == num_touched

        for workers in (1, 2):
            for name, (_, ckpt_dir) in (
                ("tp4", tp4_checkpoint), ("moe", moe_checkpoint)
            ):
                ucp_convert(
                    ckpt_dir, str(tmp_path / f"{name}{workers}"),
                    workers=workers,
                )
                check(num_touched=8 if name == "tp4" else None)
            # a conversion killed halfway, then resumed over its atoms
            _, ckpt_dir = tp4_checkpoint
            half = str(tmp_path / f"half{workers}")
            with pytest.raises(InjectedCrash):
                ucp_convert(
                    ckpt_dir, half, workers=1,
                    dst_store=ObjectStore(
                        half, faults=RankKillAtWrite(ranks=[0], at=60)
                    ),
                )
            stores.pop(), tables.pop()
            resumed = ucp_convert(ckpt_dir, half, workers=workers)
            assert resumed.num_reused == (60 - 1) // 4
            check()


class TestPlannedResidency:
    """A source file is resident from its first planned consumer to its
    last, and never without having matched its manifest entry."""

    def test_files_leave_with_their_last_consumer(
        self, pp2_checkpoint, tmp_path, monkeypatch
    ):
        """One pipeline stage's files are dropped before the next
        stage's are loaded (serially the order is the plan's), so the
        high-water mark is below the touched total."""
        _, ckpt_dir = pp2_checkpoint
        tables = record_source_tables(monkeypatch)
        report = ucp_convert(ckpt_dir, str(tmp_path / "ucp"), workers=1)
        ((table, consumers),) = tables
        src = ObjectStore(ckpt_dir)
        sizes = {rel: src.size(rel) for rel in consumers}
        assert report.digest_bytes == sum(sizes.values())
        assert max(sizes.values()) <= report.peak_resident_bytes
        assert report.peak_resident_bytes < report.digest_bytes
        assert report.peak_resident_bytes == table.peak_resident_bytes
        assert table.resident_bytes == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_file_group_resident_in_recycled_buffers(
        self, pp2_checkpoint, tmp_path, monkeypatch, workers
    ):
        """A tp2.pp2.dp2 source streams one file group at a time: the
        plan's order runs each dp-straddling atom as the next group
        opens, and no worker loads a file while one only an earlier atom
        still needs is held.  So at most two files are ever resident
        (ordered by file name, 5.75x the largest file were), and the
        table allocates at most ``workers + 1`` read buffers."""
        _, ckpt_dir = pp2_checkpoint
        tables = record_source_tables(monkeypatch)
        report = ucp_convert(ckpt_dir, str(tmp_path / "ucp"), workers=workers)
        ((table, consumers),) = tables
        src = ObjectStore(ckpt_dir)
        largest = max(src.size(rel) for rel in consumers)
        assert report.peak_resident_bytes <= 2 * largest
        assert table.allocations <= workers + 1
        assert table.misses == len(consumers)  # each file loaded once
        assert table.resident_bytes == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nothing_resident_after_a_failed_conversion(
        self, pp2_checkpoint, tmp_path, monkeypatch, workers
    ):
        _, ckpt_dir = pp2_checkpoint
        tables = record_source_tables(monkeypatch)
        ucp_dir = str(tmp_path / "ucp")
        with pytest.raises(InjectedCrash):
            ucp_convert(
                ckpt_dir, ucp_dir, workers=workers,
                dst_store=ObjectStore(ucp_dir, faults=CrashAtWrite(30)),
            )
        ((table, _),) = tables
        assert table.peak_resident_bytes > 0
        assert table.resident_bytes == 0
        assert table.allocations <= workers + 1

    def test_flipped_byte_fails_every_consumer_before_commit(
        self, tp4_checkpoint, tmp_path, monkeypatch
    ):
        """One flipped payload byte in a file that feeds many atoms, two
        workers: the load fails once, every atom waiting on the file
        gets the same typed error naming it, and nothing commits."""
        _, ckpt_dir = tp4_checkpoint
        damaged = str(tmp_path / "ckpt")
        src, dst = ObjectStore(ckpt_dir), ObjectStore(damaged, durable=False)
        for rel in src.list("."):
            dst.put_bytes(rel, src.read_bytes(rel))
        tables = record_source_tables(monkeypatch)
        ucp_convert(damaged, str(tmp_path / "clean"), workers=2)
        (_, consumers) = tables.pop()
        victim = max(consumers, key=consumers.get)
        assert consumers[victim] >= 2
        data = bytearray(dst.read_bytes(victim))
        data[-1] ^= 0xFF
        (dst.base / victim).write_bytes(data)

        ucp_dir = str(tmp_path / "ucp")
        stores = count_source_reads(monkeypatch)
        with pytest.raises(CheckpointIntegrityError, match=victim):
            ucp_convert(damaged, ucp_dir, workers=2)
        # failed once, for everyone
        assert stores[0].payload_reads[victim] == 1
        out = ObjectStore(ucp_dir)
        assert not out.exists("ucp_meta.npt")
        assert not [rel for rel in out.list(".") if rel.endswith(".tmp")]
        # no atom fed by the victim was written, and the file is gone
        # from the table: no slice of it can be had, then or now
        ((table, _),) = tables
        assert table.resident_bytes == 0
        with pytest.raises(LookupError):
            table.view(victim)
        written = AtomStore(ucp_dir).list_atoms()
        assert len(written) < len(AtomStore(str(tmp_path / "clean")).list_atoms())


class TestConversionKnobs:
    """The batching/overlap knobs tune IO shape, never output bytes."""

    def test_invalid_knobs_rejected(self, tp4_checkpoint, tmp_path):
        """No switch without a caller: four optional arguments, and every
        knob that used to exist is refused."""
        _, ckpt_dir = tp4_checkpoint
        optional = [
            p.name for p in inspect.signature(ucp_convert).parameters.values()
            if p.default is not inspect.Parameter.empty
        ]
        assert optional == ["tag", "program", "workers", "dst_store"]
        for knob in (
            "window_bytes", "cache", "verify_replicas", "strict_spec_check",
            "resume", "cluster",
        ):
            with pytest.raises(TypeError):
                ucp_convert(ckpt_dir, str(tmp_path / "y"), **{knob: None})

    def test_storage_takes_no_parallel_argument(self):
        """The simulated clock charges every store call as one request;
        no store, commit-group or atom method, and no verified load,
        takes a ``parallel`` count."""
        methods = [load_verified]
        for cls in (ObjectStore, CommitGroup, CommitPool, AtomStore):
            methods += [
                fn for name, fn in vars(cls).items()
                if callable(fn) and not name.startswith("__")
            ]
        takes = [
            fn.__qualname__ for fn in methods
            if "parallel" in inspect.signature(fn).parameters
        ]
        assert takes == []

    def test_stage_timings_and_counters_populated(
        self, tp4_checkpoint, tmp_path
    ):
        _, ckpt_dir = tp4_checkpoint
        streamed = ucp_convert(ckpt_dir, str(tmp_path / "s"))
        assert set(streamed.stage_seconds) == {
            "lower", "plan", "digest", "read", "assemble", "write",
            "finalize",
        }
        assert all(t >= 0 for t in streamed.stage_seconds.values())
        assert streamed.num_preads > 0
        assert streamed.ranges_coalesced == 0  # a range is a slice now
        assert 0 < streamed.peak_window_bytes <= streamed.peak_resident_bytes
        assert streamed.peak_resident_bytes <= streamed.digest_bytes
        assert (
            streamed.header_bytes
            + streamed.digest_bytes
            <= streamed.bytes_read
        )
        assert 0 < streamed.planned_state_bytes <= streamed.digest_bytes

    def test_window_auto_sizing_reads_whole_files(
        self, tp4_checkpoint, tmp_path, monkeypatch
    ):
        """A file within the read window is one read; with the window
        patched down to a few KB every file is read in that many more
        calls — none above the window — for the same output bytes and
        the same source bytes."""
        _, ckpt_dir = tp4_checkpoint
        auto_dir = str(tmp_path / "auto")
        fixed_dir = str(tmp_path / "fixed")
        tables = record_source_tables(monkeypatch)
        auto = ucp_convert(ckpt_dir, auto_dir)
        src = ObjectStore(ckpt_dir)
        sizes = [src.size(rel) for rel in tables[0][1]]
        assert auto.num_preads == len(sizes)
        assert auto.peak_window_bytes == max(sizes)

        stores = count_source_reads(monkeypatch)
        monkeypatch.setattr("repro.storage.rangeio.WINDOW_AUTO_CAP_BYTES", 4096)
        fixed = ucp_convert(ckpt_dir, fixed_dir)
        assert dir_digests(auto_dir) == dir_digests(fixed_dir)
        assert fixed.bytes_read == auto.bytes_read
        assert fixed.num_preads == sum(-(-size // 4096) for size in sizes)
        assert fixed.peak_window_bytes == stores[0].largest_range == 4096


# (source fixture, model, target) triples for the load oracle
LOAD_CASES = [
    pytest.param("tp4_checkpoint", "gpt3-mini",
                 ParallelConfig(tp=2, dp=2), id="tp4-to-tp2"),
    pytest.param("moe_checkpoint", "moe-mini",
                 ParallelConfig(tp=2, pp=2, dp=2), id="moe"),
    pytest.param("per_param_checkpoint", "gpt3-mini",
                 ParallelConfig(tp=4, dp=1), id="per-param"),
    pytest.param("tp4_checkpoint", "gpt3-mini",
                 ParallelConfig(tp=2, pp=2, dp=2), id="tied-pp2"),
    pytest.param("tp4_checkpoint", "gpt3-mini",
                 ParallelConfig(tp=1, pp=4, dp=1), id="tied-pp4"),
    pytest.param("tp4_checkpoint", "gpt3-mini",
                 ParallelConfig(tp=2, dp=1, sp=2), id="sp2"),
]


class TestSlicedLoad:
    @pytest.mark.parametrize("fixture, model, target", LOAD_CASES)
    def test_load_matches_reference_padding_included(
        self, fixture, model, target, request, tmp_path
    ):
        """The byte-range loader == the paper's Load composed naively
        (whole-atom read, ``add_padding``, fragment): every full shard
        and every loaded flat partition, padding positions included."""
        _, ckpt_dir = request.getfixturevalue(fixture)
        ucp_dir = str(tmp_path / "ucp")
        ucp_convert(ckpt_dir, ucp_dir)
        engine = make_engine(model, parallel=target, seed=0)
        load_ucp_into_engine(engine, ucp_dir)

        layout = engine.layout
        atom_store = AtomStore(ucp_dir)
        cache = AtomShardCache(atom_store, layout)
        for kind in STATE_KINDS:
            shards = {
                (name, r): reference_load_shard(
                    atom_store, name, kind, spec, target.tp, r
                )
                for name, spec in layout.shard_specs.items()
                for r in range(target.tp)
            }
            for (name, r), expected in shards.items():
                got = cache.shard_slice(name, kind, r, 0, expected.size)
                assert got.tobytes() == expected.tobytes(), (name, kind, r)
            # the expected partitions come from the layout's own slicing,
            # not from the plan the load executed
            for coord in layout.mp_coords():
                rank_layout = layout.rank_layout(*coord)
                for d in range(target.dp):
                    expected = np.zeros(rank_layout.partition_numel, np.float32)
                    for piece in rank_layout.slices_in_partition(d):
                        expected[piece.local_start:piece.local_end] = shards[
                            piece.name, coord[2]
                        ][piece.shard_start:piece.shard_end]
                    got = engine.zero._partition_array(
                        engine.zero.partitions[coord][d], kind
                    )
                    assert got.tobytes() == expected.tobytes(), (coord, d, kind)
                    got = load(atom_store, layout, kind, *coord, d)
                    assert got.tobytes() == expected.tobytes(), (coord, d, kind)

    def test_sliced_load_state_identical_fewer_bytes(
        self, tp4_checkpoint, tmp_path
    ):
        """Each target rank pulls only its partition's byte slices of
        each atom; the restored state must match the source run's
        bit-for-bit while reading fewer bytes than the UCP directory
        holds (what a whole-file load would read at least once)."""
        engine, ckpt_dir = tp4_checkpoint
        ucp_dir = str(tmp_path / "ucp")
        ucp_convert(ckpt_dir, ucp_dir)

        store = ObjectStore(ucp_dir)
        target = make_engine(parallel=ParallelConfig(tp=2, dp=2), seed=0)
        load_ucp_into_engine(target, ucp_dir, store=store)

        for kind in ("fp32", "exp_avg", "exp_avg_sq"):
            src = engine.zero.consolidated_tensors(kind)
            dst = target.zero.consolidated_tensors(kind)
            for name in src:
                assert np.array_equal(
                    unpadded(engine, name, src[name]),
                    unpadded(engine, name, dst[name]),
                ), (name, kind)
        whole = sum(store.size(rel) for rel in store.list("."))
        assert 0 < store.bytes_read < whole

    @pytest.mark.parametrize("fixture, model, target", LOAD_CASES)
    def test_each_state_file_is_read_once(
        self, fixture, model, target, request, tmp_path
    ):
        """A whole-engine load is atom-major: one payload read call per
        atom state file however many stages, tp ranks and sp replicas
        hold the atom (a tied embedding included), and never more bytes
        than the state files plus ``ucp_meta`` hold."""
        _, ckpt_dir = request.getfixturevalue(fixture)
        ucp_dir = str(tmp_path / "ucp")
        ucp_convert(ckpt_dir, ucp_dir)
        store = CountingStore(ucp_dir)
        load_ucp_into_engine(
            make_engine(model, parallel=target, seed=0), ucp_dir, store=store
        )
        state_files = [
            rel for rel in store.list("atoms")
            if not rel.endswith("atom_meta.npt")
        ]
        assert {rel: store.payload_reads[rel] for rel in state_files} == dict.fromkeys(
            state_files, 1
        )
        assert 0 < store.bytes_read <= sum(
            store.size(rel) for rel in state_files + ["ucp_meta.npt"]
        )

    def test_in_place_load_writes_every_element(self, tp4_checkpoint, tmp_path):
        """The loader scatters into the engine's own arrays, so a target
        pre-filled with NaN must come out byte-identical to a fresh one:
        alignment tail and vocabulary padding included."""
        _, ckpt_dir = tp4_checkpoint
        ucp_dir = str(tmp_path / "ucp")
        ucp_convert(ckpt_dir, ucp_dir)
        target = ParallelConfig(tp=2, pp=2, dp=2)
        fresh = make_engine(parallel=target, seed=0)
        dirty = make_engine(parallel=target, seed=0)
        for partitions in dirty.zero.partitions.values():
            for partition in partitions:
                for kind in STATE_KINDS:
                    dirty.zero._partition_array(partition, kind)[...] = np.nan
        load_ucp_into_engine(fresh, ucp_dir)
        load_ucp_into_engine(dirty, ucp_dir)
        for coord, partitions in fresh.zero.partitions.items():
            for d, partition in enumerate(partitions):
                for kind in STATE_KINDS:
                    got = dirty.zero._partition_array(
                        dirty.zero.partitions[coord][d], kind
                    )
                    expected = fresh.zero._partition_array(partition, kind)
                    assert got.tobytes() == expected.tobytes(), (coord, d, kind)

    def test_payload_larger_than_window_is_read_in_windows(
        self, tp4_checkpoint, tmp_path, monkeypatch
    ):
        """A payload over the window cap is read window by window (rows
        straddling a window edge split there): same state, same bytes,
        more read calls."""
        _, ckpt_dir = tp4_checkpoint
        ucp_dir = str(tmp_path / "ucp")
        ucp_convert(ckpt_dir, ucp_dir)
        target = ParallelConfig(tp=2, pp=2, dp=2)
        whole, windowed = CountingStore(ucp_dir), CountingStore(ucp_dir)
        expected = make_engine(parallel=target, seed=0)
        load_ucp_into_engine(expected, ucp_dir, store=whole)
        monkeypatch.setattr("repro.core.ops.WINDOW_AUTO_CAP_BYTES", 1000)
        got = make_engine(parallel=target, seed=0)
        load_ucp_into_engine(got, ucp_dir, store=windowed)
        for coord, partitions in expected.zero.partitions.items():
            for d, partition in enumerate(partitions):
                for kind in STATE_KINDS:
                    assert got.zero._partition_array(
                        got.zero.partitions[coord][d], kind
                    ).tobytes() == expected.zero._partition_array(
                        partition, kind
                    ).tobytes(), (coord, d, kind)
        assert windowed.bytes_read == whole.bytes_read
        assert max(windowed.payload_reads.values()) > 1

    def test_single_rank_slice_under_half_of_atom_bytes(
        self, tp4_checkpoint, tmp_path
    ):
        """The CI perf gate's invariant: one tp-rank of a tp=2 target
        reads less than half the optimizer-state atom bytes."""
        _, ckpt_dir = tp4_checkpoint
        ucp_dir = str(tmp_path / "ucp")
        ucp_convert(ckpt_dir, ucp_dir)
        store = ObjectStore(ucp_dir)
        atom_bytes = sum(
            store.size(rel)
            for rel in store.list("atoms")
            if not rel.endswith("atom_meta.npt")
        )
        # a tp=2.dp=2 engine holds 4 partitions; each optimizer shard is
        # ~1/4 of every atom, so even with two ranks' worth of state the
        # per-engine read stays well under the whole-atom total — but
        # the gate below is per single (tp, dp) rank
        target = make_engine(parallel=ParallelConfig(tp=2, dp=2), seed=0)
        rank_store = ObjectStore(ucp_dir)
        load_ucp_into_engine(target, ucp_dir, store=rank_store)
        per_rank = rank_store.bytes_read / 4  # 4 (mp, dp) partitions
        assert per_rank < 0.5 * atom_bytes, (per_rank, atom_bytes)

    def test_sliced_moe_load_identical(self, moe_checkpoint, tmp_path):
        engine, ckpt_dir = moe_checkpoint
        ucp_dir = str(tmp_path / "ucp")
        ucp_convert(ckpt_dir, ucp_dir)
        target = make_engine("moe-mini", parallel=ParallelConfig(dp=2), seed=0)
        load_ucp_into_engine(target, ucp_dir)
        for kind in ("fp32", "exp_avg", "exp_avg_sq"):
            src = engine.zero.consolidated_tensors(kind)
            dst = target.zero.consolidated_tensors(kind)
            for name in src:
                assert np.array_equal(
                    unpadded(engine, name, src[name]),
                    unpadded(engine, name, dst[name]),
                ), (name, kind)


class TestCrashResumeUnderParallelFanOut:
    def test_crash_mid_fanout_resumes_reusing_committed_atoms(
        self, tp4_checkpoint, tmp_path
    ):
        """Kill the parallel streamed conversion partway through its
        destination writes, re-run, and check that (a) every atom whose
        four files committed before the crash is reused, (b) the final
        directory is digest-identical to a crash-free conversion."""
        _, ckpt_dir = tp4_checkpoint
        clean_dir = str(tmp_path / "clean")
        clean = ucp_convert(ckpt_dir, clean_dir)
        expected = dir_digests(clean_dir)

        for k in (3, 9, 17):
            ucp_dir = str(tmp_path / f"crash{k}")
            with pytest.raises(InjectedCrash):
                ucp_convert(
                    ckpt_dir,
                    ucp_dir,
                    workers=4,
                    dst_store=ObjectStore(ucp_dir, faults=CrashAtWrite(k)),
                )
            # atoms whose write quartet committed before the crash
            # (writes are atomic tmp-renames, so file presence == commit)
            store = ObjectStore(ucp_dir)
            committed = sum(
                1
                for atom in AtomStore(ucp_dir).list_atoms()
                if len(store.list(f"atoms/{atom}")) == 4
            )
            resumed = ucp_convert(ckpt_dir, ucp_dir, workers=4)
            assert resumed.num_reused == committed, (k, resumed.num_reused)
            assert resumed.num_params == clean.num_params
            assert dir_digests(ucp_dir) == expected, k
            # resume converts only the missing atoms: no more source
            # bytes than the clean run, no more atom bytes written
            assert resumed.bytes_read <= clean.bytes_read
            assert resumed.bytes_written <= clean.bytes_written
            if committed:
                assert resumed.bytes_written < clean.bytes_written


def columns(file_start, length, atom_start):
    """One part's rows in one file: the ``(file_start, atom_start,
    length)`` columns the scatter takes."""
    return tuple(
        np.asarray(column, dtype=np.int64)
        for column in (file_start, atom_start, length)
    )


class TestStridedScatter:
    """One strided assignment per run of equal-length, equal-step rows."""

    def scatter(self, rows, source_numel, dest_numel):
        sources = [
            np.arange(source_numel, dtype=np.float32) + 1000 * k
            for k in range(len(STATE_KINDS))
        ]
        arrs = {
            kind: np.full(dest_numel, -1.0, dtype=np.float32)
            for kind in STATE_KINDS
        }
        views = [
            np.frombuffer(memoryview(src).toreadonly(), dtype=np.float32)
            for src in sources
        ]
        _scatter(*rows, arrs, views)
        return sources, arrs

    def test_matches_a_row_by_row_copy(self):
        """Runs with overlapping source rows, a length change and a
        destination stepping back land exactly where a per-row loop
        puts them."""
        rows = [  # (file start, length, atom start), in file order
            (10, 4, 0), (18, 4, 6), (26, 4, 12), (34, 4, 18),  # steps 8 / 6
            (40, 2, 30),  # another length: a lone row
            (44, 4, 40), (46, 4, 50), (48, 4, 60),  # source rows overlap
            (60, 4, 24),  # the destination steps back: a lone row
            (70, 7, 80), (80, 7, 90),
        ]
        cols = columns(*zip(*rows))
        runs = _strided_runs(*cols)
        assert [count for *_, count in runs] == [4, 1, 3, 1, 2]
        sources, arrs = self.scatter(cols, 90, 100)
        for kind, source in zip(STATE_KINDS, sources):
            expected = np.full(100, -1.0, dtype=np.float32)
            for f, n, u in rows:
                expected[u:u + n] = source[f:f + n]
            assert arrs[kind].tobytes() == expected.tobytes(), kind

    def test_run_overrunning_its_destination_is_refused(self):
        """A strided view is not bounds-checked: a run whose last row
        would land past the destination fails before anything moves."""
        rows = columns([0, 8, 16], [4, 4, 4], [0, 4, 8])  # ends at 12
        with pytest.raises(UCPFormatError, match="does not fit"):
            self.scatter(rows, 20, 10)
        with pytest.raises(UCPFormatError, match="does not fit"):
            self.scatter(rows, 18, 20)
