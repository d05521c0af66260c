"""Tests + properties for the fragment sub-patterns (paper Fig 5)."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import intervals
from repro.parallel.sharding import (
    EvenFragment,
    ExpertFragment,
    ExpertParallelFragment,
    Fragmenter,
    FusedSectionsFragment,
    VocabFragment,
)
from repro.parallel.tp import PATTERN_FRAGMENT, PATTERN_REPLICATED, ShardSpec


def roundtrip(frag, full, degree):
    shards = [frag.shard(full, degree, r) for r in range(degree)]
    return frag.join(shards), shards


class TestEvenFragment:
    def test_row_split(self, rng):
        full = rng.standard_normal((8, 3)).astype(np.float32)
        joined, shards = roundtrip(EvenFragment(0), full, 4)
        assert all(s.shape == (2, 3) for s in shards)
        assert np.array_equal(joined, full)

    def test_column_split(self, rng):
        full = rng.standard_normal((3, 8)).astype(np.float32)
        joined, shards = roundtrip(EvenFragment(1), full, 2)
        assert all(s.shape == (3, 4) for s in shards)
        assert np.array_equal(joined, full)

    def test_indivisible_raises(self):
        with pytest.raises(ValueError, match="not divisible"):
            EvenFragment(0).shard(np.zeros((7, 2), dtype=np.float32), 2, 0)

    def test_bad_rank_raises(self):
        with pytest.raises(IndexError):
            EvenFragment(0).shard(np.zeros((4, 2), dtype=np.float32), 2, 5)

    def test_dim_out_of_range_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            EvenFragment(3).shard_shape((4, 4), 2)


class TestFusedSectionsFragment:
    """The GQA QKV sub-pattern: variable-size fused sections."""

    def test_gqa_layout(self, rng):
        # q=8 rows, k=4 rows, v=4 rows (nq=4, nkv=2, head_dim=2)
        frag = FusedSectionsFragment(dim=0, section_sizes=(8, 4, 4))
        full = rng.standard_normal((16, 6)).astype(np.float32)
        shards = [frag.shard(full, 2, r) for r in range(2)]
        # each rank holds [q_r (4); k_r (2); v_r (2)]
        assert shards[0].shape == (8, 6)
        assert np.array_equal(shards[0][:4], full[:4])       # first half of q
        assert np.array_equal(shards[0][4:6], full[8:10])    # first half of k
        assert np.array_equal(shards[0][6:8], full[12:14])   # first half of v
        assert np.array_equal(shards[1][:4], full[4:8])

    def test_round_trip(self, rng):
        frag = FusedSectionsFragment(dim=0, section_sizes=(8, 4, 4))
        full = rng.standard_normal((16, 3)).astype(np.float32)
        joined, _ = roundtrip(frag, full, 4)
        assert np.array_equal(joined, full)

    def test_round_trip_on_bias_vector(self, rng):
        frag = FusedSectionsFragment(dim=0, section_sizes=(8, 4, 4))
        full = rng.standard_normal(16).astype(np.float32)
        joined, _ = roundtrip(frag, full, 2)
        assert np.array_equal(joined, full)

    def test_wrong_total_raises(self):
        frag = FusedSectionsFragment(dim=0, section_sizes=(8, 4, 4))
        with pytest.raises(ValueError, match="section total"):
            frag.shard(np.zeros((15, 2), dtype=np.float32), 2, 0)

    def test_indivisible_section_raises(self):
        frag = FusedSectionsFragment(dim=0, section_sizes=(8, 2, 2))
        with pytest.raises(ValueError, match="not divisible"):
            frag.shard(np.zeros((12, 2), dtype=np.float32), 4, 0)

    def test_empty_sections_raise(self):
        with pytest.raises(ValueError, match="at least one section"):
            FusedSectionsFragment(dim=0, section_sizes=())


class TestExpertFragment:
    """The MoE sub-pattern: 3-dim [experts, out, in] tensors."""

    def test_shards_along_hidden_out(self, rng):
        frag = ExpertFragment(expert_axis=0, shard_dim=1)
        full = rng.standard_normal((4, 8, 6)).astype(np.float32)  # E, I, H
        shards = [frag.shard(full, 2, r) for r in range(2)]
        assert shards[0].shape == (4, 4, 6)  # every expert keeps its slice
        assert np.array_equal(shards[0], full[:, :4, :])
        assert np.array_equal(frag.join(shards), full)

    def test_shard_along_last_dim(self, rng):
        frag = ExpertFragment(expert_axis=0, shard_dim=2)
        full = rng.standard_normal((4, 6, 8)).astype(np.float32)  # E, H, I
        joined, shards = roundtrip(frag, full, 4)
        assert shards[0].shape == (4, 6, 2)
        assert np.array_equal(joined, full)

    def test_cannot_shard_expert_axis(self):
        with pytest.raises(ValueError, match="expert axis"):
            ExpertFragment(expert_axis=0, shard_dim=0)


class TestVocabFragment:
    def test_round_trip_with_padding(self, rng):
        frag = VocabFragment(logical_rows=11)
        full = rng.standard_normal((16, 4)).astype(np.float32)  # padded to 16
        joined, shards = roundtrip(frag, full, 4)
        assert shards[0].shape == (4, 4)
        assert np.array_equal(joined, full)

    def test_padded_height_must_divide(self):
        frag = VocabFragment(logical_rows=11)
        with pytest.raises(ValueError, match="not divisible"):
            frag.shard(np.zeros((18, 2), dtype=np.float32), 4, 0)

    def test_table_shorter_than_vocab_raises(self):
        frag = VocabFragment(logical_rows=20)
        with pytest.raises(ValueError, match="logical vocab"):
            frag.shard_shape((16, 4), 2)


class TestSerialization:
    @pytest.mark.parametrize(
        "frag",
        [
            EvenFragment(dim=1),
            FusedSectionsFragment(dim=0, section_sizes=(8, 4, 4)),
            ExpertFragment(expert_axis=0, shard_dim=2),
            VocabFragment(logical_rows=211),
        ],
    )
    def test_round_trip(self, frag):
        assert Fragmenter.from_dict(frag.to_dict()) == frag

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError, match="unknown fragmenter"):
            Fragmenter.from_dict({"kind": "hologram"})


# --- property-based round-trips over randomized geometries ---

@given(
    rows_per_rank=st.integers(1, 5),
    cols=st.integers(1, 6),
    degree=st.integers(1, 4),
    dim=st.sampled_from([0, 1]),
)
@settings(max_examples=60, deadline=None)
def test_even_fragment_roundtrip_property(rows_per_rank, cols, degree, dim):
    shape = [rows_per_rank * degree, cols]
    if dim == 1:
        shape = [cols, rows_per_rank * degree]
    gen = np.random.default_rng(0)
    full = gen.standard_normal(shape).astype(np.float32)
    frag = EvenFragment(dim=dim)
    shards = [frag.shard(full, degree, r) for r in range(degree)]
    assert np.array_equal(frag.join(shards), full)
    assert all(tuple(s.shape) == frag.shard_shape(tuple(full.shape), degree) for s in shards)


@given(
    q_heads_per_rank=st.integers(1, 4),
    kv_heads_per_rank=st.integers(1, 2),
    head_dim=st.sampled_from([2, 4]),
    degree=st.integers(1, 4),
    hidden=st.integers(2, 5),
)
@settings(max_examples=60, deadline=None)
def test_gqa_fragment_roundtrip_property(
    q_heads_per_rank, kv_heads_per_rank, head_dim, degree, hidden
):
    """Property: fused variable-size QKV shards always rejoin exactly."""
    q = q_heads_per_rank * degree * head_dim
    kv = kv_heads_per_rank * degree * head_dim
    frag = FusedSectionsFragment(dim=0, section_sizes=(q, kv, kv))
    gen = np.random.default_rng(degree)
    full = gen.standard_normal((q + 2 * kv, hidden)).astype(np.float32)
    shards = [frag.shard(full, degree, r) for r in range(degree)]
    assert np.array_equal(frag.join(shards), full)


@given(
    experts=st.integers(1, 4),
    per_rank=st.integers(1, 4),
    degree=st.integers(1, 4),
    inner=st.integers(1, 4),
    shard_dim=st.sampled_from([1, 2]),
)
@settings(max_examples=60, deadline=None)
def test_expert_fragment_roundtrip_property(experts, per_rank, degree, inner, shard_dim):
    shape = [experts, per_rank * degree, inner]
    if shard_dim == 2:
        shape = [experts, inner, per_rank * degree]
    gen = np.random.default_rng(7)
    full = gen.standard_normal(shape).astype(np.float32)
    frag = ExpertFragment(expert_axis=0, shard_dim=shard_dim)
    shards = [frag.shard(full, degree, r) for r in range(degree)]
    assert np.array_equal(frag.join(shards), full)


# --- the shared shard -> consolidated table (repro.core.intervals) ----------

def _fragment_spec(fragmenter, shape, unpadded=None):
    return ShardSpec(PATTERN_FRAGMENT, shape, unpadded or shape, fragmenter)


# every fragmenter of the model zoo, on a shape every degree in {1,2,4,8} divides
ZOO = [
    pytest.param(_fragment_spec(EvenFragment(dim=0), (16, 6)), id="even-rows"),
    pytest.param(_fragment_spec(EvenFragment(dim=1), (6, 16)), id="even-cols"),
    pytest.param(_fragment_spec(EvenFragment(dim=0), (24,)), id="even-bias"),
    pytest.param(
        _fragment_spec(
            FusedSectionsFragment(dim=0, section_sizes=(32, 8, 8)), (48, 3)
        ),
        id="fused-gqa",
    ),
    pytest.param(
        _fragment_spec(
            FusedSectionsFragment(dim=0, section_sizes=(32, 8, 8)), (48,)
        ),
        id="fused-gqa-bias",
    ),
    pytest.param(
        _fragment_spec(ExpertFragment(expert_axis=0, shard_dim=1), (3, 16, 5)),
        id="expert-dim1",
    ),
    pytest.param(
        _fragment_spec(ExpertFragment(expert_axis=0, shard_dim=2), (3, 5, 16)),
        id="expert-dim2",
    ),
    pytest.param(
        _fragment_spec(ExpertParallelFragment(expert_axis=0), (8, 4, 3)),
        id="expert-parallel",
    ),
    pytest.param(
        _fragment_spec(VocabFragment(logical_rows=13), (16, 5), (13, 5)),
        id="vocab-padded",
    ),
]


def _brute_force_maps(spec, degree, rank):
    """(shard -> consolidated, shard -> atom file) element maps, by
    executing the fragmenter over an arange; padding maps to -1."""
    total = intervals.numel(spec.logical_shape)
    idx = np.arange(total, dtype=np.int64).reshape(spec.logical_shape)
    if degree > 1:
        idx = spec.fragmenter.shard(idx, degree, rank)
    to_full = np.ascontiguousarray(idx).reshape(-1)
    is_data = np.zeros(spec.logical_shape, dtype=bool)
    is_data[tuple(slice(0, d) for d in spec.unpadded_shape)] = True
    full_to_atom = np.full(total, -1, dtype=np.int64)
    full_to_atom[is_data.reshape(-1)] = np.arange(int(is_data.sum()))
    return to_full, full_to_atom[to_full]


def _expand(starts, values, lengths, size):
    out = np.full(size, -1, dtype=np.int64)
    for s, v, n in zip(starts.tolist(), values.tolist(), lengths.tolist()):
        out[s:s + n] = np.arange(v, v + n)
    return out


def _runs_map(runs, size):
    return _expand(runs.shard_start, runs.full_start, runs.length, size)


def _rows_map(rows, size):
    return _expand(
        rows.shard_lo, rows.atom_lo, rows.shard_hi - rows.shard_lo, size
    )


class TestShardMapTables:
    @pytest.fixture(autouse=True)
    def _cold_memo(self):
        intervals.clear_memo()
        yield
        intervals.clear_memo()

    @pytest.mark.parametrize("degree", [1, 2, 4, 8])
    @pytest.mark.parametrize("spec", ZOO)
    def test_tables_equal_the_brute_force_map_and_are_maximal(self, spec, degree):
        for rank in range(degree):
            to_full, to_atom = _brute_force_maps(spec, degree, rank)
            runs = intervals.shard_runs(spec, degree, rank)
            # element for element, tiling the shard in order
            assert np.array_equal(_runs_map(runs, to_full.size), to_full)
            assert np.array_equal(
                runs.shard_start, np.cumsum(runs.length) - runs.length
            )
            # maximal: no run continues where the previous one ended
            assert not np.any(
                runs.full_start[1:] == (runs.full_start + runs.length)[:-1]
            )
            rows = intervals.atom_rows(spec, degree, rank)
            assert np.array_equal(_rows_map(rows, to_atom.size), to_atom)
            assert np.all(rows.shard_lo[1:] >= rows.shard_hi[:-1])
            mergeable = (rows.shard_lo[1:] == rows.shard_hi[:-1]) & (
                rows.atom_lo[1:]
                == (rows.atom_lo + rows.shard_hi - rows.shard_lo)[:-1]
            )
            assert not mergeable.any()

    def test_non_fragment_patterns_are_the_identity(self):
        spec = ShardSpec(PATTERN_REPLICATED, (4, 5), (4, 5))
        for rank in range(4):
            runs = intervals.shard_runs(spec, 4, rank)
            assert [c.tolist() for c in runs] == [[0], [0], [20]]

    def test_tables_are_read_only(self):
        spec = ZOO[-1].values[0]
        tables = (
            intervals.shard_runs(spec, 2, 0),
            intervals.atom_rows(spec, 2, 0),
            intervals.data_bounds(spec),
        )
        for table in tables:
            for column in table:
                with pytest.raises(ValueError, match="read-only"):
                    column[...] = 0

    def test_keys_are_values_not_identities(self):
        a = _fragment_spec(EvenFragment(dim=1), (6, 16))
        b = _fragment_spec(EvenFragment(dim=1), [6, 16])  # list-typed shape
        assert intervals.shard_runs(a, 4, 3) is intervals.shard_runs(b, 4, 3)
        assert intervals.atom_rows(a, 4, 3) is intervals.atom_rows(b, 4, 3)
        assert intervals.shard_runs(a, 4, 3) is not intervals.shard_runs(a, 4, 2)
        # same shape, degree and rank; the fragmenter's value differs
        v13 = _fragment_spec(VocabFragment(logical_rows=13), (16, 5), (13, 5))
        v11 = _fragment_spec(VocabFragment(logical_rows=11), (16, 5), (11, 5))
        assert intervals.shard_runs(v13, 2, 1) is not intervals.shard_runs(v11, 2, 1)
        for spec in (v13, v11):
            _, to_atom = _brute_force_maps(spec, 2, 1)
            rows = intervals.atom_rows(spec, 2, 1)
            assert np.array_equal(_rows_map(rows, to_atom.size), to_atom)

    def test_bound_evicts_least_recently_used(self, monkeypatch):
        specs = [_fragment_spec(EvenFragment(dim=1), (4, 8 * k)) for k in (1, 2, 3)]
        tables = [intervals.shard_runs(spec, 2, 0) for spec in specs]
        each = sum(c.nbytes for c in tables[0])
        assert {sum(c.nbytes for c in t) for t in tables} == {each}
        intervals.clear_memo()
        monkeypatch.setattr(intervals, "MEMO_MAX_BYTES", 2 * each)
        first = intervals.shard_runs(specs[0], 2, 0)
        second = intervals.shard_runs(specs[1], 2, 0)
        assert intervals.shard_runs(specs[0], 2, 0) is first  # refreshes it
        intervals.shard_runs(specs[2], 2, 0)  # evicts specs[1], the oldest
        assert intervals.shard_runs(specs[0], 2, 0) is first
        rebuilt = intervals.shard_runs(specs[1], 2, 0)
        assert rebuilt is not second
        assert all(np.array_equal(a, b) for a, b in zip(rebuilt, second))

    def test_oversize_table_is_served_but_not_kept(self, monkeypatch):
        monkeypatch.setattr(intervals, "MEMO_MAX_BYTES", 0)
        spec = ZOO[3].values[0]
        to_full, _ = _brute_force_maps(spec, 4, 1)
        once = intervals.shard_runs(spec, 4, 1)
        again = intervals.shard_runs(spec, 4, 1)
        assert once is not again
        for runs in (once, again):
            assert np.array_equal(_runs_map(runs, to_full.size), to_full)

    def test_fragmenter_runs_once_per_class(self, monkeypatch):
        calls = []
        real = EvenFragment.shard

        def counting(self, full, degree, rank):
            calls.append((self, full.shape, degree, rank))
            return real(self, full, degree, rank)

        monkeypatch.setattr(EvenFragment, "shard", counting)
        layers = [_fragment_spec(EvenFragment(dim=1), (6, 16)) for _ in range(24)]
        for spec in layers:
            for rank in range(4):
                intervals.shard_runs(spec, 4, rank)
                intervals.atom_rows(spec, 4, rank)
        assert len(calls) == len(set(calls)) == 4

    def test_threads_racing_on_a_churning_memo_get_equal_tables(self, monkeypatch):
        specs = [p.values[0] for p in ZOO]
        expected = {
            (i, rank): [c.copy() for c in intervals.shard_runs(spec, 4, rank)]
            + [c.copy() for c in intervals.atom_rows(spec, 4, rank)]
            for i, spec in enumerate(specs)
            for rank in range(4)
        }
        intervals.clear_memo()
        # room for a handful of tables: every thread keeps evicting the others'
        monkeypatch.setattr(intervals, "MEMO_MAX_BYTES", 2048)
        errors = []

        def worker(seed):
            order = np.random.default_rng(seed).permutation(len(specs) * 4)
            try:
                for _ in range(6):
                    for k in order.tolist():
                        i, rank = divmod(k, 4)
                        got = list(intervals.shard_runs(specs[i], 4, rank))
                        got += list(intervals.atom_rows(specs[i], 4, rank))
                        if not all(
                            np.array_equal(a, b)
                            for a, b in zip(got, expected[(i, rank)])
                        ):
                            errors.append((i, rank))
            except BaseException as exc:  # surfaced below, on the main thread
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
