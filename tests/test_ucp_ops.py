"""Tests for the five UCP operations (paper Table 2 / Algorithm 1)."""

import numpy as np
import pytest

from repro.core import intervals
from repro.core.errors import PatternMatchError, UCPFormatError
from repro.core.ops import (
    ParamFragment,
    add_padding,
    extract,
    gen_ucp_metadata,
    strip_padding,
    union,
)
from repro.dist.topology import ParallelConfig
from repro.models import get_config
from repro.parallel.layout import ModelParallelLayout
from repro.parallel.sharding import EvenFragment, VocabFragment
from repro.parallel.tp import (
    PATTERN_FRAGMENT,
    PATTERN_REPLICATED,
    PATTERN_TO_AVERAGE,
    PATTERN_UNIQUE,
    ShardSpec,
)

from tests.helpers import make_engine


def frag(name, data, shard_start, shard_shape, kind="fp32", pp=0, sp=0, tp=0, dp=0):
    data = np.asarray(data, dtype=np.float32).reshape(-1)
    return ParamFragment(
        name=name, kind=kind, data=data,
        shard_start=shard_start, shard_end=shard_start + data.size,
        pp_stage=pp, sp_rank=sp, tp_rank=tp, dp_rank=dp,
        shard_shape=shard_shape,
    )


class TestExtract:
    def _checkpoint_payload(self, tmp_path, parallel):
        engine = make_engine(parallel=parallel)
        engine.train(1)
        info = engine.save_checkpoint(str(tmp_path))
        from repro.storage.store import ObjectStore
        store = ObjectStore(str(tmp_path))
        optim = [f for f in info.files if "optim_states" in f]
        return engine, [store.load(f) for f in optim]

    def test_fragments_cover_every_parameter(self, tmp_path):
        engine, payloads = self._checkpoint_payload(tmp_path, ParallelConfig(dp=2))
        fragments = [f for p in payloads for f in extract(p)]
        names = {f.name for f in fragments}
        assert names == set(engine.layout.shard_specs)

    def test_fragment_totals_match_shard_sizes(self, tmp_path):
        engine, payloads = self._checkpoint_payload(tmp_path, ParallelConfig(dp=4))
        fragments = [f for p in payloads for f in extract(p) if f.kind == "fp32"]
        by_name = {}
        for f in fragments:
            by_name.setdefault(f.name, []).append(f)
        for name, parts in by_name.items():
            entry = engine.layout.rank_layout(0, 0, 0).entry(name)
            assert sum(p.data.size for p in parts) == entry.numel

    def test_extract_records_grid_coordinates(self, tmp_path):
        _, payloads = self._checkpoint_payload(tmp_path, ParallelConfig(tp=2, pp=2, dp=1))
        tp_ranks = {f.tp_rank for p in payloads for f in extract(p)}
        pp_stages = {f.pp_stage for p in payloads for f in extract(p)}
        assert tp_ranks == {0, 1}
        assert pp_stages == {0, 1}

    def test_extracted_values_match_source_state(self, tmp_path):
        engine, payloads = self._checkpoint_payload(tmp_path, ParallelConfig())
        fragments = [f for p in payloads for f in extract(p)]
        masters = engine.zero.consolidated_tensors("fp32")
        target = next(
            f for f in fragments
            if f.name == "final_norm.weight" and f.kind == "fp32"
        )
        full = masters["final_norm.weight"].reshape(-1)
        assert np.array_equal(
            target.data, full[target.shard_start : target.shard_end]
        )

    def test_unknown_kind_raises(self, tmp_path):
        _, payloads = self._checkpoint_payload(tmp_path, ParallelConfig())
        with pytest.raises(KeyError, match="state kind"):
            extract(payloads[0], kinds=["gradients"])

    def test_corrupt_partition_size_raises(self, tmp_path):
        _, payloads = self._checkpoint_payload(tmp_path, ParallelConfig())
        payloads[0]["fp32_flat_partition"] = payloads[0]["fp32_flat_partition"][:-1]
        with pytest.raises(UCPFormatError, match="partition array"):
            extract(payloads[0])


class TestUnion:
    def test_unique(self):
        spec = ShardSpec(PATTERN_UNIQUE, (4,), (4,))
        out = union([frag("p", [1, 2, 3, 4], 0, (4,))], spec, tp_degree=1)
        assert np.array_equal(out, [1, 2, 3, 4])

    def test_unique_with_multiple_owners_raises(self):
        spec = ShardSpec(PATTERN_UNIQUE, (2,), (2,))
        frags = [frag("p", [1, 2], 0, (2,), tp=0), frag("p", [1, 2], 0, (2,), tp=1)]
        with pytest.raises(PatternMatchError, match="unique"):
            union(frags, spec, tp_degree=2)

    def test_replicated_takes_first_verified_copy(self):
        spec = ShardSpec(PATTERN_REPLICATED, (2,), (2,))
        frags = [frag("p", [5, 6], 0, (2,), tp=0), frag("p", [5, 6], 0, (2,), tp=1)]
        assert np.array_equal(union(frags, spec, tp_degree=2), [5, 6])

    def test_replicated_divergence_detected(self):
        spec = ShardSpec(PATTERN_REPLICATED, (2,), (2,))
        frags = [frag("p", [5, 6], 0, (2,), tp=0), frag("p", [5, 7], 0, (2,), tp=1)]
        with pytest.raises(PatternMatchError, match="differ"):
            union(frags, spec, tp_degree=2)

    def test_replicated_divergence_allowed_when_unverified(self):
        spec = ShardSpec(PATTERN_REPLICATED, (2,), (2,))
        frags = [frag("p", [5, 6], 0, (2,), tp=0), frag("p", [5, 7], 0, (2,), tp=1)]
        out = union(frags, spec, tp_degree=2, verify_replicas=False)
        assert np.array_equal(out, [5, 6])

    def test_params_to_average(self):
        spec = ShardSpec(PATTERN_TO_AVERAGE, (2,), (2,))
        frags = [frag("p", [1.0, 2.0], 0, (2,), sp=0), frag("p", [3.0, 4.0], 0, (2,), sp=1)]
        assert np.allclose(union(frags, spec, tp_degree=1), [2.0, 3.0])

    def test_fragment_joins_tp_shards(self):
        spec = ShardSpec(PATTERN_FRAGMENT, (4, 2), (4, 2), EvenFragment(dim=0))
        frags = [
            frag("p", [[1, 2], [3, 4]], 0, (2, 2), tp=0),
            frag("p", [[5, 6], [7, 8]], 0, (2, 2), tp=1),
        ]
        out = union(frags, spec, tp_degree=2)
        assert np.array_equal(out, [[1, 2], [3, 4], [5, 6], [7, 8]])

    def test_fragment_reassembles_dp_split_shards(self):
        """A ZeRO partition boundary cutting a parameter mid-tensor."""
        spec = ShardSpec(PATTERN_FRAGMENT, (4, 2), (4, 2), EvenFragment(dim=0))
        frags = [
            frag("p", [1, 2, 3], 0, (2, 2), tp=0, dp=0),
            frag("p", [4], 3, (2, 2), tp=0, dp=1),
            frag("p", [5, 6, 7, 8], 0, (2, 2), tp=1, dp=0),
        ]
        out = union(frags, spec, tp_degree=2)
        assert np.array_equal(out, [[1, 2], [3, 4], [5, 6], [7, 8]])

    def test_gap_in_shard_coverage_raises(self):
        spec = ShardSpec(PATTERN_UNIQUE, (4,), (4,))
        frags = [frag("p", [1, 2], 0, (4,)), frag("p", [4], 3, (4,))]
        with pytest.raises(UCPFormatError, match="gap"):
            union(frags, spec, tp_degree=1)

    def test_incomplete_shard_raises(self):
        spec = ShardSpec(PATTERN_UNIQUE, (4,), (4,))
        with pytest.raises(UCPFormatError, match="incomplete"):
            union([frag("p", [1, 2], 0, (4,))], spec, tp_degree=1)

    def test_missing_tp_shard_raises(self):
        spec = ShardSpec(PATTERN_FRAGMENT, (4,), (4,), EvenFragment(dim=0))
        with pytest.raises(PatternMatchError, match="expected TP shards"):
            union([frag("p", [1, 2], 0, (2,), tp=0)], spec, tp_degree=2)

    def test_mixed_parameters_raise(self):
        spec = ShardSpec(PATTERN_UNIQUE, (2,), (2,))
        with pytest.raises(UCPFormatError, match="mixed"):
            union([frag("a", [1, 2], 0, (2,)), frag("b", [1, 2], 0, (2,))], spec, 1)

    def test_empty_raises(self):
        spec = ShardSpec(PATTERN_UNIQUE, (2,), (2,))
        with pytest.raises(UCPFormatError, match="zero fragments"):
            union([], spec, 1)


class TestPadding:
    def _spec(self):
        return ShardSpec(
            PATTERN_FRAGMENT, (16, 3), (11, 3), VocabFragment(logical_rows=11)
        )

    def test_strip_removes_pad_rows(self, rng):
        spec = self._spec()
        full = rng.standard_normal((16, 3)).astype(np.float32)
        stripped = strip_padding(full, spec)
        assert stripped.shape == (11, 3)
        assert np.array_equal(stripped, full[:11])

    def test_add_restores_zero_rows(self, rng):
        spec = self._spec()
        unpadded = rng.standard_normal((11, 3)).astype(np.float32)
        padded = add_padding(unpadded, spec)
        assert padded.shape == (16, 3)
        assert np.array_equal(padded[:11], unpadded)
        assert np.array_equal(padded[11:], np.zeros((5, 3)))

    def test_strip_add_round_trip(self, rng):
        spec = self._spec()
        unpadded = rng.standard_normal((11, 3)).astype(np.float32)
        assert np.array_equal(strip_padding(add_padding(unpadded, spec), spec), unpadded)

    def test_no_padding_is_identity(self, rng):
        spec = ShardSpec(PATTERN_REPLICATED, (4,), (4,))
        x = rng.standard_normal(4).astype(np.float32)
        assert strip_padding(x, spec) is x
        assert add_padding(x, spec) is x

    def test_wrong_shape_raises(self, rng):
        spec = self._spec()
        with pytest.raises(UCPFormatError):
            strip_padding(np.zeros((11, 3), dtype=np.float32), spec)
        with pytest.raises(UCPFormatError):
            add_padding(np.zeros((16, 3), dtype=np.float32), spec)


class TestGenUcpMetadata:
    @pytest.mark.parametrize("target", [
        ParallelConfig(tp=2, pp=2, dp=2),
        ParallelConfig(dp=4),
        ParallelConfig(tp=4, dp=2, sp=2),
    ], ids=lambda cfg: cfg.describe())
    def test_rows_and_zeros_tile_every_partition_once(self, target):
        """Each partition's rows plus its zero ranges cover it exactly
        once, and its rows carry exactly the layout's data elements."""
        layout = ModelParallelLayout(get_config("gpt3-mini"), target)
        plan = gen_ucp_metadata(layout)
        assert plan.targets == tuple(
            coord + (d,) for coord in layout.mp_coords() for d in range(target.dp)
        )
        assert not plan.offset.flags.writeable
        row_target = np.concatenate((plan.target, plan.zero_target))
        row_lo = np.concatenate((plan.offset, plan.zero_offset))
        row_len = np.concatenate((plan.length, plan.zero_length))
        for t, (pp, sp, tp, dp) in enumerate(plan.targets):
            rank_layout = layout.rank_layout(pp, sp, tp)
            hits = np.zeros(rank_layout.partition_numel, dtype=np.int64)
            for lo, n in zip(row_lo[row_target == t], row_len[row_target == t]):
                hits[lo:lo + n] += 1
            assert (hits == 1).all(), (pp, sp, tp, dp)
        data = sum(
            int(np.sum(rows.shard_hi - rows.shard_lo))
            for coord in layout.mp_coords()
            for rows in (
                intervals.atom_rows(layout.spec(e.name), target.tp, coord[2])
                for e in layout.rank_layout(*coord).entries
            )
        )
        assert int(plan.length.sum()) == data
        for name in plan.atoms:
            starts = plan.atom_start[plan.rows(name)]
            assert (np.diff(starts) >= 0).all(), name

    def test_plan_matches_engine_layout(self):
        """GenUcpMetadata lowers from the engine's own layout, and the
        plan's targets are exactly the engine's ZeRO partitions."""
        engine = make_engine(parallel=ParallelConfig(tp=2, pp=2, dp=2))
        plan = gen_ucp_metadata(engine.layout)
        assert plan.layout is engine.layout
        assert sorted(plan.targets) == sorted(
            coord + (d,)
            for coord, partitions in engine.zero.partitions.items()
            for d in range(len(partitions))
        )
