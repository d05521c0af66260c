"""Tests for the simulated distributed runtime."""

import numpy as np
import pytest

from repro.dist import collectives
from repro.dist.cluster import Cluster, RankFailure
from repro.dist.collectives import (
    CommTracker,
    all_gather,
    all_reduce,
    all_to_all,
    broadcast,
    reduce_scatter,
)
from repro.dist.process_group import ProcessGroup
from repro.dist.topology import ParallelConfig, RankCoord, Topology

from tests.helpers import mutate, shares_allocation


class TestParallelConfig:
    def test_world_size(self):
        assert ParallelConfig(tp=2, pp=3, dp=4, sp=1).world_size == 24

    def test_bad_degree_raises(self):
        with pytest.raises(ValueError, match="degree"):
            ParallelConfig(tp=0)

    def test_bad_zero_stage_raises(self):
        with pytest.raises(ValueError, match="zero_stage"):
            ParallelConfig(zero_stage=4)

    def test_zero3_excludes_model_parallelism(self):
        with pytest.raises(ValueError, match="ZeRO-3"):
            ParallelConfig(tp=2, zero_stage=3)

    def test_round_trip(self):
        cfg = ParallelConfig(tp=2, pp=2, dp=2, sp=1, zero_stage=2)
        assert ParallelConfig.from_dict(cfg.to_dict()) == cfg

    def test_describe(self):
        assert ParallelConfig(tp=2, pp=4, dp=1).describe() == "tp2.pp4.dp1.sp1.zero1"


class TestTopology:
    def test_rank_coord_round_trip(self):
        topo = Topology(ParallelConfig(tp=2, pp=2, dp=2))
        for rank in topo.ranks():
            assert topo.rank(topo.coord(rank)) == rank

    def test_tp_is_innermost(self):
        """Megatron convention: adjacent global ranks share a TP group."""
        topo = Topology(ParallelConfig(tp=2, pp=2, dp=2))
        assert topo.group_ranks("tp", 0) == [0, 1]
        assert topo.group_ranks("tp", 3) == [2, 3]

    def test_dp_is_outermost(self):
        topo = Topology(ParallelConfig(tp=2, pp=2, dp=2))
        assert topo.group_ranks("dp", 0) == [0, 4]

    def test_groups_partition_the_world(self):
        topo = Topology(ParallelConfig(tp=2, pp=2, dp=2))
        for axis in ("tp", "pp", "dp", "sp"):
            seen = sorted(r for group in topo.groups(axis) for r in group)
            assert seen == list(range(8))

    def test_model_parallel_rank_ignores_dp(self):
        topo = Topology(ParallelConfig(tp=2, pp=2, dp=2))
        for rank in topo.ranks():
            coord = topo.coord(rank)
            peer = topo.rank(RankCoord(tp=coord.tp, pp=coord.pp, dp=0, sp=coord.sp))
            assert topo.model_parallel_rank(rank) == topo.model_parallel_rank(peer)

    def test_model_parallel_size(self):
        topo = Topology(ParallelConfig(tp=2, pp=3, dp=4, sp=1))
        assert topo.model_parallel_size() == 6
        ranks = {topo.model_parallel_rank(r) for r in topo.ranks()}
        assert ranks == set(range(6))

    def test_out_of_range_rank_raises(self):
        topo = Topology(ParallelConfig(tp=2))
        with pytest.raises(IndexError):
            topo.coord(2)


class TestCollectives:
    def test_all_reduce_sum(self):
        shards = [np.ones(4, dtype=np.float32) * i for i in range(3)]
        out = all_reduce(shards)
        for o in out:
            assert np.allclose(o, 3.0)

    def test_all_reduce_avg(self):
        shards = [np.full(2, 2.0, dtype=np.float32), np.full(2, 4.0, dtype=np.float32)]
        assert np.allclose(all_reduce(shards, op="avg")[0], 3.0)

    def test_all_reduce_deterministic_order(self, rng):
        shards = [rng.standard_normal(100).astype(np.float32) for _ in range(4)]
        a = all_reduce([s.copy() for s in shards])[0]
        b = all_reduce([s.copy() for s in shards])[0]
        assert np.array_equal(a, b)

    def test_all_reduce_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            all_reduce([np.zeros(2, dtype=np.float32), np.zeros(3, dtype=np.float32)])

    @pytest.mark.parametrize(
        "collective", [all_reduce, all_gather, reduce_scatter],
        ids=["all_reduce", "all_gather", "reduce_scatter"],
    )
    def test_mixed_dtypes_raise(self, collective):
        """A member of another dtype is refused, never silently upcast."""
        shards = [np.zeros(4, dtype=np.float32), np.zeros(4, dtype=np.float16)]
        with pytest.raises(ValueError, match="float32 vs float16"):
            collective(shards)

    def test_all_gather_concatenates_in_rank_order(self):
        shards = [np.full(2, i, dtype=np.float32) for i in range(3)]
        out = all_gather(shards)[0]
        assert np.array_equal(out, [0, 0, 1, 1, 2, 2])

    def test_reduce_scatter_splits_reduction(self):
        shards = [np.arange(4, dtype=np.float32) for _ in range(2)]
        out = reduce_scatter(shards)
        assert np.array_equal(out[0], [0, 2])
        assert np.array_equal(out[1], [4, 6])

    def test_reduce_scatter_indivisible_raises(self):
        with pytest.raises(ValueError, match="divisible"):
            reduce_scatter([np.zeros(3, dtype=np.float32)] * 2)

    def test_broadcast(self):
        out = broadcast(np.arange(3, dtype=np.float32), 4)
        assert len(out) == 4
        assert all(np.array_equal(o, [0, 1, 2]) for o in out)

    def test_tracker_accounting(self):
        tracker = CommTracker()
        all_reduce([np.zeros(8, dtype=np.float32)] * 4, tracker=tracker)
        all_gather([np.zeros(8, dtype=np.float32)] * 4, tracker=tracker)
        assert tracker.count() == 2
        assert tracker.count("all_reduce") == 1
        assert tracker.total_bytes > 0
        tracker.reset()
        assert tracker.count() == 0

    def test_single_rank_all_reduce_is_free(self):
        tracker = CommTracker()
        all_reduce([np.zeros(8, dtype=np.float32)], tracker=tracker)
        assert tracker.total_bytes == 0


class TestProcessGroup:
    def test_local_rank(self):
        group = ProcessGroup("g", [4, 7, 9])
        assert group.local_rank(7) == 1

    def test_unknown_rank_raises(self):
        with pytest.raises(KeyError, match="not in group"):
            ProcessGroup("g", [1]).local_rank(2)

    def test_duplicate_ranks_raise(self):
        with pytest.raises(ValueError, match="duplicate"):
            ProcessGroup("g", [1, 1])

    def test_width_check(self):
        group = ProcessGroup("g", [0, 1])
        with pytest.raises(ValueError, match="expected 2 shards"):
            group.all_reduce([np.zeros(2, dtype=np.float32)])


class TestCluster:
    def test_groups_built_for_all_axes(self):
        cluster = Cluster(ParallelConfig(tp=2, pp=2, dp=2))
        assert len(cluster.groups("tp")) == 4
        assert len(cluster.groups("dp")) == 4

    def test_failure_detection(self):
        cluster = Cluster(ParallelConfig(tp=2, dp=2))
        cluster.fail_rank(2)
        assert cluster.failed_ranks == {2}
        assert cluster.healthy_ranks == [0, 1, 3]
        with pytest.raises(RankFailure, match="rank 2"):
            cluster.check_alive(2)
        with pytest.raises(RankFailure, match="healthy"):
            cluster.check_world_alive()

    def test_heal_rank(self):
        cluster = Cluster(ParallelConfig(dp=2))
        cluster.fail_rank(1)
        cluster.heal_rank(1)
        cluster.check_world_alive()

    def test_group_for_failed_rank_raises(self):
        cluster = Cluster(ParallelConfig(dp=2))
        cluster.fail_rank(0)
        with pytest.raises(RankFailure):
            cluster.group_for("dp", 0)


class TestAllToAll:
    def test_chunk_exchange(self):
        from repro.dist.collectives import all_to_all

        shards = [
            np.array([0, 1, 2, 3], dtype=np.float32),   # rank 0
            np.array([4, 5, 6, 7], dtype=np.float32),   # rank 1
        ]
        out = all_to_all(shards)
        assert np.array_equal(out[0], [0, 1, 4, 5])
        assert np.array_equal(out[1], [2, 3, 6, 7])

    def test_involution(self, rng):
        """all_to_all twice restores the original layout."""
        from repro.dist.collectives import all_to_all

        shards = [rng.standard_normal(12).astype(np.float32) for _ in range(4)]
        twice = all_to_all(all_to_all(shards))
        for a, b in zip(shards, twice):
            assert np.array_equal(a, b)

    def test_single_rank_identity(self, rng):
        from repro.dist.collectives import all_to_all

        x = rng.standard_normal(6).astype(np.float32)
        assert np.array_equal(all_to_all([x])[0], x)

    def test_indivisible_raises(self):
        from repro.dist.collectives import all_to_all

        with pytest.raises(ValueError, match="divisible"):
            all_to_all([np.zeros(3, dtype=np.float32)] * 2)

    def test_tracker_accounting(self):
        from repro.dist.collectives import all_to_all

        tracker = CommTracker()
        all_to_all([np.zeros(8, dtype=np.float32)] * 4, tracker=tracker)
        assert tracker.count("all_to_all") == 1
        assert tracker.total_bytes > 0


WIDTHS = (1, 2, 3, 4, 8)
"""Every group width the suite runs a collective at."""


def _shards(width):
    """One independent float32 input per rank, divisible by ``width``."""
    return [np.arange(6 * width, dtype=np.float32) + r for r in range(width)]


def assert_private(inputs, outputs):
    """No two ranks' results share memory, and no result shares memory
    with another rank's input (a rank's own input would be NCCL's
    in-place case)."""
    for i, out in enumerate(outputs):
        for j, other in enumerate(outputs[:i]):
            assert not shares_allocation(out, other), (
                f"ranks {j} and {i} received one buffer"
            )
        for j, arr in enumerate(inputs):
            assert j == i or not shares_allocation(out, arr), (
                f"rank {i}'s result shares memory with rank {j}'s input"
            )


class TestRankIsolation:
    """Every collective hands each rank a private result (UCP025): the
    simulated ranks share one address space, so a missing copy would
    let one rank's write rewrite another rank's state unseen."""

    @pytest.mark.parametrize("width", WIDTHS)
    def test_all_reduce_results_are_private(self, width):
        shards = _shards(width)
        assert_private(shards, all_reduce(shards))

    @pytest.mark.parametrize("width", WIDTHS)
    def test_all_gather_results_are_private(self, width):
        shards = _shards(width)
        assert_private(shards, all_gather(shards))

    @pytest.mark.parametrize("width", WIDTHS)
    def test_reduce_scatter_results_are_private(self, width):
        shards = _shards(width)
        assert_private(shards, reduce_scatter(shards))

    @pytest.mark.parametrize("width", WIDTHS)
    def test_all_to_all_results_are_private(self, width):
        shards = _shards(width)
        assert_private(shards, all_to_all(shards))

    @pytest.mark.parametrize("width", WIDTHS)
    def test_broadcast_results_are_private(self, width):
        root = np.arange(6.0, dtype=np.float32)
        assert_private([root], broadcast(root, width))

    def test_check_fires_on_a_shared_result(self, monkeypatch):
        """The check is live: an all-reduce that hands every rank one
        buffer fails it."""
        mutate(monkeypatch, collectives, "all_reduce",
               "[total.copy() for _ in shards]", "[total for _ in shards]")
        with pytest.raises(AssertionError, match="received one buffer"):
            assert_private(_shards(2), collectives.all_reduce(_shards(2)))
