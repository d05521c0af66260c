"""The ``collective`` event stream on :mod:`repro.obs`: one event per
collective call, named on its real group, as the memory sanitizer
(UCP025) hears it under the ``mem`` role.

The collective-trace analyzer (UCP014/UCP023/UCP024) is retired; what
these tests pin is the stream it used to read, which the sanitizer
still depends on, and the one argument rule the collectives enforce
themselves.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.helpers import make_engine
from repro import obs
from repro.ckpt.saver import save_distributed_checkpoint
from repro.dist import collectives
from repro.dist.process_group import ProcessGroup
from repro.dist.topology import ParallelConfig


class Counter:
    """Logs ``(op, group, ranks, output dtype)`` of every ``collective``
    event."""

    def __init__(self):
        self.calls = []

    def on_collective(self, op, group, ranks, inputs, outputs):
        self.calls.append((op, group, tuple(ranks), str(outputs[0].dtype)))


def listening():
    """A fresh counter and the context that subscribes it as ``mem``."""
    counter = Counter()
    return counter, obs.subscribed("mem", counter)


class TestEngineTrace:
    def test_dp_gradient_reduction_is_traced(self):
        """Per step and model-parallel rank: the gradient all-reduce,
        then the ZeRO parameter all-gather, named on the real dp group."""
        engine = make_engine(parallel=ParallelConfig(tp=2, dp=2, zero_stage=1))
        counter, ctx = listening()
        with ctx:
            engine.train(2)
        step = [
            (op, group, ranks)
            for op in ("all_reduce", "all_gather")
            for group, ranks in (("dp:0,2", (0, 2)), ("dp:1,3", (1, 3)))
        ]
        assert [call[:3] for call in counter.calls] == step * 2

    # per rank, what the recorder every Cluster used to own logged for a
    # tp2.dp2.zero1 train(2) + save, minus the two retired save barriers
    PINNED = {
        rank: [
            ("all_reduce", group, "float32"),
            ("all_gather", group, "float32"),
            ("all_reduce", group, "float32"),
            ("all_gather", group, "float32"),
        ]
        for rank, group in (
            (0, "dp:0,2"), (1, "dp:1,3"), (2, "dp:0,2"), (3, "dp:1,3"),
        )
    }

    def test_subscriber_sees_what_the_cluster_recorder_saw(self, tmp_path):
        engine = make_engine(parallel=ParallelConfig(tp=2, dp=2, zero_stage=1))
        counter, ctx = listening()
        with ctx:
            engine.train(2)
            save_distributed_checkpoint(engine, str(tmp_path / "ckpt"))
        per_rank = {}
        for op, group, ranks, dtype in counter.calls:
            for rank in ranks:
                per_rank.setdefault(rank, []).append((op, group, dtype))
        assert per_rank == self.PINNED


class TestOneEventPerCollective:
    def test_each_call_is_one_event_on_its_real_group(self):
        """``reduce_scatter`` used to emit its inner all-reduce first,
        under a made-up group over local ranks 0 and 1."""
        pg = ProcessGroup("dp:4,5", [4, 5])
        counter, ctx = listening()
        with ctx:
            pg.all_reduce([np.ones(4), np.ones(4)])
            pg.all_gather([np.ones(2), np.ones(2)])
            pg.reduce_scatter([np.arange(4.0), np.arange(4.0)])
            pg.broadcast(np.ones(4))
        assert [call[:3] for call in counter.calls] == [
            ("all_reduce", "dp:4,5", (4, 5)),
            ("all_gather", "dp:4,5", (4, 5)),
            ("reduce_scatter", "dp:4,5", (4, 5)),
            ("broadcast", "dp:4,5", (4, 5)),
        ]

    def test_groupless_calls_are_not_trace_events(self):
        """A module-level call belongs to no process group: its event
        names no group and carries local indices, not global ranks."""
        counter, ctx = listening()
        with ctx:
            collectives.all_to_all([np.arange(4.0), np.arange(4.0)])
            collectives.all_reduce([np.ones(2), np.ones(2)])
        assert [call[:3] for call in counter.calls] == [
            ("all_to_all", None, (0, 1)),
            ("all_reduce", None, (0, 1)),
        ]


class TestArgumentLint:
    def test_shape_mismatch_is_ucp024(self):
        """UCP024's shape rule is the collective's own check: the call
        raises naming the shapes, and no event reaches a subscriber."""
        pg = ProcessGroup("dp:0,1", [0, 1])
        counter, ctx = listening()
        with ctx, pytest.raises(ValueError, match="shape mismatch") as err:
            pg.all_reduce(
                [np.zeros((8, 8), dtype=np.float32),
                 np.zeros(64, dtype=np.float32)]
            )
        assert "(8, 8)" in str(err.value)
        assert counter.calls == []
