"""The one hook slot (``repro.obs``): inert when off, restored after every
activation, innermost-wins per role, fixed delivery order — and the
explorer gets its store-op yield points from the slot itself, with no FS
recorder switched on."""

import threading

import pytest

from repro import obs
from repro.analysis import interleave
from repro.analysis.fswitness import fstrace
from repro.storage.store import ObjectStore


class Listener:
    """Appends ``(name, event)`` to a shared log for the events given."""

    def __init__(self, name, log, events=("access",)):
        for event in events:
            setattr(self, "on_" + event,
                    lambda *args, _e=event: log.append((name, _e)))


class TestOffMode:
    def test_emit_sites_are_inert(self, tmp_path):
        obs.emit("access", None, "anything", None, True)  # no handler: no-op
        with obs.make_lock("plain"):
            pass
        ObjectStore(str(tmp_path), durable=True).put_bytes("a.bin", b"x")
        interleave.access("shared", write=True)
        assert obs._ACTIVE == ()

    def test_slot_is_empty_after_every_activation(self):
        with obs.subscribed("sched", Listener("sched", [])), fstrace():
            assert len(obs._ACTIVE) == 2
        assert obs._ACTIVE == ()

    def test_slot_is_restored_on_exception(self):
        with pytest.raises(KeyError):
            with obs.subscribed("sched", Listener("sched", [])):
                with fstrace():
                    raise KeyError("boom")
        assert obs._ACTIVE == ()
        assert obs.current("sched") is None and obs.current("fs") is None

    def test_slot_is_restored_from_a_worker_thread(self):
        seen = []

        def worker():
            with fstrace() as rec:
                seen.append(obs._ACTIVE == (rec,))

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert seen == [True]
        assert obs._ACTIVE == ()


class TestDelivery:
    def test_innermost_subscriber_of_a_role_wins(self):
        """The inner subscriber of a role receives the event; the outer
        one does not, and is back once the inner activation ends."""
        log = []
        outer = Listener("outer", log)
        with obs.subscribed("sched", outer):
            with obs.subscribed("sched", Listener("inner", log)):
                obs.emit("access", None, "table", None, True)
            assert obs.current("sched") is outer
        assert log == [("inner", "access")]

    def test_masking_a_role_with_none(self):
        with fstrace() as rec:
            with obs.subscribed("fs", None):
                assert obs._ACTIVE == ()
            assert obs._ACTIVE == (rec,)

    def test_delivery_follows_the_fixed_role_order(self):
        log = []
        # subscribed in reverse: delivery order is the role order anyway
        with obs.subscribed("sched", Listener("sched", log)), \
                obs.subscribed("fs", Listener("fs", log)):
            obs.emit("access", None, "r", None, False)
        assert [name for name, _ in log] == list(obs.ROLES)
        assert obs.ROLES == ("fs", "sched")

    def test_subscribers_receive_only_events_they_handle(self):
        log = []
        with obs.subscribed("fs", Listener("fs", log, events=("fs_op",))):
            with obs.make_lock("l"):  # lock events: nobody listens
                obs.emit("fs_op", "fsync", "/root", "a", None, None)
        assert log == [("fs", "fs_op")]


class TestExplorerYieldPoints:
    def test_store_ops_are_yield_points_without_an_fs_recorder(self, tmp_path):
        """``run_schedule`` no longer switches an ``fstrace`` on to see
        store ops: the controller hears ``fs_op`` from the slot."""
        store = ObjectStore(str(tmp_path), durable=True)

        def writer(name):
            return lambda: store.put_bytes(f"{name}.bin", name.encode())

        case = interleave.RunCase([writer("a"), writer("b")])
        result = interleave.run_schedule(case)
        assert obs.current("fs") is None  # nothing was recording
        fs = [e.resource for e in result.trace if e.kind == "fs"]
        assert "write:s0/a.bin.tmp" in fs and "rename:s0/b.bin.tmp" in fs
        assert {r.split(":")[0] for r in fs} == {
            "write", "fsync", "rename", "fsync_dir"
        }
        assert obs.current("sched") is None

    def test_nested_exploration_is_refused(self):
        def nested():
            interleave.run_schedule(interleave.RunCase([int, int]))

        with pytest.raises(interleave.ExploreError, match="already installed"):
            interleave.run_schedule(interleave.RunCase([nested, int]))
        assert obs.current("sched") is None
