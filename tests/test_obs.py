"""The one hook slot (``repro.obs``): inert when off, restored after every
activation, innermost-wins per role, fixed delivery order — and the
explorer gets its store-op yield points from the slot itself, with no FS
recorder switched on."""

import threading

import pytest

from repro import obs
from repro.analysis import interleave
from repro.analysis.fswitness import fstrace
from repro.analysis.lockwitness import lockcheck
from repro.analysis.sanitizer import sanitize
from repro.storage.store import ObjectStore


@pytest.fixture
def quiet_slot():
    """Mask whatever the session fixture subscribed (REPRO_SANITIZE=1),
    so ``obs._ACTIVE`` is ``()`` at the start of the test."""
    with obs.subscribed("mem", None), obs.subscribed("locks", None):
        assert obs._ACTIVE == ()
        yield


class Listener:
    """Appends ``(name, event)`` to a shared log for the events given."""

    def __init__(self, name, log, events=("access",)):
        for event in events:
            setattr(self, "on_" + event,
                    lambda *args, _e=event: log.append((name, _e)))


class TestOffMode:
    def test_emit_sites_are_inert(self, quiet_slot, tmp_path):
        obs.emit("access", None, "anything", None, True)  # no handler: no-op
        with obs.make_lock("plain"):
            pass
        ObjectStore(str(tmp_path), durable=True).put_bytes("a.bin", b"x")
        interleave.access("shared", write=True)
        assert obs._ACTIVE == ()

    def test_slot_is_empty_after_every_activation(self, quiet_slot):
        with sanitize(strict=False), lockcheck(strict=False), fstrace():
            assert len(obs._ACTIVE) == 3
        assert obs._ACTIVE == ()

    def test_slot_is_restored_on_exception(self, quiet_slot):
        with pytest.raises(KeyError):
            with lockcheck(strict=False):
                with fstrace():
                    raise KeyError("boom")
        assert obs._ACTIVE == ()
        assert obs.current("locks") is None and obs.current("fs") is None

    def test_slot_is_restored_from_a_worker_thread(self, quiet_slot):
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
    def test_innermost_subscriber_of_a_role_wins(self, quiet_slot):
        """A permissive witness inside a strict one receives the event;
        the strict one does not (and so cannot raise)."""
        with lockcheck(strict=True) as outer:
            with lockcheck(strict=False) as inner:
                inner_lock = obs.make_lock("guard")
                obs.emit("access", inner_lock, "table", None, True)  # unheld
            assert [d.rule_id for d in inner.report.diagnostics] == ["UCP030"]
            assert outer.report.ok and outer.checks == 0
            assert obs.current("locks") is outer

    def test_masking_a_role_with_none(self, quiet_slot):
        with sanitize(strict=True) as san:
            with obs.subscribed("mem", None):
                assert obs._ACTIVE == ()
            assert obs._ACTIVE == (san,)

    def test_delivery_follows_the_fixed_role_order(self, quiet_slot):
        log = []
        # subscribed in reverse: delivery order is the role order anyway
        with obs.subscribed("mem", Listener("mem", log)), \
                obs.subscribed("locks", Listener("locks", log)), \
                obs.subscribed("sched", Listener("sched", log)), \
                obs.subscribed("fs", Listener("fs", log)):
            obs.emit("access", None, "r", None, False)
        assert [name for name, _ in log] == list(obs.ROLES)

    def test_subscribers_receive_only_events_they_handle(self, quiet_slot):
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
