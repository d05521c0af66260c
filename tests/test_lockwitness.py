"""The witnessed locks (:class:`repro.obs.WitnessedLock`) and the checks
that watch them.

The three lock findings once had a runtime depth of their own (UCP029 -
UCP031, retired; the IDs stay reserved and name the classes below), and
then a static one (the lock-discipline lint, SRC005-SRC008 and
SRC013-SRC014, retired; those IDs stay reserved too).  The schedule
explorer is the one checker left, and each class pins its finding there:

* lock order — UCP037 (a deadlock schedule);
* guarded access — UCP038 on every access ``BlockCache._check_guarded``
  names; a check-then-act on the table shows as UCP036 divergence;
* blocking under a lock — no checker is left.  A wait on a peer while
  holding a lock that peer needs is a UCP037 deadlock; a slow read
  under a lock shows in the benchmark's ``convert_s``.
"""

import threading
import types
from pathlib import Path

from repro import obs
from repro.analysis import interleave
from repro.storage import rangeio
from repro.storage.rangeio import BlockCache

RANGEIO = Path(rangeio.__file__)


def two_consumers(table_cls):
    """Two threads claim, lend (fill the lent buffer), view and release
    one file through the public API of a ``table_cls`` table."""

    def fresh() -> interleave.RunCase:
        table = table_cls({"f": 2})

        def consumer() -> None:
            _, fut, mine = table.claim_next(["f"])
            if mine:
                table.lend("f", 5)[:] = b"bytes"
                fut.set_result(None)
            else:
                if obs._ACTIVE:
                    obs.emit("wait", "f", fut.done)
                fut.result()
            assert bytes(table.view("f")) == b"bytes"
            table.release("f")

        return interleave.RunCase(
            threads=[consumer, consumer],
            fingerprint=lambda: str(table.resident_bytes),
        )

    return interleave.Scenario("table", fresh)


def nested(first_second_pairs, name="nested"):
    """A scenario whose thread ``i`` nests ``pairs[i]`` (outer, inner)."""

    def fresh() -> interleave.RunCase:
        locks = {n: obs.make_lock(n) for pair in first_second_pairs for n in pair}

        def thread(outer, inner):
            def run() -> None:
                with locks[outer]:
                    with locks[inner]:
                        pass

            return run

        return interleave.RunCase(
            threads=[thread(*pair) for pair in first_second_pairs],
            fingerprint=lambda: "ok",
        )

    return interleave.Scenario(name, fresh)


def accesses(locked: bool, name="accesses"):
    """A writer and a reader of one resource, both under one lock or
    both bare."""

    def fresh() -> interleave.RunCase:
        lock = obs.make_lock("state_lock")

        def touch(write):
            def run() -> None:
                if locked:
                    with lock:
                        interleave.access("state", write=write)
                else:
                    interleave.access("state", write=write)

            return run

        return interleave.RunCase(
            threads=[touch(True), touch(False)], fingerprint=lambda: "ok"
        )

    return interleave.Scenario(name, fresh)


class TestUCP029LockOrderCycle:
    def test_abba_fires_with_both_witness_stacks(self):
        result = interleave.explore(nested([("A", "B"), ("B", "A")]))
        (diag,) = result.report.by_rule("UCP037")
        # each waiter is named with where it blocked and where the owner
        # of the lock it wants acquired it
        assert diag.message.count("blocked at [") == 2
        assert diag.message.count("acquired it at [") == 2
        assert "test_lockwitness.py" in diag.message

    def test_consistent_order_is_quiet(self):
        result = interleave.explore(nested([("A", "B"), ("A", "B")]))
        assert result.ok and result.exhaustive

    def test_worker_thread_violation_surfaces_at_context_exit(self):
        """A deadlock between worker threads ends the exploration with a
        report (and a replayable schedule) instead of hanging it."""
        result = interleave.explore(nested([("A", "B"), ("B", "A")]))
        assert not result.ok
        (cx,) = [c for c in result.counterexamples if c["rule"] == "UCP037"]
        replay = interleave.explore(
            nested([("A", "B"), ("B", "A")]), schedule=cx["schedule"]
        )
        assert "UCP037" in replay.report.rule_ids()

    def test_cycle_reported_once(self):
        result = interleave.explore(nested([("A", "B"), ("B", "A")]))
        assert len(result.report.by_rule("UCP037")) == 1
        assert result.schedules_run > 1


class TestUCP030UnguardedStateAccess:
    def test_access_without_lock_fires_with_stack(self):
        (diag,) = interleave.explore(accesses(False)).report.by_rule("UCP038")
        assert "'T0' (write" in diag.message and "'T1' (read" in diag.message

    def test_access_under_lock_is_quiet(self):
        result = interleave.explore(accesses(True))
        assert result.ok and result.exhaustive

    def test_blockcache_bypass_fires(self):
        """A ``view`` that looks the file up outside the table's lock,
        driven through the public API by two consumers: UCP038 on the
        table's file entries."""
        source = RANGEIO.read_text()
        bypass = source.replace(
            "        with self._lock:\n"
            "            self._check_guarded(rel)\n"
            "            fut, view = self._files.get(rel), self._views.get(rel)\n"
            "            self.hits += 1\n",
            "        self._check_guarded(rel)\n"
            "        fut, view = self._files.get(rel), self._views.get(rel)\n"
            "        with self._lock:\n"
            "            self.hits += 1\n",
        )
        assert bypass != source
        module = types.ModuleType("rangeio_bypass")
        exec(compile(bypass, str(RANGEIO), "exec"), module.__dict__)

        result = interleave.explore(two_consumers(module.BlockCache))
        races = result.report.by_rule("UCP038")
        assert races and all("BlockCache._files[f]" in d.message for d in races)

    def test_blockcache_public_api_is_quiet_under_strict(self):
        """Claim, lend (fill the lent buffer), view and release from two
        threads through the public API: every explored schedule is
        clean."""
        result = interleave.explore(two_consumers(BlockCache))
        assert result.ok and result.exhaustive


class TestPayloadReplay:
    """A schedule is the explorer's replayable record of a run."""

    def test_clean_run_replays_clean(self):
        replay = interleave.explore(nested([("A", "B"), ("A", "B")]), schedule=[1])
        assert replay.report.errors == [] and replay.replayed == [1]

    def test_unordered_unlocked_accesses_are_a_race(self):
        replay = interleave.explore(accesses(False), schedule=[1])
        assert "UCP038" in replay.report.rule_ids()

    def test_common_lock_suppresses_the_race(self):
        replay = interleave.explore(accesses(True), schedule=[1])
        assert "UCP038" not in replay.report.rule_ids()

    def test_release_acquire_handoff_orders_the_accesses(self):
        """T0 writes and releases; T1 acquires the same lock, then reads
        with no lock held: the hand-off orders the pair, no race."""

        def fresh() -> interleave.RunCase:
            lock = obs.make_lock("handoff")
            published = threading.Event()

            def writer() -> None:
                with lock:
                    interleave.access("state", write=True)
                    published.set()

            def reader() -> None:
                if obs._ACTIVE:
                    obs.emit("wait", "published", published.is_set)
                with lock:
                    pass
                interleave.access("state")

            return interleave.RunCase(threads=[writer, reader])

        result = interleave.explore(interleave.Scenario("handoff", fresh))
        assert result.ok and result.exhaustive


class TestActivation:
    def test_innermost_witness_wins(self):
        log = []
        outer = type("Outer", (), {"on_lock_enter": lambda s, l: log.append("outer")})()
        inner = type("Inner", (), {"on_lock_enter": lambda s, l: log.append("inner")})()
        with obs.subscribed("sched", outer), obs.subscribed("sched", inner):
            with obs.make_lock("l"):
                pass
        assert log == ["inner"]

    def test_off_mode_is_inert(self):
        assert obs._ACTIVE == ()
        lock = obs.make_lock("plain")
        with lock:
            assert lock._inner.locked()
        assert not lock._inner.locked()

    def test_bare_acquire_release_are_witnessed(self):
        lock = obs.make_lock("bare")

        def bare() -> None:
            lock.acquire()
            lock.release()

        result = interleave.run_schedule(interleave.RunCase([bare, int]))
        kinds = [e.kind for e in result.trace if e.thread == 0]
        assert kinds == ["start", "acquire", "release"]
