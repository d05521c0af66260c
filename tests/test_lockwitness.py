"""The witnessed locks (:class:`repro.obs.WitnessedLock`) and the checks
that watch them.

The three lock findings once had a runtime depth of their own (UCP029 -
UCP031, retired; the IDs stay reserved and name the classes below).
Each keeps a depth CI runs, and each class pins its finding there:

* lock order — SRC006 statically, UCP037 under the schedule explorer;
* guarded access — SRC005 statically, UCP038 under the explorer;
* blocking under a lock — SRC007 statically.
"""

import ast
import threading

from repro import obs
from repro.analysis import interleave
from repro.analysis.locks import lint_locks
from repro.storage.rangeio import BlockCache

from tests.test_locklint import REPO_SRC, lint_snippet, rules

RANGEIO = REPO_SRC / "storage" / "rangeio.py"


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

    return interleave.scenario(name, fresh)


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

    return interleave.scenario(name, fresh)


def blocking_under_lock(call: str, suppress: bool = False) -> str:
    marker = "  # srclint: disable=SRC007" if suppress else ""
    return (
        "import os\n"
        "\n"
        "def f(lock, store, fd):\n"
        "    with lock:\n"
        f"        {call}{marker}\n"
    )


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

    def test_single_thread_reversal_raises_strict_at_the_site(self, tmp_path):
        """One class reversing its own lock order is an ABBA statically,
        with no second thread needed, named at both nesting sites."""
        src = (
            "class Pair:\n"
            "    def ab(self):\n"
            "        with self._a_lock:\n"
            "            with self._b_lock:\n"
            "                pass\n"
            "\n"
            "    def ba(self):\n"
            "        with self._b_lock:\n"
            "            with self._a_lock:\n"
            "                pass\n"
        )
        (diag,) = lint_snippet(tmp_path, src)
        assert diag.rule_id == "SRC006"
        assert "ab()" in diag.message and "ba()" in diag.message

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
        """Touch the table's files outside its lock: SRC005."""
        source = RANGEIO.read_text().replace(
            "            fut, view = self._files.get(rel), self._views.get(rel)\n"
            "            self.hits += 1\n",
            "            self.hits += 1\n"
            "        fut, view = self._files.get(rel), self._views.get(rel)\n",
        )
        assert source != RANGEIO.read_text()
        found = lint_locks("repro/storage/rangeio.py", source, ast.parse(source))
        assert rules(found) == ["SRC005", "SRC005"]

    def test_blockcache_public_api_is_quiet_under_strict(self):
        """Claim, fill, view and release from two threads through the
        public API: every explored schedule is clean."""

        def fresh() -> interleave.RunCase:
            table = BlockCache({"f": 2})

            def consumer() -> None:
                fut, mine = table.claim("f")
                if mine:
                    table.fill("f", memoryview(b"bytes"))
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

        result = interleave.explore(interleave.scenario("table", fresh))
        assert result.ok and result.exhaustive


class TestUCP031LockHeldAcrossBlockingIO:
    def test_over_budget_io_under_lock_fires(self, tmp_path):
        found = lint_snippet(tmp_path, blocking_under_lock(
            "store.read_ranges('f', [])"
        ))
        assert rules(found) == ["SRC007"]

    def test_blocking_ok_lock_is_quiet(self):
        """``RangeReader._io_lock`` is held across its store read by
        design; the suppression beside the read says so."""
        source = RANGEIO.read_text()
        assert "read_ranges(  # srclint: disable=SRC007" in source
        found = lint_locks("repro/storage/rangeio.py", source, ast.parse(source))
        assert found == []

    def test_under_budget_and_unlocked_are_quiet(self, tmp_path):
        assert lint_snippet(tmp_path, blocking_under_lock("len(store)")) == []
        assert lint_snippet(tmp_path, (
            "def f(lock, store):\n"
            "    with lock:\n"
            "        pass\n"
            "    store.read_ranges('f', [])\n"
        )) == []

    def test_fsync_kind_fires_regardless_of_budget(self, tmp_path):
        for call in ("os.fsync(fd)", "store.fsync_dir('atoms')"):
            found = lint_snippet(tmp_path, blocking_under_lock(call))
            assert rules(found) == ["SRC007"], call
            assert "srclint: disable=SRC007" in found[0].message

    def test_fsync_under_blocking_ok_lock_is_quiet(self, tmp_path):
        assert lint_snippet(
            tmp_path, blocking_under_lock("os.fsync(fd)", suppress=True)
        ) == []

    def test_fsync_unlocked_is_quiet(self, tmp_path):
        assert lint_snippet(tmp_path, "import os\n\ndef f(fd):\n    os.fsync(fd)\n") == []


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

        result = interleave.explore(interleave.scenario("handoff", fresh))
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
        with obs.subscribed("mem", None):
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
