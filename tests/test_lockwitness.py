"""Runtime lock witness (UCP029-UCP031): every rule fires on an
injected violation with full witness context, safe shapes stay quiet,
and a recorded payload replays offline through ``check_lock_trace``.

Injection tests run their own *non-strict* witness (pushed inside the
session-wide strict one when ``REPRO_SANITIZE=1``), so they work
identically under the checked CI run.  The strict-mode tests pin the
two delivery paths: a main-thread violation raises at the acquisition
site; a worker-thread violation — swallowed by ``threading`` — is
re-raised at ``lockcheck`` exit.
"""

import json
import threading

import pytest

from repro import obs
from repro.analysis import lockwitness
from repro.analysis.lockwitness import (
    LockWitnessError,
    check_lock_trace,
    lockcheck,
    make_lock,
)
from repro.storage.rangeio import BlockCache


def _run_named(name, fn):
    t = threading.Thread(target=fn, name=name)
    t.start()
    t.join()


def _abba(lock_a, lock_b):
    """Two sequential threads acquiring the pair in opposite orders.

    Sequential on purpose: the cycle is an *order* property, so no
    actual interleaving (and no real deadlock risk) is needed to
    witness it.
    """

    def loader():
        with lock_a:
            with lock_b:
                pass

    def verifier():
        with lock_b:
            with lock_a:
                pass

    _run_named("loader", loader)
    _run_named("verifier", verifier)


class TestUCP029LockOrderCycle:
    def test_abba_fires_with_both_witness_stacks(self):
        with lockcheck(strict=False) as w:
            _abba(make_lock("lock_a"), make_lock("lock_b"))
        assert [d.rule_id for d in w.report.diagnostics] == ["UCP029"]
        msg = w.report.diagnostics[0].message
        assert "lock-order cycle" in msg
        # BOTH acquisition witnesses: thread names, lock names, stacks
        assert "'loader'" in msg and "'verifier'" in msg
        assert "'lock_a'" in msg and "'lock_b'" in msg
        assert msg.count("test_lockwitness.py") >= 2

    def test_consistent_order_is_quiet(self):
        with lockcheck(strict=False) as w:
            a, b = make_lock("a"), make_lock("b")

            def fwd():
                with a:
                    with b:
                        pass

            _run_named("t1", fwd)
            _run_named("t2", fwd)
        assert w.report.ok

    def test_single_thread_reversal_raises_strict_at_the_site(self):
        """The cycle check runs *before* the acquire, so strict mode
        raises instead of deadlocking."""
        a, b = make_lock("a"), make_lock("b")
        with pytest.raises(LockWitnessError) as exc_info:
            with lockcheck(strict=True):
                with a:
                    with b:
                        pass
                with b:
                    with a:  # the reversal: raises right here
                        pass
        assert "UCP029" in str(exc_info.value)

    def test_worker_thread_violation_surfaces_at_context_exit(self):
        """``threading`` swallows a worker's exception; the strict
        witness re-raises the accumulated report when the context
        exits, so CI cannot miss it."""
        swallowed = []
        orig_hook = threading.excepthook
        threading.excepthook = lambda a: swallowed.append(a.exc_value)
        try:
            with pytest.raises(LockWitnessError) as exc_info:
                with lockcheck(strict=True):
                    _abba(make_lock("a"), make_lock("b"))
        finally:
            threading.excepthook = orig_hook
        assert "UCP029" in str(exc_info.value)
        # the original raise did fire in the worker and died there
        assert [type(e) for e in swallowed] == [LockWitnessError]

    def test_reentrant_reacquire_is_not_an_edge(self):
        with lockcheck(strict=True):
            r = make_lock("r", reentrant=True)
            with r:
                with r:
                    pass

    def test_cycle_reported_once(self):
        with lockcheck(strict=False) as w:
            a, b = make_lock("a"), make_lock("b")
            for _ in range(3):
                _abba(a, b)
        assert [d.rule_id for d in w.report.diagnostics] == ["UCP029"]


class TestUCP030UnguardedStateAccess:
    def test_access_without_lock_fires_with_stack(self):
        with lockcheck(strict=False) as w:
            lock = make_lock("state_lock")
            diag = w.check_guarded(lock, "replica_table")
        assert diag is not None and diag.rule_id == "UCP030"
        assert "without holding 'state_lock'" in diag.message
        assert "at [" in diag.message  # the offending access stack

    def test_access_under_lock_is_quiet(self):
        with lockcheck(strict=False) as w:
            lock = make_lock("state_lock")
            with lock:
                assert w.check_guarded(lock, "replica_table") is None
        assert w.report.ok

    def test_blockcache_bypass_fires(self):
        """The accessor hooks wired into ``BlockCache``: calling a
        ``*_locked`` helper without the lock is the seeded bug."""
        with lockcheck(strict=False) as w:
            cache = BlockCache({"f": 1})
            cache._drop_locked("f")
        found = [d for d in w.report.diagnostics if d.rule_id == "UCP030"]
        assert len(found) == 1
        assert "BlockCache._files" in found[0].message
        assert "rangeio.py" in found[0].message  # the access stack

    def test_blockcache_public_api_is_quiet_under_strict(self):
        with lockcheck(strict=True):
            cache = BlockCache({"f": 2})
            fut, mine = cache.claim("f")
            assert mine and cache.claim("f") == (fut, False)
            cache.fill("f", memoryview(b"abcdef"))
            fut.set_result(None)
            assert bytes(cache.view("f")) == b"abcdef"
            cache.release("f")
            assert cache.resident_bytes == 6
            cache.clear()
            assert cache.resident_bytes == 0


class TestUCP031LockHeldAcrossBlockingIO:
    def test_over_budget_io_under_lock_fires(self):
        with lockcheck(strict=False, io_budget_s=0.01) as w:
            with make_lock("meta_lock"):
                diag = w.note_blocking("read_ranges(r0, 4 blocks)", 0.5)
        assert diag is not None and diag.rule_id == "UCP031"
        assert "'meta_lock'" in diag.message
        assert "500.0ms" in diag.message and "budget 10.0ms" in diag.message

    def test_blocking_ok_lock_is_quiet(self):
        """A lock *designed* to serialize IO (RangeReader's) opts out."""
        with lockcheck(strict=False, io_budget_s=0.01) as w:
            with make_lock("io_lock", blocking_ok=True):
                assert w.note_blocking("read", 0.5) is None
        assert w.report.ok

    def test_under_budget_and_unlocked_are_quiet(self):
        with lockcheck(strict=False, io_budget_s=0.01) as w:
            with make_lock("m"):
                assert w.note_blocking("read", 0.005) is None
            assert w.note_blocking("read", 0.5) is None  # nothing held
        assert w.report.ok

    def test_fsync_kind_fires_regardless_of_budget(self):
        """Durable commits report ``kind="fsync"`` with near-zero
        measured time — fsync latency is device-dependent, so no budget
        excuses holding a lock across one."""
        with lockcheck(strict=False, io_budget_s=0.01) as w:
            with make_lock("meta_lock"):
                diag = w.note_blocking(
                    "fsync(tag/model.npt)", 0.0, kind="fsync")
        assert diag is not None and diag.rule_id == "UCP031"
        assert "fsync/flush latency is unbounded" in diag.message
        assert "move the durable write outside" in diag.message

    def test_cache_miss_kind_stays_budgeted(self):
        """The cold-cache-miss path keeps the budget: a fast miss under
        a lock is expected, only a slow one is a finding."""
        with lockcheck(strict=False, io_budget_s=0.01) as w:
            with make_lock("cache_lock"):
                assert w.note_blocking(
                    "read_ranges(r0, 4 blocks)", 0.001,
                    kind="cache-miss") is None
                slow = w.note_blocking(
                    "read_ranges(r0, 4 blocks)", 0.5, kind="cache-miss")
        assert slow is not None and slow.rule_id == "UCP031"

    def test_fsync_under_blocking_ok_lock_is_quiet(self):
        with lockcheck(strict=False, io_budget_s=0.01) as w:
            with make_lock("io_lock", blocking_ok=True):
                assert w.note_blocking("fsync(x)", 0.0, kind="fsync") is None
        assert w.report.ok

    def test_fsync_unlocked_is_quiet(self):
        """The store's own fsync probe with no lock held — the normal
        durable-commit path — must never fire."""
        with lockcheck(strict=False, io_budget_s=0.01) as w:
            assert w.note_blocking("fsync(x)", 0.0, kind="fsync") is None
        assert w.report.ok


class TestPayloadReplay:
    def test_recorded_abba_replays_as_ucp029(self):
        """``to_payload`` -> JSON -> ``check_lock_trace`` carries the
        full diagnosis: cycle, thread names, recorded stacks."""
        with lockcheck(strict=False) as w:
            _abba(make_lock("lock_a"), make_lock("lock_b"))
        payload = json.loads(json.dumps(w.to_payload()))
        report = check_lock_trace(payload)
        assert [d.rule_id for d in report.diagnostics] == ["UCP029"]
        msg = report.diagnostics[0].message
        assert "'loader'" in msg and "'verifier'" in msg
        assert "test_lockwitness.py" in msg

    def test_clean_run_replays_clean(self):
        with lockcheck(strict=True) as w:
            cache = BlockCache({"f": 1})
            cache.claim("f")
            cache.fill("f", memoryview(b"abc"))
        report = check_lock_trace(w.to_payload())
        assert report.ok
        assert any(e[2] == "access" for e in w.to_payload()["events"])

    def test_unordered_unlocked_accesses_are_a_race(self):
        payload = {
            "version": 1,
            "edges": [],
            "events": [
                [1, "t1", "access", "cache", []],
                [2, "t2", "access", "cache", []],
            ],
        }
        report = check_lock_trace(payload)
        assert [d.rule_id for d in report.diagnostics] == ["UCP030"]
        assert "data race on cache" in report.diagnostics[0].message

    def test_common_lock_suppresses_the_race(self):
        payload = {
            "version": 1,
            "edges": [],
            "events": [
                [1, "t1", "acquire", "L", []],
                [2, "t1", "access", "cache", ["L"]],
                [3, "t1", "release", "L", []],
                [4, "t2", "acquire", "L", []],
                [5, "t2", "access", "cache", ["L"]],
                [6, "t2", "release", "L", []],
            ],
        }
        assert check_lock_trace(payload).ok

    def test_release_acquire_handoff_orders_the_accesses(self):
        """The vector-clock join: an unlocked access that happens-before
        another (through a lock hand-off) is not a race."""
        payload = {
            "version": 1,
            "edges": [],
            "events": [
                [1, "t1", "access", "cache", []],
                [2, "t1", "acquire", "L", []],
                [3, "t1", "release", "L", []],
                [4, "t2", "acquire", "L", []],
                [5, "t2", "access", "cache", []],
            ],
        }
        assert check_lock_trace(payload).ok


class TestActivation:
    def test_sanitizer_env_implies_lockcheck(self):
        """``REPRO_SANITIZE`` is the one switch: the session fixture
        turns the strict lock witness on exactly when it is set."""
        from repro.analysis.sanitizer import enabled_from_env

        session = lockwitness.current()
        assert (session is not None) == enabled_from_env()
        assert session is None or session.strict

    def test_innermost_witness_wins(self):
        """An injection test's permissive witness shields the strict
        session one: the violation lands in the inner report only."""
        with lockcheck(strict=True) as outer:
            with lockcheck(strict=False) as inner:
                _abba(make_lock("a"), make_lock("b"))
            assert [d.rule_id for d in inner.report.diagnostics] == [
                "UCP029"
            ]
            assert outer.report.ok

    def test_off_mode_is_inert(self):
        """With no witness active a WitnessedLock is a plain lock:
        nothing records, nothing checks."""
        with obs.subscribed("locks", None):  # mask the session witness
            assert lockwitness.current() is None
            lock = make_lock("plain")
            with lock:
                pass
            lock.acquire()
            lock.release()
        # a later witness sees none of the pre-activation traffic
        with lockcheck(strict=True) as w:
            pass
        assert w.checks == 0 and w.to_payload()["events"] == []

    def test_bare_acquire_release_are_witnessed(self):
        with lockcheck(strict=False) as w:
            lock = make_lock("bare")
            lock.acquire()
            assert w.held_names() == ["bare"]
            lock.release()
            assert w.held_names() == []


class TestCLIReplay:
    """`repro lint-trace --locks` replays a saved witness payload."""

    def _write_payload(self, tmp_path, payload):
        p = tmp_path / "witness-payload.json"
        p.write_text(json.dumps(payload))
        return str(p)

    def test_cycle_payload_fails_and_names_the_rule(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        with lockcheck(strict=False) as w:
            _abba(make_lock("lock_a"), make_lock("lock_b"))
        path = self._write_payload(tmp_path, w.to_payload())
        assert main(["lint-trace", "--locks", path]) == 1
        out = capsys.readouterr().out
        assert "UCP029" in out and "lock_a" in out and "lock_b" in out

    def test_clean_payload_passes(self, tmp_path, capsys):
        from repro.cli import main

        with lockcheck(strict=True) as w:
            a, b = make_lock("a"), make_lock("b")
            with a:
                with b:
                    pass
        path = self._write_payload(tmp_path, w.to_payload())
        assert main(["lint-trace", "--locks", "--format", "json", path]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
