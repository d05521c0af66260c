"""The DPOR interleaving explorer: every rule fires on an injection,
clean scenarios prove clean, and everything is deterministic.

The contract under test (the ISSUE's acceptance):

* an injected order-dependent result is caught as UCP036 with a
  delta-shrunk minimal schedule that ``explore(schedule=...)`` replays
  to the same verdict;
* an injected ABBA deadlock is caught as UCP037;
* an unsynchronized conflicting access pair is UCP038 even when the
  outputs happen to match;
* a truncated exploration says so (UCP039) instead of silently
  passing, and registry scenarios explore *exhaustively* clean;
* the reduction reaches every dependence-order class a brute-force
  walk of every branch-choice list reaches, and does not reverse a
  pair a program-order chain already orders;
* the same seed and caps produce byte-identical JSON reports.
"""

import json
import threading

import pytest

from repro import obs
from repro.analysis import interleave


# --- injection scenarios ------------------------------------------------


def racy_counter() -> interleave.Scenario:
    """Two lock-free read-modify-write threads: the classic lost
    update.  Serial result is 2; an interleaved one is 1."""

    def fresh() -> interleave.RunCase:
        state = {"n": 0}

        def bump() -> None:
            interleave.access("counter")
            v = state["n"]
            interleave.access("counter", write=True)
            state["n"] = v + 1

        return interleave.RunCase(
            threads=[bump, bump], fingerprint=lambda: str(state["n"])
        )

    return interleave.Scenario("racy-counter", fresh)


def abba() -> interleave.Scenario:
    """Opposite-order nested acquires: deadlocks under exactly one
    interleaving family."""

    def fresh() -> interleave.RunCase:
        lock_a = obs.make_lock("A")
        lock_b = obs.make_lock("B")

        def t0() -> None:
            with lock_a:
                with lock_b:
                    pass

        def t1() -> None:
            with lock_b:
                with lock_a:
                    pass

        return interleave.RunCase(threads=[t0, t1], fingerprint=lambda: "ok")

    return interleave.Scenario("abba", fresh)


def unsynchronized_but_convergent() -> interleave.Scenario:
    """A write/read pair with no lock whose outputs happen to agree —
    only the happens-before analysis can see the hazard."""

    def fresh() -> interleave.RunCase:
        state = {"x": 1}

        def writer() -> None:
            interleave.access("x", write=True)
            state["x"] = 1  # same value: no divergence, still a race

        def reader() -> None:
            interleave.access("x")
            state["x"]

        return interleave.RunCase(
            threads=[writer, reader], fingerprint=lambda: str(state["x"])
        )

    return interleave.Scenario("convergent-race", fresh)


def locked_counter() -> interleave.Scenario:
    """The repaired racy counter: same shape, properly locked."""

    def fresh() -> interleave.RunCase:
        lock = obs.make_lock("counter-lock")
        state = {"n": 0}

        def bump() -> None:
            with lock:
                interleave.access("counter")
                v = state["n"]
                interleave.access("counter", write=True)
                state["n"] = v + 1

        return interleave.RunCase(
            threads=[bump, bump], fingerprint=lambda: str(state["n"])
        )

    return interleave.Scenario("locked-counter", fresh)


def program_order_chain() -> interleave.Scenario:
    """T0 writes x, then publishes y under a lock; T1 waits for the
    publication, reads y under the lock, then reads x.  The x pair is
    ordered through program order and the y hand-off, so it is no race
    of its own."""

    def fresh() -> interleave.RunCase:
        lock = obs.make_lock("y-lock")
        published = threading.Event()

        def writer() -> None:
            interleave.access("x", write=True)
            with lock:
                interleave.access("y", write=True)
                published.set()

        def reader() -> None:
            obs.emit("wait", "published", published.is_set)
            with lock:
                interleave.access("y")
            interleave.access("x")

        return interleave.RunCase(threads=[writer, reader])

    return interleave.Scenario("program-order-chain", fresh)


def three_thread_handoff() -> interleave.Scenario:
    """T0 writes x; T1 reads x and writes y; T2 reads y: a value handed
    along three threads, every hand-off a race."""

    def fresh() -> interleave.RunCase:
        def first() -> None:
            interleave.access("x", write=True)

        def middle() -> None:
            interleave.access("x")
            interleave.access("y", write=True)

        def last() -> None:
            interleave.access("y")

        return interleave.RunCase(threads=[first, middle, last])

    return interleave.Scenario("three-thread-handoff", fresh)


def order_class(trace) -> tuple:
    """A run's dependence-order class: per key, the order in which
    threads accessed it, ran a file op on it or acquired it (by lock
    name, since lock uids number locks by first touch).  Reads between
    two writes commute, so each such run of reads is one set."""
    per_key = {}
    for ev in trace:
        if ev.kind == "acquire":
            per_key.setdefault(ev.key.rsplit("#", 1)[0], []).append(ev.thread)
        elif ev.kind in ("access", "fs"):
            order = per_key.setdefault(ev.key, [])
            if ev.write:
                order.append(("w", ev.thread))
            elif order and isinstance(order[-1], frozenset):
                order[-1] |= {ev.thread}
            else:
                order.append(frozenset({ev.thread}))
    return tuple(sorted(
        (key, tuple(
            ("r",) + tuple(sorted(x)) if isinstance(x, frozenset) else x
            for x in order
        ))
        for key, order in per_key.items()
    ))


def brute_force_classes(scen: interleave.Scenario) -> set:
    """Every complete branch-choice list, run once each: a plain DFS
    with no reduction."""
    classes = set()
    stack = [[]]
    while stack:
        prefix = stack.pop()
        result = interleave.run_schedule(scen.fresh(), prefix)
        classes.add(order_class(result.trace))
        for ev in result.trace:
            if ev.branch >= len(prefix):
                taken = result.choices[ev.branch]
                stack.extend(
                    result.choices[:ev.branch] + [t]
                    for t in ev.runnable if t != taken
                )
    return classes


# --- rule injections ----------------------------------------------------


class TestUCP036Divergence:
    def test_lost_update_is_found_and_shrunk(self):
        result = interleave.explore(racy_counter())
        assert not result.ok
        assert "UCP036" in result.report.rule_ids()
        cx = next(
            c for c in result.counterexamples if c["rule"] == "UCP036"
        )
        # delta-shrunk: keep T0 to its read, preempt to T1, resume —
        # three forced choices, and no shorter prefix still fails
        assert cx["schedule"] == [0, 0, 1]
        assert cx["fingerprint"] != cx["reference_fingerprint"]
        assert cx["trace"] and cx["reference_trace"]

    def test_minimal_schedule_replays_to_same_verdict(self):
        found = interleave.explore(racy_counter())
        cx = next(
            c for c in found.counterexamples if c["rule"] == "UCP036"
        )
        replay = interleave.explore(racy_counter(), schedule=cx["schedule"])
        assert replay.replayed == cx["schedule"]
        assert "UCP036" in replay.report.rule_ids()
        assert not replay.exhaustive  # a replay proves one point, not a space


class TestUCP037Deadlock:
    def test_abba_deadlocks_with_minimal_schedule(self):
        result = interleave.explore(abba())
        assert not result.ok
        rules = result.report.rule_ids()
        assert "UCP037" in rules
        deadlocks = [
            c for c in result.counterexamples if c["rule"] == "UCP037"
        ]
        assert len(deadlocks) == 1  # one cycle, deduped across schedules
        d = next(
            x for x in result.report.diagnostics if x.rule_id == "UCP037"
        )
        assert "all threads blocked" in d.message

    def test_deadlock_schedule_replays(self):
        found = interleave.explore(abba())
        cx = next(
            c for c in found.counterexamples if c["rule"] == "UCP037"
        )
        replay = interleave.explore(abba(), schedule=cx["schedule"])
        assert "UCP037" in replay.report.rule_ids()


class TestUCP038UnsynchronizedPair:
    def test_convergent_race_is_still_reported(self):
        result = interleave.explore(unsynchronized_but_convergent())
        rules = result.report.rule_ids()
        assert "UCP036" not in rules  # outputs agree by construction
        assert "UCP038" in rules
        d = next(
            x for x in result.report.diagnostics if x.rule_id == "UCP038"
        )
        assert "x" in d.message

    def test_locking_silences_it(self):
        result = interleave.explore(locked_counter())
        assert result.ok
        assert result.exhaustive
        assert result.counterexamples == []


class TestUCP039Bounded:
    def test_schedule_cap_is_reported_not_silent(self):
        result = interleave.explore("source-files", schedules=4)
        assert not result.exhaustive
        assert "UCP039" in result.report.rule_ids()
        d = next(
            x for x in result.report.diagnostics if x.rule_id == "UCP039"
        )
        assert d.severity == "warning"
        assert "4" in d.message  # the cap is named in the report


class TestReduction:
    @pytest.mark.parametrize("build", [
        racy_counter, abba, three_thread_handoff, program_order_chain,
    ], ids=lambda build: build.__name__)
    def test_reaches_every_brute_force_class(self, build, monkeypatch):
        reached = set()
        run = interleave._Explorer._run

        def recording_run(self, forced, shrink=False):
            result = run(self, forced, shrink)
            if not shrink:  # shrink runs are not part of the exploration
                reached.add(order_class(result.trace))
            return result

        monkeypatch.setattr(interleave._Explorer, "_run", recording_run)
        result = interleave.explore(build())
        assert result.exhaustive
        assert reached == brute_force_classes(build())

    def test_program_order_chain_is_not_reversed_again(self):
        """The serial run and the reversal of the y hand-off (T1 gets
        only as far as its wait); reversing the x pair too, as if
        nothing ordered it, would run a third schedule."""
        result = interleave.explore(program_order_chain())
        assert result.ok and result.exhaustive
        assert result.schedules_run == 2


# --- clean scenarios and determinism ------------------------------------


class TestRegistryScenarios:
    def test_blockcache_is_exhaustively_clean(self):
        result = interleave.explore("source-files")
        assert result.ok
        assert result.exhaustive
        assert result.schedules_run > 100  # a real space, not a stub

    def test_commit_pool_sample_is_clean(self):
        """The pool's whole schedule space inside the default cap: every
        schedule ends with the failure raised by ``drain``, the slots
        back and no temp — the scenario's own threads assert it."""
        result = interleave.explore("commit-pool")
        assert result.ok
        assert result.exhaustive

    def test_commit_pool_slot_leak_is_caught(self, monkeypatch):
        from repro.storage.store import CommitPool

        def leaky_publish(self, group):
            group.publish()  # a publish that raises skips the release
            self._slots.release()
            return 0.0

        monkeypatch.setattr(CommitPool, "_publish", leaky_publish)
        with pytest.raises(interleave.ExploreError, match="slots free"):
            interleave.explore("commit-pool", schedules=4)

    def test_registry_names_build(self):
        assert set(interleave.SCENARIOS) == {
            "source-files", "commit-pool",
        }


class TestDeterminism:
    def test_same_exploration_is_byte_identical(self):
        a = interleave.explore(abba()).to_json()
        b = interleave.explore(abba()).to_json()
        assert a == b

    def test_divergence_report_is_byte_identical(self):
        a = interleave.explore(racy_counter()).to_json()
        b = interleave.explore(racy_counter()).to_json()
        assert a == b

    def test_report_json_round_trips(self):
        result = interleave.explore(racy_counter())
        payload = json.loads(result.to_json())
        assert payload["scenario"] == "racy-counter"
        assert payload["counterexamples"][0]["schedule"] == [0, 0, 1]


# --- plumbing -----------------------------------------------------------


class TestLoadSchedule:
    def test_bare_list(self):
        assert interleave.load_schedule("[1, 0, 1]") == [1, 0, 1]

    def test_schedule_object(self):
        assert interleave.load_schedule('{"schedule": [2]}') == [2]

    def test_full_report_takes_first_counterexample(self):
        report = interleave.explore(racy_counter()).to_json()
        assert interleave.load_schedule(report) == [0, 0, 1]

    def test_garbage_is_an_error(self):
        with pytest.raises(interleave.ExploreError):
            interleave.load_schedule('{"no": "schedule"}')


class TestEnvGate:
    def test_hooks_are_inert_outside_a_run(self):
        # the zero-cost-when-off contract: calling the yield points
        # with no controller installed must be a no-op
        interleave.access("anything", write=True)
        lock = obs.make_lock("inert")
        with lock:
            pass


class TestUnknownScenario:
    def test_unknown_name_raises(self):
        with pytest.raises(interleave.ExploreError):
            interleave.explore("no-such-scenario")
