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
* the same seed and caps produce byte-identical JSON reports.
"""

import json

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

    return interleave.scenario("racy-counter", fresh)


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

    return interleave.scenario("abba", fresh)


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

    return interleave.scenario("convergent-race", fresh)


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

    return interleave.scenario("locked-counter", fresh)


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

    def test_preemption_bound_is_reported(self):
        result = interleave.explore(racy_counter(), preemptions=0)
        # the lost update needs a preemption, so the divergence is
        # unreachable (the happens-before race UCP038 is still visible
        # on the serial run) — and the report must say the space was cut
        rules = result.report.rule_ids()
        assert "UCP036" not in rules
        assert "UCP038" in rules
        assert not result.exhaustive
        assert result.preemption_skipped > 0
        assert "UCP039" in rules


# --- clean scenarios and determinism ------------------------------------


class TestRegistryScenarios:
    def test_blockcache_is_exhaustively_clean(self):
        result = interleave.explore("source-files")
        assert result.ok
        assert result.exhaustive
        assert result.schedules_run > 100  # a real space, not a stub

    def test_commit_pool_sample_is_clean(self):
        """A sample of the pool's schedule space (CI's ``checked`` job
        runs all 2064 schedules with ``--require-exhaustive``): every
        schedule ends with the failure raised by ``drain``, the slots
        back and no temp — the scenario's own threads assert it."""
        result = interleave.explore("commit-pool", schedules=48)
        assert result.report.errors == []
        assert result.schedules_run == 48
        assert not result.exhaustive  # and says so (UCP039)

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
