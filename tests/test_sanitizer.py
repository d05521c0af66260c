"""Memory sanitizer: injected isolation violations are caught and named.

Each test class injects one of the bug classes the sanitizer exists
for — a rank mutating a shared collective result, two ranks sharing
one optimizer partition, a parameter aliasing rank state (all UCP025)
— and asserts the diagnostic fires with the offending rank/key named.  Buggy variants simulate a *missing
copy at the boundary itself*: they produce aliased results and hand
them to the same public ``sanitize_boundary`` hook / slot events the
real code paths use.

The injection tests run their own non-strict sanitizer; under
``REPRO_SANITIZE=1`` it nests inside the session-wide strict one (the
innermost activation wins), so the suite stays green either way.
"""

import numpy as np
import pytest

from repro import obs
from repro.analysis import sanitizer as sanitizer_module
from repro.analysis.sanitizer import (
    MemorySanitizer,
    SanitizerError,
    check_engine_isolation,
    current,
    enabled_from_env,
    sanitize,
)
from repro.core.diagnostics import LayoutLintError
from repro.dist import collectives
from repro.dist.process_group import ProcessGroup

from tests.helpers import make_engine


@pytest.fixture
def no_sanitizer():
    """Mask the session-wide sanitizer ``REPRO_SANITIZE=1`` installs."""
    with obs.subscribed("mem", None):
        yield


def bad_broadcast(value, group_size, tracker=None, group=None):
    """A broadcast that forgot the per-rank copy (the injected bug)."""
    arr = np.asarray(value)
    results = [arr for _ in range(group_size)]
    collectives.sanitize_boundary("broadcast", [arr], results, group=group)
    return results


class TestCollectiveBoundary:
    def test_clean_collectives_report_nothing(self):
        with sanitize(strict=True) as san:
            pg = ProcessGroup("tp", [0, 1])
            pg.all_reduce([np.ones(8), np.ones(8)])
            pg.all_gather([np.ones(4), np.ones(4)])
            pg.reduce_scatter([np.arange(8.0), np.arange(8.0)])
            pg.broadcast(np.ones(8))
            collectives.all_to_all([np.arange(4.0), np.arange(4.0)])
        assert san.report.ok
        assert san.checks >= 5

    def test_shared_result_buffer_is_ucp025(self):
        with sanitize(strict=False) as san:
            bad_broadcast(np.ones(4), 3, group=("dp", [4, 5, 6]))
        found = san.report.by_rule("UCP025")
        assert found
        # the diagnostic names the group and real global ranks
        assert any("'dp'" in d.message for d in found)
        assert any("4" in d.message and "5" in d.message for d in found)

    def test_output_aliasing_other_ranks_input_is_ucp025(self):
        with sanitize(strict=False) as san:
            a, b = np.ones(4), np.ones(4)
            # rank 1's "result" is rank 0's input, unconverted
            collectives.sanitize_boundary(
                "all_reduce", [a, b], [a + b, a], group=("tp", [0, 1])
            )
        assert any(
            "input buffer" in d.message
            for d in san.report.by_rule("UCP025")
        )

    def test_read_only_fan_out_is_allowed(self):
        with sanitize(strict=True):
            arr = np.ones(4)
            arr.setflags(write=False)
            # frozen single-buffer fan-out is safe by construction
            collectives.sanitize_boundary(
                "broadcast", [arr], [arr, arr, arr], group=("pp", [0, 1, 2])
            )

    def test_in_place_same_rank_result_is_allowed(self):
        with sanitize(strict=True):
            a, b = np.ones(4), np.ones(4)
            # each rank's output aliasing its own input is NCCL in-place
            collectives.sanitize_boundary(
                "all_reduce", [a, b], [a, b], group=("tp", [0, 1])
            )

    def test_strict_mode_fires_through_a_process_group_op(self, monkeypatch):
        """The group's name and real ranks reach the strict sanitizer."""
        monkeypatch.setattr(collectives, "broadcast", bad_broadcast)
        with pytest.raises(SanitizerError) as err:
            with sanitize(strict=True):
                ProcessGroup("dp:4,5", [4, 5]).broadcast(np.ones(4))
        (diag,) = err.value.report.by_rule("UCP025")
        assert "'dp:4,5'" in diag.message and "ranks 4 and 5" in diag.message

    def test_strict_mode_raises_typed_error(self):
        with pytest.raises(SanitizerError) as err:
            with sanitize(strict=True):
                bad_broadcast(np.ones(4), 2)
        assert isinstance(err.value, LayoutLintError)
        assert err.value.report.by_rule("UCP025")

    def test_no_active_sanitizer_is_a_no_op(self, no_sanitizer):
        assert current() is None
        outs = bad_broadcast(np.ones(4), 2)  # silent without a sanitizer
        assert len(outs) == 2


class TestEngineSweep:
    def test_cross_rank_shared_partition_is_ucp025(self):
        eng = make_engine(seed=3)
        parts = eng.zero.partitions
        coord = next(iter(parts))
        if len(parts[coord]) < 2:
            from repro.dist.topology import ParallelConfig

            eng = make_engine(
                parallel=ParallelConfig(tp=1, pp=1, dp=2, sp=1), seed=3
            )
            parts = eng.zero.partitions
            coord = next(iter(parts))
        with sanitize(strict=False) as san:
            parts[coord][1].fp32 = parts[coord][0].fp32  # shared buffer
            san.check_engine(eng, context="after tamper")
        found = san.report.by_rule("UCP025")
        assert found
        assert any("dp0" in d.message and "dp1" in d.message for d in found)

    def test_check_engine_isolation_standalone(self):
        eng = make_engine(seed=3)
        report = check_engine_isolation(eng)
        assert report.ok


class TestModelParameterSweep:
    """The isolation sweep covers model-*parameter* buffers too, with
    each finding labelled by the mp coordinates whose per-rank shard
    enumeration owns the parameter."""

    def test_param_labels_carry_shard_owner_coords(self):
        eng = make_engine(seed=3)
        labels = [k for k, _ in sanitizer_module.model_param_arrays(eng)]
        assert len(labels) == len(list(eng.model.named_parameters()))
        assert all(label.startswith("model/") for label in labels)
        # at least the embedding is covered by rank layouts, so its
        # label names concrete pp/sp/tp owner coordinates
        assert any("pp0" in label and "tp0" in label for label in labels)

    def test_param_grafted_onto_rank_partition_is_ucp025(self):
        """The injected bug: a load that left a model parameter as a
        writable view of one rank's optimizer master partition."""
        eng = make_engine(seed=3)
        coord = next(iter(eng.zero.partitions))
        part = eng.zero.partitions[coord][0]
        name = param = None
        for name, param in eng.model.named_parameters():
            if param.data.size <= part.fp32.size:
                break
        assert param is not None and param.data.size <= part.fp32.size
        param.data = part.fp32[: param.data.size].reshape(param.data.shape)
        with sanitize(strict=False) as san:
            san.check_engine(eng, context="after graft")
        found = san.report.by_rule("UCP025")
        assert any(
            "model parameter" in d.message
            and "rank state" in d.message
            and name in d.location
            for d in found
        ), san.report.render_text()

    def test_clean_engine_params_stay_quiet_after_training(self):
        eng = make_engine(seed=3)
        eng.train(1)
        assert check_engine_isolation(eng).ok


class TestActivation:
    def test_current_is_none_by_default(self, no_sanitizer):
        assert current() is None

    def test_nesting_innermost_wins(self):
        with sanitize(strict=True) as outer:
            with sanitize(strict=False) as inner:
                bad_broadcast(np.ones(4), 2)
            assert inner.report.by_rule("UCP025")
        assert outer.report.ok  # the outer sanitizer never saw it

    def test_enabled_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not enabled_from_env()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not enabled_from_env()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert enabled_from_env()

    def test_violation_renders_through_standard_report(self):
        san = MemorySanitizer(strict=False)
        shared = np.ones(2)
        san.on_collective("broadcast", "tp", [0, 1], [], [shared, shared])
        text = san.report.render_text()
        assert "UCP025" in text and "cross-rank-writable-aliasing" in text


class TestEngineDPGradientSync:
    """The engine's DP gradient-sync path crosses ``sanitize_boundary``.

    ZeRO's per-dp-rank partition arrays are the per-rank results of the
    modeled gradient all-reduce / parameter all-gather; two dp ranks
    sharing one writable buffer is the missing-copy bug UCP025 exists
    for — and must now be caught *inside* ``train_step``.
    """

    def _dp_engine(self):
        from repro.dist.topology import ParallelConfig

        return make_engine(
            parallel=ParallelConfig(tp=1, pp=1, dp=2, zero_stage=1)
        )

    def test_clean_dp_step_passes_strict(self):
        engine = self._dp_engine()
        with sanitize(strict=True) as san:
            engine.train_step()
        # both collectives were checked for every model-parallel rank
        assert san.checks >= 2

    def test_aliased_optimizer_partitions_are_ucp025(self):
        engine = self._dp_engine()
        coord = next(iter(engine.zero.partitions))
        parts = engine.zero.partitions[coord]
        # dp rank 1 "receives" dp rank 0's buffer: the missing copy
        parts[1].state.exp_avg = parts[0].state.exp_avg
        with sanitize(strict=False) as san:
            engine.train_step()
        found = san.report.by_rule("UCP025")
        assert found
        assert any("all_reduce" in d.message for d in found)

    def test_aliased_fp32_partitions_fail_strict_at_all_gather(self):
        engine = self._dp_engine()
        coord = next(iter(engine.zero.partitions))
        parts = engine.zero.partitions[coord]
        parts[1].fp32 = parts[0].fp32
        with pytest.raises(SanitizerError) as err:
            with sanitize(strict=True):
                engine.train_step()
        diags = err.value.report.by_rule("UCP025")
        assert diags
        assert any("all_gather" in d.message for d in diags)

    def test_no_active_sanitizer_keeps_step_running(self, no_sanitizer):
        engine = self._dp_engine()
        coord = next(iter(engine.zero.partitions))
        parts = engine.zero.partitions[coord]
        parts[1].state.exp_avg = parts[0].state.exp_avg
        engine.train_step()  # hook is a no-op without a sanitizer
