"""Test helpers: engine factory, source mutation, rank-isolation and
numerical-gradient utilities."""

from __future__ import annotations

import inspect
import sys
import textwrap

import numpy as np

from repro.dist.topology import ParallelConfig
from repro.models import get_config
from repro.parallel.engine import TrainingEngine
from repro.storage.rangeio import BlockCache


def make_engine(
    model_name: str = "gpt3-mini",
    parallel: ParallelConfig = None,
    seed: int = 7,
    **kwargs,
) -> TrainingEngine:
    """A small engine with fast defaults."""
    defaults = dict(global_batch_size=4, seq_len=16)
    defaults.update(kwargs)
    return TrainingEngine(
        get_config(model_name),
        parallel if parallel is not None else ParallelConfig(),
        seed=seed,
        **defaults,
    )


def mutate(monkeypatch, owner, name, old, new="pass"):
    """Monkeypatch ``owner.name`` with its own source, its one occurrence
    of ``old`` replaced by ``new``: the mutation runs inside the real
    code, so the test fails if that code stops containing it.
    The copy sees the module's globals as they are when it is made."""
    func = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, (name, old)
    module = sys.modules[func.__module__]
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    monkeypatch.setattr(owner, name, namespace[name])


def shares_allocation(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays live in one allocation: each is followed down
    its ``.base`` chain first, so disjoint views of one buffer count."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    while isinstance(b.base, np.ndarray):
        b = b.base
    return bool(np.shares_memory(a, b))


def assert_rank_isolated(engine: TrainingEngine) -> None:
    """No two simulated ranks share memory in ``engine``'s state (UCP025).

    Every rank lives in one address space, so only construction keeps
    them apart: each dp rank's ``fp32`` / ``exp_avg`` / ``exp_avg_sq``
    partition of each model-parallel rank owns its buffer, and no model
    parameter shares memory with any of them (a parameter left as a
    partition view would rewrite optimizer state on every update).
    """
    states = [
        (f"pp{pp}.sp{sp}.tp{tp}/dp{d}:{kind}", array)
        for (pp, sp, tp), parts in sorted(engine.zero.partitions.items())
        for d, part in enumerate(parts)
        for kind, array in (
            ("fp32", part.fp32),
            ("exp_avg", part.state.exp_avg),
            ("exp_avg_sq", part.state.exp_avg_sq),
        )
    ]
    for i, (key, array) in enumerate(states):
        for other_key, other in states[:i]:
            assert not shares_allocation(array, other), (
                f"{key} shares memory with {other_key}"
            )
    for name, param in engine.model.named_parameters():
        for key, array in states:
            assert not shares_allocation(param.data, array), (
                f"parameter {name!r} shares memory with {key}"
            )


def record_source_tables(monkeypatch) -> list:
    """Every source-file table a conversion builds from here on, as
    ``(table, planned consumers per file)`` pairs in creation order."""
    tables = []
    real_init = BlockCache.__init__

    def recording_init(self, consumers, *args, **kwargs):
        real_init(self, consumers, *args, **kwargs)
        tables.append((self, dict(consumers)))

    monkeypatch.setattr(BlockCache, "__init__", recording_init)
    return tables


def numerical_param_grad(
    forward_loss, param_data: np.ndarray, indices, eps: float = 1e-3
) -> np.ndarray:
    """Central-difference gradient of a scalar loss at selected indices.

    Args:
        forward_loss: zero-arg callable returning the scalar loss
            (reads ``param_data`` by reference).
        param_data: the parameter array to perturb (mutated and
            restored).
        indices: flat indices to probe.
    """
    flat = param_data.reshape(-1)
    grads = np.zeros(len(indices), dtype=np.float64)
    for i, idx in enumerate(indices):
        original = flat[idx]
        flat[idx] = original + eps
        loss_plus = forward_loss()
        flat[idx] = original - eps
        loss_minus = forward_loss()
        flat[idx] = original
        grads[i] = (loss_plus - loss_minus) / (2.0 * eps)
    return grads


def assert_grad_close(analytic, numeric, rtol: float = 5e-2, atol: float = 1e-4):
    """Compare analytic vs central-difference gradients (fp32 noise aware)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.abs(numeric), np.abs(analytic))
    mask = denom > atol
    if mask.any():
        rel = np.abs(analytic[mask] - numeric[mask]) / denom[mask]
        assert rel.max() < rtol, (
            f"gradient mismatch: max rel err {rel.max():.4f} "
            f"(analytic={analytic[mask][rel.argmax()]:.6g}, "
            f"numeric={numeric[mask][rel.argmax()]:.6g})"
        )
