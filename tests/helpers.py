"""Test helpers: engine factory and numerical-gradient utilities."""

from __future__ import annotations

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
