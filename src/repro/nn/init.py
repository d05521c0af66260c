"""Deterministic parameter initialization.

Every tensor draws from a `numpy.random.Generator` derived from a global
seed and the parameter's dotted name, so initialization is identical
regardless of construction order or topology — a prerequisite for the
paper's multiple-Source experiments (Fig 7), where differently-sharded
runs must start from the same weights.
"""

from __future__ import annotations

import hashlib

import numpy as np


def generator_for(seed: int, name: str) -> np.random.Generator:
    """A Generator uniquely determined by (seed, name)."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def normal_init(seed: int, name: str, shape, std: float = 0.02) -> np.ndarray:
    """N(0, std^2) init keyed by name."""
    gen = generator_for(seed, name)
    out = gen.standard_normal(shape)
    out *= std  # in place: one float64 draw, then the float32 cast
    return out.astype(np.float32)


def zeros_init(shape) -> np.ndarray:
    """All-zeros init (biases)."""
    return np.zeros(shape, dtype=np.float32)


def ones_init(shape) -> np.ndarray:
    """All-ones init (norm gains)."""
    return np.ones(shape, dtype=np.float32)
