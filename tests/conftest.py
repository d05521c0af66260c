"""Shared fixtures."""

from __future__ import annotations

import os

import numpy as np
import pytest


@pytest.fixture
def rng():
    """A fixed-seed Generator for test inputs."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture(scope="session", autouse=True)
def _session_durability():
    """Default the suite to non-durable commits (speed off-switch).

    Durable commits (the production default) fsync the temp file and
    parent directory around every publish — ~7ms per object write,
    which dominates the runtime of suites that write thousands of tiny
    checkpoints.  The suite therefore opts out via ``REPRO_DURABLE=0``;
    durability-specific tests pass ``durable=True`` explicitly, and the
    CI ``chaos`` job proves the durable protocol end to end.  An
    explicit ``REPRO_DURABLE`` in the environment (e.g. a CI job
    exercising the suite durably) wins over this default.
    """
    os.environ.setdefault("REPRO_DURABLE", "0")
    yield
