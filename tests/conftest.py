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


@pytest.fixture(scope="session", autouse=True)
def _session_checked():
    """Run the whole suite under the strict sanitizer when asked.

    ``REPRO_SANITIZE=1 pytest`` (the CI ``checked`` job) wraps every
    test in one strict :func:`repro.analysis.sanitizer.sanitize`
    activation: any cross-rank buffer violation (UCP025) raises at the
    point of the offense.  Injection tests that *want* violations
    subscribe their own non-strict sanitizer — per role the innermost
    wins — so they keep working under the checked run.
    """
    from repro.analysis.sanitizer import enabled_from_env, sanitize

    if not enabled_from_env():
        yield
        return
    with sanitize(strict=True, subject="tier-1 session"):
        yield
