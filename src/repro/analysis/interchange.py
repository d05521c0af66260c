"""The pre-flight at its old path; :mod:`repro.core.plan` owns it."""

# benchmarks/e2e/trace.py:90 wraps the converter's pre-flight through here
from repro.core.plan import preflight_convert  # noqa: F401
