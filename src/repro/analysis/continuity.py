"""The loss band at its old path; :mod:`repro.dist.continuity` owns the check."""

# benchmarks/e2e/cycle.py:33 imports the band from here
from repro.dist.continuity import PAPER_LOSS_BAND  # noqa: F401
