"""Loss-curve continuity: the Table 3 acceptance criterion as a library.

The paper's evaluation (§4.2, Table 3) resumes one checkpoint under
many target strategies and accepts a resume when every post-resume LM
loss stays within 0.02 of the uninterrupted baseline.  This module is
that comparison, so the elastic supervisor
(:mod:`repro.dist.supervisor`, its production consumer), the figure
and loss-grid benchmarks, and the chaos tests all assert the *same*
contract.

A continuity check compares two per-step loss curves — a golden
(uninterrupted) run and a resumed run — pointwise over the steps both
cover, and reports the worst deviation against a tolerance band.  A
non-finite loss on either side fails the check at its step.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Sequence

from repro.core.errors import UCPError

PAPER_LOSS_BAND = 0.02
"""Paper §4.2: resumed-loss deltas stay within 0.02 of the baseline."""


class ContinuityError(UCPError):
    """A resumed loss curve left the tolerance band of its baseline."""


@dataclasses.dataclass(frozen=True)
class ContinuityReport:
    """Outcome of one loss-continuity comparison.

    Attributes:
        num_steps: number of steps compared (intersection of both curves).
        max_delta: worst pointwise ``|golden - resumed|``; the first
            non-finite delta (a NaN or infinite loss) when there is one.
        worst_step: step index (into the compared range) of ``max_delta``.
        tolerance: the band the curves were held to.
        ok: whether every compared point stayed within the band.
    """

    num_steps: int
    max_delta: float
    worst_step: int
    tolerance: float

    @property
    def ok(self) -> bool:
        """Whether the resumed curve stayed within the band throughout."""
        return math.isfinite(self.max_delta) and self.max_delta <= self.tolerance

    def to_dict(self) -> Dict:
        """JSON-friendly form (stable keys, rounded floats; a
        non-finite ``max_delta`` is ``None``, so the form stays JSON)."""
        finite = math.isfinite(self.max_delta)
        return {
            "num_steps": self.num_steps,
            "max_delta": round(self.max_delta, 6) if finite else None,
            "worst_step": self.worst_step,
            "tolerance": self.tolerance,
            "ok": self.ok,
        }


def check_loss_continuity(
    golden: Sequence[float],
    resumed: Sequence[float],
    tolerance: float = PAPER_LOSS_BAND,
    offset: int = 0,
) -> ContinuityReport:
    """Compare a resumed loss curve against its uninterrupted baseline.

    Args:
        golden: per-step losses of the uninterrupted run.
        resumed: per-step losses of the resumed run.
        tolerance: maximum allowed pointwise deviation.
        offset: index into ``golden`` where ``resumed[0]`` aligns (e.g.
            the resume step when ``resumed`` covers only the post-resume
            suffix).

    Returns:
        A :class:`ContinuityReport`; never raises on deviation (use
        :func:`assert_loss_continuity` for the raising form).

    Raises:
        ValueError: nothing to compare (empty overlap) or bad offset.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    if offset < 0 or offset > len(golden):
        raise ValueError(
            f"offset {offset} out of range for a {len(golden)}-step baseline"
        )
    span = min(len(golden) - offset, len(resumed))
    if span <= 0:
        raise ValueError(
            f"no overlapping steps to compare (baseline {len(golden)}, "
            f"resumed {len(resumed)}, offset {offset})"
        )
    max_delta = -1.0
    worst = 0
    for i in range(span):
        delta = abs(float(golden[offset + i]) - float(resumed[i]))
        if not math.isfinite(delta):  # NaN compares False: fail here
            max_delta, worst = delta, i
            break
        if delta > max_delta:
            max_delta = delta
            worst = i
    return ContinuityReport(
        num_steps=span,
        max_delta=max_delta,
        worst_step=worst,
        tolerance=tolerance,
    )


def assert_loss_continuity(
    golden: Sequence[float],
    resumed: Sequence[float],
    tolerance: float = PAPER_LOSS_BAND,
    offset: int = 0,
    context: str = "",
) -> ContinuityReport:
    """The raising form of :func:`check_loss_continuity`.

    Returns:
        The (passing) :class:`ContinuityReport`.

    Raises:
        ContinuityError: the resumed curve left the band; the message
            names the worst step and both loss values.
    """
    report = check_loss_continuity(
        golden, resumed, tolerance=tolerance, offset=offset
    )
    if not report.ok:
        where = f"{context}: " if context else ""
        step = report.worst_step
        raise ContinuityError(
            f"{where}resumed loss diverged from the uninterrupted baseline: "
            f"|{float(golden[offset + step]):.6f} - "
            f"{float(resumed[step]):.6f}| = {report.max_delta:.6f} at "
            f"compared step {step} exceeds the {report.tolerance} band"
        )
    return report
