"""Shared helpers for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper's
evaluation section and records its measured rows as JSON under
``benchmarks/results/``, which EXPERIMENTS.md references.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time
from typing import Callable, Dict, List, Tuple

from repro.analysis.continuity import PAPER_LOSS_BAND, check_loss_continuity
from repro.dist.topology import ParallelConfig
from repro.models import get_config
from repro.parallel.engine import TrainingEngine

__all__ = [
    "PAPER_LOSS_BAND",
    "check_loss_continuity",
    "make_engine",
    "record_result",
    "loss_curve",
    "max_abs_delta",
    "time_alternating",
    "median_and_iqr",
]

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def make_engine(
    model_name: str = "gpt3-mini",
    parallel: ParallelConfig = None,
    seed: int = 7,
    global_batch_size: int = 8,
    seq_len: int = 16,
    **kwargs,
) -> TrainingEngine:
    """Benchmark-scale engine factory."""
    return TrainingEngine(
        get_config(model_name),
        parallel if parallel is not None else ParallelConfig(),
        seed=seed,
        global_batch_size=global_batch_size,
        seq_len=seq_len,
        **kwargs,
    )


def record_result(experiment: str, payload: Dict) -> pathlib.Path:
    """Write one experiment's measured rows to benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{experiment}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def loss_curve(engine: TrainingEngine, steps: int) -> List[float]:
    """Train and return the per-step LM losses."""
    return [round(r.loss, 6) for r in engine.train(steps)]


def max_abs_delta(a: List[float], b: List[float]) -> float:
    """Largest pointwise loss difference between two curves."""
    return max(abs(x - y) for x, y in zip(a, b))


def time_alternating(
    plain: Callable[[], None], checked: Callable[[], None], pairs: int
) -> Tuple[List[float], List[float]]:
    """Wall times of ``plain, checked, plain, checked, ...`` runs.

    Alternating the two sides spreads page-cache warm-up, allocator
    growth and machine drift over both, so an A/B ratio does not pick
    up whichever side happened to run second.
    """
    plain_s: List[float] = []
    checked_s: List[float] = []
    for _ in range(pairs):
        for fn, times in ((plain, plain_s), (checked, checked_s)):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
    return plain_s, checked_s


def median_and_iqr(times: List[float]) -> Tuple[float, float]:
    """Median and q3 - q1 of a list of wall times."""
    q1, median, q3 = statistics.quantiles(times, n=4)
    return median, q3 - q1
