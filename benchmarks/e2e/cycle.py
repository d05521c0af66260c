"""The checkpoint restart cycle, its four workloads and its end-to-end metrics.

One cycle is what a training job pays around a reconfiguration:

1. ``save``              — ``engine.save_checkpoint(dir)`` (the Fig 11 stall);
2. ``standard_restart``  — fresh engine under the *source* topology +
   ``load_checkpoint`` (the Fig 12 baseline);
3. ``convert``           — ``ucp_convert(dir, ucp_dir)``;
4. ``ucp_load``          — fresh engine under the *target* topology +
   ``load_ucp_into_engine``.

The four operations are interleaved inside every cycle, so a slow phase
of a shared box hits numerator and denominator of ``restart_ratio``
together.  Every public API is called with its defaults: conversion fans
out to ``min(8, nproc)`` threads and commits are durable (fsync) unless
``REPRO_DURABLE=0`` is set by whoever runs the benchmark.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from typing import Dict, List, Optional, Tuple

from repro.analysis.continuity import PAPER_LOSS_BAND
from repro.ckpt.loader import resolve_tag
from repro.core.convert import ucp_convert
from repro.core.loader import load_ucp_into_engine
from repro.dist.topology import ParallelConfig
from repro.models import get_config
from repro.parallel.engine import TrainingEngine
from repro.storage.faults import RankKillAtWrite, RankKilled
from repro.storage.store import ObjectStore

import trace as trace_mod
from trace import OPS

MIN_CYCLES = 3
"""Floor of a ``--seconds`` run: one cycle of ``fig12-large`` is ~9 s."""


@dataclasses.dataclass(frozen=True)
class Workload:
    """One set of inputs for the cycle; sizes never depend on the seed."""

    name: str
    model: str
    source: str
    target: str
    n: int  # cycles of a full (no ``--seconds``) run
    traced_n: int  # traced cycles of a full ``--trace`` run
    setup_repeats: int  # >1 only where a set-up costs under a second
    resume_half: bool
    why: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig12-large", "gpt3-large-bench", "tp2.pp2.dp2.zero1", "tp2.pp2.dp2.zero1",
            11, 5, 1, False,
            "paper Fig 11/12 shape at the 367 MB scale ROADMAP gates: byte-bound "
            "(serialize+write, digest, scatter, engine rebuild), planning < 10 %",
        ),
        Workload(
            "reshard-medium", "gpt3-medium-bench", "tp4.pp1.dp2.zero1", "tp2.pp1.dp2.zero1",
            21, 5, 1, False,
            "real topology change at 107 MB: 49 k planned ranges coalesced to 8 preads, "
            "planning 15-20 % of convert, every target rank slice-loads part of every atom",
        ),
        Workload(
            "reshard-small-moe", "moe-mini", "tp1.pp2.dp4.zero1", "tp2.pp2.dp2.zero1",
            101, 15, 3, False,
            "paper Fig 10 pair, 5.7 MB in hundreds of small files: fixed-cost-bound "
            "(per-file commit, header parsing, planning); byte-path work must not show here",
        ),
        Workload(
            "resume-half-medium", "gpt3-medium-bench", "tp4.pp1.dp2.zero1",
            "tp2.pp1.dp2.zero1", 21, 5, 1, True,
            "the supervisor's recovery path: convert resumes over 49 of 100 committed "
            "atoms; reuse must stay exact when fresh conversion is batched or reordered",
        ),
    )
}
SMOKE_WORKLOADS = ("reshard-small-moe", "reshard-medium")

# name, unit, better, bound (share of the parent's median it may worsen by).
# Only what the reference box can reproduce carries a bound: exact
# counters, memory, and timings *paired inside a cycle* with that cycle's
# standard restart.  Raw seconds move by 20-40 % between back-to-back runs
# there (README, "Measured"), more than any bound the benchmark contract
# allows, so they are measured and printed (UNGATED) but not bounded;
# ``setup_s`` is the one raw timing the contract requires.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("save_ratio", "x", "lower", 0.25),
    ("restart_ratio", "x", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("ucp_bytes_ratio", "x", "lower", 0.01),
    ("convert_read_ratio", "x", "lower", 0.01),
    ("load_read_ratio", "x", "lower", 0.01),
)
UNGATED = ("save_s", "standard_restart_s", "convert_s", "ucp_load_s", "ucp_restart_s")


def make_engine(workload: Workload, topology: str, seed: int) -> TrainingEngine:
    """The seed fixes model init and the data stream, nothing else."""
    return TrainingEngine(
        get_config(workload.model),
        ParallelConfig.from_describe(topology),
        seed=seed,
        data_seed=seed,
        global_batch_size=8,
        seq_len=16,
    )


def _tree_bytes(store: ObjectStore, rel_dir: str = ".") -> int:
    return sum(store.size(rel) for rel in store.list(rel_dir))


def expected_reused(workload: Workload, num_params: int) -> int:
    """Atoms a resumed conversion must reuse (0 unless the workload kills one).

    The kill fires at store write ``2 * num_params`` (0-based); write 0
    is the conversion's source marker and an atom is four writes, so
    ``(2 * num_params - 1) // 4`` atoms are whole when it dies.
    """
    return (2 * num_params - 1) // 4 if workload.resume_half else 0


def _kill_conversion_halfway(ckpt_dir: str, ucp_dir: str, num_params: int) -> None:
    """Untimed: a serial conversion killed at a fixed write, as the supervisor sees it."""
    store = ObjectStore(
        ucp_dir, faults=RankKillAtWrite(ranks=[0], at=2 * num_params)
    )
    try:
        ucp_convert(ckpt_dir, ucp_dir, dst_store=store, workers=1)
    except RankKilled:
        return
    raise AssertionError("the injected kill never fired")


def _timed(tracer, cycle: int, op: str, fn):
    if tracer is None:
        start = time.perf_counter()
        out = fn()
        return time.perf_counter() - start, out
    with tracer.operation(cycle, op) as span:
        out = fn()
    return span.seconds, out


def run_cycle(
    workload: Workload,
    source: TrainingEngine,
    seed: int,
    workdir: str,
    cycle: int,
    tracer: Optional[trace_mod.Tracer] = None,
) -> Dict:
    """One save → standard restart → convert → UCP load on fresh directories.

    Returns the four timings plus everything the correctness check and
    the exact-counter metrics need; observations are made outside the
    timed regions.  The directories are left for the caller to delete.
    """
    ckpt_dir = os.path.join(workdir, "ckpt")
    ucp_dir = os.path.join(workdir, "ucp")
    step = source.iteration
    seconds: Dict[str, float] = {}

    seconds["save"], _ = _timed(
        tracer, cycle, "save", lambda: source.save_checkpoint(ckpt_dir)
    )

    def standard_restart():
        engine = make_engine(workload, workload.source, seed)
        engine.load_checkpoint(ckpt_dir)
        return engine

    seconds["standard_restart"], restarted = _timed(
        tracer, cycle, "standard_restart", standard_restart
    )
    restart_loss = restarted.evaluate_loss(step)
    del restarted

    if workload.resume_half:
        _kill_conversion_halfway(ckpt_dir, ucp_dir, len(source.layout.shard_specs))
    seconds["convert"], report = _timed(
        tracer, cycle, "convert", lambda: ucp_convert(ckpt_dir, ucp_dir)
    )

    def ucp_load():
        engine = make_engine(workload, workload.target, seed)
        store = ObjectStore(ucp_dir)
        load_ucp_into_engine(engine, ucp_dir, store=store)
        return engine, store

    seconds["ucp_load"], (target, load_store) = _timed(
        tracer, cycle, "ucp_load", ucp_load
    )
    ucp_loss = target.evaluate_loss(step)
    del target

    src_store = ObjectStore(ckpt_dir)
    ucp_store = ObjectStore(ucp_dir)
    return {
        "cycle": cycle,
        "traced": tracer is not None,
        "seconds": seconds,
        "source_bytes": _tree_bytes(src_store, resolve_tag(src_store, None)),
        "ucp_bytes": _tree_bytes(ucp_store),
        "ucp_digests": {rel: ucp_store.digest(rel) for rel in ucp_store.list()},
        "load_bytes_read": load_store.bytes_read,
        "restart_loss": restart_loss,
        "ucp_loss": ucp_loss,
        "report": dataclasses.asdict(report),
    }


def check_cycle(workload: Workload, row: Dict, reference: Dict) -> List[str]:
    """Why a cycle's outputs are wrong (empty when they are right)."""
    problems = []
    if row["ucp_digests"] != reference["ucp_digests"]:
        problems.append("UCP directory is not byte-identical to the warm-up cycle's")
    if row["restart_loss"] != reference["source_loss"]:
        problems.append(
            f"standard restart loss {row['restart_loss']!r} != source "
            f"{reference['source_loss']!r}"
        )
    if abs(row["ucp_loss"] - reference["source_loss"]) > PAPER_LOSS_BAND:
        problems.append(
            f"UCP restart loss {row['ucp_loss']!r} outside ±{PAPER_LOSS_BAND} of "
            f"source {reference['source_loss']!r}"
        )
    expected = expected_reused(workload, row["report"]["num_params"])
    if row["report"]["num_reused"] != expected:
        problems.append(
            f"conversion reused {row['report']['num_reused']} atoms, expected {expected}"
        )
    return problems


def _clear(workdir: str) -> None:
    for name in os.listdir(workdir):
        shutil.rmtree(os.path.join(workdir, name))
    gc.collect()


def set_up(workload: Workload, seed: int, workdir: str):
    """Build + ``train(1)`` + one warm-up cycle; returns (engine, reference, timings).

    The warm-up cycle's outputs are the correctness reference of every
    measured cycle.  Repeated ``setup_repeats`` times (median reported)
    where that is affordable.
    """
    timings = []
    for _ in range(workload.setup_repeats):
        source = reference = None  # let the previous repeat's engine go first
        _clear(workdir)
        start = time.perf_counter()
        source = make_engine(workload, workload.source, seed)
        source.train(1)
        reference = run_cycle(workload, source, seed, workdir, cycle=-1)
        timings.append(time.perf_counter() - start)
    reference["source_loss"] = source.evaluate_loss(source.iteration)
    problems = check_cycle(workload, reference, reference)
    if problems:
        raise RuntimeError(f"warm-up cycle failed its own check: {problems}")
    return source, reference, timings


def _quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _tail(values: List[float]) -> Optional[Dict]:
    """The highest percentile with at least ten samples beyond it, if any."""
    for pct in (99, 95, 90, 75):
        if len(values) * (100 - pct) >= 1000:
            ordered = sorted(values)
            return {"p": pct, "value": ordered[(len(values) * pct) // 100]}
    return None


def _stat(values: List[float], unit: str, bound: Optional[float]) -> Dict:
    q1, q3 = _quartiles(values)
    out = {"value": statistics.median(values), "unit": unit, "n": len(values),
           "q1": q1, "q3": q3}
    if bound is not None:
        out["bound"] = bound
    tail = _tail(values)
    if tail:
        out["tail"] = tail
    return out


def end_to_end(rows: List[Dict], setup_s: List[float]) -> Dict[str, Dict]:
    """Every end-to-end metric, bounded or not, from the untraced, correct cycles."""
    secs = [r["seconds"] for r in rows]
    series = {
        "setup_s": setup_s,
        "save_s": [s["save"] for s in secs],
        "standard_restart_s": [s["standard_restart"] for s in secs],
        "convert_s": [s["convert"] for s in secs],
        "ucp_load_s": [s["ucp_load"] for s in secs],
        "ucp_restart_s": [s["convert"] + s["ucp_load"] for s in secs],
        "save_ratio": [s["save"] / s["standard_restart"] for s in secs],
        "restart_ratio": [
            (s["convert"] + s["ucp_load"]) / s["standard_restart"] for s in secs
        ],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024],
        "ucp_bytes_ratio": [r["ucp_bytes"] / r["source_bytes"] for r in rows],
        "convert_read_ratio": [r["report"]["bytes_read"] / r["source_bytes"] for r in rows],
        "load_read_ratio": [r["load_bytes_read"] / r["ucp_bytes"] for r in rows],
    }
    declared = {name: (unit, bound) for name, unit, _, bound in END_TO_END}
    declared.update({name: ("s", None) for name in UNGATED})
    return {name: _stat(values, *declared[name]) for name, values in series.items()}


def per_layer(tracer: trace_mod.Tracer, rows: List[Dict]) -> Dict[str, Dict]:
    """Every per-layer metric: medians over the traced, correct cycles."""
    traced = [r for r in rows if r["traced"]]
    untraced = [r for r in rows if not r["traced"]]
    values = [
        trace_mod.cycle_values(tracer, r["cycle"], r["report"], r["seconds"])
        for r in traced
    ]
    series = {m.name: [v[m.name] for v in values if m.name in v] for m in trace_mod.PER_LAYER}
    for op in OPS:
        series[f"bench.{op}_s"] = [r["seconds"][op] for r in untraced]
        series[f"trace.overhead_ratio.{op}"] = [
            statistics.median(r["seconds"][op] for r in traced)
            / statistics.median(series[f"bench.{op}_s"])
        ]
    return {m.name: _stat(series[m.name], m.unit, None) for m in trace_mod.PER_LAYER}


def run_workload(
    workload: Workload,
    seed: int,
    workdir: str,
    *,
    seconds: Optional[float],
    cycles: Optional[int],
    trace: bool,
) -> Dict:
    """Set up, then measure cycles until ``cycles`` or ``seconds`` is reached.

    A traced run alternates traced and untraced cycles (traced first),
    so the trace overhead is measured under the same box conditions as
    the spans themselves.  A cycle that raises or fails its check marks
    its four operations failed and is left out of every timing.
    """
    source, reference, setup_s = set_up(workload, seed, workdir)
    tracer = trace_mod.Tracer() if trace else None
    rows: List[Dict] = []
    failures: List[Dict] = []
    start = time.perf_counter()
    cycle = 0
    while (
        cycle < cycles if cycles is not None
        else cycle < MIN_CYCLES or time.perf_counter() - start < seconds
    ):
        _clear(workdir)
        traced = trace and cycle % 2 == 0
        try:
            with tracer.installed() if traced else contextlib.nullcontext():
                row = run_cycle(
                    workload, source, seed, workdir,
                    cycle=cycle, tracer=tracer if traced else None,
                )
            problems = check_cycle(workload, row, reference)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            print(f"cycle {cycle} FAILED: {problems}", file=sys.stderr)
            failures.append({"cycle": cycle, "problems": problems})
        else:
            del row["ucp_digests"]
            rows.append(row)
        cycle += 1
    _clear(workdir)

    result = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "cycles": cycle,
        "attempted": cycle * len(OPS),
        "failed": len(failures) * len(OPS),
        "failures": failures,
        "rows": rows,
        "tracer": tracer,
    }
    clean = [r for r in rows if not r["traced"]]
    if trace:
        if any(r["traced"] for r in rows) and clean:
            result["metrics"] = per_layer(tracer, rows)
    elif clean:
        result["metrics"] = end_to_end(clean, setup_s)
    return result
