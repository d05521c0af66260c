"""Command-line interface: inspect, convert, plan, verify.

Mirrors the operational surface DeepSpeed ships for UCP (the
``ds_to_universal``-style converter plus inspection tools)::

    python -m repro models
    python -m repro inspect   <dir>
    python -m repro convert   <ckpt_dir> <ucp_dir> [--tag T] [--workers N]
    python -m repro plan      <ckpt_dir> --world N [--batch B]
    python -m repro verify    <dir>
    python -m repro lint-ckpt <dir> [--tag T] [--format text|json] [--deep]
    python -m repro lint-plan --source <dir> --target tp2.pp1.dp4.sp1.zero1 \
        [--provenance]
    python -m repro lint-trace <fs_trace.json> [--crashed] [--format text|json]
    python -m repro lint-src  [root] [--format text|json]
    python -m repro explore   <scenario | --list> [--schedules N] \
        [--schedule FILE] [--seed S] [--report PATH] \
        [--require-exhaustive] [--format text|json]
    python -m repro supervise --model M --topology tp2.pp2.dp2.sp1.zero1 \
        --workdir D [--kill STEP:PHASE:RANKS ...] [--format text|json]

Every command prints human-readable text and returns a process exit
code (0 success, 1 failure), so it scripts cleanly; the lint verbs
and ``supervise`` also offer ``--format json`` for CI gates.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.ckpt.loader import read_job_config
from repro.core.convert import ucp_convert
from repro.core.patterns import program_for_config
from repro.core.resume import ElasticResumeManager
from repro.dist.topology import ParallelConfig
from repro.models import available_models, get_config
from repro.models.configs import ModelConfig


def cmd_models(args: argparse.Namespace) -> int:
    """List registered model configurations."""
    print(f"{'name':22s} {'family':8s} {'layers':>6s} {'hidden':>7s} "
          f"{'heads':>6s} {'experts':>7s}")
    for name in available_models():
        cfg = get_config(name)
        print(f"{name:22s} {cfg.family:8s} {cfg.num_layers:6d} "
              f"{cfg.hidden:7d} {cfg.num_heads:6d} {cfg.num_experts:7d}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    """Summarize a checkpoint or UCP directory."""
    from repro.core.inspect import inspect_directory

    summary = inspect_directory(args.directory)
    if summary.kind == "unknown":
        print(f"unrecognized directory ({summary.num_files} files)")
        return 1
    kind_label = "UCP" if summary.kind == "ucp" else summary.kind
    print(f"{kind_label} checkpoint")
    if summary.tag is not None:
        print(f"  tag:        {summary.tag}")
    if summary.model is not None:
        print(f"  model:      {summary.model.name} ({summary.model.family})")
    print(f"  iteration:  {summary.iteration}")
    if summary.parallel is not None:
        role = "source" if summary.kind == "ucp" else "topology"
        print(f"  {role}:     {summary.parallel.describe()} "
              f"({summary.parallel.world_size} ranks)")
    print(f"  files:      {summary.num_files} "
          f"({summary.total_bytes / 1e6:.1f} MB)")
    if summary.census is not None:
        label = "atoms" if summary.kind == "ucp" else "parameters"
        print(f"  {label}:      {summary.census.total_params} "
              f"({summary.census.total_elements:,} elements)")
        for pattern in sorted(summary.census.counts):
            print(f"    {pattern:20s} {summary.census.counts[pattern]:4d} params, "
                  f"{summary.census.elements[pattern]:,} elements")
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    """Convert a distributed checkpoint to UCP format."""
    job = read_job_config(args.ckpt_dir, args.tag)
    model = ModelConfig.from_dict(job["model_config"])
    program = program_for_config(model, average_replicas=args.average_replicas)
    report = ucp_convert(
        args.ckpt_dir,
        args.ucp_dir,
        tag=args.tag,
        program=program,
        workers=args.workers,
    )
    reused = f", {report.num_reused} reused" if report.num_reused else ""
    print(f"converted {report.source_tag}: {report.num_files} rank files -> "
          f"{report.num_params} atoms{reused} "
          f"({report.atom_bytes / 1e6:.1f} MB) "
          f"in {report.total_seconds:.2f}s")
    stages = " ".join(
        f"{name} {seconds:.2f}s"
        for name, seconds in report.stage_seconds.items()
    )
    print(f"stages:  {stages}")
    print(f"io:      read {report.bytes_read / 1e6:.1f} MB / "
          f"wrote {report.bytes_written / 1e6:.1f} MB "
          f"({report.num_preads} source reads, largest "
          f"{report.peak_window_bytes / 1e6:.2f} MB; peak resident "
          f"source {report.peak_resident_bytes / 1e6:.2f} MB)")
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    """Plan a resume topology for a new world size."""
    job = read_job_config(args.ckpt_dir, None)
    source = ParallelConfig.from_dict(job["parallel_config"])
    batch = args.batch if args.batch else job["global_batch_size"]
    manager = ElasticResumeManager(args.ckpt_dir, global_batch_size=batch)
    plan = manager.plan_resize(source, args.world)
    print(f"source:  {source.describe()} ({source.world_size} ranks)")
    print(f"target:  {plan.target.describe()} "
          f"({plan.target.world_size} of {args.world} ranks)")
    print(f"reason:  {plan.reason}")
    if plan.target == source:
        print("note:    topologies match; resume loads directly (no conversion)")
    else:
        print("note:    resume will convert to UCP first (lazy, cached)")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Verify every object against checksums and commit manifests."""
    from repro.core.inspect import verify_directory

    report = verify_directory(args.directory, deep=not args.shallow)
    if report.total == 0:
        print(f"no .npt objects under {args.directory}")
        return 1
    suffix = ""
    if report.manifests:
        plural = "s" if report.manifests != 1 else ""
        suffix = f" against {report.manifests} commit manifest{plural}"
    print(f"verified {report.total - len(report.corrupt)}/{report.total} "
          f"objects{suffix}")
    for rel, err in report.corrupt:
        print(f"  CORRUPT {rel}: {err[:100]}")
    for rel, err in report.missing:
        print(f"  MISSING {rel}: {err[:100]}")
    return 0 if report.ok else 1


def cmd_lint_ckpt(args: argparse.Namespace) -> int:
    """Statically lint a checkpoint layout against its configs."""
    from repro.analysis import lint_checkpoint

    report = lint_checkpoint(args.directory, tag=args.tag, deep=args.deep)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def cmd_lint_plan(args: argparse.Namespace) -> int:
    """Statically prove a source -> target conversion well-formed."""
    from repro.analysis import lint_plan
    from repro.core.metadata import UCP_META_FILE, UCPMetadata
    from repro.storage.store import ObjectStore

    store = ObjectStore(args.source)
    atom_names = None
    if store.exists(UCP_META_FILE):
        meta = UCPMetadata.load(store)
        model = ModelConfig.from_dict(meta.model_config)
        source = ParallelConfig.from_dict(meta.source_parallel_config)
        atom_names = meta.param_names()
    else:
        job = read_job_config(args.source, args.tag)
        model = ModelConfig.from_dict(job["model_config"])
        source = ParallelConfig.from_dict(job["parallel_config"])
    target = ParallelConfig.from_describe(args.target)

    report = lint_plan(model, source, target, atom_names=atom_names)
    if getattr(args, "provenance", False):
        if report.ok:
            from repro.analysis import analyze_interchange

            report.extend(analyze_interchange(
                args.source, target, tag=args.tag, store=store
            ).report.diagnostics)
        else:
            print(
                "note: provenance pass skipped (structural lint failed)",
                file=sys.stderr,
            )
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def cmd_lint_trace(args: argparse.Namespace) -> int:
    """Replay a recorded FS-op trace file (UCP032-UCP035)."""
    from repro.analysis import check_fs_trace

    report = check_fs_trace(args.trace, clean_exit=not args.crashed)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def cmd_lint_src(args: argparse.Namespace) -> int:
    """AST-lint the repro source tree itself (SRC002-SRC004); any
    finding fails."""
    import pathlib

    import repro
    from repro.analysis.srclint import lint_source_tree

    root = pathlib.Path(
        args.root if args.root else pathlib.Path(repro.__file__).parent
    )
    report = lint_source_tree(root)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def cmd_explore(args: argparse.Namespace) -> int:
    """Explore thread interleavings of a concurrency scenario (DPOR)."""
    import pathlib

    from repro.analysis import interleave

    if args.list:
        width = max(len(n) for n in interleave.SCENARIOS)
        for name, desc in sorted(interleave.SCENARIOS.items()):
            print(f"{name:{width}s}  {desc}")
        return 0
    if args.scenario is None:
        print(
            "error: a scenario name is required (or --list)", file=sys.stderr
        )
        return 1
    if args.scenario not in interleave.SCENARIOS:
        known = ", ".join(sorted(interleave.SCENARIOS))
        print(
            f"error: unknown scenario {args.scenario!r} (known: {known})",
            file=sys.stderr,
        )
        return 1
    schedule = None
    if args.schedule:
        schedule = interleave.load_schedule(
            pathlib.Path(args.schedule).read_text()
        )
    cap = (
        interleave.DEFAULT_SCHEDULE_CAP
        if args.schedules is None
        else args.schedules
    )
    result = interleave.explore(
        args.scenario,
        schedules=cap,
        schedule=schedule,
        seed=args.seed,
    )
    if args.report is not None:
        with open(args.report, "w") as fh:
            fh.write(result.to_json() + "\n")
    if args.format == "json":
        print(result.to_json())
    else:
        print(result.render_text())
    if not result.ok:
        return 1
    if args.require_exhaustive and not result.exhaustive:
        print(
            f"error: exploration was bounded (ran {result.schedules_run} "
            f"schedules, cap {result.schedule_cap}) but "
            f"--require-exhaustive was set",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_supervise(args: argparse.Namespace) -> int:
    """Run a supervised training job across injected rank failures."""
    from repro.dist.supervisor import supervise
    from repro.storage.faults import KillSchedule

    model_cfg = get_config(args.model)
    parallel_cfg = ParallelConfig.from_describe(args.topology)
    if args.kill and args.kill_seed is not None:
        print(
            "error: --kill and --kill-seed are mutually exclusive",
            file=sys.stderr,
        )
        return 1
    if args.kill:
        schedule = KillSchedule.from_specs(args.kill)
        for event in schedule.events:
            if event.phase.startswith("save") and (
                event.step % args.save_every != 0 or event.step > args.steps
            ):
                print(
                    f"warning: kill {event.describe()} is armed on a "
                    f"non-save step (saves fire every {args.save_every} "
                    f"steps) and will never trigger",
                    file=sys.stderr,
                )
    elif args.kill_seed is not None:
        schedule = KillSchedule.random(
            args.kill_seed,
            world_size=parallel_cfg.world_size,
            horizon=args.steps,
            save_every=args.save_every,
            failures=args.failures,
        )
    else:
        schedule = KillSchedule()

    report = supervise(
        model_cfg,
        parallel_cfg,
        args.workdir,
        golden=not args.no_golden,
        horizon=args.steps,
        save_every=args.save_every,
        schedule=schedule,
        seed=args.seed,
        global_batch_size=args.batch,
        seq_len=args.seq_len,
    )
    if args.report is not None:
        with open(args.report, "w") as fh:
            fh.write(report.to_json() + "\n")
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_text())
    ok = not report.lost_committed_tags and all(
        e.integrity_ok for e in report.events
    )
    if report.continuity is not None:
        ok = ok and report.continuity.ok
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Universal Checkpointing tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list model configurations").set_defaults(
        func=cmd_models
    )

    p = sub.add_parser("inspect", help="summarize a checkpoint directory")
    p.add_argument("directory")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("convert", help="distributed checkpoint -> UCP")
    p.add_argument("ckpt_dir")
    p.add_argument("ucp_dir")
    p.add_argument("--tag", default=None, help="source tag (default: latest)")
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="thread count (default: min(8, cpu count); 0/1 = serial)",
    )
    p.add_argument(
        "--average-replicas",
        action="store_true",
        help="classify norms as params_to_average (independent updates)",
    )
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("plan", help="plan a resume topology")
    p.add_argument("ckpt_dir")
    p.add_argument("--world", type=int, required=True, help="new rank count")
    p.add_argument("--batch", type=int, default=0, help="global batch override")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser(
        "verify", help="verify objects against checksums and commit manifests"
    )
    p.add_argument("directory")
    p.add_argument(
        "--shallow",
        action="store_true",
        help="check presence and sizes only (skip digests and CRCs)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "lint-ckpt",
        help="statically lint a checkpoint's layout (no tensor reads)",
    )
    p.add_argument("directory")
    p.add_argument("--tag", default=None, help="tag to lint (default: latest)")
    p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output rendering (json is stable for CI gates)",
    )
    p.add_argument(
        "--deep",
        action="store_true",
        help="also recompute file digests during the manifest cross-check",
    )
    p.set_defaults(func=cmd_lint_ckpt)

    p = sub.add_parser(
        "lint-plan",
        help="statically prove a source -> target conversion well-formed",
    )
    p.add_argument(
        "--source", required=True,
        help="source checkpoint or UCP directory (provides the configs)",
    )
    p.add_argument(
        "--target", required=True,
        help="target strategy, e.g. tp2.pp1.dp4.sp1.zero1[.ep]",
    )
    p.add_argument("--tag", default=None, help="source tag (default: latest)")
    p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output rendering (json is stable for CI gates)",
    )
    p.add_argument(
        "--provenance",
        action="store_true",
        help="additionally prove byte provenance (coverage/exclusivity/"
             "padding hygiene) from rank-file headers (UCP017-UCP022)",
    )
    p.set_defaults(func=cmd_lint_plan)

    p = sub.add_parser(
        "lint-trace",
        help="replay a recorded FS-op trace: durability ordering "
             "(UCP032), exhaustive crash-state enumeration with recovery "
             "from every state (UCP033), tmp leaks (UCP034)",
    )
    p.add_argument(
        "trace",
        help="a JSON trace file: FSOpRecorder.to_payload output",
    )
    p.add_argument(
        "--crashed",
        action="store_true",
        help="the trace came from a deliberately killed run: leftover "
             "*.tmp files are expected, so UCP034 is skipped",
    )
    p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output rendering (json is stable for CI gates)",
    )
    p.set_defaults(func=cmd_lint_trace)

    p = sub.add_parser(
        "lint-src",
        help="AST-lint the repro sources for aliasing and determinism "
             "hazards (SRC002-SRC004)",
    )
    p.add_argument(
        "root",
        nargs="?",
        default=None,
        help="directory (or file) to lint; default: the installed "
             "repro package",
    )
    p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output rendering (json is stable for CI gates)",
    )
    p.set_defaults(func=cmd_lint_src)

    p = sub.add_parser(
        "explore",
        help="systematically explore thread interleavings of a "
             "concurrency scenario with dynamic partial-order "
             "reduction (UCP036-UCP039)",
    )
    p.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="scenario name (see --list)",
    )
    p.add_argument(
        "--list",
        action="store_true",
        help="list the registered scenarios and exit",
    )
    p.add_argument(
        "--schedules", type=int, default=None, metavar="N",
        help="schedule cap (default 256); exploration that hits the "
             "cap reports UCP039 instead of silently passing",
    )
    p.add_argument(
        "--schedule", default=None, metavar="FILE",
        help="replay one schedule from FILE (a JSON choice list, or a "
             "report whose first counterexample is taken) instead of "
             "exploring",
    )
    p.add_argument("--seed", type=int, default=0, help="scenario data seed")
    p.add_argument(
        "--require-exhaustive",
        action="store_true",
        help="exit 1 if the schedule cap truncated the exploration "
             "(CI: proof, not sampling)",
    )
    p.add_argument(
        "--report", default=None, metavar="PATH",
        help="also write the JSON report to a file (CI artifact)",
    )
    p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output rendering (json is stable for CI gates)",
    )
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser(
        "supervise",
        help="run a supervised training job: inject rank kills, reshard "
             "onto survivors, resume, and report MTTR/goodput",
    )
    p.add_argument("--model", required=True, help="model name (see models)")
    p.add_argument(
        "--topology", required=True,
        help="initial strategy, e.g. tp2.pp2.dp2.sp1.zero1",
    )
    p.add_argument("--workdir", required=True, help="checkpoint/work dir")
    p.add_argument("--steps", type=int, default=16, help="step horizon")
    p.add_argument(
        "--save-every", type=int, default=4, help="checkpoint cadence"
    )
    p.add_argument(
        "--kill",
        action="append",
        default=[],
        metavar="STEP:PHASE:RANKS",
        help="inject a kill (phases: step, save-pre, save-post, convert; "
             "ranks comma-separated); repeatable",
    )
    p.add_argument(
        "--kill-seed", type=int, default=None,
        help="derive a deterministic random kill schedule from this seed",
    )
    p.add_argument(
        "--failures", type=int, default=1,
        help="failure count for --kill-seed schedules",
    )
    p.add_argument("--seed", type=int, default=7, help="training seed")
    p.add_argument("--batch", type=int, default=8, help="global batch size")
    p.add_argument("--seq-len", type=int, default=16, help="sequence length")
    p.add_argument(
        "--no-golden",
        action="store_true",
        help="skip the uninterrupted golden run (no continuity verdict)",
    )
    p.add_argument(
        "--report", default=None, metavar="PATH",
        help="also write the JSON report to a file (CI artifact)",
    )
    p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output rendering (json is stable for CI gates)",
    )
    p.set_defaults(func=cmd_supervise)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
