"""The repo benchmark: the checkpoint restart cycle on four workloads.

    python benchmarks/e2e/run.py [--seed 7] [--workload NAME] [--trace] [--smoke]
    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python benchmarks/e2e/run.py --compare A/summary.json B/summary.json

Without ``--seconds`` every workload runs its full cycle count (see
``cycle.WORKLOADS``); with it, cycles repeat until that much time has
been measured.  Several workloads each run in a fresh Python process.
Every metric is printed by name with its unit; with one workload the
last line of standard output is a JSON object of the metrics
(end-to-end with ``--trace 0``, per-layer with ``--trace 1``).  The exit
code is non-zero when an operation failed or an output was wrong.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
MIN_FREE_BYTES = 3 << 30


def _import_program():
    """Import the checkout's own ``repro`` — never an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"run.py: no program to measure: {src}/repro is missing")
    sys.path.insert(0, src)
    import cycle

    return cycle


def _fs_type(path: str) -> str:
    best, fs = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                _, mount, kind = line.split()[:3]
                if path.startswith(mount) and len(mount) > len(best):
                    best, fs = mount, kind
    except OSError:
        pass
    return fs


def _commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported checkout; never report an enclosing repository's HEAD
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment(seed: int, workdir: str) -> dict:
    import numpy

    nproc = os.cpu_count() or 1
    return {
        "commit": _commit(),
        "seed": seed,
        "nproc": nproc,
        "convert_workers": min(8, nproc),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "REPRO_DURABLE": os.environ.get("REPRO_DURABLE", "unset (fsync on)"),
        "filesystem": _fs_type(os.path.abspath(workdir)),
        "free_disk_bytes": shutil.disk_usage(workdir).free,
        "loadavg_start": os.getloadavg(),
    }


def print_metrics(workload: str, result: dict) -> None:
    print(f"== {workload}: {result['cycles']} cycles, "
          f"{result['failed']}/{result['attempted']} operations failed")
    for name, stat in result.get("metrics", {}).items():
        line = (f"{workload} {name} = {stat['value']:.6g} {stat['unit']}"
                f"  (n={stat['n']}, q1={stat['q1']:.6g}, q3={stat['q3']:.6g}")
        if "bound" in stat:
            line += f", bound={stat['bound']:.0%}"
        if "tail" in stat:
            line += f", p{stat['tail']['p']}={stat['tail']['value']:.6g}"
        print(line + ")")


def run_one(cycle, args, run_dir: str) -> dict:
    """Measure one workload in this process; writes its artefacts, returns its summary."""
    workload = cycle.WORKLOADS[args.workload]
    out_dir = os.path.join(run_dir, workload.name)
    os.makedirs(out_dir, exist_ok=True)
    work_root = args.workdir or os.path.join(HERE, "work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root)
    try:
        env = environment(args.seed, workdir)
        if env["free_disk_bytes"] < MIN_FREE_BYTES:
            sys.exit(f"run.py: {env['free_disk_bytes']} bytes free under {work_root}; "
                     f"need {MIN_FREE_BYTES}")
        if args.smoke:
            cycles = 4 if args.trace else 2
            workload = dataclasses.replace(workload, setup_repeats=1)
        elif args.seconds is None:
            cycles = 2 * workload.traced_n if args.trace else workload.n
        else:
            cycles = None
        result = cycle.run_workload(
            workload, args.seed, workdir,
            seconds=args.seconds, cycles=cycles, trace=bool(args.trace),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()

    tracer = result.pop("tracer")
    if tracer is not None:
        tracer.write_spans(os.path.join(out_dir, "spans.jsonl"))
        result["coverage"] = {
            str(r["cycle"]): cycle.trace_mod.coverage(tracer, r["cycle"])
            for r in result["rows"] if r["traced"]
        }
    with open(os.path.join(out_dir, "samples.jsonl"), "w") as fh:
        for row in result.pop("rows"):
            for op, seconds in row["seconds"].items():
                sample = {"cycle": row["cycle"], "op": op, "traced": row["traced"],
                          "seconds": seconds}
                if op == "convert":
                    sample["report"] = row["report"]
                    sample["source_bytes"] = row["source_bytes"]
                    sample["ucp_bytes"] = row["ucp_bytes"]
                if op == "ucp_load":
                    sample["bytes_read"] = row["load_bytes_read"]
                fh.write(json.dumps(sample) + "\n")
    result["env"] = env
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def merge(run_dir: str, args) -> None:
    """``summary.json`` + ``env.json`` of a run from the workload summaries written so far."""
    summary = {"run_id": os.path.basename(run_dir), "seed": args.seed,
               "trace": bool(args.trace), "workloads": {}}
    env = {}
    for name in sorted(os.listdir(run_dir)):
        path = os.path.join(run_dir, name, "summary.json")
        if not os.path.isfile(path):
            continue
        with open(path) as fh:
            result = json.load(fh)
        env[name] = result.pop("env")
        summary["workloads"][name] = result
    with open(os.path.join(run_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    with open(os.path.join(run_dir, "env.json"), "w") as fh:
        json.dump(env, fh, indent=1)


def compare(path_a: str, path_b: str) -> int:
    """Per workload × end-to-end metric: both p50s, delta, bound, verdict."""
    with open(path_a) as fh:
        a = json.load(fh)["workloads"]
    with open(path_b) as fh:
        b = json.load(fh)["workloads"]
    regressed = 0
    print(f"{'workload':<20} {'metric':<20} {'A p50':>12} {'B p50':>12} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for workload in a:
        if workload not in b:
            continue
        for name, sa in a[workload].get("metrics", {}).items():
            sb = b[workload].get("metrics", {}).get(name)
            if sb is None:
                continue
            bound = sa.get("bound")
            worse = (sb["value"] - sa["value"]) / sa["value"]
            spread = max((s["q3"] - s["q1"]) / s["value"] for s in (sa, sb))
            if bound is None:
                verdict = "ungated"
            elif spread > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
                regressed += 1
            else:
                verdict = "ok"
            shown = "-" if bound is None else f"{bound:.0%}"
            print(f"{workload:<20} {name:<20} {sa['value']:>12.6g} {sb['value']:>12.6g} "
                  f"{worse:>+9.1%} {shown:>6}  {verdict}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        help="measure this long (default: the workload's full cycle count)")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
                        help="traced run: report the per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="two cycles of two workloads")
    parser.add_argument("--workdir", help="where checkpoints are written (default: "
                        "benchmarks/e2e/work); removed on exit")
    parser.add_argument("--run-dir", help="artefact directory (default: "
                        "benchmarks/e2e/out/<run-id>)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    cycle = _import_program()
    if args.workload and args.workload not in cycle.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(cycle.WORKLOADS)}")
    names = ([args.workload] if args.workload
             else cycle.SMOKE_WORKLOADS if args.smoke else list(cycle.WORKLOADS))
    run_id = "{}-{}-s{}{}-{}".format(
        time.strftime("%Y%m%dT%H%M%S"), args.workload or "all", args.seed,
        "-trace" if args.trace else "", os.getpid(),
    )
    run_dir = args.run_dir or os.path.join(HERE, "out", run_id)
    # SIGTERM unwinds like Ctrl-C so the work directory is still removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.workload:
        result = run_one(cycle, args, run_dir)
        merge(run_dir, args)
        print_metrics(args.workload, result)
        correct = result["failed"] == 0 and "metrics" in result
        # the result line carries what BENCHMARK.json declares: every
        # per-layer metric, or the end-to-end metrics that have a bound
        print(json.dumps({
            "correct": correct,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": stat["value"], "unit": stat["unit"]}
                for name, stat in result.get("metrics", {}).items()
                if args.trace or "bound" in stat
            },
        }))
        return 0 if correct else 1

    status = 0
    for name in names:
        child = [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--trace", str(args.trace),
                 "--run-dir", run_dir]
        if args.seconds is not None:
            child += ["--seconds", str(args.seconds)]
        if args.smoke:
            child.append("--smoke")
        if args.workdir:
            child += ["--workdir", args.workdir]
        status |= subprocess.run(child).returncode  # each child re-merges the run's summary
    print(f"summary: {os.path.join(run_dir, 'summary.json')}")
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main())
