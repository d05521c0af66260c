"""Append one repo-benchmark run to the end-to-end trajectory.

    python benchmarks/append_trajectory.py OUT/summary.json [--commit SHA] [--note TEXT]

``results/e2e_trajectory.jsonl`` holds one row per measured side of a
perf PR's runs, oldest first, so a regression is visible across PRs
without re-running anything: the commit, the seed, the box stamp from
the run's ``env.json`` and, per workload, every *bounded* end-to-end
metric of ``benchmarks/e2e`` (the seven ``BENCHMARK.json`` gates) as
``{value, n, q1, q3}``.  ``summary.json`` is what ``benchmarks/e2e/run.py``
writes (``env.json`` beside it).  ``--commit`` names the commit when the
run came from an exported checkout, whose stamp says ``unknown``.
"""

import argparse
import json
import pathlib

TRAJECTORY = pathlib.Path(__file__).parent / "results" / "e2e_trajectory.jsonl"

BOX = ("nproc", "convert_workers", "python", "numpy", "REPRO_DURABLE", "filesystem")


def row(summary_path: str, commit: str = None, note: str = None) -> dict:
    summary_file = pathlib.Path(summary_path)
    summary = json.loads(summary_file.read_text())
    env = json.loads((summary_file.parent / "env.json").read_text())
    stamp = next(iter(env.values()))
    out = {
        "commit": commit or stamp["commit"],
        "seed": summary["seed"],
        "box": {key: stamp[key] for key in BOX},
        "workloads": {
            name: {
                metric: {key: stat[key] for key in ("value", "n", "q1", "q3")}
                for metric, stat in workload["metrics"].items()
                if "bound" in stat
            } | {"failed": workload["failed"], "attempted": workload["attempted"]}
            for name, workload in summary["workloads"].items()
        },
    }
    if note:
        out["note"] = note
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("summary")
    parser.add_argument("--commit")
    parser.add_argument("--note")
    args = parser.parse_args(argv)
    with open(TRAJECTORY, "a") as fh:
        fh.write(json.dumps(row(args.summary, args.commit, args.note),
                            sort_keys=True) + "\n")
    print(f"appended to {TRAJECTORY}")


if __name__ == "__main__":
    main()
