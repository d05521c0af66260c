"""Fig 12 from the repo benchmark: a before/after pair of e2e summaries.

    python benchmarks/e2e/run.py --seed 11 --run-dir OUT/before   # on the parent commit
    python benchmarks/e2e/run.py --seed 11 --run-dir OUT/after    # on the change
    python benchmarks/fig12_from_e2e.py OUT/before/summary.json OUT/after/summary.json

Writes the ``e2e`` section of ``benchmarks/results/fig12_load_cost.json``
(the paper's Fig 12 ratio is the harness's ``restart_ratio``) and prints
the EXPERIMENTS.md table rows.  ``test_fig12_load_cost.py`` owns the
file's other keys and leaves this one alone.
"""

import json
import pathlib
import sys

RESULT = pathlib.Path(__file__).parent / "results" / "fig12_load_cost.json"

METRICS = ("standard_restart_s", "convert_s", "ucp_load_s", "restart_ratio")


def _side(summary_path: str) -> dict:
    with open(summary_path) as fh:
        summary = json.load(fh)
    return {
        name: {
            metric: {
                key: round(stat[key], 4) for key in ("value", "q1", "q3")
            } | {"n": stat["n"]}
            for metric, stat in workload["metrics"].items()
            if metric in METRICS
        } | {"failed": workload["failed"], "seed": workload["seed"]}
        for name, workload in summary["workloads"].items()
    }


def main(before_path: str, after_path: str) -> None:
    before, after = _side(before_path), _side(after_path)
    payload = json.loads(RESULT.read_text())
    payload["e2e"] = {
        "source": "benchmarks/e2e/run.py, full cycle counts, p50 [q1, q3]",
        "before": before,
        "after": after,
    }
    RESULT.write_text(json.dumps(payload, indent=2, sort_keys=True))
    for name in before:
        cells = []
        for side in (before, after):
            ratio = side[name]["restart_ratio"]
            cells.append(
                f"{ratio['value']:.2f} [{ratio['q1']:.2f}-{ratio['q3']:.2f}]"
            )
            cells.append(f"{side[name]['convert_s']['value']:.2f} s")
        restart = after[name]["standard_restart_s"]["value"]
        load = after[name]["ucp_load_s"]["value"]
        print(f"| `{name}` | {restart:.2f} s | {load:.2f} s | "
              f"{cells[1]} | {cells[3]} | {cells[0]} | {cells[2]} |")


if __name__ == "__main__":
    main(*sys.argv[1:3])
