"""Smoke test of the repo benchmark (``python -m pytest benchmarks/e2e -q``, < 60 s)."""

import dataclasses
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import cycle  # noqa: E402
import trace as trace_mod  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMALL = dataclasses.replace(cycle.WORKLOADS["reshard-small-moe"], setup_repeats=1)


def test_benchmark_json_echoes_the_tables():
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in BENCHMARK["end_to_end"]] == list(cycle.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (m.name, m.unit, m.better) for m in trace_mod.PER_LAYER
    ]
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in cycle.WORKLOADS.values()
    ]
    assert tuple(cycle.WORKLOADS) == trace_mod.ALL
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"] + BENCHMARK["workloads"]:
        assert NAME.fullmatch(entry["name"]), entry["name"]


def test_every_per_layer_metric_says_what_it_should_move():
    end_to_end = {name for name, *_ in cycle.END_TO_END} | set(cycle.UNGATED)
    wrapped = {t.path for t in trace_mod.TARGETS} | set(trace_mod.EVENTS)
    wrapped |= {f"bench:{op}" for op in trace_mod.OPS}
    for metric in trace_mod.PER_LAYER:
        assert metric.moves and set(metric.moves) <= end_to_end, metric.name
        assert metric.where and set(metric.where) <= set(cycle.WORKLOADS), metric.name
        assert metric.callables and set(metric.callables) <= wrapped, metric.name


def _run(tmp_path, *flags):
    run_dir = tmp_path / ("traced" if "--trace" in flags else "plain")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--run-dir", str(run_dir),
         "--workdir", str(tmp_path / "work"), *flags],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert not os.listdir(tmp_path / "work"), "scratch checkpoints were left behind"
    return proc.stdout, run_dir


def test_smoke_prints_every_end_to_end_metric(tmp_path):
    out, run_dir = _run(tmp_path)
    ungated = [{"name": name, "unit": "s"} for name in cycle.UNGATED]
    for workload in cycle.SMOKE_WORKLOADS:
        for metric in BENCHMARK["end_to_end"] + ungated:
            assert re.search(
                rf"^{workload} {re.escape(metric['name'])} = \S+ {metric['unit']}\b",
                out, re.M,
            ), (workload, metric["name"])
    with open(run_dir / "summary.json") as fh:
        summary = json.load(fh)
    assert set(summary["workloads"]) == set(cycle.SMOKE_WORKLOADS)
    assert all(w["failed"] == 0 for w in summary["workloads"].values())
    assert subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--compare",
         str(run_dir / "summary.json"), str(run_dir / "summary.json")],
        capture_output=True,
    ).returncode == 0


def test_traced_smoke_prints_every_per_layer_metric_and_spans_nest(tmp_path):
    out, run_dir = _run(tmp_path, "--trace")
    for workload in cycle.SMOKE_WORKLOADS:
        for metric in BENCHMARK["per_layer"]:
            assert re.search(
                rf"^{workload} {re.escape(metric['name'])} = \S+ {metric['unit']}\b",
                out, re.M,
            ), (workload, metric["name"])
        with open(run_dir / workload / "spans.jsonl") as fh:
            spans = [json.loads(line) for line in fh]
        by_id = {s["id"]: s for s in spans}
        children = {}
        for span in spans:
            parent = by_id.get(span["parent"])
            if parent is not None and parent["thread"] == span["thread"]:
                children[parent["id"]] = (
                    children.get(parent["id"], 0.0) + span["end"] - span["start"]
                )
                assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
        for span_id, covered in children.items():
            parent = by_id[span_id]
            assert covered <= parent["end"] - parent["start"] + 1e-9, parent["name"]
        # the named layers explain each traced operation to within a tenth
        with open(run_dir / workload / "summary.json") as fh:
            coverage = json.load(fh)["coverage"]
        assert coverage
        for per_op in coverage.values():
            assert set(per_op) == set(trace_mod.OPS)
            assert all(0.9 <= share <= 1.0 + 1e-9 for share in per_op.values()), per_op


def test_wrappers_exist_only_inside_traced_cycles(tmp_path, monkeypatch):
    originals = {
        t.path: trace_mod._resolve(t.path)[2] for t in trace_mod.TARGETS
    }
    fsync, replace = os.fsync, os.replace

    def bare():
        return os.fsync is fsync and os.replace is replace and all(
            trace_mod._resolve(path)[2] is raw for path, raw in originals.items()
        )

    seen = []
    real_cycle = cycle.run_cycle

    def spy(*args, cycle, tracer=None):
        seen.append((tracer is not None, bare()))
        return real_cycle(*args, cycle=cycle, tracer=tracer)

    monkeypatch.setattr(cycle, "run_cycle", spy)
    result = cycle.run_workload(
        SMALL, 7, str(tmp_path), seconds=None, cycles=2, trace=True
    )
    assert result["failed"] == 0 and "metrics" in result
    # warm-up, one traced cycle, one untraced cycle: bare exactly when untraced
    assert seen == [(False, True), (True, False), (False, True)]
    assert bare(), "a wrapper outlived the traced run"
    assert cycle.ucp_convert is originals["repro.core.convert:ucp_convert"]


def test_wrong_output_is_reported_as_failed_operations(tmp_path, monkeypatch):
    real_cycle = cycle.run_cycle

    def corrupting(*args, cycle, tracer=None):
        row = real_cycle(*args, cycle=cycle, tracer=tracer)
        if cycle == 1:
            row["ucp_digests"] = dict(row["ucp_digests"], extra="0" * 64)
        return row

    monkeypatch.setattr(cycle, "run_cycle", corrupting)
    result = cycle.run_workload(
        SMALL, 7, str(tmp_path), seconds=None, cycles=2, trace=False
    )
    assert (result["attempted"], result["failed"]) == (8, 4)
    assert result["metrics"]["save_s"]["n"] == 1

