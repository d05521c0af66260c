"""AST source lint: every rule fires on an injection and stays quiet on
the patterns the codebase legitimately uses.

The safe-shape tests encode the lint's precision contract: the exact
idioms ``src/repro`` relies on (returning collective results from
``ProcessGroup``, slice-storing ``frombuffer`` reads into fresh buffers,
``sorted()``-wrapped set iteration) must never be flagged — the final
test pins the whole tree lint-clean against the committed empty
baseline.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.srclint import (
    apply_baseline,
    baseline_counts,
    lint_source_file,
    lint_source_tree,
    stale_baseline_entries,
)
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_snippet(tmp_path, source: str):
    path = tmp_path / "snippet.py"
    path.write_text(source)
    return lint_source_file(path, "snippet.py")


def rules(findings):
    return [d.rule_id for d in findings]


class TestSRC001CollectiveResultNoCopy:
    @pytest.mark.parametrize("snippet", [
        "self.results = group.all_reduce(shards)\n",
        "acc.append(all_gather(shards))\n",
        "state['grads'] = broadcast(x, 4)\n",
        "pair = [all_to_all(chunks), extra]\n",
        "cache.setdefault(k, reduce_scatter(shards))\n",
    ], ids=["attr", "append", "keyed", "literal", "setdefault"])
    def test_escaping_result_fires(self, tmp_path, snippet):
        assert rules(lint_snippet(tmp_path, snippet)) == ["SRC001"]

    @pytest.mark.parametrize("snippet", [
        "out = all_reduce(shards)\n",                      # local name
        "def f(s):\n    return all_reduce(s)\n",           # the API itself
        "y = group.all_reduce(p, op='sum')[0]\n",          # indexed local
        "acc.append(all_gather(s)[0].copy())\n",           # defensive copy
        "n = len(all_gather(s))\n",                        # scalar consumer
    ], ids=["name", "return", "indexed", "copied", "len"])
    def test_safe_shapes_pass(self, tmp_path, snippet):
        assert lint_snippet(tmp_path, snippet) == []


class TestSRC002FrombufferEscape:
    @pytest.mark.parametrize("snippet", [
        "def f(b):\n    return np.frombuffer(b, dtype='f4')\n",
        "self.arr = np.frombuffer(buf)\n",
        "def f(b):\n    return np.frombuffer(b).reshape(2, 2)\n",
        "views['k'] = np.frombuffer(buf)\n",
        "out.append(np.frombuffer(buf))\n",
    ], ids=["return", "attr", "reshape-return", "keyed", "append"])
    def test_escaping_view_fires(self, tmp_path, snippet):
        assert rules(lint_snippet(tmp_path, snippet)) == ["SRC002"]

    @pytest.mark.parametrize("snippet", [
        # the repo's three legitimate shapes:
        "arr[a:b] = np.frombuffer(buf, dtype='f4', count=n)\n",  # ops/convert
        "arr = np.frombuffer(raw)\n",                            # serializer
        "def f(b):\n    return np.frombuffer(b).reshape(2).copy()\n",
        "total = np.frombuffer(b).sum()\n",                      # scalarized
    ], ids=["slice-store", "name", "copy-return", "reduced"])
    def test_safe_shapes_pass(self, tmp_path, snippet):
        assert lint_snippet(tmp_path, snippet) == []


class TestSRC003UnorderedSetIteration:
    @pytest.mark.parametrize("snippet", [
        "for k in set(xs):\n    emit(k)\n",
        "ys = [k for k in set(xs)]\n",
        "ys = list({1, 2} | {3})\n",
        "for k in set(a) | set(b):\n    emit(k)\n",
        "s = ','.join({str(x) for x in xs})\n",
    ], ids=["for", "comp", "list-union", "for-union", "join"])
    def test_unordered_iteration_fires(self, tmp_path, snippet):
        assert rules(lint_snippet(tmp_path, snippet)) == ["SRC003"]

    @pytest.mark.parametrize("snippet", [
        "ks = sorted(k for k in set(a) | set(b) if k in a)\n",  # convert.py
        "ks = sorted(set(xs))\n",
        "n = len(set(xs))\n",
        "ok = any(k in a for k in xs)\n",
        "for k in sorted(set(xs)):\n    emit(k)\n",
    ], ids=["sorted-genexp", "sorted", "len", "any", "for-sorted"])
    def test_order_insensitive_consumers_pass(self, tmp_path, snippet):
        assert lint_snippet(tmp_path, snippet) == []


class TestSRC003SetTypedVariables:
    """SRC003 follows set-typed *variables* into later iterations —
    the laundering gap: ``s = set(xs)`` then ``for k in s``."""

    @pytest.mark.parametrize("snippet", [
        "def f(xs):\n    s = set(xs)\n    for k in s:\n        emit(k)\n",
        "def f(xs):\n    s = set(xs)\n    return [k for k in s]\n",
        "def f(a, b):\n    s = set(a) | set(b)\n    for k in s:\n        emit(k)\n",
        "def f(xs):\n    s = {x for x in xs}\n    for k in s:\n        emit(k)\n",
        "def f(a, b):\n    s = set(a)\n    s |= set(b)\n    for k in s:\n        emit(k)\n",
        "s = set(xs)\nfor k in s:\n    emit(k)\n",
    ], ids=["var", "var-comp", "union-var", "setcomp-var", "augassign",
            "module-scope"])
    def test_set_typed_variable_iteration_fires(self, tmp_path, snippet):
        assert rules(lint_snippet(tmp_path, snippet)) == ["SRC003"]

    @pytest.mark.parametrize("snippet", [
        # order-insensitive consumption of a set variable
        "def f(xs):\n    s = set(xs)\n    for k in sorted(s):\n        emit(k)\n",
        "def f(xs):\n    s = set(xs)\n    return len(s)\n",
        "def f(xs, y):\n    s = set(xs)\n    return y in s\n",
        # rebound to an ordered type before the loop
        "def f(xs):\n    s = set(xs)\n    s = sorted(s)\n    for k in s:\n"
        "        emit(k)\n",
        # a bare parameter is not known to be a set
        "def f(s):\n    for k in s:\n        emit(k)\n",
        # loop targets shadow outer set variables within their scope
        "def f(xs, rows):\n    s = set(xs)\n    del s\n"
        "    for s in rows:\n        for k in s:\n            emit(k)\n",
        # a nested function's set doesn't taint the outer name
        "def f(xs):\n    def g():\n        s = set(xs)\n        return len(s)\n"
        "    s = list(xs)\n    for k in s:\n        emit(k)\n",
    ], ids=["sorted-var", "len-var", "membership", "rebound", "param",
            "loop-shadow", "nested-scope"])
    def test_safe_variable_shapes_pass(self, tmp_path, snippet):
        assert lint_snippet(tmp_path, snippet) == []

    def test_suppression_applies_to_variable_iteration(self, tmp_path):
        src = (
            "s = set(xs)\n"
            "for k in s:  # srclint: disable=SRC003\n"
            "    emit(k)\n"
        )
        assert lint_snippet(tmp_path, src) == []


class TestSRC004MutableDefaultArgument:
    @pytest.mark.parametrize("snippet", [
        "def f(x, acc=[]):\n    pass\n",
        "def f(x, opts={}):\n    pass\n",
        "def f(x, buf=np.zeros(4)):\n    pass\n",
        "def f(x, *, seen=set()):\n    pass\n",
    ], ids=["list", "dict", "ndarray", "kwonly-set"])
    def test_mutable_default_fires(self, tmp_path, snippet):
        found = lint_snippet(tmp_path, snippet)
        assert rules(found) == ["SRC004"]
        # promoted to error once the tree was clean (ISSUE 7 satellite)
        assert all(d.severity == "error" for d in found)

    def test_none_and_immutable_defaults_pass(self, tmp_path):
        assert lint_snippet(
            tmp_path, "def f(x, acc=None, k=3, name='a', t=()):\n    pass\n"
        ) == []


class TestSuppression:
    def test_disable_all_rules_on_line(self, tmp_path):
        src = "for k in set(xs):  # srclint: disable\n    pass\n"
        assert lint_snippet(tmp_path, src) == []

    def test_disable_specific_rule(self, tmp_path):
        src = "for k in set(xs):  # srclint: disable=SRC003\n    pass\n"
        assert lint_snippet(tmp_path, src) == []

    def test_other_rule_suppression_does_not_apply(self, tmp_path):
        src = "for k in set(xs):  # srclint: disable=SRC001\n    pass\n"
        assert rules(lint_snippet(tmp_path, src)) == ["SRC003"]


class TestBaseline:
    def test_roundtrip_silences_known_findings(self, tmp_path):
        (tmp_path / "m.py").write_text("self.r = all_reduce(s)\n")
        report = lint_source_tree(tmp_path)
        assert not report.ok
        baseline = baseline_counts(report)
        assert baseline == {f"SRC001:{tmp_path.name}/m.py": 1}
        assert apply_baseline(report, baseline).ok

    def test_new_findings_exceed_baseline(self, tmp_path):
        (tmp_path / "m.py").write_text(
            "self.r = all_reduce(s)\nself.q = all_gather(s)\n"
        )
        report = lint_source_tree(tmp_path)
        residual = apply_baseline(
            report, {f"SRC001:{tmp_path.name}/m.py": 1}
        )
        assert len(residual.diagnostics) == 1

    def test_stale_entries_are_detected(self, tmp_path):
        """Shrink-only: an entry the tree no longer produces (fully or
        in part) must be surfaced, not silently carried."""
        (tmp_path / "m.py").write_text("self.r = all_reduce(s)\n")
        report = lint_source_tree(tmp_path)
        baseline = baseline_counts(report)
        assert stale_baseline_entries(report, baseline) == []
        baseline[f"SRC002:{tmp_path.name}/gone.py"] = 1
        assert stale_baseline_entries(report, baseline) == [
            f"SRC002:{tmp_path.name}/gone.py"
        ]
        # a count above what the tree still produces is stale too
        assert stale_baseline_entries(
            report, {f"SRC001:{tmp_path.name}/m.py": 2}
        ) == [f"SRC001:{tmp_path.name}/m.py"]


class TestCLI:
    def test_lint_src_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["lint-src", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_src_finding_exits_one_with_location(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("self.r = all_reduce(s)\n")
        assert main(["lint-src", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "SRC001" in out and "bad.py:1" in out

    def test_json_format_is_stable(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("self.r = all_reduce(s)\n")
        main(["lint-src", str(tmp_path), "--format", "json"])
        first = capsys.readouterr().out
        main(["lint-src", str(tmp_path), "--format", "json"])
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["num_errors"] == 1
        assert doc["diagnostics"][0]["rule_id"] == "SRC001"

    def test_write_then_apply_baseline(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("self.r = all_reduce(s)\n")
        baseline = tmp_path / "baseline.json"
        assert main([
            "lint-src", str(tmp_path), "--write-baseline", str(baseline)
        ]) == 0
        capsys.readouterr()
        assert main([
            "lint-src", str(tmp_path), "--baseline", str(baseline)
        ]) == 0

    def test_stale_baseline_entry_fails_the_run(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps({f"SRC001:{tmp_path.name}/gone.py": 1})
        )
        assert main([
            "lint-src", str(tmp_path), "--baseline", str(baseline)
        ]) == 1
        err = capsys.readouterr().err
        assert "stale baseline entry" in err and "gone.py" in err

    def test_locks_mode_reports_only_lock_rules(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "self.r = all_reduce(s)\n"                       # SRC001
            "def f(lock, fut):\n"
            "    with lock:\n"
            "        fut.result()\n"                         # SRC007
        )
        assert main(["lint-src", str(tmp_path), "--locks"]) == 1
        out = capsys.readouterr().out
        assert "SRC007" in out and "SRC001" not in out
        capsys.readouterr()
        assert main(["lint-src", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "SRC007" in out and "SRC001" in out

    def test_default_root_is_the_installed_package(self, capsys):
        assert main(["lint-src"]) == 0
        assert "repro" in capsys.readouterr().out


class TestRepoIsClean:
    def test_source_tree_has_no_findings(self):
        report = lint_source_tree(Path(repro.__file__).parent)
        assert report.diagnostics == [], report.render_text()

    def test_committed_baseline_is_empty(self):
        baseline = json.loads(
            (REPO_ROOT / "srclint-baseline.json").read_text()
        )
        assert baseline == {}

    def test_cli_gate_deterministic_under_hash_seeds(self):
        """The CI gate's exact invocation, run under two hash seeds."""
        outputs = []
        for seed in ("0", "12345"):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "lint-src",
                 "--format", "json",
                 "--baseline", str(REPO_ROOT / "srclint-baseline.json")],
                capture_output=True,
                text=True,
                cwd=str(REPO_ROOT),
                env={
                    "PYTHONPATH": str(REPO_ROOT / "src"),
                    "PYTHONHASHSEED": seed,
                    "PATH": "/usr/bin:/bin",
                },
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    # every import of ``repro.analysis`` from below it, by name: the
    # next one added fails this gate and has to be argued for here
    ANALYSIS_IMPORTS_FROM_BELOW = {
        ("core/convert.py", "repro.analysis.diagnostics"),
        ("core/convert.py", "repro.analysis.interchange"),
        ("core/plan.py", "repro.analysis.diagnostics"),
        ("core/inspect.py", "repro.analysis.layout_lint"),
        ("parallel/layout.py", "repro.analysis.diagnostics"),
        ("dist/supervisor.py", "repro.analysis.continuity"),
        ("dist/supervisor.py", "repro.analysis.interchange"),
        ("dist/cluster.py", "repro.analysis.collective_trace"),
    }

    @staticmethod
    def _imported_modules(path):
        """``(lineno, module)`` for every import statement in a file, at
        any depth (function-local imports count); ``from a import b``
        yields both ``a`` and ``a.b``."""
        import ast

        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            for module in modules:
                yield node.lineno, module

    def test_core_does_not_import_its_plan_checker(self):
        """The layering gate for the whole tree.

        * ``repro/obs.py`` — the one hook slot every layer imports —
          imports only the standard library.
        * Nothing under ``src/repro`` outside ``analysis/`` and
          ``cli.py`` imports a switchable witness (``sanitizer``,
          ``lockwitness``, ``fswitness``, ``interleave``): hook sites
          name events on the slot, never a checker.
        * The planner lives in ``repro.core.plan`` and the provenance
          checker imports it, never the reverse.
        * What still reaches up into ``repro.analysis`` from below is
          exactly :attr:`ANALYSIS_IMPORTS_FROM_BELOW`.
        * Each package still imports first in a fresh interpreter.
        """
        root = Path(repro.__file__).parent
        stdlib = set(getattr(  # 3.10+; the literal is what obs.py uses
            sys, "stdlib_module_names", ("contextlib", "threading", "typing")
        )) | {"__future__"}
        foreign = [
            module for _, module in self._imported_modules(root / "obs.py")
            if module.split(".")[0] not in stdlib
        ]
        assert foreign == []

        witnesses = ("sanitizer", "lockwitness", "fswitness", "interleave",
                     "schedpoint", "provenance")
        offenders, reaching_up = [], set()
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            if rel.startswith("analysis/") or rel == "cli.py":
                continue
            for lineno, module in self._imported_modules(path):
                parts = module.split(".")
                if parts[:2] != ["repro", "analysis"]:
                    continue
                if len(parts) == 2:  # could hide any re-exported witness
                    offenders.append(f"{rel}:{lineno} imports the package")
                elif parts[2] in witnesses:
                    offenders.append(f"{rel}:{lineno} imports {module}")
                elif len(parts) == 3 and (
                    root / "analysis" / f"{parts[2]}.py"
                ).is_file():
                    reaching_up.add((rel, module))
        assert offenders == []
        assert reaching_up == self.ANALYSIS_IMPORTS_FROM_BELOW

        for module in ("repro.core", "repro.analysis", "repro.core.plan",
                       "repro.storage.rangeio", "repro.obs"):
            proc = subprocess.run(
                [sys.executable, "-c", f"import {module}"],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            )
            assert proc.returncode == 0, (module, proc.stderr)
