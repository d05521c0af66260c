"""AST source lint: every rule fires on an injection and stays quiet on
the patterns the codebase legitimately uses.

The safe-shape tests encode the lint's precision contract: the exact
idioms ``src/repro`` relies on (slice-storing ``frombuffer`` reads into
fresh buffers, ``sorted()``-wrapped set iteration) must never be
flagged —
``TestRepoIsClean`` pins the whole tree lint-clean, with no baseline
and no suppression naming a rule the lint no longer has.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.srclint import (
    _suppressions,
    lint_source_file,
    lint_source_tree,
)
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_snippet(tmp_path, source: str):
    path = tmp_path / "snippet.py"
    path.write_text(source)
    return lint_source_file(path, "snippet.py")


def rules(findings):
    return [d.rule_id for d in findings]


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
        src = "for k in set(xs):  # srclint: disable=SRC004\n    pass\n"
        assert rules(lint_snippet(tmp_path, src)) == ["SRC003"]


class TestCLI:
    def test_lint_src_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["lint-src", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_src_finding_exits_one_with_location(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("self.r = np.frombuffer(b)\n")
        assert main(["lint-src", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "SRC002" in out and "bad.py:1" in out

    def test_json_format_is_stable(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("self.r = np.frombuffer(b)\n")
        main(["lint-src", str(tmp_path), "--format", "json"])
        first = capsys.readouterr().out
        main(["lint-src", str(tmp_path), "--format", "json"])
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["num_errors"] == 1
        assert doc["diagnostics"][0]["rule_id"] == "SRC002"

    def test_default_root_is_the_installed_package(self, capsys):
        assert main(["lint-src"]) == 0
        assert "repro" in capsys.readouterr().out


class TestRepoIsClean:
    def test_source_tree_has_no_findings(self):
        report = lint_source_tree(Path(repro.__file__).parent)
        assert report.diagnostics == [], report.render_text()

    def test_suppressions_name_only_live_rules(self):
        """Every ``# srclint: disable=`` directive under ``src/repro``
        names only rules the lint still produces: a directive for a
        retired rule excuses nothing and hides nothing."""
        live = {"SRC002", "SRC003", "SRC004"}
        root = Path(repro.__file__).parent
        stale = [
            f"{path.relative_to(root)}:{lineno} {sorted(named - live)}"
            for path in sorted(root.rglob("*.py"))
            for lineno, named in _suppressions(path.read_text()).items()
            if named is not None and named - live
        ]
        assert stale == []

    def test_cli_gate_deterministic_under_hash_seeds(self):
        """The CI gate's exact invocation, run under two hash seeds."""
        outputs = []
        for seed in ("0", "12345"):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "lint-src",
                 "--format", "json"],
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
          ``cli.py`` imports ``repro.analysis`` at any depth: hook sites
          name events on the slot, and what production runs of the
          checkers' vocabulary (diagnostics, pre-flight, continuity)
          lives in the layer that runs it.
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

        offenders = [
            f"{rel}:{lineno} imports {module}"
            for path in sorted(root.rglob("*.py"))
            for rel in [path.relative_to(root).as_posix()]
            if not (rel.startswith("analysis/") or rel == "cli.py")
            for lineno, module in self._imported_modules(path)
            if module.split(".")[:2] == ["repro", "analysis"]
        ]
        assert offenders == []

        for module in ("repro.core", "repro.analysis", "repro.core.plan",
                       "repro.storage.rangeio", "repro.obs"):
            proc = subprocess.run(
                [sys.executable, "-c", f"import {module}"],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            )
            assert proc.returncode == 0, (module, proc.stderr)

    @pytest.mark.parametrize("package", [
        "repro", "repro.core", "repro.ckpt", "repro.dist", "repro.storage",
        "repro.parallel",
    ])
    def test_fresh_import_loads_no_checker(self, package):
        """Importing a production package, first thing in a fresh
        interpreter, loads no ``repro.analysis`` module."""
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, {package}; print(sorted(m for m in sys.modules "
             f"if m.split('.')[:2] == ['repro', 'analysis']))"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_only_the_atom_store_knows_the_atom_container(self):
        """Where an atom's files live and what they are called is spelled
        once, in ``core/atom.py``: no other module references its path
        helper or directory constants, or spells an ``atoms/`` path (in
        code, an f-string or a docstring) — so changing the container is
        a one-module change."""
        import ast

        root = Path(repro.__file__).parent
        private = {"_atom_path", "ATOMS_DIR", "ATOM_META_FILE"}
        offenders = []
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            if rel == "core/atom.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                named = (
                    getattr(node, "id", None)
                    or getattr(node, "attr", None)
                    or (node.name if isinstance(node, ast.alias) else None)
                )
                spelled = isinstance(node, ast.Constant) and "atoms/" in str(
                    node.value
                )
                if named in private or spelled:
                    offenders.append(f"{rel}:{getattr(node, 'lineno', '?')}")
        assert offenders == []

    @staticmethod
    def _publish_calls(source):
        """``(lineno, call)`` for every rename, replace or fsync a module
        makes: ``os.replace`` / ``os.rename`` / ``os.fsync`` (qualified,
        or imported by name) and ``Path.rename`` / ``Path.replace`` —
        any ``.rename(...)``, and a ``.replace(...)`` with exactly one
        argument (``str.replace`` takes two, ``dataclasses.replace``
        keywords)."""
        import ast

        os_calls = {"replace", "rename", "fsync"}
        bare = set()
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                bare |= {a.asname or a.name for a in node.names
                         if a.name in os_calls}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in bare:
                yield node.lineno, f"os.{func.id}"
            if not isinstance(func, ast.Attribute):
                continue
            if (isinstance(func.value, ast.Name) and func.value.id == "os"
                    and func.attr in os_calls):
                yield node.lineno, f"os.{func.attr}"
            elif func.attr == "rename" or (
                func.attr == "replace"
                and len(node.args) == 1 and not node.keywords
            ):
                yield node.lineno, f"Path.{func.attr}"

    def test_only_the_store_publishes(self):
        """``CommitGroup`` (``storage/store.py``) is the one place
        ``src/`` renames, replaces or fsyncs a file, so the runtime
        checks that record its effects — the FS-op trace, the crash
        enumerator, the fsync counts — cover every publish there is.
        A second publish site would be one no trace check sees."""
        root = Path(repro.__file__).parent
        found = {}
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            for lineno, call in self._publish_calls(path.read_text()):
                found.setdefault(rel, []).append(f"{call}:{lineno}")
        store = found.pop("storage/store.py")
        # the detector sees the real protocol ...
        assert {c.split(":")[0] for c in store} == {"os.replace", "os.fsync"}
        # ... and nothing else in src/ renames, replaces or fsyncs
        assert found == {}

    @pytest.mark.parametrize("snippet", [
        "import os\nos.replace(a, b)\n",
        "import os\nos.rename(a, b)\n",
        "from os import fsync\nfsync(fd)\n",
        "tmp.rename(path)\n",
        "tmp.replace(path)\n",
    ])
    def test_publish_detector_sees_each_spelling(self, snippet):
        ((_, call),) = self._publish_calls(snippet)
        assert call.split(".")[1] in snippet

    def test_publish_detector_ignores_string_and_dataclass_replace(self):
        assert list(self._publish_calls(
            "s.replace(os.sep, '/')\ndataclasses.replace(x, a=1)\n"
        )) == []
