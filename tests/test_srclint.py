"""What the retired AST source lint (SRC002-SRC004) guessed at from
syntax, pinned by tests of what the program actually produces.

* SRC002 (frombuffer-escape): the three ``np.frombuffer`` sites — the
  ``.npt`` decoder, the conversion's extract and the UCP load — hand
  out arrays that share no allocation with the bytes they were read
  from (``TestSRC002FrombufferEscape``).
* SRC003 (unordered-set-iteration): a save and its conversion are
  byte-identical under any hash seed and worker count
  (``TestSRC003UnorderedSetIteration``).
* SRC004 (mutable-default-argument): no function under ``src/repro``
  has a mutable default (``TestRepoIsClean::test_source_tree_has_no_findings``,
  its detector pinned by ``TestSRC004MutableDefaultArgument``).

``TestRepoIsClean`` also holds the layering and single-publisher gates
over the whole tree.
"""

import ast
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.atom import AtomStore
from repro.core.convert import CONVERT_SOURCE_FILE, ucp_convert
from repro.core.loader import load_ucp_into_engine
from repro.dist.topology import ParallelConfig
from repro.storage import serializer
from repro.storage.rangeio import BlockCache

from tests.helpers import make_engine, shares_allocation

REPO_ROOT = Path(__file__).resolve().parent.parent


def _calls(monkeypatch, owner, name):
    """``(args, result)`` of every call to ``owner.name`` from here on."""
    calls = []
    real = getattr(owner, name)

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(owner, name, recording)
    return calls


def _assert_own_memory(arrays, sources):
    for key, array in arrays:
        for source in sources:
            assert not shares_allocation(array, source), (
                f"{key} shares memory with the bytes it was read from"
            )
        assert array.flags.writeable, key


@pytest.fixture(scope="module")
def tp2_dp2(tmp_path_factory):
    """A gpt3-mini tp2.dp2.zero1 save after one step."""
    root = tmp_path_factory.mktemp("aliasing") / "ckpt"
    engine = make_engine(parallel=ParallelConfig(tp=2, dp=2, zero_stage=1))
    engine.train(1)
    engine.save_checkpoint(str(root))
    return root


class TestSRC002FrombufferEscape:
    """Every ``np.frombuffer`` view is consumed where it is made: what
    leaves each site owns its memory, so a recycled or re-read buffer
    can never rewrite state."""

    def test_decoded_arrays_own_their_memory(self, monkeypatch):
        payloads = []

        def recording(fh, entries):
            for raw in real(fh, entries):
                payloads.append(np.frombuffer(raw, dtype=np.uint8))
                yield raw

        real = serializer._payloads
        monkeypatch.setattr(serializer, "_payloads", recording)
        tree = {"a": np.arange(6, dtype=np.float32).reshape(2, 3),
                "b": [np.ones(4, dtype=np.float16), np.zeros(0, np.int64)]}
        out = serializer.read_npt(io.BytesIO(serializer.serialize(tree)))
        decoded = [("a", out["a"]), ("b0", out["b"][0]), ("b1", out["b"][1])]
        assert len(payloads) == 3
        _assert_own_memory(decoded, payloads)

    def test_extracted_atoms_share_no_table_buffer(
        self, tp2_dp2, tmp_path, monkeypatch
    ):
        """No atom array the conversion writes is a view of one of the
        source-file table's recycled read buffers."""
        lends = _calls(monkeypatch, BlockCache, "lend")
        writes = _calls(monkeypatch, AtomStore, "write")
        for workers in (1, 2):
            ucp_convert(str(tp2_dp2), str(tmp_path / f"ucp{workers}"),
                        workers=workers)
        atoms = [
            (f"{atom.name}:{kind}", array)
            for (_, atom), _ in writes
            for kind, array in atom.states.items()
        ]
        assert lends and atoms
        _assert_own_memory(atoms, [view.obj for _, view in lends])

    def test_load_writes_only_the_destinations(
        self, tp2_dp2, tmp_path, monkeypatch
    ):
        """The UCP load scatters atom payload bytes into the engine's
        own partitions: none of them is left a view of a read."""
        ucp = tmp_path / "ucp"
        ucp_convert(str(tp2_dp2), str(ucp))
        engine = make_engine(parallel=ParallelConfig(tp=1, dp=2, zero_stage=1))
        reads = _calls(monkeypatch, AtomStore, "read_ranges")
        load_ucp_into_engine(engine, str(ucp))
        states = [
            (f"pp{pp}.sp{sp}.tp{tp}/dp{d}:{kind}", array)
            for (pp, sp, tp), parts in sorted(engine.zero.partitions.items())
            for d, part in enumerate(parts)
            for kind, array in (("fp32", part.fp32),
                                ("exp_avg", part.state.exp_avg),
                                ("exp_avg_sq", part.state.exp_avg_sq))
        ] + [(name, p.data) for name, p in engine.model.named_parameters()]
        assert reads
        _assert_own_memory(states, [
            np.frombuffer(buf, dtype=np.uint8) for _, bufs in reads for buf in bufs
        ])


_SOURCES = {
    "gpt3-flat": ("gpt3-mini", "tp2.dp2.zero1", "flat"),
    "moe-flat": ("moe-mini", "tp1.pp2.dp2.zero1", "flat"),
    "gpt3-per-param": ("gpt3-mini", "tp2.zero0", "per_param"),
}

_SAVE_AND_CONVERT = """
import json, os, sys
from repro.ckpt.saver import save_distributed_checkpoint
from repro.core.convert import ucp_convert
from repro.dist.topology import ParallelConfig
from repro.models import get_config
from repro.parallel.engine import TrainingEngine
from repro.storage.store import ObjectStore

root, sources, skip = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3]
out = {}
for label, (model, topology, layout) in sorted(sources.items()):
    for workers in (1, 2):
        os.cpu_count = lambda: workers  # the save's commit width
        engine = TrainingEngine(
            get_config(model), ParallelConfig.from_describe(topology),
            global_batch_size=4, seq_len=16, seed=7,
        )
        engine.train(1)
        ckpt, ucp = (f"{root}/{label}.w{workers}.{d}" for d in ("ckpt", "ucp"))
        save_distributed_checkpoint(engine, ckpt, optimizer_layout=layout)
        ucp_convert(ckpt, ucp, workers=workers)
        for kind, path in (("ckpt", ckpt), ("ucp", ucp)):
            store = ObjectStore(path)
            out[f"{label}.w{workers}.{kind}"] = {
                rel: store.digest(rel) for rel in store.list() if rel != skip
            }
print(json.dumps(out, sort_keys=True))
"""


class TestSRC003UnorderedSetIteration:
    def test_outputs_identical_under_hash_seeds_and_workers(self, tmp_path):
        """Three sources (flat, MoE over two stages, per-parameter), each
        saved and converted at 1 and 2 workers in a fresh interpreter
        under two hash seeds: every checkpoint and UCP file has one
        digest.  The conversion's source marker is left out: it records
        the source's absolute path."""
        runs = []
        for seed in ("0", "12345"):
            proc = subprocess.run(
                [sys.executable, "-c", _SAVE_AND_CONVERT,
                 str(tmp_path / f"seed{seed}"), json.dumps(_SOURCES),
                 CONVERT_SOURCE_FILE],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"),
                     "PYTHONHASHSEED": seed},
                timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            runs.append(json.loads(proc.stdout))
        maps = runs[0]
        assert len(maps) == 2 * 2 * len(_SOURCES)
        assert all(maps.values())
        for label in _SOURCES:
            for kind in ("ckpt", "ucp"):
                assert maps[f"{label}.w1.{kind}"] == maps[f"{label}.w2.{kind}"]
        assert runs[0] == runs[1]


_MUTABLE_CALLS = {
    "list", "dict", "set", "bytearray", "defaultdict", "OrderedDict",
    "Counter", "deque",
    "zeros", "ones", "empty", "full", "arange", "array", "zeros_like",
    "ones_like",
}


def _mutable_defaults(source):
    """``(lineno, function)`` for every default argument that is a
    mutable value: a list / dict / set display or comprehension, or a
    call that builds a container or an array."""
    displays = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                ast.SetComp)
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        for default in node.args.defaults + node.args.kw_defaults:
            func = getattr(default, "func", None)
            called = getattr(func, "attr", getattr(func, "id", None))
            if isinstance(default, displays) or called in _MUTABLE_CALLS:
                yield default.lineno, getattr(node, "name", "<lambda>")


class TestSRC004MutableDefaultArgument:
    """The detector behind ``TestRepoIsClean::test_source_tree_has_no_findings``."""

    @pytest.mark.parametrize("snippet", [
        "def f(x, acc=[]):\n    pass\n",
        "def f(x, opts={}):\n    pass\n",
        "def f(x, buf=np.zeros(4)):\n    pass\n",
        "def f(x, *, seen=set()):\n    pass\n",
        "def f(x, seen=Counter()):\n    pass\n",
        "def f(x, idx=np.arange(4)):\n    pass\n",
        "def f(x, b=np.zeros_like(y)):\n    pass\n",
        "def f(x, b=np.ones_like(y)):\n    pass\n",
    ], ids=["list", "dict", "ndarray", "kwonly-set", "counter", "arange",
            "zeros-like", "ones-like"])
    def test_mutable_default_fires(self, snippet):
        assert list(_mutable_defaults(snippet)) == [(1, "f")]

    def test_none_and_immutable_defaults_pass(self):
        assert list(_mutable_defaults(
            "def f(x, acc=None, k=3, name='a', t=(), *, s=frozenset()):\n"
            "    pass\n"
        )) == []


class TestRepoIsClean:
    def test_source_tree_has_no_findings(self):
        """No function under ``src/repro`` takes a mutable default, which
        every call would share (SRC004, reserved)."""
        root = Path(repro.__file__).parent
        found = [
            f"{path.relative_to(root)}:{lineno} {function}"
            for path in sorted(root.rglob("*.py"))
            for lineno, function in _mutable_defaults(path.read_text())
        ]
        assert found == []

    def test_suppressions_name_only_live_rules(self):
        """No source lint is left, so no ``# srclint:`` directive under
        ``src/repro`` names a live rule: none may remain, excusing
        nothing and hiding nothing."""
        root = Path(repro.__file__).parent
        stale = [
            f"{path.relative_to(root)}:{lineno}"
            for path in sorted(root.rglob("*.py"))
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if "# srclint:" in line
        ]
        assert stale == []

    @staticmethod
    def _imported_modules(path):
        """``(lineno, module)`` for every import statement in a file, at
        any depth (function-local imports count); ``from a import b``
        yields both ``a`` and ``a.b``."""
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
