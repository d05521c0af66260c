"""Lock-discipline lint (SRC005-SRC008): every rule fires on an
injection and stays quiet on the idioms the threaded IO layer uses.

The safe-shape tests encode the lint's precision contract: accesses
under ``with <guard>:``, ``# holds:``-annotated helpers, copying
returns, and consistently ordered nesting must never be flagged.  The
seeded-bug tests mutate the *real* ``rangeio`` source — dropping the
lock around a cache mutation and adding an ABBA method pair — and prove
the lint catches exactly those regressions (the explored half lives in
``test_interleave.py``).
"""

from pathlib import Path

import pytest

from repro.analysis.locks import lint_locks
from repro.analysis.srclint import lint_source_file

import ast

REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

GUARDED_CLS = (
    "import threading\n"
    "\n"
    "class Cache:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self._blocks = {}  # guarded-by: self._lock\n"
    "\n"
)


def lint_snippet(tmp_path, source: str):
    """Run the full source lint (srclint + locks) over one snippet."""
    path = tmp_path / "snippet.py"
    path.write_text(source)
    return lint_source_file(path, "snippet.py")


def rules(findings):
    return [d.rule_id for d in findings]


class TestSRC005GuardedAttrOutsideLock:
    @pytest.mark.parametrize("body", [
        "    def n(self):\n        return len(self._blocks)\n",
        "    def w(self, k, v):\n        self._blocks[k] = v\n",
        "    def d(self, k):\n        del self._blocks[k]\n",
        "    def m(self, k):\n        return k in self._blocks\n",
    ], ids=["read", "write", "del", "membership"])
    def test_unguarded_access_fires(self, tmp_path, body):
        found = lint_snippet(tmp_path, GUARDED_CLS + body)
        assert rules(found) == ["SRC005"]
        assert "guarded-by self._lock" in found[0].message

    @pytest.mark.parametrize("body", [
        # access under the guard
        "    def n(self):\n        with self._lock:\n"
        "            return len(self._blocks)\n",
        # a *_locked helper excused by its holds contract, called under
        # the lock by its public wrapper
        "    def put(self, k, v):\n        with self._lock:\n"
        "            self._put_locked(k, v)\n"
        "    def _put_locked(self, k, v):  # holds: self._lock\n"
        "        self._blocks[k] = v\n",
        # an unguarded attribute of the same class is not checked
        "    def t(self):\n        self.hits = 1\n",
    ], ids=["with", "holds-helper", "unguarded-attr"])
    def test_safe_shapes_pass(self, tmp_path, body):
        assert lint_snippet(tmp_path, GUARDED_CLS + body) == []

    def test_declaration_line_is_exempt(self, tmp_path):
        # the GUARDED_CLS template itself assigns self._blocks in
        # __init__ with no lock held: the declaration is the exemption
        assert lint_snippet(tmp_path, GUARDED_CLS) == []

    def test_holds_contract_enforced_at_call_sites(self, tmp_path):
        """Calling a ``# holds:`` helper without the lock is SRC005 —
        otherwise the annotation would be a hole, not a contract."""
        src = GUARDED_CLS + (
            "    def put(self, k, v):\n"
            "        self._put_locked(k, v)\n"
            "    def _put_locked(self, k, v):  # holds: self._lock\n"
            "        self._blocks[k] = v\n"
        )
        found = lint_snippet(tmp_path, src)
        assert rules(found) == ["SRC005"]
        assert "self._put_locked()" in found[0].message
        assert "# holds:" in found[0].message

    def test_nested_function_resets_held_locks(self, tmp_path):
        """A closure may run after the ``with`` exits, so lexically held
        locks do not carry into its body."""
        src = GUARDED_CLS + (
            "    def cb(self):\n"
            "        with self._lock:\n"
            "            def inner():\n"
            "                return len(self._blocks)\n"
            "            return inner\n"
        )
        assert rules(lint_snippet(tmp_path, src)) == ["SRC005"]

    def test_holds_annotation_on_multiline_signature(self, tmp_path):
        src = GUARDED_CLS + (
            "    def _put_locked(  # holds: self._lock\n"
            "        self, k, v,\n"
            "    ):\n"
            "        self._blocks[k] = v\n"
        )
        assert lint_snippet(tmp_path, src) == []

    def test_suppression_applies(self, tmp_path):
        src = GUARDED_CLS + (
            "    def n(self):\n"
            "        return len(self._blocks)  # srclint: disable=SRC005\n"
        )
        assert lint_snippet(tmp_path, src) == []


ABBA_CLS = (
    "import threading\n"
    "\n"
    "class Pair:\n"
    "    def __init__(self):\n"
    "        self._lock_a = threading.Lock()\n"
    "        self._lock_b = threading.Lock()\n"
    "\n"
    "    def fwd(self):\n"
    "        with self._lock_a:\n"
    "            with self._lock_b:\n"
    "                pass\n"
    "\n"
)


class TestSRC006InconsistentLockOrder:
    def test_abba_cycle_fires(self, tmp_path):
        src = ABBA_CLS + (
            "    def rev(self):\n"
            "        with self._lock_b:\n"
            "            with self._lock_a:\n"
            "                pass\n"
        )
        found = lint_snippet(tmp_path, src)
        assert rules(found) == ["SRC006"]
        msg = found[0].message
        assert "inconsistent lock order" in msg
        # both witness sites are named with their functions
        assert "fwd()" in msg and "rev()" in msg

    def test_consistent_order_passes(self, tmp_path):
        src = ABBA_CLS + (
            "    def again(self):\n"
            "        with self._lock_a:\n"
            "            with self._lock_b:\n"
            "                pass\n"
        )
        assert lint_snippet(tmp_path, src) == []

    def test_non_lock_contexts_create_no_edges(self, tmp_path):
        """``with open(...)`` nested around/under a lock is not an
        ordering edge — only lock-shaped expressions participate."""
        src = ABBA_CLS + (
            "    def io(self, p):\n"
            "        with open(p) as f:\n"
            "            with self._lock_a:\n"
            "                f.fileno()\n"
            "    def io2(self, p):\n"
            "        with self._lock_a:\n"
            "            with open(p) as f:\n"
            "                f.fileno()\n"
        )
        assert lint_snippet(tmp_path, src) == []

    def test_declared_guard_counts_as_lock_even_without_lock_name(
        self, tmp_path
    ):
        """``self._mu`` is lock-shaped because a guarded-by declaration
        names it, not because of its spelling."""
        src = (
            "import threading\n"
            "\n"
            "class M:\n"
            "    def __init__(self):\n"
            "        self._mu = threading.Lock()\n"
            "        self._lock = threading.Lock()\n"
            "        self._t = {}  # guarded-by: self._mu\n"
            "\n"
            "    def fwd(self):\n"
            "        with self._lock:\n"
            "            with self._mu:\n"
            "                len(self._t)\n"
            "\n"
            "    def rev(self):\n"
            "        with self._mu:\n"
            "            with self._lock:\n"
            "                pass\n"
        )
        assert "SRC006" in rules(lint_snippet(tmp_path, src))

    def test_holds_annotation_seeds_the_held_stack(self, tmp_path):
        """A ``# holds: A`` helper that takes B extends the order graph
        with A -> B even though the ``with A`` is in its caller."""
        src = ABBA_CLS + (
            "    def _drain(self):  # holds: self._lock_b\n"
            "        with self._lock_a:\n"
            "            pass\n"
        )
        assert "SRC006" in rules(lint_snippet(tmp_path, src))


class TestSRC007BlockingCallUnderLock:
    @pytest.mark.parametrize("call", [
        "fut.result()",
        "evt.wait()",
        "time.sleep(1)",
        "store.read_ranges('f', [])",
        "store.write_bytes('f', b'x')",
        "group.all_reduce(xs)",
    ], ids=["result", "wait", "sleep", "read", "write", "collective"])
    def test_blocking_call_fires(self, tmp_path, call):
        src = (
            "def f(lock, fut, evt, time, store, group, xs):\n"
            "    with lock:\n"
            f"        {call}\n"
        )
        found = lint_snippet(tmp_path, src)
        assert rules(found) == ["SRC007"]
        assert "while holding lock" in found[0].message

    @pytest.mark.parametrize("src", [
        # the blocking call happens outside the critical section
        "def f(lock, fut):\n    with lock:\n        pass\n    fut.result()\n",
        # non-blocking work under the lock
        "def f(lock, xs):\n    with lock:\n        return ','.join(xs)\n",
        # a non-lock context manager does not count as held
        "def f(p, fut):\n    with open(p):\n        fut.result()\n",
        # a nested function's body runs later, outside the lock
        "def f(lock, fut):\n    with lock:\n"
        "        def cb():\n            return fut.result()\n"
        "        return cb\n",
    ], ids=["outside", "join", "non-lock", "closure"])
    def test_safe_shapes_pass(self, tmp_path, src):
        assert lint_snippet(tmp_path, src) == []

    def test_suppression_with_rationale_applies(self, tmp_path):
        src = (
            "def f(lock, store):\n"
            "    with lock:\n"
            "        # deliberate: the lock serializes the reads\n"
            "        return store.read_ranges(  # srclint: disable=SRC007\n"
            "            'f', []\n"
            "        )\n"
        )
        assert lint_snippet(tmp_path, src) == []


class TestSRC008GuardedContainerEscape:
    @pytest.mark.parametrize("body", [
        "    def all(self):\n        with self._lock:\n"
        "            return self._blocks\n",
        "    def g(self, k):\n        with self._lock:\n"
        "            return self._blocks[k]\n",
        "    def gd(self, k):\n        with self._lock:\n"
        "            return self._blocks.get(k)\n",
        "    def pair(self):\n        with self._lock:\n"
        "            return self._blocks, 1\n",
        "    def it(self):\n        with self._lock:\n"
        "            yield self._blocks.items()\n",
    ], ids=["direct", "subscript", "get", "tuple", "yield-items"])
    def test_escaping_reference_fires(self, tmp_path, body):
        found = lint_snippet(tmp_path, GUARDED_CLS + body)
        assert rules(found) == ["SRC008"]
        assert "outlives the critical section" in found[0].message

    @pytest.mark.parametrize("body", [
        # copying wrappers sever the alias
        "    def all(self):\n        with self._lock:\n"
        "            return dict(self._blocks)\n",
        "    def ks(self):\n        with self._lock:\n"
        "            return list(self._blocks.keys())\n",
        # scalar results carry no reference
        "    def n(self):\n        with self._lock:\n"
        "            return len(self._blocks)\n",
    ], ids=["dict-copy", "list-copy", "len"])
    def test_copying_returns_pass(self, tmp_path, body):
        assert lint_snippet(tmp_path, GUARDED_CLS + body) == []


class TestSRC013CheckThenAct:
    BAD_FLAG = (
        "    def bad(self, k, v):\n"
        "        closed = self._closed\n"
        "        if closed:\n"
        "            with self._lock:\n"
        "                self._blocks[k] = v\n"
    )
    BAD_DIRECT = (
        "    def bad(self, k, v):\n"
        "        if not self._closed:\n"
        "            with self._lock:\n"
        "                self._blocks[k] = v\n"
    )

    @pytest.mark.parametrize(
        "body", [BAD_FLAG, BAD_DIRECT], ids=["via-local", "direct"]
    )
    def test_check_then_act_fires(self, tmp_path, body):
        source = GUARDED_CLS.replace(
            "    def __init__(self):\n",
            "    def __init__(self):\n"
            "        self._closed = False  # guarded-by: self._lock\n",
        ) + body
        found = lint_snippet(tmp_path, source)
        # the stale read itself is SRC005; the decision built on it is
        # the TOCTOU
        assert "SRC013" in rules(found)
        d = next(f for f in found if f.rule_id == "SRC013")
        assert "self._closed" in d.message
        assert "with self._lock" in d.message

    def test_check_and_act_in_one_section_passes(self, tmp_path):
        body = (
            "    def good(self, k, v):\n"
            "        with self._lock:\n"
            "            if k not in self._blocks:\n"
            "                self._blocks[k] = v\n"
        )
        assert lint_snippet(tmp_path, GUARDED_CLS + body) == []

    def test_decision_without_guarded_act_passes(self, tmp_path):
        # acting on *unguarded* state under the lock is not TOCTOU on
        # the guarded state
        body = (
            "    def ok(self, k):\n"
            "        n = len(self._blocks)\n"
            "        if n:\n"
            "            with self._lock:\n"
            "                pass\n"
        )
        found = lint_snippet(tmp_path, GUARDED_CLS + body)
        assert "SRC013" not in rules(found)

    def test_reassignment_clears_taint(self, tmp_path):
        body = (
            "    def ok(self, k, v):\n"
            "        stale = len(self._blocks)\n"
            "        stale = v\n"
            "        if stale:\n"
            "            with self._lock:\n"
            "                self._blocks[k] = v\n"
        )
        found = lint_snippet(tmp_path, GUARDED_CLS + body)
        assert "SRC013" not in rules(found)


class TestSRC014CompoundAcrossSections:
    def test_split_check_and_insert_fires(self, tmp_path):
        body = (
            "    def bad(self, k, make):\n"
            "        with self._lock:\n"
            "            present = k in self._blocks\n"
            "        if not present:\n"
            "            with self._lock:\n"
            "                self._blocks[k] = make()\n"
        )
        found = lint_snippet(tmp_path, GUARDED_CLS + body)
        assert rules(found) == ["SRC014"]
        assert "spans critical sections" in found[0].message

    def test_same_section_passes(self, tmp_path):
        body = (
            "    def good(self, k, make):\n"
            "        with self._lock:\n"
            "            present = k in self._blocks\n"
            "            if not present:\n"
            "                self._blocks[k] = make()\n"
        )
        assert lint_snippet(tmp_path, GUARDED_CLS + body) == []

    def test_flag_used_without_reentering_passes(self, tmp_path):
        # reading the flag outside any critical section and never
        # touching the container again is fine (a plain stale read)
        body = (
            "    def ok(self, k):\n"
            "        with self._lock:\n"
            "            present = k in self._blocks\n"
            "        return present\n"
        )
        assert lint_snippet(tmp_path, GUARDED_CLS + body) == []


class TestSeededRealSourceBugs:
    """Mutate the real ``rangeio`` source the way a careless refactor
    would, and pin that the lint catches exactly that regression."""

    RANGEIO = REPO_SRC / "storage" / "rangeio.py"

    def _lint(self, source: str):
        return lint_locks(
            "repro/storage/rangeio.py", source, ast.parse(source)
        )

    def test_pristine_rangeio_is_clean(self):
        assert self._lint(self.RANGEIO.read_text()) == []

    def test_unguarded_cache_mutation_is_src005(self):
        """Drop the lock around ``clear``'s table mutation: the
        holds-contract on ``_drop_locked`` fires at the call site (and
        the now-unguarded walk over the table with it)."""
        source = self.RANGEIO.read_text()
        locked = (
            "        with self._lock:\n"
            "            for rel in list(self._files):\n"
            "                self._drop_locked(rel)\n"
        )
        assert locked in source
        mutated = source.replace(
            locked,
            "        for rel in list(self._files):\n"
            "            self._drop_locked(rel)\n",
        )
        found = self._lint(mutated)
        assert {d.rule_id for d in found} == {"SRC005"}
        assert any("self._drop_locked()" in d.message for d in found)

    def test_seeded_abba_methods_are_src006(self):
        """Add a reader method pair nesting reader-lock and table-lock
        in opposite orders — the static ABBA shape."""
        source = self.RANGEIO.read_text() + (
            "\n"
            "    def _seed_flush(self):\n"
            "        with self._io_lock:\n"
            "            with self.cache._lock:\n"
            "                pass\n"
            "\n"
            "    def _seed_warm(self):\n"
            "        with self.cache._lock:\n"
            "            with self._io_lock:\n"
            "                pass\n"
        )
        found = self._lint(source)
        assert [d.rule_id for d in found] == ["SRC006"]
        msg = found[0].message
        assert "_seed_flush()" in msg and "_seed_warm()" in msg

    def test_lock_annotated_modules_are_clean(self):
        """Every module that carries guarded-by annotations lints clean
        under the lock rules (the tree-wide gate is in test_srclint)."""
        annotated = [
            path for path in sorted(REPO_SRC.rglob("*.py"))
            if "# guarded-by:" in path.read_text()
        ]
        assert annotated
        for path in annotated:
            rel = f"repro/{path.relative_to(REPO_SRC).as_posix()}"
            source = path.read_text()
            assert lint_locks(rel, source, ast.parse(source)) == [], rel
