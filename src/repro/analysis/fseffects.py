"""Crash-consistency / filesystem-effect AST lint (SRC009-SRC012).

The static half of the crash-consistency checker (the runtime half is
:mod:`repro.analysis.fswitness`).  PR 1's atomic-commit protocol —
temp file, fsync, publishing rename, directory fsync, manifest before
``latest`` — was until now only *documented*; this lint makes each leg
of it checkable from the source text alone, the same shape as the
locks/lockwitness split for concurrency:

========  ============================  =====================================
rule      name                          pattern
========  ============================  =====================================
SRC009    publish-without-durable-temp  a publishing ``os.replace``/
                                        ``os.rename`` whose source temp file
                                        was never fsynced first — atomic
                                        against torn writes, but after a
                                        power loss the rename can be durable
                                        while the data is not
SRC010    missing-dir-fsync-after-      no directory fsync (``os.fsync`` of
          publish                       an ``os.open``-ed dirfd, or an
                                        ``fsync_dir``-named helper) after a
                                        publishing rename — the rename itself
                                        may not survive a crash
SRC011    temp-file-leak-on-exception   a function writes a temp file and
                                        publishes it with no ``except``/
                                        ``finally`` cleanup unlinking the
                                        temp — an exception between write
                                        and rename leaks the ``*.tmp``; the
                                        same when the write and the publish
                                        are two methods of one class
SRC012    commit-order-violation        the ``latest`` marker written in a
                                        function with no manifest publish
                                        lexically before it — readers could
                                        observe a pointer to an uncommitted
                                        tag
========  ============================  =====================================

Scope and limits (deliberate): the analysis is a per-function lexical
dataflow — "dominated by" means *lexically preceded by* within the same
function body, so an fsync inside ``if self.durable:`` satisfies SRC009
(the off-switch is an explicit operator choice, not a protocol bug).
Temp files are recognized by name (``"tmp"`` in the variable name or a
``".tmp"``/``"tmp"`` literal in the binding expression); a temp path
laundered through an unrelated name defeats the check, which is what
the runtime witness is for.  SRC011 only fires where a temp is both
written *and* published — the fault-injection harness writes torn temp
files on purpose and never renames them.  The two may be one function
or two methods of one class (a staged commit: ``stage`` writes the
temp, ``publish`` renames it); then both halves must unlink on their
exception path, directly or by calling a sibling method that does.

Suppression shares :mod:`repro.analysis.srclint`'s mechanism:
``# srclint: disable=SRC009`` on the offending physical line.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, error
from repro.analysis.srclint import _suppressions

FS_RULES = ("SRC009", "SRC010", "SRC011", "SRC012")
"""The rule family this module produces (``repro lint-src --fs``)."""

_RENAME_NAMES = frozenset({"replace", "rename"})
_UNLINK_NAMES = frozenset({"unlink", "remove"})
_DIR_FSYNC_HELPERS = frozenset({
    "fsync_dir", "_fsync_dir", "sync_dir", "_sync_dir",
})
_LATEST_WRITERS = frozenset({
    "write_text", "put_bytes", "save", "write_marker",
})
_MANIFEST_WRITERS = frozenset({"write_manifest"})

_FN_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _norm(expr: ast.expr) -> str:
    """Whitespace-free unparsed form, for textual path identity."""
    return "".join(ast.unparse(expr).split())


def _terminal(func: ast.expr) -> str:
    """Rightmost identifier of a call target."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _is_os_call(node: ast.Call, name: str) -> bool:
    """Whether ``node`` is ``os.<name>(...)`` (or a bare ``<name>`` import)."""
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == name:
        return isinstance(func.value, ast.Name) and func.value.id == "os"
    return isinstance(func, ast.Name) and func.id == name


def _string_literals(node: ast.AST) -> List[str]:
    """Every string constant appearing anywhere inside ``node``."""
    return [
        n.value for n in ast.walk(node)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    ]


def _is_tmpish(norm: str, extra_tmp_names: Set[str]) -> bool:
    """Whether a normalized expression plausibly denotes a temp path."""
    lowered = norm.lower()
    return (
        "tmp" in lowered
        or "temp" in lowered
        or norm in extra_tmp_names
    )


def _mentions(node: ast.AST, needles: Tuple[str, ...]) -> bool:
    """Whether any identifier/attribute/string in ``node`` matches."""
    for sub in ast.walk(node):
        text: Optional[str] = None
        if isinstance(sub, ast.Attribute):
            text = sub.attr
        elif isinstance(sub, ast.Name):
            text = sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            text = sub.value
        if text is None:
            continue
        lowered = text.lower()
        if any(n in lowered for n in needles):
            return True
    return False


class _FnState:
    """Lexical dataflow state for one function body."""

    def __init__(self) -> None:
        # variable names bound to temp-path expressions
        self.tmp_names: Set[str] = set()
        # normalized exprs whose bytes were made durable (fsync of the
        # open file handle, or an fsync helper applied to the path)
        self.durable: Set[str] = set()
        # file-handle name -> normalized path expr it was opened on
        self.handles: Dict[str, str] = {}
        # names assigned from os.open(...) — candidate dirfds
        self.dirfds: Set[str] = set()
        # publishing renames awaiting a directory fsync: (lineno, dst)
        self.pending_dir_sync: List[Tuple[int, str]] = []
        # (lineno, norm tmp expr) of temp-file writes, for SRC011
        self.tmp_writes: List[Tuple[int, str]] = []
        # (lineno, norm source expr) of publishing renames
        self.publishes: List[Tuple[int, str]] = []
        self.manifest_written = False
        # temp exprs a surrounding try's handler/finally unlinks
        self.cleanup_exprs: Set[str] = set()
        # ... or the handler calls a sibling method that unlinks
        self.cleans_via_sibling = False


class _FSChecker:
    def __init__(self, rel: str, source: str, tree: ast.AST) -> None:
        self.rel = rel
        self.tree = tree
        self.suppress = _suppressions(source)
        self.findings: List[Diagnostic] = []

    def _emit(self, rule: str, lineno: int, message: str) -> None:
        rules = self.suppress.get(lineno, "absent")
        if rules is None or (rules != "absent" and rule in rules):
            return
        self.findings.append(
            error(rule, message, location=f"{self.rel}:{lineno}")
        )

    # --- per-function walk -------------------------------------------

    def _check_function(
        self, fn, unlinkers: frozenset = frozenset()
    ) -> _FnState:
        """SRC009/SRC010/SRC012 over one function; returns its state for
        the SRC011 pass.  ``unlinkers`` names the sibling methods (of
        the enclosing class) that unlink something."""
        state = _FnState()
        # pre-pass: collect every unlink of a temp-ish expression that
        # lives in an except handler or finally block — cleanup on ANY
        # exception path of the function counts (the usual shape is one
        # try wrapping the whole write->publish sequence)
        for node in ast.walk(fn):
            if isinstance(node, ast.Try):
                protected: List[ast.stmt] = list(node.finalbody)
                for handler in node.handlers:
                    protected.extend(handler.body)
                for stmt in protected:
                    for call in ast.walk(stmt):
                        if not isinstance(call, ast.Call):
                            continue
                        if (
                            isinstance(call.func, ast.Attribute)
                            and _norm(call.func.value) == "self"
                            and call.func.attr in unlinkers
                        ):
                            state.cleans_via_sibling = True
                        if _terminal(call.func) in _UNLINK_NAMES:
                            target = (
                                _norm(call.args[0]) if call.args
                                else _norm(call.func.value)
                                if isinstance(call.func, ast.Attribute)
                                else ""
                            )
                            state.cleanup_exprs.add(target)
        self._walk(fn.body, state)
        # SRC010: publishes never followed by a directory fsync
        for lineno, dst in state.pending_dir_sync:
            self._emit(
                "SRC010", lineno,
                f"publishing rename to {dst} is never followed by a "
                f"directory fsync: the rename lives only in the page "
                f"cache, so a power loss can roll the publish back "
                f"(or reorder it against later writes)",
            )
        return state

    def _check_leaks(self, states: List[_FnState]) -> None:
        """SRC011 over one function, or over the methods of one class.

        A temp written anywhere in the group and published anywhere in
        it must be unlinked on the exception path of the function that
        writes it — and, when a *different* method publishes it, of
        that method too (a failed fsync or rename there would leak
        every staged temp).
        """
        if not any(state.publishes for state in states):
            return
        for state in states:
            if state.cleans_via_sibling:
                continue
            at_risk = list(state.tmp_writes)
            if not at_risk and any(
                other.tmp_writes for other in states if other is not state
            ):
                at_risk = [
                    pub for pub in state.publishes
                    if _is_tmpish(pub[1], state.tmp_names)
                ]
            for lineno, tmp in at_risk:
                if any(
                    cleanup == tmp or _is_tmpish(cleanup, state.tmp_names)
                    for cleanup in state.cleanup_exprs
                ):
                    continue
                self._emit(
                    "SRC011", lineno,
                    f"temp file {tmp} is written and later published, "
                    f"but no except/finally path unlinks it: an "
                    f"exception between write and rename leaks the "
                    f"*.tmp on disk",
                )

    def _walk(self, body: List[ast.stmt], state: _FnState) -> None:
        for stmt in body:
            self._visit(stmt, state)

    def _visit(self, node: ast.AST, state: _FnState) -> None:
        if isinstance(node, _FN_NODES + (ast.Lambda, ast.ClassDef)):
            return  # nested scopes get their own pass
        if isinstance(node, ast.Assign):
            self._track_assign(node, state)
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self._track_with_item(item, state)
            self._walk(node.body, state)
            return
        if isinstance(node, ast.Call):
            self._check_call(node, state)
        for child in ast.iter_child_nodes(node):
            self._visit(child, state)

    # --- binding trackers --------------------------------------------

    def _track_assign(self, node: ast.Assign, state: _FnState) -> None:
        if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
            return
        name = node.targets[0].id
        value = node.value
        if isinstance(value, ast.Call) and _is_os_call(value, "open"):
            state.dirfds.add(name)
            return
        literals = " ".join(_string_literals(value)).lower()
        if "tmp" in literals or "temp" in literals or "tmp" in name.lower():
            state.tmp_names.add(name)

    def _track_with_item(self, item: ast.withitem, state: _FnState) -> None:
        """``with open(X, "wb") as fh`` binds ``fh`` to path X."""
        expr = item.context_expr
        if not (isinstance(expr, ast.Call) and _terminal(expr.func) == "open"):
            return
        if not expr.args:
            return
        path_norm = _norm(expr.args[0])
        if item.optional_vars is not None and isinstance(
            item.optional_vars, ast.Name
        ):
            state.handles[item.optional_vars.id] = path_norm
        modes = [
            lit for lit in _string_literals(expr)
            if set(lit) <= set("rwxab+tU")
        ]
        writing = any("w" in m or "a" in m or "x" in m or "+" in m
                      for m in modes)
        if writing and _is_tmpish(path_norm, state.tmp_names):
            state.tmp_writes.append((expr.lineno, path_norm))

    # --- effect calls -------------------------------------------------

    def _check_call(self, node: ast.Call, state: _FnState) -> None:
        name = _terminal(node.func)

        # fsync classification: file handle, raw path, or directory fd
        if _is_os_call(node, "fsync") and node.args:
            arg = node.args[0]
            # os.fsync(fh.fileno()) -> the path fh was opened on
            if (
                isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Attribute)
                and arg.func.attr == "fileno"
                and isinstance(arg.func.value, ast.Name)
            ):
                path = state.handles.get(arg.func.value.id)
                if path is not None:
                    state.durable.add(path)
                return
            # os.fsync(dirfd) where dirfd came from os.open -> dir sync
            if isinstance(arg, ast.Name) and arg.id in state.dirfds:
                state.pending_dir_sync.clear()
                return
            state.durable.add(_norm(arg))
            return
        if name in _DIR_FSYNC_HELPERS:
            state.pending_dir_sync.clear()
            return
        if name in ("fsync_file", "fsync_path", "_fsync_path") and node.args:
            state.durable.add(_norm(node.args[0]))
            return

        # publishing rename
        if (
            name in _RENAME_NAMES
            and _is_os_call(node, name)
            and len(node.args) >= 2
        ):
            src, dst = _norm(node.args[0]), _norm(node.args[1])
            if _is_tmpish(dst, state.tmp_names):
                return  # renaming *into* a temp name is not a publish
            state.publishes.append((node.lineno, src))
            if src not in state.durable:
                self._emit(
                    "SRC009", node.lineno,
                    f"os.{name}({src} -> {dst}) publishes bytes that "
                    f"were never fsynced: the rename can become durable "
                    f"while the data is still in the page cache, so a "
                    f"power loss leaves a committed-looking file with "
                    f"torn or empty content",
                )
            state.pending_dir_sync.append((node.lineno, dst))
            return

        # commit-protocol ordering: manifest before `latest`
        if name in _MANIFEST_WRITERS or (
            name in _LATEST_WRITERS
            and any(_mentions(a, ("manifest",)) for a in node.args)
        ):
            state.manifest_written = True
            return
        if name in _LATEST_WRITERS and any(
            _mentions(a, ("latest",)) for a in node.args
        ):
            if not state.manifest_written:
                self._emit(
                    "SRC012", node.lineno,
                    f"the `latest` marker is written by {name}() with no "
                    f"manifest publish before it in this function: a "
                    f"crash after this write leaves the pointer naming "
                    f"an uncommitted tag, which readers must never "
                    f"trust",
                )

    # --- entry --------------------------------------------------------

    def run(self) -> List[Diagnostic]:
        methods: Set[ast.AST] = set()
        for cls in ast.walk(self.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            fns = [n for n in cls.body if isinstance(n, _FN_NODES)]
            unlinkers = frozenset(
                fn.name for fn in fns
                if any(
                    isinstance(n, ast.Call)
                    and _terminal(n.func) in _UNLINK_NAMES
                    for n in ast.walk(fn)
                )
            )
            self._check_leaks([
                self._check_function(fn, unlinkers - {fn.name}) for fn in fns
            ])
            methods.update(fns)
        for node in ast.walk(self.tree):
            if isinstance(node, _FN_NODES) and node not in methods:
                self._check_leaks([self._check_function(node)])
        return self.findings


def lint_fs_effects(rel: str, source: str, tree: ast.AST) -> List[Diagnostic]:
    """Run the filesystem-effect rules over one parsed file."""
    return _FSChecker(rel, source, tree).run()
