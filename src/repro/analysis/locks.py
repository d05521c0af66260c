"""Guarded-by / lock-discipline AST lint (SRC005-SRC008).

The static half of the concurrency checker (the explored half is
:mod:`repro.analysis.interleave`).  A lightweight annotation convention
makes lock discipline checkable from the source text alone:

* ``self._blocks = {}  # guarded-by: self._lock`` — declares a class
  attribute as shared mutable state protected by a lock expression.
* ``def _put_locked(self, ...):  # holds: self._lock`` — declares that
  every caller of this function already holds the lock (the
  ``*_locked`` helper convention).  Multiple guards comma-separate.

========  ==========================  =======================================
rule      name                        pattern
========  ==========================  =======================================
SRC005    guarded-attr-outside-lock   a ``self.X`` read/write of a declared
                                      guarded attribute outside a
                                      ``with <guard>:`` block, in a function
                                      not marked ``# holds: <guard>``
SRC006    inconsistent-lock-order     lexically nested ``with``-lock
                                      acquisitions form a cycle across the
                                      file's functions (static ABBA)
SRC007    blocking-call-under-lock    a blocking call (disk read, fsync,
                                      ``Future.result``, a collective) while
                                      a lock is lexically held
SRC008    guarded-container-escape    ``return``/``yield`` of a guarded
                                      container (or an alias-returning
                                      method/subscript of one) without a
                                      copying wrapper — the reference
                                      outlives the critical section
SRC013    check-then-act-on-guarded-  an ``if``/``while`` decision reads a
          state                       guarded attribute (directly or through
                                      a local) outside its lock, then acts
                                      under ``with <guard>:`` in the body —
                                      the state can change between check and
                                      act (TOCTOU)
SRC014    compound-op-spans-critical- an ``in``-check on a guarded container
          sections                    taken under the lock, with the
                                      dependent access in a *different*
                                      ``with <guard>:`` block — the
                                      container can change between the two
                                      critical sections
========  ==========================  =======================================

Scope and limits (deliberate): guards are matched by *normalized
expression text* (``with self._lock:`` matches the declaration
``guarded-by: self._lock``), so aliasing a lock through another name
defeats the check; lock identities are scoped per enclosing class, so
cross-object call chains (reader lock -> cache lock through a method
call) are the schedule explorer's job, not this lint's.  Nested functions
reset the held set — a closure may run after the ``with`` exits.

Suppression shares :mod:`repro.analysis.srclint`'s mechanism:
``# srclint: disable=SRC007`` on the offending physical line.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, error
from repro.analysis.srclint import COLLECTIVE_NAMES, _suppressions

_GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*([^#\n]+)")
_HOLDS_RE = re.compile(r"#\s*holds:\s*([^#\n]+)")

BLOCKING_CALL_NAMES = frozenset({
    # concurrency waits
    "result", "wait", "sleep", "barrier", "acquire",
    # object-store / checkpoint IO
    "read_range", "read_ranges", "put_bytes", "write_bytes",
    "save", "save_distributed_checkpoint", "persist",
    # durable-write latency is device-dependent and unbounded
    "fsync", "fsync_dir",
}) | frozenset(COLLECTIVE_NAMES)
"""Terminal call names treated as blocking for SRC007."""

_ALIAS_RETURNING_METHODS = frozenset({
    "get", "setdefault", "values", "keys", "items", "pop", "popitem",
})
"""Container methods whose result aliases the container's contents."""

_FN_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _norm(text: str) -> str:
    """Whitespace-free form of an expression for textual guard matching."""
    return "".join(text.split())


def _terminal_name(expr: ast.expr) -> str:
    """Rightmost identifier of an expression: ``_lock`` for ``self._lock``."""
    node = expr
    while True:
        if isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Attribute):
            return node.attr
        elif isinstance(node, ast.Name):
            return node.id
        else:
            return ""


def find_cycle(graph: Dict[str, List[str]]) -> Optional[List[str]]:
    """One directed cycle in a lock-order graph, or None.

    Traversal order is deterministic (sorted roots, edges in list order).
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}
    for start in sorted(graph):
        if color[start] != WHITE:
            continue
        stack: List[Tuple[str, int]] = [(start, 0)]
        path: List[str] = []
        while stack:
            node, edge_index = stack.pop()
            if edge_index == 0:
                color[node] = GRAY
                path.append(node)
            edges = graph.get(node, [])
            advanced = False
            for i in range(edge_index, len(edges)):
                nxt = edges[i]
                if color.get(nxt, BLACK) == GRAY:
                    return path[path.index(nxt):]
                if color.get(nxt, BLACK) == WHITE:
                    stack.append((node, i + 1))
                    stack.append((nxt, 0))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
    return None


def _is_self_attr(node: ast.expr) -> Optional[str]:
    """The attribute name when ``node`` is exactly ``self.X``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _LockChecker:
    def __init__(self, rel: str, source: str, tree: ast.AST) -> None:
        self.rel = rel
        self.tree = tree
        self.lines = source.splitlines()
        self.suppress = _suppressions(source)
        self.findings: List[Diagnostic] = []
        # every line carrying a guarded-by declaration is exempt from
        # SRC005 (it *is* the declaration)
        self.decl_lines: Set[int] = {
            i for i, line in enumerate(self.lines, start=1)
            if _GUARDED_BY_RE.search(line)
        }
        # all guard expressions declared anywhere in the file: these are
        # treated as locks for the ordering graph even when not named
        # like one (e.g. ``self._mu``)
        self.guard_exprs: Set[str] = set()
        # (lock_id_a, lock_id_b) -> (lineno, function name), first wins
        self.edges: Dict[Tuple[str, str], Tuple[int, str]] = {}
        # holds-annotated methods of the class currently being checked
        self._holds_methods: Dict[str, Set[str]] = {}

    # --- shared plumbing ---------------------------------------------

    def _emit(self, rule: str, lineno: int, message: str) -> None:
        rules = self.suppress.get(lineno, "absent")
        if rules is None or (rules != "absent" and rule in rules):
            return
        self.findings.append(
            error(rule, message, location=f"{self.rel}:{lineno}")
        )

    def _annotation(
        self, regex: re.Pattern, start: int, stop: int
    ) -> Optional[str]:
        """First annotation match in source lines ``[start, stop]``."""
        for lineno in range(start, stop + 1):
            if lineno - 1 >= len(self.lines):
                break
            m = regex.search(self.lines[lineno - 1])
            if m is not None:
                return m.group(1)
        return None

    def _holds(self, fn) -> Set[str]:
        """Guards a function's ``# holds:`` annotation declares held."""
        stop = fn.body[0].lineno - 1 if fn.body else fn.lineno
        text = self._annotation(_HOLDS_RE, fn.lineno, max(stop, fn.lineno))
        if text is None:
            return set()
        return {_norm(g) for g in text.split(",") if g.strip()}

    # --- guard collection --------------------------------------------

    def _class_guards(self, cls: ast.ClassDef) -> Dict[str, str]:
        """``attr -> guard expression`` from guarded-by declarations."""
        guards: Dict[str, str] = {}
        for node in ast.walk(cls):
            if isinstance(node, ast.ClassDef) and node is not cls:
                continue  # nested classes collect their own guards
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            text = self._annotation(
                _GUARDED_BY_RE, node.lineno,
                getattr(node, "end_lineno", node.lineno),
            )
            if text is None:
                continue
            guard = _norm(text)
            self.guard_exprs.add(guard)
            for target in targets:
                attr = _is_self_attr(target)
                if attr is not None:
                    guards[attr] = guard
        return guards

    def _class_holds_methods(self, cls: ast.ClassDef) -> Dict[str, Set[str]]:
        """``method name -> guards`` for the class's ``# holds:`` helpers.

        The ``*_locked`` convention cuts both ways: the annotation
        excuses the helper's body from SRC005, so calling the helper
        *without* the lock must itself be an SRC005 — otherwise the
        annotation would be a hole, not a contract.
        """
        return {
            stmt.name: holds
            for stmt in cls.body
            if isinstance(stmt, _FN_NODES) and (holds := self._holds(stmt))
        }

    # --- SRC005 / SRC008: guarded-attribute discipline ---------------

    def _check_class(self, cls: ast.ClassDef) -> None:
        guards = self._class_guards(cls)
        holds_methods = self._class_holds_methods(cls)
        if not guards and not holds_methods:
            return
        self._holds_methods = holds_methods
        for stmt in cls.body:
            if isinstance(stmt, _FN_NODES):
                self._visit_guarded(stmt, guards, self._holds(stmt))
                self._check_compound(stmt, guards, self._holds(stmt))

    def _visit_guarded(
        self, fn, guards: Dict[str, str], held: Set[str]
    ) -> None:
        for stmt in fn.body:
            self._visit_node(stmt, guards, held)

    def _visit_node(
        self, node: ast.AST, guards: Dict[str, str], held: Set[str]
    ) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = set(held)
            for item in node.items:
                self._visit_node(item.context_expr, guards, held)
                inner.add(_norm(ast.unparse(item.context_expr)))
            for stmt in node.body:
                self._visit_node(stmt, guards, inner)
            return
        if isinstance(node, _FN_NODES):
            # a nested function may run after the with-block exits, so
            # lexically held locks do not carry into its body
            self._visit_guarded(node, guards, self._holds(node))
            return
        if isinstance(node, ast.Lambda):
            self._visit_node(node.body, guards, set())
            return
        if isinstance(node, ast.ClassDef):
            return  # checked via its own _check_class pass
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            attr = self._escaping_attr(node.value, guards)
            if attr is not None:
                verb = "returned" if isinstance(node, ast.Return) else "yielded"
                self._emit(
                    "SRC008", node.lineno,
                    f"guarded container self.{attr} (guarded-by "
                    f"{guards[attr]}) {verb} without a copy: the "
                    f"reference outlives the critical section, so the "
                    f"caller reads it with no lock held",
                )
        if isinstance(node, ast.Call):
            method = _is_self_attr(node.func)
            if method is not None:
                for guard in sorted(
                    self._holds_methods.get(method, set()) - held
                ):
                    self._emit(
                        "SRC005", node.lineno,
                        f"call to self.{method}() requires holding "
                        f"{guard} (its `# holds:` contract) but the "
                        f"call site does not hold it",
                    )
        attr = _is_self_attr(node)
        if attr is not None:
            guard = guards.get(attr)
            if (
                guard is not None
                and guard not in held
                and node.lineno not in self.decl_lines
            ):
                self._emit(
                    "SRC005", node.lineno,
                    f"attribute self.{attr} is declared guarded-by "
                    f"{guard} but accessed without it; wrap the access "
                    f"in `with {guard}:` or mark the enclosing "
                    f"function `# holds: {guard}`",
                )
        for child in ast.iter_child_nodes(node):
            self._visit_node(child, guards, held)

    def _escaping_attr(
        self, expr: Optional[ast.expr], guards: Dict[str, str]
    ) -> Optional[str]:
        """Guarded attribute escaping through a returned/yielded expression."""
        if expr is None:
            return None
        attr = _is_self_attr(expr)
        if attr is not None and attr in guards:
            return attr
        if isinstance(expr, ast.Subscript):
            attr = _is_self_attr(expr.value)
            if attr is not None and attr in guards:
                return attr
        if isinstance(expr, ast.Call) and isinstance(
            expr.func, ast.Attribute
        ):
            attr = _is_self_attr(expr.func.value)
            if (
                attr is not None
                and attr in guards
                and expr.func.attr in _ALIAS_RETURNING_METHODS
            ):
                return attr
        if isinstance(expr, (ast.Tuple, ast.List)):
            for element in expr.elts:
                attr = self._escaping_attr(element, guards)
                if attr is not None:
                    return attr
        if isinstance(expr, (ast.Yield, ast.YieldFrom)):
            return self._escaping_attr(expr.value, guards)
        return None

    # --- SRC013 / SRC014: check-then-act across critical sections ----

    def _check_compound(
        self, fn, guards: Dict[str, str], held: Set[str]
    ) -> None:
        """Order-sensitive pass over one method for SRC013/SRC014.

        Tracks two kinds of tainted locals statement by statement:

        * ``tainted``: assigned from a read of a guarded attribute made
          *without* its lock — using one in an ``if``/``while`` test
          whose body then acts under the lock is check-then-act
          (SRC013; the direct ``if self.X:`` form is caught too);
        * ``flags``: assigned from an ``in``/``not in`` membership test
          on a guarded container *under* its lock — using one to guard
          an access to the same container in a *different* critical
          section is a non-atomic compound operation (SRC014).

        The ``# holds:`` annotation and reassignment both clear taint;
        nested functions start clean (they may run after the lock is
        gone, which SRC005 already models the same way).
        """
        state = {"tainted": {}, "flags": {}, "cs": 0}
        cs_active: Dict[str, int] = {}
        for stmt in fn.body:
            self._cta_visit(stmt, guards, set(held), cs_active, state)

    def _cta_visit(
        self,
        node: ast.AST,
        guards: Dict[str, str],
        held: Set[str],
        cs_active: Dict[str, int],
        state: Dict,
    ) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner_held = set(held)
            inner_cs = dict(cs_active)
            for item in node.items:
                norm = _norm(ast.unparse(item.context_expr))
                inner_held.add(norm)
                state["cs"] += 1
                inner_cs[norm] = state["cs"]
            for stmt in node.body:
                self._cta_visit(stmt, guards, inner_held, inner_cs, state)
            return
        if isinstance(node, _FN_NODES):
            self._check_compound(node, guards, self._holds(node))
            return
        if isinstance(node, (ast.Lambda, ast.ClassDef)):
            return
        if isinstance(node, ast.Assign):
            self._cta_assign(node, guards, held, cs_active, state)
        elif isinstance(node, (ast.If, ast.While)):
            self._cta_decision(node, guards, held, cs_active, state)
        for child in ast.iter_child_nodes(node):
            self._cta_visit(child, guards, held, cs_active, state)

    def _cta_assign(
        self,
        node: ast.Assign,
        guards: Dict[str, str],
        held: Set[str],
        cs_active: Dict[str, int],
        state: Dict,
    ) -> None:
        names = [
            t.id for t in node.targets if isinstance(t, ast.Name)
        ]
        if not names:
            return
        for name in names:  # reassignment kills previous taint
            state["tainted"].pop(name, None)
            state["flags"].pop(name, None)
        membership = self._membership_attr(node.value, guards)
        if membership is not None:
            attr, guard = membership
            if guard in held:
                for name in names:
                    state["flags"][name] = (
                        attr, guard, cs_active.get(guard, -1), node.lineno
                    )
                return
        read = self._unguarded_read(node.value, guards, held)
        if read is not None:
            attr, guard = read
            for name in names:
                state["tainted"][name] = (attr, guard, node.lineno)

    def _membership_attr(
        self, expr: ast.expr, guards: Dict[str, str]
    ) -> Optional[Tuple[str, str]]:
        """``(attr, guard)`` when ``expr`` is ``key in self.X`` on a
        guarded container (negated forms included)."""
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not):
            return self._membership_attr(expr.operand, guards)
        if not isinstance(expr, ast.Compare) or len(expr.ops) != 1:
            return None
        if not isinstance(expr.ops[0], (ast.In, ast.NotIn)):
            return None
        attr = _is_self_attr(expr.comparators[0])
        if attr is not None and attr in guards:
            return attr, guards[attr]
        return None

    def _unguarded_read(
        self, expr: ast.expr, guards: Dict[str, str], held: Set[str]
    ) -> Optional[Tuple[str, str]]:
        """``(attr, guard)`` for the first guarded-attribute read in
        ``expr`` whose guard is not held."""
        for sub in ast.walk(expr):
            attr = _is_self_attr(sub)
            if attr is None:
                continue
            guard = guards.get(attr)
            if guard is not None and guard not in held:
                return attr, guard
        return None

    def _cta_decision(
        self,
        node,
        guards: Dict[str, str],
        held: Set[str],
        cs_active: Dict[str, int],
        state: Dict,
    ) -> None:
        test_names = {
            sub.id for sub in ast.walk(node.test)
            if isinstance(sub, ast.Name)
        }
        # SRC013: decision on stale guarded state, action under the lock
        sources: List[Tuple[str, str, int]] = []
        direct = self._unguarded_read(node.test, guards, held)
        if direct is not None:
            sources.append((direct[0], direct[1], node.lineno))
        for name in sorted(test_names & set(state["tainted"])):
            sources.append(state["tainted"][name])
        emitted: Set[str] = set()
        for attr, guard, read_lineno in sources:
            if guard in emitted:
                continue
            act = self._acts_under_guard(node.body, guards, guard)
            if act is not None:
                emitted.add(guard)
                self._emit(
                    "SRC013", node.lineno,
                    f"check-then-act on guarded state: this decision "
                    f"reads self.{attr} (guarded-by {guard}) without "
                    f"the lock (line {read_lineno}), then acts on "
                    f"guarded state under `with {guard}:` (line {act}) "
                    f"— the state can change between the check and the "
                    f"act; take the lock around both",
                )
        # SRC014: membership flag from one critical section guarding an
        # access to the same container in another
        for name in sorted(test_names & set(state["flags"])):
            attr, guard, cs_id, check_lineno = state["flags"][name]
            if cs_active.get(guard, -1) == cs_id:
                continue  # still inside the checking critical section
            access = self._accesses_in_new_cs(node.body, attr, guard)
            if access is not None:
                self._emit(
                    "SRC014", access,
                    f"compound operation on guarded container "
                    f"self.{attr} spans critical sections: the "
                    f"membership check (line {check_lineno}) and this "
                    f"access run under different `with {guard}:` "
                    f"blocks, so another thread can mutate "
                    f"self.{attr} between them; do the check and the "
                    f"access in one critical section",
                )

    def _with_guard_blocks(
        self, body: Sequence[ast.stmt], guard: str
    ) -> List[ast.With]:
        """Every ``with <guard>:`` block anywhere under ``body``."""
        out = []
        for stmt in body:
            for sub in ast.walk(stmt):
                if not isinstance(sub, (ast.With, ast.AsyncWith)):
                    continue
                for item in sub.items:
                    if _norm(ast.unparse(item.context_expr)) == guard:
                        out.append(sub)
                        break
        return out

    def _acts_under_guard(
        self, body: Sequence[ast.stmt], guards: Dict[str, str], guard: str
    ) -> Optional[int]:
        """Line of a write to ``guard``-protected state (or a call to a
        ``# holds:`` helper of that guard) inside a ``with <guard>:``
        block under ``body``."""
        for block in self._with_guard_blocks(body, guard):
            for sub in ast.walk(block):
                targets: List[ast.expr] = []
                if isinstance(sub, ast.Assign):
                    targets = sub.targets
                elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
                    targets = [sub.target]
                elif isinstance(sub, ast.Delete):
                    targets = list(sub.targets)
                for target in targets:
                    base = target
                    if isinstance(base, ast.Subscript):
                        base = base.value
                    attr = _is_self_attr(base)
                    if attr is not None and guards.get(attr) == guard:
                        return sub.lineno
                if isinstance(sub, ast.Call):
                    method = _is_self_attr(sub.func)
                    if method is not None and guard in (
                        self._holds_methods.get(method, set())
                    ):
                        return sub.lineno
        return None

    def _accesses_in_new_cs(
        self, body: Sequence[ast.stmt], attr: str, guard: str
    ) -> Optional[int]:
        """Line of any ``self.<attr>`` access inside a ``with <guard>:``
        block under ``body`` (a new critical section by construction)."""
        for block in self._with_guard_blocks(body, guard):
            for sub in ast.walk(block):
                if _is_self_attr(sub) == attr:
                    return sub.lineno
        return None

    # --- SRC006 / SRC007: lock ordering and blocking calls -----------

    def _is_lock_expr(self, expr: ast.expr, norm: str) -> bool:
        if norm in self.guard_exprs:
            return True
        return "lock" in _terminal_name(expr).lower()

    def _order_visit(
        self,
        node: ast.AST,
        clsname: str,
        fnname: str,
        held: List[Tuple[str, str]],
    ) -> None:
        """Track lexically held locks: ``held`` is ``[(lock_id, display)]``."""
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                self._order_visit(child, node.name, fnname, [])
            return
        if isinstance(node, _FN_NODES):
            inherited = [
                (f"{clsname}::{g}", g) for g in sorted(self._holds(node))
            ]
            for child in node.body:
                self._order_visit(child, clsname, node.name, inherited)
            return
        if isinstance(node, ast.Lambda):
            self._order_visit(node.body, clsname, fnname, [])
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = list(held)
            for item in node.items:
                norm = _norm(ast.unparse(item.context_expr))
                if not self._is_lock_expr(item.context_expr, norm):
                    continue
                lock_id = f"{clsname}::{norm}"
                for prev_id, _ in inner:
                    if prev_id != lock_id:
                        self.edges.setdefault(
                            (prev_id, lock_id), (item.context_expr.lineno, fnname)
                        )
                inner.append((lock_id, norm))
            for stmt in node.body:
                self._order_visit(stmt, clsname, fnname, inner)
            return
        if isinstance(node, ast.Call) and held:
            name = _terminal_name(node.func)
            if name in BLOCKING_CALL_NAMES:
                held_names = ", ".join(display for _, display in held)
                self._emit(
                    "SRC007", node.lineno,
                    f"blocking call {name}() while holding {held_names}: "
                    f"every thread contending for the lock stalls behind "
                    f"this IO/wait; move the call outside the critical "
                    f"section, or, where holding the lock across it is "
                    f"the design, say why in a comment and suppress it "
                    f"with '# srclint: disable=SRC007'",
                )
        for child in ast.iter_child_nodes(node):
            self._order_visit(child, clsname, fnname, held)

    def _report_cycles(self) -> None:
        edges = dict(self.edges)
        reported: Set[frozenset] = set()
        for _ in range(16):  # bound independent-cycle extraction
            graph: Dict[str, List[str]] = {}
            for a, b in sorted(edges):
                graph.setdefault(a, []).append(b)
                graph.setdefault(b, [])
            cycle = find_cycle(graph)
            if cycle is None:
                return
            key = frozenset(cycle)
            hops = []
            first_lineno = None
            for i, a in enumerate(cycle):
                b = cycle[(i + 1) % len(cycle)]
                lineno, fn = edges.pop((a, b), (0, "?"))
                if first_lineno is None:
                    first_lineno = lineno
                hops.append(
                    f"{b.split('::', 1)[-1]} acquired under "
                    f"{a.split('::', 1)[-1]} in {fn}() "
                    f"({self.rel}:{lineno})"
                )
            if key in reported:
                continue
            reported.add(key)
            names = " -> ".join(
                c.split("::", 1)[-1] for c in cycle + [cycle[0]]
            )
            self._emit(
                "SRC006", first_lineno or 1,
                f"inconsistent lock order {names}: " + "; ".join(hops)
                + " — two threads taking these paths concurrently can "
                f"deadlock",
            )

    # --- entry -------------------------------------------------------

    def run(self) -> List[Diagnostic]:
        # collect every class's guards first so _is_lock_expr knows all
        # declared guard expressions before the ordering pass
        classes = [
            node for node in ast.walk(self.tree)
            if isinstance(node, ast.ClassDef)
        ]
        for cls in classes:
            self._class_guards(cls)
        for cls in classes:
            self._check_class(cls)
        self._order_visit(self.tree, "", "<module>", [])
        self._report_cycles()
        return self.findings


def lint_locks(rel: str, source: str, tree: ast.AST) -> List[Diagnostic]:
    """Run the lock-discipline rules over one parsed file."""
    return _LockChecker(rel, source, tree).run()
