"""AST source lint over ``src/repro`` itself (``repro lint-src``).

Flags, statically and before any test runs, code patterns that alias
or reorder state:

========  ===========================  =======================================
rule      name                         pattern
========  ===========================  =======================================
SRC002    frombuffer-escape            an ``np.frombuffer`` view escaping its
                                       scope (returned, stored on an object,
                                       put in a container) still aliasing the
                                       source buffer
SRC003    unordered-set-iteration      iterating a ``set`` expression where the
                                       order reaches output (manifests,
                                       conversion plans) — nondeterministic
                                       under hash randomization
SRC004    mutable-default-argument     a mutable default (list/dict/set/
                                       ndarray) shared across calls
========  ===========================  =======================================

Lock discipline is not checked here: the schedule explorer
(:mod:`repro.analysis.interleave`, ``repro explore``) runs the threaded
code itself through every inequivalent schedule.  SRC001
(collective-result-no-copy) is retired and reserved: every collective
builds a private result per rank, which plain tests pin per op.

Both statically-safe sinks and the analysis' own limits are deliberate:
plain ``name = np.frombuffer(...)`` assignments and slice-stores
``buf[a:b] = np.frombuffer(...)`` stay local or copy and are never
flagged.  SRC003 additionally follows set-typed *variables* within one
scope: a name whose every binding is a set expression
(``s = set(xs); ... for k in s:``) fires like the expression would,
while a name that is ever rebound to anything else — or shadowed by a
loop target, parameter, or import — is left alone.  No other rule has
dataflow.

Suppression: append ``# srclint: disable`` (all rules) or
``# srclint: disable=SRC002,SRC003`` to the offending physical line.
The tree lints clean, and any finding fails the ``repro lint-src``
gate.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, List, Optional, Set

from repro.core.diagnostics import Diagnostic, LintReport, error

_SAFE_METHODS = {"copy", "astype", "tolist", "item", "hex", "decode"}
"""Methods whose result no longer aliases the receiver's buffer."""

_ALIAS_METHODS = {"reshape", "view", "ravel", "squeeze", "transpose"}
"""Methods whose result still aliases the receiver's buffer (climb on)."""

_SAFE_CALLS = {
    "array", "copy", "ascontiguousarray", "asfortranarray", "concatenate",
    "sorted", "bytes", "bytearray", "float", "int", "str", "sum", "len",
}
"""Free functions that copy (or scalarize) their argument."""

_CONTAINER_ADD = {"append", "add", "insert", "setdefault", "extendleft"}
"""Receiver methods that store their argument into a container."""

_SORTED_FAMILY = {
    "sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset",
}
"""Order-insensitive (or re-ordering) consumers of an iterable."""

_SET_METHODS = {
    "union", "intersection", "difference", "symmetric_difference",
}

_MUTABLE_FACTORIES = {
    "list", "dict", "set", "bytearray", "defaultdict", "OrderedDict",
    "Counter", "deque",
    "zeros", "ones", "empty", "full", "arange", "array", "zeros_like",
    "ones_like",
}

_SUPPRESS_RE = re.compile(
    r"#\s*srclint:\s*disable(?:=([A-Za-z0-9_,\s]+))?"
)


def _call_name(func: ast.expr) -> Optional[str]:
    """Terminal name of a call target: ``f`` for ``f(..)``/``m.f(..)``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _parent_map(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    """Per-line suppression map: line -> rule set (``None`` = all rules)."""
    out: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(line)
        if m is None:
            continue
        if m.group(1) is None:
            out[lineno] = None
        else:
            out[lineno] = {r.strip() for r in m.group(1).split(",") if r.strip()}
    return out


def _escape_context(
    call: ast.Call, parents: Dict[ast.AST, ast.AST]
) -> Optional[str]:
    """How (if at all) a call's aliasing result escapes its expression.

    Climbs the AST from the call through alias-preserving shapes
    (indexing, ``reshape``-family methods) until it hits either a safe
    sink (plain name assignment, ``.copy()``, slice-store into an
    existing buffer, arithmetic) or an escaping one.  Returns a short
    context label for escapes, ``None`` when provably local/copied.
    """
    cur: ast.AST = call
    parent = parents.get(cur)
    while parent is not None:
        if isinstance(parent, ast.Subscript) and parent.value is cur:
            # indexing into the result: result[0] / result[a:b] still alias
            cur, parent = parent, parents.get(parent)
            continue
        if isinstance(parent, ast.Attribute) and parent.value is cur:
            grand = parents.get(parent)
            if isinstance(grand, ast.Call) and grand.func is parent:
                if parent.attr in _ALIAS_METHODS:
                    cur, parent = grand, parents.get(grand)
                    continue
                # .copy()/.astype() break aliasing; unknown methods are
                # given the benefit of the doubt (no dataflow here)
                return None
            return None
        if isinstance(parent, ast.Call):
            if parent.func is cur:
                return None
            name = _call_name(parent.func)
            if (
                isinstance(parent.func, ast.Attribute)
                and name in _CONTAINER_ADD
            ):
                return f"passed to .{name}()"
            if name in _SAFE_CALLS or name in _SORTED_FAMILY:
                return None
            # argument to an arbitrary function: out of scope
            return None
        if isinstance(parent, (ast.Assign, ast.AnnAssign)):
            targets = (
                parent.targets
                if isinstance(parent, ast.Assign)
                else [parent.target]
            )
            for target in targets:
                if isinstance(target, ast.Attribute):
                    return "assigned to an attribute"
                if isinstance(target, ast.Subscript):
                    if isinstance(target.slice, ast.Slice):
                        continue  # buf[a:b] = ... copies into buf
                    return "stored under a container key"
                if isinstance(target, (ast.Tuple, ast.List)):
                    return "unpacked into multiple targets"
            return None  # plain local name(s)
        if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
            return "returned"
        if isinstance(parent, (ast.List, ast.Tuple, ast.Set)):
            return "placed in a container literal"
        if isinstance(parent, ast.Dict):
            return "placed in a dict literal"
        if isinstance(parent, ast.Starred):
            cur, parent = parent, parents.get(parent)
            continue
        # BinOp/Compare/UnaryOp/condition/for-iter/etc.: produces a new
        # value or only reads — not an escape of the aliasing buffer
        return None
    return None


def _is_set_expr(node: ast.expr) -> bool:
    """Whether an expression is *shaped* like a set (no dataflow)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _call_name(node.func)
        if isinstance(node.func, ast.Name) and name in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and name in _SET_METHODS:
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
"""Nodes that open a new local namespace (plus the module itself)."""

_SET_AUG_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
"""Augmented ops that keep a set a set (``s |= ...`` etc.)."""


def _target_names(target: ast.expr) -> List[str]:
    """Every plain name bound by an assignment/loop target."""
    return [
        n.id for n in ast.walk(target) if isinstance(n, ast.Name)
    ]


def _scope_children(scope: ast.AST):
    """Walk a scope's nodes without descending into nested scopes."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPE_NODES + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))


def _set_typed_names(scope: ast.AST) -> Set[str]:
    """Names in ``scope`` whose *every* binding is a set expression.

    The one-scope dataflow behind SRC003's variable tracking: a name
    qualifies when it has at least one ``name = <set expr>`` binding
    and no binding of any other kind — a rebind to a non-set value, a
    loop/with/except target, a parameter, an import, or a
    ``global``/``nonlocal`` declaration all disqualify it, as does a
    non-set augmented assignment.
    """
    set_bound: Set[str] = set()
    disqualified: Set[str] = set()
    if isinstance(scope, _SCOPE_NODES):
        args = scope.args
        for arg in (
            args.posonlyargs + args.args + args.kwonlyargs
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            disqualified.add(arg.arg)
    for node in _scope_children(scope):
        if isinstance(node, ast.Assign):
            if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                bucket = (
                    set_bound if _is_set_expr(node.value) else disqualified
                )
                bucket.add(node.targets[0].id)
            else:
                for target in node.targets:
                    disqualified.update(_target_names(target))
        elif isinstance(node, ast.AnnAssign):
            if node.value is None:
                continue
            if isinstance(node.target, ast.Name):
                bucket = (
                    set_bound if _is_set_expr(node.value) else disqualified
                )
                bucket.add(node.target.id)
        elif isinstance(node, ast.NamedExpr):
            bucket = set_bound if _is_set_expr(node.value) else disqualified
            bucket.add(node.target.id)
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Name) and not isinstance(
                node.op, _SET_AUG_OPS
            ):
                disqualified.add(node.target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            disqualified.update(_target_names(node.target))
        elif isinstance(node, ast.comprehension):
            disqualified.update(_target_names(node.target))
        elif isinstance(node, ast.withitem):
            if node.optional_vars is not None:
                disqualified.update(_target_names(node.optional_vars))
        elif isinstance(node, ast.ExceptHandler):
            if node.name is not None:
                disqualified.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            disqualified.update(node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                disqualified.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, _SCOPE_NODES + (ast.ClassDef,)):
            name = getattr(node, "name", None)
            if name is not None:
                disqualified.add(name)
    return set_bound - disqualified


def _order_safe(node: ast.AST, parents: Dict[ast.AST, ast.AST]) -> bool:
    """Whether the iteration order is laundered by an enclosing consumer.

    ``sorted(x for x in set(..))`` and friends are fine: the comprehension
    (or the iteration call) sits directly under an order-insensitive
    consumer.
    """
    parent = parents.get(node)
    # a generator/comprehension used as a bare call argument:
    # sorted(<comp>), len(<comp>), ...
    while isinstance(parent, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
        node, parent = parent, parents.get(parent)
    if isinstance(parent, ast.Call) and node in parent.args:
        return _call_name(parent.func) in _SORTED_FAMILY
    return False


class _Checker:
    def __init__(self, rel: str, source: str, tree: ast.AST) -> None:
        self.rel = rel
        self.parents = _parent_map(tree)
        self.suppress = _suppressions(source)
        self.findings: List[Diagnostic] = []
        self.tree = tree
        self._set_vars_cache: Dict[ast.AST, Set[str]] = {}

    def _scope_of(self, node: ast.AST) -> ast.AST:
        """Nearest enclosing function/lambda scope, else the module."""
        cur = self.parents.get(node)
        while cur is not None and not isinstance(cur, _SCOPE_NODES):
            cur = self.parents.get(cur)
        return cur if cur is not None else self.tree

    def _is_set_typed_var(self, expr: ast.expr, node: ast.AST) -> bool:
        """Whether ``expr`` names a tracked set-typed local variable."""
        if not isinstance(expr, ast.Name):
            return False
        scope = self._scope_of(node)
        if scope not in self._set_vars_cache:
            self._set_vars_cache[scope] = _set_typed_names(scope)
        return expr.id in self._set_vars_cache[scope]

    def _emit(self, diag_factory, rule: str, lineno: int, message: str) -> None:
        rules = self.suppress.get(lineno, "absent")
        if rules is None or (rules != "absent" and rule in rules):
            return
        self.findings.append(
            diag_factory(rule, message, location=f"{self.rel}:{lineno}")
        )

    def run(self) -> List[Diagnostic]:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call):
                self._check_call(node)
            elif isinstance(node, (ast.For, ast.comprehension)):
                self._check_iteration(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_defaults(node)
        return self.findings

    # SRC002 ---------------------------------------------------------

    def _check_call(self, node: ast.Call) -> None:
        name = _call_name(node.func)
        if name == "frombuffer":
            ctx = _escape_context(node, self.parents)
            if ctx is not None:
                self._emit(
                    error, "SRC002", node.lineno,
                    f"np.frombuffer view {ctx} without a defensive copy: "
                    f"it still aliases the source buffer (a cache block "
                    f"or file mapping) and writes through it poison every "
                    f"other reader",
                )
        # iteration-shaped consumers of sets: list(set(..)), "".join(set(..))
        if (
            name in ("list", "tuple", "enumerate", "iter", "join")
            and node.args
            and _is_set_expr(node.args[0])
            and not _order_safe(node, self.parents)
        ):
            self._emit(
                error, "SRC003", node.lineno,
                f"{name}() over a set expression: element order depends "
                f"on the hash seed; sort first if the order can reach "
                f"manifests, plans, or files",
            )

    # SRC003 ----------------------------------------------------------

    def _check_iteration(self, node) -> None:
        iter_expr = node.iter
        if _is_set_expr(iter_expr):
            what = "a set expression"
        elif self._is_set_typed_var(iter_expr, node):
            what = f"set-typed variable {iter_expr.id!r}"
        else:
            return
        if _order_safe(node if isinstance(node, ast.For) else self.parents.get(node, node), self.parents):
            return
        lineno = getattr(node, "lineno", None) or iter_expr.lineno
        self._emit(
            error, "SRC003", lineno,
            f"iterating {what}: element order depends on the "
            f"hash seed; wrap in sorted() if the order can reach "
            f"manifests, plans, or files",
        )

    # SRC004 ----------------------------------------------------------

    def _check_defaults(self, node) -> None:
        args = node.args
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            mutable = isinstance(
                default,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                 ast.SetComp),
            ) or (
                isinstance(default, ast.Call)
                and _call_name(default.func) in _MUTABLE_FACTORIES
            )
            if mutable:
                self._emit(
                    error, "SRC004", default.lineno,
                    f"mutable default argument in {node.name}(): the one "
                    f"instance is shared across every call; default to "
                    f"None and allocate inside",
                )


def lint_source_file(path: Path, rel: str) -> List[Diagnostic]:
    """Lint one Python file; ``rel`` is the location prefix."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    return _Checker(rel, source, tree).run()


def lint_source_tree(root: Path) -> LintReport:
    """Lint every ``*.py`` under ``root`` (deterministic order)."""
    root = Path(root)
    report = LintReport(subject=f"src:{root.name}")
    if root.is_file():
        report.extend(lint_source_file(root, root.name))
        return report
    for path in sorted(root.rglob("*.py")):
        rel = f"{root.name}/{path.relative_to(root).as_posix()}"
        report.extend(lint_source_file(path, rel))
    return report

