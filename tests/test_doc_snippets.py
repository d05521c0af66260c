"""Documentation contract: every ``repro`` import in a doc snippet resolves.

Scans the ```` ```python ```` blocks of README.md, DESIGN.md,
EXPERIMENTS.md and ``docs/*.md``.  A block that does not parse as Python
(a deliberate fragment) is skipped; in every other block each
``import repro...`` must name a module and each ``from repro... import
name`` a module or an attribute of one, so a removed or renamed API
cannot linger in the docs.
"""

import ast
import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
]
BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def repro_imports(source):
    """``(module, name)`` per ``repro`` import in ``source`` (``name`` is
    None for a plain ``import``); None when the block does not parse."""
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return None
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(a.name, None) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [(node.module, a.name) for a in node.names]
    return [(m, n) for m, n in found if m.split(".")[0] == "repro"]


def snippets():
    for doc in DOCS:
        if not doc.is_file():
            continue
        text = doc.read_text()
        for match in BLOCK.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            yield pytest.param(match.group(1), id=f"{doc.name}:{line}")


@pytest.mark.parametrize("source", snippets())
def test_snippet_imports_resolve(source):
    imports = repro_imports(source)
    if imports is None:
        pytest.skip("not a complete Python block")
    missing = []
    for module, name in imports:
        try:
            mod = importlib.import_module(module)
            if name is not None and name != "*" and not hasattr(mod, name):
                importlib.import_module(f"{module}.{name}")
        except ImportError:
            missing.append(module if name is None else f"{module}.{name}")
    assert not missing, f"snippet imports names that do not exist: {missing}"


def test_scan_finds_the_readme_snippets():
    """The scan itself works: README's blocks are found and import repro."""
    found = [p.values[0] for p in snippets() if p.id.startswith("README.md")]
    assert found and all(repro_imports(src) for src in found)
