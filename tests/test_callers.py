"""Every top-level function and class of the package has a caller.

A name defined at the top level of a module in src/pfschur/ must be referred
to somewhere in src/, demos/ or perfbench/*.py (the benchmark's harness, not
its tests). A reference is a name, an attribute, an imported name or a string
that is exactly an identifier: the benchmark's tracer names the functions it
wraps by string. A definition's own `def` or `class` line and the references
inside its own body do not count, so recursion is not a caller. Tests are
not callers either: code that only a test calls belongs with the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pfschur"
CALLERS = [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(node):
    """Every identifier that node and the nodes under it refer to."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield from sub.name.split(".")
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            yield sub.value


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def uncalled():
    """The package's top-level definitions that nothing refers to, as
    "module.name"."""
    used = set()
    for path in CALLERS:
        for node in _parse(path).body:
            own = node.name if isinstance(node, DEFINITIONS) else None
            used.update(name for name in _references(node) if name != own)
    return sorted(f"{path.stem}.{node.name}" for path in sorted(PACKAGE.glob("*.py"))
                  for node in _parse(path).body
                  if isinstance(node, DEFINITIONS) and node.name not in used)


def test_every_top_level_definition_has_a_caller():
    assert uncalled() == []
