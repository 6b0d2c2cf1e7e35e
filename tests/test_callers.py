"""Every top-level function and class of the package, and every method of
its classes, has a caller.

A name defined in src/pfschur/ must be referred to somewhere in src/, demos/
or perfbench/*.py (the benchmark's harness, not its tests). A reference is a
name, an attribute, an imported name or a string that is exactly an
identifier: the benchmark's tracer names the functions it wraps by string. A
method is matched by its name alone, whatever the class of the object it is
called on; dunder methods are called by the language and are not checked.

References inside a definition to its own name, or to the name of a
definition around it, do not count, so recursion is not a caller. A
re-export in src/pfschur/__init__.py is not a caller either, and neither are
tests: code that only a test calls belongs with the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pfschur"
CALLERS = [*(path for path in sorted((ROOT / "src").rglob("*.py"))
             if path != PACKAGE / "__init__.py"),
           *sorted((ROOT / "demos").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(node, own=frozenset()):
    """Every identifier that node and the nodes under it refer to, less the
    names in own and those of the definitions around each reference."""
    if isinstance(node, DEFINITIONS):
        own = own | {node.name}
    if isinstance(node, ast.Name):
        names = [node.id]
    elif isinstance(node, ast.Attribute):
        names = [node.attr]
    elif isinstance(node, ast.alias):
        names = node.name.split(".")
    elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and node.value.isidentifier():
        names = [node.value]
    else:
        names = []
    yield from (name for name in names if name not in own)
    for child in ast.iter_child_nodes(node):
        yield from _references(child, own)


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions(path):
    """("module.name", name) of each top-level definition of a package
    module, and ("module.Class.method", method) of each method of its
    classes that is not a dunder."""
    for node in _parse(path).body:
        if not isinstance(node, DEFINITIONS):
            continue
        yield f"{path.stem}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            yield from ((f"{path.stem}.{node.name}.{sub.name}", sub.name)
                        for sub in node.body if isinstance(sub, DEFINITIONS)
                        and not (sub.name.startswith("__") and sub.name.endswith("__")))


def uncalled():
    """The package's definitions that nothing refers to, by qualified name."""
    used = {name for path in CALLERS for name in _references(_parse(path))}
    return sorted(qualified for path in sorted(PACKAGE.glob("*.py"))
                  for qualified, name in _definitions(path) if name not in used)


def test_every_top_level_definition_has_a_caller():
    assert uncalled() == []
