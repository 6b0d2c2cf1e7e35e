"""Every top-level function and class of the package, and every method of
its classes, has a caller, and every optional parameter of each is passed
by some caller.

A name defined in src/pfschur/ must be referred to somewhere in src/, demos/
or perfbench/*.py (the benchmark's harness, not its tests). A reference is a
name, an attribute, an imported name or a string that is exactly an
identifier: the benchmark's tracer names the functions it wraps by string. A
method is matched by its name alone, whatever the class of the object it is
called on, unless more than one package class defines that name: then
`SHARED_METHOD_CALLS` names the class each reference reaches, and a method
reached only from definitions that have no caller has none either. Dunder
methods are called by the language and are not checked.

References inside a definition to its own name, or to the name of a
definition around it, do not count, so recursion is not a caller. A
re-export in src/pfschur/__init__.py is not a caller either, and neither are
tests: code that only a test calls belongs with the tests.

An optional parameter (one with a default) of a package function, method
or class constructor must be passed, by position or by keyword, at some
call of that name in the same files; a call with *args or **kwargs passes
every parameter it could reach. A call through a local alias counts as a
call of each name the alias is bound to: `name = f`, `name = f if c else
g`, and a loop `for a, f in ((x, f), (y, g))` over a literal tuple of
tuples. There are no exceptions: an option that only tests set goes.

    python tests/test_callers.py --lines

prints the package's code lines per module and in total (`code_lines`).
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pfschur"
CALLERS = [*(path for path in sorted((ROOT / "src").rglob("*.py"))
             if path != PACKAGE / "__init__.py"),
           *sorted((ROOT / "demos").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _identifiers(node):
    """The identifiers node itself refers to, not those of the nodes under it."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return node.name.split(".")
    if isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and node.value.isidentifier():
        return [node.value]
    return []


def _references(node, own=frozenset()):
    """Every identifier that node and the nodes under it refer to, less the
    names in own and those of the definitions around each reference."""
    if isinstance(node, DEFINITIONS):
        own = own | {node.name}
    yield from (name for name in _identifiers(node) if name not in own)
    for child in ast.iter_child_nodes(node):
        yield from _references(child, own)


def _sites(node, names, where):
    """(caller, name) of each reference under node to one of names, the
    caller being where followed by the definitions around the reference."""
    if isinstance(node, DEFINITIONS):
        where = f"{where}.{node.name}"
    yield from ((where, name) for name in _identifiers(node) if name in names)
    for child in ast.iter_child_nodes(node):
        yield from _sites(child, names, where)


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


def _shared_methods():
    """Each method name that more than one package class defines, and the
    classes ("module.Class") that define it."""
    classes = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, name in _definitions(path):
            if qualified.count(".") == 2:
                classes.setdefault(name, set()).add(qualified.rsplit(".", 1)[0])
    return {name: owners for name, owners in classes.items() if len(owners) > 1}


# (caller, method name): the package class that each reference in src/,
# demos/ or perfbench/*.py to a method name more than one package class
# defines reaches; the caller is the module and the definitions around the
# reference
SHARED_METHOD_CALLS = {}


def uncalled():
    """The package's definitions that nothing refers to, by qualified name;
    a method of a shared name (`SHARED_METHOD_CALLS`) counts as referred to
    when an entry from a caller that is not itself uncalled reaches it."""
    shared = _shared_methods()
    used = {name for path in CALLERS for name in _references(_parse(path))}
    definitions = [pair for path in sorted(PACKAGE.glob("*.py"))
                   for pair in _definitions(path)]
    out = {qualified for qualified, name in definitions
           if name not in shared and name not in used}
    while True:
        reached = {f"{owner}.{name}" for (caller, name), owner in SHARED_METHOD_CALLS.items()
                   if not any(caller == q or caller.startswith(q + ".") for q in out)}
        grown = out | {qualified for qualified, name in definitions
                       if name in shared and qualified not in reached}
        if grown == out:
            return sorted(out)
        out = grown


def test_every_top_level_definition_has_a_caller():
    assert uncalled() == []


def test_every_reference_to_a_shared_method_name_is_listed():
    shared = _shared_methods()
    sites = {site for path in CALLERS for site in _sites(_parse(path), shared, path.stem)}
    assert sites == set(SHARED_METHOD_CALLS)
    assert all(owner in shared[name]
               for (caller, name), owner in SHARED_METHOD_CALLS.items())


def _options(path):
    """(qualified name, call name, positional parameters, optional
    parameters) of each function, method and class constructor of a package
    module; a method's positional parameters leave out self, a class's are
    those of its __init__, and a dunder method other than __init__ is not
    listed."""
    def signature(fn, bound):
        args = fn.args
        positional = [a.arg for a in args.posonlyargs + args.args][bound:]
        optional = positional[len(positional) - len(args.defaults):]
        optional += [a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults)
                     if default is not None]
        return positional, optional
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in _parse(path).body:
        if isinstance(node, functions):
            yield f"{path.stem}.{node.name}", node.name, *signature(node, 0)
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if not isinstance(sub, functions):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in sub.decorator_list)
                if sub.name == "__init__":
                    yield f"{path.stem}.{node.name}", node.name, *signature(sub, 1)
                elif not sub.name.startswith("__"):
                    yield (f"{path.stem}.{node.name}.{sub.name}", sub.name,
                           *signature(sub, 0 if static else 1))


def _names(node):
    """The names an expression may evaluate to, as far as an alias goes."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.IfExp):
        return _names(node.body) | _names(node.orelse)
    return set()


def _aliases(tree):
    """Each local name bound to a function by a plain assignment or by a
    loop over a literal tuple of tuples, and the names it is bound to."""
    bound = {}
    for node in ast.walk(tree):
        pairs = []
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            pairs = [(node.targets[0], node.value)]
        elif isinstance(node, ast.For) and isinstance(node.target, ast.Tuple) \
                and isinstance(node.iter, (ast.Tuple, ast.List)):
            pairs = [pair for item in node.iter.elts if isinstance(item, ast.Tuple)
                     and len(item.elts) == len(node.target.elts)
                     for pair in zip(node.target.elts, item.elts)]
        for target, value in pairs:
            if isinstance(target, ast.Name) and _names(value):
                bound.setdefault(target.id, set()).update(_names(value))
    return bound


def _calls(node, aliases, own=frozenset()):
    """(callee name, positional count or None, keyword names or None) of
    each call under node, None where *args or **kwargs may pass anything;
    a call inside a definition of the same name is not counted."""
    if isinstance(node, DEFINITIONS):
        own = own | {node.name}
    if isinstance(node, ast.Call):
        positional = (None if any(isinstance(a, ast.Starred) for a in node.args)
                      else len(node.args))
        keywords = (None if any(k.arg is None for k in node.keywords)
                    else {k.arg for k in node.keywords})
        for name in _names(node.func):
            for callee in ({name} | aliases.get(name, set())) - own:
                yield callee, positional, keywords
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, aliases, own)


def unpassed():
    """The optional parameters that no call in src/, demos/ or perfbench/*.py
    passes, as (qualified name, parameter)."""
    calls = {}
    for path in CALLERS:
        tree = _parse(path)
        for callee, positional, keywords in _calls(tree, _aliases(tree)):
            calls.setdefault(callee, []).append((positional, keywords))

    def passed(name, index, param):
        return any(positional is None or keywords is None
                   or (index is not None and index < positional) or param in keywords
                   for positional, keywords in calls.get(name, []))
    return sorted((qualified, param) for path in sorted(PACKAGE.glob("*.py"))
                  for qualified, name, positional, optional in _options(path)
                  for param in optional
                  if not passed(name, positional.index(param)
                                if param in positional else None, param))


def test_every_option_is_passed_by_a_caller():
    stray = unpassed()
    assert not stray, "only tests set " + ", ".join(
        f"{qualified}({param})" for qualified, param in stray)


def code_lines(path):
    """The number of code lines of a module: the lines its statements span,
    a class or function giving its decorators and header and its body
    statement by statement, less docstrings, comments and blank lines."""
    text = path.read_text(encoding="utf-8").splitlines()
    lines, docstrings = set(), set()
    for node in ast.walk(_parse(path)):
        if isinstance(node, (ast.Module, *DEFINITIONS)) \
                and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        if isinstance(node, DEFINITIONS):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            lines.update(range(first, node.body[0].lineno))
        elif isinstance(node, ast.stmt):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return sum(1 for n in lines - docstrings
               if text[n - 1].strip() and not text[n - 1].lstrip().startswith("#"))


if __name__ == "__main__":
    if sys.argv[1:] != ["--lines"]:
        sys.exit("usage: python tests/test_callers.py --lines")
    counts = {path.name: code_lines(path) for path in sorted(PACKAGE.glob("*.py"))}
    for name, count in counts.items():
        print(f"{name:16s} {count:5d}")
    print(f"{'total':16s} {sum(counts.values()):5d}")
