"""The package keeps its arithmetic exact and its dependencies to the stdlib,
only the CLI writes to stdout or stderr or imports an output format (json,
csv), so results stay exact values until it prints them, no closure calls
itself, every import sits at module level, so the import graph is read off
module tops, and no module keeps mutable state, so no call leaves anything
for the next.  In checks.py a CheckReport is built only by _judged and
_unmet, so each verdict is decided in one place.

Every module under src/hkcalc is parsed, not imported, so the rule holds for
code paths no other test reaches.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "hkcalc"

STDLIB = {
    "__future__",
    "argparse",
    "bisect",
    "contextvars",
    "csv",
    "fractions",
    "heapq",
    "io",
    "itertools",
    "json",
    "operator",
    "os",
    "random",
    "re",
    "sys",
    "typing",
}
INEXACT_CALLS = {"float", "complex", "round"}
STREAMS = {"stdout", "stderr"}
FORMATS = {"csv", "json"}
# The one module that may write output or encode it, so stdout has one
# writer and results one encoder.
WRITER = "cli.py"
MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
MUTABLE_CALLS = {"dict", "list", "set"}
# The functions of checks.py that may build a CheckReport.
REPORT_BUILDERS = {"_judged", "_unmet"}


def _writes(tree):
    """Uses of print, sys.stdout and sys.stderr, and imports of json and csv."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "print":
            yield node.lineno, "use of print"
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in STREAMS
            and isinstance(node.value, ast.Name)
            and node.value.id == "sys"
        ):
            yield node.lineno, "use of sys.%s" % node.attr
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in FORMATS:
                    yield node.lineno, "import of %s" % alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] in FORMATS:
                yield node.lineno, "import from %s" % node.module
            elif node.module == "sys":
                for alias in node.names:
                    if alias.name in STREAMS:
                        yield node.lineno, "import of sys.%s" % alias.name


def _recursive_closures(tree):
    """Nested functions that name themselves.  Such a closure holds the cell
    that holds it, a reference cycle that only the cyclic collector frees."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    nested = {
        id(inner): inner
        for outer in ast.walk(tree)
        if isinstance(outer, functions)
        for inner in ast.walk(outer)
        if inner is not outer and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for fn in nested.values():
        if any(isinstance(node, ast.Name) and node.id == fn.name for node in ast.walk(fn)):
            yield fn.lineno, "recursive closure %s" % fn.name


def _local_imports(tree):
    """Imports inside a function body, each once however deeply nested."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    local = {
        id(node): node
        for fn in ast.walk(tree)
        if isinstance(fn, functions)
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    for node in local.values():
        yield node.lineno, "import inside a function"


def _module_statements(body):
    """The statements run at import: module level, blocks included, outside
    any function or class."""
    for node in body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
            for field in ("body", "orelse", "handlers", "finalbody"):
                yield from _module_statements(getattr(node, field, ()))


def _mutable(value):
    if isinstance(value, ast.Tuple):
        return any(_mutable(e) for e in value.elts)
    return isinstance(value, MUTABLE_DISPLAYS) or (
        isinstance(value, ast.Call) and isinstance(value.func, ast.Name) and value.func.id in MUTABLE_CALLS
    )


def _module_state(tree):
    """Module-level dicts, lists and sets other than __all__, and global
    statements anywhere."""
    for node in _module_statements(tree.body):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and _mutable(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if not all(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                yield node.lineno, "module-level mutable state"
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            yield node.lineno, "global statement"


def _reports(tree):
    """(line, built by a report builder) for each call to CheckReport."""
    inside = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name in REPORT_BUILDERS
        for node in ast.walk(fn)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "CheckReport":
            yield node.lineno, id(node) in inside


def _violations(tree, may_write=False):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield node.lineno, "inexact literal %r" % node.value
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in INEXACT_CALLS
        ):
            yield node.lineno, "call to %s()" % node.func.id
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top != "hkcalc" and top not in STDLIB:
                    yield node.lineno, "import of %s" % alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            top = node.module.split(".")[0]
            if top != "hkcalc" and top not in STDLIB:
                yield node.lineno, "import from %s" % node.module
    yield from _recursive_closures(tree)
    yield from _local_imports(tree)
    yield from _module_state(tree)
    if not may_write:
        yield from _writes(tree)


def test_no_floats_and_no_runtime_dependencies():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        "%s:%d: %s" % (path.name, lineno, what)
        for path in sources
        for lineno, what in _violations(
            ast.parse(path.read_text(), str(path)), may_write=path.name == WRITER
        )
    ]
    assert found == []


def test_rules_catch_each_violation():
    bad = "x = 0.5\ny = 2j\nz = round(x)\nimport numpy\nfrom sympy import groebner\n"
    output = "print(x)\nsys.stdout.write(y)\nf(file=sys.stderr)\nfrom sys import stderr\n"
    # Line 11 is a recursive closure.  `other` (line 13) calls its enclosing
    # function and `top` (line 16) itself, both globals: neither is a cycle.
    closures = (
        "def outer(n):\n"
        "    def rec(k):\n"
        "        return rec(k - 1) if k else 0\n"
        "    def other(k):\n"
        "        return outer(k)\n"
        "    return rec(n)\n"
        "def top(k):\n"
        "    return top(k - 1) if k else 0\n"
    )
    # Line 19 imports inside a function; line 20, at module level, does not.
    imports = "def late():\n    from .errors import InputError\nimport itertools\n"
    # Line 21 is a module-level dict and line 24 a global statement; __all__
    # (line 22) and a dict made inside a function (line 26) are not state.
    state = (
        "_CACHE = {}\n"
        "__all__ = ['late']\n"
        "def count():\n"
        "    global _CACHE\n"
        "def fresh():\n"
        "    return {}\n"
    )
    # Lines 27 and 28 import output formats, which only the writer may.
    formats = "import json\nfrom csv import writer\n"
    tree = ast.parse(bad + output + closures + imports + state + formats)
    assert sorted(lineno for lineno, _ in _violations(tree)) == [
        1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 19, 21, 24, 27, 28,
    ]
    assert sorted(lineno for lineno, _ in _violations(tree, may_write=True)) == [
        1, 2, 3, 4, 5, 11, 19, 21, 24,
    ]


def test_check_reports_come_from_the_two_builders():
    """Every CheckReport of checks.py is built inside _judged or _unmet."""
    checks = ast.parse((PACKAGE / "checks.py").read_text())
    built = list(_reports(checks))
    assert built and all(by_builder for _, by_builder in built), built
    # Line 2 builds inside a builder; line 4, in a check, does not.
    sample = (
        "def _unmet(check, inputs, reason):\n"
        "    return CheckReport(check, inputs, {}, 'INAPPLICABLE', reason)\n"
        "def check_x():\n"
        "    return CheckReport(check='x')\n"
    )
    assert sorted(_reports(ast.parse(sample))) == [(2, True), (4, False)]
