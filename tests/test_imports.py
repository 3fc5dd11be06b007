"""Every name a module of the package imports is used in that module,
every private helper it defines is read somewhere in the package, and a
vertex id is checked by one rule."""

import ast
import pathlib
from collections import Counter

import pytest

import evencycles

SRC = pathlib.Path(evencycles.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names bound by import statements of `source` that no other
    expression of it reads (`__future__` imports bind none)."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom sys import argv, path\nprint(path)\n") == [
        (1, "os"),
        (2, "argv"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def dead_private_defs(sources: dict) -> list:
    """(module, name) of each module-level private function or class of the
    modules in `sources` (name -> source) that no expression of any of them
    reads outside the definition itself."""

    def reads(tree) -> Counter:
        return Counter(
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))
        )

    trees = {module: ast.parse(src) for module, src in sources.items()}
    everywhere = sum(map(reads, trees.values()), Counter())
    return sorted(
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and everywhere[node.name] == reads(node)[node.name]
    )


def test_detects_a_dead_private_helper():
    sources = {
        "a": "def _used():\n    pass\n\ndef _recursive(n):\n    return _recursive(n - 1)\n\nclass _Dead:\n    pass\n",
        "b": "from a import _used, _Dead\n\ndef public():\n    return a._used()\n",
    }
    assert dead_private_defs(sources) == [("a", "_Dead"), ("a", "_recursive")]


def test_no_dead_private_helpers():
    assert dead_private_defs({p.name: p.read_text() for p in SRC.glob("*.py")}) == []


# the functions that may test `type(v) is int`: the id rule itself, and
# Graph's check of its order and edges, where a call of the rule per edge
# end made Graph() 1.7x slower
ID_RULE_HOMES = {"_is_vertex", "Graph.__post_init__"}


def stray_id_checks(source: str) -> list:
    """(line, where) of each `isinstance(x, int)` in `source`, int alone or
    in a tuple of types, and of each `type(x) is int` or `is not int`
    outside ID_RULE_HOMES; `where` is the dotted name of the enclosing
    function or class, or "" at module level."""
    found = []

    def is_int(node) -> bool:
        return isinstance(node, ast.Name) and node.id == "int"

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            kinds = node.args[1:2]
            if kinds and isinstance(kinds[0], ast.Tuple):
                kinds = kinds[0].elts
            if any(map(is_int, kinds)):
                found.append((node.lineno, where))
        if isinstance(node, ast.Compare) and where not in ID_RULE_HOMES:
            sides = [node.left, *node.comparators]
            typed = any(isinstance(s, ast.Call) and isinstance(s.func, ast.Name) and s.func.id == "type" for s in sides)
            if typed and any(map(is_int, sides)):
                found.append((node.lineno, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return found


def test_detects_a_stray_id_check():
    source = (
        "def _is_vertex(v, n):\n    return type(v) is int and 0 <= v < n\n\n"
        "class Graph:\n    def __post_init__(self):\n        return type(self.n) is not int\n\n"
        "def f(v):\n    return isinstance(v, (str, int)) or int is type(v)\n"
    )
    assert stray_id_checks(source) == [(9, "f"), (9, "f")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_one_vertex_id_rule(path):
    # isinstance(v, int) takes a bool for an id, and an id rule written out
    # again is one that can drift from `graphs._is_vertex`
    assert stray_id_checks(path.read_text()) == []
