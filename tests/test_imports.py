"""Import hygiene: no module of the package imports a name it never uses,
and no private top-level name of the package goes unread."""

import ast
from pathlib import Path

import pytest

import charseq

MODULES = sorted(
    path for path in Path(charseq.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's import statements and read nowhere else:
    a name counts as read when it appears as an identifier anywhere in the
    module, annotations included."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_reported():
    source = "from math import comb, floor\nimport numpy as np\n\nx = floor(2.5)\n"
    assert unused_imports(source) == ["comb (line 1)", "np (line 2)"]


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """Top-level functions, classes and constants with one leading
    underscore that no other top-level statement of the sources reads, by
    name or as an attribute; a function that only calls itself is unread."""
    statements = [(file, stmt) for file, source in sources.items() for stmt in ast.parse(source).body]
    reads = {id(stmt): read_names(stmt) for _, stmt in statements}
    unread = []
    for file, stmt in statements:
        for name in bound_names(stmt):
            private = name.startswith("_") and not name.startswith("__")
            if private and not any(name in reads[id(o)] for _, o in statements if o is not stmt):
                unread.append(f"{file}: {name} (line {stmt.lineno})")
    return sorted(unread)


def bound_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def read_names(stmt: ast.stmt) -> set[str]:
    nodes = list(ast.walk(stmt))
    loads = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return loads | {n.attr for n in nodes if isinstance(n, ast.Attribute)}


def test_every_private_name_is_read():
    package = Path(charseq.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert unused_private_names(sources) == []


def test_an_unread_private_name_is_reported():
    a = (
        "def _used():\n    return 1\n\n\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n\n\n"
        "_LIMIT = 3\n_SEEN: int = 0\n__all__ = []\n\n\n"
        "class _Dead:\n    pass\n"
    )
    b = "import a\nfrom a import _used\n\nx = _used() + a._SEEN\n"
    assert unused_private_names({"a.py": a, "b.py": b}) == [
        "a.py: _Dead (line 14)",
        "a.py: _LIMIT (line 9)",
        "a.py: _recursive (line 5)",
    ]
