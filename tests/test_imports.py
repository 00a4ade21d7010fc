"""Import hygiene: no module of the package imports a name it never uses."""

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
