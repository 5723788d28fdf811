"""No treedex module or test module imports a name it never uses.

A stdlib stand-in for a linter's unused-import rule (F401): every name a
module binds by an import must be read somewhere in that module, unless
the import's line says `# noqa: F401`. The package's `__init__.py` is
left out, since its imports are its public names.
"""

import ast
from pathlib import Path

import pytest

import treedex

PACKAGE = Path(treedex.__file__).parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import json\n"
              "import os.path\n"
              "from math import fsum, isclose\n"
              "from re import sub  # noqa: F401  (re-exported)\n"
              "print(json.dumps(fsum([1.0])))\n")
    assert unused_imports(source) == ["line 3: os", "line 4: isclose"]


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda path: (
    path.name if path.parent == PACKAGE else f"tests/{path.name}"))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
