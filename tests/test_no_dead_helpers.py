"""No private module-level name in treedex goes unread.

A stdlib stand-in for a dead-code check: every module-level name in
src/treedex/ that starts with a single `_` (a function, class or
assignment target) must be read somewhere in the package, as a name,
an attribute or an imported name. A statement's reads of the name it
defines do not count, so a helper that only calls itself is dead too.
"""

import ast
from pathlib import Path

import treedex

PACKAGE = Path(treedex.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def defined(stmt: ast.stmt) -> set[str]:
    """The module-level names a statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)) else [])
    return {node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


def read(stmt: ast.stmt) -> set[str]:
    """Every name a statement reads as a name, attribute or import."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """`module: name` for each private module-level name nothing reads."""
    definitions = []
    used = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = defined(stmt)
            definitions += [(module, name) for name in names if _is_private(name)]
            used |= read(stmt) - names
    return [f"{module}: {name}" for module, name in definitions if name not in used]


def test_the_check_finds_an_unread_helper():
    sources = {
        "a.py": ("_TABLE = {1: 2}\n"
                 "def _helper(x):\n"
                 "    return _helper(x - 1) if x else 0\n"
                 "def _used():\n"
                 "    return _TABLE\n"
                 "def public():\n"
                 "    return __name__\n"),
        "b.py": ("from a import _used\n"
                 "import a\n"
                 "_counts: dict = {}\n"
                 "_counts[0] = a._unknown\n"),
    }
    assert dead_helpers(sources) == ["a.py: _helper"]


def test_no_dead_helpers():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert dead_helpers(sources) == []
