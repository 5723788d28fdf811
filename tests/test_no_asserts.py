"""No treedex module checks anything with an `assert` statement.

`python -O` strips asserts, so a check written as one would vanish from
an optimised run: every check in the package raises instead. A stdlib
stand-in for a linter's assert rule (S101), over the modules under
src/treedex/.
"""

import ast
from pathlib import Path

import pytest

import treedex

PACKAGE = Path(treedex.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def assert_statements(source: str) -> list[str]:
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_the_check_finds_an_assert():
    source = ("def check(x):\n"
              "    '''assert x > 0'''\n"
              "    if x is None:\n"
              "        raise ValueError('x is missing')\n"
              "    assert x > 0, 'x must be positive'\n"
              "    return [x for x in range(x) if x]  # assert nothing\n")
    assert assert_statements(source) == ["line 5"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_asserts(path):
    assert assert_statements(path.read_text(encoding="utf-8")) == []
