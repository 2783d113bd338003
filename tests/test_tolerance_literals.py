"""Every small tolerance in the package is a named module-level constant.

A float literal in (0, 1e-3) written inline in a function, a default
argument or a class body is a threshold without a name: it cannot be found,
documented or shared, and two copies of one fact can drift apart.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chainlogic"
LARGEST_TOLERANCE_LITERAL = 1e-3


def inline_tolerance_literals(source: str) -> list[tuple[int, float]]:
    """(line, value) of each float literal in (0, 1e-3) that is not the
    value of a module-level assignment."""
    tree = ast.parse(source)
    named = set()
    for statement in tree.body:
        if isinstance(statement, (ast.Assign, ast.AnnAssign)):
            named.update(id(node) for node in ast.walk(statement))
    return sorted((node.lineno, node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and type(node.value) is float
                  and 0.0 < node.value < LARGEST_TOLERANCE_LITERAL
                  and id(node) not in named)


def test_detector_flags_inline_and_default_literals():
    source = ("TOL = 1e-12\n"
              "def f(x, tol=1e-9):\n"
              "    return x > 1e-6 or x < 0.5\n"
              "class C:\n"
              "    floor: float = 1e-10\n")
    assert inline_tolerance_literals(source) == [(2, 1e-9), (3, 1e-6),
                                                 (5, 1e-10)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_inline_tolerance_literals(path):
    assert inline_tolerance_literals(path.read_text()) == []
