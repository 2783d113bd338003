"""Every type and finiteness test on a config number is made in one place.

``cli._number`` reads each number a run configuration holds.  A field that
tests ``isinstance(x, bool)`` or calls ``isfinite`` on its own is a second
reader: its refusals drift from the others', as ``schema`` once accepted
``true`` while ``completion_seed`` refused it.
"""

from __future__ import annotations

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "chainlogic" / "cli.py"
READER = "_number"


def _is_number_check(node: ast.AST) -> bool:
    """An ``isinstance`` call whose type argument names ``bool``, or a call
    of any ``isfinite``."""
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Name) and node.func.id == "isinstance":
        return len(node.args) == 2 and any(
            isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[1]))
    name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(
        node.func, "id", None)
    return name == "isfinite"


def number_checks_outside(source: str, reader: str) -> list[int]:
    """Lines of the bool and finiteness checks not inside function ``reader``."""
    tree = ast.parse(source)
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == reader:
            inside.update(id(n) for n in ast.walk(node))
    return sorted(node.lineno for node in ast.walk(tree)
                  if _is_number_check(node) and id(node) not in inside)


def test_detector_flags_checks_outside_the_reader():
    source = ("def _number(v):\n"
              "    return isinstance(v, bool) or math.isfinite(v)\n"
              "def seed(v):\n"
              "    return isinstance(v, (int, bool))\n"
              "def weight(v):\n"
              "    return isfinite(v) and isinstance(v, float)\n")
    assert number_checks_outside(source, "_number") == [4, 6]


def test_config_numbers_checked_only_by_the_reader():
    assert number_checks_outside(CLI.read_text(), READER) == []
