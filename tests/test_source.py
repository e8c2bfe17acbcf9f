"""Rules on the library's source text."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "regma"


def test_no_assert_statements():
    # python -O strips assert statements, so a check written as one would
    # silently stop checking; verification has to be ordinary code
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 10
    found = [f"{path.relative_to(SRC)}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
