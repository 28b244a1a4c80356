"""Certificates must survive `python -O`, which strips `assert` statements."""

import ast
from pathlib import Path

import schur_szego


def test_no_assert_statements_in_package():
    sources = sorted(Path(schur_szego.__file__).parent.glob("*.py"))
    assert any(path.name == "roots.py" for path in sources)
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
