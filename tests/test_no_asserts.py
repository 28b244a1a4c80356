"""Source scans of the package.

Certificates must survive `python -O`, which strips `assert` statements, and
the package needs nothing beyond the standard library (importing numpy alone
took peak RSS from 17 to 29 MB).
"""

import ast
from pathlib import Path

import schur_szego


def _nodes():
    sources = sorted(Path(schur_szego.__file__).parent.glob("*.py"))
    assert any(path.name == "roots.py" for path in sources)
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield f"{path.name}:{getattr(node, 'lineno', 0)}", node


def test_no_assert_statements_in_package():
    assert [where for where, node in _nodes() if isinstance(node, ast.Assert)] == []


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def test_no_numpy_imports_in_package():
    found = [where for where, node in _nodes()
             if any(name.split(".")[0] == "numpy" for name in _imported_modules(node))]
    assert found == []
