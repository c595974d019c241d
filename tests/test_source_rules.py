"""Rules the library's source keeps.  No verdict may rest on an `assert`:
`python -O` removes every one, so a check written as one vanishes there."""

import ast
from pathlib import Path

import ko7


def test_no_assert_statement_in_the_library():
    sources = sorted(Path(ko7.__file__).parent.glob("*.py"))
    assert {p.name for p in sources} >= {"__init__.py", "cli.py", "terms.py"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
