"""Rules the library's source keeps.  No verdict may rest on an `assert`:
`python -O` removes every one, so a check written as one vanishes there.
Every value type is a NamedTuple, so no module imports `dataclasses`, which
would load it and `inspect` into every command that imports the module.
No class defines `__new__`, so a value type has one way to be built: its
fields in order.
Only the CLI writes to stdout or stderr, so what a command prints, and its
goldens, are the CLI's alone."""

import ast
from pathlib import Path

import ko7


def _nodes():
    """(file name, node) for every AST node of the library's modules."""
    sources = sorted(Path(ko7.__file__).parent.glob("*.py"))
    assert {p.name for p in sources} >= {"__init__.py", "cli.py", "terms.py"}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            yield path.name, node


def test_no_assert_statement_in_the_library():
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if isinstance(node, ast.Assert)]
    assert found == []


def _imports_dataclasses(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name == "dataclasses" for a in node.names)
    return isinstance(node, ast.ImportFrom) and node.module == "dataclasses"


def test_no_dataclasses_import_in_the_library():
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if _imports_dataclasses(node)]
    assert found == []


def test_no_class_defines_new_in_the_library():
    found = [
        f"{name}:{item.lineno}"
        for name, node in _nodes()
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name == "__new__"
    ]
    assert found == []


def _writes(node) -> bool:
    """A call of print, or a use or import of sys.stdout or sys.stderr."""
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "print"
    if isinstance(node, ast.ImportFrom):
        return node.module == "sys" and any(a.name in ("stdout", "stderr") for a in node.names)
    return (
        isinstance(node, ast.Attribute)
        and node.attr in ("stdout", "stderr")
        and isinstance(node.value, ast.Name)
        and node.value.id == "sys"
    )


def test_only_the_cli_prints():
    found = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if name != "cli.py" and _writes(node)
    ]
    assert found == []
    # the rule sees the CLI's own writes
    assert any(name == "cli.py" and _writes(node) for name, node in _nodes())
