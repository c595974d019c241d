"""The README's "Library example" block, run as written: each line it
prints must match the comment beside its `print` call.  A comment may go on
after the printed text with a colon and an explanation."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_prints_what_its_comments_say():
    code = _example()
    expected = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected)
    for line, comment in zip(printed, expected):
        assert comment == line or comment.startswith(line + ":"), (line, comment)
