"""The README's "JSON forms" section against the CLI: each command's
top-level JSON keys are exactly those its bullet lists."""

import json
import re
from pathlib import Path

import pytest

from ko7.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# the command as the README names it, and a small run of it
COMMANDS = {
    "check decrease": ["check", "decrease", "--max-size", "4"],
    "check local-join": ["check", "local-join", "--max-size", "4"],
    "check unique-nf": ["check", "unique-nf", "--max-size", "4"],
    "check coverage": ["check", "coverage", "--max-size", "4"],
    "check nogo": ["check", "nogo", "--max-size", "5"],
    "check nogo --family F": ["check", "nogo", "--family", "size", "--max-size", "5"],
    "check lpo": ["check", "lpo", "--max-size", "3"],
    "check stress": ["check", "stress", "--max-size", "4"],
    "witness nonjoin": ["witness", "nonjoin"],
    "normalize --relation full": ["normalize", "--relation", "full", "(merge void void)"],
}


def _readme_keys(command: str) -> set[str]:
    """The top-level keys of the first object in the command's bullet."""
    section = README.read_text(encoding="utf-8").split("## JSON forms", 1)[1]
    (bullet,) = [line for line in section.splitlines() if f"(`{command}`)" in line]
    form = bullet[bullet.index("{") :]
    depth = 0
    top = []
    for char in form:
        if char in "{[":
            depth += 1
        elif char in "}]":
            depth -= 1
            if depth == 0:
                break
        elif depth == 1:
            top.append(char)
    return set(re.findall(r'"(\w+)":', "".join(top)))


@pytest.mark.parametrize("command", list(COMMANDS))
def test_json_keys_match_the_readme(command, capsys):
    main(["--json", *COMMANDS[command]])
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == _readme_keys(command)
