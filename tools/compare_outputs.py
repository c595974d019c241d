"""Compare the `ko7` CLI of two source trees, command by command.

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC [--max-size N]

PARENT_SRC and CHANGE_SRC are directories that hold the `ko7` package
(a checkout's `src/`).  Each command of a fixed matrix runs once per tree,
in a fresh process with `PYTHONPATH` set to that tree, and its exit code,
stdout and stderr are compared.  The matrix covers, in text and `--json`:

- `check decrease`, `unique-nf`, `coverage` and `local-join` at sizes
  1..N with `KO7_WORKERS` 1 and 2; `local-join` for both relations at
  budgets 0, 1, 2 and 200;
- `check nogo` and `check stress` at sizes 1..N, `check lpo` at sizes
  1..min(N, 6);
- `witness nonjoin` at budgets 0, 1, 2 and 1000;
- `parse`, `step` (every relation), `normalize` (safe; full with and
  without `--trace`), `measure` and `reaches` on a fixed list of terms:
  small ones, a malformed one, and delta-chains on both sides of the
  refusal depths that remain: 492 and 493 for `--json`, 992 and 993 for
  `normalize` (safe) and `measure` (CPython 3.11; a `-c` process holds
  fewer frames than `python -m ko7.cli`, so these lie 1-3 deeper than
  the CLI tests' pins);
- usage errors: a negative `--fuel`, an unknown `--relation` or
  `--family`, no subcommand, and `--file` naming a missing file;
- `--help` of `ko7`, of every subcommand and of every check, once.

Every command that differs is printed with the first line where it does;
the exit status is 1 if any differs, else 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterator, NamedTuple

SWEEPS = ("decrease", "unique-nf", "coverage")
STEP_RELATIONS = ("safe", "full", "safe-ctx", "full-ctx")


def _chain(depth: int) -> str:
    return "(rec void void " + "(delta " * depth + "void" + ")" * depth + ")"


TERMS = (
    "void",
    "(delta void)",
    "(integrate (delta void))",
    "(merge void void)",
    "(merge (delta void) (rec void void void))",
    "(eqw void void)",
    "(eqw (delta void) void)",
    "(rec void void (delta (delta void)))",
    "(app (merge void void) (eqw (integrate void) (integrate void)))",
    "(rec (eqw void void) (merge void void) (delta (rec void void void)))",
    "(merge void",
    _chain(492),
    _chain(493),
    _chain(992),
    _chain(993),
)
TARGETS = ("void", "(delta void)")
CHECKS = ("decrease", "local-join", "unique-nf", "coverage", "nogo", "lpo", "stress")
USAGE_ERRORS = (
    ("normalize", "void", "--fuel", "-1"),
    ("step", "void", "--relation", "nope"),
    ("check", "local-join", "--relation", "full"),
    ("check", "nogo", "--family", "nope"),
    (),
    ("parse", "--file", "no-such-file"),
)
HELP = (
    (), ("parse",), ("step",), ("normalize",), ("measure",), ("reaches",), ("witness",),
    ("witness", "nonjoin"), ("check",), *(("check", name) for name in CHECKS),
)


class Command(NamedTuple):
    family: str  # the subcommand, e.g. "check coverage" or "normalize"
    argv: tuple[str, ...]
    workers: int

    def __str__(self) -> str:
        shown = " ".join(a if a and " " not in a else repr(a) for a in self.argv)
        if len(shown) > 160:
            shown = shown[:150] + f"... ({len(shown)} chars)"
        return f"KO7_WORKERS={self.workers} ko7 {shown}"


class Outcome(NamedTuple):
    code: int
    stdout: str
    stderr: str


def commands(max_size: int) -> Iterator[Command]:
    """The matrix, each family's cheapest command first."""
    for fmt in ((), ("--json",)):
        for name in SWEEPS:
            for n in range(1, max_size + 1):
                for workers in (1, 2):
                    yield Command(f"check {name}", (*fmt, "check", name, "--max-size", str(n)), workers)
        for n in range(1, max_size + 1):
            for relation in ("safe", "safe-ctx"):
                for budget in (0, 1, 2, 200):
                    for workers in (1, 2):
                        argv = (*fmt, "check", "local-join", "--max-size", str(n),
                                "--relation", relation, "--budget", str(budget))
                        yield Command("check local-join", argv, workers)
        for name, top in (("nogo", max_size), ("stress", max_size), ("lpo", min(max_size, 6))):
            for n in range(1, top + 1):
                yield Command(f"check {name}", (*fmt, "check", name, "--max-size", str(n)), 1)
        for budget in (0, 1, 2, 1000):
            yield Command("witness nonjoin", (*fmt, "witness", "nonjoin", "--budget", str(budget)), 1)
        for term in TERMS:
            yield Command("parse", (*fmt, "parse", term), 1)
            for relation in STEP_RELATIONS:
                yield Command("step", (*fmt, "step", term, "--relation", relation), 1)
            for extra in (("--relation", "safe"), ("--relation", "full"),
                          ("--relation", "full", "--trace")):
                yield Command("normalize", (*fmt, "normalize", term, *extra), 1)
            yield Command("measure", (*fmt, "measure", term), 1)
            for target in TARGETS:
                yield Command("reaches", (*fmt, "reaches", term, target), 1)
        for argv in USAGE_ERRORS:
            yield Command("usage", (*fmt, *argv), 1)
    for argv in HELP:
        yield Command("help", (*argv, "--help"), 1)


def run(src: Path, command: Command) -> Outcome:
    """One command in a fresh interpreter that imports `ko7` from `src`;
    the tree's path is masked in the output so two trees compare equal."""
    env = dict(os.environ, PYTHONPATH=str(src), KO7_WORKERS=str(command.workers))
    # `-c` puts the working directory first on sys.path, so it is the tree too
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from ko7.cli import main; sys.exit(main())",
         *command.argv],
        env=env, cwd=src, stdin=subprocess.DEVNULL, capture_output=True, text=True,
    )
    mask = str(src)
    return Outcome(proc.returncode, proc.stdout.replace(mask, "<src>"),
                   proc.stderr.replace(mask, "<src>"))


def difference(a: Outcome, b: Outcome) -> str | None:
    """None when the outcomes are equal, else where they first differ."""
    if a.code != b.code:
        return f"exit code {a.code} != {b.code}"
    for stream in ("stdout", "stderr"):
        x, y = getattr(a, stream), getattr(b, stream)
        if x != y:
            xs, ys = x.splitlines(), y.splitlines()
            line = next((i for i, (p, q) in enumerate(zip(xs, ys)) if p != q), min(len(xs), len(ys)))
            return f"{stream} differs at line {line + 1} ({len(xs)} vs {len(ys)} lines)"
    return None


def compare(parent: Path, change: Path, matrix) -> list[tuple[Command, str]]:
    """Run each command on both trees; the ones whose outcomes differ."""
    differ = []
    for command in matrix:
        why = difference(run(parent, command), run(change, command))
        if why is not None:
            differ.append((command, why))
    return differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source tree that holds the parent's ko7")
    parser.add_argument("change", type=Path, help="source tree that holds the changed ko7")
    parser.add_argument("--max-size", type=int, default=8)
    args = parser.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "ko7" / "cli.py").is_file():
            parser.error(f"{tree} holds no ko7 package")
    matrix = list(commands(args.max_size))
    differ = compare(args.parent.resolve(), args.change.resolve(), matrix)
    for command, why in differ:
        print(f"DIFFERS: {command}: {why}")
    print(f"{len(matrix)} commands, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
