"""One benchmark operation in a fresh process.

    child.py [--spans FILE] terms        terms on stdin, one per line
    child.py [--spans FILE] kbo BOUND    ko7.kbo_search(BOUND)
    child.py [--spans FILE] cli ARGS...  ko7.cli.main(ARGS)

With --spans the library is traced (see tracer.py) and the spans are
written to FILE when the operation ends.  `ko7` is imported from
PYTHONPATH, which the benchmark points at the checkout's `src/`.
"""

from __future__ import annotations

import sys
import time


def run_terms(ko7, lines: list[str]) -> int:
    """Per term: parse -> normalize_full -> render, then ctx_steps_full of
    the normal form, then measure3 of the source.  Prints one line per
    term: latency in ns, normalized flag, successor count of the normal
    form, and the normal form with its step count and measure."""
    out = []
    clock = time.perf_counter_ns
    for text in lines:
        start = clock()
        term = ko7.parse(text)
        run = ko7.normalize_full(term)
        normal = ko7.render(run.term)
        successors = len(ko7.ctx_steps_full(run.term))
        measure = ko7.measure3(term)
        elapsed = clock() - start
        out.append(f"{elapsed}\t{int(run.normalized)}\t{successors}\t{normal} {run.steps_taken} {measure}")
    print("\n".join(out))
    return 0


def run_kbo(ko7, bound: int) -> int:
    report = ko7.kbo_search(bound)
    print(f"assignments checked: {report.assignments_checked}")
    print(f"orienting assignments: {report.orienting_assignments}")
    print(f"example: {report.example.to_json()}")
    print("PASS" if report.ok else "FAIL")
    return 0 if report.ok else 1


def main(argv: list[str]) -> int:
    spans = None
    if argv[0] == "--spans":
        spans, argv = argv[1], argv[2:]
    mode, args = argv[0], argv[1:]

    import ko7
    import ko7.cli

    tracer = None
    if spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    op = {
        "terms": lambda: run_terms(ko7, sys.stdin.read().splitlines()),
        "kbo": lambda: run_kbo(ko7, int(args[0])),
        "cli": lambda: ko7.cli.main(args),
    }[mode]
    if tracer is None:
        return op()
    try:
        return tracer.call("cli.main" if mode == "cli" else f"bench.{mode}", op)
    finally:
        tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
