"""Command-line surface for the KO7 engine.

Terms are quoted S-expressions.  Exit status: 0 for success and expected
verdicts, 1 for check violations or exhausted fuel, 2 for usage, parse or
output errors (a negative fuel or budget, or a term nested too deeply to
process, is a usage error; a closed stdout is an output error).  `--json`
switches any subcommand to its documented JSON form.  Every handler
prints through `_emit`, handing it both forms unbuilt.  Printing text
walks no recursion, so the depth a command refuses is set by what still
recurses: the JSON encoder (about 490 levels) and a node's first measure
in `measure`, the safe normalizer and the guards of `merge t t` and
`eqw t t` (about 990).

Each handler imports the modules it calls, and `json` is imported only
under `--json`: every command is a fresh process, which would otherwise
compile and run modules that it never calls.  Only `terms` is imported
here, for `main`'s `TermError`.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Callable

from . import terms

if TYPE_CHECKING:
    from . import nogo, rewrite

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

# --relation value -> name of its `rewrite.RelationKind` member
_RELATIONS = {
    "safe": "SAFE_ROOT",
    "full": "FULL_ROOT",
    "safe-ctx": "SAFE_CTX",
    "full-ctx": "FULL_CTX",
}


class InputError(ValueError):
    """An input file that cannot be read as text, or a line of it that is
    not a term."""


def _emit(args, payload: Callable[[], dict], lines: Callable[[], list[str]]) -> None:
    """Print one result: under --json the JSON of `payload()`, else
    `lines()` joined by newlines.  The only writer of stdout.  Only the
    printed form is built: a full run's payload holds every step's two
    terms, and its text renders every step."""
    if args.json:
        import json

        print(json.dumps(payload(), sort_keys=True))
    else:
        print("\n".join(lines()))


def _emit_report(args, report, lines: Callable[[], list[str]]) -> int:
    """Print a check report as JSON, or as `lines()` and its PASS/FAIL
    verdict, and return its exit status."""
    _emit(args, report.to_json, lambda: [*lines(), "PASS" if report.ok else "FAIL"])
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _read_terms(args) -> list[terms.Term]:
    if getattr(args, "file", None):
        try:
            with open(args.file, encoding="utf-8") as handle:
                lines = handle.readlines()
        except (OSError, UnicodeDecodeError) as err:
            raise InputError(f"cannot read {args.file}: {err}") from None
        out = []
        for number, line in enumerate(lines, 1):
            if line.strip():
                try:
                    out.append(terms.parse(line))
                except terms.TermError as err:
                    raise InputError(f"{args.file}:{number}: {err}") from None
        return out
    return [terms.parse(args.term)]


def _witness_line(w: rewrite.StepWitness) -> str:
    pos = "[" + ",".join(str(i) for i in w.position) + "]"
    return f"{w.rule.value} @ {pos} -> {terms.render(w.result)}"


def _cmd_parse(args) -> int:
    for t in _read_terms(args):
        _emit(args, lambda: {"term": terms.term_to_json(t)}, lambda: [terms.render(t)])
    return EXIT_OK


def _cmd_step(args) -> int:
    from . import rewrite

    relation = rewrite.RelationKind[_RELATIONS[args.relation]]
    for t in _read_terms(args):
        witnesses = rewrite.steps(t, relation)
        _emit(
            args,
            lambda: {"steps": [w.to_json() for w in witnesses]},
            lambda: [_witness_line(w) for w in witnesses] or ["(no steps)"],
        )
    return EXIT_OK


def _cmd_normalize(args) -> int:
    from . import normalize

    fuel = normalize.DEFAULT_FUEL if args.fuel is None else args.fuel
    status = EXIT_OK
    for t in _read_terms(args):
        if args.json:
            # The payload holds t, and a full run's holds each step's two
            # terms.  A t too deep for the JSON encoder is refused here,
            # before a run whose payload could never be printed is built.
            import json

            json.dumps(terms.term_to_json(t))
        if args.relation == "safe":
            trace = normalize.normalize_safe(t)
            _emit(args, trace.to_json, lambda: [
                *(
                    f"{s.witness.rule.value}: {terms.render(s.witness.source)} -> "
                    f"{terms.render(s.witness.result)}   {s.before} -> {s.after}"
                    for s in (trace.steps if args.trace else ())
                ),
                terms.render(trace.final_term),
            ])
        else:
            run = normalize.normalize_full(t, fuel)
            if not run.normalized:
                status = EXIT_VIOLATION
            _emit(args, run.to_json, lambda: [
                *(_witness_line(w) for w in (run.steps if args.trace else ())),
                terms.render(run.term) if run.normalized else
                f"fuel exhausted after {run.steps_taken} steps at: {terms.render(run.term)}",
            ])
    return status


def _cmd_measure(args) -> int:
    from . import measure

    for t in _read_terms(args):
        m = measure.measure3(t)
        _emit(
            args,
            lambda: {"measure": m.to_json()},
            lambda: [f"dflag: {m.dflag}", f"kappaM: {m._kappa_text()}", f"tau: {m.tau}"],
        )
    return EXIT_OK


def _cmd_reaches(args) -> int:
    from . import normalize

    verdict = normalize.reaches_target(terms.parse(args.term), terms.parse(args.target))
    _emit(args, lambda: {"reaches": verdict}, lambda: ["true" if verdict else "false"])
    return EXIT_OK


def _cmd_witness_nonjoin(args) -> int:
    from . import confluence

    try:
        witness = confluence.non_join_witness(budget=args.budget, fuel=args.fuel)
    except confluence.FuelExhaustedError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VIOLATION
    _emit(args, witness.to_json, lambda: [
        f"source: {terms.render(witness.source)}",
        f"reduct A [eq_refl]: {terms.render(witness.reduct_refl)}",
        f"reduct B [eq_diff]: {terms.render(witness.reduct_diff)}",
        f"normal form A: {terms.render(witness.normal_refl)}",
        f"normal form B: {terms.render(witness.normal_diff)}",
        f"verdict: {witness.verdict} (budget {args.budget})",
    ])
    return EXIT_OK if witness.ok else EXIT_VIOLATION


def _cmd_check_decrease(args) -> int:
    from . import measure, workers

    report = measure.decrease_sweep(args.max_size, workers=workers.resolve_workers())
    d = report.decided_by
    return _emit_report(args, report, lambda: [
        f"checked: {report.checked} guarded root instances (size <= {args.max_size})",
        f"violations: {len(report.violations)}",
        f"decided by: dflag={d['dflag']} kappaM={d['kappaM']} tau={d['tau']}",
        *(
            f"  {rule}: " + " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
            for rule, counts in sorted(report.by_rule.items())
        ),
    ])


def _cmd_check_local_join(args) -> int:
    from . import confluence, rewrite, workers

    relation = rewrite.RelationKind[_RELATIONS[args.relation]]
    report = confluence.local_join_sweep(
        args.max_size, relation, args.budget, workers=workers.resolve_workers()
    )
    return _emit_report(args, report, lambda: [
        f"relation: {report.relation}",
        f"forks checked: {report.forks_checked} (size <= {args.max_size})",
        f"joined: {report.joined}",
        f"inconclusive: {len(report.inconclusive)}",
        f"violations: {len(report.violations)}",
    ])


def _cmd_check_unique_nf(args) -> int:
    from . import confluence, workers

    report = confluence.unique_nf_sweep(args.max_size, workers=workers.resolve_workers())
    return _emit_report(args, report, lambda: [
        f"terms checked: {report.terms_checked} (size <= {args.max_size})",
        f"violations: {len(report.violations)}",
    ])


def _cmd_check_coverage(args) -> int:
    from . import confluence, workers

    report = confluence.root_coverage_sweep(args.max_size, workers=workers.resolve_workers())
    return _emit_report(args, report, lambda: [
        *(f"{shape}: {n} instance(s)" for shape, n in report.to_json()["instances"].items()),
        f"target mismatches: {len(report.mismatches)}",
        f"guard-blocked eqw instances checked: {report.vacuous_checked}, "
        f"violations: {len(report.vacuous_violations)}",
    ])


def _counterexample(hunt: nogo.HuntReport) -> str:
    from .nogo import render_value

    report = hunt.counterexample
    w = report.witness
    before = render_value(report.value_before)
    after = render_value(report.value_after)
    return (
        f"counterexample: {w.rule.value} on {terms.render(w.source)}: "
        f"{before} -> {after} ({report.verdict})"
    )


def _cmd_check_nogo(args) -> int:
    from . import nogo, rewrite

    if args.family:
        try:
            family = nogo.catalog_family(args.family)
        except KeyError:
            names = ", ".join(f.name for f in nogo.catalog())
            print(f"error: unknown family {args.family!r} (one of: {names})", file=sys.stderr)
            return EXIT_USAGE
        hunt = nogo.find_violation(family, max_size=args.max_size)
        _emit(args, hunt.to_json, lambda: [
            f"family: {family.name}",
            *(
                [_counterexample(hunt), "PASS (counterexample found, as expected for this family)"]
                if hunt.found
                else [f"no counterexample found over {hunt.scanned} instances", "FAIL"]
            ),
        ])
        return EXIT_OK if hunt.found else EXIT_VIOLATION

    hunts = [nogo.find_violation(f, max_size=args.max_size) for f in nogo.catalog()]
    canonical = nogo.find_violation(
        nogo.canonical_family(), rewrite.RelationKind.SAFE_ROOT, args.max_size
    )
    ok = all(h.found for h in hunts) and not canonical.found
    verdict = "no violation" if not canonical.found else "VIOLATION"
    _emit(
        args,
        lambda: {"families": [h.to_json() for h in hunts], "canonical": canonical.to_json()},
        lambda: [
            *(
                f"{h.family}: {_counterexample(h) if h.found else 'NO COUNTEREXAMPLE: -'}"
                for h in hunts
            ),
            f"canonical-triple on guarded relation: {verdict} over {canonical.scanned} instances",
            "PASS" if ok else "FAIL",
        ],
    )
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_check_lpo(args) -> int:
    from . import nogo

    report = nogo.lpo_boundary_report(max_size=args.max_size)
    rank_only = report.rank_only
    return _emit_report(args, report, lambda: [
        f"orienting precedences: {report.orienting_count} of {report.precedences_checked}",
        f"first: {' < '.join(report.precedence) or '-'}",
        f"instances checked: {report.instances_checked}",
        *([f"precedence rank alone: {_counterexample(rank_only)}"] if rank_only.found else []),
    ])


def _cmd_check_stress(args) -> int:
    from . import nogo

    report = nogo.duplication_stress(args.max_size)
    return _emit_report(args, report, lambda: [
        f"rec_succ instances: {report.instances} (size <= {args.max_size})",
        f"fitted identity: {report.identity or 'none (no rec_succ instance)'}",
        f"identity failures: {len(report.failures)}",
        f"strict size drops: {report.strict_drops}",
    ])


# name, handler, help, default --max-size
_CHECKS = (
    ("decrease", _cmd_check_decrease, "per-step measure decrease sweep", 6),
    ("local-join", _cmd_check_local_join, "single-step fork joinability sweep", 6),
    ("unique-nf", _cmd_check_unique_nf, "unique normal form sweep", 6),
    ("coverage", _cmd_check_coverage, "root shape and target coverage sweep", 6),
    ("nogo", _cmd_check_nogo, "failed-measure catalog hunt", 6),
    ("lpo", _cmd_check_lpo, "path-order boundary demonstration", 5),
    ("stress", _cmd_check_stress, "duplication size identity", 6),
)


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_term_argument(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("term", nargs="?", help="term as a quoted S-expression")
    group.add_argument("--file", help="read one term per line instead")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ko7", description="KO7 rewrite calculus engine"
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="echo the canonical form of a term")
    _add_term_argument(p)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("step", help="list one-step successors")
    _add_term_argument(p)
    p.add_argument("--relation", choices=sorted(_RELATIONS), default="safe")
    p.set_defaults(func=_cmd_step)

    p = sub.add_parser("normalize", help="reduce to a normal form")
    _add_term_argument(p)
    p.add_argument("--relation", choices=["safe", "full"], default="safe")
    p.add_argument("--trace", action="store_true", help="print each step")
    p.add_argument("--fuel", type=_non_negative_int, default=None)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("measure", help="print the termination measure")
    _add_term_argument(p)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("reaches", help="decide fixed-target reachability")
    p.add_argument("term")
    p.add_argument("target")
    p.set_defaults(func=_cmd_reaches)

    p = sub.add_parser("witness", help="exhibit built-in witnesses")
    wsub = p.add_subparsers(dest="witness", required=True)
    w = wsub.add_parser("nonjoin", help="the full-relation non-join witness")
    w.add_argument("--budget", type=_non_negative_int, default=1000)
    w.add_argument("--fuel", type=_non_negative_int, default=1000)
    w.set_defaults(func=_cmd_witness_nonjoin)

    p = sub.add_parser("check", help="run a sweep or catalog check")
    csub = p.add_subparsers(dest="check", required=True)

    checks = {}
    for name, func, help_text, max_size in _CHECKS:
        c = checks[name] = csub.add_parser(name, help=help_text)
        c.add_argument("--max-size", type=int, default=max_size)
        c.set_defaults(func=func)
    checks["local-join"].add_argument("--relation", choices=["safe", "safe-ctx"], default="safe")
    checks["local-join"].add_argument("--budget", type=_non_negative_int, default=200)
    checks["nogo"].add_argument("--family", help="check one catalog family by name")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return status
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: let that go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except (terms.TermError, InputError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: term too deep (nesting exceeds the recursion limit)", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
