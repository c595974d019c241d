"""KO7: an operator-only rewrite calculus with a guarded, strongly
normalizing fragment, executable end to end.

Seven constructors, eight kernel rules, a triple-lexicographic termination
certificate, a total normalizer, a confluence workbench, a reachability
decider, and an executable catalog of failed termination measures.

`import ko7` loads no submodule.  Each public name below is imported from
its module on first access (PEP 562), and the submodules themselves
(`ko7.nogo`, ...) load the same way, so a program pays only for the
modules it uses.
"""

import importlib

# module -> the public names the package re-exports from it
_EXPORTS = {
    "confluence": (
        "CoverageReport",
        "Fork",
        "JoinResult",
        "NonJoinWitness",
        "SweepReport",
        "UniqueNFReport",
        "forks",
        "guarded_root_normal_forms",
        "joinable",
        "local_join_sweep",
        "non_join_witness",
        "root_coverage_sweep",
        "unique_nf_sweep",
    ),
    "measure": (
        "DecreaseReport",
        "Measure3",
        "decrease_sweep",
        "dm_less",
        "kappa_m",
        "lex3_less",
        "measure3",
        "tau",
    ),
    "nogo": (
        "CounterexampleReport",
        "HuntReport",
        "KboReport",
        "LpoReport",
        "MeasureFamily",
        "PolyReport",
        "StressReport",
        "canonical_family",
        "catalog",
        "catalog_family",
        "duplication_depth_tie",
        "duplication_stress",
        "find_violation",
        "kappa_depth",
        "kbo_search",
        "lpo_boundary_report",
        "lpo_greater",
        "poly_search",
        "render_value",
        "tree_depth",
    ),
    "normalize": (
        "FullRunResult",
        "MeasureInvariantError",
        "TargetNotNormalError",
        "Trace",
        "is_normal_form_safe",
        "normalize_full",
        "normalize_safe",
        "reaches_target",
    ),
    "rewrite": (
        "RelationKind",
        "RuleId",
        "StepWitness",
        "ctx_steps_full",
        "ctx_steps_safe",
        "delta_flag",
        "root_steps_full",
        "root_steps_safe",
        "steps",
    ),
    "terms": (
        "ArityError",
        "InvalidPositionError",
        "ParseError",
        "Position",
        "Term",
        "TermError",
        "VOID",
        "app",
        "delta",
        "enumerate_terms",
        "eqw",
        "integrate",
        "merge",
        "parse",
        "positions",
        "rec",
        "render",
        "replace_at",
        "size",
        "subterm_at",
        "subterms",
        "term_from_json",
        "term_to_json",
        "terms_of_size",
    ),
    "workers": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_OWNER])


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule binds it on the package
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
