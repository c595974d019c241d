"""KO7: an operator-only rewrite calculus with a guarded, strongly
normalizing fragment, executable end to end.

Seven constructors, eight kernel rules, a triple-lexicographic termination
certificate, a total normalizer, a confluence workbench, a reachability
decider, and an executable catalog of failed termination measures.
"""

from .confluence import (
    CoverageReport,
    Fork,
    JoinResult,
    NonJoinWitness,
    SweepReport,
    UniqueNFReport,
    forks,
    guarded_root_normal_forms,
    joinable,
    local_join_sweep,
    non_join_witness,
    root_coverage_sweep,
    unique_nf_sweep,
)
from .measure import (
    DecreaseReport,
    Measure3,
    decrease_sweep,
    dm_less,
    kappa_m,
    lex3_less,
    measure3,
    tau,
)
from .nogo import (
    CounterexampleReport,
    HuntReport,
    KboReport,
    LpoReport,
    MeasureFamily,
    PolyReport,
    StressReport,
    canonical_family,
    catalog,
    catalog_family,
    duplication_depth_tie,
    duplication_stress,
    find_violation,
    kappa_depth,
    kbo_search,
    lpo_boundary_report,
    lpo_greater,
    poly_search,
    render_value,
    tree_depth,
)
from .normalize import (
    FullRunResult,
    MeasureInvariantError,
    TargetNotNormalError,
    Trace,
    is_normal_form_safe,
    normalize_full,
    normalize_safe,
    reaches_target,
)
from .rewrite import (
    RelationKind,
    RuleId,
    StepWitness,
    ctx_steps_full,
    ctx_steps_safe,
    delta_flag,
    root_steps_full,
    root_steps_safe,
    steps,
)
from .terms import (
    ArityError,
    InvalidPositionError,
    ParseError,
    Position,
    Term,
    TermError,
    VOID,
    app,
    delta,
    enumerate_terms,
    eqw,
    integrate,
    merge,
    parse,
    positions,
    rec,
    render,
    replace_at,
    size,
    subterm_at,
    subterms,
    term_from_json,
    term_to_json,
    terms_of_size,
)

__all__ = [name for name in dir() if not name.startswith("_")]
