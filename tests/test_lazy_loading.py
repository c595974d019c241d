"""`import ko7` loads no submodule, and a `ko7` command loads only the
modules it runs.  Each command is a fresh process, so a module it never
calls is start-up time paid for nothing."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ko7

SRC = str(Path(ko7.__file__).resolve().parent.parent)

SUBMODULES = ("confluence", "measure", "nogo", "normalize", "rewrite", "terms", "workers")

# the package's public names, as its eager imports bound them
NAMES = [
    "ArityError", "CatalogReport", "CounterexampleReport", "CoverageReport",
    "DecreaseReport", "Fork", "FullRunResult", "HuntReport", "InvalidPositionError",
    "JoinResult", "KboReport", "LpoReport", "Measure3", "MeasureFamily",
    "MeasureInvariantError", "NonJoinWitness", "ParseError", "PolyReport", "Position",
    "RelationKind", "RuleId", "StepWitness", "StressReport", "SweepReport",
    "TargetNotNormalError", "Term", "TermError", "Trace", "UniqueNFReport", "VOID",
    "app", "canonical_family", "catalog", "catalog_family", "catalog_report",
    "confluence", "ctx_steps_full", "ctx_steps_safe", "decrease_sweep", "delta",
    "delta_flag", "dm_less", "duplication_stress",
    "enumerate_terms", "eqw", "find_violation", "forks", "guarded_root_normal_forms",
    "integrate", "joinable", "kappa_depth", "kappa_m",
    "kbo_search", "local_join_sweep", "lpo_boundary_report", "lpo_greater",
    "measure", "measure3", "merge", "nogo", "non_join_witness", "normalize",
    "normalize_full", "normalize_safe", "parse", "poly_search", "positions",
    "reaches_target", "rec", "render", "replace_at", "rewrite", "root_coverage_sweep",
    "root_steps_full", "root_steps_safe", "size", "steps", "subterm_at", "subterms",
    "term_from_json", "term_to_json", "terms", "terms_of_size", "tree_depth",
    "unique_nf_sweep", "workers",
]


def _loaded(code: str, *argv: str) -> dict:
    """Run `code` in a fresh interpreter that imports `ko7` from this tree,
    with sys.argv[1:] = argv and one serial worker: its exit code, and the
    `ko7` modules, `json`, `concurrent.futures`, `dataclasses` and
    `inspect` that were loaded when it ended."""
    probe = (
        "import atexit, sys\n"
        "probed = ('json', 'concurrent.futures', 'dataclasses', 'inspect')\n"
        "atexit.register(lambda: print(sorted(m for m in sys.modules if m.startswith('ko7')\n"
        "    or m in probed), file=sys.stderr))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe + code, *argv],
        env={**os.environ, "PYTHONPATH": SRC, "KO7_WORKERS": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    return {"code": result.returncode, "modules": ast.literal_eval(result.stderr.splitlines()[-1])}


def test_the_public_names():
    assert ko7.__all__ == NAMES
    assert set(NAMES) <= set(dir(ko7))
    assert {"__doc__", "__file__", "__name__", "__path__"} <= set(dir(ko7))


def test_each_name_is_its_module_object():
    modules = [importlib.import_module(f"ko7.{m}") for m in SUBMODULES]
    for name in NAMES:
        value = getattr(ko7, name)
        if name in SUBMODULES:
            assert value is sys.modules[f"ko7.{name}"]
            continue
        homes = [m for m in modules if name in vars(m)]
        assert homes and all(vars(m)[name] is value for m in homes), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from ko7 import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == NAMES
    assert all(namespace[n] is getattr(ko7, n) for n in NAMES)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nonsense'"):
        ko7.nonsense
    assert not hasattr(ko7, "count_terms")  # in ko7.terms, not re-exported
    with pytest.raises(ImportError):
        exec("from ko7 import nonsense", {})


def test_import_loads_no_submodule_and_a_name_loads_its_own():
    assert _loaded("import ko7")["modules"] == ["ko7"]
    assert _loaded("import ko7; ko7.parse")["modules"] == ["ko7", "ko7.terms"]
    assert _loaded("from ko7 import nogo")["modules"] == [
        "ko7", "ko7.measure", "ko7.nogo", "ko7.rewrite", "ko7.terms", "ko7.workers"
    ]


CLI = ["ko7", "ko7.cli", "ko7.terms"]
MEASURE = sorted([*CLI, "ko7.measure", "ko7.rewrite", "ko7.workers"])  # measure imports both
NORMALIZE = sorted([*MEASURE, "ko7.normalize"])
# the sweeps of confluence never normalize; only the non-join witness does
CONFLUENCE = sorted([*CLI, "ko7.confluence", "ko7.rewrite", "ko7.workers"])
NONJOIN = sorted([*NORMALIZE, "ko7.confluence"])
NOGO = sorted([*MEASURE, "ko7.nogo"])

# one command per family, and the ko7 modules it loads
COMMANDS = [
    (("parse", "void"), CLI),
    (("step", "(eqw void void)"), sorted([*CLI, "ko7.rewrite"])),
    (("normalize", "(eqw void void)"), NORMALIZE),
    (("measure", "void"), MEASURE),
    (("reaches", "void", "void"), NORMALIZE),
    (("witness", "nonjoin"), NONJOIN),
    (("check", "decrease", "--max-size", "4"), MEASURE),
    (("check", "local-join", "--max-size", "4"), CONFLUENCE),
    (("check", "unique-nf", "--max-size", "4"), CONFLUENCE),
    (("check", "coverage", "--max-size", "5"), CONFLUENCE),
    (("check", "nogo", "--family", "size", "--max-size", "4"), NOGO),
    (("check", "lpo", "--max-size", "3"), NOGO),
    (("check", "stress", "--max-size", "5"), NOGO),
]


@pytest.mark.parametrize("argv, modules", COMMANDS, ids=[" ".join(c[:2]) for c, _ in COMMANDS])
def test_a_command_loads_only_what_it_runs(argv, modules):
    # json is imported only under --json
    run = "import sys; from ko7.cli import main; sys.exit(main(sys.argv[1:]))"
    assert _loaded(run, *argv) == {"code": 0, "modules": modules}
    assert _loaded(run, "--json", *argv) == {"code": 0, "modules": sorted([*modules, "json"])}
