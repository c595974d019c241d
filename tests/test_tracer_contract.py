"""The benchmark's tracer wraps ko7 functions by (module, name).  A rename,
a removal or a turn into a generator function would break
`bench/run.py --trace 1` silently; this pins the contract from the library
side.  The tracer module is only read, never changed."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("ko7_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


TRACED = _traced()


def test_traced_table_is_not_empty():
    assert len(TRACED) >= 20


@pytest.mark.parametrize("module, name", [(m, f) for m, f, _, _ in TRACED])
def test_traced_function_exists_and_returns(module, name):
    fn = getattr(importlib.import_module(f"ko7.{module}"), name)
    assert callable(fn)
    # a generator's span would close before any of its work runs
    assert not inspect.isgeneratorfunction(fn)


@pytest.mark.parametrize("module, inner", sorted({(m, n) for m, _, names, _ in TRACED for n in names}))
def test_inner_names_are_bound_in_their_module(module, inner):
    assert callable(getattr(importlib.import_module(f"ko7.{module}"), inner))
