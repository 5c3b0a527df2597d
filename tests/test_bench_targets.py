"""The benchmark tracer's targets exist in the library.

perfbench/tracer.py wraps the library functions and methods it names in
SPANNED and the ExactScalar operations in SCALAR_COUNTED, looking each one
up at install time.  These tests resolve every target the same way, so a
refactor that removes a spanned name, or turns a spanned method into an
inherited one, fails here and not only when the benchmark runs with
tracing on.  The tracer file is loaded read-only and never installed.
"""

import importlib.util
from pathlib import Path

import pytest

from klrwcb.scalars import ExactScalar

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_klrwcb_bench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize("metric, modname, path", TRACER.SPANNED,
                         ids=[entry[0] for entry in TRACER.SPANNED])
def test_spanned_target_resolves(metric, modname, path):
    module = importlib.import_module("klrwcb." + modname)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        # a method must be defined on the class itself, as Tracer.install
        # reads it from vars(owner)
        assert attr in vars(getattr(module, owner_name)), path
    else:
        assert callable(getattr(module, attr)), path


def test_scalar_counted_attributes_are_own():
    for counter, attr in TRACER.SCALAR_COUNTED:
        assert attr in vars(ExactScalar), (counter, attr)
