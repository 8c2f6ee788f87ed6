"""The benchmark tracer patches mspace attributes by name; they must all exist.

A renamed or deleted method would otherwise break only the traced benchmark
run, with a KeyError, while every other test still passes.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "module, qualname",
    [(m, q) for m, names in sorted(tracer.METHODS.items()) for q in names],
)
def test_traced_method_is_defined_on_its_class(module, qualname):
    cls_name, meth = qualname.split(".")
    cls = getattr(importlib.import_module(f"mspace.{module}"), cls_name)
    # the tracer reads the class __dict__, so an inherited method would not do
    assert inspect.isfunction(cls.__dict__.get(meth))


@pytest.mark.parametrize(
    "module, attr",
    [(m, a) for m, names in sorted(tracer.PRIVATE.items()) for a in names],
)
def test_traced_private_function_exists(module, attr):
    assert inspect.isfunction(getattr(importlib.import_module(f"mspace.{module}"), attr, None))
