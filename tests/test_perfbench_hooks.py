"""The benchmark's tracer finds every oscnet attribute it wraps by name.

`perfbench/spans.py` measures oscnet from outside by swapping module
attributes (``layers.apply_grad``, ``xorlab.apply``, ...).  Declaring its
wrappers ``getattr``s each of them, so a refactor that deletes or renames one
fails here, not only in the benchmark.  The tracer is never installed, so
nothing is patched.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look the module up
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer(monkeypatch):
    spans, common = _load("spans", monkeypatch), _load("common", monkeypatch)
    tracer = spans.Tracer()
    tracer.wrap_oscnet(common.oscnet_modules())
    return tracer


def test_every_wrapped_attribute_exists_and_stays_unpatched(tracer):
    assert tracer._patches
    for owner, attr, original, wrapper in tracer._patches:
        assert getattr(owner, attr) is original is not wrapper


def test_the_hooks_kept_only_for_the_tracer_are_wrapped(tracer):
    wrapped = {(owner.__name__.rpartition(".")[2], attr) for owner, attr, *_ in tracer._patches}
    assert {("layers", "apply_grad"), ("properties", "derivative"),
            ("activations", "apply_grad"), ("xorlab", "apply"),
            ("xorlab", "evaluate")} <= wrapped
