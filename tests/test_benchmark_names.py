"""The benchmark's per-layer span names still name public functions of monalg.

``perfbench/spans.py`` times the public functions of its traced modules by
name; a name in ``BENCHMARK.json`` that no longer resolves would make
``perfbench/run.py --trace 1`` report it as not measured.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()
SPAN_KEYS = {"calls", "s", "self_s", "points", "levels"}


def _span_names():
    """Per-layer metric names of ``BENCHMARK.json`` that the tracer records."""
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = [entry["name"] for entry in per_layer]
    # two-part names such as ``monogenic.principal_pt_s`` are kernel timings
    return [name for name in names
            if name.split(".")[0] in SPANS.TRACED_MODULES and name.count(".") >= 2]


@pytest.mark.parametrize("name", _span_names())
def test_span_name_resolves_to_a_public_function(name):
    layer, *path, key = name.split(".")
    assert key in SPAN_KEYS
    module = importlib.import_module(f"monalg.{layer}")
    if layer == "suites":
        assert path[0] in module.SUITES
        return
    owner, target = module, module
    for attr in path:
        assert not attr.startswith("_")
        owner, target = target, getattr(target, attr, None)
        assert target is not None, f"monalg.{layer} has no {'.'.join(path)}"
    assert inspect.isfunction(target)
    if owner is module:
        # the tracer wraps only functions defined in the module itself
        assert target.__module__ == module.__name__
    else:
        assert inspect.isclass(owner) and owner.__module__ == module.__name__


def test_every_traced_layer_is_checked():
    layers = {name.split(".")[0] for name in _span_names()}
    assert layers >= {"quadrature", "integrals", "monogenic", "curves", "io"}
