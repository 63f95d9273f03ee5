"""The benchmark's per-layer span names still name public functions of monalg.

``perfbench/spans.py`` times the public functions of its traced modules by
name; a name in ``BENCHMARK.json`` that no longer resolves, or that a run
no longer reaches (a suite that bypasses a public check), would make
``perfbench/run.py --trace 1`` report it as not measured.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from monalg import quadrature

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


# The tracer rewrites module namespaces, so the traced run gets its own process.
TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import monalg.cli as cli
from spans import Tracer
tracer = Tracer()
tracer.install()
code = cli.main(["verify", "--algebra", "example1", "--suite", "all", "--seed", "1",
                 "--out", sys.argv[2]])
with open(sys.argv[3], "w") as handle:
    json.dump({"exit": code, "spans": tracer.stats}, handle)
"""


def test_traced_run_measures_every_span(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    stats_path = tmp_path / "stats.json"
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN, str(ROOT / "perfbench"),
                           str(tmp_path / "r"), str(stats_path)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    stats = json.loads(stats_path.read_text())
    assert stats["exit"] == 0
    unmeasured = []
    for name in _span_names():
        span, key = name.rsplit(".", 1)
        if not stats["spans"].get(span, {}).get(key):
            unmeasured.append(name)
    assert unmeasured == []


@pytest.mark.parametrize("engine, integrand", [
    ("trapezoid_periodic", lambda t: np.exp(np.cos(t))[:, None]),
    ("gauss_segment", lambda t: np.exp(t)[:, None]),  # accepted at level 0
    ("gauss_segment", lambda t: np.sqrt(t + 1e-3)[:, None]),
], ids=["trapezoid", "gauss-level0", "gauss-refined"])
def test_quadrature_counts_match_the_evaluated_points(engine, integrand):
    # the benchmark derives its point and level counts from the history of
    # one call; they must equal what the integrand really saw
    seen = []

    def f(tau):
        seen.append(len(tau))
        return integrand(tau)

    result = getattr(quadrature, engine)(f)
    assert SPANS.quadrature_counts(result) == (sum(seen), len(seen))
