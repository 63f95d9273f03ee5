"""The runtime imports nothing but the standard library, numpy and monalg itself.

This keeps ``src`` numpy-only, and keeps it from reaching the test oracles
in ``tests/``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "monalg"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "monalg"}


def imported_roots(tree):
    """Top-level package of every absolute import in ``tree``; relative ones are monalg's."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_imports_only_the_standard_library_numpy_and_monalg():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    outside = {path.name: sorted(set(imported_roots(ast.parse(path.read_text()))) - ALLOWED)
               for path in modules}
    assert {name: roots for name, roots in outside.items() if roots} == {}


_VERIFY_ALL = """
import sys
from monalg.cli import main
assert main(["verify", "--algebra", "example1", "--suite", "all", "--out", sys.argv[1]]) == 0
sys.stderr.write(" ".join(sorted(name for name in sys.modules if name.startswith("numpy.polynomial"))))
"""


def test_verify_all_never_imports_numpy_polynomial(tmp_path):
    # Gauss-Legendre nodes come from monalg's own recurrence: numpy.polynomial
    # would cost every process its import
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent),
                                                                    os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _VERIFY_ALL, str(tmp_path / "report")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
