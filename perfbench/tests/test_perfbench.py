"""Tests of the benchmark itself; they run real workload processes.

    python3 -m pytest perfbench/tests -q

About half a minute on two cores.  The tier-1 suite does not collect them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import make_chain  # noqa: E402
import run as bench  # noqa: E402
from spans import quadrature_counts  # noqa: E402

COUNT_KEYS = ("calls", "points", "levels")


@pytest.fixture(scope="module")
def outdir():
    bench.OUT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="tests-", dir=bench.OUT))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def processes(outdir):
    """Run workload processes once per (workload, seed, trace) and cache them."""
    cache = {}

    def get(workload: str, seed: int, trace: int, copy: int = 0):
        key = (workload, seed, trace, copy)
        if key not in cache:
            proc = bench.WORKLOADS[workload].procs[0]
            prefix = outdir / "-".join(map(str, key))
            out = str(prefix.relative_to(ROOT))
            run = bench.run_child([str(trace), *proc.argv(seed, out)], prefix,
                                  time.monotonic() + 170)
            assert run.code in (0, 1), bench.stderr_tail(prefix)
            cache[key] = (Path(f"{prefix}.json").read_bytes(), run.stats)
        return cache[key]

    return get


def counts(stats: dict) -> dict:
    return {f"{name}.{key}": value for name, stat in stats["spans"].items()
            for key, value in stat.items() if key in COUNT_KEYS}


def check_names(report: bytes) -> list:
    return [c["name"] for c in json.loads(report)["checks"]]


@pytest.mark.parametrize("workload", ["deep-radical", "principal-extension"])
def test_traced_and_untraced_reports_are_byte_identical(processes, workload):
    untraced, _ = processes(workload, 3, 0)
    traced, stats = processes(workload, 3, 1)
    assert traced == untraced
    assert stats["spans"], "the traced process recorded no spans"


def test_machine_free_counts_repeat_exactly(processes):
    first = counts(processes("deep-radical", 3, 1)[1])
    second = counts(processes("deep-radical", 3, 1, copy=1)[1])
    assert first == second
    assert first["quadrature.gauss_segment.points"] > 0
    assert first["quadrature.trapezoid_periodic.levels"] > 0
    assert first["io.load_algebra.calls"] == 1


@pytest.mark.parametrize("workload", ["deep-radical", "principal-extension"])
def test_check_names_do_not_depend_on_the_seed(processes, workload):
    expected = json.loads((BENCH / "expected_checks.json").read_text())[workload][0]["names"]
    assert check_names(processes(workload, 3, 0)[0]) == expected
    assert check_names(processes(workload, 4, 0)[0]) == expected


def test_report_digests_are_compared_within_one_program(outdir):
    digests = outdir / "digests"
    parent = bench.ReportDigests(digests, "program-a")
    assert parent.matches("deep-radical-1-0", b"report", remember=True)
    assert parent.matches("deep-radical-1-0", b"report", remember=True)
    assert not parent.matches("deep-radical-1-0", b"changed report", remember=True)
    change = bench.ReportDigests(digests, "program-b")
    assert change.matches("deep-radical-1-0", b"changed report", remember=True)
    assert not change.matches("deep-radical-1-0", b"report", remember=True)


def test_program_fingerprint_follows_the_sources(outdir):
    copy = outdir / "fingerprint"
    shutil.copytree(ROOT / "src" / "monalg", copy / "src" / "monalg",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, copy / "perfbench", ignore=shutil.ignore_patterns("_out"))
    before = bench.program_fingerprint(copy)
    assert before == bench.program_fingerprint(ROOT)
    with open(copy / "src" / "monalg" / "algebra.py", "a") as handle:
        handle.write("\n# changed\n")
    assert bench.program_fingerprint(copy) != before


def test_quadrature_counts_match_the_evaluated_points():
    from monalg.quadrature import gauss_segment, trapezoid_periodic

    import numpy as np

    for engine, integrand in ((trapezoid_periodic, lambda t: np.exp(np.cos(t))[:, None]),
                              (gauss_segment, lambda t: np.sqrt(t + 1e-3)[:, None])):
        seen = []

        def f(tau):
            seen.append(len(tau))
            return integrand(tau)

        assert quadrature_counts(engine(f)) == (sum(seen), len(seen))


def test_deep_radical_inputs_follow_the_rule(outdir, monkeypatch):
    assert make_chain.check() == []
    target = outdir / "chain"
    monkeypatch.setattr(make_chain, "DATA", target)
    monkeypatch.setattr(make_chain, "ALGEBRA_FILE", target / "chain12.json")
    monkeypatch.setattr(make_chain, "FRAME_FILE", target / "chain12_frame.json")
    assert make_chain.main([]) == 0
    for name in ("chain12.json", "chain12_frame.json"):
        assert (target / name).read_bytes() == (BENCH / "data" / name).read_bytes()


def test_fails_without_the_program(outdir):
    target = outdir / "bare"
    shutil.copytree(BENCH, target / "perfbench", ignore=shutil.ignore_patterns("_out"))
    shutil.copy(ROOT / "BENCHMARK.json", target)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep-radical", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=target, capture_output=True, text=True, timeout=180)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
