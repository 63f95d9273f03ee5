"""Time-to-verdict benchmark for monalg.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One pass runs a workload's processes one
after another (a closed loop with one client; every process has one BLAS
thread).  The run repeats passes until ``S`` seconds have gone, checks each
process's verdict, prints a table of every metric with its unit, writes the
full results to ``perfbench/_out/results/``, and prints one JSON line last.

Pass times are also quoted at a fixed machine speed: ``SpeedReference`` is
timed between passes and scales them (see perfbench/README.md, Noise).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics from the traced
ones (spans recorded by ``spans.Tracer`` around the public functions of
``suites``, ``integrals``, ``quadrature``, ``monogenic``, ``curves`` and
``io``) plus kernel timings from ``kernels.py``, and prints the end-to-end
table of its untraced passes too.

The seed selects the program's inputs: ``--seed`` of ``monalg verify`` and of
the principal-extension script, which draw the sampled points and triangles
from it.  A run counts as failed, and ``correct`` turns false, when a
process crashes or times out, when its check names differ from
``expected_checks.json``, when its exit code is not 0 exactly when every
check passed, or when its JSON report differs in a single byte from another
report for the same seed made by the same program in this checkout (earlier
passes, earlier runs, traced or not; see ``ReportDigests``).  Checks that
FAIL are verdicts, not failed runs: they count in ``checks_passed_frac``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
DATA = "perfbench/data"
DEADLINE_S = 170.0  # a run ends within 180 s
REFERENCE_NOMINAL_S = 0.2  # reference time at the speed scaled times are quoted at
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SUITE_SPANS = tuple(f"suites.{name}" for name in
                    ("axioms", "oracle", "cr", "cauchy", "lambda", "morera", "formula",
                     "predicates"))
CHECK_SPANS = ("integrals.cauchy_theorem_check", "integrals.cauchy_formula_check",
               "integrals.morera_check")
REPORT_SPANS = ("io.reports_to_json", "io.reports_to_csv", "io.reports_to_text")

# Per-layer metrics in BENCHMARK.json: every metric here is non-zero on every
# workload; the other spans are in the table and the results file.
PER_LAYER = {
    "quadrature.trapezoid_periodic.calls": "count",
    "quadrature.trapezoid_periodic.points": "count",
    "quadrature.trapezoid_periodic.levels": "count",
    "quadrature.trapezoid_periodic.self_s": "s",
    "quadrature.gauss_segment.calls": "count",
    "quadrature.gauss_segment.points": "count",
    "quadrature.gauss_segment.levels": "count",
    "quadrature.gauss_segment.self_s": "s",
    "curves.TriangleSampler.sample.calls": "count",
    "curves.TriangleSampler.sample.s": "s",
    "integrals.line_integral.calls": "count",
    "integrals.line_integral.self_s": "s",
    "integrals.winding_certificate.calls": "count",
    "integrals.winding_certificate.s": "s",
    "integrals.compute_lambda.s": "s",
    "integrals.cauchy_theorem_check.s": "s",
    "integrals.morera_check.s": "s",
    "integrals.cauchy_formula_check.s": "s",
    "monogenic.eval_batch.calls": "count",
    "monogenic.eval_batch.points": "count",
    "monogenic.eval_batch.self_s": "s",
    "io.reports_to_json.s": "s",
    "io.reports_to_csv.s": "s",
    "algebra.product_s": "s",
    "resolvent.inverse_s": "s",
    "resolvent.kernel_s": "s",
    "monogenic.principal_pt_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}
END_TO_END = {
    "verdict_s": "s",
    "setup_s": "s",
    "checks_passed_frac": "ratio",
    "checks_converged_frac": "ratio",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Proc:
    """One process of a pass: ``monalg verify`` or the principal-extension script."""

    label: str
    algebra: str = ""
    frame: str | None = None

    @property
    def principal(self) -> bool:
        return not self.algebra

    def argv(self, seed: int, out: str) -> list:
        if self.principal:
            return ["principal", str(seed), out]
        argv = ["verify", "--algebra", self.algebra]
        if self.frame:
            argv += ["--frame", self.frame]
        return argv + ["--suite", "all", "--seed", str(seed), "--out", out]

    @property
    def top_spans(self) -> tuple:
        return CHECK_SPANS if self.principal else SUITE_SPANS


@dataclass(frozen=True)
class Workload:
    procs: tuple
    kernel_args: tuple  # the algebra (and frame file) of the kernel timings
    check_inputs: bool = False


DEEP = (f"{DATA}/chain12.json", f"{DATA}/chain12_frame.json")
WORKLOADS = {
    # n=5, m=1: morera's many small segment integrals dominate; the product
    # kernel is tiny, so a faster product should change nothing here.
    "small-radical": Workload(
        tuple(Proc(f"example{i}", f"example{i}") for i in range(1, 5)), ("example1",)),
    # m=n=12: the dense product dominates, trapezoid levels reach 32768
    # nodes, the radical recurrences never run.
    "wide-semisimple": Workload((Proc("semisimple-m12", "semisimple:m=12"),),
                                ("semisimple:m=12",)),
    # chain radical n=12, m=1 from files: the T/B/Q recurrences and the
    # n=12 product share the time, inputs go through the file loaders.
    "deep-radical": Workload((Proc("chain12", *DEEP),), DEEP, check_inputs=True),
    # principal extensions on example4: resolvent on t-batches at one point.
    "principal-extension": Workload((Proc("principal-example4"),), ("example4",)),
}


@dataclass
class ProcRun:
    code: int
    start: float
    end: float
    rss_mb: float
    timed_out: bool
    stats: dict = field(default_factory=dict)


class Failure(Exception):
    """A problem that stops the benchmark before it can report."""


class SpeedReference:
    """A fixed CPU-bound computation, timed between passes.

    The speed of the machine drifts by tens of percent over tens of seconds
    while the work stays the same, and this reference drifts with it.  A
    pass's times are scaled by ``REFERENCE_NOMINAL_S`` over the mean
    reference time just before and just after it, which quotes them at a
    fixed speed.

    The reference is half numpy and half interpreter, like the passes: an
    einsum of the same form as monalg's dense product kernel
    (``...r,...s,rsk->...k``, here at n=5 on fixed arrays) and a pure-Python
    loop.  It is the benchmark's own copy, so a change to monalg's kernel
    leaves it alone.  Because its einsum half follows einsum speed, it need
    not track einsum-bound passes (wide-semisimple) and interpreter-bound
    ones (small-radical, principal-extension) equally well;
    perfbench/README.md gives the measured correlations.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._einsum = np.einsum
        self._a = rng.standard_normal((8192, 5)) + 1j * rng.standard_normal((8192, 5))
        self._table = rng.standard_normal((5, 5, 5))
        self.samples = [self._time()]

    def _time(self) -> float:
        start = time.perf_counter()
        for _ in range(20):
            self._einsum("...r,...s,rsk->...k", self._a, self._a, self._table)
        acc = 0
        for i in range(150_000):
            acc += i % 7
        return time.perf_counter() - start

    def scale_since_last(self) -> float:
        """Time the reference again; the scale for the pass that just ended."""
        self.samples.append(self._time())
        return REFERENCE_NOMINAL_S / (0.5 * (self.samples[-2] + self.samples[-1]))


def program_fingerprint(root: Path = ROOT) -> str:
    """A hash of everything that shapes a report's bytes.

    That is the program's Python sources, the benchmark's own sources and
    inputs, and the Python and numpy versions.
    """
    import numpy

    digest = hashlib.sha256(f"{platform.python_version()} {numpy.__version__}".encode())
    bench = root / "perfbench"
    files = sorted((root / "src" / "monalg").rglob("*.py"))
    files += sorted(bench.glob("*.py")) + sorted((bench / "data").glob("*"))
    for path in files:
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


class ReportDigests:
    """The SHA-256 of the first report for each key, kept per program version.

    Reports of one program for one seed must agree byte for byte, across the
    passes of a run and across runs in the same checkout.  Digests live in
    one directory per ``program_fingerprint``, so a changed program, whose
    residual digits may legitimately differ, starts a fresh set.
    """

    def __init__(self, root: Path, program: str):
        self.dir = root / program

    def matches(self, key: str, report: bytes, remember: bool) -> bool:
        """Whether ``report`` agrees with the one stored under ``key``.

        With no stored report, it agrees; with ``remember`` it is stored.
        """
        path = self.dir / f"{key}.sha256"
        digest = hashlib.sha256(report).hexdigest()
        if path.exists():
            return path.read_text().strip() == digest
        if remember:
            self.dir.mkdir(parents=True, exist_ok=True)
            path.write_text(digest + "\n")
        return True


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(BLAS_ENV)
    return env


def launch(cmd, log_prefix: Path, deadline: float) -> ProcRun:
    """Run one process to its exit; resource usage comes from ``os.wait4``."""
    with open(f"{log_prefix}.stdout", "wb") as out, open(f"{log_prefix}.stderr", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(max(1.0, deadline - start), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcRun(proc.returncode, start, end, usage.ru_maxrss / 1024.0, killed.is_set())


def run_child(args, log_prefix: Path, deadline: float) -> ProcRun:
    stats_path = Path(f"{log_prefix}.stats.json")
    run = launch([sys.executable, str(BENCH / "child.py"), str(stats_path), *args],
                 log_prefix, deadline)
    try:
        run.stats = json.loads(stats_path.read_text())
    except (OSError, json.JSONDecodeError):
        run.stats = {}
    return run


def stderr_tail(log_prefix, lines: int = 5) -> str:
    try:
        text = Path(f"{log_prefix}.stderr").read_text(errors="replace")
    except OSError:
        return ""
    return " | ".join(text.strip().splitlines()[-lines:])


class Run:
    """State of one benchmark run: passes, verdict checks and counts."""

    def __init__(self, name: str, seed: int, run_dir: Path, deadline: float):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.run_dir = run_dir
        self.deadline = deadline
        self.expected = json.loads((BENCH / "expected_checks.json").read_text())[name]
        self.digests = ReportDigests(OUT / "digests", program_fingerprint())
        self.passes = []  # dicts: traced, wall, setup, rss, spans, per-process data
        self.reference = SpeedReference()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._index = 0

    def fail(self, text: str) -> None:
        """Count one failed operation and say why."""
        self.failed += 1
        self.problems.append(text)

    def _prefix(self, tag: str) -> Path:
        self._index += 1
        return self.run_dir / f"{self._index:03d}-{tag}"

    def verdict_pass(self, traced: bool) -> None:
        record = {"traced": traced, "setup": 0.0, "rss": 0.0, "spans": {},
                  "covered": 0.0, "accounted": 0.0,
                  "checks": 0, "passed": 0, "conv_base": 0, "converged": 0}
        pass_start = time.monotonic()
        for i, proc in enumerate(self.workload.procs):
            prefix = self._prefix(f"{'trace' if traced else 'run'}-{proc.label}")
            self.attempted += 1
            run = run_child(["1" if traced else "0",
                             *proc.argv(self.seed, str(prefix.relative_to(ROOT)))],
                            prefix, self.deadline)
            record["rss"] = max(record["rss"], run.rss_mb)
            self._check_verdict(i, proc, run, prefix, record)
            if "setup_done" in run.stats:
                record["setup"] += run.stats["setup_done"] - run.start
            spans = run.stats.get("spans", {})
            for name, stat in spans.items():
                into = record["spans"].setdefault(name, {})
                for key, value in stat.items():
                    into[key] = into.get(key, 0) + value
            if traced and "setup_done" in run.stats:
                reports = sum(spans.get(n, {}).get("s", 0.0) for n in REPORT_SPANS)
                record["covered"] += sum(spans.get(n, {}).get("s", 0.0)
                                         for n in proc.top_spans)
                record["accounted"] += (run.end - run.stats["setup_done"]) - reports
        record["wall"] = time.monotonic() - pass_start
        record["scale"] = self.reference.scale_since_last()
        self.passes.append(record)

    def _check_verdict(self, i: int, proc: Proc, run: ProcRun, prefix: Path,
                       counts: dict) -> None:
        expected = self.expected[i]
        problems = []
        report_bytes = b""
        if run.timed_out:
            problems.append("timed out")
        try:
            report_bytes = Path(f"{prefix}.json").read_bytes()
            report = json.loads(report_bytes)
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"no readable report ({exc.__class__.__name__}), exit {run.code}, "
                            f"{stderr_tail(prefix)}")
            report = None
        if report is not None:
            checks = report["checks"]
            names = [c["name"] for c in checks]
            if names != expected["names"]:
                problems.append(f"check names differ from the expected list "
                                f"({len(names)} vs {len(expected['names'])})")
            all_passed = all(c["passed"] for c in checks)
            if run.code != (0 if all_passed else 1):
                problems.append(f"exit code {run.code} but all_passed={all_passed}")
            if not self.digests.matches(f"{self.name}-{self.seed}-{i}", report_bytes,
                                        remember=not problems):
                problems.append("report bytes differ from an earlier report for this seed")
        if problems:
            # a crashed or unusable process counts every expected check as failed
            counts["checks"] += len(expected["names"])
            counts["conv_base"] += expected["reports_convergence"]
        else:
            converging = [c for c in checks if "converged" in c["diagnostics"]]
            counts["checks"] += len(checks)
            counts["passed"] += sum(c["passed"] for c in checks)
            counts["conv_base"] += len(converging)
            counts["converged"] += sum(bool(c["diagnostics"]["converged"])
                                       for c in converging)
        if problems:
            self.fail(f"{proc.label} (seed {self.seed}): {'; '.join(problems)}")

    def kernels(self) -> dict:
        prefix = self._prefix("kernels")
        stats = Path(f"{prefix}.kernels.json")
        self.attempted += 1
        run = launch([sys.executable, str(BENCH / "kernels.py"), str(stats), str(self.seed),
                      *self.workload.kernel_args], prefix, self.deadline)
        if run.code != 0:
            self.fail(f"kernel timings: exit {run.code} {stderr_tail(prefix)}")
            return {}
        return json.loads(stats.read_text())


def end_to_end(passes: list) -> dict:
    """The metrics of BENCHMARK.json, then the unscaled times for the table."""
    def total(key):
        return sum(p[key] for p in passes)

    return {
        "verdict_s": statistics.median(p["wall"] * p["scale"] for p in passes),
        "setup_s": statistics.median(p["setup"] * p["scale"] for p in passes),
        "checks_passed_frac": total("passed") / max(1, total("checks")),
        "checks_converged_frac": total("converged") / max(1, total("conv_base")),
        "peak_rss_mb": statistics.median(p["rss"] for p in passes),
        "verdict_wall_s": statistics.median(p["wall"] for p in passes),
        "setup_wall_s": statistics.median(p["setup"] for p in passes),
    }


def per_layer(run: Run, untraced: list, traced: list, kernels: dict) -> dict:
    """Every span statistic (median over traced passes) plus kernels and trace."""
    names = sorted({n for p in traced for n in p["spans"]})
    metrics = {}
    for name in names:
        keys = sorted({k for p in traced for k in p["spans"].get(name, {})})
        for key in keys:
            values = [p["spans"].get(name, {}).get(key, 0) for p in traced]
            if key in ("s", "self_s"):
                metrics[f"{name}.{key}"] = statistics.median(values)
            else:
                if len(set(values)) > 1:
                    run.fail(f"count {name}.{key} differs between passes: {values}")
                metrics[f"{name}.{key}"] = values[0]
    metrics.update(kernels)
    traced_wall = statistics.median(p["wall"] * p["scale"] for p in traced)
    untraced_wall = statistics.median(p["wall"] * p["scale"] for p in untraced)
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    metrics["trace.coverage_frac"] = statistics.median(
        p["covered"] / p["accounted"] for p in traced)
    return metrics


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name in PER_LAYER:
        return PER_LAYER[name]
    return "s" if name.endswith("_s") or name.endswith(".s") else "count"


def environment(seed: int, cpus: list) -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError) as exc:
            sha = f"unknown ({exc.__class__.__name__})"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(cpus),
        "pinned_cpu": cpus[0],
        "cpu_model": cpu,
        "blas_threads": BLAS_ENV,
        "seed": seed,
        "clients": 1,
        "loop": "closed",
    }


def print_table(title: str, metrics: dict) -> None:
    sys.stdout.write(f"-- {title}\n")
    for name, value in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        sys.stdout.write(f"{name:<48} {shown:>14} {unit_of(name)}\n")


def prepare(name: str) -> None:
    if not (ROOT / "src" / "monalg" / "__init__.py").is_file():
        raise Failure(f"no program sources under {ROOT / 'src' / 'monalg'}")
    if WORKLOADS[name].check_inputs:
        result = subprocess.run([sys.executable, str(BENCH / "make_chain.py"), "--check"],
                                cwd=ROOT, env=child_env(), capture_output=True, text=True)
        if result.returncode != 0:
            raise Failure("deep-radical inputs failed validation:\n" + result.stderr)
    # byte-compile once, so no measured process pays for it
    result = subprocess.run([sys.executable, "-c", "import monalg.cli"], cwd=ROOT,
                            env=child_env(), capture_output=True, text=True)
    if result.returncode != 0:
        raise Failure("cannot import monalg:\n" + result.stderr)


def benchmark(name: str, seed: int, seconds: float, trace: bool, run_dir: Path,
              cpus: list) -> dict:
    start = time.monotonic()
    prepare(name)
    run = Run(name, seed, run_dir, start + DEADLINE_S)
    while True:
        run.verdict_pass(traced=False)
        if trace:
            run.verdict_pass(traced=True)
        if time.monotonic() - start >= seconds:
            break
    untraced = [p for p in run.passes if not p["traced"]]
    traced = [p for p in run.passes if p["traced"]]
    e2e = end_to_end(untraced)
    e2e["reference_s"] = statistics.median(run.reference.samples)
    first = untraced[0]
    sys.stdout.write(
        f"workload {name}: {len(untraced)} untraced and {len(traced)} traced passes; "
        f"in the first pass checks failed "
        f"{first['checks'] - first['passed']}/{first['checks']}, unconverged "
        f"{first['conv_base'] - first['converged']}/{first['conv_base']}\n")
    print_table("end to end (untraced passes)", e2e)
    result = {"workload": name, "environment": environment(seed, cpus), "end_to_end": e2e,
              "passes": run.passes, "reference_samples": run.reference.samples}
    metrics = {n: e2e[n] for n in END_TO_END}
    if trace:
        layers = per_layer(run, untraced, traced, run.kernels())
        print_table("per layer (traced passes; kernels on fixed inputs)", layers)
        result["per_layer"] = layers
        result["environment"]["trace.overhead_frac"] = layers["trace.overhead_frac"]
        missing = [n for n in PER_LAYER if n not in layers]
        if missing:
            run.fail(f"per-layer metrics not measured: {missing}")
        metrics = {n: layers.get(n, 0) for n in PER_LAYER}
    for line in run.problems:
        sys.stdout.write(f"FAILED: {line}\n")
    result["problems"] = run.problems
    env = result["environment"]
    sys.stdout.write(
        f"git {env['git_sha']}, python {env['python']}, numpy {env['numpy']}, nproc "
        f"{env['nproc']} (runs pinned to cpu {env['pinned_cpu']}), cpu {env['cpu_model']}, "
        f"blas threads "
        f"{env['blas_threads']['OPENBLAS_NUM_THREADS']}, seed {seed}\n")
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": unit_of(n)} for n, v in metrics.items()},
    }


def main(argv=None) -> int:
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # one CPU for this process and every child, so that the speed reference
    # runs where the passes run
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        line = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), run_dir,
                         cpus)
    except Failure as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.stdout.write(json.dumps(line) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
