"""SHA-256 digests of the report files that monalg writes, to compare two trees.

For each algebra of the verdict ledger (``tests/verdicts.py``) it runs, in
process,

- ``monalg verify --suite all --out`` at each seed, at the default node cap
  and at ``--nodes-cap 30``;
- ``monalg lambda --out`` and ``monalg predicates --out``;

then ``run_suites(["all"])`` on ``example4+example1``, the direct sum of
``verdicts.sum_case`` with its three frames (several blocks, each with a
radical, which no algebra of the ledger has), at each seed and both caps,
its reports written as ``verify --out`` writes them; and then
``perfbench/principal.py`` (imported from its file, not changed) at seeds 1
and 2.  It prints one ``sha256  name`` line per ``.json``, ``.txt``
and ``.csv`` file.  A report's ``config`` block records the path of an
algebra or frame file, so the checkout's root is written ``<root>`` in the
``.json`` files before they are hashed.  Two trees then compare with one diff:

    python3 tests/report_digests.py > new.txt
    (cd OTHER_TREE && python3 tests/report_digests.py) > old.txt
    diff old.txt new.txt

Names and seeds may be given: ``python3 tests/report_digests.py example1
chain12 example4+example1 --seed 1 --seed 2``.

A digest says that a file changed, not what changed.  ``--values`` prints,
as JSON, each verify record of the same runs: its name, verdict, residual,
tolerance, ``nodes`` and diagnostics keys.  ``--compare``
reads two such files and prints what moved: runs and checks added or
removed, verdict flips, node moves and diagnostics keys added or removed,
each with the number of runs it happened in, and the largest
``|residual change| / tolerance`` per algebra:

    python3 tests/report_digests.py --values > new.json
    (cd OTHER_TREE && python3 tests/report_digests.py --values) > old.json
    python3 tests/report_digests.py --compare old.json new.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import sys
import tempfile
from functools import partial
from pathlib import Path

from verdicts import ALGEBRAS, CHAIN12, ROOT, SEEDS, sum_case

PRINCIPAL = ROOT / "perfbench" / "principal.py"
PRINCIPAL_SEEDS = (1, 2)
SUFFIXES = (".json", ".txt", ".csv")
SUM = "example4+example1"  # verdicts.sum_case, which no command line names
CAPS = (("default", None), ("cap30", 30))


def _source(name: str) -> list:
    """The ``--algebra`` (and ``--frame``) flags of a ledger name."""
    if name == "chain12":
        return ["--algebra", str(CHAIN12[0]), "--frame", str(CHAIN12[1])]
    return ["--algebra", name]


def _runs(algebras, seeds):
    """``(label, write)`` of every run, in order; ``write(prefix)`` writes
    its ``.json``, ``.txt`` and ``.csv`` reports at ``prefix``."""
    for name in algebras:
        for seed in seeds:
            for cap_name, cap in CAPS:
                label = f"verify/{name}/seed{seed}/{cap_name}"
                if name == SUM:
                    options = {} if cap is None else {"nodes_cap": cap}
                    yield label, partial(_verify_sum, seed, options)
                    continue
                flags = [] if cap is None else ["--nodes-cap", str(cap)]
                yield label, partial(_monalg, ["verify", *_source(name), "--suite", "all",
                                               "--seed", str(seed), *flags])
        if name != SUM:
            for command in ("lambda", "predicates"):
                yield f"{command}/{name}", partial(_monalg, [command, *_source(name)])


def _monalg(argv, prefix):
    """``monalg *argv --out prefix``."""
    from monalg.cli import main

    if main([*argv, "--out", str(prefix)]) == 2:
        raise RuntimeError(f"monalg {' '.join(argv)} exited 2")


def _verify_sum(seed, options, prefix):
    """``run_suites(["all"])`` on :func:`verdicts.sum_case` at ``seed``, its
    reports written at ``prefix`` as ``monalg verify --out`` writes them."""
    from monalg.io import reports_to_csv, reports_to_json, reports_to_text
    from monalg.suites import run_suites

    spec, frames = sum_case()
    reports = run_suites(["all"], spec, frames, seed, options)
    config = {"algebra": SUM, "frames": sorted(frames), "seed": seed, **options}
    Path(f"{prefix}.json").write_text(reports_to_json(reports, config=config))
    Path(f"{prefix}.txt").write_text(reports_to_text(reports))
    reports_to_csv(reports, f"{prefix}.csv")


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".json":
        data = data.replace(json.dumps(str(ROOT))[1:-1].encode(), b"<root>")
    return hashlib.sha256(data).hexdigest()


@contextlib.contextmanager
def _written(algebras, seeds, principal_seeds):
    """Write every run's report files in a temporary directory, and yield
    ``[(label, prefix)]`` of the runs, in a fixed order."""
    with tempfile.TemporaryDirectory() as tmp:
        prefixes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for index, (label, write) in enumerate(_runs(algebras, seeds)):
                prefix = Path(tmp, str(index))
                write(prefix)
                prefixes.append((label, prefix))
            if principal_seeds:
                loader = importlib.util.spec_from_file_location("_principal", PRINCIPAL)
                principal = importlib.util.module_from_spec(loader)
                loader.loader.exec_module(principal)
                for seed in principal_seeds:
                    prefix = Path(tmp, f"principal{seed}")
                    principal.main(seed, str(prefix))
                    prefixes.append((f"principal/seed{seed}", prefix))
        yield prefixes


def digests(algebras=(*ALGEBRAS, SUM), seeds=SEEDS, principal_seeds=PRINCIPAL_SEEDS) -> list:
    """``[(sha256, name)]`` of every report file, in a fixed order."""
    with _written(algebras, seeds, principal_seeds) as prefixes:
        return [(_digest(Path(str(prefix) + suffix)), label + suffix)
                for label, prefix in prefixes for suffix in SUFFIXES]


def values(algebras=(*ALGEBRAS, SUM), seeds=SEEDS) -> dict:
    """``{label: [record]}`` of every verify run: per check its name, verdict
    (``passed``), residual, tolerance, ``nodes`` (``None`` where the check
    has none) and its sorted diagnostics ``keys``."""
    out = {}
    with _written(algebras, seeds, ()) as prefixes:
        for label, prefix in prefixes:
            if label.startswith("verify/"):
                checks = json.loads(Path(f"{prefix}.json").read_text())["checks"]
                out[label] = [{"name": c["name"], "passed": c["passed"],
                               "residual": c["residual"], "tolerance": c["tolerance"],
                               "nodes": c["diagnostics"].get("nodes"),
                               "keys": sorted(c["diagnostics"])} for c in checks]
    return out


def _moves(before, after):
    """What moved in one run, each line without the run's label, and the
    largest ``|residual change| / tolerance`` of its checks."""
    old = {record["name"]: record for record in before}
    new = {record["name"]: record for record in after}
    lines = [f"check removed: {name}" for name in old if name not in new]
    lines += [f"check added: {name}" for name in new if name not in old]
    largest = 0.0
    for name in (name for name in new if name in old):
        a, b = old[name], new[name]
        if a["passed"] != b["passed"]:
            verdict = {True: "PASS", False: "FAIL"}
            lines.append(f"verdict {verdict[a['passed']]} -> {verdict[b['passed']]}: {name}")
        if a["nodes"] != b["nodes"]:
            lines.append(f"nodes {a['nodes']} -> {b['nodes']}: {name}")
        lines += [f"key removed: {name} {key}" for key in a["keys"] if key not in b["keys"]]
        lines += [f"key added: {name} {key}" for key in b["keys"] if key not in a["keys"]]
        if a["residual"] != b["residual"]:
            tolerance = b["tolerance"] or a["tolerance"]
            if None in (a["residual"], b["residual"]) or not tolerance:
                largest = math.inf  # a residual or tolerance that is not a finite number
            else:
                largest = max(largest, abs(b["residual"] - a["residual"]) / tolerance)
    return lines, largest


def compare(old: dict, new: dict) -> list:
    """The lines that ``--compare`` prints for two :func:`values` files."""
    seen = {}  # a line -> the runs it happened in
    largest = {}  # an algebra -> its largest |residual change| / tolerance
    for label in old:
        if label not in new:
            seen.setdefault("run removed", []).append(label)
    for label, after in new.items():
        if label not in old:
            seen.setdefault("run added", []).append(label)
            continue
        lines, ratio = _moves(old[label], after)
        for line in lines:
            seen.setdefault(line, []).append(label)
        algebra = label.split("/")[1]
        largest[algebra] = max(largest.get(algebra, 0.0), ratio)
    out = [f"{line}  [{len(runs)} runs, e.g. {runs[0]}]" for line, runs in seen.items()]
    out += [f"largest |residual change| / tolerance on {algebra}: {ratio:.3g}"
            for algebra, ratio in largest.items()]
    return out or ["no run in common"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("algebras", nargs="*", default=[*ALGEBRAS, SUM])
    parser.add_argument("--seed", type=int, action="append", dest="seeds",
                        help=f"verify seed, repeatable (default {SEEDS.start}..{SEEDS.stop - 1})")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--values", action="store_true",
                      help="print each verify record's values as JSON, in place of digests")
    mode.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                      help="print what moved between two --values files")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(Path(path).read_text()) for path in args.compare)
        print("\n".join(compare(old, new)))
        return 0
    sys.path.insert(0, str(ROOT / "src"))
    if args.values:
        print(json.dumps(values(args.algebras, args.seeds or SEEDS), indent=1))
        return 0
    for sha, name in digests(args.algebras, args.seeds or SEEDS):
        print(f"{sha}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
