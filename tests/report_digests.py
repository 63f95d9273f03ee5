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
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
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


def digests(algebras=(*ALGEBRAS, SUM), seeds=SEEDS, principal_seeds=PRINCIPAL_SEEDS) -> list:
    """``[(sha256, name)]`` of every report file, in a fixed order."""
    out = []
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
        for label, prefix in prefixes:
            for suffix in SUFFIXES:
                out.append((_digest(Path(str(prefix) + suffix)), label + suffix))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("algebras", nargs="*", default=[*ALGEBRAS, SUM])
    parser.add_argument("--seed", type=int, action="append", dest="seeds",
                        help=f"verify seed, repeatable (default {SEEDS.start}..{SEEDS.stop - 1})")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    for sha, name in digests(args.algebras, args.seeds or SEEDS):
        print(f"{sha}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
