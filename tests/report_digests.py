"""SHA-256 digests of the report files that monalg writes, to compare two trees.

For each algebra of the verdict ledger (``tests/verdicts.py``) it runs, in
process,

- ``monalg verify --suite all --out`` at each seed, at the default node cap
  and at ``--nodes-cap 30``;
- ``monalg lambda --out`` and ``monalg predicates --out``;

and then ``perfbench/principal.py`` (imported from its file, not changed) at
seeds 1 and 2.  It prints one ``sha256  name`` line per ``.json``, ``.txt``
and ``.csv`` file.  A report's ``config`` block records the path of an
algebra or frame file, so the checkout's root is written ``<root>`` in the
``.json`` files before they are hashed.  Two trees then compare with one diff:

    python3 tests/report_digests.py > new.txt
    (cd OTHER_TREE && python3 tests/report_digests.py) > old.txt
    diff old.txt new.txt

Names and seeds may be given: ``python3 tests/report_digests.py example1
chain12 --seed 1 --seed 2``.
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
from pathlib import Path

from verdicts import ALGEBRAS, CHAIN12, ROOT, SEEDS

PRINCIPAL = ROOT / "perfbench" / "principal.py"
PRINCIPAL_SEEDS = (1, 2)
SUFFIXES = (".json", ".txt", ".csv")


def _source(name: str) -> list:
    """The ``--algebra`` (and ``--frame``) flags of a ledger name."""
    if name == "chain12":
        return ["--algebra", str(CHAIN12[0]), "--frame", str(CHAIN12[1])]
    return ["--algebra", name]


def _runs(algebras, seeds):
    """``(label, monalg argv)`` of every command run, in order; ``--out`` is added later."""
    for name in algebras:
        for seed in seeds:
            for cap, flags in (("default", []), ("cap30", ["--nodes-cap", "30"])):
                yield (f"verify/{name}/seed{seed}/{cap}",
                       ["verify", *_source(name), "--suite", "all", "--seed", str(seed), *flags])
        for command in ("lambda", "predicates"):
            yield f"{command}/{name}", [command, *_source(name)]


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".json":
        data = data.replace(json.dumps(str(ROOT))[1:-1].encode(), b"<root>")
    return hashlib.sha256(data).hexdigest()


def digests(algebras=ALGEBRAS, seeds=SEEDS, principal_seeds=PRINCIPAL_SEEDS) -> list:
    """``[(sha256, name)]`` of every report file, in a fixed order."""
    from monalg.cli import main

    out = []
    with tempfile.TemporaryDirectory() as tmp:
        prefixes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for index, (label, argv) in enumerate(_runs(algebras, seeds)):
                prefix = Path(tmp, str(index))
                if main([*argv, "--out", str(prefix)]) == 2:
                    raise RuntimeError(f"monalg {' '.join(argv)} exited 2")
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
    parser.add_argument("algebras", nargs="*", default=list(ALGEBRAS))
    parser.add_argument("--seed", type=int, action="append", dest="seeds",
                        help=f"verify seed, repeatable (default {SEEDS.start}..{SEEDS.stop - 1})")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    for sha, name in digests(args.algebras, args.seeds or SEEDS):
        print(f"{sha}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
