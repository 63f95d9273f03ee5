"""Rows and terms through the sparse product kernel per suite: counts that do not depend on the machine.

Every product of an algebra with a radical goes through the one sparse kernel,
:func:`monalg.algebra._times_fixed`: the radical series calls it directly, and
:func:`monalg.algebra._multiply_coords` calls it for every other product, so
counting both would count those products twice.  A call whose result has
shape ``(..., n)`` makes ``prod(...)`` products, its rows, and multiplies
rows times the structure triples it takes, its terms: a factor's support
that is lost shows as more terms on the same rows.  :func:`product_counts`
counts both for each suite of ``monalg verify --suite all``, in process.
Print the table with

    python3 tests/product_counts.py [ALGEBRA ...] [--seed N]

(``example1`` and ``chain12`` by default; names as in ``tests/verdicts.py``).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
KERNEL = "_times_fixed"
COUNTS = ("rows", "terms")


@contextmanager
def counting():
    """Yield ``{"rows": ..., "terms": ...}`` of the kernel, counted in every
    loaded monalg module that binds it."""
    from monalg import algebra

    counts = dict.fromkeys(COUNTS, 0)
    fn = getattr(algebra, KERNEL)

    def counted(a, times, spec, triples):
        out = fn(a, times, spec, triples)
        rows = int(np.prod(out.shape[:-1]))
        counts["rows"] += rows
        counts["terms"] += rows * len(triples.left)
        return out

    saved = []
    for name, module in list(sys.modules.items()):
        if (name == "monalg" or name.startswith("monalg.")) and vars(module).get(KERNEL) is fn:
            saved.append(module)
            setattr(module, KERNEL, counted)
    try:
        yield counts
    finally:
        for module in saved:
            setattr(module, KERNEL, fn)


def product_counts(name: str, seed: int = 1, suites=None) -> dict:
    """``{suite: {"rows": rows, "terms": terms}}`` for each of ``suites`` (all
    by default) on ``name``."""
    from verdicts import _inputs

    from monalg.suites import SUITES, run_suites

    spec, frames, options = _inputs(name)
    out = {}
    for suite in suites or SUITES:
        with counting() as counts:
            run_suites([suite], spec, frames, seed, options)
        out[suite] = dict(counts)
    return out


def product_rows(name: str, seed: int = 1, suites=None) -> dict:
    """``{suite: {kernel: rows}}`` for each of ``suites`` (all by default) on ``name``."""
    return {suite: {KERNEL: counts["rows"]}
            for suite, counts in product_counts(name, seed, suites).items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("algebras", nargs="*", default=["example1", "chain12"])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    for name in args.algebras:
        counts = product_counts(name, args.seed)
        print(f"{name} (seed {args.seed}): suite {KERNEL} " + " ".join(COUNTS))
        for suite, row in counts.items():
            print(f"  {suite:<11}" + "".join(f" {row[c]:>16,}" for c in COUNTS))
        total = {c: sum(row[c] for row in counts.values()) for c in COUNTS}
        print(f"  {'total':<11}" + "".join(f" {total[c]:>16,}" for c in COUNTS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
