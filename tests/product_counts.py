"""Rows through the sparse product kernel per suite: counts that do not depend on the machine.

Every product of an algebra with a radical goes through the one sparse kernel,
:func:`monalg.algebra._times_fixed`: the radical series calls it directly, and
:func:`monalg.algebra._multiply_coords` calls it for every other product, so
counting both would count those products twice.  A call whose result has
shape ``(..., n)`` makes ``prod(...)`` products, its rows.  :func:`product_rows`
counts them for each suite of ``monalg verify --suite all``, in process.
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
KERNELS = ("_times_fixed",)


@contextmanager
def counting():
    """Yield ``{kernel: rows}``, counted in every loaded monalg module that binds the kernels."""
    from monalg import algebra

    counts = dict.fromkeys(KERNELS, 0)
    saved = []
    for kernel in KERNELS:
        fn = getattr(algebra, kernel)

        def counted(*args, _fn=fn, _kernel=kernel, **kwargs):
            out = _fn(*args, **kwargs)
            counts[_kernel] += int(np.prod(out.shape[:-1]))
            return out

        for name, module in list(sys.modules.items()):
            if (name == "monalg" or name.startswith("monalg.")) and vars(module).get(kernel) is fn:
                saved.append((module, kernel, fn))
                setattr(module, kernel, counted)
    try:
        yield counts
    finally:
        for module, kernel, fn in saved:
            setattr(module, kernel, fn)


def product_rows(name: str, seed: int = 1, suites=None) -> dict:
    """``{suite: {kernel: rows}}`` for each of ``suites`` (all by default) on ``name``."""
    from verdicts import _inputs

    from monalg.suites import SUITES, run_suites

    spec, frames, options = _inputs(name)
    out = {}
    for suite in suites or SUITES:
        with counting() as counts:
            run_suites([suite], spec, frames, seed, options)
        out[suite] = dict(counts)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("algebras", nargs="*", default=["example1", "chain12"])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    for name in args.algebras:
        rows = product_rows(name, args.seed)
        print(f"{name} (seed {args.seed}): suite {' '.join(KERNELS)}")
        for suite, counts in rows.items():
            print(f"  {suite:<11}" + "".join(f" {counts[k]:>16,}" for k in KERNELS))
        total = {k: sum(c[k] for c in rows.values()) for k in KERNELS}
        print(f"  {'total':<11}" + "".join(f" {total[k]:>16,}" for k in KERNELS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
