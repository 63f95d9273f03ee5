"""Work per suite in counts that do not depend on the machine: points evaluated, products taken, and each suite's traced memory peak.

Two entries carry the work of every check.  Every integrand, the formula's
shifted inverse and its reference go through
:func:`monalg.monogenic.eval_batch`: a call on ``N`` points makes ``N``
``rows``, and ``N`` times the columns it returns ``points``
(component-points).  Every product of an algebra with a radical
goes through the one sparse kernel, :func:`monalg.algebra._times_fixed`:
the radical series calls it directly, and
:func:`monalg.algebra._multiply_coords` calls it for every other product.
A kernel call whose result has shape ``(..., n)`` makes ``prod(...)``
``products``, and multiplies them by the structure triples it takes, its
``terms``: a factor's support that is lost shows as more terms on the same
products.

:func:`suite_counts` counts all four for each suite of ``monalg verify
--suite all``, in process.  With ``peak=True`` it also gives each suite's
``tracemalloc`` peak in KiB: the most memory that Python and numpy held at
once for what the suite allocated.  A suite's peak is taken on a second
run, after the counted one and with no counter in place, so that lazy
imports, an algebra's caches and the counters stay out of it; the peaks
then repeat from run to run but for a few hundred bytes.  Print the table
with

    python3 tests/counts.py [ALGEBRA ...] [--seed N]

(every algebra of the verdict ledger by default, names as in
``tests/verdicts.py``); the same command in two trees gives a before/after
that compares with one ``diff``, for the memory as for the counts.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
COUNTS = ("rows", "points", "products", "terms")
PEAK = "peak_KiB"


@contextmanager
def counting(shapes=None):
    """Yield ``{"rows", "points", "products", "terms"}`` of the two entries,
    counted in every loaded monalg module that binds them; the shape of
    each ``eval_batch`` result is appended to ``shapes`` when it is a list."""
    from monalg import algebra, monogenic

    counts = dict.fromkeys(COUNTS, 0)
    evaluate, times = monogenic.eval_batch, algebra._times_fixed

    def eval_batch(phi, frame, xs, spec):
        out = evaluate(phi, frame, xs, spec)
        counts["rows"] += len(out)
        counts["points"] += out.size
        if shapes is not None:
            shapes.append(out.shape)
        return out

    def _times_fixed(a, b, spec, triples):
        out = times(a, b, spec, triples)
        products = int(np.prod(out.shape[:-1]))
        counts["products"] += products
        counts["terms"] += products * len(triples.left)
        return out

    saved = []
    for name, module in list(sys.modules.items()):
        if name == "monalg" or name.startswith("monalg."):
            for fn, counted in ((evaluate, eval_batch), (times, _times_fixed)):
                if vars(module).get(counted.__name__) is fn:
                    saved.append((module, fn))
                    setattr(module, counted.__name__, counted)
    try:
        yield counts
    finally:
        for module, fn in saved:
            setattr(module, fn.__name__, fn)


def suite_counts(name: str, seed: int = 1, suites=None, peak: bool = False) -> dict:
    """``{suite: {"rows", "points", "products", "terms"}}`` for each of
    ``suites`` (all by default) on ``name``; ``peak`` adds each suite's
    traced peak in KiB as ``"peak_KiB"``."""
    from verdicts import _inputs

    from monalg.suites import SUITES, run_suites

    spec, frames, options = _inputs(name)
    out = {}
    for suite in suites or SUITES:
        with counting() as counts:
            run_suites([suite], spec, frames, seed, options)
        out[suite] = dict(counts)
        if peak:  # a second run, with no counter in place
            out[suite][PEAK] = _traced_peak(run_suites, [suite], spec, frames, seed, options)
    return out


def _traced_peak(fn, *args) -> int:
    """Call ``fn(*args)``; the most memory it held at once, in KiB, as
    ``tracemalloc`` counts it."""
    tracemalloc.start()
    try:
        fn(*args)
        return round(tracemalloc.get_traced_memory()[1] / 1024)
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    from verdicts import ALGEBRAS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("algebras", nargs="*", default=list(ALGEBRAS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    columns = (*COUNTS, PEAK)
    for name in args.algebras:
        counts = suite_counts(name, args.seed, peak=True)
        print(f"{name} (seed {args.seed}): suite " + " ".join(columns))
        for suite, row in counts.items():
            print(f"  {suite:<11}" + "".join(f" {row[c]:>14,}" for c in columns))
        # counts add up over the suites; the peak of the run is the largest
        total = {c: sum(row[c] for row in counts.values()) for c in COUNTS}
        total[PEAK] = max(row[PEAK] for row in counts.values())
        print(f"  {'total':<11}" + "".join(f" {total[c]:>14,}" for c in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main())
