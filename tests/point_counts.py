"""Points evaluated per suite: integrand rows and component-points, counts that do not depend on the machine, and each suite's traced memory peak.

Every integrand, the formula's shifted inverse and its reference go through
one entry, :func:`monalg.monogenic.eval_batch`.  A call on ``N`` points makes
``N`` rows, and ``N`` times the columns it returns component-points: a level
that evaluates only some idempotent blocks returns only their columns.
:func:`point_counts` counts both for each suite of ``monalg verify --suite
all``, in process.  With ``peak=True`` it also gives each suite's
``tracemalloc`` peak in KiB: the most memory that Python and numpy held at
once for what the suite allocated.  The suites run once untraced before,
so that lazy imports and an algebra's caches stay out of the peaks, which
then repeat from run to run but for a few hundred bytes.  Print the table
with

    python3 tests/point_counts.py [ALGEBRA ...] [--seed N]

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

ROOT = Path(__file__).resolve().parents[1]
ENTRY = "eval_batch"
COUNTS = ("rows", "points")
PEAK = "peak_KiB"


@contextmanager
def counting(shapes=None):
    """Yield ``{"rows": ..., "points": ...}`` of the entry, counted in every
    loaded monalg module that binds it; each call's result shape is appended
    to ``shapes`` when it is a list."""
    from monalg import monogenic

    counts = dict.fromkeys(COUNTS, 0)
    fn = getattr(monogenic, ENTRY)

    def counted(phi, frame, xs, spec):
        out = fn(phi, frame, xs, spec)
        counts["rows"] += len(out)
        counts["points"] += out.size
        if shapes is not None:
            shapes.append(out.shape)
        return out

    saved = []
    for name, module in list(sys.modules.items()):
        if (name == "monalg" or name.startswith("monalg.")) and vars(module).get(ENTRY) is fn:
            saved.append(module)
            setattr(module, ENTRY, counted)
    try:
        yield counts
    finally:
        for module in saved:
            setattr(module, ENTRY, fn)


def point_counts(name: str, seed: int = 1, suites=None, peak: bool = False) -> dict:
    """``{suite: {"rows": rows, "points": component-points}}`` for each of
    ``suites`` (all by default) on ``name``; ``peak`` adds each suite's
    traced peak in KiB as ``"peak_KiB"``."""
    from verdicts import _inputs

    from monalg.suites import SUITES, run_suites

    spec, frames, options = _inputs(name)
    suites = list(suites or SUITES)
    if peak:
        run_suites(suites, spec, frames, seed, options)
    out = {}
    for suite in suites:
        with counting() as counts:
            if peak:
                counts[PEAK] = _traced_peak(run_suites, [suite], spec, frames, seed, options)
            else:
                run_suites([suite], spec, frames, seed, options)
        out[suite] = dict(counts)
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
        counts = point_counts(name, args.seed, peak=True)
        print(f"{name} (seed {args.seed}): suite {ENTRY} " + " ".join(columns))
        for suite, row in counts.items():
            print(f"  {suite:<11}" + "".join(f" {row[c]:>12,}" for c in columns))
        # counts add up over the suites; the peak of the run is the largest
        total = {c: sum(row[c] for row in counts.values()) for c in COUNTS}
        total[PEAK] = max(row[PEAK] for row in counts.values())
        print(f"  {'total':<11}" + "".join(f" {total[c]:>12,}" for c in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main())
