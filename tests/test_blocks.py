"""Algebras of several idempotent blocks refine every integrand as one vector.

An algebra is the direct sum of its blocks ``I_u A``.  A curve integral on
it refines each integrand on every column against ``tol``, the path every
``m = 1`` algebra takes; these tests pin what that path evaluates, and that
every check passes on a sum of blocks that each carry a radical.
"""

import hashlib

import pytest
from counts import counting, suite_counts
from verdicts import _inputs, sum_case

from monalg.suites import run_suites


@pytest.mark.parametrize("name, calls, digest", [
    ("example1", 122, "31a6a858a1d6f170346a78c906a9b7cf6d3e2de27d18f0b5a646efaedfdf278b"),
    ("chain12", 122, "c5eff959d4543d0f1641d594cddbea86f6246c2e2cf934c6fadda22838044169"),
    ("semisimple:m=1", 116, "9e999133cb396fa0647ef223e4d778f527afda76350caca15d049b7a727e90df"),
], ids=["example1", "chain12", "semisimple:m=1"])  # ids that a new pin does not rename
def test_one_block_takes_the_whole_vector_calls(name, calls, digest):
    # the shape of every eval_batch result of a verify run at seed 1
    # (polynomials and the necessity controls at their exact rules' nodes)
    spec, frames, options = _inputs(name)
    shapes = []
    with counting(shapes):
        run_suites(["all"], spec, frames, 1, options)
    assert len(shapes) == calls
    assert hashlib.sha256(repr(shapes).encode()).hexdigest() == digest


def test_point_counts_of_the_lambda_suite():
    # the lambda circle, in the widest plane, evaluates every column at each
    # of its points: 896 points of example1's 5 columns, 4,032 of
    # semisimple:m=12's 12
    for name, rows, points in (("example1", 896, 4480), ("semisimple:m=12", 4032, 48384)):
        counts = suite_counts(name, suites=["lambda"])["lambda"]
        assert (counts["rows"], counts["points"]) == (rows, points)


def test_formula_and_lambda_rows_on_wide_algebras():
    # a cost guard: the curves in the widest plane take these rows at seed 1;
    # in plane (1,2) semisimple:m=20 took 955,725 for both suites
    rows = {}
    for name in ("semisimple:m=12", "semisimple:m=20"):
        counts = suite_counts(name, suites=["lambda", "formula"])
        rows[name] = (counts["lambda"]["rows"], counts["formula"]["rows"])
    assert rows == {"semisimple:m=12": (4032, 40665), "semisimple:m=20": (4032, 72921)}
    assert 8 * sum(rows["semisimple:m=20"]) <= 955725


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_check_passes_on_a_sum_with_a_radical(seed):
    spec, frames = sum_case()
    reports = run_suites(["all"], spec, frames, seed)
    assert [rep.name for rep in reports if not rep.passed] == []
    # a third frame adds its lambda and predicates checks to the 50 of two
    assert len(reports) == 53
