"""Machine-independent cost: products and terms through the sparse product kernel."""

import numpy as np
import pytest
from counts import counting, suite_counts


@pytest.mark.parametrize("name, series", [("example1", 2), ("chain12", 5)])
def test_oracle_suite_product_rows(name, series):
    # 1,000 points: the inverse and the resolvent take the radical series'
    # products each (2 at depth 2, 5 in blocks of 3 at depth 11), the
    # resolvent identity one product, and the left-multiplication matrices
    # none; every one goes through the one kernel
    counts = suite_counts(name, suites=["oracle"])["oracle"]
    assert counts["products"] == (2 * series + 1) * 1000


def test_oracle_suite_product_terms_on_chain12():
    # chain12's frame lives on I_1, I_2, I_3, I_12, so N on I_2, I_3, I_12:
    # per point, N^2 and N^3 take 4 and 6 of the 78 triples, and each of
    # Horner's 3 products by N^3 the 30 whose right column is in N^3's
    # support, 100 a series; the resolvent identity, which checks the
    # series, takes all 78
    counts = suite_counts("chain12", suites=["oracle"])["oracle"]
    assert (counts["products"], counts["terms"]) == (11 * 1000, (2 * (4 + 6 + 3 * 30) + 78) * 1000)


def test_products_by_points_and_increments_on_chain12():
    # zeta^2 takes the 11 triples of the frame's support on both sides, and
    # zeta^3 then the 17 of that product's targets by the frame's support;
    # Morera's weights by the segments' increments, its polynomials at the
    # nodes of their exact rules and its resolvent kernels take 1,069,200
    # terms on its 52,200 rows at seed 1
    from verdicts import _inputs

    from monalg.monogenic import eval_batch, zeta_power

    spec, frames, _ = _inputs("chain12")
    xs = np.full((10, frames["default"].k), 0.5)
    for power, terms in ((2, 11), (3, 11 + 17)):
        with counting() as counts:
            eval_batch(zeta_power(power, spec), frames["default"], xs, spec)
        assert (counts["products"], counts["terms"]) == (10 * (power - 1), 10 * terms)
    counts = suite_counts("chain12", suites=["morera"])["morera"]
    assert (counts["products"], counts["terms"]) == (52_200, 1_069_200)
