"""Machine-independent cost: rows through the sparse product kernel."""

import pytest
from product_counts import product_rows


@pytest.mark.parametrize("name, series", [("example1", 2), ("chain12", 5)])
def test_oracle_suite_product_rows(name, series):
    # 1,000 points: the inverse and the resolvent take the radical series'
    # products each (2 at depth 2, 5 in blocks of 3 at depth 11), the
    # resolvent identity one product, and the left-multiplication matrices
    # none; every one goes through the one kernel
    rows = product_rows(name, suites=["oracle"])["oracle"]
    assert rows == {"_times_fixed": (2 * series + 1) * 1000}
