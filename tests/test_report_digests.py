"""The byte-identity sweep of ``tests/report_digests.py``."""

from report_digests import digests


def test_two_sweeps_agree():
    first = digests(["example1"], [1], principal_seeds=[1])
    # verify at two caps, lambda, predicates and the principal script, three files each
    assert [name for _, name in first[::3]] == [
        "verify/example1/seed1/default.json", "verify/example1/seed1/cap30.json",
        "lambda/example1.json", "predicates/example1.json", "principal/seed1.json"]
    assert len({sha for sha, _ in first}) == len(first)
    assert digests(["example1"], [1], principal_seeds=[1]) == first
