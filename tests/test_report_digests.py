"""The byte-identity sweep of ``tests/report_digests.py``."""

from report_digests import SUM, digests


def test_two_sweeps_agree():
    first = digests(["example1", SUM], [1], principal_seeds=[1])
    # verify at two caps, lambda, predicates and the principal script, three
    # files each; the sum of blocks with a radical at two caps
    assert [name for _, name in first[::3]] == [
        "verify/example1/seed1/default.json", "verify/example1/seed1/cap30.json",
        "lambda/example1.json", "predicates/example1.json",
        f"verify/{SUM}/seed1/default.json", f"verify/{SUM}/seed1/cap30.json",
        "principal/seed1.json"]
    assert len({sha for sha, _ in first}) == len(first)
    assert digests(["example1", SUM], [1], principal_seeds=[1]) == first
