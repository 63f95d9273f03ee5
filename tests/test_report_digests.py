"""The byte-identity sweep of ``tests/report_digests.py``."""

import copy

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


def test_values_compare_with_what_moved():
    from report_digests import compare, values

    first = values(["example1"], [1])
    assert list(first) == ["verify/example1/seed1/default", "verify/example1/seed1/cap30"]
    record = first["verify/example1/seed1/default"][0]
    assert set(record) == {"name", "passed", "residual", "tolerance", "nodes", "keys"}
    assert compare(first, values(["example1"], [1])) == [
        "largest |residual change| / tolerance on example1: 0"]
    # a planted move of each kind, in one run
    moved = copy.deepcopy(first)
    checks = moved["verify/example1/seed1/default"]
    kernel = next(r for r in checks if r["name"] == "morera/kernel")
    kernel["passed"], kernel["nodes"] = False, kernel["nodes"] + 15
    kernel["keys"] = [key for key in kernel["keys"] if key != "history"] + ["witness"]
    kernel["residual"] += 0.5 * kernel["tolerance"]
    checks.append(dict(kernel, name="morera/zeta^4"))
    del moved["verify/example1/seed1/cap30"]
    nodes = next(r for r in first["verify/example1/seed1/default"]
                 if r["name"] == "morera/kernel")["nodes"]
    assert compare(first, moved) == [
        "run removed  [1 runs, e.g. verify/example1/seed1/cap30]",
        "check added: morera/zeta^4  [1 runs, e.g. verify/example1/seed1/default]",
        "verdict PASS -> FAIL: morera/kernel  [1 runs, e.g. verify/example1/seed1/default]",
        f"nodes {nodes} -> {nodes + 15}: morera/kernel  [1 runs, e.g. "
        "verify/example1/seed1/default]",
        "key removed: morera/kernel history  [1 runs, e.g. verify/example1/seed1/default]",
        "key added: morera/kernel witness  [1 runs, e.g. verify/example1/seed1/default]",
        "largest |residual change| / tolerance on example1: 0.5"]
