"""Peak memory: the oracle suite's batches and the counting tool's peak column."""

import tracemalloc

import numpy as np
import pytest
from counts import COUNTS, PEAK, main, suite_counts
from verdicts import _inputs

from monalg import suites
from monalg.algebra import _left_mul_coords, _multiply_coords
from monalg.frames import embed_many
from monalg.quadrature import _BLOCK_POINTS
from monalg.resolvent import _inverse_coords, _resolvent_coords


def _one_shot(spec, frames, seed, count):
    """The oracle suite's two residuals with every point in one batch, as
    the suite computed them before it took batches."""
    frame = frames["default"]
    rng = suites._rng(seed, 2)
    xs = suites._sample_invertible(rng, frame, spec, count)
    emb = embed_many(frame, xs)
    ours = _inverse_coords(emb, spec, frame._support)
    stacked = _left_mul_coords(emb, spec)
    rhs = np.broadcast_to(spec.unit_coords()[:, None], (len(emb), spec.n, 1))
    oracle = np.linalg.solve(stacked, rhs)[..., 0]
    inv_residual = float(np.max(np.linalg.norm(ours - oracle, axis=1)))
    xi = emb[:, : spec.m]
    t = np.empty(count, dtype=np.complex128)
    remaining = np.arange(count)
    while remaining.size:
        cand = rng.uniform(-3, 3, size=(remaining.size, 2))
        tc = cand[:, 0] + 1j * cand[:, 1]
        ok = np.min(np.abs(tc[:, None] - xi[remaining]), axis=1) > 0.25
        t[remaining[ok]] = tc[ok]
        remaining = remaining[~ok]
    res = _resolvent_coords(t, emb, spec, frame._support)
    shifted = t[:, None] * spec.unit_coords() - emb
    prod = _multiply_coords(shifted, res, spec)
    res_residual = float(np.max(np.linalg.norm(prod - spec.unit_coords(), axis=1)))
    return [inv_residual, res_residual]


@pytest.mark.parametrize("name", ["example1", "chain12"])
@pytest.mark.parametrize("count", [1000, 1025])
def test_oracle_batches_give_the_one_shot_residuals(name, count):
    spec, frames, options = _inputs(name)
    reports = suites.suite_oracle(spec, frames, 1, {**options, "points": count})
    assert [rep.residual for rep in reports] == _one_shot(spec, frames, 1, count)
    assert all(rep.diagnostics == {"points": count} for rep in reports)


@pytest.mark.parametrize("count", [1000, 1025])
def test_oracle_kernels_take_at_most_a_block_of_points(monkeypatch, count):
    spec, frames, options = _inputs("chain12")
    rows = {}

    def counted(name, fn, at):
        def run(*args, **kwargs):
            rows.setdefault(name, []).append(len(args[at]))
            return fn(*args, **kwargs)
        return run

    for name, at in (("_inverse_coords", 0), ("_left_mul_coords", 0),
                     ("_resolvent_coords", 1), ("_multiply_coords", 0)):
        monkeypatch.setattr(suites, name, counted(name, getattr(suites, name), at))
    suites.suite_oracle(spec, frames, 1, {**options, "points": count})
    assert set(rows) == {"_inverse_coords", "_left_mul_coords", "_resolvent_coords",
                         "_multiply_coords"}
    for sizes in rows.values():
        assert max(sizes) <= _BLOCK_POINTS
        assert sum(sizes) == count


def _oracle_peak(spec, frames, options, count) -> int:
    tracemalloc.start()
    try:
        suites.suite_oracle(spec, frames, 1, {**options, "points": count})
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_peak_grows_slowly_with_the_points():
    # the draws grow with the points, the batches do not: 1.27 times the
    # peak at 4,000 points as at 1,000, where one batch took 3.99 times
    spec, frames, options = _inputs("chain12")
    suites.suite_oracle(spec, frames, 1, options)  # lazy imports and caches first
    small = _oracle_peak(spec, frames, options, 1000)
    large = _oracle_peak(spec, frames, options, 4000)
    assert large < 1.5 * small


def test_point_counts_print_each_suites_peak(capsys):
    assert main(["example1"]) == 0
    header, *rows, total = capsys.readouterr().out.splitlines()
    assert header == "example1 (seed 1): suite rows points products terms peak_KiB"
    table = {}
    for row in rows:
        suite, *columns = row.split()
        table[suite] = [int(column.replace(",", "")) for column in columns]
    assert list(table) == list(suites.SUITES)
    assert all(len(columns) == 5 and columns[4] > 0 for columns in table.values())
    # the oracle holds at least one batch of left-multiplication matrices
    spec = _inputs("example1")[0]
    assert table["oracle"][4] >= _BLOCK_POINTS * spec.n**2 * 16 / 1024
    name, *columns = total.split()
    assert name == "total"
    assert [int(column.replace(",", "")) for column in columns] == [
        *(sum(c[i] for c in table.values()) for i in range(4)), max(c[4] for c in table.values())]
    # the peak joins the counts only when asked for
    assert suite_counts("example1", suites=["cr"]) == {
        "cr": {"rows": 72, "points": 360, "products": 114, "terms": 1188}}
    assert set(suite_counts("example1", suites=["cr"], peak=True)["cr"]) == {*COUNTS, PEAK}
