"""Idempotent blocks: each block ``I_u A`` refines on its own.

An algebra is the direct sum of its blocks, so every integrand acts block
by block.  A curve integral on an algebra of B > 1 blocks tests each block
against ``tol / sqrt(B)``, and a level evaluates only the blocks still
refining, on their sub-algebra.  One block takes the whole-vector path.
"""

import hashlib

import numpy as np
import pytest
from counts import counting, suite_counts
from verdicts import _inputs, sum_case

from monalg.algebra import AlgebraSpec, validate_algebra
from monalg.catalog import builtin_algebra, builtin_frames
from monalg.curves import Circle2D, Polyline, TriangleSampler, coordinate_plane
from monalg.frames import validate_frame
from monalg.integrals import (
    _LINE_TOL,
    cauchy_formula_check,
    compute_lambda,
    line_integral,
    morera_check,
)
from monalg.monogenic import (
    HolomorphicScalarSpec,
    PrincipalExtension,
    ResolventKernel,
    _restrict,
    constant,
    eval_batch,
    zeta,
    zeta_power,
)
from monalg.quadrature import gauss_segment, trapezoid_periodic
from monalg.resolvent import inverse_many
from monalg.suites import run_suites


def one_block(spec: AlgebraSpec) -> AlgebraSpec:
    """A copy of ``spec`` that refines every integral as one vector."""
    whole = AlgebraSpec(spec.n, spec.m, spec.products, spec.u_map)
    whole._blocks = (tuple(range(spec.n)),)
    return whole


def _semisimple(m):
    spec = builtin_algebra(f"semisimple:m={m}")
    return spec, builtin_frames(spec)["default"]


# -- blocks and sub-algebras ------------------------------------------------------


def test_blocks_are_each_idempotent_and_its_radical():
    spec, frames = sum_case()
    assert validate_algebra(spec).ok
    assert spec._blocks == ((0, 2, 3, 4, 5), (1, 6, 7, 8, 9))
    for name in frames:
        validate_frame(frames[name], spec)
    assert builtin_algebra("example1")._blocks == ((0, 1, 2, 3, 4),)
    assert builtin_algebra("semisimple:m=3")._blocks == ((0,), (1,), (2,))
    # a constant joining two blocks breaks associativity: one block
    joined = AlgebraSpec(5, 2, {(3, 4, 5): 1}, {3: 1, 4: 2, 5: 1})
    assert not validate_algebra(joined).ok
    assert joined._blocks == ((0, 1, 2, 3, 4),)


def test_a_block_of_the_sum_is_its_summand():
    spec, frames = sum_case()
    example1 = builtin_algebra("example1")
    sub = spec._sub((1, 6, 7, 8, 9))
    assert (sub.n, sub.m, sub.products, sub.u_map) == (5, 1, example1.products, example1.u_map)
    assert spec._sub((1, 6, 7, 8, 9)) is sub  # made once
    frame = frames["stacked"]._sub((1, 6, 7, 8, 9))
    assert np.array_equal(frame.a, builtin_frames(example1)["default"].a)
    assert frames["stacked"]._sub((1, 6, 7, 8, 9)) is frame


def _restriction_cases():
    scalar = HolomorphicScalarSpec("exponential", (1.0, 0.5))
    spec, frames = sum_case()
    g = [HolomorphicScalarSpec("polynomial", (0.0, 1.0, 0.5 * i)) for i in range(spec.n - spec.m)]
    yield spec, frames["default"], PrincipalExtension((scalar,) * spec.m, tuple(g))
    spec, frame = _semisimple(12)
    yield spec, frame, PrincipalExtension((scalar,) * spec.m)


@pytest.mark.parametrize("case", range(2))
def test_restricted_functions_are_the_whole_ones_cut_to_their_blocks(case):
    spec, frame, principal = list(_restriction_cases())[case]
    rng = np.random.default_rng(3)
    xs = rng.uniform(-1.0, 1.0, size=(50, frame.k))
    functions = [zeta(spec), zeta_power(3, spec), ResolventKernel(3 + 3j), principal]
    for _ in range(4):
        taken = rng.permutation(len(spec._blocks))[: rng.integers(1, len(spec._blocks))]
        cols = np.array(sorted(c for b in taken for c in spec._blocks[b]))
        sub_spec, sub_frame = spec._sub(tuple(cols.tolist())), frame._sub(tuple(cols.tolist()))
        for phi in functions:
            whole = eval_batch(phi, frame, xs, spec)[:, cols]
            cut = eval_batch(_restrict(phi, spec, cols), sub_frame, xs, sub_spec)
            assert np.abs(cut - whole).max() <= 1e-13 * np.abs(whole).max()
        whole = inverse_many(frame, xs, spec)[:, cols]
        assert np.abs(inverse_many(sub_frame, xs, sub_spec) - whole).max() <= 1e-13 * np.abs(whole).max()


# -- the block test of the refinement loop -------------------------------------------


class _Columns:
    """One integrand whose columns are ``integrands(tau)``, each a block
    (or, with ``blocks=False``, one vector)."""

    def __init__(self, integrands, blocks=True):
        self.integrands = integrands
        self.blocks = np.arange(len(integrands)) if blocks else None

    def __len__(self):
        return 1

    def level(self, tau):
        def evaluate(rows, cols=None):
            vals = np.stack([f(tau) for f in self.integrands], axis=1)[None]
            return vals if cols is None else vals[:, :, cols]

        return evaluate


def _slow(t):
    # Gauss-Kronrod needs 960 nodes at 1e-10 and 1920 at 1e-10 / sqrt(12)
    return np.sqrt(t + 1e-3).astype(complex)


def test_blocks_split_the_tolerance_and_keep_the_whole_vector_bound():
    tol = 1e-10
    alone = {tol: gauss_segment(_slow, tol=tol).nodes,
             tol / np.sqrt(12): gauss_segment(_slow, tol=tol / np.sqrt(12)).nodes}
    assert list(alone.values()) == [960, 1920]
    # 12 equal blocks: each stops at tol / sqrt(12), as the vector at tol
    equal = gauss_segment(_Columns([_slow] * 12), tol=tol)
    assert list(equal.block_nodes[0]) == [1920] * 12
    assert equal.nodes == gauss_segment(_Columns([_slow] * 12, blocks=False), tol=tol).nodes
    # one slow block among exact ones: the vector is within tol once the slow
    # block is, and every block stops with it
    mixed = gauss_segment(_Columns([_slow] + [lambda t: t.astype(complex)] * 11), tol=tol)
    assert list(mixed.block_nodes[0]) == [960] + [15] * 11
    for res in (equal, mixed):
        assert res.converged and res.error_estimate <= tol
    # a level's record holds the largest delta of the blocks it refined
    pair = gauss_segment(_Columns([_slow, lambda t: 2 * _slow(t)]), tol=tol)
    double = gauss_segment(lambda t: 2 * _slow(t), tol=tol)
    assert [nodes for nodes, _ in pair.history[:3]] == [30, 60, 120]
    for ours, alone in zip(pair.history[:3], double.history):
        assert ours[1] == pytest.approx(alone[1], rel=1e-12)


# -- per-block refinement on semisimple:m=12 ------------------------------------------


def _formula_circle(k):
    center = np.zeros(k)
    center[0], center[1] = 0.2, 0.1
    return center, Circle2D(center, 0.3, coordinate_plane(k, 1, 2))


def _scalar_oracle(integrand, u, tol):
    """Component ``u`` of ``integrand(tau)`` refined alone, a scalar integrand."""
    return trapezoid_periodic(lambda tau: integrand(tau)[:, u], tol=tol)


def test_each_block_refines_as_its_component_alone():
    # formula/circle-r0.3[zeta^2] and lambda/deviation[default]: each
    # component refined alone at tol / sqrt(12) stops at the same node count
    spec, frame = _semisimple(12)
    tol = _LINE_TOL / np.sqrt(spec.m)
    center, circle = _formula_circle(frame.k)
    phis = [constant(spec.unit()), zeta(spec), zeta_power(2, spec)]
    formula = cauchy_formula_check(phis, center, circle, frame, spec)[2]

    def formula_integrand(tau):
        xs = circle.points(tau)
        weight = inverse_many(frame, xs - center, spec) * (circle.tangents(tau) @ frame.a)
        return eval_batch(phis[2], frame, xs, spec) * weight

    unit = Circle2D(np.zeros(frame.k), 1.0, coordinate_plane(frame.k, 1, 2))
    lam = compute_lambda(spec, frame, unit)

    def lambda_integrand(tau):
        return inverse_many(frame, unit.points(tau), spec) * (unit.tangents(tau) @ frame.a)

    for block_nodes, value, integrand in ((formula.diagnostics["block_nodes"], formula.value,
                                           formula_integrand),
                                          (lam.block_nodes, lam.value, lambda_integrand)):
        oracles = [_scalar_oracle(integrand, u, tol) for u in range(spec.m)]
        assert block_nodes == [oracle.nodes for oracle in oracles]
        assert all(oracle.converged for oracle in oracles)
        assert block_nodes[:3] == [256, 256, 512] and block_nodes[-1] == 8192
        expected = np.array([oracle.value for oracle in oracles])
        assert np.abs(value.coords - expected).max() <= 1e-13


def test_a_level_evaluates_only_the_blocks_still_refining(monkeypatch):
    # the 8192-node level of the formula circle evaluates the columns of the
    # blocks that reached it, for the functions and for the shifted inverse
    from monalg import integrals

    spec, frame = _semisimple(12)
    center, circle = _formula_circle(frame.k)
    phis = [constant(spec.unit()), zeta(spec), zeta_power(2, spec)]
    shapes = []
    evaluate = integrals.eval_batch

    def recorded(phi, frame, xs, spec):
        out = evaluate(phi, frame, xs, spec)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(integrals, "eval_batch", recorded)
    reports = cauchy_formula_check(phis, center, circle, frame, spec)
    refining = [sum(nodes == 8192 for nodes in rep.diagnostics["block_nodes"]) for rep in reports]
    assert refining == [3, 3, 3]
    finest = [shape for shape in shapes if shape[0] == 8192]
    # the inverse once, then each function, on 3 of the 12 columns
    assert finest == [(8192, 3)] * 4
    assert max(shape[0] * shape[1] for shape in shapes) == 8192 * 3


@pytest.mark.parametrize("name, calls, digest", [
    ("example1", 122, "31a6a858a1d6f170346a78c906a9b7cf6d3e2de27d18f0b5a646efaedfdf278b"),
    ("chain12", 122, "c5eff959d4543d0f1641d594cddbea86f6246c2e2cf934c6fadda22838044169"),
    ("semisimple:m=1", 116, "9e999133cb396fa0647ef223e4d778f527afda76350caca15d049b7a727e90df"),
], ids=["example1", "chain12", "semisimple:m=1"])  # ids that a new pin does not rename
def test_one_block_takes_the_whole_vector_calls(name, calls, digest):
    # the shape of every eval_batch result of a verify run at seed 1, as
    # before blocks refined on their own (polynomials and the necessity
    # controls at their exact rules' nodes)
    spec, frames, options = _inputs(name)
    assert len(spec._blocks) == 1
    shapes = []
    with counting(shapes):
        run_suites(["all"], spec, frames, 1, options)
    assert len(shapes) == calls
    assert hashlib.sha256(repr(shapes).encode()).hexdigest() == digest


def test_block_nodes_appear_only_with_several_blocks():
    for name, several in (("example1", False), ("semisimple:m=3", True)):
        spec, frames, options = _inputs(name)
        for rep in run_suites(["cauchy", "lambda", "morera", "formula"], spec, frames, 1, options):
            if "nodes" not in rep.diagnostics:
                continue
            assert ("block_nodes" in rep.diagnostics) == several, rep.name
            if several:
                assert len(rep.diagnostics["block_nodes"]) == spec.m
                if rep.name.startswith(("cauchy/circle", "lambda/", "formula/circle")):
                    assert max(rep.diagnostics["block_nodes"]) == rep.diagnostics["nodes"]


def test_point_counts_of_the_lambda_suite():
    # example1 refines its 5 columns as one vector; on semisimple:m=12 the
    # lambda circle, in the widest plane, evaluates 4,032 points, 48,384
    # component-points as one vector and 21,248 by blocks
    for name, rows, points in (("example1", 896, 4480), ("semisimple:m=12", 4032, 21248)):
        counts = suite_counts(name, suites=["lambda"])["lambda"]
        assert (counts["rows"], counts["points"]) == (rows, points)


def test_formula_and_lambda_rows_on_wide_algebras():
    # a cost guard: the curves in the widest plane take these rows at seed 1;
    # in plane (1,2) semisimple:m=20 took 955,725 for both suites
    rows = {}
    for name in ("semisimple:m=12", "semisimple:m=20"):
        counts = suite_counts(name, suites=["lambda", "formula"])
        rows[name] = (counts["lambda"]["rows"], counts["formula"]["rows"])
    assert rows == {"semisimple:m=12": (4032, 40905), "semisimple:m=20": (4032, 75081)}
    assert 8 * sum(rows["semisimple:m=20"]) <= 955725


def test_blocks_evaluate_fewer_component_points_on_semisimple_m20():
    # lambda and a formula circle in plane (1,2), of margin 0.053, against
    # the same integrals refined as one vector
    spec, frames, options = _inputs("semisimple:m=20")
    frame = frames["default"]
    center, circle = _formula_circle(frame.k)
    unit = Circle2D(np.zeros(frame.k), 1.0, coordinate_plane(frame.k, 1, 2))
    phis = [constant(spec.unit()), zeta(spec), zeta_power(2, spec)]
    points = []
    for algebra in (spec, one_block(spec)):
        with counting() as counts:
            compute_lambda(algebra, frame, unit)
            cauchy_formula_check(phis, center, circle, frame, algebra)
        points.append(counts["points"])
    assert points[1] >= 2.5 * points[0]


# -- blocks that carry a radical: example4 + example1 ------------------------------------


def test_blocks_with_a_radical_match_the_whole_vector():
    spec, frames = sum_case()
    whole = one_block(spec)
    frame = frames["default"]
    k = frame.k
    unit = Circle2D(np.zeros(k), 1.0, coordinate_plane(k, 1, 2))
    square = np.zeros((4, k))
    square[:, 0] = [0.9, -0.9, -0.9, 0.9]
    square[:, 1] = [0.9, 0.9, -0.9, -0.9]
    polyline = Polyline(square, closed=True)
    # the kernel's pole at 1.2i lies 0.2 from the first block's image of the
    # unit circle and far from the second's
    phis = [zeta_power(3, spec), ResolventKernel(1.2j), list(_restriction_cases())[0][2]]
    differ = 0
    for curve in (unit, polyline):
        for ours, one in zip(line_integral(phis, curve, frame, spec),
                             line_integral(phis, curve, frame, whole)):
            assert ours.converged and one.converged and one.block_nodes is None
            assert np.abs(ours.value.coords - one.value.coords).max() <= _LINE_TOL
            differ += len(set(ours.block_nodes)) > 1
        center, circle = _formula_circle(k)
        for ours, one in zip(cauchy_formula_check(phis, center, curve, frame, spec),
                             cauchy_formula_check(phis, center, curve, frame, whole)):
            assert np.abs(ours.value.coords - one.value.coords).max() <= _LINE_TOL
            differ += len(set(ours.diagnostics["block_nodes"])) > 1
    assert differ  # some blocks stopped before others
    ours, one = compute_lambda(spec, frame, unit), compute_lambda(whole, frame, unit)
    assert np.abs(ours.value.coords - one.value.coords).max() <= _LINE_TOL
    sampler = TriangleSampler(np.zeros(k), 1.0)
    triangles = sampler.sample(np.random.default_rng(5), 20)
    for phi in phis:
        ours = morera_check(phi, frame, spec, sampler, triangles=triangles)
        one = morera_check(phi, frame, whole, sampler, triangles=triangles)
        assert abs(ours.residual - one.residual) <= _LINE_TOL


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_check_passes_on_a_sum_with_a_radical(seed):
    spec, frames = sum_case()
    reports = run_suites(["all"], spec, frames, seed)
    assert [rep.name for rep in reports if not rep.passed] == []
    # a third frame adds its lambda and predicates checks to the 50 of two
    assert len(reports) == 53
