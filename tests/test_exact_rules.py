"""Integrands of known degree take one level of a rule exact for it.

A function that states its degree ``p`` in the point (a ``Polynomial`` in
``zeta``, the suites' necessity control) makes ``psi(zeta) dzeta`` a
polynomial of degree ``p`` along a segment and a trigonometric polynomial
of degree ``p + 1`` on a circle: ``p // 2 + 1`` Gauss-Legendre nodes or
``p + 2`` trapezoid nodes integrate it exactly.  The guard below compares
every such integral of the Morera and cauchy suites with the adaptive rule
refined to roundoff, on every algebra of the verdict ledger.
"""

import math

import numpy as np
import pytest
from scipy.special import roots_legendre
from verdicts import ALGEBRAS, _inputs

from monalg.curves import Circle2D, TriangleSampler, coordinate_plane
from monalg.integrals import _CurveStack, _integrate, line_integral, morera_check
from monalg.monogenic import Polynomial, zeta, zeta_power
from monalg.quadrature import DEFAULT_CAP, _legendre, gauss_segment
from monalg.suites import _Control, _rng, _standard_curves, run_suites


def _exponential(degree, spec):
    """``sum_p zeta^p / p!`` up to ``degree``: a polynomial of moderate size."""
    return Polynomial(tuple((1.0 / math.factorial(p)) * spec.unit() for p in range(degree + 1)))


def _edges(triangles):
    """The ``(starts, directions)`` of the triangles' edges, as Morera's."""
    k = triangles.shape[2]
    return triangles.reshape(-1, k), (np.roll(triangles, -1, axis=1) - triangles).reshape(-1, k)


def _segments(polyline):
    """The ``(starts, directions)`` of a polyline's segments."""
    segments = np.array(polyline.segments())
    return segments[:, 0], segments[:, 1] - segments[:, 0]


def _refined_segments(psi, frame, spec, segments):
    """Each segment's integral, refined to roundoff by the adaptive rule, and
    its scale: the integrand's largest norm on the segment times the norm
    of the segment's ``dzeta``."""
    stack = _CurveStack([psi], frame, spec, segments)
    vals = stack.level(np.linspace(0.0, 1.0, 16))(np.arange(len(stack)))
    scale = np.linalg.norm(vals, axis=2).max(axis=1) * np.linalg.norm(stack.increments, axis=1)
    return gauss_segment(stack, tol=1e-15, cap=240).value, scale


def _fixed_trapezoid(psi, frame, spec, circle, n=256):
    """The circle's integral by the ``n``-node trapezoid, and its scale:
    2 pi times the integrand's largest norm at the nodes."""
    tau = np.arange(n) * (2.0 * np.pi / n)
    vals = _CurveStack([psi], frame, spec, circle).level(tau)(np.arange(1))[0]
    return vals.mean(axis=0) * 2.0 * np.pi, 2.0 * np.pi * np.linalg.norm(vals, axis=1).max()


@pytest.mark.parametrize("name", ALGEBRAS)
def test_exact_rules_match_the_adaptive_rule_refined_to_roundoff(name):
    spec, frames, options = _inputs(name)
    frame = frames["default"]
    triangles = TriangleSampler(np.zeros(frame.k), 1.0).sample(_rng(1, 6), 200)
    edges = _edges(triangles)
    phis = [zeta(spec), zeta_power(2, spec), zeta_power(3, spec), _Control(spec)]
    for psi in phis:
        [res] = _integrate([psi], frame, spec, edges, 1e-10 / 3,
                           options.get("nodes_cap", DEFAULT_CAP), lambda rows: rows)
        assert res.exact and res.nodes == len(edges[0]) * (psi.degree // 2 + 1)
        refined, scale = _refined_segments(psi, frame, spec, edges)
        assert (np.linalg.norm(res.value - refined, axis=1) <= 1e-13 * scale).all()
    for _, curve in _standard_curves(frame.k):
        for psi, res in zip(phis, line_integral(phis, curve, frame, spec)):
            assert res.exact and res.converged and res.error_estimate == 0.0
            if isinstance(curve, Circle2D):
                assert res.nodes == psi.degree + 2
                value, scale = _fixed_trapezoid(psi, frame, spec, curve)
            else:
                refined, scales = _refined_segments(psi, frame, spec, _segments(curve))
                value, scale = refined.sum(axis=0), scales.sum()
            assert np.linalg.norm(res.value.coords - value) <= 1e-13 * scale


def test_a_degree_beyond_the_first_level_takes_more_nodes_exactly():
    spec, frames, _ = _inputs("example1")
    frame = frames["default"]
    square = _standard_curves(frame.k)[2][1]
    psi = _exponential(31, spec)  # 16 Gauss-Legendre nodes a segment, K15 has 15
    res = line_integral(psi, square, frame, spec)
    assert (res.exact, res.nodes, res.history) == (True, 4 * 16, [])
    refined, scales = _refined_segments(psi, frame, spec, _segments(square))
    assert np.linalg.norm(res.value.coords - refined.sum(axis=0)) <= 1e-13 * scales.sum()
    circle = Circle2D(np.zeros(frame.k), 1.0, coordinate_plane(frame.k, 1, 2))
    psi = _exponential(70, spec)  # 72 trapezoid nodes, the first level has 64
    res = line_integral(psi, circle, frame, spec)
    assert (res.exact, res.nodes) == (True, 72)
    value, scale = _fixed_trapezoid(psi, frame, spec, circle, n=1024)
    assert np.linalg.norm(res.value.coords - value) <= 1e-13 * scale


def test_a_cap_below_the_exact_rule_falls_back_to_the_adaptive_rule():
    # the exact rule is taken when its nodes are within the cap, or no more
    # than the first level, which runs under any cap
    spec, frames, _ = _inputs("example1")
    frame = frames["default"]
    square = _standard_curves(frame.k)[2][1]
    psi = _exponential(31, spec)
    assert line_integral(psi, square, frame, spec, cap=16).exact
    capped = line_integral(psi, square, frame, spec, cap=15)
    assert (capped.exact, capped.nodes) == (False, 4 * 15)  # K15 against its G7
    assert line_integral(zeta_power(3, spec), square, frame, spec, cap=1).nodes == 4 * 2
    circle = Circle2D(np.zeros(frame.k), 1.0, coordinate_plane(frame.k, 1, 2))
    psi = _exponential(70, spec)
    assert line_integral(psi, circle, frame, spec, cap=72).exact
    capped = line_integral(psi, circle, frame, spec, cap=71)
    assert (capped.exact, capped.nodes, capped.converged) == (False, 64, False)
    assert line_integral(zeta_power(3, spec), circle, frame, spec, cap=1).nodes == 5


def test_morera_nodes_of_a_polynomial_do_not_change_with_the_triangles_scale():
    # K15 against its embedded G7 judged roundoff on large segments as a
    # delta; the exact rule's nodes follow from the degree alone
    spec, frames, _ = _inputs("semisimple:m=20")
    frame = frames["default"]
    sampler = TriangleSampler(np.zeros(frame.k), 1.0)
    triangles = sampler.sample(_rng(4, 6), 200)
    for psi in (zeta(spec), zeta_power(3, spec), _Control(spec)):
        reports = [morera_check(psi, frame, spec, sampler, triangles=scale * triangles)
                   for scale in (1.0, 1e5)]
        nodes = {rep.diagnostics["nodes"] for rep in reports}
        assert nodes == {600 * (psi.degree // 2 + 1)}
        assert all(rep.diagnostics["exact_rule"] for rep in reports)


def test_reports_say_which_integrals_took_the_exact_rule():
    spec, frames, options = _inputs("example1")
    reports = run_suites(["cauchy", "morera", "formula", "lambda"], spec, frames, 1, options)
    exact = {rep.name for rep in reports if rep.diagnostics.get("exact_rule")}
    polynomials = [f"{curve}[{phi}]" for curve, _ in _standard_curves(frames["default"].k)
                   for phi in ("zeta", "zeta^2", "zeta^3")]
    assert exact == {f"cauchy/{name}" for name in polynomials} | {
        "morera/zeta", "morera/zeta^2", "morera/zeta^3"}
    for rep in reports:
        if rep.name in exact:
            assert rep.diagnostics["exact_rule"] is True and rep.diagnostics["converged"]
            assert rep.diagnostics.get("quadrature_error", 0.0) == 0.0
            assert rep.diagnostics.get("history", []) == []


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 64, 200])
def test_gauss_legendre_nodes_and_weights(n):
    tau, weights = _legendre(n)
    x, w = roots_legendre(n)
    assert np.abs(tau - 0.5 * (1.0 + x)).max() <= 1e-15
    assert np.abs(weights - 0.5 * w).max() <= 1e-14
    # exact for every power up to 2 n - 1 on [0, 1]
    powers = np.arange(2 * n)
    assert np.abs(tau[None, :] ** powers[:, None] @ weights - 1.0 / (powers + 1)).max() <= 1e-14

