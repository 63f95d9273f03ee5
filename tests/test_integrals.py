"""Line integrals, windings, lambda, and the named verification checks."""

import importlib

import numpy as np
import pytest

from test_algebra import chain
from test_resolvent import power_chains, random_frame

from monalg.algebra import AlgebraSpec, Element, _multiply_coords, basis_element
from monalg.catalog import builtin_algebra, builtin_frames
from monalg.curves import (
    Circle2D,
    Polyline,
    Triangle,
    TriangleSampler,
    coordinate_plane,
)
from monalg.errors import (
    EmbracingError,
    IntegrationError,
    PoleError,
    SingularElementError,
    SpecFormatError,
)
from monalg.frames import Frame, embed
from monalg.io import report_record
from monalg.integrals import (
    _InverseIntegrand,
    cauchy_formula_check,
    cauchy_theorem_check,
    compute_lambda,
    line_integral,
    morera_check,
    winding_certificate,
)
from monalg.monogenic import (
    ResolventKernel,
    constant,
    eval_batch,
    eval_function,
    zeta,
    zeta_power,
)
from monalg.predicates import theorem5_predicate
from monalg.quadrature import _KRONROD_NODES, DEFAULT_CAP, gauss_segment
from monalg.resolvent import _radical_series, inverse_many
from monalg.suites import _Control, run_suites, suite_formula
from verdicts import _inputs


def example1():
    return AlgebraSpec(5, 1, {(2, 2, 3): 1, (2, 4, 5): 1})


def example2():
    return AlgebraSpec(5, 1, {(2, 2, 3): 1})


def default_frame(spec):
    return Frame.from_rows(spec, [1j, 1, 0, 1, 0], [0, 0, 1, 0, 1j])


def unit_circle(k=3):
    return Circle2D(np.zeros(k), 1.0, coordinate_plane(k, 1, 2))


def control_psi(x):
    """Non-monogenic function x -> x_2 I_1."""
    return Element([x[1], 0, 0, 0, 0])


# -- line integral basics ------------------------------------------------------


def test_constant_over_closed_circle_vanishes():
    spec = example1()
    frame = default_frame(spec)
    c = Element([1.0, 2.0, -1.0, 0.5j, 0.0])
    res = line_integral(constant(c), unit_circle(), frame, spec)
    assert res.value.norm() <= 1e-12 * c.norm() * (2 * np.pi)


def test_unit_function_over_open_segment():
    spec = example1()
    frame = default_frame(spec)
    a_pt = np.array([0.1, -0.2, 0.4])
    b_pt = np.array([0.7, 0.3, -0.5])
    seg = Polyline(np.stack([a_pt, b_pt]), closed=False)
    res = line_integral(constant(spec.unit()), seg, frame, spec)
    expected = embed(frame, b_pt, spec) - embed(frame, a_pt, spec)
    assert (res.value - expected).norm() <= 1e-13


def test_identity_over_unit_circle():
    # componentwise the scalar integrals of cos/sin products cancel exactly
    spec = example1()
    frame = default_frame(spec)
    res = line_integral(zeta(spec), unit_circle(), frame, spec)
    assert res.value.norm() <= 1e-12


def test_orientation_antisymmetry_is_exact():
    spec = example1()
    frame = default_frame(spec)
    phi = zeta_power(2, spec)
    circle = Circle2D(np.array([0.1, 0.0, 0.2]), 0.8, coordinate_plane(3, 1, 2))
    fwd = line_integral(phi, circle, frame, spec).value.coords
    rev = line_integral(phi, circle.reversed(), frame, spec).value.coords
    assert np.array_equal(fwd, -rev)
    square = Polyline(
        np.array([[0.5, 0.5, 0], [-0.5, 0.5, 0], [-0.5, -0.5, 0], [0.5, -0.5, 0]]),
        closed=True,
    )
    fwd = line_integral(phi, square, frame, spec).value.coords
    rev = line_integral(phi, square.reversed(), frame, spec).value.coords
    assert np.array_equal(fwd, -rev)


def test_polyline_split_additivity():
    spec = example2()
    frame = default_frame(spec)
    phi = zeta_power(2, spec)
    verts = np.array([[0, 0, 0], [0.5, 0.2, 0], [0.9, -0.3, 0.4], [0.1, 0.8, -0.2]])
    whole = line_integral(phi, Polyline(verts, closed=False), frame, spec).value
    first = line_integral(phi, Polyline(verts[:3], closed=False), frame, spec).value
    second = line_integral(phi, Polyline(verts[2:], closed=False), frame, spec).value
    assert (whole - (first + second)).norm() <= 1e-13


def test_integration_error_names_parameter():
    # the inverse integrand fails where the circle meets the singular locus
    spec = example1()
    frame = default_frame(spec)
    bad_circle = Circle2D(np.zeros(3), 1.0, coordinate_plane(3, 1, 3))
    with pytest.raises(IntegrationError):
        compute_lambda(spec, frame, bad_circle)


def test_integration_error_near_locus_names_tau():
    spec = example1()
    frame = default_frame(spec)
    # the closest approach to the locus, 1e-9 at tau = pi, is far from it by
    # the one margin, so the integrand is evaluated there and its near pole
    # takes the refinement to the cap, unconverged
    grazing = Circle2D(np.array([1.0 + 1e-9, 0.0, 0.0]), 1.0, coordinate_plane(3, 1, 2))
    lam = compute_lambda(spec, frame, grazing)
    assert lam.converged is False
    assert lam.nodes == DEFAULT_CAP
    assert lam.windings == (0,)
    # a node on the locus, at tau = pi of a circle through the origin that
    # the certificate is not asked about, is refused by the integrand, by name
    through = Circle2D(np.array([1.0, 0.0, 0.0]), 1.0, coordinate_plane(3, 1, 2))
    with pytest.raises(IntegrationError, match="tau=") as err:
        line_integral(_InverseIntegrand(), through, frame, spec)
    assert err.value.tau == pytest.approx(np.pi, rel=1e-12)
    assert isinstance(err.value.__cause__, SingularElementError)


def test_lambda_and_formula_do_not_depend_on_the_radius():
    # zeta^{-1} dzeta and (zeta - zeta_c)^{-1} dzeta do not change under
    # x -> c x, so no radius of a circle is refused for its size.  Off
    # centre too: the formula's factor takes the offsets r u from the
    # geometry, where x_c + r u - x_c would lose about 1e-8 of r u to
    # rounding at r = 1e-9 and |x_c| = 0.2, and stop unconverged.
    spec = example1()
    frame = default_frame(spec)
    plane = coordinate_plane(3, 1, 2)
    phis = [constant(spec.unit()), zeta(spec)]
    off = np.array([0.2, 0.1, 0.0])
    lambdas, formulas = {}, {}
    for radius in (1e-9, 1e-6, 1.0, 1e3):
        circle = Circle2D(np.zeros(3), radius, plane)
        lam = compute_lambda(spec, frame, circle)
        assert lam.converged and lam.windings == (1,)
        lambdas[radius] = lam.value.coords
        reports = cauchy_formula_check(phis, np.zeros(3), circle, frame, spec)
        assert all(rep.diagnostics["converged"] and rep.passed for rep in reports)
        formulas[radius] = np.array([rep.value.coords for rep in reports])
        shifted = cauchy_formula_check(phis, off, Circle2D(off, radius, plane), frame, spec)
        assert all(rep.passed for rep in shifted)
        assert [rep.diagnostics["nodes"] for rep in shifted] == [256, 256]
        assert [rep.diagnostics["nodes"] for rep in reports] == [256, 256]
        assert np.max(np.abs(shifted[0].value.coords - formulas[radius][0])) <= 1e-12
    for radius in lambdas:
        assert np.max(np.abs(lambdas[radius] - lambdas[1.0])) <= 1e-12
        assert np.max(np.abs(formulas[radius] - formulas[1.0])) <= 1e-12


# -- winding certificates --------------------------------------------------------


def test_winding_small_circle():
    spec = example1()
    frame = default_frame(spec)
    center = np.array([0.3, 0.1, -0.2])
    circle = Circle2D(center, 0.4, coordinate_plane(3, 1, 2))
    cert = winding_certificate(circle, frame, center, spec)
    assert cert.windings == (1,)
    assert cert.embraces_once
    rev = winding_certificate(circle.reversed(), frame, center, spec)
    assert rev.windings == (-1,)
    assert rev.orientation_reversed and not rev.embraces_once


def test_winding_far_curve():
    spec = example1()
    frame = default_frame(spec)
    center = np.zeros(3)
    far = Circle2D(np.array([3.0, 3.0, 0.0]), 0.5, coordinate_plane(3, 1, 2))
    cert = winding_certificate(far, frame, center, spec)
    assert cert.windings == (0,)


def test_winding_polyline_vs_dense_oracle():
    spec = example1()
    frame = default_frame(spec)
    rng = np.random.default_rng(73)
    center = np.zeros(3)
    xi0 = 0.0
    for _ in range(5):
        # random star-shaped loop around the origin in the (x1, x2)-plane
        angles = np.sort(rng.uniform(0, 2 * np.pi, size=7))
        radii = rng.uniform(0.5, 1.5, size=7)
        verts = np.stack(
            [radii * np.cos(angles), radii * np.sin(angles), np.zeros(7)], axis=1
        )
        poly = Polyline(verts, closed=True)
        cert = winding_certificate(poly, frame, center, spec)
        # brute force: argument tracking at 10x density
        pts = poly.sample(per_segment=2560)
        w = (pts @ frame.a)[:, 0] - xi0
        steps = np.angle(np.roll(w, -1) / w)
        brute = int(np.rint(steps.sum() / (2 * np.pi)))
        assert cert.windings == (brute,)


def test_winding_error_on_locus():
    spec = example1()
    frame = default_frame(spec)
    center = np.zeros(3)
    through = Circle2D(np.array([1.0, 0.0, 0.0]), 1.0, coordinate_plane(3, 1, 2))
    with pytest.raises(IntegrationError):
        winding_certificate(through, frame, center, spec)


def _tracked_windings(curve, frame, center, spec, count=20000):
    """Windings by argument tracking on ``count`` points, each step under pi/4."""
    pts = (curve.sample(count) if isinstance(curve, Circle2D)
           else curve.sample(per_segment=count // len(curve.segments())))
    w = (pts @ frame.a)[:, : spec.m] - (center @ frame.a)[: spec.m]
    steps = np.angle(np.roll(w, -1, axis=0) / w)
    assert np.max(np.abs(steps)) < np.pi / 4
    return tuple(int(curve.orientation * v) for v in np.rint(steps.sum(axis=0) / (2 * np.pi)))


@pytest.mark.parametrize("name", ["example1", "example2", "example3", "example4",
                                  "semisimple:m=3", "semisimple:m=8", "chain12"])
def test_exact_windings_match_argument_tracking(name):
    spec, frames, _ = _inputs(name)
    frame = frames["default"]
    k = frame.k
    rng = np.random.default_rng(11)
    tilt = np.zeros((2, k))
    tilt[0, 0], tilt[1, 1], tilt[1, 2] = 1.0, np.cos(0.4), np.sin(0.4)
    angles = 4 * np.pi * np.arange(5) / 5
    star = np.stack([np.cos(angles), np.sin(angles)], axis=1)  # a pentagram
    seen = set()
    for _ in range(12):
        center = 0.5 * rng.standard_normal(k)
        curves = [
            Circle2D(center, rng.uniform(0.3, 1.5), tilt),  # tilted, centred
            Circle2D(center + 0.4 * rng.standard_normal(k), rng.uniform(0.3, 1.5),
                     np.linalg.qr(rng.standard_normal((k, 2)))[0].T),  # off centre, skew plane
            Polyline(center + rng.standard_normal((5, k)), closed=True),  # skew polyline
            Polyline(center + 0.8 * star @ tilt, closed=True),  # winds twice
        ]
        curves += [curve.reversed() for curve in curves]
        for curve in curves:
            exact = winding_certificate(curve, frame, center, spec).windings
            assert exact == _tracked_windings(curve, frame, center, spec)
            seen.update(exact)
    assert {-2, -1, 0, 1, 2} <= seen


@pytest.mark.parametrize("turn", [0.0, 0.3])
def test_winding_does_not_depend_on_where_the_circle_starts(turn):
    # the curve passes 1e-7 from the locus at tau = pi - turn; argument
    # tracking from tau = 0 needs steps far below 1e-7 there
    spec = example1()
    frame = default_frame(spec)
    rotation = np.array([[np.cos(turn), np.sin(turn)], [-np.sin(turn), np.cos(turn)]])
    circle = Circle2D(np.array([1.0 + 1e-7, 0.0, 0.0]), 1.0,
                      rotation @ coordinate_plane(3, 1, 2))
    assert winding_certificate(circle, frame, np.zeros(3), spec).windings == (0,)


def test_winding_of_a_clockwise_image():
    # xi_1 = x_1 + i x_2, so on the plane (e_2, e_1) the image is i e^{-i tau}
    # and its z-coefficient P is exactly zero
    spec = example1()
    frame = default_frame(spec)
    circle = Circle2D(np.zeros(3), 1.0, coordinate_plane(3, 2, 1))
    assert winding_certificate(circle, frame, np.zeros(3), spec).windings == (-1,)


def test_winding_refuses_a_polygon_edge_through_the_locus():
    # segment 1 runs from (-1, 0) to (1, 0) through the center, between vertices
    spec = example1()
    frame = default_frame(spec)
    triangle = Triangle(np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    with pytest.raises(IntegrationError, match="tau=1.5") as err:
        winding_certificate(triangle, frame, np.zeros(3), spec)
    assert err.value.tau == 1.5


def test_winding_refuses_an_image_collapsed_to_the_locus():
    # e_3 and e_4 lie in the radical, so the circle around the center in
    # plane (3, 4) has the spectral image 0 at every tau
    spec = example1()
    frame = Frame.from_rows(spec, [1j, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0])
    circle = Circle2D(np.zeros(4), 1.0, coordinate_plane(4, 3, 4))
    with pytest.raises(IntegrationError, match="tau="):
        winding_certificate(circle, frame, np.zeros(4), spec)


# -- lambda ---------------------------------------------------------------------


def test_lambda_semisimple():
    spec = AlgebraSpec(3, 3)
    frame = Frame.from_rows(spec, [1j, 1 + 1j, 2 + 1j])
    circle = Circle2D(np.zeros(2), 1.0, np.eye(2))
    lam = compute_lambda(spec, frame, circle)
    assert lam.deviation_from_two_pi_i <= 1e-10
    assert lam.windings == (1, 1, 1)


def test_lambda_example1_default_frame():
    spec = example1()
    frame = default_frame(spec)
    lam = compute_lambda(spec, frame, unit_circle())
    assert lam.deviation_from_two_pi_i <= 1e-9
    assert np.abs(lam.idempotent_part[0] - 2j * np.pi) <= 1e-10
    assert np.max(np.abs(lam.nilpotent_residuals)) <= 1e-9


def test_lambda_semisimple_span_frame_exact_zero_residuals():
    # frame inside the idempotent span: the nilpotent component of the
    # integrand is identically zero, so the residuals vanish exactly
    spec = example1()
    frame = Frame.from_rows(spec, [1j, 0, 0, 0, 0])
    circle = Circle2D(np.zeros(2), 1.0, np.eye(2))
    lam = compute_lambda(spec, frame, circle)
    assert np.array_equal(lam.nilpotent_residuals, np.zeros(4))
    assert lam.deviation_from_two_pi_i <= 1e-10


def test_lambda_radius_and_plane_stability():
    spec = example2()
    frame = default_frame(spec)
    tilted = np.array([[1.0, 0.0, 0.0], [0.0, np.cos(0.5), np.sin(0.5)]])
    values = []
    for circle in (
        unit_circle(),
        Circle2D(np.zeros(3), 0.5, coordinate_plane(3, 1, 2)),
        Circle2D(np.zeros(3), 1.0, tilted),
    ):
        lam = compute_lambda(spec, frame, circle)
        values.append(lam.value.coords)
    for v in values[1:]:
        assert np.max(np.abs(v - values[0])) <= 1e-9


def _rescaled_truncated_powers():
    """C[x]/(x^5) in the basis ``I_s = c_s x^(s-1)`` with complex ``c_s``."""
    c = {s: (1.2 + 0.4 * s) * np.exp(0.7j * s) for s in range(2, 6)}
    return AlgebraSpec(5, 1, {(a, b, a + b - 1): c[a] * c[b] / c[a + b - 1]
                              for a in range(2, 6) for b in range(a, 7 - a)})


CLOSED_FORM_ALGEBRAS = {
    "chain6": lambda: chain(6),
    "chain12": lambda: chain(12),
    # two idempotents, each with a chain of powers in its radical
    "power-chains-9-2": lambda: power_chains(
        AlgebraSpec(9, 2, u_map={s: 1 + s % 2 for s in range(3, 10)})),
    "rescaled-x5": _rescaled_truncated_powers,
}


def _frame_of_scale(spec, rng, scale):
    """Rows ``i`` and ``0.7 (u - 1)`` on idempotent ``u``, plus ``scale`` times
    a complex normal draw on every coordinate."""
    rows = []
    for offset in (1j * np.ones(spec.m), 0.7 * np.arange(spec.m)):
        row = scale * (rng.standard_normal(spec.n) + 1j * rng.standard_normal(spec.n))
        row[: spec.m] += offset
        rows.append(row)
    return Frame.from_rows(spec, *rows)


@pytest.mark.parametrize("name", list(CLOSED_FORM_ALGEBRAS))
def test_lambda_is_two_pi_i_times_the_windings(name):
    # zeta^{-1} dzeta = d log zeta, and the nilpotent part of log zeta is a
    # finite series, single-valued along the curve; so on any closed curve
    # lambda = 2 pi i sum_u w_u I_u, whatever the structure constants.
    spec = CLOSED_FORM_ALGEBRAS[name]()
    if name == "rescaled-x5":
        assert theorem5_predicate(spec).reason == "products_nonzero"
    circle = unit_circle()
    skew = Polyline([[0.9, 0.1, 0.3], [-0.2, 0.8, -0.4], [-0.7, -0.3, 0.2], [0.1, -0.9, -0.3]],
                    closed=True)
    for seed in range(10):
        frame = _frame_of_scale(spec, np.random.default_rng([seed, spec.n]), 0.3)
        for curve, winding in ((circle, 1), (circle.reversed(), -1), (skew, 1)):
            lam = compute_lambda(spec, frame, curve)
            # an unconverged integral measures the quadrature, not the identity
            assert lam.converged
            assert lam.windings == (winding,) * spec.m
            exact = np.zeros(spec.n, dtype=np.complex128)
            exact[: spec.m] = 2j * np.pi * np.array(lam.windings)
            assert np.linalg.norm(lam.value.coords - exact) <= 1e-10


# -- closed-curve integral check -------------------------------------------------


def test_cauchy_theorem_monogenic_square_of_zeta():
    spec = example2()
    frame = default_frame(spec)
    report = cauchy_theorem_check(zeta_power(2, spec), unit_circle(), frame, spec)
    assert report.passed
    assert report.residual <= 1e-10


def test_cauchy_theorem_constant():
    spec = example1()
    frame = default_frame(spec)
    report = cauchy_theorem_check(constant(spec.unit()), unit_circle(), frame, spec)
    assert report.passed


def test_cauchy_theorem_on_polyline_and_kernel():
    spec = example1()
    frame = default_frame(spec)
    square = Polyline(
        np.array([[0.9, 0.9, 0], [-0.9, 0.9, 0], [-0.9, -0.9, 0], [0.9, -0.9, 0]]),
        closed=True,
    )
    report = cauchy_theorem_check(ResolventKernel(3 + 3j), square, frame, spec)
    assert report.passed


def test_cauchy_theorem_control_fails():
    # closed form: the loop integral of x_2 I_1 over the positively oriented
    # unit circle is -pi I_1
    spec = example1()
    frame = default_frame(spec)
    report = cauchy_theorem_check(control_psi, unit_circle(), frame, spec, tol=1e-9)
    assert not report.passed
    assert report.residual == pytest.approx(np.pi, rel=1e-10)
    expected = -np.pi * basis_element(1, 5).coords
    assert np.max(np.abs(report.value.coords - expected)) <= 1e-10


def test_open_curve_rejected():
    spec = example1()
    frame = default_frame(spec)
    seg = Polyline(np.array([[0, 0, 0], [1, 0, 0]]), closed=False)
    with pytest.raises(ValueError, match="closed"):
        cauchy_theorem_check(zeta(spec), seg, frame, spec)


# -- Morera ----------------------------------------------------------------------


def test_morera_identity_function_exact():
    spec = example1()
    frame = default_frame(spec)
    sampler = TriangleSampler(np.zeros(3), 1.0)
    report = morera_check(zeta(spec), frame, spec, sampler, n_triangles=25,
                          rng=np.random.default_rng(79))
    assert report.passed
    assert report.residual <= 1e-12


def test_morera_resolvent_kernel():
    spec = example1()
    frame = default_frame(spec)
    sampler = TriangleSampler(np.zeros(3), 1.0)
    report = morera_check(ResolventKernel(3 + 3j), frame, spec, sampler,
                          n_triangles=25, tol=1e-9,
                          rng=np.random.default_rng(83))
    assert report.passed


def test_control_on_axis_aligned_triangle_closed_form():
    # for psi = x_2 I_1 over the triangle (0,0), (a,0), (0,b) only the dx_1
    # component survives and equals minus the enclosed area
    spec = example1()
    frame = default_frame(spec)
    tri = Triangle(np.array([[0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]]))
    res = line_integral(control_psi, tri, frame, spec)
    expected = -0.5 * basis_element(1, 5).coords
    assert np.max(np.abs(res.value.coords - expected)) <= 1e-12
    # a triangle is read as the closed polyline of its boundary, either way round
    center = np.array([0.25, 0.25, 0.0])
    for curve in (tri, tri.reversed()):
        poly = Polyline(curve.vertices, closed=True, orientation=curve.orientation)
        for psi in (control_psi, zeta_power(2, spec)):
            a, b = line_integral(psi, curve, frame, spec), line_integral(psi, poly, frame, spec)
            assert np.array_equal(a.value.coords, b.value.coords)
            assert (a.nodes, a.converged, a.history) == (b.nodes, b.converged, b.history)
            a, b = (cauchy_theorem_check(psi, c, frame, spec) for c in (curve, poly))
            assert (a.residual, a.tolerance) == (b.residual, b.tolerance)
        assert (winding_certificate(curve, frame, center, spec)
                == winding_certificate(poly, frame, center, spec))


def test_morera_control_fails():
    spec = example1()
    frame = default_frame(spec)
    sampler = TriangleSampler(np.zeros(3), 1.0)
    report = morera_check(control_psi, frame, spec, sampler, n_triangles=25,
                          tol=1e-8, rng=np.random.default_rng(89))
    assert not report.passed
    assert report.residual >= 1e-3


def _per_triangle_morera(phi, frame, spec, triangles):
    """Morera's worst boundary integral by one line integral per triangle."""
    worst, worst_triangle, nodes = 0.0, None, 0
    for row in triangles:
        res = line_integral(phi, Triangle(row), frame, spec)
        nodes += res.nodes
        if res.value.norm() > worst:
            worst, worst_triangle = res.value.norm(), row.tolist()
    return worst, worst_triangle, nodes


@pytest.mark.parametrize("name", ["example1", "chain12"])
def test_morera_stack_matches_per_triangle_line_integrals(name):
    if name == "chain12":
        spec = chain(12)
        frame = random_frame(spec, np.random.default_rng(5))
    else:
        spec = example1()
        frame = default_frame(spec)
    sampler = TriangleSampler(np.zeros(frame.k), 1.0)
    triangles = sampler.sample(np.random.default_rng(97), 40)
    for phi in (zeta(spec), zeta_power(3, spec), ResolventKernel(3 + 3j), _Control(spec)):
        report = morera_check(phi, frame, spec, sampler, triangles=triangles)
        worst, worst_triangle, nodes = _per_triangle_morera(phi, frame, spec, triangles)
        assert abs(report.residual - worst) <= 1e-13
        assert report.diagnostics["nodes"] == nodes
        assert report.diagnostics["converged"] is True
    # the control's residuals are far above roundoff, so its worst triangle is fixed
    assert worst > 1e-3
    assert report.diagnostics["worst_triangle"] == worst_triangle


def _segment_oracle(psi, segments, frame, spec, center=None):
    """Each segment's integral of ``psi dzeta`` as ``gauss_segment`` of the
    bare ``psi`` along it, times its constant ``(B - A) @ a``.  With a
    ``center`` the bare integrand is ``psi(x) (x - x_c)^{-1}``.  Refined to
    roundoff, so the production rule's own stopping point does not matter."""
    out = []
    for start, end in segments:
        def bare(t, start=start, end=end):
            xs = start + t[:, None] * (end - start)
            vals = eval_batch(psi, frame, xs, spec)
            if center is None:
                return vals
            return _multiply_coords(vals, inverse_many(frame, xs - center, spec), spec)

        value = gauss_segment(bare, tol=1e-15, cap=240).value
        out.append(_multiply_coords(value, (end - start) @ frame.a, spec))
    return np.array(out)


def _oracle_functions(spec):
    return [zeta(spec), zeta_power(3, spec), ResolventKernel(3 + 3j), _Control(spec)]


@pytest.mark.parametrize("name", ["example1", "chain12"])
def test_polyline_values_match_the_bare_segment_oracle(name):
    spec, frame = _stack_case(name)
    center, curves = _formula_curves(frame.k)
    square = curves["square"]
    path = Polyline(square.vertices[:3])  # open
    for curve in (square, square.reversed(), path):
        for psi in _oracle_functions(spec):
            oracle = _segment_oracle(psi, curve.segments(), frame, spec)
            value = line_integral(psi, curve, frame, spec).value.coords
            scale = np.linalg.norm(oracle, axis=1).sum()
            assert np.linalg.norm(value - curve.orientation * oracle.sum(axis=0)) <= 1e-13 * scale
    phis = [constant(spec.unit()), zeta(spec), zeta_power(2, spec)]
    for psi, rep in zip(phis, cauchy_formula_check(phis, center, square, frame, spec)):
        oracle = _segment_oracle(psi, square.segments(), frame, spec, center)
        scale = np.linalg.norm(oracle, axis=1).sum()
        assert np.linalg.norm(rep.value.coords - oracle.sum(axis=0)) <= 1e-13 * scale


@pytest.mark.parametrize("name", ["example1", "chain12"])
def test_morera_values_match_the_bare_segment_oracle(name):
    spec, frame = _stack_case(name)
    sampler = TriangleSampler(np.zeros(frame.k), 1.0)
    triangles = sampler.sample(np.random.default_rng(41), 20)
    for psi in _oracle_functions(spec):
        report = morera_check(psi, frame, spec, sampler, triangles=triangles)
        sums, scale = [], 0.0
        for row in triangles:
            oracle = _segment_oracle(psi, Triangle(row).segments(), frame, spec)
            sums.append(np.linalg.norm(oracle.sum(axis=0)))
            scale = max(scale, np.linalg.norm(oracle, axis=1).sum())
        assert abs(report.residual - max(sums)) <= 1e-13 * scale


@pytest.mark.parametrize("name", ["example1", "chain12"])
def test_morera_weights_each_segment_once_per_level(monkeypatch, name):
    # a segment's dzeta is constant: it multiplies the segment's level sums,
    # one product per active segment per level, and one more for level 0's
    # embedded Gauss sum, where weighting the nodes would take one per node
    from monalg import integrals

    spec, frame = _stack_case(name)
    # triangles of radius 2 about 0 come near the pole at 2 + 2i
    sampler = TriangleSampler(np.zeros(frame.k), 2.0)
    triangles = sampler.sample(np.random.default_rng(43), 20)
    rows, runs = [], []
    multiply, segment = integrals._multiply_coords, integrals.gauss_segment

    def counted(a, b, spec):
        rows.append(len(a))
        return multiply(a, b, spec)

    def kept(*args, **kwargs):
        runs.append(segment(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(integrals, "_multiply_coords", counted)
    monkeypatch.setattr(integrals, "gauss_segment", kept)
    report = morera_check(ResolventKernel(2 + 2j), frame, spec, sampler, triangles=triangles)
    [res] = runs
    assert res.nodes == report.diagnostics["nodes"]
    active = [len(seg) for _, seg, _ in res.levels]
    assert active  # some segments refine past level 0
    assert rows == [3 * len(triangles)] * 2 + active


def test_morera_reuses_predrawn_triangles():
    spec = example1()
    frame = default_frame(spec)
    sampler = TriangleSampler(np.zeros(3), 1.0)
    sampled = morera_check(zeta_power(2, spec), frame, spec, sampler, n_triangles=30,
                           rng=np.random.default_rng(61))
    triangles = sampler.sample(np.random.default_rng(61), 30)
    reused = morera_check(zeta_power(2, spec), frame, spec, sampler, triangles=triangles)
    assert reused.residual == sampled.residual
    assert reused.diagnostics == sampled.diagnostics


def test_morera_reports_unconverged_segments():
    spec = example1()
    frame = default_frame(spec)
    sampler = TriangleSampler(np.zeros(3), 1.0)
    drawn = sampler.sample(np.random.default_rng(67), 5)
    edge = np.array([[[0.0, 0, 0], [1.0, 0, 0], [0.0, 1.0, 0]]])
    # zeta = x_1 + i x_2 here, so the pole lies 1e-7 outside the edge
    # (0,0,0) -> (1,0,0), and no level up to the segment cap resolves it
    phi = ResolventKernel(0.5 - 1e-7j)
    alone = morera_check(phi, frame, spec, sampler, triangles=drawn, cap=4096).diagnostics
    assert alone["converged"]
    report = morera_check(phi, frame, spec, sampler, triangles=np.concatenate([drawn, edge]),
                          cap=4096)
    assert report.diagnostics["converged"] is False
    # the edge alone reaches 256 K15 panels, the last level below the 4096-node cap
    assert report.diagnostics["nodes"] - alone["nodes"] >= 3840


def test_morera_honours_the_node_cap():
    spec = example1()
    frame = default_frame(spec)
    sampler = TriangleSampler(np.zeros(3), 1.0)
    drawn = sampler.sample(np.random.default_rng(67), 5)  # 15 segments
    phi = ResolventKernel(0.5 - 1e-7j)
    assert morera_check(phi, frame, spec, sampler, triangles=drawn).diagnostics["converged"]
    # a cap of 15 leaves each segment one K15 panel, a cap of 64 four panels
    for cap, most in ((15, 15), (64, 60)):
        capped = morera_check(phi, frame, spec, sampler, triangles=drawn, cap=cap).diagnostics
        assert capped["converged"] is False
        assert capped["nodes"] <= 15 * most
    # with no cap given, the edge 1e-7 from the pole refines to 4096 K15
    # panels, the last level below DEFAULT_CAP
    assert 15 * 4096 <= DEFAULT_CAP < 2 * 15 * 4096
    edge = np.array([[[0.0, 0, 0], [1.0, 0, 0], [0.0, 1.0, 0]]])
    alone = morera_check(phi, frame, spec, sampler, triangles=drawn).diagnostics
    both = morera_check(phi, frame, spec, sampler, triangles=np.concatenate([drawn, edge]))
    assert both.diagnostics["nodes"] - alone["nodes"] >= 15 * 4096


@pytest.mark.parametrize("count", [0, -1])
def test_morera_refuses_no_triangles(count):
    # a check over no triangles has nothing to pass on
    spec = example1()
    frame = default_frame(spec)
    sampler = TriangleSampler(np.zeros(3), 1.0)
    with pytest.raises(ValueError, match="at least 1"):
        morera_check(zeta(spec), frame, spec, sampler, n_triangles=count)
    for empty in (np.empty((0, 3, 3)), np.empty((4, 2, 3))):
        with pytest.raises(ValueError, match="T >= 1 triangles"):
            morera_check(zeta(spec), frame, spec, sampler, triangles=empty)


def test_morera_failure_names_tau():
    # one Kronrod node of the first segment of the eleventh triangle, not
    # shared with the embedded Gauss rule, is a planted pole; the failing
    # block is re-evaluated pointwise to name it as s + t on segment s of
    # the 3 T boundary segments, so s // 3 is the triangle
    spec = example1()
    frame = default_frame(spec)
    sampler = TriangleSampler(np.zeros(3), 1.0)
    rng = np.random.default_rng(71)
    planted = Triangle(np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1.0, 0]]))
    triangles = np.concatenate([sampler.sample(rng, 10), planted.vertices[None]])
    node = _KRONROD_NODES[4]

    def psi(x):
        if x[0] == node and x[1] == 0.0 and x[2] == 0.0:
            raise PoleError("planted pole")
        return Element(np.asarray(x[0] * basis_element(1, 5).coords))

    with pytest.raises(IntegrationError, match="tau=") as err:
        morera_check(psi, frame, spec, sampler, triangles=triangles)
    assert err.value.tau == 3 * 10 + node


def test_suite_control_is_pointwise_control_vectorised():
    spec = example1()
    frame = default_frame(spec)
    xs = np.random.default_rng(73).uniform(-1, 1, size=(50, 3))
    control = _Control(spec)
    batched = control.eval_many(frame, xs, spec)
    assert np.array_equal(batched, np.stack([control_psi(x).coords for x in xs]))


# -- integral formula ------------------------------------------------------------


@pytest.mark.parametrize("center", [(0.0, 0.0, 0.0), (0.2, 0.1, 0.0)])
def test_formula_on_a_square_converges_at_any_size(center):
    # each segment refines phi(zeta) (zeta - zeta_c)^{-1} dzeta, whose last
    # two factors do not change as the square shrinks about zeta_c, so a
    # square of half-side 1e-9 converges at the nodes of one of half-side 0.5
    spec = example1()
    frame = default_frame(spec)
    center = np.array(center)
    corners = np.array([[1.0, 1, 0], [-1, 1, 0], [-1, -1, 0], [1, -1, 0]])
    phis = [constant(spec.unit()), zeta_power(2, spec)]
    nodes = {}
    for half in (1e-9, 1e-6, 0.5):
        square = Polyline(center + half * corners, closed=True)
        reports = cauchy_formula_check(phis, center, square, frame, spec)
        assert all(rep.passed for rep in reports)
        nodes[half] = [rep.diagnostics["nodes"] for rep in reports]
    assert nodes[1e-9] == nodes[1e-6] == nodes[0.5]
    # about 0 the integrand zeta^2 zeta^{-1} = zeta is linear: one K15 panel
    # per segment is exact
    assert nodes[0.5] == ([240, 240] if center.any() else [240, 60])


def test_formula_constant_matches_lambda_definition():
    spec = example1()
    frame = default_frame(spec)
    center = np.array([0.2, 0.1, -0.1])
    circle = Circle2D(center, 0.3, coordinate_plane(3, 1, 2))
    report = cauchy_formula_check(constant(spec.unit()), center, circle, frame, spec,
                                  tol=1e-10)
    assert report.passed
    assert report.diagnostics["windings"] == (1,)


def test_formula_identity_function():
    spec = example2()
    frame = default_frame(spec)
    center = np.array([0.3, -0.2, 0.4])
    circle = Circle2D(center, 0.5, coordinate_plane(3, 1, 2))
    report = cauchy_formula_check(zeta(spec), center, circle, frame, spec, tol=1e-9)
    assert report.passed


def test_formula_polyline_matches_circle():
    spec = example2()
    frame = default_frame(spec)
    center = np.array([0.1, 0.2, 0.0])
    offsets = np.array([[0.5, 0.5, 0], [-0.5, 0.5, 0], [-0.5, -0.5, 0], [0.5, -0.5, 0]])
    square = Polyline(center + offsets, closed=True)
    circle = Circle2D(center, 0.4, coordinate_plane(3, 1, 2))
    phi = zeta_power(2, spec)
    rep_square = cauchy_formula_check(phi, center, square, frame, spec, tol=1e-8)
    rep_circle = cauchy_formula_check(phi, center, circle, frame, spec, tol=1e-8)
    assert rep_square.passed and rep_circle.passed
    diff = rep_square.value - rep_circle.value
    assert diff.norm() <= 1e-8


def test_formula_radius_homotopy_stability():
    spec = example1()
    frame = default_frame(spec)
    center = np.array([0.15, -0.1, 0.2])
    phi = zeta(spec)
    values = []
    for radius in (0.3, 0.6):
        circle = Circle2D(center, radius, coordinate_plane(3, 1, 2))
        report = cauchy_formula_check(phi, center, circle, frame, spec, tol=1e-8)
        assert report.passed
        values.append(report.value.coords)
    assert np.max(np.abs(values[0] - values[1])) <= 1e-8


def _inverse_without_one_term(emb, spec):
    """``zeta^{-1}`` with the k = 1 term of its radical series planted out."""
    inv = 1.0 / emb[..., : spec.m]
    return _radical_series(lambda k: 0.0 * inv if k == 1 else inv * (-inv) ** k if k else inv,
                           emb, spec)


def test_formula_suite_fails_an_inverse_with_a_term_missing(monkeypatch):
    # The reference 2 pi i phi(center) does not go through the inverse, so
    # the fault shows in every check, phi = one included: a reference scaled
    # by a lambda integrated with the same inverse would hide it there.
    # The package's name ``resolvent`` is the function, so take the module
    # from the import system.
    resolvent_module = importlib.import_module("monalg.resolvent")
    monkeypatch.setattr(resolvent_module, "_inverse_coords", _inverse_without_one_term)
    spec = builtin_algebra("example4")
    reports = suite_formula(spec, builtin_frames(spec), 1, {})
    assert len(reports) == 9
    assert [rep.name for rep in reports if rep.passed] == []


def test_formula_suite_integrates_no_lambda(monkeypatch):
    import monalg.integrals
    import monalg.suites

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return compute_lambda(*args, **kwargs)

    monkeypatch.setattr(monalg.integrals, "compute_lambda", counted)
    monkeypatch.setattr(monalg.suites, "compute_lambda", counted)
    spec = builtin_algebra("example1")
    reports = suite_formula(spec, builtin_frames(spec), 1, {})
    assert len(reports) == 9
    # the references come from the curves' winding certificates
    assert calls == []


@pytest.mark.parametrize("name", ["example1", "semisimple:m=12"])
def test_a_run_integrates_each_standard_lambda_once(monkeypatch, name):
    import monalg.suites

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return compute_lambda(*args, **kwargs)

    monkeypatch.setattr(monalg.suites, "compute_lambda", counted)
    spec = builtin_algebra(name)
    frames = builtin_frames(spec)
    everything = run_suites(["all"], spec, frames, seed=1)
    # one standard circle per distinct frame, integrated for the lambda
    # suite and read back by the predicates suite; a semisimple algebra's
    # two frame names share one frame
    distinct = len({id(frame) for frame in frames.values()})
    assert len(frames) == 2 and distinct == (1 if spec.m == spec.n else 2)
    assert len(calls) == distinct
    alone = run_suites(["predicates"], spec, frames, seed=1)
    assert len(calls) == 2 * distinct
    predicates = [rep for rep in everything if rep.name.startswith("predicates/")]
    assert [report_record(rep) for rep in alone] == [report_record(rep) for rep in predicates]


def test_formula_converged_is_its_own_integrals():
    # A formula check's convergence is its own integral's: at a cap of 64
    # nodes the square's segments converge at 4 x 60 nodes, and the circles
    # stop unconverged at their first level.
    spec = builtin_algebra("example1")
    reports = run_suites(["formula"], spec, builtin_frames(spec), seed=1,
                         options={"nodes_cap": 64})
    assert len(reports) == 9
    for rep in reports:
        square = rep.name.startswith("formula/square")
        assert rep.diagnostics["nodes"] == (240 if square else 64)
        assert rep.diagnostics["converged"] is square


@pytest.mark.parametrize("key", ["formula_tol", "axiom_tol", "sigma_tol", "nodes-cap"])
def test_run_suites_refuses_unknown_option_keys(key):
    # a per-family tolerance key would otherwise be ignored, and the suite
    # would run quietly at its default
    spec = builtin_algebra("example1")
    with pytest.raises(ValueError, match=repr(key)):
        run_suites(["axioms"], spec, builtin_frames(spec), seed=1,
                   options={"tol": 1e-7, key: 1e-7})


def test_run_suites_checks_the_tolerance_it_is_given():
    # an infinite tolerance would turn the failing cr/residual[zeta^3] into a PASS
    spec = builtin_algebra("semisimple:m=8")
    frames = builtin_frames(spec)
    reports = run_suites(["cr"], spec, frames, seed=1)
    assert sum(r.passed for r in reports) == 7
    for tol in (float("inf"), float("nan"), 0.0, -1e-8, None, "1e-8"):
        with pytest.raises(SpecFormatError, match="suite option 'tol' must be a finite number"):
            run_suites(["cr"], spec, frames, seed=1, options={"tol": tol})


@pytest.mark.parametrize("key, suite", [("points", "oracle"), ("triangles", "morera"),
                                        ("nodes_cap", "lambda")])
@pytest.mark.parametrize("value", [0, -3, 2.0, True])
def test_run_suites_checks_its_counts(key, suite, value):
    # {"points": 0} raised "need at least one array to concatenate" inside the oracle suite
    spec = builtin_algebra("example1")
    with pytest.raises(SpecFormatError, match=f"suite option '{key}' must be an integer of at "
                                              "least 1"):
        run_suites([suite], spec, builtin_frames(spec), seed=1, options={key: value})


@pytest.mark.parametrize("names", ["cauchy", "all"])
def test_run_suites_refuses_a_string_of_names(names):
    # a string would be walked letter by letter
    spec = builtin_algebra("example1")
    with pytest.raises(TypeError, match=repr(names)):
        run_suites(names, spec, builtin_frames(spec), seed=1)


def test_run_suites_refuses_an_empty_list_of_names():
    # a run that checks nothing would report 0/0 and pass
    spec = builtin_algebra("example1")
    with pytest.raises(ValueError, match="name at least one suite"):
        run_suites([], spec, builtin_frames(spec), seed=1)


def test_formula_embracing_violation():
    spec = example1()
    frame = default_frame(spec)
    center = np.array([0.2, 0.1, 0.0])
    far = Circle2D(center + np.array([2.0, 2.0, 0.0]), 0.3, coordinate_plane(3, 1, 2))
    with pytest.raises(EmbracingError) as err:
        cauchy_formula_check(zeta(spec), center, far, frame, spec)
    assert err.value.certificate.windings == (0,)


# -- list forms: one stack per curve ---------------------------------------------


def _stack_case(name):
    """An algebra and its default frame; chain12 with the benchmark's frame."""
    if name == "chain12":
        spec = chain(12)
        e2 = np.zeros(12, dtype=np.complex128)
        e3 = np.zeros(12, dtype=np.complex128)
        e2[0], e2[1] = 1j, 1.0
        e3[2], e3[11] = 1.0, 1j
        return spec, Frame.from_rows(spec, e2, e3)
    spec = builtin_algebra(name)
    return spec, builtin_frames(spec)["default"]


def _formula_curves(k):
    """The formula suite's center, two circles and square."""
    center = np.zeros(k)
    center[:2] = 0.2, 0.1
    square = np.zeros((4, k))
    square[:, 0] = center[0] + np.array([0.5, -0.5, -0.5, 0.5])
    square[:, 1] = center[1] + np.array([0.5, 0.5, -0.5, -0.5])
    return center, {
        "circle-r0.3": Circle2D(center, 0.3, coordinate_plane(k, 1, 2)),
        "circle-r0.7": Circle2D(center, 0.7, coordinate_plane(k, 1, 2)),
        "square": Polyline(square, closed=True),
    }


def _assert_same_result(stacked, single):
    assert stacked.value.coords.tobytes() == single.value.coords.tobytes()
    assert np.float64(stacked.error_estimate).tobytes() == np.float64(single.error_estimate).tobytes()
    assert (stacked.nodes, stacked.converged) == (single.nodes, single.converged)
    assert type(stacked.nodes) is int and type(stacked.converged) is bool
    # repr tells every float bit apart, the sign of zero included
    assert repr(stacked.history) == repr(single.history)


def _assert_same_report(stacked, single):
    assert stacked.value.coords.tobytes() == single.value.coords.tobytes()
    assert repr(report_record(stacked)) == repr(report_record(single))


STACK_CASES = ["example1", "chain12", "semisimple:m=12"]


class _Wrapped:
    """A function behind an ``eval_many`` method, as a user's integrand may come."""

    def __init__(self, phi):
        self.phi = phi

    def eval_many(self, frame, xs, spec):
        return eval_batch(self.phi, frame, xs, spec)


@pytest.mark.parametrize("name", STACK_CASES)
def test_line_integral_list_matches_single_calls_bit_for_bit(name):
    from monalg.suites import _phi_set, _standard_curves

    spec, frame = _stack_case(name)
    phis = [phi for _, phi in _phi_set(spec)] + [_Control(spec)]
    nodes = {}
    for cname, curve in _standard_curves(frame.k):
        stacked = line_integral(phis, curve, frame, spec)
        assert len(stacked) == len(phis)
        for phi, res in zip(phis, stacked):
            _assert_same_result(res, line_integral(phi, curve, frame, spec))
        nodes[cname] = [res.nodes for res in stacked]
        assert line_integral([], curve, frame, spec) == []
    if name == "semisimple:m=12":
        # the kernel refines one level further than the polynomials
        assert nodes["circle-x2x3"][:4] == [256, 256, 256, 512]


@pytest.mark.parametrize("name", STACK_CASES)
def test_cauchy_theorem_list_matches_single_calls(name):
    from monalg.suites import _phi_set, _standard_curves

    spec, frame = _stack_case(name)
    # built-in variants and eval_many objects mixed
    phis = [phi for _, phi in _phi_set(spec)] + [_Wrapped(zeta(spec)), _Control(spec)]
    for _, curve in _standard_curves(frame.k):
        reports = cauchy_theorem_check(phis, curve, frame, spec)
        for phi, rep in zip(phis, reports):
            _assert_same_report(rep, cauchy_theorem_check(phi, curve, frame, spec))
        # an explicit tolerance holds for every function of the list
        for rep in cauchy_theorem_check(phis, curve, frame, spec, tol=0.5):
            assert rep.tolerance == 0.5


@pytest.mark.parametrize("name", STACK_CASES)
def test_cauchy_formula_list_matches_single_calls(name):
    spec, frame = _stack_case(name)
    # built-in variants and eval_many objects mixed
    phis = [constant(spec.unit()), zeta(spec), zeta_power(2, spec),
            _Wrapped(ResolventKernel(3 + 3j)), _Control(spec)]
    center, curves = _formula_curves(frame.k)
    for cname, curve in curves.items():
        reports = cauchy_formula_check(phis, center, curve, frame, spec)
        assert len(reports) == len(phis)
        for phi, rep in zip(phis, reports):
            _assert_same_report(rep, cauchy_formula_check(phi, center, curve, frame, spec))
        if name == "semisimple:m=12" and cname == "square":
            # the functions stop on different segments at different levels
            assert [rep.diagnostics["nodes"] for rep in reports][:3] == [7800, 7740, 7740]


@pytest.mark.parametrize("name", STACK_CASES)
def test_formula_takes_an_eval_many_integrand(name):
    # the reference went through eval_function, which refused what the
    # integral had just integrated: "not an evaluable function: _Control"
    spec, frame = _stack_case(name)
    center, curves = _formula_curves(frame.k)
    wrapped, control = _Wrapped(zeta(spec)), _Control(spec)
    assert (eval_function(wrapped, frame, center, spec).coords.tobytes()
            == eval_function(zeta(spec), frame, center, spec).coords.tobytes())
    for curve in curves.values():
        _assert_same_report(cauchy_formula_check(wrapped, center, curve, frame, spec),
                            cauchy_formula_check(zeta(spec), center, curve, frame, spec))
        rep = cauchy_formula_check(control, center, curve, frame, spec)
        expected = 2j * np.pi * control.eval_many(frame, center[None], spec)[0]
        assert rep.reference.coords.tobytes() == expected.tobytes()
        assert np.isfinite(rep.residual)


@pytest.mark.parametrize("name", ["example1", "chain12"])
def test_reports_carry_their_integrals_diagnostics(name):
    # a cauchy report and the lambda suite's deviation report hold the
    # value, nodes, flag, history and error estimate of the integral they judge
    from monalg.suites import _standard_circle, _standard_curves, suite_lambda

    spec, frame = _stack_case(name)
    for _, curve in _standard_curves(frame.k):
        res = line_integral(zeta_power(2, spec), curve, frame, spec)
        rep = cauchy_theorem_check(zeta_power(2, spec), curve, frame, spec)
        assert rep.value.coords.tobytes() == res.value.coords.tobytes()
        assert rep.diagnostics == {"quadrature_error": res.error_estimate, "nodes": res.nodes,
                                   "converged": res.converged, "history": res.history}
    lam = compute_lambda(spec, frame, _standard_circle(frame.k))
    (rep,) = [r for r in suite_lambda(spec, {"default": frame}, 0, {})
              if r.name == "lambda/deviation[default]"]
    assert (rep.residual, rep.value.coords.tobytes()) == (lam.deviation_from_two_pi_i,
                                                          lam.value.coords.tobytes())
    assert rep.diagnostics == {"windings": lam.windings, "nodes": lam.nodes,
                               "converged": lam.converged, "history": lam.history}
    assert lam.history


def test_formula_list_computes_the_inverse_once_per_level(monkeypatch):
    from monalg import integrals

    spec, frame = _stack_case("semisimple:m=12")
    phis = [constant(spec.unit()), zeta(spec), zeta_power(2, spec)]
    center, curves = _formula_curves(frame.k)
    circle = curves["circle-r0.3"]
    sizes = []
    inverse = integrals._InverseIntegrand.eval_many

    def counted(self, frame, xs, spec):
        sizes.append(len(xs))
        return inverse(self, frame, xs, spec)

    monkeypatch.setattr(integrals._InverseIntegrand, "eval_many", counted)
    reports = cauchy_formula_check(phis, center, circle, frame, spec)
    nodes = reports[0].diagnostics["nodes"]
    assert all(rep.diagnostics["nodes"] == nodes for rep in reports)
    # one inverse per level, 64 to ``nodes`` points, for all three functions
    assert sizes == [64 * 2**level for level in range(len(sizes))]
    assert sizes[-1] == nodes


@pytest.mark.parametrize("name", ["example1", "semisimple:m=3"])
def test_formula_reference_is_two_pi_i_phi(name):
    # Not at all: each reference is 2 pi i phi(center), whatever lambda the
    # run integrates, and the records carry no lambda diagnostic.
    from monalg.suites import _phi_set

    spec = builtin_algebra(name)
    frame = builtin_frames(spec)["default"]
    reports = run_suites(["all"], spec, builtin_frames(spec), seed=1)
    formula = [rep for rep in reports if rep.name.startswith("formula/")]
    assert len(formula) == 9
    center, _ = _formula_curves(frame.k)
    phis = {"one": constant(spec.unit()), "zeta": zeta(spec), "zeta^2": zeta_power(2, spec)}
    for rep in formula:
        phi = phis[rep.name[rep.name.index("[") + 1:-1]]
        expected = 2j * np.pi * eval_function(phi, frame, center, spec).coords
        assert rep.reference.coords.tobytes() == expected.tobytes()
        assert "lambda_deviation" not in report_record(rep)["diagnostics"]


@pytest.mark.parametrize("curve", ["circle", "square"])
def test_list_failure_names_tau(curve):
    # the second function of the list has a planted pole at one node of
    # level 0; the error names its parameter, as a single call does
    spec, frame = _stack_case("example1")
    center, curves = _formula_curves(3)
    gamma = curves["circle-r0.3" if curve == "circle" else "square"]
    if curve == "circle":
        node = 2 * np.pi * 5 / 64
        planted = gamma.points(np.array([node]))[0]
    else:
        node = _KRONROD_NODES[4]
        start, end = gamma.segments()[0]
        planted = start + node * (end - start)

    def psi(x):
        if np.array_equal(x, planted):
            raise PoleError("planted pole")
        return Element(np.asarray(x[0] * basis_element(1, 5).coords))

    phis = [zeta(spec), psi, zeta_power(2, spec)]
    for call in (lambda: line_integral(phis, gamma, frame, spec),
                 lambda: line_integral(psi, gamma, frame, spec),
                 lambda: cauchy_formula_check(phis, center, gamma, frame, spec)):
        with pytest.raises(IntegrationError, match="tau=") as err:
            call()
        assert err.value.tau == node


@pytest.mark.parametrize("segment", [1, 2, 3])
def test_polyline_failure_names_segment_plus_tau(segment):
    # on segment s of a polyline the parameter is s + t, as winding_certificate names it
    spec, frame = _stack_case("example1")
    center, curves = _formula_curves(3)
    gamma = curves["square"]
    node = _KRONROD_NODES[4]
    start, end = gamma.segments()[segment]
    planted = start + node * (end - start)

    def psi(x):
        if np.array_equal(x, planted):
            raise PoleError("planted pole")
        return Element(np.asarray(x[0] * basis_element(1, 5).coords))

    phis = [zeta(spec), psi, zeta_power(2, spec)]
    for call in (lambda: line_integral(phis, gamma, frame, spec),
                 lambda: line_integral(psi, gamma, frame, spec),
                 lambda: cauchy_formula_check(phis, center, gamma, frame, spec)):
        with pytest.raises(IntegrationError, match=f"tau={segment + node:.6g}") as err:
            call()
        assert err.value.tau == segment + node
