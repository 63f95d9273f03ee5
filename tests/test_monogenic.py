"""Function variants, principal extension, and differentiability probes."""

import numpy as np
import pytest

from test_algebra import chain

from monalg.algebra import AlgebraSpec, Element, _multiply_coords, basis_element, multiply
from monalg.catalog import builtin_algebra, builtin_frames
from monalg.errors import PoleError
from monalg.frames import Frame, embed, spectral
from monalg.monogenic import (
    HolomorphicScalarSpec,
    Polynomial,
    PrincipalExtension,
    ResolventKernel,
    constant,
    cr_residual,
    eval_batch,
    eval_function,
    _eval_polynomial,
    zeta,
    zeta_power,
)
from monalg.quadrature import trapezoid_periodic
from monalg.resolvent import resolvent


def example1():
    return AlgebraSpec(5, 1, {(2, 2, 3): 1, (2, 4, 5): 1})


def example2():
    return AlgebraSpec(5, 1, {(2, 2, 3): 1})


def default_frame(spec):
    return Frame.from_rows(spec, [1j, 1, 0, 1, 0], [0, 0, 1, 0, 1j])


# -- polynomial evaluation ----------------------------------------------------


def test_identity_polynomial_is_embed():
    spec = example1()
    frame = default_frame(spec)
    x = np.array([0.4, -0.3, 0.8])
    out = eval_function(zeta(spec), frame, x, spec)
    assert np.allclose(out.coords, embed(frame, x, spec).coords, atol=1e-15)


def test_constant_polynomial():
    spec = example1()
    frame = default_frame(spec)
    c = Element([1, 2j, 0, -1, 0.5])
    out = eval_function(constant(c), frame, [0.1, 0.2, 0.3], spec)
    assert np.allclose(out.coords, c.coords)


def test_horner_matches_repeated_multiplication():
    spec = example1()
    frame = default_frame(spec)
    rng = np.random.default_rng(61)
    for _ in range(10):
        x = rng.standard_normal(3)
        z = embed(frame, x, spec)
        cube = multiply(multiply(z, z, spec), z, spec)
        out = eval_function(zeta_power(3, spec), frame, x, spec)
        assert (out - cube).norm() <= 1e-13 * max(1.0, cube.norm())


def test_polynomial_linearity():
    spec = example2()
    frame = default_frame(spec)
    rng = np.random.default_rng(67)
    p = zeta_power(2, spec)
    q = zeta(spec)
    alpha, beta = 2.0 - 1j, 0.5j
    combo = p.scale(alpha) + q.scale(beta)
    for _ in range(10):
        x = rng.standard_normal(3)
        lhs = eval_function(combo, frame, x, spec).coords
        rhs = (
            alpha * eval_function(p, frame, x, spec).coords
            + beta * eval_function(q, frame, x, spec).coords
        )
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_kernel_delegates_to_resolvent():
    spec = example1()
    frame = default_frame(spec)
    x = np.array([0.2, 0.5, -0.1])
    t = 3.0 + 3.0j
    out = eval_function(ResolventKernel(t), frame, x, spec)
    ref = resolvent(t, frame, x, spec)
    assert np.array_equal(out.coords, ref.coords)


def test_kernel_pole_collision():
    spec = example1()
    frame = default_frame(spec)
    x = np.array([0.2, 0.5, -0.1])
    t = spectral(frame, x, spec).xi[0]
    with pytest.raises(PoleError):
        eval_function(ResolventKernel(t), frame, x, spec)


def explicit_horner(phi, emb, spec):
    """Every Horner step: a product, then the coefficient added."""
    acc = np.broadcast_to(phi.coeffs[-1].coords, emb.shape).copy()
    for coeff in reversed(phi.coeffs[:-1]):
        acc = _multiply_coords(acc, emb, spec) + coeff.coords
    return acc


@pytest.mark.parametrize("name", ["example1", "example4", "semisimple:m=3", "chain12"])
@pytest.mark.parametrize("poly", ["zeta", "zeta^3", "non-unit-lead"])
def test_polynomial_skips_only_steps_that_change_no_bit(name, poly):
    spec = chain(12) if name == "chain12" else builtin_algebra(name)
    rng = np.random.default_rng(97)
    emb = rng.standard_normal((16, spec.n)) + 1j * rng.standard_normal((16, spec.n))
    if poly == "zeta":
        phi = zeta(spec)
    elif poly == "zeta^3":
        phi = zeta_power(3, spec)
    else:
        lead = Element(rng.standard_normal(spec.n) + 1j * rng.standard_normal(spec.n))
        const = Element(rng.standard_normal(spec.n))
        phi = Polynomial((const, basis_element(spec.n, spec.n), lead))
    ours = _eval_polynomial(phi, emb, spec)
    ref = explicit_horner(phi, emb, spec)
    assert ours.shape == ref.shape and ours.tobytes() == ref.tobytes()


# -- principal extension ------------------------------------------------------


def test_principal_extension_of_identity_scalar():
    # F_u(t) = t with zero nilpotent scalars reproduces the variable itself
    spec = example1()
    frame = default_frame(spec)
    ident = HolomorphicScalarSpec("polynomial", (0, 1))
    phi = PrincipalExtension(F=(ident,), G=(None,) * 4)
    for x in ([0.5, 0.2, -0.3], [1.0, -0.7, 0.4]):
        out = eval_function(phi, frame, x, spec)
        ref = embed(frame, x, spec)
        assert (out - ref).norm() <= 1e-10


def test_principal_extension_exponential_semisimple():
    # m = n: the result must be exp applied to each spectral component
    spec = AlgebraSpec(3, 3)
    frame = Frame.from_rows(spec, [1j, 1 + 1j, 2 + 1j])
    expo = HolomorphicScalarSpec("exponential", (1, 1))
    phi = PrincipalExtension(F=(expo, expo, expo))
    x = np.array([0.3, 0.6])
    out = eval_function(phi, frame, x, spec)
    ref = np.exp(np.array(spectral(frame, x, spec).xi))
    assert np.max(np.abs(out.coords - ref)) <= 1e-10


def test_principal_extension_polynomial_semisimple():
    spec = AlgebraSpec(2, 2)
    frame = Frame.from_rows(spec, [1j, 2 + 1j])
    f = HolomorphicScalarSpec("polynomial", (1, 0, 2))  # 1 + 2 t^2
    phi = PrincipalExtension(F=(f, f))
    x = np.array([0.2, 0.9])
    out = eval_function(phi, frame, x, spec)
    ref = np.array([f(np.array(v)) for v in spectral(frame, x, spec).xi])
    assert np.max(np.abs(out.coords - ref)) <= 1e-10


def test_principal_extension_nilpotent_scalars():
    # G_s = 1 contributes I_s times the scalar residue of the resolvent
    spec = example2()
    frame = default_frame(spec)
    one = HolomorphicScalarSpec("polynomial", (0, 1))
    g_one = HolomorphicScalarSpec("polynomial", (1,))
    phi = PrincipalExtension(F=(one,), G=(g_one, None, None, None))
    x = np.array([0.5, 0.2, -0.3])
    out = eval_function(phi, frame, x, spec)
    # the G-term integrates (t - xi)^{-1} to 2 pi i, contributing exactly I_2
    ref = embed(frame, x, spec) + basis_element(2, 5)
    assert (out - ref).norm() <= 1e-10


def test_eval_deterministic():
    spec = example1()
    frame = default_frame(spec)
    ident = HolomorphicScalarSpec("polynomial", (0, 1))
    phi = PrincipalExtension(F=(ident,), G=(None,) * 4)
    x = [0.5, 0.2, -0.3]
    a = eval_function(phi, frame, x, spec).coords
    b = eval_function(phi, frame, x, spec).coords
    assert np.array_equal(a, b)


# -- differential conditions ---------------------------------------------------


def test_cr_residual_constant():
    spec = example1()
    frame = default_frame(spec)
    phi = constant(Element([1, 2, 3, 4, 5]))
    res = cr_residual(phi, frame, [0.1, 0.2, 0.3], 1e-3, spec)
    assert max(res) <= 1e-14


def test_cr_residual_square_exact_derivative():
    # central differences are exact on quadratics: D_1 equals 2 zeta and the
    # residuals sit at roundoff level
    spec = example2()
    frame = default_frame(spec)
    x = np.array([0.3, -0.2, 0.5])
    z = embed(frame, x, spec)
    h = 1e-3
    k = frame.k
    stencil = np.concatenate([x + h * np.eye(k), x - h * np.eye(k)])
    from monalg.monogenic import eval_batch

    vals = eval_batch(zeta_power(2, spec), frame, stencil, spec)
    d1 = Element((vals[0] - vals[k]) / (2 * h))
    assert (d1 - 2 * z).norm() <= 1e-9
    res = cr_residual(zeta_power(2, spec), frame, x, h, spec)
    assert max(res) <= 1e-11


def test_cr_residual_cube_second_order():
    # for zeta^3 the residual is exactly h^2 * ||e_j^3 - e_j||, so the
    # h=1e-2 vs h=1e-3 ratio is 100
    spec = example1()
    frame = default_frame(spec)
    x = np.array([0.4, 0.1, -0.6])
    phi = zeta_power(3, spec)
    r_coarse = cr_residual(phi, frame, x, 1e-2, spec)
    r_fine = cr_residual(phi, frame, x, 1e-3, spec)
    for rc, rf in zip(r_coarse, r_fine):
        assert rc > 1e-9
        assert rc / rf == pytest.approx(100.0, rel=1e-3)


def test_cr_residual_resolvent_kernel_second_order():
    spec = example1()
    frame = default_frame(spec)
    x = np.array([0.1, 0.3, 0.2])
    phi = ResolventKernel(3.0 + 3.0j)
    r1 = cr_residual(phi, frame, x, 1e-3, spec)
    r2 = cr_residual(phi, frame, x, 5e-4, spec)
    for a, b in zip(r1, r2):
        assert 3.5 <= a / b <= 4.5


def test_cr_residual_non_monogenic_control():
    # psi(x) = x_2 I_1 depends on x_2 without the algebra structure:
    # D_2 = I_1 while D_1 = 0, so the first residual is exactly 1
    spec = example1()
    frame = default_frame(spec)

    def psi(x):
        return Element([x[1], 0, 0, 0, 0])

    for h in (1e-2, 1e-3, 1e-4):
        res = cr_residual(psi, frame, [0.3, 0.4, 0.1], h, spec)
        assert res[0] == pytest.approx(1.0, abs=1e-9)


# -- Gateaux quotients ----------------------------------------------------------


def gateaux(phi, frame, x, j, eps, spec):
    """``(phi(zeta + eps e_j) - phi(zeta)) / eps``: in parameter space the
    direction ``e_j`` is the unit vector ``delta_j``."""
    x = np.asarray(x, dtype=np.float64)
    vals = eval_batch(phi, frame, np.stack([x + eps * np.eye(frame.k)[j - 1], x]), spec)
    return Element((vals[0] - vals[1]) / eps)


def test_gateaux_linear_function_exact():
    spec = example1()
    frame = default_frame(spec)
    for j in (2, 3):
        out = gateaux(zeta(spec), frame, [0.3, 0.1, 0.2], j, 1e-4, spec)
        assert (out - Element(frame.a[j - 1])).norm() <= 1e-9


def test_gateaux_square_eps_halving():
    # (zeta + eps h)^2 expansion: quotient = 2 zeta h + eps h^2, so the
    # defect against 2 zeta h halves with eps
    spec = example2()
    frame = default_frame(spec)
    x = np.array([0.4, -0.2, 0.3])
    z = embed(frame, x, spec)
    h = Element(frame.a[1].copy())
    target = 2 * multiply(z, h, spec)
    errs = []
    for eps in (1e-2, 5e-3):
        q = gateaux(zeta_power(2, spec), frame, x, 2, eps, spec)
        errs.append((q - target).norm())
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=1e-4)


def test_gateaux_resolvent_kernel_richardson():
    # first-order quotient error: successive differences shrink by ~2, the
    # Richardson limit stabilises and matches h * (t - zeta)^{-2}
    spec = example1()
    frame = default_frame(spec)
    x = np.array([0.2, 0.3, -0.1])
    h = Element(frame.a[1].copy())
    t = 3.0 + 3.0j
    phi = ResolventKernel(t)
    qs = [gateaux(phi, frame, x, 2, eps, spec) for eps in (1e-3, 5e-4, 2.5e-4)]
    d1 = (qs[0] - qs[1]).norm()
    d2 = (qs[1] - qs[2]).norm()
    assert 1.8 <= d1 / d2 <= 2.2
    rich1 = 2 * qs[1].coords - qs[0].coords
    rich2 = 2 * qs[2].coords - qs[1].coords
    assert np.linalg.norm(rich2 - rich1) <= 0.05 * d2
    res = resolvent(t, frame, x, spec)
    derivative = multiply(multiply(res, res, spec), h, spec)
    assert np.linalg.norm(rich2 - derivative.coords) <= 1e-6


def test_cr_residual_principal_extension():
    # the contour-assembled function is monogenic too; residuals sit at the
    # quadrature noise level amplified by the difference step
    spec = example2()
    frame = default_frame(spec)
    ident = HolomorphicScalarSpec("polynomial", (0, 1))
    phi = PrincipalExtension(F=(ident,), G=(None,) * 4)
    res = cr_residual(phi, frame, [0.4, 0.2, -0.1], 1e-3, spec)
    assert max(res) <= 1e-6


# -- the single expansion against the paper's contour formula ------------------


def split_two_idempotent():
    # I_5 sits on the second idempotent, so G_5 sees xi_2
    return AlgebraSpec(5, 2, {(3, 3, 4): 1}, u_map={3: 1, 4: 1, 5: 2})


def split_frame(spec):
    return Frame.from_rows(spec, [1j, 1j, 1, 0, 1], [0, 1, 0, 1, 1j])


def contour_oracle(phi, frame, x, spec, circles):
    """sum over scalars of (1 / 2 pi i) * I_col * integral of scalar(t) (t - zeta)^{-1} dt,
    the circle of the spectral value the scalar sees, by the periodic trapezoid rule."""
    parts = [(f, u + 1, u) for u, f in enumerate(phi.F)]
    parts += [(g, s, spec.u_map[s] - 1) for s, g in enumerate(phi.G, start=spec.m + 1)]
    total = np.zeros(spec.n, dtype=np.complex128)
    for scalar, col, u in (part for part in parts if part[0] is not None):
        center, radius = circles[u]

        def integrand(theta):
            t = center + radius * np.exp(1j * theta)
            res = np.stack([resolvent(tk, frame, x, spec).coords for tk in t])
            return (scalar(t) * 1j * (t - center))[:, None] * res

        block = trapezoid_periodic(integrand, tol=1e-14, start=32, cap=128).value
        total += multiply(basis_element(col, spec.n), Element(block), spec).coords
    return total / (2j * np.pi)


EXP = HolomorphicScalarSpec("exponential", (1.0, 0.5))
POLE5 = HolomorphicScalarSpec("rational", (1.0,), denom=(-5.0, 1.0))
RATIONAL = HolomorphicScalarSpec("rational", (1.0, 2.0j), denom=(4.0, -1.0, 1.0))
CUBIC = HolomorphicScalarSpec("polynomial", (1.0, -2.0, 0.5, 1.0j))


@pytest.mark.parametrize("case", [
    ("example1", PrincipalExtension(F=(EXP,), G=(CUBIC, None, RATIONAL, EXP))),
    ("example1", PrincipalExtension(F=(RATIONAL,), G=(EXP, EXP, None, CUBIC))),
    ("example1", PrincipalExtension(F=(CUBIC,), G=(RATIONAL, None, None, POLE5))),
    ("example4", PrincipalExtension(F=(POLE5,), G=(EXP, None, POLE5, None))),
    ("example4", PrincipalExtension(F=(EXP,), G=(RATIONAL, CUBIC, EXP, POLE5))),
    ("split_two_idempotent", PrincipalExtension(F=(EXP, RATIONAL), G=(CUBIC, POLE5, EXP))),
    ("split_two_idempotent", PrincipalExtension(F=(CUBIC, POLE5), G=(EXP, None, RATIONAL))),
], ids=["e1-exp", "e1-rational", "e1-poly", "e4-mixed", "e4-exp", "two-exp", "two-poly"])
def test_principal_extension_matches_contour_formula(case):
    name, phi = case
    if name == "split_two_idempotent":
        spec = split_two_idempotent()
        frame = split_frame(spec)
    else:
        spec = builtin_algebra(name)
        frame = builtin_frames(spec)["default"]
    rng = np.random.default_rng(73)
    xs = []
    while len(xs) < 3:
        x = rng.uniform(-0.6, 0.6, size=frame.k)
        xi = np.array(spectral(frame, x, spec).xi)
        if spec.m == 1 or abs(xi[0] - xi[1]) >= 0.5:
            xs.append(x)
    values = eval_batch(phi, frame, np.array(xs), spec)
    for x, value in zip(xs, values):
        xi = np.array(spectral(frame, x, spec).xi)
        # poles of RATIONAL sit near +-2i, of POLE5 at 5: radius 0.5 keeps them out
        radius = 0.5 if spec.m == 1 else 0.5 * abs(xi[0] - xi[1])
        ref = contour_oracle(phi, frame, x, spec, [(v, radius) for v in xi])
        assert np.max(np.abs(value - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_principal_extension_at_coincident_spectral_values():
    # x_3 = 0 puts xi_1 = xi_2 = xi: no contour separates them, but the
    # expansion is finite there.  F = G = exp gives (1 + I_3 + I_4 + I_5)
    # exp(zeta) with exp(zeta) = e^xi (1 + N + N^2 / 2), as N^3 = 0.
    spec = split_two_idempotent()
    frame = split_frame(spec)
    x = np.array([0.3, -0.4, 0.0])
    z = embed(frame, x, spec)
    xi = z.coords[0]
    assert xi == z.coords[1]
    nil = Element(np.concatenate([[0, 0], z.coords[2:]]))
    one = spec.unit()
    series = one + nil + 0.5 * multiply(nil, nil, spec)
    exp_zeta = np.exp(xi) * series
    expected = multiply(Element([1, 1, 1, 1, 1]), exp_zeta, spec)
    expo = HolomorphicScalarSpec("exponential", (1, 1))
    out = eval_function(PrincipalExtension(F=(expo,) * 2, G=(expo,) * 3), frame, x, spec)
    assert (out - expected).norm() <= 1e-14 * expected.norm()


def test_principal_extension_rejects_scalar_pole_at_spectral_value():
    spec = example1()
    frame = default_frame(spec)
    x = np.array([0.5, 0.2, -0.3])
    xi = spectral(frame, x, spec).xi[0]
    rational = HolomorphicScalarSpec("rational", (1,), denom=(-xi, 1))
    with pytest.raises(PoleError, match="pole"):
        eval_function(PrincipalExtension(F=(rational,)), frame, x, spec)
