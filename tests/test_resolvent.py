"""Resolvent and inverse against the solve oracle and the paper's recurrences."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    formula_inverse,
    formula_principal,
    formula_resolvent,
    recurrence_coefficients,
)
from test_algebra import BUILTIN_IDS, BUILTINS, chain, structure_tensors

from monalg.algebra import (
    _LOCUS_MARGIN,
    AlgebraSpec,
    Element,
    _multiply_coords,
    left_mul_matrix,
    multiply,
    oracle_inverse,
    unit_element,
    validate_algebra,
)
from monalg.catalog import builtin_algebra, builtin_frames
from monalg.curves import Circle2D, Polyline, coordinate_plane
from monalg.errors import IntegrationError, PoleError, SingularElementError
from monalg.frames import Frame, embed, embed_many, spectral
from monalg.integrals import _InverseIntegrand, winding_certificate
from monalg.monogenic import HolomorphicScalarSpec, PrincipalExtension, ResolventKernel, eval_batch
from monalg.resolvent import (
    _inverse_coords,
    _radical_series,
    _resolvent_coords,
    inverse,
    inverse_many,
    resolvent,
)


def example1():
    return AlgebraSpec(5, 1, {(2, 2, 3): 1, (2, 4, 5): 1})


def example4():
    return AlgebraSpec(5, 1, {(2, 2, 3): 1, (2, 3, 4): 1})


def two_idempotent():
    return AlgebraSpec(4, 2, {(3, 3, 4): 1}, u_map={3: 1, 4: 1})


def default_frame(spec):
    return Frame.from_rows(spec, [1j, 1, 0, 1, 0], [0, 0, 1, 0, 1j])


def oracle_resolvent(t, frame, x, spec):
    shifted = Element(t * spec.unit_coords() - embed(frame, x, spec).coords)
    la = left_mul_matrix(shifted, spec)
    return np.linalg.solve(la, spec.unit_coords())


# -- recurrence coefficients --------------------------------------------------


def test_hand_expanded_coefficients():
    # e2 = i I1 + I2, e3 = I4, x = (0, 1, 1):
    #   T2 = 1, T3 = 0, T4 = 1, T5 = 0
    #   B_{2,3} = T2 = 1, B_{2,5} = T4 = 1, B_{4,5} = T2 = 1, others 0
    #   Q_{3,3} = Q_{2,2} B_{2,3} = 1, Q_{3,5} = T2 B_{2,5} + T4 B_{4,5} = 2
    spec = example1()
    frame = Frame.from_rows(spec, [1j, 1, 0, 0, 0], [0, 0, 0, 1, 0])
    co = recurrence_coefficients(frame, [0.0, 1.0, 1.0], spec)
    T, B, Q, Qt = co["T"], co["B"], co["Q"], co["Qt"]
    assert T == {2: 1, 3: 0, 4: 1, 5: 0}
    assert B[(2, 3)] == 1 and B[(2, 5)] == 1 and B[(4, 5)] == 1
    assert B[(2, 4)] == 0 and B[(3, 4)] == 0 and B[(3, 5)] == 0
    for s in range(2, 6):
        assert Q[(2, s)] == T[s]
        assert Qt[(2, s)] == -T[s]
    assert Q[(3, 3)] == 1
    assert Q[(3, 5)] == 2
    assert Q[(3, 4)] == 0
    assert Q[(4, 5)] == 0 and Q[(5, 5)] == 0


def test_semisimple_maps_empty():
    spec = AlgebraSpec(3, 3)
    frame = Frame.from_rows(spec, [1j, 1j, 1j])
    co = recurrence_coefficients(frame, [0.3, 0.7], spec)
    assert co == {"T": {}, "B": {}, "Q": {}, "Qt": {}}


# -- resolvent ----------------------------------------------------------------


def test_resolvent_semisimple_closed_form():
    spec = AlgebraSpec(3, 3)
    frame = Frame.from_rows(spec, [1j, 2j, 0.5 + 1j])
    x = np.array([0.4, 0.8])
    t = 2.5 + 0.3j
    data = spectral(frame, x, spec)
    out = resolvent(t, frame, x, spec)
    expected = np.array([1.0 / (t - xi) for xi in data.xi])
    assert np.allclose(out.coords, expected, atol=1e-15)


def test_semisimple_inverse_and_resolvent_are_bitwise_reciprocals():
    spec = builtin_algebra("semisimple:m=12")
    rng = np.random.default_rng(12)
    emb = rng.standard_normal((3, 5, 12)) + 1j * rng.standard_normal((3, 5, 12))
    t = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    assert _inverse_coords(emb, spec).tobytes() == (1.0 / emb).tobytes()
    expected = 1.0 / (t[..., None] - emb)
    assert _resolvent_coords(t, emb, spec).tobytes() == expected.tobytes()
    real = rng.standard_normal(12) + 3.0
    assert _inverse_coords(real, spec).dtype == np.complex128


@pytest.mark.parametrize("make_spec", [example1, example4, two_idempotent])
def test_resolvent_matches_oracle(make_spec):
    spec = make_spec()
    if spec.n == 5:
        frame = default_frame(spec)
    else:
        frame = Frame.from_rows(spec, [1j, 1j, 1, 0], [0, 1, 0, 1])
    rng = np.random.default_rng(37)
    checked = 0
    while checked < 60:
        x = 2.0 * rng.standard_normal(frame.k)
        t = complex(*rng.standard_normal(2)) * 2.0
        data = spectral(frame, x, spec)
        if min(abs(t - xi) for xi in data.xi) < 0.3:
            continue
        checked += 1
        ours = resolvent(t, frame, x, spec).coords
        oracle = oracle_resolvent(t, frame, x, spec)
        assert np.max(np.abs(ours - oracle)) <= 1e-10


def test_resolvent_identity():
    spec = example1()
    frame = default_frame(spec)
    rng = np.random.default_rng(41)
    one = unit_element(spec)
    checked = 0
    while checked < 60:
        x = 2.0 * rng.standard_normal(3)
        t = complex(*rng.standard_normal(2)) * 2.0
        data = spectral(frame, x, spec)
        if min(abs(t - xi) for xi in data.xi) < 0.3:
            continue
        checked += 1
        shifted = Element(t * spec.unit_coords() - embed(frame, x, spec).coords)
        res = resolvent(t, frame, x, spec)
        assert (multiply(shifted, res, spec) - one).norm() <= 1e-10


def test_resolvent_pole_error_names_component():
    spec = example1()
    frame = default_frame(spec)
    x = np.array([0.5, 0.25, 0.0])
    xi = spectral(frame, x, spec).xi[0]
    with pytest.raises(PoleError) as err:
        resolvent(xi, frame, x, spec)
    assert err.value.u == 1


def test_resolvent_large_t_asymptotics():
    spec = example1()
    frame = default_frame(spec)
    x = np.array([0.3, -0.4, 0.9])
    one = unit_element(spec)
    norms = []
    for t in (1e3, 1e6):
        res = resolvent(t, frame, x, spec)
        norms.append((t * res - one).norm())
    assert norms[1] < norms[0] < 1e-2


def test_resolvent_at_zero_is_minus_inverse():
    spec = example4()
    frame = default_frame(spec)
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 20:
        x = rng.standard_normal(3)
        if not spectral(frame, x, spec).invertible:
            continue
        if abs(spectral(frame, x, spec).xi[0]) < 0.2:
            continue
        checked += 1
        res0 = resolvent(0.0, frame, x, spec).coords
        inv = inverse(frame, x, spec).coords
        assert np.max(np.abs(res0 + inv)) <= 1e-12 * max(1.0, np.max(np.abs(inv)))


# -- inverse -------------------------------------------------------------------


def test_inverse_of_unit_direction():
    spec = example1()
    frame = default_frame(spec)
    out = inverse(frame, [1.0, 0.0, 0.0], spec)
    assert np.allclose(out.coords, spec.unit_coords())


def test_inverse_on_semisimple_span_is_diagonal():
    # frame inside the idempotent span: all T_s vanish, so the nilpotent
    # part of the inverse is exactly zero
    spec = example1()
    frame = Frame.from_rows(spec, [1j, 0, 0, 0, 0])
    out = inverse(frame, [0.3, 0.8], spec)
    assert np.array_equal(out.coords[1:], np.zeros(4))
    xi = 0.3 + 0.8j
    assert abs(out.coords[0] - 1.0 / xi) <= 1e-15


@pytest.mark.parametrize("make_spec", [example1, example4, two_idempotent])
def test_inverse_matches_oracle(make_spec):
    spec = make_spec()
    if spec.n == 5:
        frame = default_frame(spec)
    else:
        frame = Frame.from_rows(spec, [1j, 1j, 1, 0], [0, 1, 0, 1])
    rng = np.random.default_rng(47)
    checked = 0
    while checked < 80:
        x = 2.0 * rng.standard_normal(frame.k)
        data = spectral(frame, x, spec)
        if data.min_abs_xi < 0.25:
            continue
        checked += 1
        ours = inverse(frame, x, spec)
        oracle = oracle_inverse(embed(frame, x, spec), spec)
        assert (ours - oracle).norm() <= 1e-10
        assert (multiply(embed(frame, x, spec), ours, spec) - unit_element(spec)).norm() <= 1e-10


def test_inverse_singularity_signal():
    spec = example1()
    frame = default_frame(spec)
    with pytest.raises(SingularElementError) as err:
        inverse(frame, [0.0, 0.0, 1.0], spec)
    assert err.value.offending == (1,)


def test_deep_chain_algebra_matches_oracle():
    # degree-7 truncated power algebra (I_j = t^{j-1} mod t^7): pole orders
    # reach r = 7, stressing the full depth of the recurrences
    products = {}
    for a in range(2, 8):
        for b in range(a, 8):
            if a + b - 1 <= 7:
                products[(a, b, a + b - 1)] = 1
    spec = AlgebraSpec(7, 1, products)
    report = validate_algebra(spec)
    assert report.ok and report.nilpotency_index == 7
    frame = Frame.from_rows(
        spec, [1j, 1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 1, 0]
    )
    rng = np.random.default_rng(59)
    one = unit_element(spec)
    checked = 0
    while checked < 40:
        x = rng.uniform(-1.5, 1.5, size=3)
        data = spectral(frame, x, spec)
        if data.min_abs_xi < 0.4:
            continue
        t = complex(*rng.standard_normal(2)) * 2.0
        if min(abs(t - xi) for xi in data.xi) < 0.4:
            continue
        checked += 1
        ours = inverse(frame, x, spec)
        oracle = oracle_inverse(embed(frame, x, spec), spec)
        assert (ours - oracle).norm() <= 1e-9 * max(1.0, oracle.norm())
        res = resolvent(t, frame, x, spec).coords
        ref = oracle_resolvent(t, frame, x, spec)
        assert np.max(np.abs(res - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))
        shifted = Element(t * spec.unit_coords() - embed(frame, x, spec).coords)
        assert (multiply(shifted, resolvent(t, frame, x, spec), spec) - one).norm() <= 1e-9


def test_noninvertible_locus_consistency():
    # points solving the two linear equations of the locus: oracle and
    # spectral must agree that xi_1 = 0 there
    spec = example1()
    frame = default_frame(spec)
    rng = np.random.default_rng(53)
    for _ in range(10):
        x = np.array([0.0, 0.0, rng.standard_normal()])
        data = spectral(frame, x, spec)
        assert abs(data.xi[0]) <= 1e-12 * max(1.0, np.linalg.norm(x))
        with pytest.raises(SingularElementError):
            oracle_inverse(embed(frame, x, spec), spec)


# -- the single expansion against the paper's recurrences ----------------------


def power_chains(spec):
    """An associative algebra with the n, m and u_map of ``spec``: the
    radical indices of each idempotent, in increasing order, are the powers
    x_u, x_u^2, ... of a truncated polynomial ring."""
    products = {}
    for u in range(1, spec.m + 1):
        block = [s for s in range(spec.m + 1, spec.n + 1) if spec.u_map[s] == u]
        for i in range(len(block)):
            for j in range(i, len(block) - i - 1):
                products[(block[i], block[j], block[i + j + 1])] = 1
    return AlgebraSpec(spec.n, spec.m, products, u_map=spec.u_map)


def random_frame(spec, rng):
    # separated real offsets keep the spectral values of distinct idempotents apart
    rows = []
    for offset in (1j * np.ones(spec.m), 0.7 * np.arange(spec.m)):
        nil = rng.standard_normal(spec.n - spec.m) + 1j * rng.standard_normal(spec.n - spec.m)
        rows.append(np.concatenate([offset, nil]))
    return Frame.from_rows(spec, *rows)


def assert_expansion_matches_recurrences(spec, frame, rng, count=8):
    xs, ts = [], []
    while len(xs) < count:
        x = rng.uniform(-1.5, 1.5, size=frame.k)
        t = complex(*rng.standard_normal(2)) * 2.0
        xi = np.array(spectral(frame, x, spec).xi)
        if np.min(np.abs(xi)) < 0.25 or np.min(np.abs(t - xi)) < 0.25:
            continue
        xs.append(x)
        ts.append(t)
    xs, ts = np.array(xs), np.array(ts)
    emb = embed_many(frame, xs)
    batch_inv = _inverse_coords(emb, spec)
    batch_res = _resolvent_coords(ts, emb, spec)
    for i, (x, t) in enumerate(zip(xs, ts)):
        inv_ref = formula_inverse(frame, x, spec)
        res_ref = formula_resolvent(t, frame, x, spec)
        for ours, ref in ((inverse(frame, x, spec).coords, inv_ref), (batch_inv[i], inv_ref),
                          (resolvent(t, frame, x, spec).coords, res_ref), (batch_res[i], res_ref)):
            assert np.max(np.abs(ours - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "name", ["example1", "example2", "example3", "example4", "two_idempotent", "chain12"]
)
def test_expansion_matches_recurrences(name):
    rng = np.random.default_rng(71)
    if name == "two_idempotent":
        spec = two_idempotent()
        frame = Frame.from_rows(spec, [1j, 1j, 1, 0], [0, 1, 0, 1])
    elif name == "chain12":
        spec = chain(12)
        frame = random_frame(spec, rng)
    else:
        spec = builtin_algebra(name)
        frame = builtin_frames(spec)["default"]
    assert_expansion_matches_recurrences(spec, frame, rng)


@settings(max_examples=40, deadline=None)
@given(spec=structure_tensors().map(power_chains), seed=st.integers(0, 2**32 - 1))
def test_expansion_matches_recurrences_random(spec, seed):
    assert validate_algebra(spec).ok
    rng = np.random.default_rng(seed)
    assert_expansion_matches_recurrences(spec, random_frame(spec, rng), rng, count=4)


def _refused(call) -> bool:
    try:
        call()
    except (SingularElementError, PoleError, IntegrationError):
        return True
    return False


def _locus_entry_points(spec, frame):
    """``(name, size, refused)`` for every entry point that tests the locus.

    ``refused(d)`` puts a value that :func:`monalg.algebra._on_locus` tests
    at ``d`` from zero, beside a point of norm about ``size``, and says
    whether the entry point refused it.  Sizes of 1e3 show that the margin
    is relative.
    """
    big = 1e3
    far = np.array([0.0, 0.0, big])  # e_3 is radical: xi(far) = 0
    near = lambda d: far + [d, 0.0, 0.0]  # noqa: E731, xi = d
    at_big = np.array([[big, 0.0, 0.0]])  # xi = big
    plane = coordinate_plane(3, 1, 2)
    # curves whose images pass d from 0, nearest at near(d)
    circle = lambda d: Circle2D(far + [1.0 + d, 0.0, 0.0], 1.0, plane)  # noqa: E731
    square = lambda d: Polyline(  # noqa: E731
        far + np.array([[d, -1.0, 0.0], [2.0, -1.0, 0.0], [2.0, 1.0, 0.0], [d, 1.0, 0.0]]),
        closed=True)
    rational = PrincipalExtension(F=(HolomorphicScalarSpec("rational", (1.0,), (-big, 1.0)),))
    shift = np.array([0.3, -0.2, 0.1])
    a_far = embed(frame, far, spec)
    unit = spec.unit()
    return [
        ("spectral", big, lambda d: not spectral(frame, near(d), spec).invertible),
        ("inverse", big, lambda d: _refused(lambda: inverse(frame, near(d), spec))),
        ("inverse_many", big,
         lambda d: _refused(lambda: inverse_many(frame, np.stack([[0.5, 0.5, 0.0], near(d)]),
                                                 spec))),
        ("oracle_inverse", a_far.norm(),
         lambda d: _refused(lambda: oracle_inverse(a_far + d * unit, spec))),
        ("resolvent", big, lambda d: _refused(lambda: resolvent(big + d, frame, at_big[0], spec))),
        ("ResolventKernel", big,
         lambda d: _refused(lambda: eval_batch(ResolventKernel(big + d), frame, at_big, spec))),
        ("rational PrincipalExtension", big,
         lambda d: _refused(lambda: eval_batch(rational, frame, at_big + [d, 0.0, 0.0], spec))),
        ("winding_certificate on a circle", big,
         lambda d: _refused(lambda: winding_certificate(circle(d), frame, np.zeros(3), spec))),
        ("winding_certificate on a polyline", np.hypot(1.0, big),
         lambda d: _refused(lambda: winding_certificate(square(d), frame, np.zeros(3), spec))),
        ("lambda integrand", big,
         lambda d: _refused(lambda: _InverseIntegrand().eval_many(frame, near(d)[None], spec))),
        # the formula's factor takes offsets from its shift
        ("formula integrand", big,
         lambda d: _refused(lambda: _InverseIntegrand(shift).eval_many(
             frame, near(d)[None], spec))),
    ]


def test_inverse_many_uses_the_relative_singularity_threshold():
    # every entry point refuses at half the margin of _on_locus and accepts
    # at twice it: one rule decides everywhere
    spec = example1()
    frame = builtin_frames(spec)["default"]
    for name, size, refused in _locus_entry_points(spec, frame):
        margin = _LOCUS_MARGIN * max(1.0, size)
        assert refused(0.5 * margin), f"{name} accepts half the margin"
        assert not refused(2.0 * margin), f"{name} refuses twice the margin"
    with pytest.raises(SingularElementError) as err:
        inverse_many(frame, np.stack([[0.5, 0.5, 0.0], [1e-11, 0.0, 1e3]]), spec)
    assert err.value.offending == (1,)
    assert "(1,)" in str(err.value)


# -- the series stops at the radical's depth -------------------------------------


def full_horner(coeff, emb, spec):
    """All ``n - m`` Horner steps, each one ``_multiply_coords`` by ``N``."""
    n, m = spec.n, spec.m
    c = coeff(n - m)
    acc = np.zeros(c.shape[:-1] + (n,), dtype=np.complex128)
    acc[..., : c.shape[-1]] = c
    nil = emb.copy()
    nil[..., :m] = 0.0
    for k in range(n - m - 1, -1, -1):
        acc = _multiply_coords(acc, nil, spec)
        c = coeff(k)
        acc[..., : c.shape[-1]] += c
    return acc


def full_inverse(emb, spec):
    inv = 1.0 / emb[..., : spec.m]
    return full_horner(lambda k: inv * (-inv) ** k if k else inv, emb, spec)


def full_resolvent(t, emb, spec):
    r = 1.0 / (np.asarray(t)[..., None] - emb[..., : spec.m])
    return full_horner(lambda k: r ** (k + 1) if k else r, emb, spec)


def series_points(spec, rng, count=16):
    """Embedded points with spectral values in the annulus 0.5 <= |xi| <= 1.5,
    and values of ``t`` at least 1.5 away from them."""
    emb = (rng.standard_normal((count, spec.n)) + 1j * rng.standard_normal((count, spec.n))) / 2
    emb[:, : spec.m] = rng.uniform(0.5, 1.5, (count, spec.m)) * np.exp(
        2j * np.pi * rng.uniform(size=(count, spec.m)))
    t = 3.0 * np.exp(2j * np.pi * rng.uniform(size=count))
    return emb, t


def assert_bits_equal(ours, ref):
    assert ours.shape == ref.shape
    assert ours.tobytes() == ref.tobytes()


def assert_close(ours, ref):
    assert ours.shape == ref.shape
    assert np.max(np.abs(ours - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("spec", BUILTINS, ids=BUILTIN_IDS)
def test_series_to_the_depth_is_bitwise_the_full_horner(spec):
    # blocks of one term (depth <= 2) are Horner's rule in N, bit for bit;
    # longer blocks regroup the products, so they agree to roundoff
    check = assert_bits_equal if math.isqrt(spec._depth + 1) == 1 else assert_close
    emb, t = series_points(spec, np.random.default_rng(83))
    check(_inverse_coords(emb, spec), full_inverse(emb, spec))
    check(_resolvent_coords(t, emb, spec), full_resolvent(t, emb, spec))
    # many t at one point: the coefficients' batch is wider than emb's
    check(_resolvent_coords(t, emb[0], spec), full_resolvent(t, emb[0], spec))


@settings(max_examples=40, deadline=None)
@given(spec=structure_tensors().map(power_chains), seed=st.integers(0, 2**32 - 1))
def test_series_to_the_depth_matches_the_full_horner_random(spec, seed):
    emb, t = series_points(spec, np.random.default_rng(seed), count=4)
    for ours, ref in ((_inverse_coords(emb, spec), full_inverse(emb, spec)),
                      (_resolvent_coords(t, emb, spec), full_resolvent(t, emb, spec))):
        assert np.max(np.abs(ours - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("name, calls", [
    ("example1", 3), ("example4", 4), ("chain12", 12), ("semisimple:m=3", 1),
])
def test_series_calls_coeff_once_per_term_down_from_the_depth(name, calls):
    spec = chain(12) if name == "chain12" else builtin_algebra(name)
    emb, _ = series_points(spec, np.random.default_rng(89), count=3)
    seen = []

    def coeff(k):
        seen.append(k)
        return np.ones((3, spec.m), dtype=np.complex128)

    _radical_series(coeff, emb, spec)
    assert seen == list(range(calls - 1, -1, -1))
    assert len(seen) == spec._depth + 1


# -- Paterson-Stockmeyer: blocks of isqrt(depth + 1) terms ----------------------


def test_blocks_of_four_match_the_recurrences():
    # chain(20) has depth 19: blocks of s = 4 terms, 3 products for the
    # powers and 4 for Horner's rule in N^4
    spec = chain(20)
    assert spec._depth == 19 and math.isqrt(spec._depth + 1) == 4
    rng = np.random.default_rng(101)
    assert_expansion_matches_recurrences(spec, random_frame(spec, rng), rng)


EXP = HolomorphicScalarSpec("exponential", (1.0, 0.5))
CUBIC = HolomorphicScalarSpec("polynomial", (1.0, -2.0, 0.5, 1.0j))
RATIONAL = HolomorphicScalarSpec("rational", (1.0, 2.0j), denom=(9.0, -1.0, 1.0))


@pytest.mark.parametrize("with_g", [False, True], ids=["F", "F-and-G"])
def test_principal_extension_in_blocks_matches_the_residues(with_g):
    # with no G_s the coefficients are semisimple and the series runs in
    # blocks of 4; with G_s they are not, and it runs Horner's rule in N
    spec = chain(20)
    rng = np.random.default_rng(103)
    frame = random_frame(spec, rng)
    g = (CUBIC, None, RATIONAL, EXP) * 4 + (EXP, None, CUBIC) if with_g else ()
    phis = [PrincipalExtension(F=(f,), G=g) for f in (EXP, CUBIC, RATIONAL)]
    xs = rng.uniform(-1.5, 1.5, size=(6, frame.k))
    for phi in phis:
        for x, ours in zip(xs, eval_batch(phi, frame, xs, spec)):
            ref = formula_principal(phi, frame, x, spec)
            assert np.max(np.abs(ours - ref)) <= 1e-13 * np.max(np.abs(ref))


def _times_fixed_calls(monkeypatch):
    resolvent_module = importlib.import_module("monalg.resolvent")
    calls = []
    times_fixed = resolvent_module._times_fixed

    def counted(a, times, spec, triples):
        calls.append(a.shape)
        return times_fixed(a, times, spec, triples)

    monkeypatch.setattr(resolvent_module, "_times_fixed", counted)
    return calls


@pytest.mark.parametrize("name, products", [
    ("example1", 2), ("example4", 2), ("chain12", 5), ("chain20", 7), ("semisimple:m=3", 0),
])
def test_series_products_per_batch(monkeypatch, name, products):
    # s - 1 products for N^2..N^s and ceil((depth + 1) / s) - 1 for Horner's
    # rule in N^s: chain12 (depth 11, s = 3) takes 2 + 3, not 11
    spec = chain(int(name[5:])) if name.startswith("chain") else builtin_algebra(name)
    emb, t = series_points(spec, np.random.default_rng(107), count=5)
    calls = _times_fixed_calls(monkeypatch)
    _inverse_coords(emb, spec)
    assert len(calls) == products
    calls.clear()
    _resolvent_coords(t, emb, spec)
    assert len(calls) == products


def test_series_with_non_semisimple_coefficients_is_horner(monkeypatch):
    # G_s gives coefficients with n columns, which no block may scale
    spec = chain(12)
    emb, _ = series_points(spec, np.random.default_rng(109), count=5)
    calls = _times_fixed_calls(monkeypatch)
    _radical_series(lambda k: np.ones((5, spec.n), dtype=np.complex128), emb, spec)
    assert len(calls) == spec._depth
