"""Core algebra arithmetic, axiom validation, and the linear-solve oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from verdicts import ALGEBRAS, _inputs

from monalg.algebra import (
    AlgebraSpec,
    Element,
    _left_mul_coords,
    _multiply_coords,
    _nilpotency_index,
    _product_support,
    basis_element,
    functional,
    left_mul_matrix,
    multiply,
    oracle_inverse,
    unit_element,
    validate_algebra,
    zero_element,
)
from monalg.catalog import builtin_algebra
from monalg.errors import SingularElementError, StructureError
from monalg.frames import Frame
from monalg.monogenic import (
    HolomorphicScalarSpec,
    PrincipalExtension,
    ResolventKernel,
    eval_batch,
    zeta_power,
)


def example1():
    # n=5, m=1, I2^2 = I3, I2 I4 = I5, other nilpotent products zero
    return AlgebraSpec(5, 1, {(2, 2, 3): 1, (2, 4, 5): 1})


def semisimple(m):
    return AlgebraSpec(m, m)


def random_element(rng, n):
    return Element(rng.standard_normal(n) + 1j * rng.standard_normal(n))


# -- multiplication ----------------------------------------------------------


def test_idempotent_diagonal_product():
    spec = AlgebraSpec(2, 2)
    a = 2 * basis_element(1, 2) + 3 * basis_element(2, 2)
    b = basis_element(1, 2) - basis_element(2, 2)
    out = multiply(a, b, spec)
    assert np.allclose(out.coords, [2, -3])


def test_nilpotent_square_matches_table():
    spec = example1()
    i2 = basis_element(2, 5)
    out = multiply(i2, i2, spec)
    assert np.allclose(out.coords, basis_element(3, 5).coords)


def test_mixed_rule_selector():
    spec = example1()
    one_idem = basis_element(1, 5)
    for s in range(2, 6):
        out = multiply(one_idem, basis_element(s, 5), spec)
        assert np.allclose(out.coords, basis_element(s, 5).coords)


def test_unit_acts_as_identity():
    rng = np.random.default_rng(7)
    for spec in (example1(), semisimple(3)):
        one = unit_element(spec)
        for _ in range(10):
            a = random_element(rng, spec.n)
            assert np.allclose(multiply(one, a, spec).coords, a.coords, atol=1e-15)


def test_commutativity_exact():
    rng = np.random.default_rng(11)
    spec = example1()
    for _ in range(20):
        a = random_element(rng, 5)
        b = random_element(rng, 5)
        ab = multiply(a, b, spec).coords
        ba = multiply(b, a, spec).coords
        assert np.array_equal(ab, ba)


def test_associativity_random_triples():
    rng = np.random.default_rng(13)
    spec = example1()
    for _ in range(50):
        a, b, c = (random_element(rng, 5) for _ in range(3))
        lhs = multiply(multiply(a, b, spec), c, spec)
        rhs = multiply(a, multiply(b, c, spec), spec)
        bound = 1e-12 * a.norm() * b.norm() * c.norm()
        assert (lhs - rhs).norm() <= bound


def test_nilpotency_property():
    spec = example1()
    report = validate_algebra(spec)
    rng = np.random.default_rng(17)
    q = report.nilpotency_index
    for _ in range(20):
        factors = [
            Element(np.concatenate([[0], rng.standard_normal(4) + 1j * rng.standard_normal(4)]))
            for _ in range(q)
        ]
        prod = factors[0]
        for f in factors[1:]:
            prod = multiply(prod, f, spec)
        assert prod.norm() <= 1e-12


# -- sparse product kernel against the dense table ----------------------------


def dense_table(spec):
    """The full multiplication tensor ``t[r, s, k]`` (0-based) from the three rules."""
    n, m = spec.n, spec.m
    t = np.zeros((n, n, n), dtype=np.complex128)
    for u in range(m):
        t[u, u, u] = 1.0
    for s in range(m + 1, n + 1):
        u = spec.u_map[s]
        t[u - 1, s - 1, s - 1] = 1.0
        t[s - 1, u - 1, s - 1] = 1.0
    for (left, right, target), value in spec.products.items():
        t[left - 1, right - 1, target - 1] = value
        t[right - 1, left - 1, target - 1] = value
    return t


def chain(n):
    # one idempotent, I_a I_b = I_{a+b-1} on the radical
    return AlgebraSpec(n, 1, {
        (a, b, a + b - 1): 1 for a in range(2, n + 1) for b in range(a, n + 1) if a + b - 1 <= n
    })


@st.composite
def structure_tensors(draw):
    """Random (not necessarily associative) specs with complex constants."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, n))
    u_map = {s: draw(st.integers(1, m)) for s in range(m + 1, n + 1)}
    products = {}
    if m < n:
        nil = st.integers(m + 1, n)
        value = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
        for _ in range(draw(st.integers(0, 2 * (n - m) ** 2))):
            left, right = sorted((draw(nil), draw(nil)))
            products[(left, right, draw(st.integers(1, n)))] = draw(value)
    return AlgebraSpec(n, m, products, u_map=u_map)


BUILTINS = ([builtin_algebra(f"example{i}") for i in range(1, 5)]
            + [builtin_algebra("semisimple:m=1"), builtin_algebra("semisimple:m=12"), chain(12)])
BUILTIN_IDS = ["example1", "example2", "example3", "example4", "semisimple1", "semisimple12",
               "chain12"]

SHAPE_PAIRS = [((), ()), ((7,), ()), ((), (7,)), ((3, 4), (3, 4)), ((3, 1), (4,))]


def random_coords(rng, shape, n):
    return rng.standard_normal(shape + (n,)) + 1j * rng.standard_normal(shape + (n,))


def assert_matches_dense(spec, rng):
    table = dense_table(spec)
    for shape_a, shape_b in SHAPE_PAIRS:
        a = random_coords(rng, shape_a, spec.n)
        b = random_coords(rng, shape_b, spec.n)
        sparse = _multiply_coords(a, b, spec)
        dense = np.einsum("...r,...s,rsk->...k", a, b, table)
        # relative to the sum of term magnitudes, the scale of rounding error
        scale = np.einsum("...r,...s,rsk->...k", abs(a), abs(b), abs(table))
        assert sparse.shape == dense.shape
        assert np.all(np.abs(sparse - dense) <= 1e-13 * scale)


@settings(max_examples=60, deadline=None)
@given(spec=structure_tensors(), seed=st.integers(0, 2**32 - 1))
def test_sparse_product_matches_dense_table_random(spec, seed):
    assert_matches_dense(spec, np.random.default_rng(seed))


@pytest.mark.parametrize("spec", BUILTINS, ids=BUILTIN_IDS)
def test_sparse_product_matches_dense_table_builtins(spec):
    assert_matches_dense(spec, np.random.default_rng(spec.n))


@settings(max_examples=40, deadline=None)
@given(spec=structure_tensors(), seed=st.integers(0, 2**32 - 1))
def test_left_mul_matrix_and_operand_swap(spec, seed):
    rng = np.random.default_rng(seed)
    a = random_element(rng, spec.n)
    b = random_element(rng, spec.n)
    ab = multiply(a, b, spec).coords
    assert ab.tobytes() == multiply(b, a, spec).coords.tobytes()
    via_matrix = left_mul_matrix(a, spec) @ b.coords
    scale = np.abs(left_mul_matrix(Element(abs(a.coords)), spec)) @ abs(b.coords)
    assert np.all(np.abs(via_matrix - ab) <= 1e-13 * scale)


def left_mul_by_columns(a, spec):
    """``L`` column by column: column ``s`` is the product ``a * I_s``."""
    basis = np.eye(spec.n, dtype=np.complex128)
    return np.stack([_multiply_coords(a, e, spec) for e in basis], axis=-1)


@pytest.mark.parametrize("spec", [*BUILTINS, chain(20)], ids=[*BUILTIN_IDS, "chain20"])
def test_left_mul_matrices_are_bitwise_the_column_products(spec):
    rng = np.random.default_rng(29)
    for shape in ((), (7,), (3, 4)):
        a = rng.standard_normal(shape + (spec.n,)) + 1j * rng.standard_normal(shape + (spec.n,))
        ours = _left_mul_coords(a, spec)
        assert ours.shape == shape + (spec.n, spec.n)
        assert np.array_equal(ours, left_mul_by_columns(a, spec))


def gather_product(a, b, spec):
    """The gather over the sparse structure constants, for any spec: the
    reference that the componentwise semisimple product matches bit for bit."""
    terms = np.take(np.asarray(a, dtype=np.complex128), spec._left, axis=-1)
    other = np.take(np.asarray(b, dtype=np.complex128), spec._right, axis=-1)
    shape = np.broadcast_shapes(terms.shape, other.shape)
    if terms.shape != shape:
        terms, other = other, terms
    terms = np.multiply(terms, other, out=terms if terms.shape == shape else None)
    del other
    terms *= spec._coeffs
    return np.add.reduceat(terms, spec._starts, axis=-1)


GATHER_SPECS = ([builtin_algebra(f"semisimple:m={m}") for m in (1, 3, 12)]
                + [builtin_algebra(f"example{i}") for i in range(1, 5)] + [chain(12)])
GATHER_IDS = ["semisimple1", "semisimple3", "semisimple12", "example1", "example2",
              "example3", "example4", "chain12"]


@pytest.mark.parametrize("spec", GATHER_SPECS, ids=GATHER_IDS)
def test_product_is_bitwise_the_gather(spec):
    # ((), ()) on semisimple1 is a one-element product, which numpy can round
    # differently in place (as the gather multiplies) and out of place
    rng = np.random.default_rng(spec.n + spec.m)
    for shape_a, shape_b in SHAPE_PAIRS:
        a = random_coords(rng, shape_a, spec.n)
        b = random_coords(rng, shape_b, spec.n)
        ours = _multiply_coords(a, b, spec)
        reference = gather_product(a, b, spec)
        assert ours.shape == reference.shape and ours.dtype == np.complex128
        assert ours.tobytes() == reference.tobytes()
    # real inputs make exact zeros, whose sign only the gather's c_uuu = 1 + 0j
    # normalises; the values compare equal
    real = rng.standard_normal((4, spec.n))
    ours = _multiply_coords(real, real[0], spec)
    assert ours.dtype == np.complex128
    assert np.array_equal(ours, gather_product(real, real[0], spec))


def test_products_never_build_the_dense_table():
    spec = chain(12)
    # rules 1 and 3 give m + 2 (n - m) constants, each off-diagonal product two
    off_diagonal = sum(left != right for left, right, _ in spec.products)
    diagonal = len(spec.products) - off_diagonal
    assert len(spec._left) == 1 + 2 * 11 + 2 * off_diagonal + diagonal
    a = random_element(np.random.default_rng(5), 12)
    multiply(a, a, spec)
    left_mul_matrix(a, spec)
    validate_algebra(spec)
    assert not hasattr(spec, "table") and "_table" not in AlgebraSpec.__slots__


# -- supports: products over the columns a factor can have --------------------


@st.composite
def supports(draw, n):
    """A support over ``n`` columns: ``None`` (all of them) or some, sorted."""
    if draw(st.booleans()):
        return None
    return tuple(sorted(draw(st.sets(st.integers(0, n - 1)))))


def on_support(coords, support):
    """``coords`` with exact zeros outside ``support``."""
    out = coords.copy()
    if support is not None:
        outside = np.ones(coords.shape[-1], dtype=bool)
        outside[list(support)] = False
        out[..., outside] = 0.0
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data(), spec=structure_tensors(), seed=st.integers(0, 2**32 - 1))
def test_product_over_supports_is_the_full_kernel(data, spec, seed):
    # factors with exact zeros outside random supports: the product over the
    # supports' triples is the full kernel's to roundoff, and exactly zero
    # off the targets those triples reach
    rng = np.random.default_rng(seed)
    left, right = data.draw(supports(spec.n)), data.draw(supports(spec.n))
    table = dense_table(spec)
    reached = _product_support(left, right, spec)
    for shape_a, shape_b in SHAPE_PAIRS:
        a = on_support(random_coords(rng, shape_a, spec.n), left)
        b = on_support(random_coords(rng, shape_b, spec.n), right)
        ours = _multiply_coords(a, b, spec, left, right)
        full = _multiply_coords(a, b, spec)
        scale = np.einsum("...r,...s,rsk->...k", abs(a), abs(b), abs(table))
        assert ours.shape == full.shape and ours.dtype == np.complex128
        assert np.all(np.abs(ours - full) <= 1e-13 * scale)
        assert np.array_equal(ours, on_support(ours, reached))


def test_full_supports_take_every_triple():
    spec = chain(12)
    every = spec._triples()
    assert every.left is spec._left and every.targets is None
    assert spec._triples(tuple(range(12)), tuple(range(12))) is every
    # the radical columns never meet the idempotent's rules 1 and 3
    radical = tuple(range(1, 12))
    assert len(spec._triples(radical, radical).left) == len(spec._left) - 1 - 2 * 11


LEDGER_EXP = HolomorphicScalarSpec("exponential", (1.0, 0.5))
LEDGER_CUBIC = HolomorphicScalarSpec("polynomial", (1.0, -2.0, 0.5, 1.0j))


@pytest.mark.parametrize("name", ALGEBRAS)
def test_eval_batch_on_the_frame_support_is_every_column(name):
    # every built-in variant on every frame of the ledger's algebras: the
    # products over the frame's support agree with those over every column
    # (chain12's long runs regroup, to roundoff), and a NaN point stays NaN
    spec, frames, _ = _inputs(name)
    functions = [zeta_power(1, spec), zeta_power(2, spec), zeta_power(3, spec),
                 ResolventKernel(10 + 10j),
                 PrincipalExtension(F=(LEDGER_EXP,) * spec.m,
                                    G=(LEDGER_CUBIC,) * (spec.n - spec.m))]
    rng = np.random.default_rng(37)
    for frame in frames.values():
        every = Frame(frame.a)
        every._support = None
        xs = rng.uniform(-1.0, 1.0, size=(16, frame.k))
        xs[5, -1] = np.nan
        for phi in functions:
            with np.errstate(invalid="ignore"):
                ours = eval_batch(phi, frame, xs, spec)
                full = eval_batch(phi, every, xs, spec)
            finite = np.arange(len(xs)) != 5
            scale = np.max(np.abs(full[finite]), axis=-1, keepdims=True)
            assert np.all(np.abs(ours - full)[finite] <= 1e-13 * scale)
            assert np.isnan(ours[5]).any()


def test_semisimple_products_take_no_supports():
    # C^m multiplies componentwise: no run of the suites makes a sub-list
    from monalg.suites import run_suites

    spec, frames, options = _inputs("semisimple:m=3")
    run_suites(["all"], spec, frames, 1, options)
    assert list(spec._pairs) == [(None, None)]


def test_the_oracle_suite_solves_with_every_triple(monkeypatch):
    # the dense half of the oracle suite, its left-multiplication matrices
    # and their solve, never consults the supports' sub-lists: it checks the
    # series that does, independently
    from monalg import suites

    spec, frames, options = _inputs("chain12")
    plain = [r.residual for r in suites.suite_oracle(spec, frames, 1, options)]
    triples = AlgebraSpec._triples
    inside, consulted = [], []

    def refused(self, left=None, right=None):
        if inside:
            raise AssertionError(f"{inside[-1]} consulted the triples of {left}, {right}")
        consulted.append((left, right))
        return triples(self, left, right)

    def dense(fn):
        def run(*args, **kwargs):
            inside.append(fn.__name__)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return run

    monkeypatch.setattr(AlgebraSpec, "_triples", refused)
    monkeypatch.setattr(suites, "_left_mul_coords", dense(suites._left_mul_coords))
    monkeypatch.setattr(np.linalg, "solve", dense(np.linalg.solve))
    reports = suites.suite_oracle(spec, frames, 1, options)
    assert [r.residual for r in reports] == plain
    assert {right for _, right in consulted} - {None}  # the series took its supports


# -- functionals -------------------------------------------------------------


def test_functional_basis_values():
    spec = semisimple(3)
    for u in range(1, 4):
        assert functional(u, basis_element(u, 3), spec) == 1.0
        # any element of the u-th maximal ideal is annihilated
        omega = Element([1.0 if r != u - 1 else 0.0 for r in range(3)])
        assert functional(u, omega, spec) == 0.0


def test_functional_multiplicative():
    rng = np.random.default_rng(19)
    spec = example1()
    for _ in range(100):
        a = random_element(rng, 5)
        b = random_element(rng, 5)
        lhs = functional(1, multiply(a, b, spec), spec)
        rhs = functional(1, a, spec) * functional(1, b, spec)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_functional_index_out_of_range():
    spec = example1()
    with pytest.raises(IndexError):
        functional(2, basis_element(1, 5), spec)


# -- left multiplication matrix ---------------------------------------------


def test_left_mul_matrix_of_unit():
    spec = example1()
    assert np.allclose(left_mul_matrix(unit_element(spec), spec), np.eye(5))


def test_left_mul_matrix_of_i2():
    spec = example1()
    la = left_mul_matrix(basis_element(2, 5), spec)
    expected = np.zeros((5, 5))
    expected[1, 0] = 1.0  # I2 * I1 = I2 (mixed rule, u_2 = 1)
    expected[2, 1] = 1.0  # I2 * I2 = I3
    expected[4, 3] = 1.0  # I2 * I4 = I5
    assert np.allclose(la, expected)


def test_left_mul_matrix_consistency():
    rng = np.random.default_rng(23)
    spec = example1()
    for _ in range(20):
        a = random_element(rng, 5)
        b = random_element(rng, 5)
        via_matrix = left_mul_matrix(a, spec) @ b.coords
        direct = multiply(a, b, spec).coords
        assert np.max(np.abs(via_matrix - direct)) <= 1e-14 * max(1.0, a.norm() * b.norm())


# -- oracle inverse ----------------------------------------------------------


def test_oracle_inverse_of_unit():
    spec = example1()
    out = oracle_inverse(unit_element(spec), spec)
    assert np.allclose(out.coords, unit_element(spec).coords)


def test_oracle_inverse_simple_point():
    spec = example1()
    a = 2 * basis_element(1, 5) + basis_element(2, 5)
    inv = oracle_inverse(a, spec)
    assert (multiply(a, inv, spec) - unit_element(spec)).norm() <= 1e-12


def test_oracle_inverse_detects_singular():
    spec = example1()
    a = basis_element(2, 5)  # idempotent component vanishes
    with pytest.raises(SingularElementError) as err:
        oracle_inverse(a, spec)
    assert err.value.offending == (1,)


@pytest.mark.parametrize("name, scale", [("semisimple:m=20", 0.1), ("example1", 0.001)])
def test_oracle_inverse_of_a_small_multiple_of_the_unit(name, scale):
    # det L_a = scale^n is tiny, yet every xi_u = scale is far from the locus
    spec = builtin_algebra(name)
    out = oracle_inverse(scale * unit_element(spec), spec)
    np.testing.assert_allclose(out.coords, spec.unit_coords() / scale, rtol=1e-15, atol=0)


def test_oracle_inverse_random_consistency():
    rng = np.random.default_rng(29)
    spec = example1()
    count = 0
    while count < 50:
        a = random_element(rng, 5)
        if abs(a.coords[0]) < 0.2:
            continue
        count += 1
        inv = oracle_inverse(a, spec)
        assert (multiply(a, inv, spec) - unit_element(spec)).norm() <= 1e-10


# -- validation --------------------------------------------------------------


def test_validate_example1_passes():
    report = validate_algebra(example1())
    assert report.ok
    assert report.rule1_ok and report.rule2_support_ok and report.rule3_ok
    assert report.unit_ok
    assert report.assoc_A1_max_residual <= 1e-14
    assert report.assoc_A2_max_residual <= 1e-14
    assert report.nilpotency_index == 3


def test_validate_semisimple():
    report = validate_algebra(semisimple(4))
    assert report.ok
    assert report.nilpotency_index == 1
    assert report.assoc_A1_max_residual == 0.0


def test_validate_zero_nilpotent_tensor():
    report = validate_algebra(AlgebraSpec(3, 1))
    assert report.ok
    assert report.nilpotency_index == 2


def test_validate_associativity_violation():
    # Hand expansion for c[2][2][3]=1, c[2][3][4]=1, c[3][3][5]=1, c[2][4][5]=2:
    #   (I2 I2) I3 = I3 I3 = I5
    #   I2 (I2 I3) = I2 I4 = 2 I5
    # so the worst A1 residual is |1 - 2| = 1 at the triple (2, 2, 3).
    spec = AlgebraSpec(5, 1, {(2, 2, 3): 1, (2, 3, 4): 1, (3, 3, 5): 1, (2, 4, 5): 2})
    report = validate_algebra(spec)
    assert not report.ok
    assert report.assoc_A1_max_residual == pytest.approx(1.0)


def test_validate_support_violation_flagged():
    spec = AlgebraSpec(5, 1, {(2, 3, 3): 1})  # target not above max(left, right)
    report = validate_algebra(spec)
    assert not report.rule2_support_ok
    assert not report.ok


def dense_nilpotency_index(spec, table):
    """Least q with every product of q radical elements zero, by einsum."""
    n, m = spec.n, spec.m
    nil_rows = np.eye(n)[m:]
    span, q = nil_rows, 1
    while span.shape[0] > 0:
        if q > n - m + 1:
            return 0
        prods = np.einsum("ar,bs,rsk->abk", nil_rows, span, table).reshape(-1, n)
        _, sv, vh = np.linalg.svd(prods, full_matrices=False)
        span = vh[sv > 1e-12 * max(1.0, sv[0] if sv.size else 1.0)]
        q += 1
    return q


def assert_validation_matches_dense(spec):
    report = validate_algebra(spec)
    t = dense_table(spec)
    n, m = spec.n, spec.m
    expected1 = np.einsum("rs,rk->rsk", np.eye(m), np.eye(n)[:m])
    assert report.rule1_ok == np.array_equal(t[:m, :m], expected1)
    expected3 = np.zeros((m, n - m, n))
    for s in range(m + 1, n + 1):
        expected3[spec.u_map[s] - 1, s - m - 1, s - 1] = 1.0
    assert report.rule3_ok == np.array_equal(t[:m, m:], expected3)
    unit_prod = np.einsum("r,rsk->sk", spec.unit_coords(), t)
    assert report.unit_ok == bool(np.max(np.abs(unit_prod - np.eye(n))) <= report.tolerance)

    index = dense_nilpotency_index(spec, t)
    assert _nilpotency_index(spec) == index
    assert report.nilpotency_index == (index if report.rule2_support_ok else 0)

    # assoc[r, s, p, w] = coords of (I_r I_s) I_p - I_r (I_s I_p), with the
    # sum of term magnitudes as the scale of rounding error
    assoc = np.einsum("rsk,kpw->rspw", t, t) - np.einsum("spk,rkw->rspw", t, t)
    a = abs(t)
    scale = np.einsum("rsk,kpw->rspw", a, a) + np.einsum("spk,rkw->rspw", a, a)
    for r, got in ((slice(m, n), report.assoc_A1_max_residual),
                   (slice(0, m), report.assoc_A2_max_residual)):
        want = np.abs(assoc[r, m:, m:]).max(initial=0.0)
        assert abs(got - want) <= 1e-13 * scale[r, m:, m:].max(initial=0.0)


@settings(max_examples=60, deadline=None)
@given(spec=structure_tensors())
def test_validation_matches_dense_oracle_random(spec):
    assert_validation_matches_dense(spec)


@pytest.mark.parametrize("spec", BUILTINS, ids=BUILTIN_IDS)
def test_validation_matches_dense_oracle_builtins(spec):
    assert_validation_matches_dense(spec)


# -- the radical's structural depth --------------------------------------------


@pytest.mark.parametrize("spec", BUILTINS, ids=BUILTIN_IDS)
def test_radical_depth_is_one_less_than_the_nilpotency_index(spec):
    assert spec._depth + 1 == validate_algebra(spec).nilpotency_index


@settings(max_examples=60, deadline=None)
@given(spec=structure_tensors())
def test_radical_depth_bounds_the_nilpotency_index(spec):
    assert spec._depth <= spec.n - spec.m
    assert spec._depth + 1 >= validate_algebra(spec).nilpotency_index


def test_radical_depth_is_capped_at_n_minus_m():
    # x1, x2, x3 with x_i x_j = 0 (i != j) and x_i^3 = 0, in the basis
    # I_2..I_7 = x1, x2, x1^2 + x2, x3, x2^2 + x3, x3^2: the support weights
    # double to 8, while every product of three radical elements vanishes
    spec = AlgebraSpec(7, 1, {
        (2, 2, 3): -1, (2, 2, 4): 1,
        (3, 3, 5): -1, (3, 3, 6): 1, (3, 4, 5): -1, (3, 4, 6): 1,
        (4, 4, 5): -1, (4, 4, 6): 1,
        (5, 5, 7): 1, (5, 6, 7): 1, (6, 6, 7): 1,
    })
    report = validate_algebra(spec)
    assert report.ok and report.nilpotency_index == 3
    assert spec._depth == spec.n - spec.m


def test_radical_depth_off_the_triangular_support_is_n_minus_m():
    spec = AlgebraSpec(5, 1, {(2, 2, 3): 1, (2, 3, 3): 1})  # I_2 I_3 -> I_3
    assert spec._depth == spec.n - spec.m


# -- structural errors -------------------------------------------------------


def test_structural_error_bad_index():
    with pytest.raises(StructureError):
        AlgebraSpec(5, 1, {(2, 2, 6): 1})


def test_structural_error_idempotent_factor():
    with pytest.raises(StructureError):
        AlgebraSpec(5, 1, {(1, 2, 3): 1})


def test_structural_error_conflicting_symmetrization():
    with pytest.raises(StructureError):
        AlgebraSpec(5, 1, [((2, 4, 5), 1.0), ((4, 2, 5), 2.0)])


def test_symmetrization_accepts_consistent_duplicates():
    spec = AlgebraSpec(5, 1, [((2, 4, 5), 1.0), ((4, 2, 5), 1.0)])
    assert spec.structure_coefficient(4, 2, 5) == 1.0


def test_u_map_required_for_multi_idempotent():
    with pytest.raises(StructureError):
        AlgebraSpec(4, 2, {(3, 3, 4): 1})
    spec = AlgebraSpec(4, 2, {(3, 3, 4): 1}, u_map={3: 1, 4: 1})
    assert spec.u_map == {3: 1, 4: 1}


def test_element_vector_ops():
    a = Element([1 + 2j, 0, 0])
    b = Element([0, 1, 0])
    assert np.allclose((a + b).coords, [1 + 2j, 1, 0])
    assert np.allclose((a - b).coords, [1 + 2j, -1, 0])
    assert np.allclose((2j * a).coords, [-4 + 2j, 0, 0])
    assert zero_element(3).norm() == 0.0
    with pytest.raises(TypeError):
        a * b
