"""Commutative associative algebras with an idempotent/nilpotent basis.

An algebra of complex dimension ``n`` carries a basis ``I_1, ..., I_n`` in
which the first ``m`` elements are pairwise-orthogonal idempotents and the
remaining ``n - m`` span the nilpotent radical.  Multiplication is fixed by
three rules:

1. ``I_r I_s = delta_rs I_r`` for ``r, s <= m``;
2. ``I_r I_s = sum_k c[r, s, k] I_k`` for nilpotent ``r, s``, where the
   structure tensor is supported on ``k >= max(r, s) + 1``;
3. each nilpotent index ``s`` has a selector ``u_s <= m`` with
   ``I_u I_s = I_s`` if ``u = u_s`` and ``0`` otherwise.

The unit is ``1 = I_1 + ... + I_m``.  Only the nilpotent-block tensor is
user input; rules 1 and 3 are hard-coded so they cannot be mis-specified.

Products, and the axiom checks of :func:`validate_algebra`, use the sparse
list of non-zero structure constants ``c_rsk`` that :class:`AlgebraSpec`
builds from the three rules: ``m + 2 (n - m)`` entries from rules 1 and 3
plus two per off-diagonal nilpotent product.  With a radical every product
goes through one kernel, :func:`_times_fixed`; ``C^m`` multiplies componentwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularElementError, StructureError

__all__ = [
    "AlgebraSpec",
    "Element",
    "ValidationReport",
    "basis_element",
    "functional",
    "left_mul_matrix",
    "multiply",
    "oracle_inverse",
    "unit_element",
    "validate_algebra",
    "zero_element",
]


class Element:
    """A vector of ``n`` complex coordinates with respect to ``{I_r}``.

    Supports vector-space arithmetic; the algebra product needs the
    structure constants, so it lives in :func:`multiply`.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        c = np.asarray(coords, dtype=np.complex128)
        if c.ndim != 1:
            raise ValueError(f"element coordinates must be 1-D, got shape {c.shape}")
        self.coords = c

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return Element(self.coords + other.coords)

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return Element(self.coords - other.coords)

    def __neg__(self):
        return Element(-self.coords)

    def __mul__(self, scalar):
        if isinstance(scalar, Element):
            raise TypeError("algebra product of two Elements needs the spec; use multiply(a, b, spec)")
        return Element(self.coords * complex(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return Element(self.coords / complex(scalar))

    def __repr__(self):
        return f"Element({np.array2string(self.coords, separator=', ')})"


def zero_element(n: int) -> Element:
    return Element(np.zeros(n, dtype=np.complex128))


def basis_element(r: int, n: int) -> Element:
    """``I_r`` (1-based) in an ``n``-dimensional algebra."""
    if not 1 <= r <= n:
        raise IndexError(f"basis index {r} out of [1, {n}]")
    c = np.zeros(n, dtype=np.complex128)
    c[r - 1] = 1.0
    return Element(c)


class AlgebraSpec:
    """Identity card of an algebra: dimensions, structure tensor, selectors.

    Parameters
    ----------
    n, m:
        Total dimension and number of idempotents, ``1 <= m <= n``.
    products:
        Mapping ``(left, right, target) -> complex`` (all 1-based) giving the
        coefficient of ``I_target`` in ``I_left I_right`` for nilpotent
        ``left, right``.  Either factor order may be given; conflicting
        duplicates are rejected, the constants are symmetrized.
    u_map:
        Mapping ``s -> u_s`` for ``s`` in ``[m+1, n]``.  May be omitted when
        ``m == n`` (empty) or ``m == 1`` (the only possible selector).

    ``_selector[j]`` is the idempotent of coordinate ``j`` (0-based): ``j``
    itself for ``j < m`` and ``u_{j+1} - 1`` for a radical ``j``, so that a
    semisimple ``c`` times any ``a`` is ``c[..., _selector] * a``.

    ``_depth`` is the radical's structural depth: the largest ``q`` for
    which a product of ``q`` radical elements can be non-zero, read off the
    support of the structure tensor (0 when ``m == n``).  Every ``N^k`` with
    ``k > _depth`` vanishes.  It is at most ``n - m``, and it is ``n - m``
    when an entry breaks rule 2's triangular support.
    """

    __slots__ = ("n", "m", "products", "u_map", "_left", "_right", "_coeffs", "_starts",
                 "_unit", "_selector", "_depth")

    def __init__(self, n: int, m: int, products=None, u_map=None):
        if not (isinstance(n, int) and isinstance(m, int)):
            raise StructureError("n and m must be integers")
        if n < 1 or m < 1 or m > n:
            raise StructureError(f"need 1 <= m <= n, got n={n}, m={m}")
        self.n = n
        self.m = m
        self.products = self._canonical_products(products or {})
        self.u_map = self._canonical_u_map(u_map)
        self._left, self._right, self._coeffs, self._starts = self._build_triples()
        self._unit = np.zeros(n, dtype=np.complex128)
        self._unit[:m] = 1.0
        self._selector = np.array([*range(m), *(self.u_map[s] - 1 for s in range(m + 1, n + 1))])
        self._depth = self._radical_depth()

    # -- construction ------------------------------------------------------

    def _canonical_products(self, products) -> dict:
        items = products.items() if hasattr(products, "items") else products
        canon: dict[tuple[int, int, int], complex] = {}
        for (left, right, target), value in items:
            for idx in (left, right, target):
                if not (isinstance(idx, (int, np.integer)) and 1 <= idx <= self.n):
                    raise StructureError(f"tensor index {idx} out of [1, {self.n}]")
            if left <= self.m or right <= self.m:
                raise StructureError(
                    f"product entry ({left},{right},{target}) touches the idempotent "
                    f"block; only nilpotent factors (> {self.m}) may carry tensor entries"
                )
            value = complex(value)
            if not (np.isfinite(value.real) and np.isfinite(value.imag)):
                raise StructureError(f"non-finite tensor value at ({left},{right},{target})")
            key = (min(left, right), max(left, right), target)
            if key in canon and canon[key] != value:
                raise StructureError(
                    f"conflicting values for I_{left} I_{right} -> I_{target}: "
                    f"{canon[key]} vs {value}"
                )
            canon[key] = value
        return canon

    def _canonical_u_map(self, u_map) -> dict:
        nil = range(self.m + 1, self.n + 1)
        if u_map is None:
            if self.m == self.n:
                return {}
            if self.m == 1:
                return {s: 1 for s in nil}
            raise StructureError("u_map is required when m > 1 and n > m")
        u_map = dict(u_map)
        for s in nil:
            if s not in u_map:
                raise StructureError(f"u_map missing selector for s={s}")
            u = u_map[s]
            if not 1 <= u <= self.m:
                raise StructureError(f"u_map[{s}]={u} out of [1, {self.m}]")
        extra = set(u_map) - set(nil)
        if extra:
            raise StructureError(f"u_map has non-nilpotent keys {sorted(extra)}")
        return {s: int(u_map[s]) for s in nil}

    def _build_triples(self):
        """Non-zero structure constants ``c_rsk`` as parallel arrays (0-based).

        Returns ``(lefts, rights, coeffs, starts)``: entry ``j`` says that
        ``I_r I_s`` has ``coeffs[j]`` on ``I_k`` for ``r, s = lefts[j],
        rights[j]``.  Entries are sorted by target ``k``; ``starts[k]`` opens
        the run of target ``k``.  Rules 1 and 3 give every
        target at least one entry, so there are exactly ``n`` runs.
        """
        n, m = self.n, self.m
        entries = [(u, u, u, 1.0) for u in range(m)]  # (k, r, s, c)
        for s in range(m, n):
            u = self.u_map[s + 1] - 1
            entries += [(s, u, s, 1.0), (s, s, u, 1.0)]
        for (left, right, target), value in self.products.items():
            entries.append((target - 1, left - 1, right - 1, value))
            if left != right:
                entries.append((target - 1, right - 1, left - 1, value))
        entries.sort(key=lambda e: e[:3])
        targets, lefts, rights, coeffs = zip(*entries)
        starts = np.flatnonzero(np.diff(targets, prepend=-1))
        return (np.array(lefts), np.array(rights),
                np.array(coeffs, dtype=np.complex128), starts)

    def _radical_depth(self) -> int:
        """Largest number of radical factors a non-zero product can have.

        ``weight[k]`` bounds the factors of a product with a non-zero
        ``I_k`` part: 1 for a radical ``I_k``, and at least ``weight[r] +
        weight[s]`` for each non-zero ``c_rsk``.  Under rule 2 both factors
        come before the target, so one pass in target order settles every
        weight; without it the bound falls back to ``n - m``.  The weights
        see only the support, not cancellations, and can double at each
        target, so the result is capped at ``n - m``: a nilpotent algebra of
        dimension ``n - m`` has ``N^(n-m+1) = 0``.
        """
        weight = [0] * (self.m + 1) + [1] * (self.n - self.m)  # 1-based
        for (left, right, target), value in sorted(self.products.items(),
                                                   key=lambda item: item[0][2]):
            if right >= target:  # keys hold left <= right
                return self.n - self.m
            if value:
                weight[target] = max(weight[target], weight[left] + weight[right])
        return min(max(weight), self.n - self.m)

    # -- derived data ------------------------------------------------------

    @property
    def dim_nilpotent(self) -> int:
        return self.n - self.m

    def unit_coords(self) -> np.ndarray:
        return self._unit.copy()

    def unit(self) -> Element:
        return Element(self._unit.copy())

    def u_selector(self, s: int) -> int:
        """``u_s`` for a nilpotent index ``s`` (1-based)."""
        return self.u_map[s]

    def structure_coefficient(self, left: int, right: int, target: int) -> complex:
        """Coefficient of ``I_target`` in ``I_left I_right`` (nilpotent block)."""
        key = (min(left, right), max(left, right), target)
        return self.products.get(key, 0.0 + 0.0j)

    def __repr__(self):
        return (
            f"AlgebraSpec(n={self.n}, m={self.m}, "
            f"{len(self.products)} nilpotent products)"
        )


def unit_element(spec: AlgebraSpec) -> Element:
    return spec.unit()


_LOCUS_MARGIN = 1e-13  # of the noninvertible locus, see _on_locus


def _on_locus(values, size) -> np.ndarray:
    """Mask of the ``values`` that count as zero beside a point of norm ``size``.

    The one rule for the locus where a spectral value vanishes:
    ``|v| <= _LOCUS_MARGIN max(1, size)``, ``size`` broadcast against
    ``values``.  Below size 1 it is that small, so no small circle is refused
    for its radius: ``zeta^{-1} dzeta`` does not change under ``x -> c x``.
    """
    return np.abs(values) <= _LOCUS_MARGIN * np.maximum(1.0, size)


# -- operations -------------------------------------------------------------


def multiply(a: Element, b: Element, spec: AlgebraSpec) -> Element:
    """Bilinear commutative product of two elements."""
    if a.n != spec.n or b.n != spec.n:
        raise ValueError(f"dimension mismatch: {a.n}, {b.n} vs n={spec.n}")
    x, y = a.coords, b.coords
    # content-canonical operand order: the product is symmetric in exact
    # arithmetic, a fixed order makes it bit-identical under operand swap
    if x.tobytes() > y.tobytes():
        x, y = y, x
    return Element(_multiply_coords(x, y, spec))


def _multiply_coords(a, b, spec):
    """Product on raw coordinate arrays; broadcasts over leading axes.

    With an empty radical (``m = n``) the algebra is ``C^m`` and the product
    is componentwise.  Otherwise it is the sparse kernel :func:`_times_fixed`
    by ``_fixed_factor(b)``: O(nnz) work per product, against O(n^3) for a
    contraction with a dense ``(n, n, n)`` table.  No step calls BLAS, so
    results do not depend on the BLAS thread count.

    On a semisimple algebra the two ways give the same bits, bar the sign
    of an exact zero (the kernel's factor ``c_uuu = 1 + 0j`` turns ``-0.0``
    into ``+0.0``), because the componentwise branch multiplies as the
    kernel does: the factor of the broadcast shape first, in place on a
    copy.  Both matter: where numpy fuses multiply-adds, ``a * b`` and
    ``b * a`` can differ in the last bit, and it does not fuse a one-element
    product made in place.
    """
    a = np.asarray(a, dtype=np.complex128)
    if spec.m < spec.n:
        return _times_fixed(a, _fixed_factor(b, spec), spec)
    b = np.asarray(b, dtype=np.complex128)
    shape = np.broadcast(a, b).shape
    if a.shape != shape:
        a, b = b, a
    if a.shape != shape:
        return a * b
    out = a.copy()
    out *= b
    return out


def _fixed_factor(b, spec):
    """``b[..., s] c_rsk`` over the structure constants (``m < n``), the factor
    of :func:`_times_fixed`; repeated products by one ``b``, as in the radical
    series, gather it once."""
    times = np.take(np.asarray(b, dtype=np.complex128), spec._right, axis=-1)
    times *= spec._coeffs
    return times


def _times_fixed(a, times, spec):
    """The sparse product kernel: ``a * b`` with ``times = _fixed_factor(b, spec)``.

    It gathers ``a[..., r]``, multiplies by ``times``, in place when the
    gather has the broadcast shape (at most two gathered arrays then live at
    once) and else the factor first, and sums each target's run.  That is
    the operand order of ``(a[..., r] * b[..., s]) c_rsk``, whose bits it
    keeps when every ``c_rsk`` is 1.  ``a`` must be complex.
    """
    terms = np.take(a, spec._left, axis=-1)
    # equal shapes first: the radical series' products need no broadcast test
    if terms.shape == times.shape or terms.shape == np.broadcast_shapes(terms.shape, times.shape):
        terms *= times
    else:
        terms = times * terms
    del times  # a factor made for this product alone dies before the sum is made
    return np.add.reduceat(terms, spec._starts, axis=-1)


def _left_mul_coords(a, spec):
    """Matrices ``L`` with ``L @ b = a * b`` on raw coordinates, shape ``(..., n, n)``.

    ``L[..., k, s] = sum_r a_r c_rsk``: one ``take`` over the structure
    triples and one ``reduceat`` per ``(k, s)`` cell, where column by column
    it takes ``n`` products ``a * I_s``.  A cell sums its terms in the order
    of ``r``, as that product does among zeros, so the two agree bit for bit
    unless numpy sums a long run of a target's terms pairwise, and then to
    roundoff.  Broadcasts over leading axes of ``a``.
    """
    n = spec.n
    runs = np.diff(np.append(spec._starts, len(spec._left)))
    cells = np.repeat(np.arange(n), runs) * n + spec._right
    order = np.argsort(cells, kind="stable")  # entries are sorted by (k, r, s)
    cells = cells[order]
    starts = np.flatnonzero(np.diff(cells, prepend=-1))
    terms = np.take(np.asarray(a, dtype=np.complex128), spec._left[order], axis=-1)
    terms *= spec._coeffs[order]
    out = np.zeros(terms.shape[:-1] + (n * n,), dtype=np.complex128)
    out[..., cells[starts]] = np.add.reduceat(terms, starts, axis=-1)
    return out.reshape(terms.shape[:-1] + (n, n))


def functional(u: int, a: Element, spec: AlgebraSpec) -> complex:
    """The u-th multiplicative functional: the coordinate of ``I_u``."""
    if not 1 <= u <= spec.m:
        raise IndexError(f"functional index {u} out of [1, {spec.m}]")
    return complex(a.coords[u - 1])


def left_mul_matrix(a: Element, spec: AlgebraSpec) -> np.ndarray:
    """Matrix ``L`` with ``L @ coords(b) = coords(a * b)`` for every ``b``."""
    if a.n != spec.n:
        raise ValueError(f"dimension mismatch: {a.n} vs n={spec.n}")
    return _left_mul_coords(a.coords, spec)


def oracle_inverse(a: Element, spec: AlgebraSpec) -> Element:
    """Inverse via a dense linear solve of ``L_a x = coords(1)``.

    Independent of the closed-form inverse; used as a cross-check oracle.
    Raises :class:`SingularElementError` when some ``xi_u`` is on the locus
    at ``|a|``; ``det L_a``, the product of the ``xi_{u_s}``, adds nothing.
    """
    xi = a.coords[: spec.m]
    offending = [int(u) + 1 for u in np.flatnonzero(_on_locus(xi, a.norm()))]
    if offending:
        raise SingularElementError(
            f"element not invertible (vanishing idempotent components {offending})",
            xi=xi,
            offending=offending,
        )
    x = np.linalg.solve(left_mul_matrix(a, spec), spec.unit_coords())
    return Element(x)


# -- validation --------------------------------------------------------------


@dataclass
class ValidationReport:
    """Outcome of the structural axiom checks for one algebra."""

    rule1_ok: bool
    rule2_support_ok: bool
    rule3_ok: bool
    assoc_A1_max_residual: float
    assoc_A2_max_residual: float
    nilpotency_index: int
    unit_ok: bool
    tolerance: float = 1e-12
    dim_bound: int = 0  # n - m + 1, the triangular-support ceiling
    warnings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.rule1_ok
            and self.rule2_support_ok
            and self.rule3_ok
            and self.unit_ok
            and self.assoc_A1_max_residual <= self.tolerance
            and self.assoc_A2_max_residual <= self.tolerance
            and 1 <= self.nilpotency_index <= self.dim_bound
        )


def validate_algebra(spec: AlgebraSpec, tolerance: float = 1e-12) -> ValidationReport:
    """Check multiplication rules, associativity, the unit, and nilpotency.

    Violations make the report fail; only malformed input (already rejected
    at construction) raises.
    """
    n, m = spec.n, spec.m
    basis = np.eye(n, dtype=np.complex128)
    idem, nil = basis[:m], basis[m:]

    # rules 1 and 3 and the unit: products of basis elements, compared exactly
    rule1 = np.zeros((m, m, n))
    rule1[range(m), range(m), range(m)] = 1.0
    rule1_ok = np.array_equal(_multiply_coords(idem[:, None], idem, spec), rule1)

    rule2_support_ok = all(
        target >= max(left, right) + 1 for (left, right, target) in spec.products
    )

    rule3 = np.zeros((m, n - m, n))
    for s in range(m + 1, n + 1):
        rule3[spec.u_map[s] - 1, s - m - 1, s - 1] = 1.0
    rule3_ok = np.array_equal(_multiply_coords(idem[:, None], nil, spec), rule3)

    unit_prod = _multiply_coords(spec.unit_coords(), basis, spec)
    unit_ok = bool(np.max(np.abs(unit_prod - basis)) <= tolerance)

    # (I_r I_s) I_p - I_r (I_s I_p) for nilpotent s, p: A1 for a nilpotent
    # r, A2 for an idempotent one; one left factor at a time bounds memory
    a1 = a2 = 0.0
    if m < n:
        sp = _multiply_coords(nil[:, None], nil, spec)
        for r in range(n):
            rs = _multiply_coords(basis[r], nil, spec)
            assoc = _multiply_coords(rs[:, None], nil, spec) - _multiply_coords(basis[r], sp, spec)
            worst = float(np.max(np.abs(assoc)))
            if r < m:
                a2 = max(a2, worst)
            else:
                a1 = max(a1, worst)

    nilpotency_index = _nilpotency_index(spec) if rule2_support_ok else 0

    report = ValidationReport(
        rule1_ok=rule1_ok,
        rule2_support_ok=rule2_support_ok,
        rule3_ok=rule3_ok,
        assoc_A1_max_residual=a1,
        assoc_A2_max_residual=a2,
        nilpotency_index=nilpotency_index,
        unit_ok=unit_ok,
        tolerance=tolerance,
    )
    report.dim_bound = n - m + 1
    if not rule2_support_ok:
        report.warnings.append("structure tensor has entries below the triangular support")
    return report


def _nilpotency_index(spec: AlgebraSpec) -> int:
    """Least q such that every product of q radical elements vanishes."""
    n, m = spec.n, spec.m
    if m == n:
        return 1
    nil_rows = np.eye(n, dtype=np.complex128)[m:]
    span = nil_rows  # span of products of q factors
    q = 1
    while span.shape[0] > 0:
        if q > n - m + 1:
            return 0  # not nilpotent within the triangular bound
        prods = _multiply_coords(nil_rows[:, None], span, spec).reshape(-1, n)
        span = _row_basis(prods)
        q += 1
    return q


def _row_basis(rows: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Orthonormal basis of the row span, dropping near-zero directions."""
    if rows.size == 0:
        return rows.reshape(0, rows.shape[-1])
    _, sv, vh = np.linalg.svd(rows, full_matrices=False)
    keep = sv > tol * max(1.0, sv[0] if sv.size else 1.0)
    return vh[keep]
