"""Monogenic functions of the embedded variable and differentiability checks.

Three variants are built in: polynomials in the variable, resolvent kernels
``zeta -> (t e_1 - zeta)^{-1}``, and the principal extension that assembles a
function from per-component holomorphic scalars.  The paper defines the
principal extension by contour integrals against the resolvent; for every
admissible contour each residue is the same Taylor term, so it is evaluated,
with no contour as input, as the finite expansion over the radical of
:mod:`monalg.resolvent` with the scalars' Taylor coefficients at the
spectral values.  Finite-difference residuals of the characteristic
differential conditions probe monogenicity numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec, Element, zero_element
from .algebra import _multiply_coords, _on_locus
from .errors import PoleError
from .frames import Frame, embed_many
from .resolvent import _check_pole, _radical_series, _resolvent_coords

__all__ = [
    "HolomorphicScalarSpec",
    "MonogenicFunction",
    "Polynomial",
    "PrincipalExtension",
    "ResolventKernel",
    "constant",
    "cr_residual",
    "eval_function",
    "zeta",
    "zeta_power",
]


@dataclass(frozen=True)
class HolomorphicScalarSpec:
    """A scalar function of one complex variable, one of three kinds.

    ``polynomial``: coeffs c_0..c_d meaning sum c_p t^p.
    ``exponential``: coeffs (c, a) meaning c * exp(a t).
    ``rational``: coeffs is the numerator, ``denom`` the denominator
    polynomial; evaluable away from the denominator roots.
    """

    kind: str
    coeffs: tuple
    denom: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("polynomial", "exponential", "rational"):
            raise ValueError(f"unknown scalar kind {self.kind!r}")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        if self.kind == "exponential" and len(self.coeffs) != 2:
            raise ValueError("exponential scalars take exactly (c, a)")
        if self.kind == "rational":
            if not self.denom:
                raise ValueError("rational scalars need a denominator")
            object.__setattr__(self, "denom", tuple(complex(c) for c in self.denom))
        elif self.denom is not None:
            raise ValueError("denom is only meaningful for rational scalars")

    def __call__(self, t):
        return self._taylor(t, 0)[0]

    def _taylor(self, t, order: int) -> np.ndarray:
        """Taylor coefficients ``f^(k)(t) / k!`` for ``k = 0..order``.

        Stacked on a new leading axis, shape ``(order + 1,) + t.shape``.
        """
        t = np.asarray(t, dtype=np.complex128)
        if self.kind == "exponential":
            c, a = self.coeffs
            e = np.exp(a * t)
            return np.stack([c * a**k / math.factorial(k) * e for k in range(order + 1)])
        num = _poly_taylor(self.coeffs, t, order)
        if self.kind == "polynomial":
            return num
        den = _poly_taylor(self.denom, t, order)
        if np.any(_on_locus(den[0], np.abs(t))):
            raise PoleError("rational scalar evaluated at one of its poles")
        # series division: num = den * out, solved order by order
        out = np.empty_like(num)
        for k in range(order + 1):
            out[k] = (num[k] - sum(den[j] * out[k - j] for j in range(1, k + 1))) / den[0]
        return out


def _poly_taylor(coeffs, t, order: int) -> np.ndarray:
    """Taylor coefficients of ``sum_p coeffs[p] t^p``: the k-th is the
    polynomial ``sum_p comb(p, k) coeffs[p] t^(p-k)``, evaluated by Horner."""
    out = np.zeros((order + 1,) + t.shape, dtype=np.complex128)
    for k in range(order + 1):
        for p in range(len(coeffs) - 1, k - 1, -1):
            out[k] = out[k] * t + math.comb(p, k) * coeffs[p]
    return out


@dataclass(frozen=True)
class Polynomial:
    """The function ``sum_p coeffs[p] * zeta^p`` with element coefficients."""

    coeffs: tuple  # of Element

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        n = self.coeffs[0].n
        size = max(len(self.coeffs), len(other.coeffs))
        out = []
        for p in range(size):
            a = self.coeffs[p] if p < len(self.coeffs) else zero_element(n)
            b = other.coeffs[p] if p < len(other.coeffs) else zero_element(n)
            out.append(a + b)
        return Polynomial(tuple(out))

    def scale(self, factor: complex) -> "Polynomial":
        return Polynomial(tuple(factor * c for c in self.coeffs))


@dataclass(frozen=True)
class ResolventKernel:
    """The function ``zeta -> (t e_1 - zeta)^{-1}`` for a fixed scalar t."""

    t: complex

    def __post_init__(self):
        object.__setattr__(self, "t", complex(self.t))


@dataclass(frozen=True)
class PrincipalExtension:
    """Assembles a function from holomorphic scalars F_u (idempotent parts)
    and G_s (nilpotent parts): ``sum_u F_u(zeta) I_u + sum_s G_s(zeta) I_s``.

    The paper writes each term as a contour integral against the resolvent.
    No contour is taken: for every admissible contour (winding once around
    the u-th spectral value, excluding the others and the scalars' poles)
    each residue is exactly a Taylor term of the scalar at the spectral
    value, so the value is the same whichever contour is chosen.  A rational
    scalar with a pole at a spectral value raises :class:`PoleError`.
    """

    F: tuple  # length m of HolomorphicScalarSpec or None
    G: tuple = ()  # length n - m of HolomorphicScalarSpec or None

    def __post_init__(self):
        object.__setattr__(self, "F", tuple(self.F))
        object.__setattr__(self, "G", tuple(self.G))


MonogenicFunction = Polynomial | ResolventKernel | PrincipalExtension


def constant(value: Element) -> Polynomial:
    return Polynomial((value,))


def zeta(spec: AlgebraSpec) -> Polynomial:
    """The identity function of the embedded variable."""
    return Polynomial((zero_element(spec.n), spec.unit()))


def zeta_power(p: int, spec: AlgebraSpec) -> Polynomial:
    """The monomial ``zeta^p`` (p >= 0)."""
    if p < 0:
        raise ValueError("power must be nonnegative")
    coeffs = [zero_element(spec.n) for _ in range(p)] + [spec.unit()]
    return Polynomial(tuple(coeffs))


# -- evaluation ---------------------------------------------------------------


def eval_function(phi, frame: Frame, x, spec: AlgebraSpec) -> Element:
    """Evaluate ``phi`` at the point ``x``: any function :func:`eval_batch` takes."""
    x = np.asarray(x, dtype=np.float64)
    out = eval_batch(phi, frame, x.reshape(1, -1), spec)
    return Element(out[0])


def eval_batch(phi, frame: Frame, xs, spec: AlgebraSpec) -> np.ndarray:
    """Coordinates of ``phi`` at many points; ``xs`` has shape (N, k).

    The one entry for every integrand: ``phi`` is an object with an
    ``eval_many(frame, xs, spec)`` method, a built-in variant or any
    callable ``x -> Element`` (evaluated pointwise).
    """
    xs = np.asarray(xs, dtype=np.float64)
    if hasattr(phi, "eval_many"):
        return phi.eval_many(frame, xs, spec)
    emb = embed_many(frame, xs)
    if isinstance(phi, Polynomial):
        return _eval_polynomial(phi, emb, spec)
    if isinstance(phi, ResolventKernel):
        _check_pole(phi.t, emb[..., : spec.m])
        return _resolvent_coords(phi.t, emb, spec)
    if isinstance(phi, PrincipalExtension):
        return _eval_principal(phi, emb, spec)
    if callable(phi):
        rows = []
        for x in xs:
            out = phi(x)
            rows.append(out.coords if isinstance(out, Element) else np.asarray(out))
        return np.stack(rows).astype(np.complex128)
    raise TypeError(f"not an evaluable function: {type(phi).__name__}")


def _eval_polynomial(phi: Polynomial, emb: np.ndarray, spec: AlgebraSpec) -> np.ndarray:
    """Horner's rule in ``emb``, skipping the steps that change no bit.

    A unit leading coefficient starts at ``emb`` with no product, and zero
    coefficients are not added; either step could change only the sign of
    an exact zero.
    """
    lead, *rest = reversed(phi.coeffs)
    acc = None  # stands for the unit until the first product
    if not (rest and np.array_equal(lead.coords, spec._unit)):
        acc = np.broadcast_to(lead.coords, emb.shape).copy()
    for coeff in rest:
        acc = emb if acc is None else _multiply_coords(acc, emb, spec)
        if np.any(coeff.coords):
            acc = acc + coeff.coords
    return acc


def _eval_principal(phi: PrincipalExtension, emb: np.ndarray, spec: AlgebraSpec) -> np.ndarray:
    n, m = spec.n, spec.m
    if len(phi.F) != m:
        raise ValueError(f"expected {m} idempotent scalars, got {len(phi.F)}")
    if phi.G and len(phi.G) != n - m:
        raise ValueError(f"expected {n - m} nilpotent scalars, got {len(phi.G)}")
    xi = emb[..., :m]
    # (scalar, its basis column, the column of the spectral value it sees)
    parts = [(f, u, u) for u, f in enumerate(phi.F)]
    parts += [(g, s, spec.u_map[s + 1] - 1) for s, g in enumerate(phi.G, start=m)]
    parts = [part for part in parts if part[0] is not None]
    order = spec._depth
    # with no G_s the coefficients are semisimple: m columns, which the
    # radical series scales instead of multiplying
    width = n if any(g is not None for g in phi.G) else m
    coeffs = np.zeros((order + 1,) + emb.shape[:-1] + (width,), dtype=np.complex128)
    for scalar, col, u in parts:
        coeffs[..., col] = scalar._taylor(xi[..., u], order)
    return _radical_series(coeffs.__getitem__, emb, spec)


# -- differentiability probes -------------------------------------------------


def cr_residual(phi: MonogenicFunction, frame: Frame, x, h: float, spec: AlgebraSpec):
    """Central-difference residuals of the differential conditions.

    Returns the k-1 norms ``|| D_j phi - (D_1 phi) e_j ||`` for j = 2..k,
    where D_j is the second-order central difference in the j-th coordinate.
    For monogenic functions these decay like h^2 (or sit at roundoff when
    the difference is exact).
    """
    if h <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=np.float64)
    k = frame.k
    stencil = np.concatenate([x + h * np.eye(k), x - h * np.eye(k)], axis=0)
    vals = eval_batch(phi, frame, stencil, spec)
    derivs = (vals[:k] - vals[k:]) / (2.0 * h)  # row j-1 is D_j
    residuals = []
    for j in range(2, k + 1):
        model = _multiply_coords(derivs[0], frame.a[j - 1], spec)
        residuals.append(float(np.linalg.norm(derivs[j - 1] - model)))
    return residuals
