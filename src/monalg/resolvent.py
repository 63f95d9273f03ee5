"""Resolvent and inverse of embedded points by one expansion over the radical.

Write ``zeta = S + N`` with ``S = sum_u xi_u I_u`` semisimple and ``N`` in the
nilpotent radical.  A product of more radical elements than the radical's
depth vanishes, so every function of ``zeta`` holomorphic at the spectral
values is a finite sum, with ``k`` up to the radical's depth (``<= n - m``)
(Higham, *Functions of Matrices*, SIAM 2008, ch. 1):

    f(zeta) = sum_k c_k N^k,    c_k = sum_u f^(k)(xi_u) / k! I_u.

:func:`_radical_series` evaluates that sum by Horner; the resolvent takes
``c_k = (t - xi)^{-k-1}``, the inverse ``c_k = (-1)^k xi^{-k-1}``.

The paper's closed form is kept as an independent oracle for tests, behind
:func:`recurrence_coefficients`.  There the resolvent ``(t e_1 - zeta)^{-1}``
reads

    sum_u (t - xi_u)^{-1} I_u
        + sum_{s > m} sum_{r=2}^{s-m+1} Q_{r,s} (t - xi_{u_s})^{-r} I_s

with coefficients built from the nilpotent components ``T_s`` of ``zeta``
through the recurrences

    Q_{2,s} = T_s,      Q_{r,s} = sum_{q=r+m-2}^{s-1} Q_{r-1,q} B_{q,s},
    B_{q,s} = sum_{p=m+1}^{s-1} T_p * (I_s-coefficient of I_q I_p).

The inverse uses the mirrored coefficients ``Qt_{r,s} = (-1)^(r-1) Q_{r,s}``
evaluated at ``t = 0``:  ``zeta^{-1} = sum_u xi_u^{-1} I_u + sum_s A_s I_s``
with ``A_s = sum_r Qt_{r,s} xi_{u_s}^{-r}``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec, Element, _fixed_factor, _on_locus, _times_fixed
from .errors import PoleError, SingularElementError
from .frames import Frame, embed_many

__all__ = [
    "ResolventCoefficients",
    "inverse",
    "recurrence_coefficients",
    "resolvent",
]


@dataclass(frozen=True)
class ResolventCoefficients:
    """The maps T_s, B_{q,s}, Q_{r,s} and the sign-mirrored Qt_{r,s}.

    Keys are 1-based basis indices: ``T[s]``, ``B[(q, s)]``, ``Q[(r, s)]``
    with r the pole order.  Empty for a semisimple algebra.
    """

    T: dict
    B: dict
    Q: dict
    Qt: dict


# -- the paper's recurrences (oracle) -----------------------------------------


def _b_support(spec: AlgebraSpec) -> dict:
    """For each (q, s): list of (p, coeff) with coeff the I_s part of I_q I_p."""
    support: dict[tuple[int, int], list[tuple[int, complex]]] = {}
    for (left, right, target), value in spec.products.items():
        for q, p in ((left, right), (right, left)) if left != right else ((left, right),):
            support.setdefault((q, target), []).append((p, value))
    return support


def _b_value(support: dict, q: int, s: int, t_map: dict) -> complex:
    """B_{q,s} from the nilpotent components ``t_map``."""
    acc = 0.0 + 0.0j
    for p, coeff in support.get((q, s), ()):
        if p <= s - 1:
            acc = acc + t_map[p] * coeff
    return acc


def _q_tables(spec: AlgebraSpec, support: dict, t_map: dict, sign: float):
    """Recurrence tables Q (sign=+1) or Qt (sign=-1) as {(r, s): value}."""
    n, m = spec.n, spec.m
    b: dict = {}
    q_map: dict = {}
    for s in range(m + 1, n + 1):
        q_map[(2, s)] = sign * t_map[s]
        for r in range(3, s - m + 2):
            acc = 0.0 + 0.0j
            for q in range(r + m - 2, s):
                key = (q, s)
                if key not in b:
                    b[key] = _b_value(support, q, s, t_map)
                acc = acc + q_map[(r - 1, q)] * b[key]
            q_map[(r, s)] = sign * acc
    return q_map, b


def recurrence_coefficients(frame: Frame, x, spec: AlgebraSpec) -> ResolventCoefficients:
    """Evaluate T, B, Q, Qt at one point ``x`` by the paper's recurrences."""
    x = np.asarray(x, dtype=np.float64)
    coords = x @ frame.a
    n, m = spec.n, spec.m
    support = _b_support(spec)
    t_map = {s: complex(coords[s - 1]) for s in range(m + 1, n + 1)}
    q_map, b_partial = _q_tables(spec, support, t_map, +1.0)
    qt_map, _ = _q_tables(spec, support, t_map, -1.0)
    # complete B over the full documented index range
    b_map = {}
    for s in range(m + 1, n + 1):
        for q in range(m + 1, s):
            b_map[(q, s)] = complex(b_partial.get((q, s), _b_value(support, q, s, t_map)))
    return ResolventCoefficients(
        T=t_map,
        B=b_map,
        Q={k: complex(v) for k, v in q_map.items()},
        Qt={k: complex(v) for k, v in qt_map.items()},
    )


# -- batch kernels -----------------------------------------------------------


def _radical_series(coeff, emb: np.ndarray, spec: AlgebraSpec) -> np.ndarray:
    """``sum_{k <= depth} c_k N^k`` by Horner, ``N`` the radical part of ``emb``.

    ``coeff(k)`` returns the leading coordinates of ``c_k``, of shape
    ``(..., m)`` or ``(..., n)`` (the others are zero), where ``...`` is the
    shape of the result; it is called once per ``k``, from the radical's
    depth ``spec._depth`` down to 0, so only one coefficient array need be
    alive at a time.  Higher terms vanish, since ``N^k = 0`` for ``k >
    depth``.  A semisimple algebra has depth 0: the sum is ``c_0``, which is
    returned as it comes, not copied.

    Each step is a product by the fixed factor ``N``, gathered once by
    :func:`monalg.algebra._fixed_factor`.
    """
    depth = spec._depth
    if depth == 0:
        return np.asarray(coeff(0), dtype=np.complex128)
    c = coeff(depth)
    acc = np.zeros(np.broadcast_shapes(c.shape[:-1], emb.shape[:-1]) + (spec.n,),
                   dtype=np.complex128)
    acc[..., : c.shape[-1]] = c
    nil = np.array(emb, dtype=np.complex128)
    nil[..., : spec.m] = 0.0
    times = _fixed_factor(nil, spec)
    del nil
    for k in range(depth - 1, -1, -1):
        # the step's gathered terms die inside the call, so at most two
        # arrays of the gathered size, times and terms, are alive at once
        acc = _times_fixed(acc, times, spec)
        c = coeff(k)
        acc[..., : c.shape[-1]] += c
    return acc


def _inverse_coords(emb: np.ndarray, spec: AlgebraSpec) -> np.ndarray:
    """Inverse coordinates for embedded points; ``emb`` has shape (..., n).

    No invertibility guard here; callers check the spectrum first.
    """
    inv = 1.0 / emb[..., : spec.m]
    # numpy's complex ``**`` is several times slower than a complex product, so
    # the k = 0 coefficient, the only one of a semisimple algebra, skips it
    return _radical_series(lambda k: inv * (-inv) ** k if k else inv, emb, spec)


def _resolvent_coords(t, emb: np.ndarray, spec: AlgebraSpec) -> np.ndarray:
    """Resolvent coordinates; ``t`` broadcasts against ``emb[..., 0]``."""
    t = np.asarray(t, dtype=np.complex128)
    r = 1.0 / (t[..., None] - emb[..., : spec.m])
    # k = 0 skips the complex ``**``, as in _inverse_coords
    return _radical_series(lambda k: r ** (k + 1) if k else r, emb, spec)


def _check_pole(t: complex, xi: np.ndarray) -> None:
    """Raise :class:`PoleError` when ``t`` meets a spectral value in ``xi``.

    ``xi`` has shape (..., m); they meet where ``t - xi_u`` is on the locus at ``|t|``.
    """
    hits = np.argwhere(_on_locus(t - xi, abs(t)))
    if hits.size:
        u = int(hits[0][-1]) + 1
        raise PoleError(
            f"t={t} collides with spectral value xi_{u}={complex(xi[tuple(hits[0])])}",
            u=u,
            t=t,
        )


# -- public operations -------------------------------------------------------


def resolvent(t: complex, frame: Frame, x, spec: AlgebraSpec) -> Element:
    """The element ``(t e_1 - zeta)^{-1}`` for ``zeta = embed(frame, x)``.

    Raises :class:`PoleError` when ``t`` collides with a spectral value,
    by the rule of :func:`_check_pole`.
    """
    x = np.asarray(x, dtype=np.float64)
    emb = x @ frame.a
    t = complex(t)
    _check_pole(t, emb[: spec.m])
    return Element(_resolvent_coords(t, emb, spec))


def inverse(frame: Frame, x, spec: AlgebraSpec) -> Element:
    """Inverse of the embedded point ``zeta = embed(frame, x)``.

    Raises :class:`SingularElementError` when some ``xi_u`` vanishes.
    """
    return Element(inverse_many(frame, x, spec))


def inverse_many(frame: Frame, xs, spec: AlgebraSpec) -> np.ndarray:
    """Batch inverse coordinates for points ``xs`` of shape (..., k).

    Raises :class:`SingularElementError` when some ``xi_u`` of a point is on
    the locus at ``|x|`` (:func:`monalg.algebra._on_locus`).
    """
    xs = np.asarray(xs, dtype=np.float64)
    emb = embed_many(frame, xs)
    xi = emb[..., : spec.m]
    bad = _on_locus(xi, np.linalg.norm(xs, axis=-1, keepdims=True))
    if np.any(bad):
        entry = tuple(int(i) for i in np.argwhere(np.any(bad, axis=-1))[0])
        offending = [int(u) + 1 for u in np.flatnonzero(bad[entry])]
        where = f" {entry}" if entry else ""
        raise SingularElementError(
            f"embedded point{where} is not invertible (xi vanishes at u={offending})",
            xi=xi[entry],
            offending=offending,
        )
    return _inverse_coords(emb, spec)
