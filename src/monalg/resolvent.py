"""Resolvent and inverse of embedded points by one expansion over the radical.

Write ``zeta = S + N`` with ``S = sum_u xi_u I_u`` semisimple and ``N`` in the
nilpotent radical.  A product of more radical elements than the radical's
depth vanishes, so every function of ``zeta`` holomorphic at the spectral
values is a finite sum, with ``k`` up to the radical's depth (``<= n - m``)
(Higham, *Functions of Matrices*, SIAM 2008, ch. 1):

    f(zeta) = sum_k c_k N^k,    c_k = sum_u f^(k)(xi_u) / k! I_u.

:func:`_radical_series` evaluates that sum by the Paterson-Stockmeyer
scheme (Paterson & Stockmeyer, SIAM J. Comput. 2, 1973; Higham, ch. 4.2):
Horner's rule in ``N^s``, ``s = isqrt(depth + 1)``, over blocks of ``s``
terms whose semisimple coefficients only scale ``N, ..., N^(s-1)``.  That
takes ``s - 1 + ceil((depth + 1) / s) - 1`` sparse products, about ``2
sqrt(depth)``, where Horner's rule in ``N`` takes ``depth``: 5 in place of
11 on a chain radical of depth 11, the same 2 at depth 2.  The resolvent
takes ``c_k = (t - xi)^{-k-1}``, the inverse ``c_k = (-1)^k xi^{-k-1}``.

The paper's T/B/Q recurrences are an independent oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import AlgebraSpec, Element, _fixed_factor, _on_locus, _times_fixed
from .errors import PoleError, SingularElementError
from .frames import Frame, embed_many

__all__ = ["inverse", "resolvent"]


# -- batch kernels -----------------------------------------------------------


def _radical_series(coeff, emb: np.ndarray, spec: AlgebraSpec, support=None) -> np.ndarray:
    """``sum_{k <= depth} c_k N^k`` by Paterson-Stockmeyer, ``N`` the radical part of ``emb``.

    ``coeff(k)`` returns the leading coordinates of ``c_k``, of shape
    ``(..., m)`` or ``(..., n)`` (the others are zero), where ``...`` is the
    shape of the result; it is called once per ``k``, from the radical's
    depth ``spec._depth`` down to 0, and each ``c_k`` joins the sum as it
    comes, so only one coefficient array need be alive at a time.  Higher
    terms vanish, since ``N^k = 0`` for ``k > depth``.  A semisimple algebra
    has depth 0: the sum is ``c_0``, which is returned as it comes, not
    copied.

    The sum is Horner's rule in ``N^s`` over blocks ``sum_{i < s} c_{js+i}
    N^i``, with ``N, ..., N^(s-1)`` kept: a semisimple ``c_k`` (``m``
    columns) times ``N^i`` only scales coordinates, by
    ``AlgebraSpec._selector``.  Coefficients with ``n`` columns are not
    semisimple, and take ``s = 1``: Horner's rule in ``N``.

    ``support`` is that of ``emb`` (``None``: every column), so ``N`` lives
    on its radical columns, and each power on the targets of the product
    that made it.  Each product takes only the triples of its factors'
    supports.  Horner's products take every left column, as the
    accumulator soon fills them, so that ``N^s`` is gathered once by
    :func:`monalg.algebra._fixed_factor` for all of them.
    """
    depth = spec._depth
    c = np.asarray(coeff(depth), dtype=np.complex128)
    if depth == 0:
        return c
    step = math.isqrt(depth + 1) if c.shape[-1] == spec.m else 1
    acc = np.zeros(np.broadcast_shapes(c.shape[:-1], emb.shape[:-1]) + (spec.n,),
                   dtype=np.complex128)
    nil = np.array(emb, dtype=np.complex128)
    nil[..., : spec.m] = 0.0
    radical = tuple(j for j in (range(spec.n) if support is None else support) if j >= spec.m)
    powers, supports = [nil], [radical]
    del nil
    for _ in range(1, step):
        triples = spec._triples(supports[-1], radical)
        powers.append(_times_fixed(powers[-1], _fixed_factor(powers[0], triples), spec, triples))
        supports.append(triples.targets)
    top = powers.pop()  # N^step; N, ..., N^(step-1) stay for the blocks
    triples = spec._triples(None, supports.pop())
    times = _fixed_factor(top, triples)
    del top
    for k in range(depth, -1, -1):
        if k < depth:
            c = coeff(k)
        if k % step:
            acc += c[..., spec._selector] * powers[k % step - 1]
        else:
            acc[..., : c.shape[-1]] += c
            if k:
                acc = _times_fixed(acc, times, spec, triples)
    return acc


def _inverse_coords(emb: np.ndarray, spec: AlgebraSpec, support=None) -> np.ndarray:
    """Inverse coordinates for embedded points; ``emb`` has shape (..., n)
    and the support ``support`` (``None``: every column).

    No invertibility guard here; callers check the spectrum first.
    """
    inv = 1.0 / emb[..., : spec.m]
    # numpy's complex ``**`` is several times slower than a complex product, so
    # the k = 0 coefficient, the only one of a semisimple algebra, skips it
    return _radical_series(lambda k: inv * (-inv) ** k if k else inv, emb, spec, support)


def _resolvent_coords(t, emb: np.ndarray, spec: AlgebraSpec, support=None) -> np.ndarray:
    """Resolvent coordinates; ``t`` broadcasts against ``emb[..., 0]``, and
    ``support`` is that of ``emb``."""
    t = np.asarray(t, dtype=np.complex128)
    r = 1.0 / (t[..., None] - emb[..., : spec.m])
    # k = 0 skips the complex ``**``, as in _inverse_coords
    return _radical_series(lambda k: r ** (k + 1) if k else r, emb, spec, support)


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
    return Element(_resolvent_coords(t, emb, spec, frame._support))


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
    return _inverse_coords(emb, spec, frame._support)
