"""Resolvent and inverse of embedded points by one expansion over the radical.

Write ``zeta = S + N`` with ``S = sum_u xi_u I_u`` semisimple and ``N`` in the
nilpotent radical.  A product of more radical elements than the radical's
depth vanishes, so every function of ``zeta`` holomorphic at the spectral
values is a finite sum, with ``k`` up to the radical's depth (``<= n - m``)
(Higham, *Functions of Matrices*, SIAM 2008, ch. 1):

    f(zeta) = sum_k c_k N^k,    c_k = sum_u f^(k)(xi_u) / k! I_u.

:func:`_radical_series` evaluates that sum by Horner; the resolvent takes
``c_k = (t - xi)^{-k-1}``, the inverse ``c_k = (-1)^k xi^{-k-1}``.

The paper's T/B/Q recurrences are an independent oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraSpec, Element, _fixed_factor, _on_locus, _times_fixed
from .errors import PoleError, SingularElementError
from .frames import Frame, embed_many

__all__ = ["inverse", "resolvent"]


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
