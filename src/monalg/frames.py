"""Real frames e_1 = 1, e_2, ..., e_k inside an algebra.

A frame fixes the k-dimensional real subspace in which all curves and
function arguments live.  Row j of the coefficient matrix holds the
coordinates of e_j with respect to the basis ``{I_r}``; row 1 is pinned to
the unit.  Points ``x`` in R^k embed as ``zeta = sum_j x_j e_j``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec, Element, _on_locus
from .errors import FrameError

__all__ = [
    "Frame",
    "SpectralData",
    "embed",
    "spectral",
    "validate_frame",
]


class Frame:
    """Decomposition coefficients of e_1, ..., e_k, shape (k, n).

    ``a[j-1, r-1]`` is the coefficient of ``I_r`` in ``e_j``.  The first row
    must equal the unit decomposition (1 on the idempotent coordinates).

    ``_support`` holds the columns where some ``e_j`` is non-zero, the only
    ones where an embedded point can be (``None`` when that is all ``n``),
    for the sparse products of :mod:`monalg.algebra`.  ``a`` is a read-only
    copy, so the support cannot go stale.  ``_subs`` memoizes :meth:`_sub`.
    """

    __slots__ = ("k", "a", "_support", "_subs")

    def __init__(self, a):
        a = np.array(a, dtype=np.complex128)
        if a.ndim != 2:
            raise FrameError(f"frame matrix must be 2-D, got shape {a.shape}")
        a.flags.writeable = False
        self.k = a.shape[0]
        self.a = a
        support = tuple(np.flatnonzero(np.any(a != 0, axis=0)).tolist())
        self._support = None if len(support) == a.shape[1] else support
        self._subs = {}

    def _sub(self, cols: tuple) -> "Frame":
        """The frame in the algebra ``AlgebraSpec._sub(cols)``: ``a`` cut to
        the columns ``cols``, a sorted union of blocks.  Made once per set."""
        if cols not in self._subs:
            self._subs[cols] = Frame(self.a[:, list(cols)])
        return self._subs[cols]

    @property
    def n(self) -> int:
        return self.a.shape[1]

    @classmethod
    def from_rows(cls, spec: AlgebraSpec, *rows) -> "Frame":
        """Build a frame from the unit row plus the given e_2.. rows."""
        a = np.zeros((1 + len(rows), spec.n), dtype=np.complex128)
        a[0] = spec.unit_coords()
        for i, row in enumerate(rows):
            r = np.asarray(row, dtype=np.complex128)
            if r.shape != (spec.n,):
                raise FrameError(f"frame row {i + 2} has shape {r.shape}, expected ({spec.n},)")
            a[i + 1] = r
        return cls(a)

    def __repr__(self):
        return f"Frame(k={self.k}, n={self.n})"


def validate_frame(frame: Frame, spec: AlgebraSpec) -> None:
    """Raise :class:`FrameError` unless the frame is admissible for ``spec``.

    Checks the shape bounds 2 <= k <= 2n, the pinned unit row, real-linear
    independence of the e_j, and that every functional maps the span onto
    the whole complex plane (some coefficient in each idempotent column has
    a nonzero imaginary part).
    """
    n, m = spec.n, spec.m
    if frame.n != n:
        raise FrameError(f"frame is over an {frame.n}-dimensional algebra, spec has n={n}")
    if not 2 <= frame.k <= 2 * n:
        raise FrameError(f"need 2 <= k <= 2n, got k={frame.k}, n={n}")
    if not np.array_equal(frame.a[0], spec.unit_coords()):
        raise FrameError("frame row 1 must be the unit decomposition")
    if not np.all(np.isfinite(frame.a.view(np.float64))):
        raise FrameError("frame coefficients must be finite")

    real_mat = np.concatenate([frame.a.real, frame.a.imag], axis=1)  # (k, 2n)
    rank = np.linalg.matrix_rank(real_mat, tol=1e-10)
    if rank < frame.k:
        raise FrameError("frame vectors are linearly dependent over the reals")

    for u in range(m):
        if not np.any(np.abs(frame.a[1:, u].imag) > 0):
            raise FrameError(
                f"functional {u + 1} maps the span into a real line; some "
                f"coefficient a_j,{u + 1} (j >= 2) needs a nonzero imaginary part"
            )


def embed(frame: Frame, x, spec: AlgebraSpec) -> Element:
    """The point ``sum_j x_j e_j`` as an element.  Linear in ``x``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (frame.k,):
        raise ValueError(f"expected x of shape ({frame.k},), got {x.shape}")
    return Element(x @ frame.a)


def embed_many(frame: Frame, xs) -> np.ndarray:
    """Coordinates of many embedded points; ``xs`` has shape (..., k)."""
    xs = np.asarray(xs, dtype=np.float64)
    return xs @ frame.a


@dataclass(frozen=True)
class SpectralData:
    """Idempotent components of an embedded point and invertibility."""

    xi: tuple
    invertible: bool
    min_abs_xi: float


def spectral(frame: Frame, x, spec: AlgebraSpec) -> SpectralData:
    """Values ``xi_u = x_1 + sum_{j>=2} x_j a_ju`` and the invertibility flag.

    Not invertible when some ``xi_u`` is on the locus at ``|x|`` (``algebra._on_locus``).
    """
    x = np.asarray(x, dtype=np.float64)
    coords = x @ frame.a
    xi = coords[: spec.m]
    return SpectralData(
        xi=tuple(complex(v) for v in xi),
        invertible=not np.any(_on_locus(xi, np.linalg.norm(x))),
        min_abs_xi=float(np.min(np.abs(xi))),
    )
