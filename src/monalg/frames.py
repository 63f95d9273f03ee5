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
    "WidestPlane",
    "embed",
    "kernel_lines",
    "spectral",
    "validate_frame",
    "widest_plane",
]


class Frame:
    """Decomposition coefficients of e_1, ..., e_k, shape (k, n).

    ``a[j-1, r-1]`` is the coefficient of ``I_r`` in ``e_j``.  The first row
    must equal the unit decomposition (1 on the idempotent coordinates).

    ``_support`` holds the columns where some ``e_j`` is non-zero, the only
    ones where an embedded point can be (``None`` when that is all ``n``),
    for the sparse products of :mod:`monalg.algebra`.  ``a`` is a read-only
    copy, so the support cannot go stale.
    """

    __slots__ = ("k", "a", "_support")

    def __init__(self, a):
        a = np.array(a, dtype=np.complex128)
        if a.ndim != 2:
            raise FrameError(f"frame matrix must be 2-D, got shape {a.shape}")
        a.flags.writeable = False
        self.k = a.shape[0]
        self.a = a
        support = tuple(np.flatnonzero(np.any(a != 0, axis=0)).tolist())
        self._support = None if len(support) == a.shape[1] else support

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


# -- the plane of widest margin -------------------------------------------------


@dataclass(frozen=True)
class WidestPlane:
    """The plane of widest margin of a ``k = 3`` frame: its unit ``normal``,
    its ``margin`` ``min_u normal . d_u / |d_u|`` over the kernel lines
    ``d_u`` (:func:`kernel_lines`), and its orthonormal rows ``plane = (p,
    q)``, ``p x q = normal``.  A circle in a parallel plane winds +1 in every
    spectral image about each point it encloses."""

    normal: np.ndarray
    margin: float
    plane: np.ndarray


def kernel_lines(frame: Frame, spec: AlgebraSpec) -> np.ndarray:
    """The direction ``d_u = Re a_u x Im a_u`` of the kernel of each spectral
    map ``xi_u`` of a ``k = 3`` frame, shape ``(m, 3)``; ``a_u`` is column
    ``u`` of ``Frame.a``.

    A planar circle of unit normal ``nu`` winds ``sign(nu . d_u)`` times in
    image ``u``, and its image flattens as ``nu . d_u / |d_u|`` falls to 0.
    """
    if frame.k != 3:
        raise ValueError(f"kernel lines are lines only at k = 3, got k={frame.k}")
    a = frame.a[:, : spec.m]
    return np.cross(a.real.T, a.imag.T)


def _dots(points: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``points @ x`` for rows in R^3, coordinate by coordinate: no BLAS
    kernel is paged in for it."""
    return points[:, 0] * x[0] + points[:, 1] * x[1] + points[:, 2] * x[2]


def _affine_weights(corral: np.ndarray) -> np.ndarray:
    """Weights, summing to 1, of the point of least norm in the affine hull
    of the rows of ``corral``: one to four affinely independent points of
    R^3.  Closed forms: the ends' dot products on a segment, the signed
    areas about the origin's projection in a plane, and the signed volumes
    about the origin in a tetrahedron."""
    if len(corral) == 1:
        return np.ones(1)
    if len(corral) == 2:
        p, q = corral
        weights = np.array([q @ (q - p), p @ (p - q)])
    elif len(corral) == 3:
        a, b, c = corral
        normal = np.cross(b - a, c - a)
        weights = _dots(np.cross([b, c, a], [c, a, b]), normal)
    else:
        a, b, c, d = corral
        weights = np.array([b @ np.cross(c, d), -(a @ np.cross(c, d)),
                            d @ np.cross(a, b), -(c @ np.cross(a, b))])
    return weights / weights.sum()


def _nearest_point(points: np.ndarray) -> np.ndarray:
    """The point of least norm in the convex hull of ``points``, rows in
    R^3, by Wolfe's algorithm (P. Wolfe, "Finding the nearest point in a
    polytope", Math. Programming 11, 1976); the origin when the hull holds it.

    A corral of affinely independent points holds ``x`` with positive
    weights.  Each step adds the point least along ``x``, moves ``x`` to the
    nearest point of the corral's affine hull, and, while that point is not
    inside the corral, stops where the segment leaves it and drops the
    point whose weight fell to 0.  The norm of ``x`` falls at every step; the
    search stops when no point lies below ``x``'s plane by more than
    roundoff, or when a step fails to shorten ``x``.
    """
    corral, weights = [0], np.ones(1)
    x = points[0]
    while True:
        dots = _dots(points, x)
        j = int(np.argmin(dots))
        if x @ x - dots[j] <= 1e-12 or j in corral:
            return x
        corral, weights = corral + [j], np.append(weights, 0.0)
        while True:
            target = _affine_weights(points[corral])
            if np.all(target > 0):
                weights = target
                break
            # the last point of the segment from weights to target in the corral
            falling = np.flatnonzero(target <= 0)
            ratios = weights[falling] / (weights[falling] - target[falling])
            step = np.min(ratios)
            weights = step * target + (1 - step) * weights
            weights[falling[np.argmin(ratios)]] = 0.0
            kept = np.flatnonzero(weights > 0)
            corral, weights = [corral[i] for i in kept], weights[kept]
        if len(corral) == 4:  # a tetrahedron about the origin
            return np.zeros(3)
        nearer = (weights[:, None] * points[corral]).sum(axis=0)
        if nearer @ nearer >= x @ x:
            return x
        x = nearer


def widest_plane(frame: Frame, spec: AlgebraSpec) -> WidestPlane | None:
    """The plane of widest margin of a ``k = 3`` frame, or ``None`` when no
    plane has a positive margin (the hull of the unit lines ``d_u / |d_u|``
    holds 0, as when ``d_u = -d_v``).

    The widest normal is the point of least norm in that hull
    (:func:`_nearest_point`), normalised: at that point ``x`` every unit
    line has ``x . d_u >= |x|^2``, with equality on the lines that hold it.
    The margin is the normal's least dot product with the unit lines, so it
    is the plane's own margin however the search ended.  A margin that
    counts as zero by the locus rule (``algebra._on_locus``) is not
    positive.  ``p`` is ``e_1`` (``e_2`` when the normal is nearer ``e_1``)
    projected into the plane, so the normal ``e_3`` gives coordinate plane
    (1,2).
    """
    lines = kernel_lines(frame, spec)
    lines /= np.linalg.norm(lines, axis=1)[:, None]
    nearest = _nearest_point(lines)
    size = np.sqrt(nearest @ nearest)
    if size == 0:
        return None
    normal = nearest / size
    margin = float(np.min(_dots(lines, normal)))
    if margin <= 0 or _on_locus(margin, 1.0):
        return None
    axis = np.eye(3)[0 if normal[0] ** 2 <= 0.5 else 1]
    p = axis - (axis @ normal) * normal
    p /= np.linalg.norm(p)
    return WidestPlane(normal, margin, np.array([p, np.cross(normal, p)]))
