"""Curves in the real k-dimensional parameter space.

Two kinds cover the verification needs: planar circles (periodic, smooth,
always closed) and polylines (open or closed).  A triangle is a closed
three-vertex polyline with a quality measure.  All curves share ``k``,
``closed``, ``orientation``, ``length``, ``reversed`` and ``sample``, which
takes a circle's point count or a polyline's points per segment.  Curves
hold geometry only; the node cap belongs to the integral along them.
Reversal flips an orientation flag instead of reshuffling vertices, so a
reversed integral reuses the same quadrature nodes and negates term by term.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .quadrature import _is_count

__all__ = [
    "Circle2D",
    "Polyline",
    "Triangle",
    "TriangleSampler",
    "coordinate_plane",
    "triangle_quality",
]


def coordinate_plane(k: int, i: int, j: int) -> np.ndarray:
    """Orthonormal plane spanned by coordinate axes ``i`` and ``j`` (1-based)."""
    plane = np.zeros((2, k))
    plane[0, i - 1] = 1.0
    plane[1, j - 1] = 1.0
    return plane


@dataclass(frozen=True)
class Circle2D:
    """Circle of given radius around ``center`` inside a 2-plane of R^k."""

    closed = True  # a class attribute, not a field

    center: np.ndarray
    radius: float
    plane: np.ndarray  # (2, k), orthonormal rows
    orientation: int = 1

    def __post_init__(self):
        center = np.asarray(self.center, dtype=np.float64)
        plane = np.asarray(self.plane, dtype=np.float64)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "plane", plane)
        if self.radius <= 0:
            raise ValueError("circle radius must be positive")
        if plane.shape != (2, center.shape[0]):
            raise ValueError(f"plane must have shape (2, {center.shape[0]})")
        gram = plane @ plane.T
        if not np.allclose(gram, np.eye(2), atol=1e-10):
            raise ValueError("plane vectors must be orthonormal")
        if self.orientation not in (-1, 1):
            raise ValueError("orientation must be +1 or -1")

    @property
    def k(self) -> int:
        return self.center.shape[0]

    def points(self, tau, origin=0.0) -> np.ndarray:
        """Canonical (counterclockwise-in-plane) points relative to ``origin``,
        shape (len(tau), k): exact offsets ``(center - origin) + r (cos tau p + sin tau q)``."""
        tau = np.asarray(tau, dtype=np.float64)
        return self._points(np.cos(tau), np.sin(tau), origin)

    def tangents(self, tau) -> np.ndarray:
        """Canonical velocity d(points)/d(tau); orientation applied by callers."""
        tau = np.asarray(tau, dtype=np.float64)
        return self._tangents(np.cos(tau), np.sin(tau))

    def _points(self, cos, sin, origin=0.0) -> np.ndarray:
        """:meth:`points` at the nodes of cosines ``cos`` and sines ``sin``."""
        out = cos[:, None] * self.plane[0]
        out += sin[:, None] * self.plane[1]
        out *= self.radius
        out += self.center - origin
        return out

    def _tangents(self, cos, sin) -> np.ndarray:
        """:meth:`tangents` at the nodes of cosines ``cos`` and sines ``sin``."""
        vel = -sin[:, None] * self.plane[0] + cos[:, None] * self.plane[1]
        return self.radius * vel

    def length(self) -> float:
        return 2.0 * np.pi * self.radius

    def reversed(self) -> "Circle2D":
        return replace(self, orientation=-self.orientation)

    def sample(self, count: int = 256) -> np.ndarray:
        return self.points(np.arange(count) * (2.0 * np.pi / count))


@dataclass(frozen=True)
class Polyline:
    """Straight segments through ``vertices``; closed polylines repeat nothing."""

    vertices: np.ndarray  # (V, k)
    closed: bool = False
    orientation: int = 1

    def __post_init__(self):
        vertices = np.asarray(self.vertices, dtype=np.float64)
        object.__setattr__(self, "vertices", vertices)
        if vertices.ndim != 2 or vertices.shape[0] < 2:
            raise ValueError("polyline needs at least two vertices")
        if self.orientation not in (-1, 1):
            raise ValueError("orientation must be +1 or -1")

    @property
    def k(self) -> int:
        return self.vertices.shape[1]

    def segments(self):
        """Canonical (A, B) pairs; the closing edge included when closed."""
        verts = self.vertices
        pairs = [(verts[i], verts[i + 1]) for i in range(len(verts) - 1)]
        if self.closed:
            pairs.append((verts[-1], verts[0]))
        return pairs

    def length(self) -> float:
        return float(sum(np.linalg.norm(b - a) for a, b in self.segments()))

    def reversed(self) -> "Polyline":
        return replace(self, orientation=-self.orientation)

    def sample(self, per_segment: int = 64) -> np.ndarray:
        taus = np.linspace(0.0, 1.0, per_segment, endpoint=False)
        chunks = [a + taus[:, None] * (b - a) for a, b in self.segments()]
        return np.concatenate(chunks, axis=0)


def triangle_quality(vertices: np.ndarray):
    """Shape quality in [0, 1]: 4*sqrt(3)*area / sum of squared sides.

    ``vertices`` is one triangle ``(3, k)`` or a stack ``(..., 3, k)``; the
    result has the stack's shape.
    """
    a, b, c = np.moveaxis(np.asarray(vertices, dtype=np.float64), -2, 0)
    u, v, w = b - a, c - a, c - b
    uu, vv, uv = (np.sum(x * y, axis=-1) for x, y in ((u, u), (v, v), (u, v)))
    sq = uu + vv + np.sum(w * w, axis=-1)
    area = np.sqrt(np.maximum(uu * vv - uv**2, 0.0)) / 2.0
    return np.divide(4.0 * np.sqrt(3.0) * area, sq, out=np.zeros_like(sq), where=sq > 0.0)[()]


@dataclass(frozen=True)
class Triangle(Polyline):
    """Closed three-vertex polyline; vertices must be affinely independent."""

    closed: bool = field(default=True, init=False)

    def __post_init__(self):
        super().__post_init__()
        if self.vertices.shape[0] != 3:
            raise ValueError("triangle needs exactly three vertices")
        if triangle_quality(self.vertices) <= 0.0:
            raise ValueError("triangle vertices are affinely dependent")

    def quality(self) -> float:
        return float(triangle_quality(self.vertices))


@dataclass
class TriangleSampler:
    """Random well-shaped triangles in a ball, on random 2-planes.

    Vertices are drawn on an arbitrary oriented 2-plane through a random
    interior point; candidates thinner than ``min_quality`` or leaving the
    ball are dropped so the boundary quadrature stays well-conditioned.
    """

    center: np.ndarray
    radius: float
    min_quality: float = 0.1

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` triangles as one ``(count, 3, k)`` vertex array.

        Candidates are drawn in batches and the first ``count`` admissible
        ones are kept, in draw order.  After 1000 candidates per triangle
        asked for, :class:`RuntimeError` ends the search.
        """
        if not _is_count(count):
            raise ValueError(f"need a triangle count of at least 1, got {count!r}")
        k, m = self.center.shape[0], 2 * count
        kept, found = [], 0
        for _ in range(500):  # 500 batches of m candidates
            planes = (np.swapaxes(np.linalg.qr(rng.standard_normal((m, k, 2)))[0], 1, 2)
                      if k > 2 else np.eye(2))  # each (2, k), orthonormal rows
            mids = self.center + 0.4 * self.radius * _ball_points(rng, m, k)
            local = 0.45 * self.radius * rng.uniform(-1.0, 1.0, size=(m, 3, 2))
            verts = mids[:, None, :] + local @ planes
            inside = np.all(np.linalg.norm(verts - self.center, axis=2) <= self.radius, axis=1)
            verts = verts[inside & (triangle_quality(verts) >= self.min_quality)]
            kept.append(verts)
            found += len(verts)
            if found >= count:
                return np.concatenate(kept)[:count]
        raise RuntimeError("failed to sample an admissible triangle")


def _ball_points(rng: np.random.Generator, m: int, k: int) -> np.ndarray:
    """``m`` points uniform in the unit ball of R^k."""
    v = rng.standard_normal((m, k))
    v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-30)
    return v * rng.uniform(0.0, 1.0, size=(m, 1)) ** (1.0 / k)
