"""Quadrature engines: periodic trapezoid and composite Gauss-Legendre.

Periodic analytic integrands get the trapezoid rule with node doubling; it
converges geometrically there.  Non-periodic segment integrands get a fixed
Gauss-Legendre order with segment bisection until the result plateaus.
Both engines operate on vectorised integrands ``f(tau) -> (len(tau), d)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["QuadratureResult", "gauss_segment", "trapezoid_periodic"]

TWO_PI = 2.0 * np.pi


@dataclass
class QuadratureResult:
    """Value of one refinement run plus its diagnostics.

    ``history`` lists ``(nodes, delta)`` pairs, where ``delta`` is the
    change against the previous refinement level.  A stack of segments
    (see :func:`gauss_segment`) also reports each segment's final delta,
    node count and convergence flag.
    """

    value: np.ndarray
    error_estimate: float
    nodes: int
    converged: bool
    history: list = field(default_factory=list)
    segment_deltas: np.ndarray | None = None
    segment_nodes: np.ndarray | None = None
    segment_converged: np.ndarray | None = None


def trapezoid_periodic(f, tol: float = 1e-10, start: int = 64, cap: int = 2**16,
                       min_doublings: int = 2) -> QuadratureResult:
    """Integrate a 2-pi-periodic vector integrand by node doubling.

    Stops when two successive levels differ by less than ``tol`` (and at
    least ``min_doublings`` doublings happened, guarding against aliasing),
    or at the node cap.
    """
    n = int(start)
    prev = None
    history = []
    doublings = 0
    while True:
        tau = np.arange(n) * (TWO_PI / n)
        vals = np.asarray(f(tau))
        value = vals.mean(axis=0) * TWO_PI
        if prev is not None:
            delta = float(np.linalg.norm(np.atleast_1d(value - prev)))
            history.append((n, delta))
            if delta <= tol and doublings >= min_doublings:
                return QuadratureResult(value, delta, n, True, history)
        if 2 * n > cap:
            delta = history[-1][1] if history else float("inf")
            return QuadratureResult(value, delta, n, False, history)
        prev = value
        n *= 2
        doublings += 1


_GAUSS_CACHE: dict = {}


def _gauss_rule(order: int):
    if order not in _GAUSS_CACHE:
        nodes, weights = np.polynomial.legendre.leggauss(order)
        _GAUSS_CACHE[order] = (0.5 * (nodes + 1.0), 0.5 * weights)  # on [0, 1]
    return _GAUSS_CACHE[order]


# Whole segments are grouped into blocks of about this many points per
# integrand call, which bounds the memory one refinement level needs.
_BLOCK_POINTS = 512


def gauss_segment(f, tol: float = 1e-10, order: int = 16, cap: int = 4096) -> QuadratureResult:
    """Integrate vector integrands over [0, 1] by bisected Gauss panels.

    ``f`` is one integrand ``f(tau)``, or a stack of S segment integrands:
    a sized object with ``len(f) == S``, called as ``f(tau, seg)`` where
    ``seg`` names the segment of each node.  Each segment doubles its panel
    count until two successive levels agree within ``tol`` or its node
    count would exceed ``cap``.  A level evaluates only the segments still
    refining, in blocks of whole segments of about ``_BLOCK_POINTS`` points.

    For a stack, ``value`` has one row per segment, ``nodes`` sums the
    segments' node counts, ``error_estimate`` is their largest delta and
    ``converged`` holds when every segment converged.  ``history`` holds
    one ``(points evaluated over the refining segments, largest delta)``
    entry per level after the first.
    """
    stacked = hasattr(f, "__len__")
    count = len(f) if stacked else 1
    evaluate = f if stacked else (lambda tau, seg: f(tau))
    base_nodes, base_weights = _gauss_rule(order)
    value = None
    deltas = np.full(count, np.inf)
    nodes = np.zeros(count, dtype=np.int64)
    converged = np.zeros(count, dtype=bool)
    active = np.arange(count)
    panels = 1
    history = []
    while active.size:
        width = 1.0 / panels
        offsets = np.arange(panels) * width
        tau = (offsets[:, None] + base_nodes[None, :] * width).ravel()
        weights = np.broadcast_to(base_weights * width, (panels, order)).ravel()
        per_block = max(1, _BLOCK_POINTS // tau.size)
        level = []
        for first in range(0, active.size, per_block):
            seg = active[first:first + per_block]
            vals = np.asarray(evaluate(np.tile(tau, seg.size), np.repeat(seg, tau.size)))
            vals = vals.reshape(seg.size, tau.size, *vals.shape[1:])
            # einsum reduces without BLAS, so the sum does not depend on the
            # BLAS thread count
            level.append(np.einsum("q,sq...->s...", weights, vals))
        level = np.concatenate(level)
        nodes[active] = tau.size
        if value is None:
            value = level
        else:
            change = np.linalg.norm((level - value[active]).reshape(active.size, -1), axis=1)
            value[active] = level
            deltas[active] = change
            history.append((active.size * tau.size, float(change.max())))
            done = change <= tol
            converged[active[done]] = True
            active = active[~done]
        if 2 * tau.size > cap:
            break
        panels *= 2
    if not stacked:
        return QuadratureResult(value[0], float(deltas[0]), int(nodes[0]), bool(converged[0]),
                                history, deltas, nodes, converged)
    return QuadratureResult(value, float(deltas.max()), int(nodes.sum()),
                            bool(converged.all()), history, deltas, nodes, converged)
