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
    change against the previous refinement level.
    """

    value: np.ndarray
    error_estimate: float
    nodes: int
    converged: bool
    history: list = field(default_factory=list)


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


def gauss_segment(f, tol: float = 1e-10, order: int = 16, cap: int = 4096) -> QuadratureResult:
    """Integrate a vector integrand over [0, 1] by bisected Gauss panels.

    Doubles the panel count until two successive levels agree within
    ``tol`` or the node count would exceed ``cap``.
    """
    base_nodes, base_weights = _gauss_rule(order)
    panels = 1
    prev = None
    history = []
    while True:
        width = 1.0 / panels
        offsets = np.arange(panels) * width
        tau = (offsets[:, None] + base_nodes[None, :] * width).ravel()
        weights = np.broadcast_to(base_weights * width, (panels, order)).ravel()
        vals = np.asarray(f(tau))
        # einsum reduces without BLAS, so the sum does not depend on the
        # BLAS thread count
        value = np.einsum("q,q...->...", weights, vals)
        nodes = tau.size
        if prev is not None:
            delta = float(np.linalg.norm(np.atleast_1d(value - prev)))
            history.append((nodes, delta))
            if delta <= tol:
                return QuadratureResult(value, delta, nodes, True, history)
        if 2 * nodes > cap:
            delta = history[-1][1] if history else float("inf")
            return QuadratureResult(value, delta, nodes, False, history)
        prev = value
        panels *= 2
