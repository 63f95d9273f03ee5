"""Quadrature: one refinement loop, two rules.

:func:`_refine` doubles the node count per level until two successive levels
agree or the node cap is reached.  A rule gives a level's nodes and its sum:
the periodic trapezoid (:func:`trapezoid_periodic`, geometric convergence for
analytic periodic integrands) or bisected Gauss-Legendre panels on [0, 1]
(:func:`gauss_segment`).  Integrands are vectorised, ``f(tau) -> (len(tau),
d)``, or stacks of integrands refined together.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = ["QuadratureResult", "gauss_segment", "trapezoid_periodic"]

TWO_PI = 2.0 * np.pi


@dataclass
class QuadratureResult:
    """Value of one refinement run plus its diagnostics.

    ``history`` lists ``(nodes, delta)`` pairs, where ``delta`` is the
    change against the previous refinement level.  The ``segment_*``
    arrays hold each integrand's final delta, node count and convergence
    flag; a stack (see :func:`_refine`) has one entry per integrand.
    """

    value: np.ndarray
    error_estimate: float
    nodes: int
    converged: bool
    history: list = field(default_factory=list)
    segment_deltas: np.ndarray | None = None
    segment_nodes: np.ndarray | None = None
    segment_converged: np.ndarray | None = None


# Whole integrands are grouped into blocks of about this many points per
# integrand call, which bounds the memory one refinement level needs.
_BLOCK_POINTS = 512


def _refine(f, rule, tol: float, cap: int, first_test: int = 1) -> QuadratureResult:
    """Refine ``f`` level by level; ``rule(level)`` gives nodes and their sum.

    ``f`` is one integrand ``f(tau)`` or a stack of S integrands: a sized
    object called as ``f(tau, seg)``, ``seg`` naming each node's integrand.
    Each integrand refines until two levels agree within ``tol`` (from level
    ``first_test`` on) or its node count would exceed ``cap``.  A level
    evaluates only the integrands still refining, in blocks of whole
    integrands of about ``_BLOCK_POINTS`` points.  For a stack, ``value`` has
    one row per integrand, ``nodes`` is their sum, ``error_estimate`` their
    largest delta and ``converged`` holds when all converged; ``history``
    holds one ``(points evaluated, largest delta)`` entry per level after
    the first.
    """
    stacked = hasattr(f, "__len__")
    count = len(f) if stacked else 1
    evaluate = f if stacked else (lambda tau, seg: f(tau))
    value = None
    deltas = np.full(count, np.inf)
    nodes = np.zeros(count, dtype=np.int64)
    converged = np.zeros(count, dtype=bool)
    active = np.arange(count)
    history = []
    level = 0
    while active.size:
        tau, level_sum = rule(level)
        per_block = max(1, _BLOCK_POINTS // tau.size)
        sums = []
        for first in range(0, active.size, per_block):
            seg = active[first:first + per_block]
            vals = np.asarray(evaluate(np.tile(tau, seg.size), np.repeat(seg, tau.size)))
            sums.append(level_sum(vals.reshape(seg.size, tau.size, *vals.shape[1:])))
        sums = np.concatenate(sums)
        nodes[active] = tau.size
        if value is None:
            value = sums
        else:
            change = np.linalg.norm((sums - value[active]).reshape(active.size, -1), axis=1)
            value[active] = sums
            deltas[active] = change
            history.append((active.size * tau.size, float(change.max())))
            if level >= first_test:
                done = change <= tol
                converged[active[done]] = True
                active = active[~done]
        if 2 * tau.size > cap:
            break
        level += 1
    if not stacked:
        return QuadratureResult(value[0], float(deltas[0]), int(nodes[0]), bool(converged[0]),
                                history, deltas, nodes, converged)
    return QuadratureResult(value, float(deltas.max()), int(nodes.sum()),
                            bool(converged.all()), history, deltas, nodes, converged)


# No trapezoid convergence before two doublings: the first two levels may alias.
_TRAPEZOID_FIRST_TEST = 2


def trapezoid_periodic(f, tol: float = 1e-10, start: int = 64,
                       cap: int = 2**16) -> QuadratureResult:
    """Integrate 2-pi-periodic integrands over [0, 2 pi] by node doubling.

    Level ``l`` has ``start * 2^l`` equispaced nodes; ``f`` and the result
    are as for :func:`_refine`.
    """
    def rule(level):
        n = int(start) * 2**level
        return np.arange(n) * (TWO_PI / n), lambda vals: vals.mean(axis=1) * TWO_PI

    return _refine(f, rule, tol, cap, first_test=_TRAPEZOID_FIRST_TEST)


@functools.cache
def _gauss_rule(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return 0.5 * (nodes + 1.0), 0.5 * weights  # on [0, 1]


def gauss_segment(f, tol: float = 1e-10, order: int = 16, cap: int = 4096) -> QuadratureResult:
    """Integrate integrands over [0, 1] by bisected Gauss-Legendre panels.

    Level ``l`` has ``2^l`` panels of ``order`` nodes each; ``f`` and the
    result are as for :func:`_refine`.
    """
    base_nodes, base_weights = _gauss_rule(order)

    def rule(level):
        panels = 2**level
        width = 1.0 / panels
        offsets = np.arange(panels) * width
        tau = (offsets[:, None] + base_nodes[None, :] * width).ravel()
        weights = np.broadcast_to(base_weights * width, (panels, order)).ravel()
        # einsum reduces without BLAS, so the sum does not depend on the
        # BLAS thread count
        return tau, lambda vals: np.einsum("q,sq...->s...", weights, vals)

    return _refine(f, rule, tol, cap)
