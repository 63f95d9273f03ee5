"""Quadrature: one refinement loop, two rules.

:func:`_refine` doubles the node count per level until two successive levels
agree or the node cap is reached; every rule defaults to the one cap
:data:`DEFAULT_CAP`.  A rule gives a level's nodes and its sum:
the periodic trapezoid (:func:`trapezoid_periodic`, geometric convergence for
analytic periodic integrands) or bisected G7/K15 Gauss-Kronrod panels on
[0, 1] (:func:`gauss_segment`).  A rule may also give a reference sum for
level 0 from the same values: the Kronrod panels use their embedded 7-point
Gauss sum, so a segment that is smooth enough is accepted after one level
of 15 evaluations.  Integrands are vectorised, ``f(tau) -> (len(tau), d)``,
or stacks of integrands refined together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["DEFAULT_CAP", "QuadratureResult", "gauss_segment", "trapezoid_periodic"]

TWO_PI = 2.0 * np.pi

# The node cap of one refinement run, on a circle or on a segment.
DEFAULT_CAP = 2**16


def _is_count(value) -> bool:
    """A node count, flag count or cap: an ``int``, not a ``bool``, of at least 1."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


@dataclass
class QuadratureResult:
    """Value of one refinement run plus its diagnostics.

    ``history`` lists one ``(nodes, delta)`` pair per level after the first,
    where ``delta`` is the change against the previous level.  A level-0
    test against an embedded reference adds no entry, so the points
    evaluated are ``nodes`` when ``history`` is empty and otherwise half the
    first entry's nodes plus the nodes of every entry (for a stack, as long
    as no integrand stopped at level 0).  The ``segment_*`` arrays hold each
    integrand's final delta, node count and convergence flag; a stack (see
    :func:`_refine`) has one entry per integrand.  ``levels`` holds, per
    level after the first, the nodes per integrand, the indices of the
    integrands refined and their deltas, from which the history of any
    group of a stack's integrands follows.
    """

    value: np.ndarray
    error_estimate: float
    nodes: int
    converged: bool
    history: list = field(default_factory=list)
    segment_deltas: np.ndarray | None = None
    segment_nodes: np.ndarray | None = None
    segment_converged: np.ndarray | None = None
    levels: list = field(default_factory=list)


# Whole integrands are grouped into blocks of about this many points per
# integrand call, which bounds the memory one refinement level needs.
_BLOCK_POINTS = 512


def _refine(f, rule, tol: float, cap: int, first_test: int = 0,
            reference=None) -> QuadratureResult:
    """Refine ``f`` level by level; ``rule(level)`` gives nodes and their sum.

    ``f`` is one integrand ``f(tau)`` or a stack of S integrands: a sized
    object called as ``f(tau, seg)``, ``seg`` naming each node's integrand.
    A stack may instead give ``f.level(tau)``, asked once per level for the
    ``(tau, seg)`` evaluator of that level's nodes, so that the integrands
    share the work they have in common there (a curve's points, a common
    factor) and drop it with the level.  A stack may also give
    ``f.map_sums(sums, seg)``, a linear map of each integrand's level sums
    (one row per integrand of ``seg``), applied to every level's sums and
    to level 0's ``reference`` before they are compared and kept: a factor
    that is constant along an integrand multiplies its sums, not its nodes.
    Each integrand refines until its level agrees within ``tol`` with the
    level before (from level ``first_test`` on) or its node count would
    exceed ``cap``.
    ``reference``, when given, maps level 0's values of each integrand,
    shaped ``(integrands, nodes, ...)``, to a reference sum that level 0 is
    tested against.  A level evaluates only the integrands still refining,
    in blocks of whole integrands of about ``_BLOCK_POINTS`` points, so no
    array holds more than one block of values.  For a stack, ``value`` has
    one row per integrand, ``nodes`` is their sum, ``error_estimate`` their
    largest delta and ``converged`` holds when all converged; ``history``
    holds one ``(points evaluated, largest delta)`` entry per level after
    the first.  An integrand's value, nodes, flag and deltas do not depend
    on the other integrands of its stack.  A ``cap`` that is not an integer
    of at least 1 raises :class:`ValueError`.
    """
    if not _is_count(cap):
        raise ValueError(f"the node cap must be an integer of at least 1, got {cap!r}")
    stacked = hasattr(f, "__len__")
    count = len(f) if stacked else 1
    evaluate = f if stacked else (lambda tau, seg: f(tau))
    at_level = getattr(f, "level", None) if stacked else None
    map_sums = getattr(f, "map_sums", None) if stacked else None
    value = None
    deltas = np.full(count, np.inf)
    nodes = np.zeros(count, dtype=np.int64)
    converged = np.zeros(count, dtype=bool)
    active = np.arange(count)
    history, levels = [], []
    level = 0
    while active.size:
        tau, level_sum = rule(level)
        level_evaluate = at_level(tau) if at_level else evaluate
        per_block = max(1, _BLOCK_POINTS // tau.size)
        sums, refs = [], []
        for first in range(0, active.size, per_block):
            seg = active[first:first + per_block]
            vals = np.asarray(level_evaluate(np.tile(tau, seg.size), np.repeat(seg, tau.size)))
            vals = vals.reshape(seg.size, tau.size, *vals.shape[1:])
            sums.append(level_sum(vals))
            if level == 0 and reference is not None:
                refs.append(reference(vals))
            del vals  # one block of values at a time
        del level_evaluate  # and with it what the level's integrands shared
        sums = np.concatenate(sums)
        if map_sums:
            sums = map_sums(sums, active)
        nodes[active] = tau.size
        if level:
            previous = value[active]
            value[active] = sums
        else:
            previous = np.concatenate(refs) if refs else None
            if map_sums and refs:
                previous = map_sums(previous, active)
            value = sums
        if previous is not None:
            change = np.linalg.norm((sums - previous).reshape(active.size, -1), axis=1)
            deltas[active] = change
            if level:
                history.append((active.size * tau.size, float(change.max())))
                levels.append((tau.size, active, change))
            if level >= first_test:
                done = change <= tol
                converged[active[done]] = True
                active = active[~done]
        if 2 * tau.size > cap:
            break
        level += 1
    if not stacked:
        return QuadratureResult(value[0], float(deltas[0]), int(nodes[0]), bool(converged[0]),
                                history, deltas, nodes, converged, levels)
    return QuadratureResult(value, float(deltas.max()), int(nodes.sum()),
                            bool(converged.all()), history, deltas, nodes, converged, levels)


# No trapezoid convergence before two doublings: the first two levels may alias.
_TRAPEZOID_FIRST_TEST = 2


def trapezoid_periodic(f, tol: float = 1e-10, start: int = 64,
                       cap: int = DEFAULT_CAP) -> QuadratureResult:
    """Integrate 2-pi-periodic integrands over [0, 2 pi] by node doubling.

    Level ``l`` has ``start * 2^l`` equispaced nodes; ``f`` and the result
    are as for :func:`_refine`.
    """
    if not _is_count(start):
        raise ValueError(f"start must be an integer of at least 1, got {start!r}")

    def rule(level):
        n = start * 2**level
        return np.arange(n) * (TWO_PI / n), lambda vals: vals.mean(axis=1) * TWO_PI

    return _refine(f, rule, tol, cap, first_test=_TRAPEZOID_FIRST_TEST)


# G7/K15 Gauss-Kronrod pair on [-1, 1] (QUADPACK ``qk15``; Piessens et al.,
# *QUADPACK*, 1983): the positive Kronrod nodes in decreasing order, the odd
# positions being the 7-point Gauss nodes, and their weights.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])
# The 15 nodes and weights on [0, 1] in increasing order; the Gauss nodes
# sit at the odd positions 1, 3, ..., 13.
_KRONROD_NODES = 0.5 * (1.0 + np.concatenate([-_XGK, _XGK[-2::-1]]))
_KRONROD_WEIGHTS = 0.5 * np.concatenate([_WGK, _WGK[-2::-1]])
_GAUSS_WEIGHTS = 0.5 * np.concatenate([_WG, _WG[-2::-1]])


def _weighted_sum(weights):
    # einsum reduces without BLAS, so the sum does not depend on the BLAS
    # thread count
    return lambda vals: np.einsum("q,sq...->s...", weights, vals)


def gauss_segment(f, tol: float = 1e-10, cap: int = DEFAULT_CAP) -> QuadratureResult:
    """Integrate integrands over [0, 1] by bisected G7/K15 Gauss-Kronrod panels.

    Level ``l`` has ``2^l`` panels of 15 Kronrod nodes each.  Level 0 is
    accepted when its Kronrod sum is within ``tol`` of the 7-point Gauss sum
    embedded in the same 15 values; every later level is compared with the
    previous level's Kronrod sum.  ``f`` and the result are as for
    :func:`_refine`.
    """
    def rule(level):
        panels = 2**level
        width = 1.0 / panels
        offsets = np.arange(panels) * width
        tau = (offsets[:, None] + _KRONROD_NODES[None, :] * width).ravel()
        weights = np.tile(_KRONROD_WEIGHTS * width, panels)
        return tau, _weighted_sum(weights)

    embedded = _weighted_sum(_GAUSS_WEIGHTS)
    return _refine(f, rule, tol, cap, reference=lambda vals: embedded(vals[:, 1::2]))
