"""Quadrature: one refinement loop, two rules, each exact for integrands of known degree.

:func:`_refine` doubles the node count per level until two successive levels
agree or the node cap is reached; every rule defaults to the one cap
:data:`DEFAULT_CAP`.  A rule gives a level's nodes and its sum:
the periodic trapezoid (:func:`trapezoid_periodic`, geometric convergence for
analytic periodic integrands) or bisected G7/K15 Gauss-Kronrod panels on
[0, 1] (:func:`gauss_segment`).  A rule may also give a reference sum for
level 0 from the same values: the Kronrod panels use their embedded 7-point
Gauss sum, so a segment that is smooth enough is accepted after one level
of 15 evaluations.  Integrands are vectorised, ``f(tau) -> (len(tau), d)``,
or stacks of integrands refined together, each integrand tested as one
vector; a stack gives each level an evaluator of its integrands by index,
and one integrand is a stack of one.

Integrands that state their ``degree`` in the parameter, a polynomial in
``tau`` on [0, 1] or a trigonometric polynomial on a circle, are not
refined: each rule then runs one level that is exact for that degree,
``degree // 2 + 1`` Gauss-Legendre nodes or ``degree + 1`` trapezoid
nodes, as the loop's only level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Real

import numpy as np

__all__ = ["DEFAULT_CAP", "QuadratureResult", "gauss_segment", "trapezoid_periodic"]

TWO_PI = 2.0 * np.pi

# The node cap of one refinement run, on a circle or on a segment.
DEFAULT_CAP = 2**16


def _is_count(value) -> bool:
    """A node count, flag count or cap: an ``int``, not a ``bool``, of at least 1."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _is_tolerance(value) -> bool:
    """A tolerance: a real number, not a ``bool``, finite and greater than 0."""
    return isinstance(value, Real) and not isinstance(value, bool) and 0 < value < math.inf


def _check(tol, cap) -> None:
    """Raise :class:`ValueError` for a ``cap`` that is not an integer of at
    least 1 or a ``tol`` that is not a finite number greater than 0."""
    if not _is_count(cap):
        raise ValueError(f"the node cap must be an integer of at least 1, got {cap!r}")
    if not _is_tolerance(tol):
        raise ValueError(f"the tolerance must be a finite number greater than 0, got {tol!r}")


@dataclass
class QuadratureResult:
    """Value of one refinement run plus its diagnostics.

    ``levels`` holds, per level after the first, the nodes per integrand,
    the indices of the integrands refined and their deltas (the norm of the
    change against the previous level).  ``history`` is :func:`_history` of
    all the integrands: one ``(points evaluated, largest delta)`` pair per level
    after the first.  A level-0 test against an embedded reference adds no
    entry, so the points evaluated are ``nodes`` when ``history`` is empty
    and otherwise half the first entry's nodes plus the nodes of every
    entry (for a stack, as long as no integrand stopped at level 0).  The
    ``segment_*`` arrays hold each integrand's final delta, node count and
    convergence flag; a stack (see :func:`_refine`) has one entry per
    integrand.  ``exact`` holds when the run was one level of a rule
    exact for the integrands' degree, with every delta 0.
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
    exact: bool = False


def _history(levels, lo: int, hi: int) -> list:
    """The ``(points evaluated, largest delta)`` of integrands ``lo..hi-1``,
    one pair per level in ``levels`` that refined any of them."""
    out = []
    for nodes, active, change in levels:
        mine = (active >= lo) & (active < hi)
        if mine.any():
            out.append((int(mine.sum()) * nodes, float(change[mine].max())))
    return out


# Whole integrands are grouped into chunks of about this many points per
# integrand call, and the oracle suite checks its points in batches of at
# most this many.
_BLOCK_POINTS = 512


def _refine(f, rule, tol: float, cap: int, first_test: int = 0,
            reference=None, exact: bool = False) -> QuadratureResult:
    """Refine ``f`` level by level; ``rule(level)`` gives nodes and their sum.

    ``f`` is a stack of S integrands: a sized object whose ``f.level(tau)``
    is asked once per level for that level's evaluator.  The evaluator
    takes the indices ``rows`` of some integrands, in increasing order, and
    returns their values at every node ``tau``, shaped ``(rows, nodes,
    ...)``, so that the integrands share the work they have in common at
    the level (a curve's points, a common factor) and drop it with the
    level.  One integrand ``f(tau) -> (len(tau), ...)`` is refined as a
    stack of one.  A stack may also give ``f.map_sums(sums, rows)``, a
    linear map of each integrand's level sums (one row per integrand of
    ``rows``), applied to the sums of each evaluator call, and to level 0's
    ``reference`` of each call, before they are compared and kept: a factor
    that is constant along an integrand multiplies its sums, not its nodes,
    and no product spans more integrands than one call.
    Each integrand refines until its level agrees within ``tol`` with the
    level before, as one vector (from level ``first_test`` on), or its node
    count would exceed ``cap``.
    ``reference``, when given, maps level 0's values of each integrand,
    shaped ``(integrands, nodes, ...)``, to a reference sum that level 0 is
    tested against.  A level evaluates only the integrands still refining,
    in calls of whole integrands of about ``_BLOCK_POINTS`` points: one
    call's values hold at most ``_BLOCK_POINTS`` nodes, or one integrand's
    nodes when it has more (a circle of 8192 nodes holds 8192).

    For a stack, ``value`` has one row per integrand, ``nodes`` is their
    sum, ``error_estimate`` their largest delta and ``converged`` holds when
    all converged; ``levels`` records each level after the first once, and
    ``history`` is read from it.  An integrand's value, nodes, flag and
    deltas do not depend on the other integrands of its stack.

    With ``exact``, level 0 is exact for every integrand: it is the only
    level, and every integrand converges there, by its degree, with delta 0.
    """
    stacked = hasattr(f, "level")
    count = len(f) if stacked else 1
    at_level = f.level if stacked else (lambda tau: lambda rows: np.asarray(f(tau))[None])
    map_sums = getattr(f, "map_sums", None) or (lambda sums, rows: sums)
    value = None
    deltas = np.full(count, np.inf)
    nodes = np.zeros(count, dtype=np.int64)
    converged = np.zeros(count, dtype=bool)
    refining = np.ones(count, dtype=bool)
    levels = []
    level = 0
    while refining.any():
        tau, level_sum = rule(level)
        tau.flags.writeable = False
        evaluate = at_level(tau)
        per_call = max(1, _BLOCK_POINTS // tau.size)
        rows = np.flatnonzero(refining)
        sums, refs = [], []
        for first in range(0, rows.size, per_call):
            part = rows[first:first + per_call]
            vals = evaluate(part)
            sums.append(level_sum(vals))
            if level == 0 and reference is not None:
                refs.append(reference(vals))
            del vals  # one call's values at a time
            # this call's sums alone, so that no product spans the level
            sums[-1] = map_sums(sums[-1], part)
            if refs:
                refs[-1] = map_sums(refs[-1], part)
        del evaluate  # and with it what the level's integrands shared
        sums = np.concatenate(sums)
        nodes[rows] = tau.size
        if level:
            previous = value[rows]
            value[rows] = sums
        else:  # level 0 evaluates every integrand
            previous = np.concatenate(refs) if refs else None
            value = sums
        if exact:
            deltas[rows], converged[rows], refining[rows] = 0.0, True, False
        elif previous is not None:
            change = np.linalg.norm((sums - previous).reshape(rows.size, -1), axis=1)
            deltas[rows] = change
            if level >= first_test:
                done = change <= tol
                converged[rows], refining[rows] = done, ~done
            if level:
                levels.append((tau.size, rows, change))
        if 2 * tau.size > cap:
            break
        level += 1
    return QuadratureResult(value if stacked else value[0], float(deltas.max()),
                            int(nodes.sum()), bool(converged.all()), _history(levels, 0, count),
                            deltas, nodes, converged, levels, exact)


def _exact_nodes(f, nodes, first: int, cap: int):
    """The node count ``nodes(degree)`` of the rule exact for the ``degree``
    that ``f`` states, or ``None`` when ``f`` states none or the rule is not
    taken.  It is taken when its nodes are within ``cap``, or no more than
    the ``first`` level's, which always runs."""
    degree = getattr(f, "degree", None)
    if degree is None:
        return None
    n = nodes(degree)
    return n if n <= max(cap, first) else None


def _trapezoid(n: int):
    """``n`` equispaced nodes on [0, 2 pi) and their trapezoid sum."""
    return np.arange(n) * (TWO_PI / n), lambda vals: vals.mean(axis=1) * TWO_PI


# No trapezoid convergence before two doublings: the first two levels may alias.
_TRAPEZOID_FIRST_TEST = 2


def trapezoid_periodic(f, tol: float = 1e-10, cap: int = DEFAULT_CAP) -> QuadratureResult:
    """Integrate 2-pi-periodic integrands over [0, 2 pi] by node doubling.

    Level ``l`` has ``64 * 2^l`` equispaced nodes; ``f`` and the result are
    as for :func:`_refine`.  An ``f`` whose ``degree`` attribute states that
    its integrands are trigonometric polynomials of that degree takes
    ``degree + 1`` nodes, exact for them (Trefethen and Weideman, SIAM Rev.
    56, 2014), in one level, when they are within ``cap`` or at most 64.
    A ``cap`` or ``tol`` that :func:`_check` refuses raises
    :class:`ValueError`.
    """
    _check(tol, cap)
    n = _exact_nodes(f, lambda degree: degree + 1, 64, cap)
    if n is not None:
        return _refine(f, lambda level: _trapezoid(n), tol, cap, exact=True)
    return _refine(f, lambda level: _trapezoid(64 * 2**level), tol, cap,
                   first_test=_TRAPEZOID_FIRST_TEST)


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


@lru_cache(maxsize=None)
def _legendre(n: int):
    """The ``n`` Gauss-Legendre nodes on [0, 1], increasing, and their
    weights, exact for polynomials of degree ``2 n - 1``.

    Newton's method on the three-term recurrence of the Legendre polynomial
    ``P_n``, from the guesses ``cos(pi (i + 3/4) / (n + 1/2))`` (Press et
    al., *Numerical Recipes*, ``gauleg``): ``O(n)`` memory and ``O(n^2)``
    operations a step, no more than evaluating a polynomial of degree
    ``2 n`` at the nodes.
    """
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    step = np.inf
    for _ in range(100):
        p, q = x, np.ones(n)  # P_k and P_{k-1} at x, from k = 1
        for k in range(2, n + 1):
            p, q = ((2 * k - 1) * x * p - (k - 1) * q) / k, p
        slope = n * (x * p - q) / (x * x - 1)  # P_n'
        if np.abs(step).max() <= 1e-15:  # the weights take the slope at the last nodes
            break
        step = p / slope
        x = x - step
    tau, weights = 0.5 * (1.0 - x), 1.0 / ((1.0 - x * x) * slope * slope)
    tau.flags.writeable = weights.flags.writeable = False
    return tau, weights


def gauss_segment(f, tol: float = 1e-10, cap: int = DEFAULT_CAP) -> QuadratureResult:
    """Integrate integrands over [0, 1] by bisected G7/K15 Gauss-Kronrod panels.

    Level ``l`` has ``2^l`` panels of 15 Kronrod nodes each.  Level 0 is
    accepted when its Kronrod sum is within ``tol`` of the 7-point Gauss sum
    embedded in the same 15 values; every later level is compared with the
    previous level's Kronrod sum.  ``f`` and the result are as for
    :func:`_refine`.  An ``f`` whose ``degree`` attribute states that its
    integrands are polynomials of that degree takes ``degree // 2 + 1``
    Gauss-Legendre nodes, exact for them, in one level, when they are within
    ``cap`` or at most 15.  A ``cap`` or ``tol`` that :func:`_check`
    refuses raises :class:`ValueError`.
    """
    _check(tol, cap)
    n = _exact_nodes(f, lambda degree: degree // 2 + 1, 15, cap)
    if n is not None:
        tau, weights = _legendre(n)
        return _refine(f, lambda level: (tau, _weighted_sum(weights)), tol, cap, exact=True)

    def rule(level):
        panels = 2**level
        width = 1.0 / panels
        offsets = np.arange(panels) * width
        tau = (offsets[:, None] + _KRONROD_NODES[None, :] * width).ravel()
        weights = np.tile(_KRONROD_WEIGHTS * width, panels)
        return tau, _weighted_sum(weights)

    embedded = _weighted_sum(_GAUSS_WEIGHTS)
    return _refine(f, rule, tol, cap, reference=lambda vals: embedded(vals[:, 1::2]))
