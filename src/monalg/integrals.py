"""Curvilinear integrals and the integral-theorem verification checks.

The line integral of an algebra-valued function against ``dzeta`` is the
quadrature of ``psi(zeta(tau)) * zeta'(tau)``.  On top of it sit the checks:
closed-curve integrals of monogenic functions vanish, triangle boundaries
give the Morera-style identity, and the integral formula reproduces
``2 pi i`` times function values on a curve around which every spectral
image winds once.  :func:`compute_lambda` integrates the algebra constant
``lambda = integral of zeta^{-1} dzeta`` over a circle.  Every integrand, the
formula's reference and its shifted inverse are evaluated by
:func:`monalg.monogenic.eval_batch`, so every check takes the same functions.

:func:`line_integral`, :func:`cauchy_theorem_check`, :func:`morera_check`
and :func:`cauchy_formula_check` also take a list of functions.  The
functions of one curve, or of Morera's triangle edges, are then integrated
as one stack, in one run, or one stack per degree they state:
:func:`_integrate`, the one place that chooses the rule,
gives a function of known degree, and no factor, a rule exact for it in
one level (:mod:`monalg.quadrature`), and refines every other.  On
circles and segments alike each level's sums are those of ``psi(zeta)
dzeta``, times the shifted inverse ``(zeta - zeta_c)^{-1}`` for the
formula.  On a circle ``dzeta`` changes from node to node, and weights
each node; on a segment it is the constant ``(B - A) @ a``, and multiplies
the segment's level sums, once per level.  The stack,
:class:`_CurveStack`, is built from a circle or from the starts and
directions ``B - A`` of straight segments, which the caller makes once for
all its stacks, and computes the curve's points and ``dzeta`` itself:
each level the refinement loop asks it for the values of some of its
integrands, by index, at every node of the level.  Each level computes a
circle's points, and the weight at the nodes, once for all the functions.
Each function on each piece refines as one vector, on every column of
the algebra, to the piece's tolerance, and keeps its own convergence
test, so every result is bit for bit that of the function's own call.  A
single function is the one-element case of the same path.

A function's result is assembled from its rows of its stack's run
(:func:`_assemble`), and every check on one integral, Morera's too, builds
its report with :func:`_integral_report`: the check's residual and
diagnostics beside the integral's value, nodes, convergence flag and
history.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import AlgebraSpec, Element
from .algebra import _multiply_coords, _on_locus
from .curves import Circle2D, TriangleSampler
from .errors import EmbracingError, IntegrationError, MonalgError
from .frames import Frame
from .monogenic import eval_batch, eval_function
from .quadrature import DEFAULT_CAP, _check, _history, gauss_segment, trapezoid_periodic
from .resolvent import inverse_many

__all__ = [
    "EmbraceCertificate",
    "IntegralResult",
    "LambdaResult",
    "VerificationReport",
    "cauchy_formula_check",
    "cauchy_theorem_check",
    "compute_lambda",
    "line_integral",
    "morera_check",
    "winding_certificate",
]


@dataclass
class IntegralResult:
    """Line-integral value with quadrature diagnostics; ``exact`` when a
    rule exact for the function's degree took it, with no refinement."""

    value: Element
    error_estimate: float
    nodes: int
    converged: bool
    history: list = field(default_factory=list)
    exact: bool = False


@dataclass(frozen=True)
class EmbraceCertificate:
    """Winding numbers of the spectral images of a curve around a point."""

    windings: tuple

    @property
    def embraces_once(self) -> bool:
        return all(w == 1 for w in self.windings)


@dataclass
class VerificationReport:
    """One named check: residual against tolerance plus diagnostics.

    A ``None`` tolerance marks a purely informational measurement.  A check
    whose ``diagnostics["converged"]`` is false fails, whatever its residual.
    """

    name: str
    residual: float
    tolerance: float | None
    value: object = None
    reference: object = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        if not self.diagnostics.get("converged", True):
            return False
        if self.tolerance is None:
            return True
        return bool(self.residual <= self.tolerance)


@dataclass
class LambdaResult:
    """The constant ``lambda`` and its component decomposition."""

    value: Element
    idempotent_part: np.ndarray
    nilpotent_residuals: np.ndarray
    windings: tuple
    deviation_from_two_pi_i: float
    error_estimate: float
    nodes: int
    converged: bool
    history: list = field(default_factory=list)


# -- line integrals ----------------------------------------------------------

# Default tolerance of one line integral.
_LINE_TOL = 1e-10


def _locate_failure(evaluations, taus, exc) -> IntegrationError:
    """Re-evaluate pointwise to name the parameter where evaluation failed.

    ``evaluations`` are the factors of the integrand, each as ``(function,
    frame, spec, points)``, evaluated in order.  ``taus`` are the curve
    parameters of the points: radians on a circle, ``s + t`` at ``t`` along
    segment ``s`` of a polyline, as in :func:`winding_certificate`.
    Morera's segments are the 3 T edges of its T triangles, so there
    ``s // 3`` is the triangle.
    """
    for i, tau in enumerate(taus):
        try:
            for psi, frame, spec, xs in evaluations:
                eval_batch(psi, frame, xs[i : i + 1], spec)
        except MonalgError:
            return IntegrationError(
                f"integrand evaluation failed at tau={float(tau):.6g}: {exc}",
                tau=float(tau),
            )
    return IntegrationError(f"integrand evaluation failed: {exc}")


def line_integral(psi, gamma, frame: Frame, spec: AlgebraSpec,
                  tol: float = _LINE_TOL, cap: int = DEFAULT_CAP) -> IntegralResult | list:
    """Integral of ``psi`` against ``dzeta`` along the curve.

    ``psi`` is any function :func:`eval_batch` takes: a built-in variant, an
    object with an ``eval_many`` method, or a callable ``x -> Element``.
    Circles refine by node doubling, polylines by Gauss panels bisected per
    segment, with all segments refined as one stack; ``cap`` bounds the
    nodes of the circle or of each segment.  A function that states its
    degree (see :func:`_integrate`) takes a rule exact for it instead.  A
    ``tol`` or ``cap`` that :func:`quadrature._check` refuses raises
    :class:`ValueError`, naming the value given.

    ``psi`` may also be a list of functions, and the result is then the list
    of their :class:`IntegralResult`.  One run integrates them as a stack
    (:class:`_CurveStack`, one per degree stated) that computes each level's
    points and weight once.  Every function keeps its own convergence test,
    so each result equals, bit for bit, that of the function's own call.
    """
    psis = psi if isinstance(psi, list) else [psi]
    results = _line_integrals(psis, gamma, frame, spec, tol, cap)
    return results if isinstance(psi, list) else results[0]


class _CurveStack:
    """F functions on the P pieces of one curve, as one stack for :func:`_refine`.

    The curve is a :class:`Circle2D`, one piece whose ``dzeta`` changes from
    node to node, or the straight segments ``(starts, directions)`` from
    ``starts[s]`` to ``starts[s] + directions[s]``, each a piece whose
    ``dzeta`` is its constant ``directions[s] @ a``.  Integrand ``i``
    is function ``i // P`` on piece ``i % P``, so each function refines on
    each piece to its own tolerance.  Every integrand's level sums are those
    of ``psi(zeta) dzeta``, times ``factor`` when one is given (the shifted
    inverse of the integral formula).  At the nodes the integrand is
    ``psi(zeta) w``: on a circle the weight ``w`` is ``dzeta`` times the
    factor; on a segment it is the factor alone, or nothing, and
    :meth:`map_sums` multiplies each level's sums by the segment's constant
    ``dzeta``: one product per segment per level, where weighting the nodes
    would take one per node.  ``dzeta`` lives on the
    frame's support, and its products take only the triples there.  The
    factor takes the nodes relative to its ``shift``, so a small curve far
    from 0 keeps every digit of its offsets.

    :meth:`level` gives the evaluator of one level's nodes ``tau``: the
    values of the integrands ``rows`` at every node, shaped ``(rows,
    nodes, columns)``.  Its functions are evaluated one at a time, each on
    its pieces among ``rows``.  The points of a set of pieces, and their
    weight, are computed for the first function that needs them and kept
    until the level ends, for the next functions on the same pieces: on a
    circle that is every function.  Segments with no factor have no
    weight, and keep no points: a Morera level would keep every edge's.
    A circle level takes its points and ``dzeta`` from the circle's own
    :meth:`~Circle2D.points` and :meth:`~Circle2D.tangents`; nothing
    outlives a level.

    Functions of ``degree`` p in the point (no factor) make the stack's
    integrands polynomials of degree p in a segment's parameter and
    trigonometric polynomials of degree p + 1 on a circle: the stack states
    that as its ``degree``, for the rule (``None``: no degree).
    """

    def __init__(self, psis, frame, spec, curve, factor=None, degree=None):
        self.psis = psis
        self.frame = frame
        self.spec = spec
        self.factor = factor
        self.degree = degree
        if isinstance(curve, Circle2D):
            self.circle, self.pieces = curve, 1
            self.degree = None if degree is None else degree + 1
        else:
            self.starts, self.directions = curve
            self.circle, self.pieces = None, len(self.starts)
            self.increments = self.directions @ frame.a

    def __len__(self):
        return len(self.psis) * self.pieces

    def level(self, tau):
        shared = {}  # a function's pieces -> their points and their weight

        def evaluate(rows):
            owners = rows // self.pieces  # the function of each integrand
            out = []
            for j in dict.fromkeys(owners.tolist()):  # in order; each function's rows are adjacent
                pieces = rows[owners == j] - j * self.pieces
                at = shared.setdefault(pieces.tobytes(), {}) if self.circle or self.factor else {}
                out.append(self._values(tau, j, pieces, at))
            return out[0] if len(out) == 1 else np.concatenate(out)

        return evaluate

    def map_sums(self, sums, rows):
        """Level sums of the integrands ``rows`` times their segments' ``dzeta``."""
        if self.circle:
            return sums
        return _multiply_coords(sums, self.increments[rows % self.pieces], self.spec,
                                right=self.frame._support)

    def _points(self, tau, pieces, origin=0.0):
        """The points of ``pieces`` at the nodes ``tau``, one row per node of
        each piece, relative to ``origin``."""
        if self.circle:
            return self.circle.points(tau, origin)
        points = (self.starts - origin)[pieces, None] + tau[:, None] * self.directions[pieces, None]
        return points.reshape(-1, points.shape[-1])

    def _weight(self, tau, pieces):
        """The weight at the nodes: on a circle ``dzeta``, times the factor
        when there is one; on segments the factor, or ``None``."""
        frame, spec, factor = self.frame, self.spec, self.factor
        if factor is None:
            return self.circle.tangents(tau) @ frame.a if self.circle else None
        values = eval_batch(factor, frame, self._points(tau, pieces, factor.shift), spec)
        if not self.circle:
            return values
        # dzeta after the factor, so it meets none of the factor's temporaries (peak memory)
        return _multiply_coords(values, self.circle.tangents(tau) @ frame.a, spec,
                                right=frame._support)

    def _values(self, tau, j, pieces, at):
        """Function ``j`` times the weight on ``pieces`` at the nodes ``tau``,
        shaped ``(pieces, nodes, columns)``.

        ``at`` keeps the points and the weight on these pieces for the
        level's other functions.
        """
        def once(name, make):
            if name not in at:
                at[name] = make()
            return at[name]

        frame, spec, psi, factor = self.frame, self.spec, self.psis[j], self.factor
        xs = once("points", lambda: self._points(tau, pieces))
        try:
            # the weight first, so its offsets' temporaries meet no values (peak memory)
            weight = once("weight", lambda: self._weight(tau, pieces))
            vals = eval_batch(psi, frame, xs, spec)
        except MonalgError as exc:
            failed = [(psi, frame, spec, xs)]
            if factor is not None:
                failed.append((factor, frame, spec, self._points(tau, pieces, factor.shift)))
            # a node's curve parameter: its piece (0 on a circle) plus its local one
            raise _locate_failure(failed, (pieces[:, None] + tau).ravel(), exc) from exc
        if weight is not None:
            # with no factor the weight is dzeta, which lives on the frame's support
            vals = _multiply_coords(vals, weight, spec,
                                    right=frame._support if factor is None else None)
        return vals.reshape(pieces.size, tau.size, -1)


def _degree(psi):
    """The degree of ``psi`` as a polynomial in the point, when it states
    one as an integer ``degree`` of at least 0 (a :class:`Polynomial` in
    ``zeta`` does, ``zeta`` being linear in the point), or ``None``."""
    degree = getattr(psi, "degree", None)
    return degree if isinstance(degree, int) and not isinstance(degree, bool) and degree >= 0 else None


def _assemble(res, rows, value) -> IntegralResult:
    """The :class:`IntegralResult` of the integrands ``rows`` (one function's
    pieces) of a stack's result ``res``: value ``value(res.value[rows])``,
    the pieces' deltas and nodes summed, converged when all are, and their
    history."""
    return IntegralResult(value(res.value[rows]), float(res.segment_deltas[rows].sum()),
                          int(res.segment_nodes[rows].sum()),
                          bool(res.segment_converged[rows].all()),
                          _history(res.levels, rows.start, rows.stop), res.exact)


def _integrate(psis, frame, spec, curve, tol, cap, value, factor=None) -> list:
    """The :class:`IntegralResult` of each of ``psis`` on the pieces of
    ``curve``, a circle or the ``(starts, directions)`` of segments, its
    value ``value`` of its pieces' integrals (see :func:`_assemble`).

    The one place that chooses the rule.  The functions that state the same
    degree (:func:`_degree`) form a stack of that degree, which the rule
    integrates exactly in one level when its nodes fit; with a ``factor``,
    or with no degree, the functions form one stack, refined.  Each piece
    takes the tolerance ``tol``.  A stack multiplies the sums of each
    evaluator call by its segments' ``dzeta`` (:meth:`_CurveStack.map_sums`),
    and its functions are assembled before the next stack runs.
    """
    rule = trapezoid_periodic if isinstance(curve, Circle2D) else gauss_segment
    groups = {}  # a stated degree (None: none) -> its functions' indices
    for j, psi in enumerate(psis):
        groups.setdefault(None if factor is not None else _degree(psi), []).append(j)
    out = [None] * len(psis)
    for degree, js in groups.items():
        stack = _CurveStack([psis[j] for j in js], frame, spec, curve, factor, degree)
        res = rule(stack, tol=tol, cap=cap)
        for i, j in enumerate(js):
            out[j] = _assemble(res, slice(i * stack.pieces, (i + 1) * stack.pieces), value)
        del stack, res  # before the next stack runs (peak memory)
    return out


def _line_integrals(psis, gamma, frame, spec, tol, cap, factor=None) -> list:
    """:func:`line_integral` of each of ``psis`` along ``gamma``, by :func:`_integrate`.

    ``factor`` multiplies every function's values at each node.  ``tol`` and
    ``cap`` are checked first.  Each piece refines ``psi dzeta`` to its
    share of ``tol``, and a result's value is the sum of its pieces'.
    """
    _check(tol, cap)
    if isinstance(gamma, Circle2D):
        curve, share = gamma, tol
    else:
        segments = np.array(gamma.segments())  # (S, 2, k)
        curve, share = (segments[:, 0], segments[:, 1] - segments[:, 0]), tol / len(segments)
    return _integrate(psis, frame, spec, curve, share, cap,
                      lambda rows: Element(gamma.orientation * rows.sum(axis=0)), factor)


# -- winding numbers ----------------------------------------------------------


def winding_certificate(gamma, frame: Frame, center_x, spec: AlgebraSpec) -> EmbraceCertificate:
    """Winding number of each spectral image around the image of the center.

    Exact, without sampling.  On a circle ``c + r (cos tau p + sin tau q)``
    the image ``w_u = A_u + P_u z + Q_u / z``, ``z = e^{i tau}``, winds once
    less than ``P_u z^2 + A_u z + Q_u`` has roots in ``|z| < 1``.  A closed
    polyline's image is a polygon whose edges, missing 0, turn by less than
    pi each.  Raises :class:`IntegrationError` at the curve's parameter
    (radians, or ``s + t`` at ``t`` along segment ``s``) where a spectral
    image ``xi_u(x - x_c)`` is on the locus at ``|x - x_c|``, as the
    integrands of the formula and lambda refuse a node: at the roots'
    angles on a circle, and on a polyline at each edge's point nearest 0,
    with the edge's farther end as its size.
    """
    if not gamma.closed:
        raise ValueError("winding numbers need a closed curve")
    center = np.asarray(center_x, dtype=np.float64)
    if isinstance(gamma, Circle2D):
        a = ((gamma.center - center) @ frame.a)[: spec.m]
        p, q = gamma.radius * (gamma.plane @ frame.a)[:, : spec.m] / 2
        roots = [np.roots(coeffs) for coeffs in zip(p - 1j * q, a, p + 1j * q)]
        # nearest the locus at the roots' angles; tau = 0 covers an image Q_u / z, which has none
        taus = np.mod(np.angle(np.concatenate([[1.0], *roots])), 2.0 * np.pi)
        rel = gamma.points(taus, center)
        near = np.min(np.abs((rel @ frame.a)[:, : spec.m]), axis=1)
        size = np.linalg.norm(rel, axis=1)
        turns = [np.sum(np.abs(r) < 1.0) - 1 for r in roots]
    else:
        rel = gamma.vertices - center
        w = (rel @ frame.a)[:, : spec.m]  # (V, m)
        edges = np.roll(w, -1, axis=0) - w
        length_sq = np.maximum(np.abs(edges) ** 2, np.finfo(float).tiny)
        along = np.clip(-np.real(np.conj(w) * edges) / length_sq, 0.0, 1.0)  # nearest to 0
        distance = np.abs(w + along * edges)
        taus = np.arange(len(w)) + along[np.arange(len(w)), np.argmin(distance, axis=1)]
        near = distance.min(axis=1)
        reach = np.linalg.norm(rel, axis=1)
        size = np.maximum(reach, np.roll(reach, -1))
        turns = np.rint(np.angle(np.roll(w, -1, axis=0) * np.conj(w)).sum(axis=0) / (2.0 * np.pi))
    hits = _on_locus(near, size)
    if hits.any():
        tau = float(taus[np.argmin(np.where(hits, near, np.inf))])
        raise IntegrationError(
            f"curve passes through the shifted noninvertible locus at tau={tau:.6g}", tau=tau)
    return EmbraceCertificate(windings=tuple(int(gamma.orientation * t) for t in turns))


# -- the constant lambda -------------------------------------------------------


class _InverseIntegrand:
    """Batch ``(embedded x - shift)^{-1}`` from the offsets ``x - shift``; refuses the locus."""

    def __init__(self, shift=0.0):
        self.shift = shift

    def eval_many(self, frame, offsets, spec):
        return inverse_many(frame, offsets, spec)


def compute_lambda(spec: AlgebraSpec, frame: Frame, circle,
                   tol: float = _LINE_TOL, cap: int = DEFAULT_CAP) -> LambdaResult:
    """The element ``integral of zeta^{-1} dzeta`` over the circle.

    Also reports the idempotent projection (equal to 2 pi i times the unit
    for winding-one circles) and the leftover nilpotent component integrals.
    """
    cert = winding_certificate(circle, frame, np.zeros(circle.k), spec)
    res = line_integral(_InverseIntegrand(), circle, frame, spec, tol=tol, cap=cap)
    lam = res.value
    two_pi_i = 2j * np.pi * spec.unit_coords()
    return LambdaResult(
        value=lam,
        idempotent_part=lam.coords[: spec.m].copy(),
        nilpotent_residuals=lam.coords[spec.m:].copy(),
        windings=cert.windings,
        deviation_from_two_pi_i=float(np.linalg.norm(lam.coords - two_pi_i)),
        error_estimate=res.error_estimate,
        nodes=res.nodes,
        converged=res.converged,
        history=res.history,
    )


# -- named checks ---------------------------------------------------------------


def _integral_report(name, res, residual, tolerance, reference=None,
                     **diagnostics) -> VerificationReport:
    """The report of a check on one integral ``res``, an :class:`IntegralResult`
    or a :class:`LambdaResult`: its value, and ``diagnostics`` with the
    integral's nodes, convergence flag and refinement history, and
    ``exact_rule`` when a rule exact for the function's degree took it
    (never a lambda).  A
    diagnostic whose value is ``None`` is left out.  Every check on an
    integral, Morera's included, builds its report here."""
    fields = {"nodes": res.nodes, "converged": res.converged,
              "exact_rule": getattr(res, "exact", False) or None, "history": res.history}
    diagnostics = {key: v for key, v in {**diagnostics, **fields}.items() if v is not None}
    return VerificationReport(name, residual, tolerance, value=res.value, reference=reference,
                              diagnostics=diagnostics)


def _max_norm_on_curve(psi, gamma, frame, spec, samples: int = 128) -> float:
    pts = gamma.sample(samples) if isinstance(gamma, Circle2D) else gamma.sample(per_segment=32)
    vals = eval_batch(psi, frame, pts, spec)
    return float(np.max(np.linalg.norm(vals, axis=-1)))


def cauchy_theorem_check(phi, gamma_closed, frame: Frame, spec: AlgebraSpec,
                         tol: float | None = None,
                         cap: int = DEFAULT_CAP) -> VerificationReport | list:
    """Closed-curve integral of a monogenic function; the residual is its norm.

    With no ``tol``, each function's tolerance scales with its largest norm
    on the curve.  ``phi`` may be a list of functions: :func:`line_integral`
    integrates them as one stack, and a list of reports is returned.
    """
    if not gamma_closed.closed:
        raise ValueError("the integral-theorem check needs a closed curve")
    phis = phi if isinstance(phi, list) else [phi]
    reports = []
    for f, res in zip(phis, line_integral(phis, gamma_closed, frame, spec, cap=cap)):
        f_tol = tol
        if f_tol is None:
            scale = gamma_closed.length() * max(1.0, _max_norm_on_curve(f, gamma_closed, frame, spec))
            f_tol = 1e-9 * scale
        reports.append(_integral_report("closed-curve-integral", res, res.value.norm(), f_tol,
                                        0.0, quadrature_error=res.error_estimate))
    return reports if isinstance(phi, list) else reports[0]


def morera_check(phi, frame: Frame, spec: AlgebraSpec, sampler: TriangleSampler,
                 n_triangles: int = 200, tol: float = 1e-8,
                 rng: np.random.Generator | None = None,
                 triangles: np.ndarray | None = None,
                 cap: int = DEFAULT_CAP) -> VerificationReport | list:
    """Worst triangle-boundary integral over randomly sampled triangles.

    ``triangles``, a ``(T, 3, k)`` array of finite vertices, replaces the
    ``n_triangles`` draws from ``sampler``.  The 3T boundary segments are
    integrated by :func:`_integrate`, as :func:`line_integral` integrates a
    polyline's, each evaluator call's sums times its edges' ``dzeta``: a
    function that states its degree takes a rule exact for it, ``degree //
    2 + 1`` Gauss-Legendre nodes an edge (``exact_rule``); any other is
    refined, each segment up to ``cap`` nodes and to the tolerance
    :func:`line_integral` gives it.  The report's value is the worst
    triangle's norm.  A ``cap`` that :func:`quadrature._check` refuses
    raises :class:`ValueError` before any triangle is drawn.  ``phi`` may
    be a list of functions, sharing the edges, and a list of reports, each
    that of the function's own call, is returned.
    """
    share = _LINE_TOL / 3  # line_integral's default tolerance, split over three segments
    _check(share, cap)
    if triangles is None:
        rng = rng if rng is not None else np.random.default_rng(0)
        triangles = sampler.sample(rng, n_triangles)
    triangles = np.asarray(triangles, dtype=np.float64)
    if triangles.ndim != 3 or triangles.shape[1] != 3 or len(triangles) == 0:
        raise ValueError(f"need a (T, 3, k) array of T >= 1 triangles, got shape {triangles.shape}")
    if not np.isfinite(triangles).all():
        raise ValueError("triangle vertices must be finite")
    count, _, k = triangles.shape
    edges = (triangles.reshape(-1, k), (np.roll(triangles, -1, axis=1) - triangles).reshape(-1, k))
    phis = phi if isinstance(phi, list) else [phi]
    # the orientation flips the sign of a boundary integral, not its norm
    results = _integrate(phis, frame, spec, edges, share, cap, lambda rows: np.linalg.norm(
        rows.reshape(count, 3, spec.n).sum(axis=1), axis=1))
    reports = []
    for res in results:
        worst = int(np.argmax(res.value))
        norm = float(res.value[worst])
        reports.append(_integral_report("triangle-boundary-integral", replace(res, value=norm),
                                        norm, tol, 0.0, triangles=count,
                                        worst_triangle=triangles[worst].tolist()))
    return reports if isinstance(phi, list) else reports[0]


def cauchy_formula_check(phi, center_x, gamma, frame: Frame, spec: AlgebraSpec,
                         tol: float = 1e-8, cap: int = DEFAULT_CAP) -> VerificationReport | list:
    """Compare ``2 pi i phi(center)`` with the formula integral around it.

    In a commutative associative algebra ``(zeta - zeta_c)^{-1} dzeta`` is
    ``d log(zeta - zeta_c)``, whose nilpotent part is single-valued, so
    ``integral of (zeta - zeta_c)^{-1} dzeta = 2 pi i sum_u w_u I_u`` exactly,
    with ``w_u`` the windings of :func:`winding_certificate`.  The check runs
    only when every ``w_u`` is 1, and ``sum_u I_u`` is the unit; the integral
    of ``phi(zeta) (zeta - zeta_c)^{-1} dzeta`` is then ``2 pi i phi(zeta_c)``.
    Any other winding raises :class:`EmbracingError`.

    ``phi`` may be a list of functions, and a list of reports is returned.
    The functions then share the winding certificate, and their formula
    integrals are refined as one stack, whose levels compute the shifted
    inverse once for all of them; each report equals that of the function's
    own call.
    """
    center = np.asarray(center_x, dtype=np.float64)
    cert = winding_certificate(gamma, frame, center, spec)
    if not cert.embraces_once:
        raise EmbracingError(
            f"curve does not embrace the center once: windings {cert.windings}",
            certificate=cert,
        )
    phis = phi if isinstance(phi, list) else [phi]
    results = _line_integrals(phis, gamma, frame, spec, _LINE_TOL, cap,
                              factor=_InverseIntegrand(shift=center))
    reports = []
    for f, res in zip(phis, results):
        reference = 2j * np.pi * eval_function(f, frame, center, spec)
        reports.append(_integral_report("integral-formula", res, (reference - res.value).norm(),
                                        tol, reference, windings=cert.windings))
    return reports if isinstance(phi, list) else reports[0]
