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

:func:`line_integral`, :func:`cauchy_theorem_check` and
:func:`cauchy_formula_check` also take a list of functions.  The functions
of one curve are then refined as one stack, in one refinement run.  On
circles and segments alike each level's sums are those of ``psi(zeta)
dzeta``, times the shifted inverse ``(zeta - zeta_c)^{-1}`` for the
formula.  On a circle ``dzeta`` changes from node to node, and weights
each node; on a segment it is the constant ``(B - A) @ a``, and multiplies
the segment's level sums, once per level.  Each level computes the curve's
points and the weight at the nodes once for all the functions, and each
function keeps its own convergence test, so every result is bit for bit
that of the function's own call.  A single function is the one-element
case of the same path.

A function's refinement history is read from the run's level records
(:func:`quadrature._history`), and every check on one integral, here and
in the suites and the command line, builds its report with
:func:`_integral_report`: the check's residual and diagnostics beside the
integral's value, nodes, convergence flag and history.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraSpec, Element
from .algebra import _multiply_coords, _on_locus
from .curves import Circle2D, TriangleSampler
from .errors import EmbracingError, IntegrationError, MonalgError
from .frames import Frame
from .monogenic import eval_batch, eval_function
from .quadrature import DEFAULT_CAP, _history, gauss_segment, trapezoid_periodic
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
    """Line-integral value with quadrature diagnostics."""

    value: Element
    error_estimate: float
    nodes: int
    converged: bool
    history: list = field(default_factory=list)


@dataclass(frozen=True)
class EmbraceCertificate:
    """Winding numbers of the spectral images of a curve around a point."""

    windings: tuple

    @property
    def embraces_once(self) -> bool:
        return all(w == 1 for w in self.windings)

    @property
    def orientation_reversed(self) -> bool:
        return all(w == -1 for w in self.windings)


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


def _locate_failure(evaluations, frame, taus, spec, exc) -> IntegrationError:
    """Re-evaluate pointwise to name the parameter where evaluation failed.

    ``evaluations`` are the factors of the integrand, each with its points,
    evaluated in order.  ``taus`` are the curve parameters of the points:
    radians on a circle, ``s + t`` at ``t`` along segment ``s`` of a
    polyline, as in :func:`winding_certificate`.  Morera's segments are the
    3 T edges of its T triangles, so there ``s // 3`` is the triangle.
    """
    for i, tau in enumerate(taus):
        try:
            for psi, xs in evaluations:
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
    nodes of the circle or of each segment.

    ``psi`` may also be a list of functions, and the result is then the list
    of their :class:`IntegralResult`.  One refinement run integrates them as
    a stack (:class:`_CurveStack`) that computes each level's points and
    weight once.  Every function keeps its own convergence test,
    so each result equals, bit for bit, that of the function's own call.
    """
    psis = psi if isinstance(psi, list) else [psi]
    results = _line_integrals(psis, gamma, frame, spec, tol, cap)
    return results if isinstance(psi, list) else results[0]


def _join(arrays):
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


class _CirclePiece:
    """A circle as the one piece of a :class:`_CurveStack`; ``dzeta`` changes
    from node to node."""

    def __init__(self, gamma, frame):
        self.gamma = gamma
        self.frame = frame

    def __len__(self):
        return 1

    def points(self, taus, pieces, origin=0.0):
        return self.gamma.points(taus, origin)

    def dzeta(self, taus, pieces):
        return self.gamma.tangents(taus) @ self.frame.a


class _Segments:
    """Straight segments ``starts[s] -> ends[s]`` as the pieces of a
    :class:`_CurveStack`; a segment's ``dzeta`` is its constant
    ``increments[s]``, ``(B - A) @ a``."""

    def __init__(self, starts, ends, frame):
        self.starts = starts
        self.directions = ends - starts
        self.increments = self.directions @ frame.a

    def __len__(self):
        return len(self.starts)

    def points(self, taus, pieces, origin=0.0):
        """The point at ``taus[i]`` on segment ``pieces[i]``, for each ``i``,
        relative to ``origin``."""
        return (self.starts - origin)[pieces] + taus[:, None] * self.directions[pieces]


class _CurveStack:
    """F functions on the P pieces of one curve, as one stack for :func:`_refine`.

    Integrand ``i`` is function ``i // P`` on piece ``i % P``, so each
    function refines on each piece to its own tolerance.  Every integrand's
    level sums are those of ``psi(zeta) dzeta``, times ``factor`` when one
    is given (the shifted inverse of the integral formula).  At the nodes
    the integrand is ``psi(zeta) w``: on a circle the weight ``w`` is
    ``dzeta`` times the factor; on a segment it is the factor alone, or
    nothing, and :meth:`map_sums` multiplies each level's sums by the
    segment's constant ``dzeta``: one product per segment per level, where
    weighting the nodes would take one per node.  The factor takes the
    nodes relative to its ``shift``, which the pieces compute from the
    curve's geometry, so a small curve far from 0 keeps every digit of its
    offsets.

    ``level(tau)`` returns the evaluator of one level.  A block's functions
    are evaluated one at a time, each on its pieces in the block.  The
    points and the weight of a set of pieces are computed for the first
    function that needs them and kept until the level ends, for the next
    functions on the same pieces: on a circle that is every function.  One
    function takes the same path.
    """

    def __init__(self, psis, frame, spec, pieces, factor=None):
        self.psis = psis
        self.frame = frame
        self.spec = spec
        self.pieces = pieces
        self.factor = factor

    def __len__(self):
        return len(self.psis) * len(self.pieces)

    def level(self, tau):
        count = len(self.pieces)
        shared = {}  # a block's pieces -> their points and weight

        def evaluate(taus, seg):
            owners = (seg[:: tau.size] // count).tolist()  # the function of each integrand
            out = []
            for j in dict.fromkeys(owners):  # in order; each function's integrands are adjacent
                lo = owners.index(j)
                rows = slice(lo * tau.size, (lo + owners.count(j)) * tau.size)
                pieces = seg[rows] - j * count
                at = shared.setdefault(pieces[:: tau.size].tobytes(), {})
                out.append(self._values(j, taus[rows], pieces, at))
            return _join(out)

        return evaluate

    def map_sums(self, sums, seg):
        """Level sums of the integrands ``seg`` times their segments' ``dzeta``."""
        if isinstance(self.pieces, _CirclePiece):
            return sums
        return _multiply_coords(sums, self.pieces.increments[seg % len(self.pieces)], self.spec)

    def _weight(self, taus, pieces):
        """The weight at the nodes; ``None`` on segments with no factor."""
        dz = self.pieces.dzeta(taus, pieces) if isinstance(self.pieces, _CirclePiece) else None
        if self.factor is None:
            return dz
        offsets = self.pieces.points(taus, pieces, self.factor.shift)
        factor = eval_batch(self.factor, self.frame, offsets, self.spec)
        return factor if dz is None else _multiply_coords(factor, dz, self.spec)

    def _values(self, j, taus, pieces, at):
        """Function ``j`` times the weight at ``taus`` on ``pieces``.

        ``at`` keeps the points and the weight at these nodes for the
        level's other functions.
        """
        def once(name, make):
            if name not in at:
                at[name] = make()
            return at[name]

        frame, spec, psi, factor = self.frame, self.spec, self.psis[j], self.factor
        xs = once("points", lambda: self.pieces.points(taus, pieces))
        try:
            # the weight first, so its offsets' temporaries meet no values (peak memory)
            weight = once("weight", lambda: self._weight(taus, pieces))
            vals = eval_batch(psi, frame, xs, spec)
        except MonalgError as exc:
            evaluations = [(psi, xs)]
            if factor is not None:
                evaluations.append((factor, self.pieces.points(taus, pieces, factor.shift)))
            # a node's curve parameter: its piece (0 on a circle) plus its local one
            raise _locate_failure(evaluations, frame, pieces + taus, spec, exc) from exc
        return vals if weight is None else _multiply_coords(vals, weight, spec)


def _line_integrals(psis, gamma, frame, spec, tol, cap, factor=None) -> list:
    """:func:`line_integral` of each of ``psis`` along ``gamma``, as one stack.

    ``factor`` multiplies every function's values at each node.  Each piece
    refines ``psi dzeta`` to its share of ``tol``, and a result's error
    estimate is the sum of its pieces' deltas.
    """
    if not psis:
        return []
    if isinstance(gamma, Circle2D):
        pieces, rule, share = _CirclePiece(gamma, frame), trapezoid_periodic, tol
    else:
        segments = np.array(gamma.segments())  # (S, 2, k)
        pieces = _Segments(segments[:, 0], segments[:, 1], frame)
        rule, share = gauss_segment, tol / len(segments)
    res = rule(_CurveStack(psis, frame, spec, pieces, factor), tol=share, cap=cap)
    count = len(pieces)
    out = []
    for j in range(len(psis)):
        rows = slice(j * count, (j + 1) * count)
        out.append(IntegralResult(
            Element(gamma.orientation * res.value[rows].sum(axis=0)),
            float(res.segment_deltas[rows].sum()),
            int(res.segment_nodes[rows].sum()),
            bool(res.segment_converged[rows].all()),
            _history(res.levels, rows.start, rows.stop),
        ))
    return out


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
    integral's nodes, convergence flag and refinement history."""
    return VerificationReport(name, residual, tolerance, value=res.value, reference=reference,
                              diagnostics={**diagnostics, "nodes": res.nodes,
                                           "converged": res.converged, "history": res.history})


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
                 cap: int = DEFAULT_CAP) -> VerificationReport:
    """Worst triangle-boundary integral over randomly sampled triangles.

    ``triangles``, a ``(T, 3, k)`` vertex array drawn earlier, replaces the
    ``n_triangles`` draws from ``sampler``.  The 3T boundary segments are
    refined as one stack, each up to ``cap`` nodes and to the tolerance
    :func:`line_integral` gives it.
    """
    if triangles is None:
        rng = rng if rng is not None else np.random.default_rng(0)
        triangles = sampler.sample(rng, n_triangles)
    starts = np.asarray(triangles, dtype=np.float64)
    if starts.ndim != 3 or starts.shape[1] != 3 or len(starts) == 0:
        raise ValueError(f"need a (T, 3, k) array of T >= 1 triangles, got shape {starts.shape}")
    k = starts.shape[2]
    edges = _Segments(starts.reshape(-1, k), np.roll(starts, -1, axis=1).reshape(-1, k), frame)
    # line_integral's default tolerance, split over three segments
    res = gauss_segment(_CurveStack([phi], frame, spec, edges), tol=_LINE_TOL / 3, cap=cap)
    # the orientation flips the sign of a boundary integral, not its norm
    norms = np.linalg.norm(res.value.reshape(len(starts), 3, spec.n).sum(axis=1), axis=1)
    worst = int(np.argmax(norms))
    return VerificationReport(
        name="triangle-boundary-integral",
        residual=float(norms[worst]),
        tolerance=tol,
        value=float(norms[worst]),
        reference=0.0,
        diagnostics={
            "triangles": len(starts),
            "nodes": res.nodes,
            "worst_triangle": starts[worst].tolist(),
            "converged": res.converged,
        },
    )


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
