"""Named verification suites over one algebra and its frames.

Each suite returns a list of reports; the union of the suites is what the
command line runs.  Random draws always come from a generator derived from
the experiment seed plus a per-suite tag, so reports are reproducible.

The formula suite's circles and square, and the lambda suite's circle,
lie in the plane of widest margin of a ``k = 3`` frame
(:func:`monalg.frames.widest_plane`), oriented so that every spectral
image winds once, and their records carry that plane's ``margin``.  Other
frames, and ``k = 3`` frames with no plane of positive margin, keep
coordinate plane (1,2).  The cauchy and Morera curves do not depend on the
frame.

State lives for one :func:`run_suites` call and no longer: a
:class:`_LambdaMemo` holds each frame's lambda on the lambda circle, so
the lambda and predicates suites integrate it once between them.  A suite
called alone makes its own memo.  The formula suite reads no lambda: its
reference comes from its curves' winding certificates.
"""

from __future__ import annotations

import time

import numpy as np

from .algebra import AlgebraSpec, validate_algebra
from .algebra import _left_mul_coords, _multiply_coords
from .curves import Circle2D, Polyline, TriangleSampler, coordinate_plane
from .frames import Frame, embed_many, widest_plane
from .integrals import (
    VerificationReport,
    _integral_report,
    cauchy_formula_check,
    cauchy_theorem_check,
    compute_lambda,
    morera_check,
)
from .io import _check
from .monogenic import ResolventKernel, constant, cr_residual, zeta, zeta_power
from .predicates import theorem5_predicate, theorem6_predicate, theorem7_predicate
from .quadrature import _BLOCK_POINTS, DEFAULT_CAP
from .resolvent import _inverse_coords, _resolvent_coords

__all__ = ["SUITES", "run_suites"]

_KERNEL_T = 3.0 + 3.0j


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _phi_set(spec: AlgebraSpec):
    return [
        ("zeta", zeta(spec)),
        ("zeta^2", zeta_power(2, spec)),
        ("zeta^3", zeta_power(3, spec)),
        ("kernel", ResolventKernel(_KERNEL_T)),
    ]


class _Control:
    """The non-monogenic necessity control ``x -> x_2 I_1``, linear in ``x``."""

    degree = 1  # so every curve integrates it exactly

    def __init__(self, spec: AlgebraSpec):
        self.n = spec.n

    def eval_many(self, frame, xs, spec) -> np.ndarray:
        out = np.zeros((len(xs), self.n), dtype=np.complex128)
        out[:, 0] = xs[:, 1]
        return out


def _necessity_control(suite: str, required_min: float, observed: float) -> VerificationReport:
    """The control's check: the non-monogenic function must NOT integrate to zero."""
    return VerificationReport(
        f"{suite}/necessity-control",
        residual=required_min - observed,
        tolerance=0.0,
        value=observed,
        diagnostics={"required_min": required_min, "observed": observed},
    )


def _sample_invertible(rng, frame: Frame, spec: AlgebraSpec, count: int,
                       margin: float = 0.25, box: float = 2.0) -> np.ndarray:
    """Random points with every spectral component at least ``margin`` away
    from zero (keeps the inverse well conditioned)."""
    out = []
    needed = count
    while needed > 0:
        xs = rng.uniform(-box, box, size=(2 * needed + 16, frame.k))
        xi = embed_many(frame, xs)[:, : spec.m]
        good = xs[np.min(np.abs(xi), axis=1) > margin]
        out.append(good[:needed])
        needed -= len(good[:needed])
    return np.concatenate(out, axis=0)


def _standard_circle(k: int, radius: float = 1.0) -> Circle2D:
    return Circle2D(np.zeros(k), radius, coordinate_plane(k, 1, 2))


def _standard_curves(k: int):
    """Two circles in distinct planes plus a closed square polyline."""
    curves = [("circle-x1x2", _standard_circle(k))]
    if k >= 3:
        curves.append(("circle-x2x3", Circle2D(np.zeros(k), 0.8, coordinate_plane(k, 2, 3))))
    else:
        curves.append(("circle-small", _standard_circle(k, 0.5)))
    square = np.zeros((4, k))
    square[:, 0] = [0.9, -0.9, -0.9, 0.9]
    square[:, 1] = [0.9, 0.9, -0.9, -0.9]
    curves.append(("square", Polyline(square, closed=True)))
    return curves


def _curve_plane(frame: Frame, spec: AlgebraSpec):
    """The plane of the formula and lambda curves, and its margin: the
    widest plane of a ``k = 3`` frame that has one, else coordinate plane
    (1,2) and no margin (``None``)."""
    widest = widest_plane(frame, spec) if frame.k == 3 else None
    if widest is None:
        return coordinate_plane(frame.k, 1, 2), None
    return widest.plane, widest.margin


def _lambda_circle(frame: Frame, spec: AlgebraSpec):
    """The lambda suite's unit circle about 0, in :func:`_curve_plane`, and its margin."""
    plane, margin = _curve_plane(frame, spec)
    return Circle2D(np.zeros(frame.k), 1.0, plane), margin


class _LambdaMemo:
    """The lambda integrals of one :func:`run_suites` call, for the lambda
    and predicates suites.

    ``integrated`` maps a frame to its ``LambdaResult`` on the lambda circle
    (:func:`_lambda_circle`) and that circle's margin.  It is the only
    lambda the suites integrate, so the map's size is the number of
    integrals made.  It is keyed by the frame, not by its name, because
    one frame may have two names (a semisimple algebra's ``default`` and
    ``in-s``).
    """

    def __init__(self):
        self.integrated = {}

    def on_circle(self, spec: AlgebraSpec, frame: Frame, options):
        """``(LambdaResult, margin)`` of ``frame``, integrated on first use."""
        if frame not in self.integrated:
            circle, margin = _lambda_circle(frame, spec)
            self.integrated[frame] = (compute_lambda(spec, frame, circle,
                                                     cap=options.get("nodes_cap", DEFAULT_CAP)),
                                      margin)
        return self.integrated[frame]


# -- suites --------------------------------------------------------------------


def suite_axioms(spec, frames, seed, options) -> list:
    report = validate_algebra(spec)
    tol = options.get("tol", 1e-14)
    out = [
        VerificationReport(
            "axioms/rules",
            residual=0.0 if (report.rule1_ok and report.rule2_support_ok and report.rule3_ok) else 1.0,
            tolerance=0.0,
            diagnostics={"warnings": list(report.warnings)},
        ),
        VerificationReport(
            "axioms/associativity-nilpotent", report.assoc_A1_max_residual, tol
        ),
        VerificationReport(
            "axioms/associativity-mixed", report.assoc_A2_max_residual, tol
        ),
        VerificationReport(
            "axioms/unit", residual=0.0 if report.unit_ok else 1.0, tolerance=0.0
        ),
        VerificationReport(
            "axioms/nilpotency-index",
            residual=0.0 if 1 <= report.nilpotency_index <= report.dim_bound else 1.0,
            tolerance=0.0,
            diagnostics={"nilpotency_index": report.nilpotency_index},
        ),
    ]
    return out


def suite_oracle(spec, frames, seed, options) -> list:
    """The paper's inverse and resolvent against a dense solve and the
    resolvent identity, at ``points`` random points.

    Every point is drawn first, then checked in batches of at most
    ``_BLOCK_POINTS``: the dense left-multiplication matrices are the
    suite's largest arrays.  Each row is computed on its own, so the
    residuals do not depend on the batches.
    """
    frame = frames["default"]
    rng = _rng(seed, 2)
    count = options.get("points", 1000)
    xs = _sample_invertible(rng, frame, spec, count)
    emb = embed_many(frame, xs)

    # a random admissible t per point for the resolvent identity, drawn
    # after every point
    xi = emb[:, : spec.m]
    t = np.empty(count, dtype=np.complex128)
    remaining = np.arange(count)
    while remaining.size:
        cand = rng.uniform(-3, 3, size=(remaining.size, 2))
        tc = cand[:, 0] + 1j * cand[:, 1]
        ok = np.min(np.abs(tc[:, None] - xi[remaining]), axis=1) > 0.25
        t[remaining[ok]] = tc[ok]
        remaining = remaining[~ok]

    unit = spec.unit_coords()
    inv_residuals, res_residuals = [], []
    for lo in range(0, count, _BLOCK_POINTS):
        batch, tb = emb[lo:lo + _BLOCK_POINTS], t[lo:lo + _BLOCK_POINTS]
        ours = _inverse_coords(batch, spec, frame._support)
        stacked = _left_mul_coords(batch, spec)
        rhs = np.broadcast_to(unit[:, None], (len(batch), spec.n, 1))
        oracle = np.linalg.solve(stacked, rhs)[..., 0]
        del stacked  # the largest array, gone before the resolvent's (peak memory)
        inv_residuals.append(np.max(np.linalg.norm(ours - oracle, axis=1)))
        res = _resolvent_coords(tb, batch, spec, frame._support)
        shifted = tb[:, None] * unit - batch
        prod = _multiply_coords(shifted, res, spec)
        res_residuals.append(np.max(np.linalg.norm(prod - unit, axis=1)))
    inv_residual = float(np.max(inv_residuals))
    res_residual = float(np.max(res_residuals))

    tol = options.get("tol", 1e-10)
    return [
        VerificationReport(
            "oracle/inverse-agreement", inv_residual, tol, diagnostics={"points": count}
        ),
        VerificationReport(
            "oracle/resolvent-identity", res_residual, tol, diagnostics={"points": count}
        ),
    ]


def suite_cr(spec, frames, seed, options) -> list:
    frame = frames["default"]
    rng = _rng(seed, 3)
    x = 0.5 * rng.standard_normal(frame.k)
    out = []
    floor = 1e-11
    for name, phi in _phi_set(spec):
        coarse = max(cr_residual(phi, frame, x, 1e-3, spec))
        fine = max(cr_residual(phi, frame, x, 5e-4, spec))
        at_h4 = max(cr_residual(phi, frame, x, 1e-4, spec))
        if coarse > floor:
            ratio = coarse / fine
            ratio_residual = abs(ratio - 4.0)
            diag = {"ratio": ratio, "coarse": coarse, "fine": fine}
        else:
            # the difference scheme is exact for this function; the decay
            # claim holds trivially at roundoff level
            ratio_residual = 0.0
            diag = {"exact_at_roundoff": True, "coarse": coarse}
        out.append(
            VerificationReport(
                f"cr/ratio[{name}]", ratio_residual, 0.5, diagnostics=diag
            )
        )
        out.append(
            VerificationReport(
                f"cr/residual[{name}]",
                at_h4,
                options.get("tol", 1e-6),
                diagnostics={"h": 1e-4},
            )
        )
    return out


def suite_cauchy(spec, frames, seed, options) -> list:
    frame = frames["default"]
    phis = _phi_set(spec)
    cap = options.get("nodes_cap", DEFAULT_CAP)
    out = []
    for cname, curve in _standard_curves(frame.k):
        # the non-monogenic necessity control joins the standard circle
        control = [_Control(spec)] if cname == "circle-x1x2" else []
        reports = cauchy_theorem_check([phi for _, phi in phis] + control, curve, frame, spec,
                                       cap=cap)
        for (pname, _), rep in zip(phis, reports):
            rep.name = f"cauchy/{cname}[{pname}]"
            out.append(rep)
        if control:
            control_rep = reports[-1]
    out.append(_necessity_control("cauchy", 0.1, control_rep.residual))
    return out


def suite_lambda(spec, frames, seed, options, lambdas=None) -> list:
    lambdas = lambdas or _LambdaMemo()
    out = []
    tol = options.get("tol", 1e-8)
    for fname, frame in frames.items():
        lam, margin = lambdas.on_circle(spec, frame, options)
        two_pi_i = 2j * np.pi
        idem_residual = float(
            np.max(np.abs(lam.idempotent_part - two_pi_i * np.ones(spec.m)))
        )
        out.append(_integral_report(f"lambda/deviation[{fname}]", lam,
                                    lam.deviation_from_two_pi_i, tol, windings=lam.windings,
                                    margin=margin))
        out.append(
            VerificationReport(
                f"lambda/idempotent-projection[{fname}]",
                idem_residual,
                options.get("tol", 1e-10),
            )
        )
        if theorem6_predicate(frame, spec):
            out.append(
                VerificationReport(
                    f"lambda/nilpotent-residuals[{fname}]",
                    float(np.max(np.abs(lam.nilpotent_residuals), initial=0.0)),
                    options.get("tol", 1e-12),
                )
            )
    return out


def suite_morera(spec, frames, seed, options) -> list:
    frame = frames["default"]
    sampler = TriangleSampler(np.zeros(frame.k), 1.0)
    triangles = sampler.sample(_rng(seed, 6), options.get("triangles", 200))
    phis = _phi_set(spec)
    # the non-monogenic necessity control joins the functions' run
    reports = morera_check([phi for _, phi in phis] + [_Control(spec)], frame, spec, sampler,
                           tol=options.get("tol", 1e-8), triangles=triangles,
                           cap=options.get("nodes_cap", DEFAULT_CAP))
    for (name, _), rep in zip(phis, reports):
        rep.name = f"morera/{name}"
    return reports[:-1] + [_necessity_control("morera", 1e-3, reports[-1].residual)]


def suite_formula(spec, frames, seed, options) -> list:
    frame = frames["default"]
    plane, margin = _curve_plane(frame, spec)
    center = np.zeros(frame.k)
    center[0], center[1] = 0.2, 0.1
    # the square's corners column by column: as a matrix product of four
    # rows they paged in a BLAS kernel and raised the process's peak memory
    x, y = np.array([[0.5, -0.5, -0.5, 0.5], [0.5, 0.5, -0.5, -0.5]])[:, :, None]
    curves = [
        ("circle-r0.3", Circle2D(center, 0.3, plane)),
        ("circle-r0.7", Circle2D(center, 0.7, plane)),
        ("square", Polyline(center + x * plane[0] + y * plane[1], closed=True)),
    ]
    phis = [("one", constant(spec.unit())), ("zeta", zeta(spec)),
            ("zeta^2", zeta_power(2, spec))]
    tol = options.get("tol", 1e-8)
    out = []
    for cname, curve in curves:
        reports = cauchy_formula_check([phi for _, phi in phis], center, curve, frame, spec,
                                       tol=tol, cap=options.get("nodes_cap", DEFAULT_CAP))
        for (pname, _), rep in zip(phis, reports):
            rep.name = f"formula/{cname}[{pname}]"
            if margin is not None:
                rep.diagnostics["margin"] = margin
            out.append(rep)
    return out


def suite_predicates(spec, frames, seed, options, lambdas=None) -> list:
    lambdas = lambdas or _LambdaMemo()
    out = []
    th5 = theorem5_predicate(spec)
    expected = options.get("expected_theorem5_condition")
    diag = {
        "holds": th5.holds,
        "condition": th5.condition,
        "reason": th5.reason,
        "products": th5.products,
        "warnings": th5.warnings,
    }
    if expected is not None:
        out.append(
            VerificationReport(
                "predicates/structure-constants",
                residual=0.0 if th5.condition == expected else 1.0,
                tolerance=0.0,
                diagnostics=diag,
            )
        )
    else:
        out.append(
            VerificationReport(
                "predicates/structure-constants",
                residual=float(max(th5.products, default=0.0)),
                tolerance=None,
                diagnostics=diag,
            )
        )
    lam_tol = options.get("tol", 1e-8)
    for fname, frame in frames.items():
        th6 = theorem6_predicate(frame, spec)
        th7 = theorem7_predicate(frame, spec) if spec.dim_nilpotent == 4 else False
        guaranteed = th5.holds or th6 or th7
        lam, _ = lambdas.on_circle(spec, frame, options)
        if guaranteed:
            out.append(
                VerificationReport(
                    f"predicates/lambda-consistency[{fname}]",
                    lam.deviation_from_two_pi_i,
                    lam_tol,
                    diagnostics={"theorem6": th6, "theorem7": th7, "holds5": th5.holds,
                                 "converged": lam.converged},
                )
            )
        else:
            out.append(
                VerificationReport(
                    f"predicates/lambda-measured[{fname}]",
                    lam.deviation_from_two_pi_i,
                    None,
                    diagnostics={"note": "no structure-constant guarantee applies",
                                 "converged": lam.converged},
                )
            )
    return out


SUITES = {
    "axioms": suite_axioms,
    "oracle": suite_oracle,
    "cr": suite_cr,
    "cauchy": suite_cauchy,
    "lambda": suite_lambda,
    "morera": suite_morera,
    "formula": suite_formula,
    "predicates": suite_predicates,
}


# suites that take the run's lambda memo as ``lambdas=``
_LAMBDA_SUITES = frozenset({"lambda", "predicates"})
# the options the suites read, each with its ``io._KINDS`` kind, as a config
# file gives it; each tolerance that reads "tol" has its default there
_OPTION_KINDS = {"nodes_cap": "count", "tol": "tol", "triangles": "count", "points": "count",
                 "expected_theorem5_condition": "integer"}


def run_suites(names, spec: AlgebraSpec, frames: dict, seed: int = 0,
               options: dict | None = None, timings: list | None = None) -> list:
    """Run the named suites in order and concatenate their reports.

    ``names`` is a list of keys of ``SUITES``, or ``["all"]`` for every
    suite.  One :class:`_LambdaMemo` lives for this call: a frame's lambda
    on the lambda circle is integrated once and read by the lambda and
    predicates suites.  When ``timings`` is a list, one row ``(suite, wall
    seconds, compute_lambda calls)`` is appended to it per suite run.  No
    suite, a suite named twice or an option key outside ``_OPTION_KINDS``
    raises ``ValueError``, and a value not of its key's kind (a ``tol`` that
    is not finite and > 0, a count below 1) raises :class:`SpecFormatError`.
    """
    if isinstance(names, str):
        raise TypeError(f"names must be a list of suite names, got the string {names!r}")
    options = options or {}
    unknown = sorted(set(options) - set(_OPTION_KINDS))
    if unknown:
        raise ValueError(f"unknown suite options {unknown}; known: {sorted(_OPTION_KINDS)}")
    for key, value in options.items():
        _check(value, _OPTION_KINDS[key], f"suite option {key!r}")
    if list(names) == ["all"]:
        names = list(SUITES)
    elif not names:  # a run that checks nothing would pass
        raise ValueError(f"name at least one suite; known: {', '.join(SUITES)}, all")
    elif "all" in names:
        raise ValueError(f"suite 'all' runs every suite and stands alone; got {list(names)}")
    elif len(set(names)) < len(names):
        raise ValueError(f"each suite may be named once; got {list(names)}")
    lambdas = _LambdaMemo()
    reports = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
        shared = {"lambdas": lambdas} if name in _LAMBDA_SUITES else {}
        made, start = len(lambdas.integrated), time.perf_counter()
        reports.extend(SUITES[name](spec, frames, seed, options, **shared))
        if timings is not None:
            timings.append((name, time.perf_counter() - start, len(lambdas.integrated) - made))
    return reports
