"""Library-level check script for the principal-extension workload.

No ``monalg verify`` suite evaluates a ``PrincipalExtension``, so this script
runs the three integral checks on two of them over ``example4`` and writes
the same report files as ``monalg verify --out``.  It calls the resolvent on
a batch of contour parameters ``t`` at one point at a time, the opposite
batching of every suite.

    exp:   F = (exp(0.5 t),)
    mixed: F = (1/(t-5),),  G = (exp(0.5 t), None, 1/(t-5), None)

Each function gets ``cauchy_theorem_check`` on the unit circle in plane
(1,2), ``cauchy_formula_check`` at (0.2, 0.1, 0) on a circle of radius 0.3,
and a seeded ``morera_check`` over 4 triangles.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from monalg.catalog import builtin_algebra, builtin_frames
from monalg.curves import Circle2D, TriangleSampler, coordinate_plane
from monalg.frames import validate_frame
from monalg.integrals import cauchy_formula_check, cauchy_theorem_check, morera_check
from monalg.io import reports_to_csv, reports_to_json, reports_to_text
from monalg.monogenic import HolomorphicScalarSpec, PrincipalExtension

ALGEBRA = "example4"
MORERA_TAG = 6  # the tag the morera suite derives its generator with
EXP = HolomorphicScalarSpec("exponential", (1.0, 0.5))
POLE5 = HolomorphicScalarSpec("rational", (1.0,), denom=(-5.0, 1.0))
FUNCTIONS = (
    ("exp", PrincipalExtension(F=(EXP,))),
    ("mixed", PrincipalExtension(F=(POLE5,), G=(EXP, None, POLE5, None))),
)


def setup():
    """Resolve the algebra and its default frame, as ``monalg verify`` does."""
    spec = builtin_algebra(ALGEBRA)
    frame = builtin_frames(spec)["default"]
    validate_frame(frame, spec)
    return spec, frame


def run_checks(spec, frame, seed: int) -> list:
    k = frame.k
    plane = coordinate_plane(k, 1, 2)
    center = np.zeros(k)
    center[:2] = (0.2, 0.1)
    reports = []
    for name, phi in FUNCTIONS:
        rep = cauchy_theorem_check(phi, Circle2D(np.zeros(k), 1.0, plane), frame, spec)
        rep.name = f"principal/{name}/cauchy"
        reports.append(rep)
        rep = cauchy_formula_check(phi, center, Circle2D(center, 0.3, plane), frame, spec)
        rep.name = f"principal/{name}/formula"
        reports.append(rep)
        rep = morera_check(phi, frame, spec, TriangleSampler(np.zeros(k), 1.0),
                           n_triangles=4, rng=np.random.default_rng([seed, MORERA_TAG]))
        rep.name = f"principal/{name}/morera"
        reports.append(rep)
    return reports


def main(seed: int, out: str, on_setup=lambda: None) -> int:
    """Set up, run the six checks, write ``out``.json/.txt/.csv; 0 iff all pass."""
    spec, frame = setup()
    on_setup()
    reports = run_checks(spec, frame, seed)
    text = reports_to_text(reports)
    sys.stdout.write(text)
    meta = {"algebra": ALGEBRA, "script": "principal-extension", "seed": seed}
    Path(out + ".json").write_text(reports_to_json(reports, config=meta))
    Path(out + ".txt").write_text(text)
    reports_to_csv(reports, out + ".csv")
    return 0 if all(r.passed for r in reports) else 1
