"""Kernel timings on fixed seeded inputs, through public entry points.

    python3 perfbench/kernels.py OUT_JSON SEED ALGEBRA [FRAME_FILE]

``ALGEBRA`` is a built-in name (its ``default`` frame is used) or an algebra
file, which then needs ``FRAME_FILE``.  Each timing is the median of
``REPEATS`` calls after one warm-up call, on ``POINTS`` points drawn from the
seed with every spectral value at least 0.25 from zero:

- ``algebra.product_s``: ``eval_batch`` of ``zeta^2`` (the batch product);
- ``resolvent.inverse_s``: ``inverse_many``;
- ``resolvent.kernel_s``: ``eval_batch`` of ``ResolventKernel(3+3j)``;
- ``monogenic.principal_pt_s``: ``eval_batch`` of the principal extension
  with ``F_u = exp(0.5 t)`` for every idempotent, on ``PRINCIPAL_POINTS``
  points, per point.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

from monalg.catalog import builtin_algebra, builtin_frames
from monalg.frames import embed_many
from monalg.io import load_algebra, load_frame
from monalg.monogenic import (
    HolomorphicScalarSpec,
    PrincipalExtension,
    ResolventKernel,
    eval_batch,
    zeta_power,
)
from monalg.resolvent import inverse_many

POINTS = 32768
PRINCIPAL_POINTS = 64
REPEATS = 3
KERNEL_T = 3.0 + 3.0j
EXP = HolomorphicScalarSpec("exponential", (1.0, 0.5))


def resolve(algebra: str, frame_file: str | None):
    if frame_file is None:
        spec = builtin_algebra(algebra)
        return spec, builtin_frames(spec)["default"]
    spec = load_algebra(algebra)
    return spec, load_frame(frame_file, spec)


def sample_points(rng, frame, spec, count: int, margin: float = 0.25) -> np.ndarray:
    out = np.empty((0, frame.k))
    while len(out) < count:
        xs = rng.uniform(-1.0, 1.0, size=(count, frame.k))
        xi = embed_many(frame, xs)[:, : spec.m]
        out = np.concatenate([out, xs[np.min(np.abs(xi), axis=1) > margin]])
    return out[:count]


def median_time(fn, repeats: int = REPEATS) -> float:
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(spec, frame, seed: int) -> dict:
    xs = sample_points(np.random.default_rng([seed, 7]), frame, spec, POINTS)
    square = zeta_power(2, spec)
    kernel = ResolventKernel(KERNEL_T)
    principal = PrincipalExtension(F=(EXP,) * spec.m)
    few = xs[:PRINCIPAL_POINTS]
    return {
        "algebra.product_s": median_time(lambda: eval_batch(square, frame, xs, spec)),
        "resolvent.inverse_s": median_time(lambda: inverse_many(frame, xs, spec)),
        "resolvent.kernel_s": median_time(lambda: eval_batch(kernel, frame, xs, spec)),
        "monogenic.principal_pt_s":
            median_time(lambda: eval_batch(principal, frame, few, spec)) / len(few),
    }


def main(argv) -> int:
    out, seed, algebra, *frame_file = argv
    spec, frame = resolve(algebra, frame_file[0] if frame_file else None)
    with open(out, "w") as handle:
        json.dump(measure(spec, frame, int(seed)), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
