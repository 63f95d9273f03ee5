"""Closed-curve integrals: the vanishing theorem, Morera, and the formula.

Monogenic functions integrate to zero along closed curves; the triangle
version probes hundreds of random planes at once; and around any embraced
center the curvilinear integral formula reproduces 2 pi i times the
function values.
"""

import numpy as np

from monalg import (
    Circle2D,
    Polyline,
    ResolventKernel,
    TriangleSampler,
    builtin_algebra,
    builtin_frames,
    cauchy_formula_check,
    cauchy_theorem_check,
    coordinate_plane,
    line_integral,
    morera_check,
    winding_certificate,
    zeta,
    zeta_power,
)
from monalg.algebra import Element

spec = builtin_algebra("example1")
frame = builtin_frames(spec)["default"]
circle = Circle2D(np.zeros(3), 1.0, coordinate_plane(3, 1, 2))

print("closed-curve integrals over the unit circle:")
for name, phi in (("zeta", zeta(spec)), ("zeta^2", zeta_power(2, spec)),
                  ("kernel", ResolventKernel(3 + 3j))):
    report = cauchy_theorem_check(phi, circle, frame, spec)
    print(f"  {name:8} |integral| = {report.residual:.2e}  passed={report.passed}")


# The identity needs monogenicity: x_2 I_1 is continuous but integrates to
# -pi I_1 around the unit circle.
def control(x):
    return Element([x[1], 0, 0, 0, 0])


res = line_integral(control, circle, frame, spec)
print(f"\nnon-monogenic control: integral = {res.value.coords[0]:.6f} "
      f"(expected {-np.pi:.6f})")

# Morera-style check on 200 random triangles in random 2-planes.
sampler = TriangleSampler(np.zeros(3), 1.0)
rng = np.random.default_rng(4)
report = morera_check(zeta_power(2, spec), frame, spec, sampler,
                      n_triangles=200, rng=rng)
print(f"\nworst triangle-boundary integral of zeta^2: {report.residual:.2e}")

# The integral formula: 2 pi i phi(center) equals the loop integral of
# phi(zeta) (zeta - center)^{-1}.  Windings of the spectral images certify
# the embracing precondition first: each must be one.
center = np.array([0.2, 0.1, -0.1])
loop = Circle2D(center, 0.5, coordinate_plane(3, 1, 2))
cert = winding_certificate(loop, frame, center, spec)
print(f"\nwindings around the center: {cert.windings} "
      f"(embraces once: {cert.embraces_once})")
for name, phi in (("zeta", zeta(spec)), ("zeta^2", zeta_power(2, spec))):
    report = cauchy_formula_check(phi, center, loop, frame, spec)
    print(f"  formula defect for {name}: {report.residual:.2e}")

# Homotopy in action: a square with the same embracing count gives the same
# integral as the circle.
square = Polyline(center + np.array([[0.5, 0.5, 0], [-0.5, 0.5, 0],
                                     [-0.5, -0.5, 0], [0.5, -0.5, 0]]),
                  closed=True)
rep_square = cauchy_formula_check(zeta_power(2, spec), center, square, frame, spec)
rep_circle = cauchy_formula_check(zeta_power(2, spec), center, loop, frame, spec)
print(f"\nsquare vs circle formula integrals differ by "
      f"{(rep_square.value - rep_circle.value).norm():.2e}")
