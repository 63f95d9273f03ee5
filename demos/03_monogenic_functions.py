"""Monogenic functions: polynomials, kernels, and the principal extension.

A function of the embedded variable is monogenic when its Gateaux quotients
converge; numerically this shows up as second-order decay of the
characteristic difference residuals.  The principal extension assembles a
function from per-component holomorphic scalars; it is evaluated as a finite
Taylor expansion over the nilpotent radical, which equals the paper's
per-component contour formula.
"""

import numpy as np

from monalg import (
    HolomorphicScalarSpec,
    PrincipalExtension,
    ResolventKernel,
    builtin_algebra,
    builtin_frames,
    cr_residual,
    embed,
    eval_function,
    multiply,
    spectral,
    zeta_power,
)
from monalg.algebra import Element

spec = builtin_algebra("example2")
frame = builtin_frames(spec)["default"]
x = np.array([0.3, -0.2, 0.5])

# The principal extension of the identity scalar F(t) = t reproduces the
# variable itself: the Taylor terms of t at the spectral value are the
# residues the contour formula picks out.
ident = HolomorphicScalarSpec("polynomial", (0, 1))
phi = PrincipalExtension(F=(ident,), G=(None,) * 4)
reconstruction = eval_function(phi, frame, x, spec)
print(f"|principal extension of t - zeta| = "
      f"{(reconstruction - embed(frame, x, spec)).norm():.2e}")

# Difference residuals of the characteristic conditions decay like h^2 for
# monogenic functions (zeta^3 has an exactly quadratic error term), while a
# non-monogenic function plateaus.
print("\nresidual decay, h -> max_j ||D_j phi - (D_1 phi) e_j||:")
print(f"{'h':>8}  {'zeta^3':>12}  {'kernel':>12}  {'x_2 I_1':>12}")


def not_monogenic(pt):
    return Element([pt[1], 0, 0, 0, 0])


for h in (1e-2, 1e-3, 1e-4):
    r_cube = max(cr_residual(zeta_power(3, spec), frame, x, h, spec))
    r_kernel = max(cr_residual(ResolventKernel(3 + 3j), frame, x, h, spec))
    r_bad = max(cr_residual(not_monogenic, frame, x, h, spec))
    print(f"{h:8.0e}  {r_cube:12.3e}  {r_kernel:12.3e}  {r_bad:12.3e}")

# Gateaux quotients (phi(zeta + eps e_2) - phi(zeta)) / eps converge to the
# directional derivative e_2 phi'(zeta); in parameter space the shift is
# eps along x_2.  For zeta^2 the defect against 2 zeta e_2 is exactly linear
# in eps.
e_2 = Element(frame.a[1].copy())
print("\nGateaux quotient of zeta^2 against 2 zeta e_2:")
target = 2 * multiply(embed(frame, x, spec), e_2, spec)
square = zeta_power(2, spec)
for eps in (1e-2, 1e-3, 1e-4):
    step = eval_function(square, frame, x + [0.0, eps, 0.0], spec)
    q = (step - eval_function(square, frame, x, spec)) / eps
    print(f"  eps = {eps:7.0e}: defect {(q - target).norm():.3e}")

# On a purely semisimple algebra the extension acts componentwise, e.g. the
# exponential becomes exp of each spectral value.
semis = builtin_algebra("semisimple:m=3")
sframe = builtin_frames(semis)["default"]
sx = np.array([0.2, 0.6, -0.1])
expo = HolomorphicScalarSpec("exponential", (1, 1))
value = eval_function(PrincipalExtension(F=(expo,) * 3), sframe, sx, semis)
componentwise = np.exp(np.array(spectral(sframe, sx, semis).xi))
print(f"\nsemisimple exp defect: {np.max(np.abs(value.coords - componentwise)):.2e}")
