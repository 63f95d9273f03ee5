"""The closed-form resolvent and inverse of the embedded variable.

Points x in R^k embed as zeta = sum_j x_j e_j.  The resolvent
(t - zeta)^{-1} expands into simple poles at the spectral values xi_u plus
higher-order pole terms on the nilpotent coordinates.  The library sums it
as one finite expansion over the nilpotent radical; the paper's recurrence
coefficients printed below give the same pole terms, and the dense linear
solve cross-checks everything.
"""

import numpy as np

from monalg import (
    builtin_algebra,
    builtin_frames,
    embed,
    inverse,
    multiply,
    oracle_inverse,
    recurrence_coefficients,
    resolvent,
    spectral,
)

spec = builtin_algebra("example1")
frames = builtin_frames(spec)
frame = frames["default"]
print("frame rows (coefficients of e_j):")
print(frame.a)

x = np.array([0.4, 0.8, -0.3])
data = spectral(frame, x, spec)
print(f"\nx = {x}, xi = {data.xi}, invertible: {data.invertible}")

co = recurrence_coefficients(frame, x, spec)
print("nilpotent components T_s:", co.T)
print("pole coefficients Q_{r,s}:", {k: round(v.real, 4) + 1j * round(v.imag, 4)
                                     for k, v in co.Q.items() if v != 0})

# the mirrored coefficients alternate sign with the pole order
for (r, s), q in co.Q.items():
    assert co.Qt[(r, s)] == (-1) ** (r - 1) * q

t = 2.0 + 1.5j
res = resolvent(t, frame, x, spec)
shifted = t * embed(frame, [1, 0, 0], spec) - embed(frame, x, spec)
identity_error = (multiply(shifted, res, spec) - embed(frame, [1, 0, 0], spec)).norm()
print(f"\n|(t - zeta) (t - zeta)^-1 - 1| = {identity_error:.2e}")

inv = inverse(frame, x, spec)
oracle = oracle_inverse(embed(frame, x, spec), spec)
print(f"|closed-form inverse - solve oracle| = {(inv - oracle).norm():.2e}")

# Walking toward the noninvertible locus (xi_1 = 0 on x_1 = x_2 = 0) the
# inverse blows up; the spectral data quantifies the conditioning.
print("\napproach to the noninvertible locus:")
for eps in (1e-1, 1e-2, 1e-3):
    y = np.array([eps, 0.0, 0.5])
    inv_norm = inverse(frame, y, spec).norm()
    print(f"  min |xi| = {spectral(frame, y, spec).min_abs_xi:.1e} -> "
          f"|zeta^-1| = {inv_norm:.3e}")
