"""The closed-form resolvent and inverse of the embedded variable.

Points x in R^k embed as zeta = sum_j x_j e_j.  The resolvent
(t - zeta)^{-1} expands into simple poles at the spectral values xi_u plus
higher-order pole terms on the nilpotent coordinates.  The library sums it
as one finite expansion over the nilpotent radical N of zeta,
sum_k c_k N^k with c_k = (t - xi)^{-k-1}; the demo sums the same series
term by term, and the dense linear solve cross-checks the inverse.
"""

import numpy as np

from monalg import (
    Element,
    builtin_algebra,
    builtin_frames,
    embed,
    inverse,
    multiply,
    oracle_inverse,
    resolvent,
    spectral,
    unit_element,
    zero_element,
)

spec = builtin_algebra("example1")
frames = builtin_frames(spec)
frame = frames["default"]
print("frame rows (coefficients of e_j):")
print(frame.a)

x = np.array([0.4, 0.8, -0.3])
data = spectral(frame, x, spec)
print(f"\nx = {x}, xi = {data.xi}, invertible: {data.invertible}")

t = 2.0 + 1.5j
z = embed(frame, x, spec)
xi = np.array(data.xi)


def idempotent_part(values):
    """sum_u values[u] I_u as an element."""
    return Element(np.concatenate([values, np.zeros(spec.n - spec.m)]))


# N = zeta - sum_u xi_u I_u is nilpotent, so N^k = 0 for k > n - m and the
# series stops there
nil = z - idempotent_part(xi)
series, power = zero_element(spec.n), unit_element(spec)
print(f"\nseries coefficients c_k = (t - xi)^(-k-1) at t = {t}:")
for k in range(spec.n - spec.m + 1):
    c = (t - xi) ** (-k - 1)
    print(f"  c_{k} = {np.round(c, 4)}")
    series = series + multiply(idempotent_part(c), power, spec)
    power = multiply(power, nil, spec)

res = resolvent(t, frame, x, spec)
print(f"|sum_k c_k N^k - resolvent| = {(series - res).norm():.2e}")
assert (series - res).norm() <= 1e-12 * res.norm()
shifted = t * unit_element(spec) - z
identity_error = (multiply(shifted, res, spec) - unit_element(spec)).norm()
print(f"|(t - zeta) (t - zeta)^-1 - 1| = {identity_error:.2e}")

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
