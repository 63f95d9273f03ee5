"""The paper's T/B/Q recurrences: an oracle for the radical series of ``monalg.resolvent``.

The resolvent ``(t e_1 - zeta)^{-1}`` reads

    sum_u (t - xi_u)^{-1} I_u
        + sum_{s > m} sum_{r=2}^{s-m+1} Q_{r,s} (t - xi_{u_s})^{-r} I_s

with coefficients built from the nilpotent components ``T_s`` of ``zeta``
through the recurrences

    Q_{2,s} = T_s,      Q_{r,s} = sum_{q=r+m-2}^{s-1} Q_{r-1,q} B_{q,s},
    B_{q,s} = sum_{p=m+1}^{s-1} T_p * (I_s-coefficient of I_q I_p).

The inverse uses the mirrored coefficients ``Qt_{r,s} = (-1)^(r-1) Q_{r,s}``
(``zeta^{-1}`` is minus the resolvent at ``t = 0``):
``zeta^{-1} = sum_u xi_u^{-1} I_u + sum_s A_s I_s`` with
``A_s = sum_r Qt_{r,s} xi_{u_s}^{-r}``.

A scalar ``f`` holomorphic at the spectral values, integrated against the
resolvent (the paper's principal extension), has residues

    f(zeta) = sum_u f(xi_u) I_u
        + sum_{s > m} sum_r Q_{r,s} f^(r-1)(xi_{u_s}) / (r-1)! I_s.
"""

import numpy as np


def recurrence_coefficients(frame, x, spec) -> dict:
    """``{"T": ..., "B": ..., "Q": ..., "Qt": ...}`` at one point ``x``.

    Each is a dict keyed by 1-based basis indices: ``T[s]``, ``B[(q, s)]``,
    ``Q[(r, s)]`` and ``Qt[(r, s)]`` with r the pole order; all are empty
    for a semisimple algebra.
    """
    n, m = spec.n, spec.m
    coords = np.asarray(x, dtype=np.float64) @ frame.a
    T = {s: complex(coords[s - 1]) for s in range(m + 1, n + 1)}
    B = {(q, s): 0j for s in range(m + 1, n + 1) for q in range(m + 1, s)}
    for (left, right, s), value in spec.products.items():
        for q, p in {(left, right), (right, left)}:
            if (q, s) in B and p < s:
                B[(q, s)] += T[p] * value
    Q = {}
    for s in range(m + 1, n + 1):
        Q[(2, s)] = T[s]
        for r in range(3, s - m + 2):
            Q[(r, s)] = sum(Q[(r - 1, q)] * B[(q, s)] for q in range(r + m - 2, s))
    Qt = {(r, s): (-1) ** (r - 1) * v for (r, s), v in Q.items()}
    return {"T": T, "B": B, "Q": Q, "Qt": Qt}


def formula_resolvent(t, frame, x, spec) -> np.ndarray:
    """Coordinates of the resolvent by the closed form above."""
    Q = recurrence_coefficients(frame, x, spec)["Q"]
    xi = (np.asarray(x, dtype=np.float64) @ frame.a)[: spec.m]
    out = np.zeros(spec.n, dtype=np.complex128)
    out[: spec.m] = 1.0 / (t - xi)
    for (r, s), q in Q.items():
        out[s - 1] += q * (t - xi[spec.u_map[s] - 1]) ** (-r)
    return out


def formula_inverse(frame, x, spec) -> np.ndarray:
    """Coordinates of the inverse by the closed form above."""
    Qt = recurrence_coefficients(frame, x, spec)["Qt"]
    xi = (np.asarray(x, dtype=np.float64) @ frame.a)[: spec.m]
    out = np.zeros(spec.n, dtype=np.complex128)
    out[: spec.m] = 1.0 / xi
    for (r, s), qt in Qt.items():
        out[s - 1] += qt * xi[spec.u_map[s] - 1] ** (-r)
    return out


def formula_principal(phi, frame, x, spec) -> np.ndarray:
    """Coordinates of ``sum_u F_u(zeta) I_u + sum_s G_s(zeta) I_s`` by the residues above.

    ``phi`` is a :class:`monalg.monogenic.PrincipalExtension`; each scalar's
    derivatives come from its own Taylor coefficients, and each ``I_col``
    multiplies through :func:`monalg.algebra.multiply`.
    """
    from monalg.algebra import Element, basis_element, multiply

    Q = recurrence_coefficients(frame, x, spec)["Q"]
    xi = (np.asarray(x, dtype=np.float64) @ frame.a)[: spec.m]
    scalars = [(f, u + 1) for u, f in enumerate(phi.F)]
    scalars += [(g, s) for s, g in enumerate(phi.G, start=spec.m + 1)]
    out = np.zeros(spec.n, dtype=np.complex128)
    for scalar, col in scalars:
        if scalar is None:
            continue
        taylor = scalar._taylor(xi, spec.n - spec.m)  # (order + 1, m)
        value = np.zeros(spec.n, dtype=np.complex128)
        value[: spec.m] = taylor[0]
        for (r, s), q in Q.items():
            value[s - 1] += q * taylor[r - 1, spec.u_map[s] - 1]
        out += multiply(basis_element(col, spec.n), Element(value), spec).coords
    return out
