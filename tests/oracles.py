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
