"""Field-coupled connection coefficients.

The single-particle coupling promotes the mixed field tensor to the
connection

    Gamma^i_jk = 1/2 (F^i_j y_k + F^i_k y_j)
               + 1/2 F^i_m (y^m eta_jk - y^m y_s y_l ... )

where the y slots are filled either with an on-shell 4-velocity (y, and
the rank-3 slot with its monomials) or with ensemble moments (first and
third).  On the hyperboloid the contraction with the velocity collapses
to the bare force term, Gamma^i_jk y^j y^k = F^i_m y^m, which is the
consistency check pinning the 1/2 grouping used here.  Coordinates
are inertial laboratory Cartesian, so the connection has no frame part.
"""

from __future__ import annotations

import numpy as np

from .ensemble import MomentSet
from .minkowski import (
    METRIC_SIGNATURE,
    Connection3,
    FieldSample,
    check_on_shell,
    lower,
    velocity_monomials3,
)


def _field_connection(F, first, third):
    """Velocity-slot connection coefficients as a raw (4,4,4) array."""
    yl = lower(first)
    # symmetric force-velocity part: 1/2 (F^i_j yl_k + F^i_k yl_j)
    T1 = 0.5 * (F[:, :, None] * yl[None, None, :] + F[:, None, :] * yl[None, :, None])
    # trace part: 1/2 F^i_m (first^m eta_jk - third^{msl} eta_sj eta_lk)
    thl = third * METRIC_SIGNATURE[None, :, None] * METRIC_SIGNATURE[None, None, :]
    B = first[:, None, None] * np.diag(METRIC_SIGNATURE)[None, :, :] - thl
    T2 = np.zeros((4, 4, 4))
    for m in range(4):
        T2 += F[:, m, None, None] * B[m]
    return T1 + 0.5 * T2


def lorentz_connection(field: FieldSample, y) -> Connection3:
    """Connection whose geodesics are the exact single-particle orbits.

    Requires y on the unit hyperboloid (see check_on_shell).  Built
    through the same coefficient routine as the averaged connection with
    the moment slots set to y and its monomials, so the two coincide
    exactly for a point distribution.
    """
    y = np.asarray(y, dtype=float)
    check_on_shell(y)
    return Connection3(_field_connection(field.f_mixed, y, velocity_monomials3(y)))


def averaged_connection(field: FieldSample, moments: MomentSet) -> Connection3:
    """Connection with the velocity slots replaced by ensemble moments."""
    return Connection3(_field_connection(field.f_mixed, moments.first, moments.third))


def connection_gradient(field: FieldSample, first, third):
    """d_l Gamma^i_jk with axes [l, i, j, k].

    Moments are treated as locally constant along the beamline, so the
    connection differentiates through the analytic field gradient only.
    """
    first = np.asarray(first, dtype=float)
    third = np.asarray(third, dtype=float)
    out = np.zeros((4, 4, 4, 4))
    for l in range(4):
        dF = field.grad[l]
        if np.any(dF):
            out[l] += _field_connection(dF, first, third)
    return out
