"""Field-coupled connection coefficients and frame modes.

The single-particle coupling promotes the mixed field tensor to the
connection

    Gamma^i_jk = Gamma(frame)^i_jk
               + 1/2 (F^i_j y_k + F^i_k y_j)
               + 1/2 F^i_m (y^m eta_jk - y^m y_s y_l ... )

where the y slots are filled either with an on-shell 4-velocity (y, and
the rank-3 slot with its monomials) or with ensemble moments (first and
third).  On the hyperboloid the contraction with the velocity collapses
to the bare force term, Gamma^i_jk y^j y^k = F^i_m y^m, which is the
consistency check pinning the 1/2 grouping used here.

Frame modes describe the inertial part of the connection.  Both modes
carry zero coefficients at the reference point; the arc-adapted mode
additionally carries the single gradient entry d_1 Gamma^1_22 = 1/rho^2
whose role is to inject the centripetal restoring term
(dX/dt)^2 xi^1 / rho^2 into deviation transport and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class InertialCartesian:
    """Laboratory Cartesian frame: no inertial forces."""


@dataclass(frozen=True)
class ArcAdapted:
    """Frame following a circular design arc of radius rho."""

    rho: float

    def __post_init__(self):
        if not self.rho > 0.0:
            raise ValueError(f"arc radius must be positive, got {self.rho}")


FrameMode = InertialCartesian | ArcAdapted

INERTIAL = InertialCartesian()


def frame_gradient(mode: FrameMode):
    """d_l Gamma(frame)^i_jk with axes [l, i, j, k]."""
    G = np.zeros((4, 4, 4, 4))
    if isinstance(mode, ArcAdapted):
        G[1, 1, 2, 2] = 1.0 / (mode.rho * mode.rho)
    elif not isinstance(mode, InertialCartesian):
        raise TypeError(f"unknown frame mode {mode!r}")
    return G


def inertial_acceleration(mode: FrameMode, xi, dxi, xdot):
    """Frame force entering deviation transport.

    Evaluates (Gamma_f + xi^l d_l Gamma_f)^i_jk (Xdot^j Xdot^k
    + 2 Xdot^j dxi^k); with the zero-coefficient frames this reduces to
    the gradient part.  For the arc mode with xi = (0, e, 0, 0), zero
    dxi and unit spatial speed this is (0, e/rho^2, 0, 0); vertical and
    temporal components always vanish.  Closed form on four components
    each: the arc gradient's one entry 1/rho^2 enters as in frame_gradient.
    """
    if isinstance(mode, ArcAdapted):
        return [0.0, xi[1] * (1.0 / (mode.rho * mode.rho))
                * (xdot[2] * xdot[2] + 2.0 * xdot[2] * dxi[2]), 0.0, 0.0]
    if not isinstance(mode, InertialCartesian):
        raise TypeError(f"unknown frame mode {mode!r}")
    return [0.0, 0.0, 0.0, 0.0]


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
    """Connection with the velocity slots replaced by ensemble moments.

    Every frame mode has zero coefficients at the reference point, so the
    frame enters only through its gradient, in deviation transport
    (connection_gradient, inertial_acceleration).
    """
    return Connection3(_field_connection(field.f_mixed, moments.first, moments.third))


def connection_gradient(field: FieldSample, first, third, mode: FrameMode = INERTIAL):
    """d_l Gamma^i_jk with axes [l, i, j, k].

    Moments are treated as locally constant along the beamline, so the
    field part differentiates through the analytic field gradient only;
    the frame part contributes its closed-form gradient.
    """
    first = np.asarray(first, dtype=float)
    third = np.asarray(third, dtype=float)
    out = frame_gradient(mode).copy()
    for l in range(4):
        dF = field.grad[l]
        if np.any(dF):
            out[l] += _field_connection(dF, first, third)
    return out
