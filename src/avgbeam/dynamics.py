"""Fixed-step integration of reference orbits and deviation transport.

Parameterization and units
--------------------------
Trajectories x(t) are parameterized by proper time t in meters (c = 1);
velocities v = dx/dt live on the unit hyperboloid.  Every integrator
here, and the ensemble oracle, advances x' = v, v' = accel(k, theta, x, v)
through one classical fixed-step RK4 kernel; theta in {0, 1/2, 1/2, 1} is
the stage position inside step k, and an observer sees every grid point.
No adaptive control, so identical inputs give identical output bytes.

Moment transport
----------------
Averaged runs reuse the ensemble shape along the trajectory: the
centered deviations of the supplied moments from the monomials of the
launch velocity,

    D1 = first - v(0),      D3 = third - v(0) x v(0) x v(0),

are frozen, and at every right-hand-side evaluation the moment slots are
rebuilt around the current velocity as first = v + D1 and
third = v x v x v + D3.  The rank-3 slot only ever enters contracted
with two vectors, so inside the integrators it is evaluated in closed
form, without building the monomial tensor,

    third(a, b) = v eta(v, a) eta(v, b) + D3(a, b).

Every moment-slot force (orbit, deviation transport, transport defect,
offset integrands) is evaluated by one function for Gamma(a, b) and its
moment part.  A point (delta) ensemble has D identically zero, so an
averaged run collapses onto the single-particle geodesic bit for bit
(the zero-deviation case takes the same monomial code path as
integrate_lorentz).

The force algebra is written once, over 4-sequences of components (the
field as its nonzero entries (i, j, F^i_j)), with every sum in a fixed
index order.  One orbit runs it on plain floats; a batch (a cloud, a
stored series) on contiguous (n,) columns, one per component.  A float
rounds as one element of a column, so batching does not change the bits.
"""

from __future__ import annotations

import itertools
import math
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .connections import FrameMode, INERTIAL, inertial_acceleration
from .ensemble import MomentSet
from .errors import (
    MismatchedSampling,
    OffShellInitial,
    OutOfLattice,
    ReferenceSpanExceeded,
    StepTooLarge,
    UnsupportedElement,
)
from .lattice import (
    ConstantE,
    Element,
    Lattice,
    RFCavity,
    curvature_radius,
    field_entries,
    gradient_entries,
)
from .minkowski import check_on_shell, norm_residual, velocity_monomials3


@dataclass(frozen=True)
class TrajectoryState:
    """Event and 4-velocity at parameter value t."""

    t: float
    x: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class JacobiState:
    """Deviation vector and its rate at parameter value t."""

    t: float
    xi: np.ndarray
    dxi: np.ndarray


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration settings.

    step is the classical RK4 step in the run parameter (meters); it
    must be positive.  Trajectory runs evaluate the hard-edged field at
    the current position of every stage.
    """

    step: float

    def __post_init__(self):
        if not self.step > 0.0:
            raise ValueError(f"integrator step must be positive, got {self.step}")


@dataclass
class TrajectorySeries:
    """Trajectory samples on a uniform parameter grid."""

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray

    def __len__(self):
        return len(self.t)

    def state(self, k: int) -> TrajectoryState:
        return TrajectoryState(t=float(self.t[k]), x=self.x[k].copy(), v=self.v[k].copy())

    @property
    def final(self) -> TrajectoryState:
        return self.state(len(self.t) - 1)

    def norm_drift(self) -> float:
        """max_k |eta(v_k, v_k) - 1| over the run."""
        return float(np.max(np.abs(norm_residual(self.v))))


@dataclass
class JacobiSeries:
    """Deviation samples on a uniform parameter grid.

    decoupling_ok is False when |eta(Xdot, dxi)| exceeded 1e-2 |dxi|
    somewhere, the regime in which the transverse/longitudinal split
    loses meaning.
    """

    t: np.ndarray
    xi: np.ndarray
    dxi: np.ndarray
    decoupling_ok: bool = True

    def __len__(self):
        return len(self.t)

    def state(self, k: int) -> JacobiState:
        return JacobiState(t=float(self.t[k]), xi=self.xi[k].copy(), dxi=self.dxi[k].copy())

    @property
    def final(self) -> JacobiState:
        return self.state(len(self.t) - 1)


@dataclass
class MomentsSeries:
    """Ensemble moments sampled along a trajectory grid."""

    t: np.ndarray
    first: np.ndarray
    third: np.ndarray

    def __len__(self):
        return len(self.t)


TRAJECTORY_HEADER = "t,x0,x1,x2,x3,v0,v1,v2,v3"
JACOBI_HEADER = "t,xi0,xi1,xi2,xi3,dxi0,dxi1,dxi2,dxi3"


def _write_rows(path, header, columns):
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        n = len(columns[0])
        for k in range(n):
            fh.write(",".join(repr(float(c[k])) for c in columns) + "\n")


def write_trajectory_csv(series: TrajectorySeries, path):
    cols = [series.t] + [series.x[:, i] for i in range(4)] + [series.v[:, i] for i in range(4)]
    _write_rows(path, TRAJECTORY_HEADER, cols)


def read_trajectory_csv(path) -> TrajectorySeries:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return TrajectorySeries(t=data[:, 0], x=data[:, 1:5], v=data[:, 5:9])


def write_jacobi_csv(series: JacobiSeries, path):
    cols = [series.t] + [series.xi[:, i] for i in range(4)] + [series.dxi[:, i] for i in range(4)]
    _write_rows(path, JACOBI_HEADER, cols)


def read_jacobi_csv(path) -> JacobiSeries:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return JacobiSeries(t=data[:, 0], xi=data[:, 1:5], dxi=data[:, 5:9])


# ---------------------------------------------------------------------------
# the RK4 kernel

def _rk4(accel, x, v, h, n, observe):
    """Classical RK4 for x' = v, v' = accel(k, theta, x, v) over n steps of h.

    theta in {0, 1/2, 1/2, 1} is the stage position inside step k.
    observe(k, x, v) sees the state at every grid point k = 0..n.  All
    updates are elementwise: an orbit's state is a (4,) array (eight
    entries for Jacobi) whose accel reads it as floats, a batch's a (4, m)
    array of columns, and the linear channels run plain floats.
    """
    half = 0.5 * h
    sixth = h / 6.0
    observe(0, x, v)
    for k in range(n):
        a1 = accel(k, 0.0, x, v)
        v2 = v + half * a1
        a2 = accel(k, 0.5, x + half * v, v2)
        v3 = v + half * a2
        a3 = accel(k, 0.5, x + half * v2, v3)
        v4 = v + h * a3
        a4 = accel(k, 1.0, x + h * v3, v4)
        x = x + sixth * (v + 2.0 * v2 + 2.0 * v3 + v4)
        v = v + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        observe(k + 1, x, v)


def _rk4_rows(accel, x0, v0, h, n):
    """Run the kernel and keep every grid point: arrays of shape (n+1,) + x0.shape."""
    xs = np.empty((n + 1,) + np.shape(x0))
    vs = np.empty_like(xs)

    def observe(k, x, v):
        xs[k] = x
        vs[k] = v

    _rk4(accel, x0, v0, h, n, observe)
    return xs, vs


def _at_stage(values, k, theta):
    """Tabulated coefficient at stage theta of step k, linear between grid points."""
    if theta <= 0.0:
        return values[k]
    if theta >= 1.0:
        return values[k + 1]
    return values[k] * (1.0 - theta) + values[k + 1] * theta


# ---------------------------------------------------------------------------
# the averaged-connection force, over 4-sequences of components

def _matvec(F, v):
    """F^i_j v^j from the nonzero entries (i, j, F^i_j) of F, each row summed in column order."""
    zero = 0.0 * v[0] + 0.0  # +0.0, or a column of it in a batch
    out = [zero, zero, zero, zero]
    for i, j, f in F:
        out[i] = out[i] + f * v[j]
    return out


def _mdot(a, b):
    return a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3]


def _slot3(T, a, b):
    """T^{msl} a_s b_l with the metric signs on s, l; T[m] holds row m's sixteen, s-major.

    Each sign goes onto a_s b_l, which rounds exactly as onto T^{msl}.
    """
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    p = (a0 * b0, -(a0 * b1), -(a0 * b2), -(a0 * b3),
         -(a1 * b0), a1 * b1, a1 * b2, a1 * b3,
         -(a2 * b0), a2 * b1, a2 * b2, a2 * b3,
         -(a3 * b0), a3 * b1, a3 * b2, a3 * b3)
    return [t[0] * p[0] + t[1] * p[1] + t[2] * p[2] + t[3] * p[3]
            + t[4] * p[4] + t[5] * p[5] + t[6] * p[6] + t[7] * p[7]
            + t[8] * p[8] + t[9] * p[9] + t[10] * p[10] + t[11] * p[11]
            + t[12] * p[12] + t[13] * p[13] + t[14] * p[14] + t[15] * p[15]
            for t in T]


def _comoving_third(v, D3, a, b):
    """third(a, b) for third = v x v x v + D3, without building the tensor."""
    c = _mdot(v, a) * _mdot(v, b)
    if D3 is None:
        return [v[m] * c for m in range(4)]
    return [v[m] * c + d for m, d in enumerate(_slot3(D3, a, b))]


def _moment_slot(F, first, third_ab, a, b):
    """F^i_m (first^m eta(a, b) - third^m(a, b)), the moment part of 2 Gamma(a, b)."""
    ab = _mdot(a, b)
    return _matvec(F, [first[m] * ab - third_ab[m] for m in range(4)])


def _gamma(F, first, third_ab, a, b):
    """Gamma(a, b) of the field connection with moment slots first, third.

    Gamma(a, b) = 1/2 [F a eta(first, b) + F b eta(first, a)
                       + F (first eta(a, b) - third(a, b))],
    third_ab being the rank-3 slot already contracted with a and b.  On
    the hyperboloid with point moments Gamma(v, v) = F v.
    """
    Fa, fb = _matvec(F, a), _mdot(first, b)
    Fb, fa = (Fa, fb) if b is a else (_matvec(F, b), _mdot(first, a))
    M = _moment_slot(F, first, third_ab, a, b)
    return [0.5 * (Fa[i] * fb + Fb[i] * fa + M[i]) for i in range(4)]


def _geodesic_accel(F, v, D1, D3):
    """v' = -Gamma(v, v) with comoving slots; D1 None means a point ensemble.

    The point case keeps the monomial connection form -F v s(3 - s)/2,
    s = eta(v, v), which equals the force form on the hyperboloid.
    """
    if D1 is None:
        s = _mdot(v, v)
        c = s * (3.0 - s) * 0.5
        return [-f * c for f in _matvec(F, v)]
    first = [v[m] + D1[m] for m in range(4)]
    return [-g for g in _gamma(F, first, _comoving_third(v, D3, v, v), v, v)]


def _directional(G, xi):
    """Entries (i, j, xi^l d_l F^i_j) from gradient entries (l, i, j, d_l F^i_j)."""
    return [(i, j, g * xi[l]) for l, i, j, g in G]


def _lookup_xi(x):
    """Deviation used for field lookup: the transverse offsets of the orbit."""
    return (0.0, x[1], 0.0, x[3])


def _rhs_force(lattice: Lattice):
    """Direct force form: a = -F v sqrt(eta(v, v))."""

    def rhs(k, theta, x, v):
        r = np.sqrt(_mdot(v, v))
        return [-f * r for f in _matvec(field_entries(lattice, x[2], _lookup_xi(x)), v)]

    return rhs


def _rhs_geodesic(lattice: Lattice, D1=None, D3=None):
    """Connection form with comoving moment slots (monomial slots by default)."""

    def rhs(k, theta, x, v):
        return _geodesic_accel(field_entries(lattice, x[2], _lookup_xi(x)), v, D1, D3)

    return rhs


def _float_accel(rhs):
    """rhs on one orbit's array state, its components read as plain floats."""
    return lambda k, theta, x, v: np.array(rhs(k, theta, x.tolist(), v.tolist()))


def _cloud_accel(rhs):
    """rhs on the (4, m) state of m orbits, each component one contiguous column."""
    return lambda k, theta, x, v: np.array(rhs(k, theta, x, v))


def _frozen_slots(moments: MomentSet, reference_velocity):
    """(D1, D3) as floats for the comoving slots, (None, None) for an exact point ensemble."""
    D1, D3 = moment_deviations(moments, reference_velocity)
    if not D1.any() and not D3.any():
        return None, None
    return D1.tolist(), D3.reshape(4, 16).tolist()


def _series_columns(series):
    """An (n, ...) series as contiguous columns, sample axis last."""
    return np.ascontiguousarray(np.moveaxis(np.asarray(series, dtype=float), 0, -1))


def _grid(t0: float, t_end: float, step: float):
    """Step count, signed step and the uniform output grid from t0 towards t_end."""
    span = t_end - t0
    if span == 0.0:
        raise ValueError("integration span is zero")
    n = max(int(math.ceil(abs(span) / step - 1e-9)), 1)
    h = math.copysign(step, span)
    return n, h, t0 + np.arange(n + 1) * h


def _check_step(min_len: float, step: float):
    if step > min_len / 4.0 + 1e-15:
        raise StepTooLarge(
            f"step {step} exceeds a quarter of the shortest element length {min_len}"
        )


def _orbit(rhs, initial: TrajectoryState, t_end: float, step: float) -> TrajectorySeries:
    n, h, t = _grid(initial.t, t_end, step)
    xs, vs = _rk4_rows(_float_accel(rhs), np.reshape(initial.x, 4).astype(float),
                       np.reshape(initial.v, 4).astype(float), h, n)
    return TrajectorySeries(t=t, x=xs, v=vs)


def integrate_lorentz(lattice: Lattice, initial: TrajectoryState, t_end: float,
                      config: IntegratorConfig, form: str = "connection") -> TrajectorySeries:
    """Track the single-particle orbit through the lattice fields.

    form selects how the acceleration is evaluated: "connection"
    (default) contracts the velocity-slot connection, "force" uses the
    direct F v sqrt(eta(v,v)) expression.  The two are the same equation
    on the hyperboloid and agree to integrator tolerance.

    Raises OffShellInitial for an off-shell launch velocity and
    StepTooLarge when the step underresolves the shortest element.
    """
    if form not in ("connection", "force"):
        raise ValueError(f"unknown form '{form}'")
    check_on_shell(initial.v, exc=OffShellInitial, label="initial velocity")
    _check_step(lattice.min_length(), config.step)
    rhs = _rhs_geodesic(lattice) if form == "connection" else _rhs_force(lattice)
    return _orbit(rhs, initial, t_end, config.step)


def moment_deviations(moments: MomentSet, reference_velocity):
    """Centered moment deviations D1, D3 relative to a launch velocity."""
    vref = np.asarray(reference_velocity, dtype=float)
    D1 = moments.first - vref
    D3 = moments.third - velocity_monomials3(vref)
    return D1, D3


def integrate_averaged_geodesic(lattice: Lattice, moments: MomentSet,
                                initial: TrajectoryState, t_end: float,
                                config: IntegratorConfig,
                                deviations_from=None) -> TrajectorySeries:
    """Geodesic of the moment-averaged connection with comoving moments.

    deviations_from optionally pins the velocity against which the
    centered deviations are computed (default: the launch velocity), so
    perturbed companions of a reference run evolve in the same field.
    """
    check_on_shell(initial.v, exc=OffShellInitial, label="initial velocity")
    _check_step(lattice.min_length(), config.step)
    vref = initial.v if deviations_from is None else deviations_from
    rhs = _rhs_geodesic(lattice, *_frozen_slots(moments, vref))
    return _orbit(rhs, initial, t_end, config.step)


def comoving_moments_along(series: TrajectorySeries, moments: MomentSet,
                           reference_velocity=None) -> MomentsSeries:
    """Moment series along a run under the frozen-shape transport rule."""
    vref = series.v[0] if reference_velocity is None else np.asarray(reference_velocity)
    D1, D3 = moment_deviations(moments, vref)
    first = series.v + D1
    third = velocity_monomials3(series.v) + D3
    return MomentsSeries(t=series.t.copy(), first=first, third=third)


# ---------------------------------------------------------------------------
# mean-field transport defect

_FD_INTERIOR = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_FD_FORWARD = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0


def _series_derivative(q: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order finite-difference d/dt of a sampled series."""
    n = len(q)
    if n < 5:
        raise MismatchedSampling("defect evaluation needs at least 5 grid points")
    dq = np.empty_like(q)
    for k in (0, 1):
        dq[k] = sum(c * q[k + j] for j, c in enumerate(_FD_FORWARD)) / h
    for k in (n - 2, n - 1):
        dq[k] = -sum(c * q[k - j] for j, c in enumerate(_FD_FORWARD)) / h
    body = (q[0:-4] * _FD_INTERIOR[0] + q[1:-3] * _FD_INTERIOR[1]
            + q[2:-2] * _FD_INTERIOR[2] + q[3:-1] * _FD_INTERIOR[3]
            + q[4:] * _FD_INTERIOR[4]) / h
    dq[2:-2] = body
    return dq


def mean_field_defect(lattice: Lattice, moments_along: MomentsSeries,
                      curve: TrajectorySeries):
    """Norm of the mean-velocity transport defect along a curve.

    Evaluates |dV/dt + Gamma(V, V)| with V the first-moment series and
    Gamma the moment-averaged connection at the sampled events; dV/dt
    uses fourth-order finite differences.  For a point ensemble riding
    its own geodesic this vanishes to integrator tolerance, and its
    magnitude scales with the squared support diameter of the ensemble.
    """
    if len(moments_along) != len(curve) or not np.array_equal(moments_along.t, curve.t):
        raise MismatchedSampling("moment series and curve are sampled on different grids")
    h = float(curve.t[1] - curve.t[0])
    x = _series_columns(curve.x)
    V = _series_columns(moments_along.first)
    T = _series_columns(moments_along.third.reshape(-1, 4, 16))
    gam = _gamma(field_entries(lattice, x[2], _lookup_xi(x)), V, _slot3(T, V, V), V, V)
    dV = _series_columns(_series_derivative(moments_along.first, h))
    d = [dV[c] + gam[c] for c in range(4)]
    return curve.t.copy(), np.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + d[3] * d[3])


# ---------------------------------------------------------------------------
# deviation (Jacobi) transport along a reference run

def integrate_jacobi_full(lattice: Lattice, moments: MomentSet,
                          reference: TrajectorySeries, initial: JacobiState,
                          config: IntegratorConfig,
                          frame: FrameMode = INERTIAL,
                          mode: str = "full",
                          t_end: float | None = None) -> JacobiSeries:
    """Transport a deviation vector along a reference run.

    Integrates the linearized geodesic deviation system
    ddxi + 2 Gamma(X)(dxi, Xdot) + xi^l d_l Gamma(X)(Xdot, Xdot) + A = 0
    with Gamma the moment-averaged connection, d_l Gamma taken through
    the analytic field gradients, and A the frame force of ``frame``.
    The reference and the deviation advance as one stacked state of
    eight floats through the RK4 kernel, the reference with the same arithmetic as
    integrate_averaged_geodesic and both sharing one field lookup per
    stage; the supplied series only fixes the launch state and the
    admissible span.

    mode "full" keeps the moment slots comoving (first = Xdot + D1);
    mode "linearized" substitutes the reference velocity for the first
    moment, the standard small-spread reduction.  The kernel's observer
    records the deviation rows and the worst coupling
    |eta(Xdot, dxi)| / |dxi| behind the decoupling flag.
    """
    if mode not in ("full", "linearized"):
        raise ValueError(f"unknown jacobi mode '{mode}'")
    _check_step(lattice.min_length(), config.step)
    ref0 = reference.state(0)
    check_on_shell(ref0.v, exc=OffShellInitial, label="reference velocity")
    ref_span = abs(float(reference.t[-1] - reference.t[0]))
    span = ref_span if t_end is None else t_end - initial.t
    if abs(span) > ref_span + 1e-9:
        raise ReferenceSpanExceeded(
            f"requested span {span} exceeds reference span {ref_span}"
        )
    n, h, t = _grid(initial.t, initial.t + span, config.step)
    ref_h = reference.t[1] - reference.t[0] if len(reference) > 1 else h
    if abs(abs(ref_h) - config.step) > 1e-12:
        raise MismatchedSampling(
            f"reference grid step {ref_h} does not match integrator step {config.step}"
        )

    D1, D3 = _frozen_slots(moments, ref0.v)
    slot_D1, slot_D3 = (None, None) if mode == "linearized" else (D1, D3)

    def accel(k, theta, x, v):
        X, V, xi, dxi = x[:4], v[:4], x[4:], v[4:]
        lookup = _lookup_xi(X)
        F = field_entries(lattice, X[2], lookup)
        dF = _directional(gradient_entries(lattice, X[2], lookup), xi)
        first = V if slot_D1 is None else [V[m] + slot_D1[m] for m in range(4)]
        g_dev = _gamma(F, first, _comoving_third(V, slot_D3, dxi, V), dxi, V)
        g_grad = _gamma(dF, first, _comoving_third(V, slot_D3, V, V), V, V)
        A = inertial_acceleration(frame, xi, dxi, V)
        # -(2 Gamma(dxi, Xdot) + xi^l d_l Gamma(Xdot, Xdot)) - A
        return _geodesic_accel(F, V, D1, D3) + [-(2.0 * g_dev[i] + g_grad[i]) - A[i]
                                                for i in range(4)]

    xis = np.empty((n + 1, 4))
    dxis = np.empty((n + 1, 4))
    worst_coupling = 0.0

    def observe(k, x, v):
        nonlocal worst_coupling
        xis[k] = x[4:]
        dxis[k] = v[4:]
        d = v.tolist()
        V, dxi = d[:4], d[4:]
        scale = math.sqrt(dxi[0] * dxi[0] + dxi[1] * dxi[1] + dxi[2] * dxi[2] + dxi[3] * dxi[3])
        if k and scale > 0.0:
            worst_coupling = max(worst_coupling, abs(_mdot(V, dxi)) / scale)

    x0 = np.concatenate([np.reshape(ref0.x, 4), np.reshape(initial.xi, 4)]).astype(float)
    v0 = np.concatenate([np.reshape(ref0.v, 4), np.reshape(initial.dxi, 4)]).astype(float)
    _rk4(_float_accel(accel), x0, v0, h, n, observe)
    return JacobiSeries(t=t, xi=xis, dxi=dxis, decoupling_ok=worst_coupling < 1e-2)


# ---------------------------------------------------------------------------
# closed-form linear channels (path-length parameterization)

def _scalar_components(initial: JacobiState):
    """The launch deviation and its rate as lists of plain floats."""
    return (np.asarray(initial.xi, dtype=float).tolist(),
            np.asarray(initial.dxi, dtype=float).tolist())


def _drift(k, theta, u, du):
    return 0.0


def integrate_transverse_linear(element: Element, rho: float | None,
                                initial: JacobiState, l_end: float,
                                config: IntegratorConfig) -> JacobiSeries:
    """Linear transverse deviation channels in path length l.

    Horizontal and vertical obey u'' + K u = 0 with (K_h, K_v) =
    element.focusing(rho): (1/rho^2, 0) for a dipole, (1/rho^2 - b1, b1)
    for a normal gradient and (1/rho^2 + b1, -b1) for a skew gradient;
    temporal and longitudinal components drift freely.  rho = None takes
    the design curvature, 1/rho^2 = b0^2.
    """
    kh, kv = element.focusing(rho)
    r_design = curvature_radius(element) if rho is None else rho
    if l_end < initial.t:
        raise ValueError("path length must advance forward through the element")
    if initial.t < -1e-9 or l_end > element.length + 1e-9:
        raise OutOfLattice(
            f"span [{initial.t}, {l_end}] leaves element of length {element.length}"
        )
    _check_step(element.length, config.step)
    amp = float(np.sqrt(initial.xi[1] ** 2 + initial.xi[3] ** 2))
    if amp > 0.1 * abs(r_design):
        warnings.warn(
            f"transverse amplitude {amp} exceeds a tenth of the bending radius "
            f"{r_design}; linearization is suspect", RuntimeWarning)
    n, h, t = _grid(initial.t, l_end, config.step)
    xi, dxi = _scalar_components(initial)
    out = JacobiSeries(t=t, xi=np.empty((n + 1, 4)), dxi=np.empty((n + 1, 4)))
    for i, K in enumerate((0.0, kh, 0.0, kv)):
        neg_k = -float(K)  # -0.0 on the free components, as -K elementwise
        out.xi[:, i], out.dxi[:, i] = _rk4_rows(lambda k, theta, u, du: neg_k * u,
                                                xi[i], dxi[i], h, n)
    return out


def integrate_longitudinal(element: Element, gamma_of_t, initial: JacobiState,
                           t_end: float, config: IntegratorConfig) -> JacobiSeries:
    """Longitudinal deviation dynamics for accelerating elements.

    ConstantE: ddxi0 = ddxi2 = -e2 dxi2 (uniform field, no gradient).
    RFCavity: ddxi2 = +2 gamma(t) e2_0 xi2 and ddxi0 = -2 gamma(t) e2_0
    xi2, the linearized dynamics at the zero-crossing phase of the
    cavity.  Transverse components propagate freely.  gamma_of_t is a
    scalar or a series on the output grid (linearly interpolated at the
    RK4 stage midpoints).

    Each component runs alone through the kernel as a plain float.  xi2
    depends only on itself; xi0 is driven by xi2 alone, its acceleration
    being exactly xi2's (ConstantE) or its negation (RFCavity) at every
    stage, so xi2's run records its stage accelerations and xi0's run
    replays them with that sign.
    """
    if isinstance(element, ConstantE):
        neg_e2, sign = -element.e2, 1.0

        def accel2(k, theta, u, du):
            return neg_e2 * du
    elif isinstance(element, RFCavity):
        e2_0, sign = element.e2_0, -1.0

        def accel2(k, theta, u, du):  # gammas is bound below, before the first call
            return 2.0 * _at_stage(gammas, k, theta) * e2_0 * u
    else:
        raise UnsupportedElement(
            f"longitudinal channel defined only for const_e and rf, got '{element.kind}'"
        )
    _check_step(element.length, config.step)
    n, h, t = _grid(initial.t, t_end, config.step)
    gamma_of_t = np.asarray(gamma_of_t, dtype=float)
    if gamma_of_t.ndim == 0:
        gammas = [float(gamma_of_t)] * (n + 1)
    else:
        if len(gamma_of_t) != n + 1:
            raise MismatchedSampling(
                f"gamma series has {len(gamma_of_t)} points, run grid has {n + 1}"
            )
        gammas = gamma_of_t.tolist()

    stage_acc = array("d", [0.0]) * (4 * n)  # xi0's four stage accelerations per step
    slot = itertools.count()

    def recorded(k, theta, u, du):
        a = accel2(k, theta, u, du)
        stage_acc[next(slot)] = sign * a
        return a

    replay = iter(stage_acc)
    xi, dxi = _scalar_components(initial)
    out = JacobiSeries(t=t, xi=np.empty((n + 1, 4)), dxi=np.empty((n + 1, 4)))
    for i, accel in ((2, recorded), (0, lambda k, theta, u, du: next(replay)),
                     (1, _drift), (3, _drift)):
        out.xi[:, i], out.dxi[:, i] = _rk4_rows(accel, xi[i], dxi[i], h, n)
    return out
