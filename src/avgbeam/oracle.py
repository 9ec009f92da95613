"""Brute-force cross-checks for the averaged dynamics.

Everything here answers one question: does replacing a particle cloud by
its moments reproduce what the cloud actually does?  The tools are
deliberately blunt: push every sample through the exact force law and
compare means, difference two nearby geodesics and compare against the
linearized transport, finite-difference the field gradients.  Reductions
follow the ensemble module's fixed-order scheme so results are bit
reproducible and a point bunch collapses exactly onto the
single-particle run.  Clouds of equal step count and size advance
together as one batch, a (4, N) state with one column per sample, each
entry rounding and each cloud's mean reducing as in a separate run, so
batching does not change the bits.  The alpha scan reads a cloud's mean
only where the lab-time comparison does: it reduces the mean lab time at
every step and the whole mean only at the grid points that bracket its
comparison time and at the end of the run, each such point bit for bit
the one ensemble_track reduces.

A cloud that the scan launches in a drift or a dipole, and that the
exact flow of that uniform element shows staying inside it for the
cloud's whole run, is not tracked at all when the averaged geodesic's
RK4 truncation error there is below its rounding: every sample keeps
its Lorentz factor, so the mean reaches a lab time at a known proper
time, and the scan reads the mean of the closed-form flow
(uniform_flow) there.  Every other cloud is tracked as above, and its
RK4 error cancels against the geodesic's.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    IntegratorConfig,
    JacobiState,
    TrajectorySeries,
    TrajectoryState,
    _check_step,
    _frozen_slots,
    _grid,
    _hill_excess,
    _matvec,
    _rhs_geodesic,
    _rk4,
    _rk4_rows,
    _rows_accel,
    integrate_averaged_geodesic,
    integrate_jacobi_full,
)
from .ensemble import (
    BeamEnsemble,
    _check_count,
    _sequential_sum,
    _shifted_mean,
    compute_moments,
    project_to_hyperboloid,
)
from .errors import DegenerateFit, OutOfSpan, UnsupportedElement
from .lattice import Dipole, Drift, Element, Lattice, field_gradient, field_mixed
from .minkowski import check_on_shell


@dataclass
class EnsembleTrackResult:
    """Weighted-mean trajectory of a tracked cloud."""

    mean: TrajectorySeries


@dataclass
class _LabTimeMeans:
    """A cloud's mean run, reduced where a lab-time comparison reads it.

    x0 is the mean lab time at every grid point of t; rows maps each grid
    point at which the whole mean was reduced to its eight components,
    the mean position and then the mean velocity.
    """

    t: np.ndarray
    x0: np.ndarray
    rows: dict

    def position_at(self, T: float) -> np.ndarray:
        """position_at_lab_time of the whole mean run, from the reduced rows only."""
        k = _bracketing_step(self.x0, T)
        if k not in self.rows or k + 1 not in self.rows:
            raise ValueError(f"mean not reduced at grid points {k} and {k + 1}, "
                             f"which lab time {T} reads")
        pair = np.array([self.rows[k], self.rows[k + 1]])
        return _crossing(self.t, k, pair[:, :4], pair[:, 4:], T)


@dataclass
class ScalingReport:
    """Endpoint deviation of the averaged geodesic from the tracked mean."""

    alphas: list
    deviations: list
    fitted_exponent: float
    fitted_prefactor: float

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=float)
        d = np.asarray(self.deviations, dtype=float)
        if len(a) != len(d):
            raise ValueError("alphas and deviations must have equal length")
        fit = np.array([self.fitted_exponent, self.fitted_prefactor], dtype=float)
        if not (np.isfinite(a).all() and np.isfinite(d).all() and np.isfinite(fit).all()):
            raise ValueError("alphas, deviations and the fit must be finite")
        if np.any(np.diff(a) >= 0.0):
            raise ValueError("alphas must be strictly decreasing")
        if np.any(d < 0.0):
            raise ValueError("deviations must be nonnegative")

    def to_json(self) -> str:
        return json.dumps(
            {
                "alphas": [float(a) for a in self.alphas],
                "deviations": [float(d) for d in self.deviations],
                "fitted_exponent": float(self.fitted_exponent),
                "fitted_prefactor": float(self.fitted_prefactor),
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ScalingReport":
        data = json.loads(text)
        return cls(
            alphas=data["alphas"],
            deviations=data["deviations"],
            fitted_exponent=data["fitted_exponent"],
            fitted_prefactor=data["fitted_prefactor"],
        )


@dataclass
class LinearizationReport:
    """Second-order remainder of the deviation transport vs scale."""

    scales: list
    errors: list
    fitted_order: float


def ensemble_track(lattice: Lattice, ensemble: BeamEnsemble, x0,
                   t_end: float, config: IntegratorConfig) -> EnsembleTrackResult:
    """Track every sample through the exact force law; stream the mean.

    All samples start from the common event x0 and integrate in proper
    time with the same arithmetic as integrate_lorentz, batched over the
    cloud.  The weighted mean position and velocity are reduced at every
    step in the documented fixed order, so a point bunch yields a mean
    trajectory bit-identical to the single-particle run.  Sample
    histories are not stored; memory stays O(n samples + n steps).
    """
    return EnsembleTrackResult(mean=_track_means(lattice, [ensemble], x0, t_end, config)[0])


def _track_means(lattice: Lattice, ensembles, x0, t_end: float,
                 config: IntegratorConfig, lab_times=None) -> list:
    """Mean trajectory of each of G clouds of equal size m, tracked as one batch.

    The G m samples advance from x0 as one (4, G m) part of position and
    one of velocity through the RK4 kernel (_rows_accel), so each kernel
    update is one numpy call for all clouds, and a step whose stages keep
    the whole batch inside one run of drifts is one add, with no force
    call (the kernel's coast, _rk4).  Every sample rounds as in its own
    run, and each cloud's means are reduced along its own samples in the
    fixed order, so every series is bit for bit that of a separate run
    of its cloud.

    With lab_times None every mean is reduced at every grid point, and
    each cloud gets a TrajectorySeries.  Given the lab times a comparison
    will read, each step reduces only every cloud's mean x0; the whole
    mean is reduced at the last two grid points and at each pair k - 1,
    k with x0[k - 1] <= T < x0[k] for a given T, where
    position_at_lab_time reads T, and each cloud gets a _LabTimeMeans.
    A reduced row is the same reduction of the same state, so its bits
    are those of the full series.
    """
    for ens in ensembles:
        check_on_shell(ens.ys, label="sample")
    _check_step(lattice.min_length(), config.step)
    n, h, t = _grid(0.0, t_end, config.step)
    G, m = len(ensembles), len(ensembles[0].ys)
    ws = np.stack([ens.ws for ens in ensembles])
    vol = np.array([_sequential_sum(w) for w in ws])

    def means(x, v):
        """(8, G): every cloud's mean position, then its mean velocity."""
        return _shifted_mean(np.concatenate((x[0], v[0])).reshape(8, G, m), ws, vol)

    if lab_times is None:
        mean_x = np.empty((G, n + 1, 4))
        mean_v = np.empty((G, n + 1, 4))

        def observe(k, x, v):
            r = means(x, v)
            mean_x[:, k] = r[:4].T
            mean_v[:, k] = r[4:].T
    else:
        T = np.asarray(lab_times, dtype=float)
        lab = np.empty((G, n + 1))
        rows, last = {}, None

        def observe(k, x, v):
            nonlocal last
            lab[:, k] = _shifted_mean(x[0][0].reshape(G, m), ws, vol)
            if k and (k == n or np.any((lab[:, k - 1] <= T) & (T < lab[:, k]))):
                if k - 1 not in rows:
                    rows[k - 1] = means(*last)
                rows[k] = means(x, v)
            last = x, v

    # one row per component, one column per sample, cloud after cloud
    x = np.repeat(np.asarray(x0, dtype=float).reshape(4, 1), G * m, axis=1)
    v = np.concatenate([ens.ys.T for ens in ensembles], axis=1)
    _rk4(_rows_accel(_rhs_geodesic(lattice)), [x], [v], h, n, observe)
    if lab_times is None:
        return [TrajectorySeries(t=t, x=mx, v=mv) for mx, mv in zip(mean_x, mean_v)]
    return [_LabTimeMeans(t, lab[g], {k: r[:, g] for k, r in rows.items()}) for g in range(G)]


# ---------------------------------------------------------------------------
# exact flow in one uniform element

def _uniform_field(element: Element):
    """The element's field entries; UnsupportedElement when the field has a gradient.

    A field with a gradient varies with the position or the phase, and
    has no one flow.
    """
    probe = (0.0, 0.0, 0.0, 0.0)
    if element.gradient_entries(0.0, probe):
        raise UnsupportedElement(f"uniform_flow needs a uniform field; {element.kind} "
                                 f"has a gradient")
    return element.field_entries(0.0, probe)


def _squared_rate(F) -> float:
    """w2 = -tr(F F)/2 = B^2 - E^2 of a uniform field's entries."""
    entry = {(i, j): f for i, j, f in F}
    return -0.5 * sum(f * entry.get((j, i), 0.0) for (i, j), f in entry.items())


def uniform_flow(F, x, v, tau: float):
    """Exact event and velocity at proper time tau in a uniform field, from (x, v) at 0.

    F holds the field entries of a drift, dipole or const_e element
    (_uniform_field); x and v are four components each, floats or (m,)
    columns.  The field is constant, so v' = A v with A = -F, and
    A^3 = -w2 A with w2 = -tr(A^2)/2 = B^2 - E^2 (Cayley-Hamilton;
    E.B = 0 in every uniform kind).  Hence

        v(tau) = v + S A v + C A^2 v,   x(tau) = x + tau v + C A v + T A^2 v,

    S = sin(w tau)/w, C = (1 - cos w tau)/w^2 and T = (tau - S)/w^2,
    hyperbolic for w2 < 0 and tau^2/2, tau^3/6 for w2 = 0.  A v and A^2 v
    are contracted from the field entries, and C and T come from
    _hill_excess, which keeps 1 - cos and tau - S relatively accurate.
    """
    w2 = _squared_rate(F)
    Fv = _matvec(F, v)
    FFv = _matvec(F, Fv)  # A v = -F v, A^2 v = F F v
    if w2 == 0.0:
        S, C, T = tau, 0.5 * tau * tau, tau * tau * tau / 6.0
    else:
        with np.errstate(invalid="ignore"):  # 0/0 at tau = 0, which the series replaces
            cm1, _, sm = (float(a[0]) for a in _hill_excess(w2, np.array([tau])))
        S, C, T = tau + sm, -cm1 / w2, -sm / w2
    return ([p + tau * q - C * a + T * b for p, q, a, b in zip(x, v, Fv, FFv)],
            [q - S * a + C * b for q, a, b in zip(v, Fv, FFv)])


def _rk4_truncation(u: float, w: float, tau: float, h: float) -> float:
    """Leading h^4 error of an RK4 orbit's position read at a lab time in a uniform bend.

    Three terms for spatial speed u, bend rate w and a run of proper
    time tau at step h: RK4's phase error on the rotation, the
    connection form's shell factor s(3 - s)/2 at the stages (a stage
    velocity is off the shell by (h w u)^2 / 4), and the cubic Hermite
    read of the lab time.
    """
    return u * h ** 4 * w ** 3 * (w * tau / 120.0 + u ** 4 * (w * tau) ** 2 / 64.0 + 1.0 / 384.0)


def _flow_mean(lattice: Lattice, ens: BeamEnsemble, x0, n: int, h: float, speed: float):
    """(end lab time, lab time -> mean position) of a cloud's run from the exact flow.

    The cloud starts at the event x0 and runs n RK4 steps of h, the grid
    of an averaged geodesic of spatial speed speed.  The flow is used
    when the element holding x0 is a drift or a dipole and every sample
    stays inside it: v2 > 0 at both ends, w n h < pi so v2 keeps its
    sign and x2 grows throughout, and x2 at n h before the element's
    exit.  It is used only where the averaged geodesic's RK4 truncation
    error (_rk4_truncation) is below the rounding of its n steps, about
    n eps times its path: a tracked cloud carries nearly the geodesic's
    own truncation error, which cancels in the deviation, and the exact
    cloud does not, so a larger one would enter the deviation whole.
    Every sample then keeps its Lorentz factor, so the mean lab time is
    x0[0] + tau <gamma> and the mean reaches lab time T at
    tau = (T - x0[0]) / <gamma> exactly.  Means are reduced in the fixed
    order.  Returns None when the flow does not apply.
    """
    check_on_shell(ens.ys, label="sample")
    index = int(lattice.element_index(x0[2]))
    element = lattice.elements[index]
    if not isinstance(element, (Drift, Dipole)):
        return None
    F = _uniform_field(element)
    w, span = math.sqrt(_squared_rate(F)), n * h
    if not (w * span < math.pi
            and _rk4_truncation(speed, w, span, h) <= n * np.finfo(float).eps * speed * span):
        return None
    launch, v = list(x0), list(ens.ys.T)
    x, v_end = uniform_flow(F, launch, v, span)
    if not (np.all(v[2] > 0.0) and np.all(v_end[2] > 0.0)
            and np.all(x[2] < lattice.boundaries[index])):
        return None
    vol = _sequential_sum(ens.ws)
    gamma = float(_shifted_mean(ens.ys[:, 0], ens.ws, vol))

    def position_at(T: float) -> np.ndarray:
        at, _ = uniform_flow(F, launch, v, (T - launch[0]) / gamma)
        return _shifted_mean(np.array(at[1:]), ens.ws, vol)

    return launch[0] + span * gamma, position_at


# ---------------------------------------------------------------------------
# equal-time comparison helpers

def _hermite_eval(q0, q1, d0, d1, h, theta):
    """Cubic Hermite value on one step, local coordinate theta in [0,1]."""
    t2 = theta * theta
    t3 = t2 * theta
    h00 = 2.0 * t3 - 3.0 * t2 + 1.0
    h10 = t3 - 2.0 * t2 + theta
    h01 = -2.0 * t3 + 3.0 * t2
    h11 = t3 - t2
    return h00 * q0 + h10 * h * d0 + h01 * q1 + h11 * h * d1


def position_at_lab_time(series: TrajectorySeries, T: float) -> np.ndarray:
    """Spatial position where the worldline crosses lab time x0 = T.

    The proper-time samples bracket T (x0 is strictly increasing for a
    future-directed worldline); the crossing is refined on the local
    cubic Hermite model with a fixed eight-iteration Newton solve, which
    is deterministic and accurate to the interpolation order.
    """
    k = _bracketing_step(series.x[:, 0], T)
    return _crossing(series.t, k, series.x[k:k + 2], series.v[k:k + 2], T)


def _bracketing_step(x0s, T: float) -> int:
    """The step k whose lab times x0s[k], x0s[k + 1] bracket T; OutOfSpan off the run."""
    if T < x0s[0] - 1e-12 or T > x0s[-1] + 1e-12:
        raise OutOfSpan(f"lab time {T} outside run range [{x0s[0]}, {x0s[-1]}]")
    k = int(np.searchsorted(x0s, T, side="right") - 1)
    return min(max(k, 0), len(x0s) - 2)


def _crossing(t, k, x, v, T: float) -> np.ndarray:
    """Spatial position at lab time T on step k, from the step's end rows x and v (2, 4)."""
    h = float(t[k + 1] - t[k])
    q0, q1 = x[0, 0], x[1, 0]
    d0, d1 = v[0, 0], v[1, 0]
    denom = q1 - q0
    theta = 0.5 if denom == 0.0 else (T - q0) / denom
    for _ in range(8):
        f = _hermite_eval(q0, q1, d0, d1, h, theta) - T
        df = _hermite_eval_d(q0, q1, d0, d1, h, theta)
        if df != 0.0:
            theta -= f / df
        theta = min(max(theta, 0.0), 1.0)
    out = np.empty(3)
    for c in (1, 2, 3):
        out[c - 1] = _hermite_eval(x[0, c], x[1, c], v[0, c], v[1, c], h, theta)
    return out


def _hermite_eval_d(q0, q1, d0, d1, h, theta):
    t2 = theta * theta
    dh00 = 6.0 * t2 - 6.0 * theta
    dh10 = 3.0 * t2 - 4.0 * theta + 1.0
    dh01 = -6.0 * t2 + 6.0 * theta
    dh11 = 3.0 * t2 - 2.0 * theta
    return dh00 * q0 + dh10 * h * d0 + dh01 * q1 + dh11 * h * d1


def endpoint_deviation(a: TrajectorySeries, b: TrajectorySeries) -> float:
    """Spatial Euclidean distance between two runs at the largest lab time both
    reach, the operative reading of distances measured in the laboratory frame."""
    T = min(float(a.x[-1, 0]), float(b.x[-1, 0]))
    return _distance(position_at_lab_time(a, T), position_at_lab_time(b, T))


def _distance(p, q) -> float:
    d = p - q
    return float(np.sqrt(np.sum(d * d)))


# ---------------------------------------------------------------------------
# alpha-scaling scan

def gaussian_beam_family(mean_spatial, n: int, seed: int):
    """Deterministic alpha -> ensemble map for scaling scans.

    Per-axis sigma is alpha/8, so the empirical support diameter of the
    draw tracks alpha.  Draws are recentered onto the requested spatial
    mean before projection; this removes the O(alpha/sqrt(n)) wander of
    the sample mean, which would otherwise mask the quadratic moment
    effects the scan is trying to measure.
    """
    _check_count(n)
    mean_spatial = np.asarray(mean_spatial, dtype=float)

    def family(alpha: float) -> BeamEnsemble:
        if not 0.0 < alpha <= 0.2:
            raise ValueError(f"alpha must lie in (0, 0.2], got {alpha}")
        rng = np.random.default_rng([seed, int(round(alpha * 1e12))])
        draws = mean_spatial + (alpha / 8.0) * rng.standard_normal((n, 3))
        draws = draws - draws.mean(axis=0) + mean_spatial
        return BeamEnsemble(project_to_hyperboloid(draws))

    return family


def theorem1_scan(lattice: Lattice, beam_family, alphas, s: float,
                  config: IntegratorConfig) -> ScalingReport:
    """Measure how the averaged geodesic degrades with bunch size alpha.

    For each alpha, the family's ensemble is followed sample by sample
    and its weighted mean compared against the geodesic of the averaged
    connection launched from the on-shell projection of the mean spatial
    velocity; the endpoint distance at the last lab time both runs reach
    is fitted as deviation ~ prefactor * alpha^exponent by
    least squares on logs.  Both runs last the proper time s / |u_c|,
    u_c's spatial speed: where that speed is conserved (magnetic
    elements) s is the lab path length, and elsewhere (const_e, rf) it
    only sets that proper-time budget.

    Every alpha's cloud and averaged geodesic are built first.  A cloud
    that the exact flow of its launch element keeps inside that drift or
    dipole for its whole run is read off the flow where the geodesic's
    RK4 truncation error is below its rounding (_flow_mean); this
    depends on the lattice, the cloud and the step only.  The other
    clouds of equal step count and size are then tracked together as one
    batch (_track_means); their means are bit for bit those of separate runs,
    and a cloud whose step count differs is tracked in a group of its
    own, so no cloud takes a step its own run would not take.  Each
    tracked cloud's mean is reduced only where the comparison reads it,
    about the end lab time of its averaged geodesic and at its run's
    end.  The averaged geodesics always run through the RK4 kernel.
    """
    if not s > 0.0:
        raise ValueError(f"lab path length s must be positive, got {s}")
    alphas = [float(a) for a in alphas]
    if len(alphas) < 3:
        raise DegenerateFit("need at least 3 alpha values for a scaling fit")
    if any(b >= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be strictly decreasing")

    x0 = np.zeros(4)
    averaged, groups = [], {}
    runs = [None] * len(alphas)  # (end lab time, lab time -> mean position) per cloud
    for k, alpha in enumerate(alphas):
        ens = beam_family(alpha)
        moments = compute_moments(ens)
        u_c = project_to_hyperboloid(moments.first[1:4])
        speed = math.sqrt(u_c[1] ** 2 + u_c[2] ** 2 + u_c[3] ** 2)
        if speed <= 0.0:
            raise ValueError("beam family must have a moving mean velocity")
        t_end = s / speed  # lab path length s only where the spatial speed is conserved
        # the cloud's run covers the RK4 grid, exact or not; tracked clouds
        # on one grid (step count and step) and of one size go together,
        # and the grid depends on t_end only through those
        try:
            n, h, _ = _grid(0.0, t_end, config.step)
        except ValueError:  # it names the proper time t_end, a span no caller gave
            raise ValueError(f"lab path length {s!r} over step {config.step!r} gives no "
                             f"grid: {t_end / config.step:.6g} proper-time steps") from None
        avg = integrate_averaged_geodesic(
            lattice, moments, TrajectoryState(t=0.0, x=x0, v=u_c), t_end, config
        )
        averaged.append(avg)
        runs[k] = _flow_mean(lattice, ens, x0, n, h, speed)
        if runs[k] is None:
            groups.setdefault((n, h, len(ens.ys)), []).append(
                (k, ens, t_end, float(avg.x[-1, 0])))

    for members in groups.values():
        ks, clouds, t_ends, lab_ends = zip(*members)
        for k, mean in zip(ks, _track_means(lattice, clouds, x0, t_ends[0], config, lab_ends)):
            runs[k] = float(mean.x0[-1]), mean.position_at
    # endpoint_deviation's lab-time comparison, on the flow or the reduced rows
    deviations = []
    for avg, (lab_end, position_at) in zip(averaged, runs):
        T = min(float(avg.x[-1, 0]), lab_end)
        deviations.append(_distance(position_at_lab_time(avg, T), position_at(T)))

    dev = np.asarray(deviations)
    if np.any(~np.isfinite(dev)) or np.any(dev <= 0.0):
        raise DegenerateFit(f"deviations unusable for a log fit: {deviations}")
    slope, intercept = np.polyfit(np.log(alphas), np.log(dev), 1)
    return ScalingReport(
        alphas=alphas,
        deviations=deviations,
        fitted_exponent=float(slope),
        fitted_prefactor=float(math.exp(intercept)),
    )


# ---------------------------------------------------------------------------
# two-geodesic linearization check

def jacobi_vs_two_geodesics(lattice: Lattice, moments, launch: TrajectoryState,
                            xi0: JacobiState, t_end: float, scales,
                            config: IntegratorConfig) -> LinearizationReport:
    """Compare transported deviations against actual geodesic differences.

    For each scale sigma the launch is displaced by sigma times (xi0.xi,
    xi0.dxi) and integrated to t_end with the same right-hand side as the
    averaged reference X from launch (deviations of the moment slots stay
    pinned to the launch velocity, so both runs see the same connection
    field).  The residual |[x_sigma - X] - sigma*xi| at the endpoint is
    second order in sigma when the transport is the true linearization.

    The displaced launch velocity sits O(sigma) off the hyperboloid by
    construction, so the companion runs use the raw integrator core
    rather than the shell-gated public operation.
    """
    scales = [float(s) for s in scales]
    if any(s < 0.0 for s in scales):
        raise ValueError("scales must be nonnegative")
    if any(b >= a for a, b in zip(scales, scales[1:])):
        raise ValueError("scales must be strictly decreasing")

    jac = integrate_jacobi_full(lattice, moments, launch, xi0, t_end, config, mode="full")
    x0 = np.asarray(launch.x, dtype=float)
    v0 = np.asarray(launch.v, dtype=float)
    xi, dxi = np.asarray(xi0.xi, dtype=float), np.asarray(xi0.dxi, dtype=float)
    # the base run and every displaced companion advance together as one
    # (4, runs) part, a column each; each column rounds as its own single run would
    xs = np.column_stack([x0] + [x0 + sigma * xi for sigma in scales])
    vs = np.column_stack([v0] + [v0 + sigma * dxi for sigma in scales])
    rhs = _rows_accel(_rhs_geodesic(lattice, *_frozen_slots(moments, v0)))
    n, h, _ = _grid(xi0.t, t_end, config.step)
    end = _rk4_rows(rhs, [xs], [vs], h, n)[0][-1, 0].T

    errors = []
    for sigma, px in zip(scales, end[1:]):
        resid = (px - end[0]) - sigma * jac.xi[-1]
        errors.append(float(np.sqrt(np.sum(resid * resid))))

    pos = [(s, e) for s, e in zip(scales, errors) if s > 0.0 and e > 0.0]
    if len(pos) >= 2:
        ls = np.log([s for s, _ in pos])
        le = np.log([e for _, e in pos])
        order = float(np.polyfit(ls, le, 1)[0])
    else:
        order = float("nan")
    return LinearizationReport(scales=scales, errors=errors, fitted_order=order)


# ---------------------------------------------------------------------------
# field-gradient validation

def validate_field_gradients(lattice: Lattice, probes, step: float = 1e-5) -> float:
    """Worst finite-difference error of the analytic field gradients.

    probes is an iterable of 4-positions; at each, every deviation
    direction is perturbed by +-step and the centered difference of the
    field is compared entrywise against the analytic gradient.  The
    error is normalized by max(1, largest gradient entry).  step must
    be finite and positive.
    """
    if not 0.0 < step < math.inf:
        raise ValueError(f"finite-difference step must be finite and positive, got {step}")
    worst = 0.0
    gmax = 0.0
    for probe in probes:
        x = np.asarray(probe, dtype=float)
        xi = np.array([0.0, x[1], 0.0, x[3]])
        G = field_gradient(lattice, float(x[2]), xi)
        gmax = max(gmax, float(np.max(np.abs(G))))
        for l in range(4):
            d = np.zeros(4)
            d[l] = step
            fp = field_mixed(lattice, float(x[2]), xi + d)
            fm = field_mixed(lattice, float(x[2]), xi - d)
            fd = (fp - fm) / (2.0 * step)
            worst = max(worst, float(np.max(np.abs(fd - G[l]))))
    return worst / max(1.0, gmax)
