"""Brute-force cross-checks for the averaged dynamics.

Everything here answers one question: does replacing a particle cloud by
its moments reproduce what the cloud actually does?  The tools are
deliberately blunt: push every sample through the exact force law and
compare means, difference two nearby geodesics and compare against the
linearized transport, finite-difference the field gradients.  Reductions
follow the ensemble module's fixed-order scheme so results are bit
reproducible and a point bunch collapses exactly onto the
single-particle run.  Clouds of equal step count and size advance
together as one batch, each column rounding and each cloud's mean
reducing as in a separate run, so batching does not change the bits.
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
    _cloud_accel,
    _frozen_slots,
    _grid,
    _rhs_geodesic,
    _rk4,
    _rk4_rows,
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
from .errors import DegenerateFit, OutOfSpan
from .lattice import Lattice, field_gradient, field_mixed
from .minkowski import check_on_shell


@dataclass
class EnsembleTrackResult:
    """Weighted-mean trajectory of a tracked cloud."""

    mean: TrajectorySeries


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
                 config: IntegratorConfig) -> list:
    """Mean trajectory of each of G clouds of equal size m, tracked as one batch.

    The G m samples advance from x0 as one (4, G m) state through the RK4
    kernel, so the per-step numpy overhead is paid once for all clouds.
    Every column rounds as in its own run, and each cloud's means are
    reduced along its own samples in the fixed order, so every series is
    bit for bit that of a separate run of its cloud.
    """
    for ens in ensembles:
        check_on_shell(ens.ys, label="sample")
    _check_step(lattice.min_length(), config.step)
    n, h, t = _grid(0.0, t_end, config.step)
    G, m = len(ensembles), len(ensembles[0].ys)
    ws = np.stack([ens.ws for ens in ensembles])
    vol = np.array([_sequential_sum(w) for w in ws])

    mean_x = np.empty((G, n + 1, 4))
    mean_v = np.empty((G, n + 1, 4))

    def observe(k, x, v):
        mean_x[:, k] = _shifted_mean(x[0].reshape(4, G, m), ws, vol).T
        mean_v[:, k] = _shifted_mean(v[0].reshape(4, G, m), ws, vol).T

    # one contiguous column per component, one entry per sample, cloud after cloud
    x = np.repeat(np.reshape(np.asarray(x0, dtype=float), (4, 1)), G * m, axis=1)
    v = np.concatenate([ens.ys.T for ens in ensembles], axis=1)
    _rk4(_cloud_accel(_rhs_geodesic(lattice)), [x], [v], h, n, observe)
    return [TrajectorySeries(t=t, x=mx, v=mv) for mx, mv in zip(mean_x, mean_v)]


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
    x0s = series.x[:, 0]
    if T < x0s[0] - 1e-12 or T > x0s[-1] + 1e-12:
        raise OutOfSpan(f"lab time {T} outside run range [{x0s[0]}, {x0s[-1]}]")
    k = int(np.searchsorted(x0s, T, side="right") - 1)
    k = min(max(k, 0), len(x0s) - 2)
    h = float(series.t[k + 1] - series.t[k])
    q0, q1 = x0s[k], x0s[k + 1]
    d0, d1 = series.v[k, 0], series.v[k + 1, 0]
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
        out[c - 1] = _hermite_eval(series.x[k, c], series.x[k + 1, c],
                                   series.v[k, c], series.v[k + 1, c], h, theta)
    return out


def _hermite_eval_d(q0, q1, d0, d1, h, theta):
    t2 = theta * theta
    dh00 = 6.0 * t2 - 6.0 * theta
    dh10 = 3.0 * t2 - 4.0 * theta + 1.0
    dh01 = -6.0 * t2 + 6.0 * theta
    dh11 = 3.0 * t2 - 2.0 * theta
    return dh00 * q0 + dh10 * h * d0 + dh01 * q1 + dh11 * h * d1


def endpoint_deviation(a: TrajectorySeries, b: TrajectorySeries,
                       comparison: str = "lab-time") -> float:
    """Spatial Euclidean distance between two runs at their common end.

    "lab-time" compares at the largest lab time both runs reach (the
    operative reading of distances measured in the laboratory frame);
    "proper-time" compares at the final common parameter value.
    """
    if comparison == "proper-time":
        d = a.x[-1, 1:4] - b.x[-1, 1:4]
        return float(np.sqrt(np.sum(d * d)))
    if comparison != "lab-time":
        raise ValueError(f"unknown comparison '{comparison}'")
    T = min(float(a.x[-1, 0]), float(b.x[-1, 0]))
    d = position_at_lab_time(a, T) - position_at_lab_time(b, T)
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

    For each alpha, the family's ensemble is tracked sample-by-sample
    and its weighted mean compared against the geodesic of the averaged
    connection launched from the on-shell projection of the mean spatial
    velocity; the endpoint distance over a lab path length s, at the last
    lab time both runs reach ("lab-time"), is fitted as deviation ~
    prefactor * alpha^exponent by least squares on logs.

    Every alpha's cloud and averaged geodesic are built first.  Clouds of
    equal step count and size are then tracked together as one batch
    (_track_means); their means are bit for bit those of separate runs,
    and a cloud whose step count differs is tracked in a group of its
    own, so no cloud takes a step its own run would not take.
    """
    alphas = [float(a) for a in alphas]
    if len(alphas) < 3:
        raise DegenerateFit("need at least 3 alpha values for a scaling fit")
    if any(b >= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be strictly decreasing")

    x0 = np.zeros(4)
    averaged, groups = [], {}
    for k, alpha in enumerate(alphas):
        ens = beam_family(alpha)
        moments = compute_moments(ens)
        u_c = project_to_hyperboloid(moments.first[1:4])
        speed = math.sqrt(u_c[1] ** 2 + u_c[2] ** 2 + u_c[3] ** 2)
        if speed <= 0.0:
            raise ValueError("beam family must have a moving mean velocity")
        t_end = s / speed  # spatial speed is conserved in magnetic elements
        averaged.append(integrate_averaged_geodesic(
            lattice, moments, TrajectoryState(t=0.0, x=x0, v=u_c), t_end, config
        ))
        # clouds on one grid (step count and step) and of one size are
        # tracked together; the grid depends on t_end only through those
        n, h, _ = _grid(0.0, t_end, config.step)
        groups.setdefault((n, h, len(ens.ys)), []).append((k, ens, t_end))

    means = [None] * len(alphas)
    for members in groups.values():
        ks, clouds, t_ends = zip(*members)
        for k, mean in zip(ks, _track_means(lattice, clouds, x0, t_ends[0], config)):
            means[k] = mean
    deviations = [endpoint_deviation(avg, mean) for avg, mean in zip(averaged, means)]

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
    # the base run and every displaced companion advance together, one
    # column each; each column rounds as its own single run would
    xs = np.column_stack([x0] + [x0 + sigma * xi for sigma in scales])
    vs = np.column_stack([v0] + [v0 + sigma * dxi for sigma in scales])
    rhs = _rhs_geodesic(lattice, *_frozen_slots(moments, v0))
    n, h, _ = _grid(xi0.t, t_end, config.step)
    end = _rk4_rows(_cloud_accel(rhs), [xs], [vs], h, n)[0][-1, 0].T

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
