"""Hill-equation machinery, dispersion, and the collective offset observable.

The linear channels of the deviation dynamics all reduce to Hill
equations u'' + K(t) u = 0; this module builds their principal
solutions, the associated Green function and particular solutions, the
dispersion response to a momentum error, and the transverse offset
integrals driven by the ensemble moments along a reference run.  The
offsets take the moments in the integrators' comoving form: first along
the run and the rank-3 slot contracted in closed form around the
reference velocity (dynamics._comoving_third), never a tensor series.

Principal solutions come two ways.  On a lattice K is constant inside
each hard-edged element, so lattice_principal_solutions chains the
elements' closed-form transfer maps and is exact at element edges;
principal_solutions integrates an arbitrary sampled K(t) by RK4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    JacobiSeries,
    MomentsSeries,
    TrajectorySeries,
    _along_run,
    _check_common_grid,
    _comoving_third,
    _directional,
    _hill_rows,
    _matvec,
    _mdot,
    _moment,
    _rk4_rows,
    _series_columns,
    _stage_stream,
    _uniform_step,
)
from .errors import (
    MismatchedGrid,
    OutOfSpan,
    ResidualTooLarge,
    WronskianDrift,
)
from .lattice import Lattice, _element_k, gradient_entries, transverse_k_profile


@dataclass
class PrincipalSolutions:
    """Cosine-like and sine-like fundamental pair of u'' + K(t)u = 0.

    C has C(0)=1, C'(0)=0; S has S(0)=0, S'(0)=1.  The Wronskian
    C S' - C' S stays 1 in the absence of damping; drift beyond 1e-9 is
    a construction failure, not data.
    """

    t: np.ndarray
    C: np.ndarray
    Cp: np.ndarray
    S: np.ndarray
    Sp: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        if not (self.C[0] == 1.0 and self.Cp[0] == 0.0
                and self.S[0] == 0.0 and self.Sp[0] == 1.0):
            raise ValueError("principal solutions must start from the unit initial data")
        drift = self.wronskian_drift()
        if not drift <= 1e-9:  # NaN fails too
            raise WronskianDrift(f"Wronskian deviates from 1 by {drift}")

    def wronskian_drift(self) -> float:
        return float(np.max(np.abs(self.C * self.Sp - self.Cp * self.S - 1.0)))


@dataclass
class DispersionResult:
    """Dispersion function and the offset it induces for delta = dp/p0."""

    D: np.ndarray
    delta: float
    offset: np.ndarray


@dataclass
class OffsetSeries:
    """Transverse offset integrals along a reference grid.

    off1/off3 carry the per-deviation offsets, avg1/avg3 the
    ensemble-averaged observable; temporal and longitudinal components
    vanish in the regime considered.
    """

    t: np.ndarray
    off1: np.ndarray
    off3: np.ndarray
    avg1: np.ndarray
    avg3: np.ndarray

    def __post_init__(self):
        n = len(self.t)
        for name in ("off1", "off3", "avg1", "avg3"):
            if len(getattr(self, name)) != n:
                raise MismatchedGrid(f"{name} length does not match the grid")


def _cumtrapz(y: np.ndarray, h: float) -> np.ndarray:
    """Running trapezoid integral of samples y at spacing h, starting at 0."""
    return np.concatenate(([0.0], np.cumsum(h * (y[1:] + y[:-1]) / 2.0)))


def _check_finite_k(K):
    if not np.all(np.isfinite(K)):
        raise ValueError("K must be finite on the grid")


def principal_solutions(t: np.ndarray, K: np.ndarray) -> PrincipalSolutions:
    """Integrate the fundamental pair of u'' + K(t)u = 0 on the grid by RK4.

    For an arbitrary sampled K; a lattice's piecewise-constant K has the
    exact lattice_principal_solutions.  K is sampled on the same grid;
    each run streams -K in stage order, blending adjacent samples evenly
    at the midpoints, so a jump in K costs an order at that step.
    Raises WronskianDrift if the pair loses its unit Wronskian beyond
    1e-9 anywhere on the grid.
    """
    t = np.asarray(t, dtype=float)
    K = np.asarray(K, dtype=float)
    if len(K) != len(t):
        raise MismatchedGrid(f"K has {len(K)} samples, grid has {len(t)}")
    _check_finite_k(K)
    h = _uniform_step(t)
    # C and S advance as the two float parts of one state, each stage
    # applying one coefficient to both, which is what keeps the Wronskian pinned.
    neg_k = _stage_stream(K, np.negative)

    def accel(u, du):
        c = next(neg_k)
        return [c * u[0], c * u[1]]

    (C, S), (Cp, Sp) = (r.T.copy() for r in _rk4_rows(accel, [1.0, 0.0], [0.0, 1.0], h, len(t) - 1))
    return PrincipalSolutions(t=t.copy(), C=C, Cp=Cp, S=S, Sp=Sp, K=K.copy())


def lattice_principal_solutions(lattice: Lattice, plane: str, step: float) -> PrincipalSolutions:
    """The fundamental pair of the plane's Hill equation along the lattice, exact at edges.

    On the aligned grid of transverse_k_profile each element's rows are
    its transfer map for constant K (dynamics._hill_map, at offsets
    1..n_e steps from the element's entry, as the transverse channel
    evaluates it) applied to the entry states (C, C') and (S, S').
    Each element's K comes from the rule the profile samples, read per
    element.  The result carries the profile.
    Raises MismatchedSampling for a step that misses an element
    boundary and ValueError for a non-finite K.
    """
    ks = _element_k(lattice, plane)
    t, K = transverse_k_profile(lattice, plane, step)
    _check_finite_k(ks)
    C, Cp, S, Sp = rows = np.empty((4, len(t)))
    rows[:, 0] = 1.0, 0.0, 0.0, 1.0
    start = 0
    for k, end in zip(ks, lattice.boundaries):
        stop = round(float(end) / step)
        tau = np.arange(1, stop - start + 1) * step
        for u, du in ((C, Cp), (S, Sp)):
            u[start + 1:stop + 1], du[start + 1:stop + 1] = _hill_rows(k, tau, u[start], du[start])
        start = stop
    return PrincipalSolutions(t=t, C=C, Cp=Cp, S=S, Sp=Sp, K=K)


def _interp_checked(ps: PrincipalSolutions, value: float):
    lo, hi = ps.t[0], ps.t[-1]
    if value < lo - 1e-12 or value > hi + 1e-12:
        raise OutOfSpan(f"parameter {value} outside principal-solution span [{lo}, {hi}]")
    return (float(np.interp(value, ps.t, ps.C)), float(np.interp(value, ps.t, ps.S)))


def green_function(ps: PrincipalSolutions, t: float, t_tilde: float) -> float:
    """Green kernel S(t)C(t~) - C(t)S(t~); linear between grid points."""
    c_t, s_t = _interp_checked(ps, t)
    c_tt, s_tt = _interp_checked(ps, t_tilde)
    return s_t * c_tt - c_t * s_tt


def particular_solution(ps: PrincipalSolutions, p: np.ndarray) -> np.ndarray:
    """Particular response P(t) = int_0^t p(s) G(t,s) ds on the grid.

    The Green integral separates into S * int(pC) - C * int(pS), each
    accumulated by trapezoids, which avoids the quadratic kernel sweep.
    A finite-difference residual p - (P'' + K P) above 1e-6 max|p|
    raises ResidualTooLarge.
    """
    p = np.asarray(p, dtype=float)
    if len(p) != len(ps.t):
        raise MismatchedGrid(f"driver has {len(p)} samples, grid has {len(ps.t)}")
    h = _uniform_step(ps.t)
    ic = _cumtrapz(p * ps.C, h)
    isn = _cumtrapz(p * ps.S, h)
    P = ps.S * ic - ps.C * isn
    if len(P) >= 3:
        dd = (P[2:] - 2.0 * P[1:-1] + P[:-2]) / (h * h)
        resid = p[1:-1] - (dd + ps.K[1:-1] * P[1:-1])
        bound = 1e-6 * float(np.max(np.abs(p)))
        worst = float(np.max(np.abs(resid)))
        if not worst <= bound:  # NaN fails too
            raise ResidualTooLarge(
                f"particular-solution residual {worst} exceeds {bound}"
            )
    return P


def dispersion(ps: PrincipalSolutions, inv_rho: np.ndarray,
               delta: float) -> DispersionResult:
    """Dispersion function for a momentum error delta = dp/p0.

    inv_rho is the curvature 1/rho along the grid, the driver of
    D'' + K D = 1/rho (inverse_rho_profile); straight sections carry 0.
    """
    if delta < 0.0:
        raise ValueError(f"momentum spread must be nonnegative, got {delta}")
    p = np.asarray(inv_rho, dtype=float)
    if len(p) != len(ps.t):
        raise MismatchedGrid(f"curvature series has {len(p)} samples, grid has {len(ps.t)}")
    if not np.all(np.isfinite(p)):
        raise ValueError("non-finite curvature in 1/rho series")
    D = particular_solution(ps, p)
    return DispersionResult(D=D, delta=delta, offset=delta * D)


def momentum_spread(xi_run: JacobiSeries, p0: float = 1.0) -> float:
    """delta = dp/p0 with dp the peak spatial deviation over the run."""
    if not p0 > 0.0:
        raise ValueError("reference momentum must be positive")
    r = np.sqrt(xi_run.xi[:, 1] ** 2 + xi_run.xi[:, 2] ** 2 + xi_run.xi[:, 3] ** 2)
    return float(np.max(r)) / p0


# ---------------------------------------------------------------------------
# collective offset integrals

def averaged_offset(lattice: Lattice, reference: TrajectorySeries,
                    moments_along: MomentsSeries) -> OffsetSeries:
    """Ensemble-averaged transverse offsets along the reference run.

    The velocity-dependent deviation terms average to zero over the
    bunch, leaving the moment-driven integrand; a point bunch therefore
    produces an identically vanishing observable, so the magnitude of
    the result measures how far the bunch is from its single-particle
    idealization.  Depends only on the reference, the field along it,
    and the first and third moments.
    """
    h, _, F, V, first = _along_run(lattice, reference, moments_along)
    # F^i_m (<y^m> eta(V,V) - <yyy>^m_(VV))
    integ = _matvec(F, _moment(first, _comoving_third(V, moments_along.D3, V, V), _mdot(V, V)))
    avg1 = _cumtrapz(integ[1], h)
    avg3 = _cumtrapz(integ[3], h)
    return OffsetSeries(t=reference.t.copy(), off1=avg1.copy(), off3=avg3.copy(),
                        avg1=avg1, avg3=avg3)


def born_offset(lattice: Lattice, reference: TrajectorySeries,
                moments_along: MomentsSeries, xi_run: JacobiSeries) -> OffsetSeries:
    """First-order (Born) offset for one deviation solution.

    Adds to the averaged integrand the deviation-velocity cross term
    with epsilon = <y> - dX/dt and the field-gradient term xi^l d_l of
    the averaged integrand; both are linear in (xi, dxi), so averaging
    over a sign-symmetric family of deviation runs recovers
    averaged_offset.
    """
    _check_common_grid(reference, xi_run, "deviation run")
    h, lookup, F, V, first = _along_run(lattice, reference, moments_along)
    slot = _moment(first, _comoving_third(V, moments_along.D3, V, V), _mdot(V, V))
    xi = _series_columns(xi_run.xi)
    dxi = _series_columns(xi_run.dxi)
    eps = [first[c] - V[c] for c in range(4)]
    base = _matvec(F, slot)
    # 2 dxi^j X'^k * (1/2)(F_j eps_k + F_k eps_j)
    F_dxi, F_V = _matvec(F, dxi), _matvec(F, V)
    e_V, e_dxi = _mdot(eps, V), _mdot(eps, dxi)
    grad = _matvec(_directional(gradient_entries(*lookup), xi), slot)
    integ = [base[c] + (F_dxi[c] * e_V + F_V[c] * e_dxi) + grad[c] for c in range(4)]
    off1 = _cumtrapz(integ[1], h)
    off3 = _cumtrapz(integ[3], h)
    avg1 = _cumtrapz(base[1], h)
    avg3 = _cumtrapz(base[3], h)
    return OffsetSeries(t=reference.t.copy(), off1=off1, off3=off3,
                        avg1=avg1, avg3=avg3)
