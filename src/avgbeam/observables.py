"""Hill-equation machinery, dispersion, and the collective offset observable.

The linear channels of the deviation dynamics all reduce to Hill
equations u'' + K(t) u = 0; this module builds their principal
solutions, the associated Green function and particular solutions, the
dispersion response to a momentum error, and the transverse offset
integrals driven by the ensemble moments along a reference run.  The
offsets take the moments in the integrators' comoving form: first along
the run and the rank-3 slot contracted in closed form around the
reference velocity (dynamics._comoving_third), never a tensor series.

On a lattice K is constant inside each hard-edged element, so the
principal solutions chain the closed-form transfer maps of each run of
equal K and are exact at element edges; principal_solutions takes any
such piecewise-constant K sampled on a grid, and
lattice_principal_solutions the lattice's own profile.
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
    _hill_map,
    _matvec,
    _mdot,
    _moment,
    _series_columns,
    _uniform_step,
)
from .errors import (
    MismatchedGrid,
    OutOfSpan,
    ResidualTooLarge,
    WronskianDrift,
)
from .lattice import Lattice, gradient_entries, transverse_k_profile


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
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed map gives nan here
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


def principal_solutions(t: np.ndarray, K: np.ndarray) -> PrincipalSolutions:
    """The fundamental pair of u'' + K u = 0 on a grid, for a piecewise-constant K.

    K is sampled on the same grid, right-continuous as transverse_k_profile
    samples it: step [t_k, t_k+1] carries K[k], and the last sample
    carries no step.  Each run of equal K is exact: its rows are the
    transfer map of that K (dynamics._hill_map, at offsets 1..n steps
    from the run's entry, as the transverse channel evaluates it)
    applied to the entry states (C, C') and (S, S').  The maps of all
    runs come from one _hill_map call with K by grid point; the entry
    states are chained run to run in floats, by the products and sums
    the rows are formed with, so every row has the bits of a per-run
    evaluation.  An overflowing map stays silent, as float arithmetic
    is.  Raises MismatchedGrid for a K of another length, ValueError for
    a non-finite K or a grid that is not uniform, and WronskianDrift if
    the pair loses its unit Wronskian beyond 1e-9 anywhere on the grid.
    """
    t = np.asarray(t, dtype=float)
    K = np.asarray(K, dtype=float)
    if len(K) != len(t):
        raise MismatchedGrid(f"K has {len(K)} samples, grid has {len(t)}")
    if not np.all(np.isfinite(K)):
        raise ValueError("K must be finite on the grid")
    h = _uniform_step(t)
    # a run of equal K ends where the next step's K differs, or at the last point
    ends = np.append(np.flatnonzero(K[1:-1] != K[:-2]) + 1, len(t) - 1)
    lengths = np.diff(ends, prepend=0)
    C, Cp, S, Sp = rows = np.empty((4, len(t)))
    rows[:, 0] = 1.0, 0.0, 0.0, 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # silent, as float arithmetic is
        # grid point j > 0 ends step j - 1, whose K is its run's, at j - entry steps from the entry
        tau = (np.arange(1, len(t)) - np.repeat(ends - lengths, lengths)) * h
        # K by point, or the one K of a grid that is one run, which the float path takes faster
        Cm, Cpm, Sm, Spm = maps = _hill_map(K[:-1] if len(ends) > 1 else float(K[0]), tau)
        # each run's entry states (C, C') and (S, S'): the previous run's last
        # points, formed as the points below form them
        c, cp, s, sp = 1.0, 0.0, 0.0, 1.0
        states = []
        for mc, mcp, ms, msp in zip(*(m[ends - 1].tolist() for m in maps)):
            states.append((c, cp, s, sp))
            c, cp, s, sp = mc * c + ms * cp, mcp * c + msp * cp, mc * s + ms * sp, mcp * s + msp * sp
        # (u, u') = (C u0 + S u0', C' u0 + S' u0') for u = C and u = S, (u0, u0')
        # each point's run entry, formed in place with one scratch row
        c0, cp0, s0, sp0 = zip(*states)
        product = np.empty(len(t) - 1)
        for u, du, run_u0, run_du0 in ((C, Cp, c0, cp0), (S, Sp, s0, sp0)):
            u0, du0 = np.repeat(run_u0, lengths), np.repeat(run_du0, lengths)
            np.multiply(Cm, u0, out=u[1:])
            u[1:] += np.multiply(Sm, du0, out=product)
            np.multiply(Cpm, u0, out=du[1:])
            du[1:] += np.multiply(Spm, du0, out=product)
    return PrincipalSolutions(t=t.copy(), C=C, Cp=Cp, S=S, Sp=Sp, K=K.copy())


def lattice_principal_solutions(lattice: Lattice, plane: str, step: float) -> PrincipalSolutions:
    """principal_solutions on the plane's transverse_k_profile, exact at element edges.

    Raises MismatchedSampling for a step that misses an element boundary
    and ValueError for an unknown plane or a non-finite K.
    """
    return principal_solutions(*transverse_k_profile(lattice, plane, step))


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
    if not delta >= 0.0:  # nan fails too
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
