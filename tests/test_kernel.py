"""The shared RK4 kernel and the closed-form averaged-connection force.

The references below are the hand-written classical RK4 loop the
integrators were first written with and the dense force algebra they
first used: numpy arrays over trailing (4,) and (4, 4) axes, with the
field as the dense tensor from field_mixed and field_gradient.  The
library now contracts the nonzero field entries on plain floats (one
orbit) or on columns (a batch); both must reproduce the dense reference
bit for bit, up to the sign of a zero, which the dense sums reach by
adding exact zeros.  The property tests pin the closed-form rank-3 slot
against the tensor form of the connection and the promised batch
invariance of the right-hand sides.  The per-row CSV writer and the
branching stage coefficient the linear channels first used are kept as
references for the block writer and the stage streams.  The linear
channels are closed form: they are checked row by row against the exact
solutions written with math functions, and against the RK4 reference at
its truncation error.
"""

import math
import os
import subprocess

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import sys

import pytest

from avgbeam import (
    ArcAdapted,
    BeamEnsemble,
    ConstantE,
    Dipole,
    Drift,
    FieldSample,
    INERTIAL,
    IntegratorConfig,
    JacobiState,
    Lattice,
    MomentSet,
    NormalQuadDipole,
    RFCavity,
    SkewQuadDipole,
    TrajectoryState,
    averaged_connection,
    averaged_offset,
    born_offset,
    comoving_moments_along,
    compute_moments,
    contract_geodesic,
    delta_moments,
    ensemble_track,
    field_gradient,
    field_mixed,
    integrate_averaged_geodesic,
    integrate_jacobi_full,
    integrate_longitudinal,
    integrate_lorentz,
    integrate_transverse_linear,
    mean_field_defect,
    moment_deviations,
    principal_solutions,
    project_to_hyperboloid,
    sample_gaussian_beam,
    transverse_k_profile,
    velocity_monomials3,
    write_ensemble_csv,
)
from avgbeam import dynamics, lattice as lattice_module
from avgbeam.dynamics import (
    _BLOCK_ROWS,
    _comoving_third,
    _frozen_slots,
    _gamma,
    _orbit,
    _rhs_geodesic,
    _rk4_rows,
    _series_derivative,
    _stage_stream,
    _write_rows,
)
from avgbeam.minkowski import METRIC_SIGNATURE
from avgbeam.observables import _cumtrapz


def reference_rk4(rhs, x0, v0, h, n):
    """Classical RK4 for x' = v, v' = rhs(k, theta, x, v), every grid point kept."""
    x = np.array(x0, dtype=float)
    v = np.array(v0, dtype=float)
    xs = np.empty((n + 1,) + x.shape)
    vs = np.empty_like(xs)
    xs[0] = x
    vs[0] = v
    half = 0.5 * h
    sixth = h / 6.0
    for k in range(n):
        a1 = rhs(k, 0.0, x, v)
        x2v = v + half * a1
        a2 = rhs(k, 0.5, x + half * v, x2v)
        x3v = v + half * a2
        a3 = rhs(k, 0.5, x + half * x2v, x3v)
        x4v = v + h * a3
        a4 = rhs(k, 1.0, x + h * x3v, x4v)
        x = x + sixth * (v + 2.0 * x2v + 2.0 * x3v + x4v)
        v = v + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        xs[k + 1] = x
        vs[k + 1] = v
    return xs, vs


def reference_write_rows(path, header, columns):
    """CSV writer formatting one value at a time, row by row."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        n = len(columns[0])
        for k in range(n):
            fh.write(",".join(repr(float(c[k])) for c in columns) + "\n")


def reference_at_stage(values, k, theta):
    """Tabulated coefficient at stage theta of step k, linear between grid points."""
    if theta <= 0.0:
        return values[k]
    if theta >= 1.0:
        return values[k + 1]
    return values[k] * (1.0 - theta) + values[k + 1] * theta


# ---------------------------------------------------------------------------
# exact linear channels, one row at a time with math functions; a row's
# scale is the sum of the magnitudes of the terms its closed form adds

def exact_hill(K, tau, u, du):
    """((u, u'), (scale u, scale u')) of u'' + K u = 0 at tau from (u, du)."""
    if K > 0.0:
        w = math.sqrt(K)
        c, s = math.cos(w * tau), math.sin(w * tau)
        C, Cp, S, Sp = c, -w * s, s / w, c
    elif K < 0.0:
        w = math.sqrt(-K)
        c, s = math.cosh(w * tau), math.sinh(w * tau)
        C, Cp, S, Sp = c, w * s, s / w, c
    else:
        C, Cp, S, Sp = 1.0, 0.0, tau, 1.0
    return ((C * u + S * du, Cp * u + Sp * du),
            (abs(C * u) + abs(S * du), abs(Cp * u) + abs(Sp * du)))


def exact_decay(e2, tau, u, du):
    """The same for u'' = -e2 u': u + du (1 - e^(-x))/e2 and du e^(-x), x = e2 tau."""
    x = e2 * tau
    lag = tau * (math.expm1(-x) / -x if x else 1.0)
    v, dv = u + du * lag, du * math.exp(-x)
    return (v, dv), (abs(u) + abs(du * lag), abs(dv))


def transverse_row(K):
    """Row function of the transverse channel with strengths K per component."""
    return lambda k, tau, xi, dxi: [exact_hill(K[i], tau, xi[i], dxi[i]) for i in range(4)]


def exact_hill_rise(K, tau, u, du):
    """xi2 - u - du tau and xi2' - du of u'' + K u = 0, as (C - 1) u + (S - tau) du
    and C' u + (C - 1) du: C - 1 = -+2 sin^2 or sinh^2 of w tau / 2, and S - tau
    summed from its Taylor series while |K| tau^2 < 1."""
    if K == 0.0:
        cm1 = cp = smt = 0.0
    else:
        w = math.sqrt(abs(K))
        if K > 0.0:
            half, s = math.sin(0.5 * w * tau), math.sin(w * tau)
            cm1, cp = -2.0 * half * half, -w * s
        else:
            half, s = math.sinh(0.5 * w * tau), math.sinh(w * tau)
            cm1, cp = 2.0 * half * half, w * s
        z = -K * tau * tau
        if abs(z) < 1.0:
            smt = tau * z * math.fsum(z ** j / math.factorial(2 * j + 3) for j in range(12))
        else:
            smt = s / w - tau
    return cm1 * u + smt * du, cp * u + cm1 * du


def exact_decay_rise(e2, tau, u, du):
    """The same for u'' = -e2 u': -du tau (e^(-x) - 1 + x)/x and du (e^(-x) - 1),
    x = e2 tau, the first summed from its Taylor series while |x| < 1."""
    x = e2 * tau
    if abs(x) < 1.0:
        bend = x * math.fsum((-x) ** j / math.factorial(j + 2) for j in range(20))
    else:
        bend = (math.expm1(-x) + x) / x
    return -du * (tau * bend), du * math.expm1(-x)


def longitudinal_row(sign, xi2_row, rise_row=None):
    """Row function of a longitudinal channel: xi2 from xi2_row(k, tau, u, du),
    xi0 = xi0(0) + xi0'(0) tau + sign (xi2 - xi2(0) - xi2'(0) tau), xi1 and xi3
    drifting.  A closed form's bracket and its derivative are rise_row(tau, u, du),
    formed without cancellation; a run replayed from RK4 subtracts."""

    def row(k, tau, xi, dxi):
        (u2, du2), (s2, sd2) = xi2_row(k, tau, xi[2], dxi[2])
        if rise_row is None:
            rise, drise = u2 - xi[2] - dxi[2] * tau, du2 - dxi[2]
        else:
            rise, drise = rise_row(tau, xi[2], dxi[2])
        u0 = xi[0] + dxi[0] * tau + sign * rise
        du0 = dxi[0] + sign * drise
        scale0 = (abs(xi[0]) + abs(dxi[0] * tau) + s2 + abs(xi[2]) + abs(dxi[2] * tau),
                  abs(dxi[0]) + sd2 + abs(dxi[2]))
        return [((u0, du0), scale0), exact_hill(0.0, tau, xi[1], dxi[1]),
                ((u2, du2), (s2, sd2)), exact_hill(0.0, tau, xi[3], dxi[3])]

    return row


def exact_series(row, init, h, n):
    """(xi, dxi) rows k = 1..n of row(k, k h, ...) below the launch, and each
    column's scale, the largest of its rows'."""
    xi, dxi = init.xi.tolist(), init.dxi.tolist()
    xs, vs, sx, sv = (np.empty((n + 1, 4)) for _ in range(4))
    xs[0], vs[0] = xi, dxi
    sx[0], sv[0] = np.abs(xs[0]), np.abs(vs[0])
    for k in range(1, n + 1):
        for i, ((u, du), (su, sdu)) in enumerate(row(k, k * h, xi, dxi)):
            xs[k, i], vs[k, i], sx[k, i], sv[k, i] = u, du, su, sdu
    return xs, vs, sx.max(axis=0), sv.max(axis=0)


def assert_channel(ser, init, exact, rk4, truncation):
    """Row 0 is the launch bit for bit; every row is within 1e-14 of its column's
    scale of the exact rows, with their sign on every exact zero, and within
    truncation of that scale of the classical RK4 rows."""
    xs, vs, sx, sv = exact
    for got, launch in ((ser.xi[0], init.xi), (ser.dxi[0], init.dxi)):
        assert np.array_equal(_bits(got), _bits(launch))
    # a relative bound means nothing below the normal range, where it would underflow
    tiny = np.finfo(float).tiny
    for got, want, scale, rk in ((ser.xi, xs, np.maximum(sx, tiny), rk4[0]),
                                 (ser.dxi, vs, np.maximum(sv, tiny), rk4[1])):
        assert np.all(np.abs(got - want) <= 1e-14 * scale)
        zero = want == 0.0
        assert np.array_equal(np.signbit(got[zero]), np.signbit(want[zero]))
        assert np.all(np.abs(got - rk) <= truncation * scale)


# ---------------------------------------------------------------------------
# the dense force algebra, batched over leading axes

_SIGN2 = METRIC_SIGNATURE[:, None] * METRIC_SIGNATURE[None, :]


def d_matvec(F, v):
    return (F[..., :, 0] * v[..., 0, None] + F[..., :, 1] * v[..., 1, None]
            + F[..., :, 2] * v[..., 2, None] + F[..., :, 3] * v[..., 3, None])


def d_mdot(a, b):
    return (a[..., 0] * b[..., 0] - a[..., 1] * b[..., 1]
            - a[..., 2] * b[..., 2] - a[..., 3] * b[..., 3])


def d_along(G, xi):
    return (G[..., 0, :, :] * xi[..., 0, None, None] + G[..., 1, :, :] * xi[..., 1, None, None]
            + G[..., 2, :, :] * xi[..., 2, None, None] + G[..., 3, :, :] * xi[..., 3, None, None])


def d_slot3(T, a, b):
    Tl = T * _SIGN2
    out = None
    for s in range(4):
        for l in range(4):
            term = Tl[..., :, s, l] * (a[..., s] * b[..., l])[..., None]
            out = term if out is None else out + term
    return out


def d_comoving_third(v, D3, a, b):
    out = v * (d_mdot(v, a) * d_mdot(v, b))[..., None]
    return out if D3 is None else out + d_slot3(D3, a, b)


def d_moment_slot(F, first, third_ab, a, b):
    return d_matvec(F, first * d_mdot(a, b)[..., None] - third_ab)


def d_gamma(F, first, third_ab, a, b):
    return 0.5 * (d_matvec(F, a) * d_mdot(first, b)[..., None]
                  + d_matvec(F, b) * d_mdot(first, a)[..., None]
                  + d_moment_slot(F, first, third_ab, a, b))


def d_field_xi(x):
    xi = np.zeros_like(x)
    xi[..., 1] = x[..., 1]
    xi[..., 3] = x[..., 3]
    return xi


def d_geodesic_accel(F, v, D1, D3):
    if D1 is None:
        s = d_mdot(v, v)
        return -d_matvec(F, v) * (s * (3.0 - s) * 0.5)[..., None]
    return -d_gamma(F, v + D1, d_comoving_third(v, D3, v, v), v, v)


def d_slots(moments, vref):
    D1, D3 = moment_deviations(moments, vref)
    return (None, None) if not D1.any() and not D3.any() else (D1, D3)


def geodesic_rhs(lattice, D1=None, D3=None):
    """Connection form on (..., 4) states; monomial slots without D1, D3."""

    def rhs(k, theta, x, v):
        return d_geodesic_accel(field_mixed(lattice, x[..., 2], d_field_xi(x)), v, D1, D3)

    return rhs


def lorentz_rhs(lattice):
    """Monomial connection form -F v s(3 - s)/2 with fixed-order sums."""
    return geodesic_rhs(lattice)


def d_frame_force(frame, xi, dxi, xdot):
    out = np.zeros(4)
    if isinstance(frame, ArcAdapted):
        out[1] = xi[1] * (1.0 / (frame.rho * frame.rho)) * (xdot[2] * xdot[2]
                                                             + 2.0 * xdot[2] * dxi[2])
    return out


def jacobi_rhs(lattice, D1, D3, slots, frame):
    """The stacked (2, 4) reference-plus-deviation system; slots feed the deviation."""
    slot_D1, slot_D3 = slots

    def rhs(k, theta, x, v):
        X, V, xi, dxi = x[:1], v[:1], x[1:], v[1:]
        fxi = d_field_xi(X)
        F = field_mixed(lattice, X[..., 2], fxi)
        dF = d_along(field_gradient(lattice, X[..., 2], fxi), xi)
        first = V if slot_D1 is None else V + slot_D1
        dev = (-(2.0 * d_gamma(F, first, d_comoving_third(V, slot_D3, dxi, V), dxi, V)
                 + d_gamma(dF, first, d_comoving_third(V, slot_D3, V, V), V, V))
               - d_frame_force(frame, xi[0], dxi[0], V[0]))
        return np.concatenate([d_geodesic_accel(F, V, D1, D3), dev])

    return rhs


def test_lorentz_equals_reference(circle_lattice, circle_state, cfg_fine):
    ser = integrate_lorentz(circle_lattice, circle_state, 1.0, cfg_fine)
    xs, vs = reference_rk4(lorentz_rhs(circle_lattice), circle_state.x[None, :],
                           circle_state.v[None, :], 1e-3, 1000)
    assert np.array_equal(ser.x, xs[:, 0, :])
    assert np.array_equal(ser.v, vs[:, 0, :])


def test_lorentz_equals_reference_across_fodo_edges(fodo_lattice):
    st0 = TrajectoryState(0.0, np.array([0.0, 1e-3, 0.1, -2e-3]),
                          project_to_hyperboloid([0.0, 1.0, 0.01]))
    ser = integrate_lorentz(fodo_lattice, st0, 2.0, IntegratorConfig(step=0.01))
    xs, vs = reference_rk4(lorentz_rhs(fodo_lattice), st0.x[None, :], st0.v[None, :],
                           0.01, 200)
    assert np.array_equal(ser.x, xs[:, 0, :])
    assert np.array_equal(ser.v, vs[:, 0, :])


def test_transverse_equals_reference(cfg_fine, monkeypatch):
    # b0 = 0.05: b0 * b0 = 0.0025000000000000005, while 1/(r*r) with
    # r = 1/b0 gives 0.0025; a small b1 keeps that last bit in K_h, and
    # the map must be handed element.focusing's K exactly
    el = NormalQuadDipole(length=2.0, b0=0.05, b1=1e-3)
    init = JacobiState(0.0, np.array([0.0, 1e-3, 0.0, 2e-3]), np.array([0.0, 0.0, 0.0, 1e-4]))
    seen, hill_map = [], dynamics._hill_map

    def spy(K, tau):
        seen.append(K)
        return hill_map(K, tau)

    monkeypatch.setattr(dynamics, "_hill_map", spy)
    ser = integrate_transverse_linear(el, None, init, 1.5, cfg_fine)
    kh, kv = el.focusing(None)
    K = [0.0, kh, 0.0, kv]
    assert K[1] != 1.0 / ((1.0 / el.b0) * (1.0 / el.b0)) - el.b1
    assert all(type(k) is float for k in seen) and np.array_equal(_bits(seen), _bits(K))
    freq = np.array(K)
    rk4 = reference_rk4(lambda k, theta, xi, dxi: -freq * xi, init.xi, init.dxi, 1e-3, 1500)
    assert_channel(ser, init, exact_series(transverse_row(K), init, 1e-3, 1500), rk4, 1e-12)


def test_longitudinal_equals_reference(cfg_fine):
    # a varying gamma has no closed form: xi2 stays the RK4 run bit for
    # bit, and xi0 follows from it by the algebra
    el = RFCavity(length=20.0, e2_0=1.0, w_rf=3.0)
    gammas = np.linspace(1.0, 2.0, 2001)
    init = JacobiState(0.0, np.array([0.0, 0.0, 1e-3, 0.0]), np.zeros(4))
    ser = integrate_longitudinal(el, gammas, init, 2.0, cfg_fine)

    def rhs(k, theta, xi, dxi):
        if theta <= 0.0:
            g = gammas[k]
        elif theta >= 1.0:
            g = gammas[k + 1]
        else:
            g = gammas[k] * (1.0 - theta) + gammas[k + 1] * theta
        acc = np.zeros(4)
        acc[0] = -2.0 * g * el.e2_0 * xi[2]
        acc[2] = 2.0 * g * el.e2_0 * xi[2]
        return acc

    xs, vs = reference_rk4(rhs, init.xi, init.dxi, 1e-3, 2000)
    assert np.array_equal(ser.xi[:, 2], xs[:, 2])
    assert np.array_equal(ser.dxi[:, 2], vs[:, 2])
    row = longitudinal_row(-1.0, lambda k, tau, u, du: ((xs[k, 2], vs[k, 2]),
                                                        (abs(xs[k, 2]), abs(vs[k, 2]))))
    assert_channel(ser, init, exact_series(row, init, 1e-3, 2000), (xs, vs), 1e-12)


def test_longitudinal_constant_field_equals_reference(cfg_fine):
    el = ConstantE(length=20.0, e2=0.7)
    init = JacobiState(0.0, np.array([2e-4, -1e-4, 1e-3, 3e-4]),
                       np.array([-1e-4, 5e-5, 2e-3, 0.0]))
    ser = integrate_longitudinal(el, 1.5, init, 2.0, cfg_fine)

    def rhs(k, theta, xi, dxi):
        acc = np.zeros(4)
        acc[0] = acc[2] = -el.e2 * dxi[2]
        return acc

    rk4 = reference_rk4(rhs, init.xi, init.dxi, 1e-3, 2000)
    row = longitudinal_row(1.0, lambda k, tau, u, du: exact_decay(el.e2, tau, u, du),
                           lambda tau, u, du: exact_decay_rise(el.e2, tau, u, du))
    assert_channel(ser, init, exact_series(row, init, 1e-3, 2000), rk4, 1e-12)


@pytest.mark.parametrize("element, gamma, du0", [
    (RFCavity(length=20.0, e2_0=1.0, w_rf=3.0), 1.0, 0.0),
    (RFCavity(length=20.0, e2_0=1.0, w_rf=3.0), 2.0, 2e-4),
    (ConstantE(length=20.0, e2=0.7), 1.0, 2e-3),
])
def test_longitudinal_rows_match_mpmath(element, gamma, du0, cfg_fine):
    # a reference that shares none of the closed form's float expressions:
    # xi0 - xi0(0) - xi0'(0) tau = +-(xi2 - xi2(0) - xi2'(0) tau) is small
    # against xi2(0) on the first rows, and must stay relatively accurate
    mpmath = pytest.importorskip("mpmath")
    u0 = 1e-3
    init = JacobiState(0.0, np.array([0.0, 0.0, u0, 0.0]), np.array([0.0, 0.0, du0, 0.0]))
    ser = integrate_longitudinal(element, gamma, init, 2.0, cfg_fine)
    got = np.stack([ser.xi[1:, 0], ser.dxi[1:, 0], ser.xi[1:, 2], ser.dxi[1:, 2]], axis=1)
    want = np.empty_like(got)
    mpf = mpmath.mpf
    with mpmath.workdps(50):
        for k, t in enumerate(ser.t[1:].tolist()):
            tau = mpf(t)
            if isinstance(element, RFCavity):
                w = mpmath.sqrt(2 * mpf(gamma) * mpf(element.e2_0))
                xi2 = u0 * mpmath.cosh(w * tau) + du0 * mpmath.sinh(w * tau) / w
                dxi2 = u0 * w * mpmath.sinh(w * tau) + du0 * mpmath.cosh(w * tau)
                sign = -1
            else:
                decay = mpmath.exp(-mpf(element.e2) * tau)
                xi2, dxi2, sign = u0 + du0 * (1 - decay) / mpf(element.e2), du0 * decay, 1
            row = (sign * (xi2 - u0 - du0 * tau), sign * (dxi2 - du0), xi2, dxi2)
            want[k] = [float(v) for v in row]
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def test_principal_solutions_equal_reference(fodo_lattice):
    t, K = transverse_k_profile(fodo_lattice, "horizontal", 1e-3)
    ps = principal_solutions(t, K)

    def rhs(k, theta, u, du):
        if theta == 0.0:
            return -K[k] * u
        if theta == 1.0:
            return -K[k + 1] * u
        return -(0.5 * (K[k] + K[k + 1])) * u

    us, dus = reference_rk4(rhs, [1.0, 0.0], [0.0, 1.0], float(t[1] - t[0]), len(t) - 1)
    assert np.array_equal(ps.C, us[:, 0]) and np.array_equal(ps.S, us[:, 1])
    assert np.array_equal(ps.Cp, dus[:, 0]) and np.array_equal(ps.Sp, dus[:, 1])


# repr switches to exponent form below 1e-4 and from 1e16 on, and pads
# one-digit exponents (1e-07); orjson writes [1e-5, 1e-4) positionally
_REPR_EDGES = [1e-4, np.nextafter(1e-4, 0.0), 1e16, np.nextafter(1e16, 0.0),
               1e-5, np.nextafter(1e-5, 0.0), np.nextafter(1e-5, 1.0),
               9.999999999999999e-05, np.nextafter(9.999999999999999e-05, 1.0),
               -1e-5, -9.999999999999999e-05, 1e-7, 1e-9,
               -1e-4, -1e16, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               np.inf, -np.inf, np.nan]
_ROWS = [0, 1] + [m * _BLOCK_ROWS + d for m in (1, 2) for d in (-2, -1, 0, 1, 2)]
# every finite float64, each bit pattern equally likely
_BIT_PATTERNS = st.integers(0, 2**64 - 1).map(
    lambda b: float(np.array(b, dtype=np.uint64).view(np.float64))).filter(math.isfinite)
_TABLES = dict(n_cols=st.integers(1, 9), n_rows=st.sampled_from(_ROWS),
               pool=st.lists(st.one_of(st.floats(), _BIT_PATTERNS, st.sampled_from(_REPR_EDGES)),
                             min_size=1, max_size=40),
               seed=st.integers(0, 2**32 - 1))


def assert_block_writer_bytes_equal_row_writer(out, n_cols, n_rows, pool, seed):
    # the columns are strided views of one table, as a series' columns are
    table = np.random.default_rng(seed).choice(np.array(pool), size=(n_rows, n_cols))
    columns = [table[:, i] for i in range(n_cols)]
    header = ",".join(f"c{i}" for i in range(n_cols))
    _write_rows(out / "block.csv", header, columns)
    reference_write_rows(out / "row.csv", header, columns)
    assert (out / "block.csv").read_bytes() == (out / "row.csv").read_bytes()


@settings(max_examples=60, deadline=None)
@given(**_TABLES)
def test_block_writer_bytes_equal_row_writer(tmp_path_factory, n_cols, n_rows, pool, seed):
    """Every value is written as its float repr, through orjson where it is installed.

    This is the orjson version contract that the ROADMAP keeps: an orjson
    release that writes floats in another layout must fail here rather
    than change the artifacts.
    """
    assert_block_writer_bytes_equal_row_writer(tmp_path_factory.mktemp("csv"),
                                               n_cols, n_rows, pool, seed)


@settings(max_examples=30, deadline=None)
@given(**_TABLES)
def test_repr_only_writer_bytes_equal_row_writer(tmp_path_factory, n_cols, n_rows, pool, seed):
    # the path taken without orjson
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_orjson", None)
        assert_block_writer_bytes_equal_row_writer(tmp_path_factory.mktemp("csv"),
                                                   n_cols, n_rows, pool, seed)


def test_import_does_not_load_orjson():
    # orjson is imported by the first CSV write, not by import avgbeam
    src = os.path.dirname(os.path.dirname(dynamics.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, avgbeam; print('orjson' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_ensemble_writer_bytes_equal_row_writer(tmp_path):
    ens = sample_gaussian_beam([0.2, 4.0, -0.1], [0.02] * 3, n=_BLOCK_ROWS + 3, seed=8)
    ens = BeamEnsemble(ens.ys, ws=np.random.default_rng(8).uniform(0.0, 2.0, len(ens)))
    write_ensemble_csv(ens, tmp_path / "block.csv")
    reference_write_rows(tmp_path / "row.csv", "y0,y1,y2,y3,w", [*ens.ys.T, ens.ws])
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "row.csv").read_bytes()


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=2, max_size=40),
       e2_0=st.floats(-2.0, 2.0))
def test_stage_stream_equals_branching_stage_coefficient(values, e2_0):
    # the Hill stream carries -K, the RF stream (2 gamma) e2_0: elementwise
    # on the arrays as on each stage's float, in the kernel's call order;
    # huge values overflow to the same inf, and inf * 0 to the same nan
    for coefficient in (lambda c: -c, lambda g: 2.0 * g * e2_0):
        with np.errstate(over="ignore", invalid="ignore"):
            got = list(_stage_stream(np.array(values), coefficient))
        want = [coefficient(reference_at_stage(values, k, theta))
                for k in range(len(values) - 1) for theta in (0.0, 0.5, 0.5, 1.0)]
        assert all(type(c) is float for c in got)
        assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("x0", [[2.0], [0.0, 1.0, 2.0, 3.0], [*np.arange(12.0).reshape(4, 3)]],
                         ids=["float", "orbit", "cloud"])
def test_kernel_calls_accel_four_times_per_step_in_stage_order(x0):
    # x' = v = 1 from x0, so each call's position is x0 + t exactly
    # (h = 0.375 keeps h/2 and h/6 exact); the stage streams rely on
    # this order.  A state is a list of parts: floats, or four (m,) columns.
    seen = []

    def accel(x, v):
        seen.append(np.array(x, dtype=float))
        return [0.0 * q for q in v]

    h, n = 0.375, 5
    _rk4_rows(accel, x0, [np.ones_like(p) if np.ndim(p) else 1.0 for p in x0], h, n)
    want = [k * h + d for k in range(n) for d in (0.0, 0.5 * h, 0.5 * h, h)]
    assert len(seen) == 4 * n
    for got, t in zip(seen, want):
        assert np.array_equal(got, np.array(x0) + t)


_FLOAT_ORBIT_LATTICES = {
    "dipole": [Dipole(length=2.0, b0=0.5)],
    "fodo": [NormalQuadDipole(length=0.5, b0=0.2, b1=1.5), Drift(length=0.5),
             SkewQuadDipole(length=0.5, b0=0.2, b1=-1.5), Drift(length=0.5)],
    "rf": [RFCavity(length=2.0, e2_0=0.5, w_rf=3.0)],
}


@pytest.mark.parametrize("kind", sorted(_FLOAT_ORBIT_LATTICES))
def test_orbit_rhs_receives_and_returns_only_python_floats(kind, monkeypatch):
    # one orbit's state is its components as plain floats, at every stage
    # of the trajectory and Jacobi runs; a numpy scalar anywhere in the
    # force algebra would leak into the state through the updates
    lattice = Lattice.from_elements(_FLOAT_ORBIT_LATTICES[kind])
    kernel, seen = dynamics._rk4, []

    def checked(accel, x, v, h, n, observe):
        def typed(x, v):
            a = accel(x, v)
            seen.append((x, v, a))
            return a
        return kernel(typed, x, v, h, n, observe)

    monkeypatch.setattr(dynamics, "_rk4", checked)
    launch = TrajectoryState(0.0, np.array([0.0, 2e-3, 0.3, -1e-3]),
                             project_to_hyperboloid([0.01, 1.0, -0.01]))
    ens = sample_gaussian_beam([0.0, 1.0, 0.0], [0.01] * 3, n=50, seed=4)
    cfg = IntegratorConfig(step=0.01)
    dev = JacobiState(0.0, np.array([0.0, 1e-3, 2e-3, -1e-3]), np.array([0.0, 0.0, 1e-3, 1e-3]))
    runs = [
        lambda: integrate_lorentz(lattice, launch, 1.2, cfg),
        lambda: integrate_lorentz(lattice, launch, 1.2, cfg, form="force"),
        lambda: integrate_averaged_geodesic(lattice, compute_moments(ens), launch, 1.2, cfg),
        lambda: integrate_jacobi_full(lattice, compute_moments(ens), launch, dev, 1.2, cfg),
    ]
    for run in runs:
        seen.clear()
        run()
        assert len(seen) == 4 * 120
        for x, v, a in seen:
            assert type(x) is list and type(v) is list and type(a) is list
            assert {type(c) for part in (x, v, a) for c in part} == {float}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("e2_0", [1.0, 0.0])  # 2 gamma e2_0 overflows to inf, or inf * 0 = nan
def test_rf_coefficient_overflow_is_silent_like_float_arithmetic(e2_0):
    ser = integrate_longitudinal(RFCavity(length=1.0, e2_0=e2_0, w_rf=1.0),
                                 np.array([1.0, 1e308, 1.0, 1.0]),
                                 JacobiState(0.0, np.array([0.0, 0.0, 1e-3, 0.0]), np.zeros(4)),
                                 0.03, IntegratorConfig(step=0.01))
    assert not np.isfinite(ser.dxi[-1, 2])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("e2_0", [1.0, 0.0])  # 2 gamma e2_0 overflows to inf, or inf * 0 = nan
def test_rf_scalar_gamma_overflow_is_silent_like_float_arithmetic(e2_0):
    # the CLI passes a scalar gamma, which takes the closed form
    init = JacobiState(0.0, np.array([0.0, 0.0, 1e-3, 0.0]), np.zeros(4))
    ser = integrate_longitudinal(RFCavity(length=1.0, e2_0=e2_0, w_rf=1.0), 1e308, init,
                                 0.03, IntegratorConfig(step=0.01))
    assert np.array_equal(ser.xi[0], init.xi) and np.array_equal(ser.dxi[0], init.dxi)
    assert not np.isfinite(ser.xi[1:, [0, 2]]).any()
    assert not np.isfinite(ser.dxi[1:, [0, 2]]).any()


@pytest.mark.filterwarnings("error")
def test_force_form_rhs_is_silent_nan_off_the_shell():
    # sqrt(eta(v, v)) is correctly rounded like numpy's on and inside the
    # shell, and nan without a warning for a spacelike or nan velocity
    lattice = Lattice.from_elements([Dipole(length=2.0, b0=0.5)])
    rhs = dynamics._rhs_force(lattice)
    x = [0.0, 1e-3, 1.0, 0.0]
    F = dynamics.field_entries(lattice, x[2], dynamics._lookup_xi(x))
    for v in ([1.5, 0.3, 1.0, -0.2], [2.0, -0.0, 0.0, 1.7], [1.0, 0.0, 0.0, 0.0]):
        r = float(np.sqrt(v[0] * v[0] - v[1] * v[1] - v[2] * v[2] - v[3] * v[3]))
        assert np.array_equal(_bits(rhs(x, v)), _bits([-f * r for f in dynamics._matvec(F, v)]))
    for v in ([0.5, 1.0, 0.0, 0.0], [math.nan, 1.0, 0.0, 0.0]):
        assert all(math.isnan(c) for c in rhs(x, v))


def _shifted_mean(q, ws):
    vol = np.cumsum(ws)[-1]
    return q[0] + np.cumsum(ws[:, None] * (q - q[0]), axis=0)[-1] / vol


def test_ensemble_track_equals_reference(circle_lattice, circle_state, cfg_fine):
    ens = sample_gaussian_beam(circle_state.v[1:], [0.01] * 3, n=16, seed=5)
    ws = np.asarray(ens.ws)
    res = ensemble_track(circle_lattice, ens, circle_state.x, 0.2, cfg_fine)
    xs, vs = reference_rk4(lorentz_rhs(circle_lattice), np.tile(circle_state.x, (16, 1)),
                           ens.ys, 1e-3, 200)
    for k in (0, 1, 100, 200):
        assert np.array_equal(res.mean.x[k], _shifted_mean(xs[k], ws))
        assert np.array_equal(res.mean.v[k], _shifted_mean(vs[k], ws))


def _mixed_lattice():
    """Skew, const_e, rf, dipole, normal gradient and drift, twice over."""
    cell = [SkewQuadDipole(length=0.5, b0=0.2, b1=1.5), ConstantE(length=0.5, e2=0.05),
            RFCavity(length=0.5, e2_0=0.05, w_rf=3.0), Dipole(length=0.5, b0=0.3),
            NormalQuadDipole(length=0.5, b0=0.2, b1=-1.5), Drift(length=0.5)]
    return Lattice.from_elements(cell * 2)


@pytest.fixture(params=["fodo", "mixed"])
def edged(request, fodo_lattice):
    """A lattice and a launch whose orbit crosses several element edges."""
    lattice = fodo_lattice if request.param == "fodo" else _mixed_lattice()
    launch = TrajectoryState(0.0, np.array([0.0, 1e-3, 0.1, -2e-3]),
                             project_to_hyperboloid([1e-3, 1.0, -2e-3]))
    return lattice, launch


_CFG = IntegratorConfig(step=0.01)
_DEVIATION = JacobiState(0.0, np.array([1e-4, 1e-3, -2e-4, 5e-4]),
                         np.array([-1e-4, 1e-4, 2e-4, -1e-4]))


def _beam_moments():
    return compute_moments(sample_gaussian_beam([0.0, 1.0, 0.0], [0.01] * 3, n=200, seed=4))


def test_averaged_equals_dense_reference(edged):
    lattice, launch = edged
    mom = _beam_moments()
    ser = integrate_averaged_geodesic(lattice, mom, launch, 2.0, _CFG)
    xs, vs = reference_rk4(geodesic_rhs(lattice, *d_slots(mom, launch.v)),
                           launch.x[None, :], launch.v[None, :], 0.01, 200)
    assert np.array_equal(ser.x, xs[:, 0]) and np.array_equal(ser.v, vs[:, 0])


@pytest.mark.parametrize("frame, mode", [(INERTIAL, "full"), (ArcAdapted(rho=0.3), "full"),
                                         (INERTIAL, "linearized")],
                         ids=["inertial", "arc", "linearized"])
def test_jacobi_equals_dense_reference(edged, frame, mode):
    lattice, launch = edged
    mom = _beam_moments()
    jac = integrate_jacobi_full(lattice, mom, launch, _DEVIATION, 1.0, _CFG, frame=frame,
                                mode=mode)
    D1, D3 = d_slots(mom, launch.v)
    slots = (None, None) if mode == "linearized" else (D1, D3)
    xs, vs = reference_rk4(jacobi_rhs(lattice, D1, D3, slots, frame),
                           np.stack([launch.x, _DEVIATION.xi]),
                           np.stack([launch.v, _DEVIATION.dxi]), 0.01, 100)
    assert np.array_equal(jac.xi, xs[:, 1]) and np.array_equal(jac.dxi, vs[:, 1])


def test_ensemble_track_means_equal_dense_reference(edged):
    lattice, launch = edged
    ens = sample_gaussian_beam(launch.v[1:], [0.01] * 3, n=16, seed=5)
    ws = np.asarray(ens.ws)
    res = ensemble_track(lattice, ens, launch.x, 1.0, _CFG)
    xs, vs = reference_rk4(lorentz_rhs(lattice), np.tile(launch.x, (16, 1)), ens.ys, 0.01, 100)
    assert np.array_equal(res.mean.x, [_shifted_mean(x, ws) for x in xs])
    assert np.array_equal(res.mean.v, [_shifted_mean(v, ws) for v in vs])


def test_offsets_and_defect_equal_dense_reference(edged):
    lattice, launch = edged
    mom = _beam_moments()
    ref = integrate_averaged_geodesic(lattice, mom, launch, 1.0, _CFG)
    along = comoving_moments_along(ref, mom)
    xi_run = integrate_jacobi_full(lattice, mom, launch, _DEVIATION, 1.0, _CFG)
    h = float(ref.t[1] - ref.t[0])
    V, first = ref.v, along.first
    _, D3 = d_slots(mom, launch.v)
    fxi = d_field_xi(ref.x)
    F = field_mixed(lattice, ref.x[:, 2], fxi)
    dF = d_along(field_gradient(lattice, ref.x[:, 2], fxi), xi_run.xi)
    th = d_comoving_third(V, D3, V, V)
    base = d_moment_slot(F, first, th, V, V)
    eps = first - V
    cross = (d_matvec(F, xi_run.dxi) * d_mdot(eps, V)[:, None]
             + d_matvec(F, V) * d_mdot(eps, xi_run.dxi)[:, None])
    integ = base + cross + d_moment_slot(dF, first, th, V, V)

    avg = averaged_offset(lattice, ref, along)
    born = born_offset(lattice, ref, along, xi_run)
    for got, want in ((avg.avg1, base[:, 1]), (avg.avg3, base[:, 3]), (born.avg1, base[:, 1]),
                      (born.avg3, base[:, 3]), (born.off1, integ[:, 1]),
                      (born.off3, integ[:, 3])):
        assert np.array_equal(got, _cumtrapz(want, h))

    F_curve = field_mixed(lattice, ref.x[:, 2], fxi)
    defect = _series_derivative(first, h) + d_gamma(
        F_curve, first, d_comoving_third(V, D3, first, first), first, first)
    _, got = mean_field_defect(lattice, along, ref)
    assert np.array_equal(got, np.sqrt(np.sum(defect * defect, axis=-1)))


def test_integrators_never_build_dense_fields(fodo_lattice, monkeypatch):
    # wrap the dense lookups at every import site in the package
    calls = []
    for name in ("field_mixed", "field_gradient"):
        original = getattr(lattice_module, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("avgbeam")
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, counted)

    launch = TrajectoryState(0.0, np.array([0.0, 1e-3, 0.1, -2e-3]),
                             project_to_hyperboloid([1e-3, 1.0, -2e-3]))
    mom = _beam_moments()
    for form in ("connection", "force"):
        integrate_lorentz(fodo_lattice, launch, 0.6, _CFG, form=form)
    ref = integrate_averaged_geodesic(fodo_lattice, mom, launch, 0.6, _CFG)
    xi_run = integrate_jacobi_full(fodo_lattice, mom, launch, _DEVIATION, 0.6, _CFG)
    integrate_jacobi_full(fodo_lattice, mom, launch, _DEVIATION, 0.6, _CFG,
                          frame=ArcAdapted(rho=5.0))
    ens = sample_gaussian_beam(launch.v[1:], [0.01] * 3, n=16, seed=5)
    ensemble_track(fodo_lattice, ens, launch.x, 0.6, _CFG)
    along = comoving_moments_along(ref, mom)
    averaged_offset(fodo_lattice, ref, along)
    born_offset(fodo_lattice, ref, along, xi_run)
    mean_field_defect(fodo_lattice, along, ref)
    assert calls == []


@settings(max_examples=40, deadline=None)
@given(
    elements=st.lists(st.one_of(
        st.builds(Drift, st.floats(0.05, 3.0)),
        st.builds(Dipole, st.floats(0.05, 3.0), st.floats(-0.5, 0.5)),
        st.builds(NormalQuadDipole, st.floats(0.05, 3.0), st.floats(-0.5, 0.5),
                  st.floats(-1.0, 1.0)),
        st.builds(SkewQuadDipole, st.floats(0.05, 3.0), st.floats(-0.5, 0.5),
                  st.floats(-1.0, 1.0)),
        st.builds(ConstantE, st.floats(0.05, 3.0), st.floats(-0.5, 0.5)),
        st.builds(RFCavity, st.floats(0.05, 3.0), st.floats(-0.5, 0.5), st.floats(0.1, 10.0)),
    ), min_size=1, max_size=8),
    start=st.floats(0.0, 0.5),
    offsets=st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e-2, 1e-2)),
                     min_size=2, max_size=2),
    spatial=st.lists(st.floats(-0.05, 0.05), min_size=2, max_size=2),
)
def test_delta_ensemble_is_bitwise_single_particle_on_random_lattices(
        elements, start, offsets, spatial):
    lattice = Lattice.from_elements(elements)
    length = lattice.total_length
    cfg = IntegratorConfig(step=lattice.min_length() / 4.0)
    # launched in the first half, forward at unit spatial speed along x2,
    # for 0.45 of the lattice length: the orbit crosses every edge it meets
    launch = TrajectoryState(0.0, np.array([0.0, offsets[0], start * length, offsets[1]]),
                             project_to_hyperboloid([spatial[0], 1.0, spatial[1]]))
    single = integrate_lorentz(lattice, launch, 0.45 * length, cfg)
    averaged = integrate_averaged_geodesic(lattice, delta_moments(launch.v), launch,
                                           0.45 * length, cfg)
    for got, want in ((averaged.x, single.x), (averaged.v, single.v)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


# ---------------------------------------------------------------------------
# property tests

finite = st.floats(-1.0, 1.0, allow_nan=False)
vec4 = st.lists(finite, min_size=4, max_size=4).map(np.array)


def _minkowski(a, b):
    return float(np.sum(METRIC_SIGNATURE * a * b))


# a component that is often an exact zero of either sign
signed = st.one_of(st.sampled_from([0.0, -0.0]), finite)
vec4z = st.lists(signed, min_size=4, max_size=4).map(np.array)


@settings(max_examples=100, deadline=None)
@given(
    spatial=st.lists(st.floats(-20.0, 20.0, allow_nan=False), min_size=3, max_size=3),
    d1=st.lists(st.floats(-1e-3, 1e-3, allow_nan=False), min_size=4, max_size=4),
    d3=st.lists(st.floats(-1e-3, 1e-3, allow_nan=False), min_size=64, max_size=64),
    field=st.lists(st.one_of(st.just(0.0), st.floats(-2.0, 2.0, allow_nan=False)),
                   min_size=6, max_size=6),
    a=vec4z,
    b=vec4z,
    aliased=st.booleans(),
)
def test_closed_form_force_matches_tensor_connection(spatial, d1, d3, field, a, b, aliased):
    """The closed-form force against the rank-3 tensor form of the connection,
    and bit for bit against the dense reference and the same call on
    one-entry columns; aliased passes b as the very object a, which takes
    the shared-term branches of the b = a case."""
    if aliased:
        b = a
    y = project_to_hyperboloid(spatial)
    D1 = np.array(d1)
    D1[0] = abs(D1[0])  # keep the mean Lorentz factor >= 1
    raw = np.array(d3).reshape(4, 4, 4)
    # totally symmetric deviation: average over the six index permutations
    D3 = sum(np.transpose(raw, p) for p in
             [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]) / 6.0
    A = np.zeros((4, 4))
    A[np.triu_indices(4, 1)] = field
    F = METRIC_SIGNATURE[:, None] * (A - A.T)  # lowered tensor antisymmetric
    first = y + D1
    third = velocity_monomials3(y) + D3

    # the force reads the nonzero entries of F and components as floats
    entries = [(i, j, f) for i, row in enumerate(F.tolist()) for j, f in enumerate(row) if f]
    a_ = a.tolist()
    b_ = a_ if aliased else b.tolist()
    D3_rows = D3.reshape(4, 16).tolist()
    closed_third = _comoving_third(y.tolist(), D3_rows, a_, b_)
    closed = np.array(_gamma(entries, first.tolist(), closed_third, a_, b_))

    # the dense reference forms every value by the same operations in the
    # same order; its F v sums also add the exact zeros of F, which can
    # only flip the sign of a zero result, so _gamma is compared with every
    # zero taken as +0.0 (x + 0.0), _comoving_third bit for bit
    dense_third = d_comoving_third(y, D3, a, b)
    assert np.array_equal(_bits(closed_third), _bits(dense_third))
    assert np.array_equal(_bits(closed + 0.0),
                          _bits(d_gamma(F, first, dense_third, a, b) + 0.0))

    # one-entry columns, as one sample of a batch, keep every bit and sign
    def one_entry(u):
        return [np.array([c]) for c in u]

    col_a = one_entry(a_)
    col_b = col_a if aliased else one_entry(b_)
    col_third = _comoving_third(one_entry(y.tolist()), D3_rows, col_a, col_b)
    col_gamma = _gamma([(i, j, np.array([f])) for i, j, f in entries], one_entry(first.tolist()),
                       col_third, col_a, col_b)
    assert np.array_equal(_bits(np.concatenate(col_third)), _bits(closed_third))
    assert np.array_equal(_bits(np.concatenate(col_gamma)), _bits(closed))
    conn = averaged_connection(FieldSample(F), MomentSet(vol=1.0, first=first, third=third))
    tensor = contract_geodesic(conn, a, b)

    third_ab = np.einsum("msl,s,l->m", third, METRIC_SIGNATURE * a, METRIC_SIGNATURE * b)
    terms = [np.abs(F @ a) * abs(_minkowski(first, b)), np.abs(F @ b) * abs(_minkowski(first, a)),
             np.abs(F @ first) * abs(_minkowski(a, b)), np.abs(F) @ np.abs(third_ab)]
    largest = max(float(np.max(t)) for t in terms)
    assert np.max(np.abs(closed - tensor)) <= 1e-12 * max(largest, 1e-300)


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(2, 6),
    sigma=st.floats(1e-3, 0.05),
    seed=st.integers(0, 2**31 - 1),
    b0=st.floats(0.2, 2.0),
)
def test_batched_cloud_rows_equal_single_row_runs(n, sigma, seed, b0):
    lattice = Lattice.from_elements([Dipole(length=2.4, b0=b0)])
    ens = sample_gaussian_beam([0.0, 1.0, 0.0], [sigma] * 3, n=n, seed=seed)
    x0 = np.array([0.0, 0.0, 1.2, 0.0])
    cfg = IntegratorConfig(step=1e-2)
    # every row rides the single-particle flow, then the averaged flow of
    # the cloud's own moments (slot deviations pinned to one velocity),
    # each against a single run of the same rhs on the float path
    vref = project_to_hyperboloid([0.0, 1.0, 0.0])
    pinned = _rhs_geodesic(lattice, *_frozen_slots(compute_moments(ens), vref))
    for rhs, single in (
        (_rhs_geodesic(lattice), lambda st0: integrate_lorentz(lattice, st0, 0.3, cfg)),
        (pinned, lambda st0: _orbit(pinned, st0, 0.3, cfg.step)),
    ):
        # the column path: a contiguous column per component, one entry per row
        xs, vs = _rk4_rows(rhs, [*np.repeat(x0[:, None], n, axis=1)],
                           [*np.ascontiguousarray(ens.ys.T)], 1e-2, 30)
        for a in range(n):
            row = single(TrajectoryState(0.0, x0, ens.ys[a]))
            assert np.array_equal(xs[:, :, a], row.x)
            assert np.array_equal(vs[:, :, a], row.v)


def _every_kind_line(scale):
    """0.1 m of each element kind but drift, then a drift."""
    return Lattice.from_elements([
        SkewQuadDipole(length=0.1, b0=scale, b1=1.5), RFCavity(length=0.1, e2_0=scale, w_rf=3.0),
        ConstantE(length=0.1, e2=0.5 * scale), Dipole(length=0.1, b0=scale),
        NormalQuadDipole(length=0.1, b0=scale, b1=-1.5), Drift(length=0.1)])


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(2, 6),
    sigma=st.floats(1e-3, 0.05),
    seed=st.integers(0, 2**31 - 1),
    scale=st.floats(0.2, 2.0),
)
def test_cloud_rows_equal_float_runs_bit_for_bit_on_every_element_kind(n, sigma, seed, scale):
    # the float path against the four-column cloud path, every bit compared,
    # zero signs included; rows launched 1 cm apart straddle an edge at
    # nearly every stage, so the cloud takes the masked per-element lookup
    lattice = _every_kind_line(scale)
    ens = sample_gaussian_beam([0.0, 1.0, 0.0], [sigma] * 3, n=n, seed=seed)
    x0 = np.array([[0.0, 2e-3, 0.08 + 0.01 * a, -1e-3] for a in range(n)])
    cfg = IntegratorConfig(step=1e-2)
    vref = project_to_hyperboloid([0.0, 1.0, 0.0])
    pinned = _rhs_geodesic(lattice, *_frozen_slots(compute_moments(ens), vref))
    for rhs in (_rhs_geodesic(lattice), pinned):
        xs, vs = _rk4_rows(rhs, [*np.ascontiguousarray(x0.T)],
                           [*np.ascontiguousarray(ens.ys.T)], 1e-2, 30)
        for a in range(n):
            row = _orbit(rhs, TrajectoryState(0.0, x0[a], ens.ys[a]), 0.3, cfg.step)
            assert np.array_equal(_bits(xs[:, :, a]), _bits(row.x))
            assert np.array_equal(_bits(vs[:, :, a]), _bits(row.v))


_COMPONENT = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e-2, 1e-2))
_LAUNCH = st.lists(_COMPONENT, min_size=4, max_size=4).map(np.array)
_H = 0.01
_TRUNCATION = 1e-6  # RK4 global error, about (h w)^4 w t / 120 for |K| = w^2 <= 40, t <= 0.4


@st.composite
def _linear_channel(draw):
    """(run(initial), vector reference rhs, exact row function or None, steps) of a
    random linear channel; None marks a varying gamma, whose xi2 has no closed form."""
    n = draw(st.integers(4, 40))
    cfg = IntegratorConfig(step=_H)
    if draw(st.booleans()):
        el = draw(st.sampled_from([NormalQuadDipole, SkewQuadDipole]))(
            length=1.0, b0=draw(st.floats(0.05, 1.0)), b1=draw(st.floats(-1.0, 1.0)))
        rho = draw(st.one_of(st.none(), st.floats(1.0, 50.0)))
        kh, kv = el.focusing(rho)
        freq = np.array([0.0, kh, 0.0, kv])
        return (lambda init: integrate_transverse_linear(el, rho, init, n * _H, cfg),
                lambda k, theta, xi, dxi: -freq * xi, transverse_row([0.0, kh, 0.0, kv]), n)
    if draw(st.booleans()):
        el = ConstantE(length=1.0, e2=draw(st.floats(-2.0, 2.0)))

        def rhs(k, theta, xi, dxi):
            acc = np.zeros(4)
            acc[0] = acc[2] = -el.e2 * dxi[2]
            return acc

        row = longitudinal_row(1.0, lambda k, tau, u, du: exact_decay(el.e2, tau, u, du),
                           lambda tau, u, du: exact_decay_rise(el.e2, tau, u, du))
        return lambda init: integrate_longitudinal(el, 1.0, init, n * _H, cfg), rhs, row, n
    el = RFCavity(length=1.0, e2_0=draw(st.floats(-2.0, 2.0)), w_rf=1.0)
    gamma = draw(st.one_of(
        st.floats(1.0, 10.0),
        st.lists(st.floats(1.0, 10.0), min_size=n + 1, max_size=n + 1).map(np.array)))
    gammas = np.broadcast_to(gamma, (n + 1,))

    def rhs(k, theta, xi, dxi):
        if theta <= 0.0:
            g = gammas[k]
        elif theta >= 1.0:
            g = gammas[k + 1]
        else:
            g = gammas[k] * (1.0 - theta) + gammas[k + 1] * theta
        acc = np.zeros(4)
        acc[0] = -2.0 * g * el.e2_0 * xi[2]
        acc[2] = 2.0 * g * el.e2_0 * xi[2]
        return acc

    row = None
    if (gammas == gammas[0]).all():
        K = -((2.0 * float(gammas[0])) * el.e2_0)
        row = longitudinal_row(-1.0, lambda k, tau, u, du: exact_hill(K, tau, u, du),
                               lambda tau, u, du: exact_hill_rise(K, tau, u, du))
    return lambda init: integrate_longitudinal(el, gamma, init, n * _H, cfg), rhs, row, n


@settings(max_examples=300, deadline=None)
@given(channel=_linear_channel(), xi=_LAUNCH, dxi=_LAUNCH)
def test_linear_channel_components_equal_vector_reference(channel, xi, dxi):
    # every component of the launch is random, so a wrong coupling of
    # xi0 to xi2, or a lost sign of zero, shows in some column; a constant
    # gamma takes the closed form, a varying one keeps xi2's RK4 bits
    run, rhs, row, n = channel
    init = JacobiState(0.0, xi, dxi)
    ser = run(init)
    xs, vs = reference_rk4(rhs, xi, dxi, _H, n)
    if row is None:
        assert np.array_equal(_bits(ser.xi[:, 2]), _bits(xs[:, 2]))
        assert np.array_equal(_bits(ser.dxi[:, 2]), _bits(vs[:, 2]))
        row = longitudinal_row(-1.0, lambda k, tau, u, du: ((xs[k, 2], vs[k, 2]),
                                                            (abs(xs[k, 2]), abs(vs[k, 2]))))
    assert_channel(ser, init, exact_series(row, init, _H, n), (xs, vs), _TRUNCATION)
