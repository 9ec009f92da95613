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
invariance of the right-hand sides.  The per-row CSV writer is kept as
the reference for the block writer.  The linear channels are closed
form: they are checked row by row against the exact solutions written
with math functions, and against the RK4 reference at its truncation
error.
"""

import math
import os
import subprocess
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sys

import pytest

from avgbeam import (
    BeamEnsemble,
    ConstantE,
    Dipole,
    Drift,
    FieldSample,
    IntegratorConfig,
    JacobiState,
    Lattice,
    MomentSet,
    NonFiniteValue,
    NormalQuadDipole,
    OutOfLattice,
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
    _geodesic_accel,
    _orbit,
    _rhs_geodesic,
    _rk4_rows,
    _rows_accel,
    _series_derivative,
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


def longitudinal_row(sign, xi2_row, rise_row):
    """Row function of a longitudinal channel: xi2 from xi2_row(k, tau, u, du),
    xi0 = xi0(0) + xi0'(0) tau + sign (xi2 - xi2(0) - xi2'(0) tau), xi1 and xi3
    drifting.  The bracket and its derivative are rise_row(tau, u, du), formed
    without cancellation."""

    def row(k, tau, xi, dxi):
        (u2, du2), (s2, sd2) = xi2_row(k, tau, xi[2], dxi[2])
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


def jacobi_rhs(lattice, D1, D3, slots):
    """The stacked (2, 4) reference-plus-deviation system; slots feed the deviation."""
    slot_D1, slot_D3 = slots

    def rhs(k, theta, x, v):
        X, V, xi, dxi = x[:1], v[:1], x[1:], v[1:]
        fxi = d_field_xi(X)
        F = field_mixed(lattice, X[..., 2], fxi)
        dF = d_along(field_gradient(lattice, X[..., 2], fxi), xi)
        first = V if slot_D1 is None else V + slot_D1
        dev = -(2.0 * d_gamma(F, first, d_comoving_third(V, slot_D3, dxi, V), dxi, V)
                + d_gamma(dF, first, d_comoving_third(V, slot_D3, V, V), V, V))
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


def test_principal_solutions_converge_to_reference(fodo_lattice):
    # each step of the reference takes its own K in all four stages, so no
    # step straddles an edge and RK4 keeps its fourth order against the
    # exact maps: the error falls about 16x per halving of h
    errors = []
    for h in (1e-2, 5e-3, 2.5e-3):
        t, K = transverse_k_profile(fodo_lattice, "horizontal", h)
        ps = principal_solutions(t, K)
        us, dus = reference_rk4(lambda k, theta, u, du: -K[k] * u,
                                [1.0, 0.0], [0.0, 1.0], h, len(t) - 1)
        errors.append(np.abs([ps.C - us[:, 0], ps.S - us[:, 1],
                              ps.Cp - dus[:, 0], ps.Sp - dus[:, 1]]).max())
    assert errors[0] >= 15.0 * errors[1] and errors[1] >= 15.0 * errors[2]


# repr switches to exponent form below 1e-4 and from 1e16 on, and pads
# one-digit exponents (1e-07); orjson writes [1e-5, 1e-4) positionally.
# The two-digit exponents e-60 ... e-99 begin as the one-digit e-6 ... e-9
_REPR_EDGES = [1e-4, np.nextafter(1e-4, 0.0), 1e16, np.nextafter(1e16, 0.0),
               np.nextafter(1e16, np.inf),
               1e-5, np.nextafter(1e-5, 0.0), np.nextafter(1e-5, 1.0),
               9.999999999999999e-05, np.nextafter(9.999999999999999e-05, 1.0),
               -1e-5, -9.999999999999999e-05, 1e-7, np.nextafter(1e-6, 0.0),
               1e-9, np.nextafter(1e-9, 0.0),
               1e-59, np.nextafter(1e-59, 0.0), 1e-60, 6.5e-66, 9.9e-99,
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
    bad = np.argwhere(~np.isfinite(table))
    if len(bad):
        # a value _read_rows would reject: the first in row-major order is
        # named and no file is written
        row, col = bad[0]
        with pytest.raises(NonFiniteValue, match=f"^column c{col} is .* at row {row}; no CSV"):
            _write_rows(out / "block.csv", header, columns)
        assert not (out / "block.csv").exists()
        return
    _write_rows(out / "block.csv", header, columns)
    reference_write_rows(out / "row.csv", header, columns)
    assert (out / "block.csv").read_bytes() == (out / "row.csv").read_bytes()


@settings(max_examples=60, deadline=None)
@given(**_TABLES)
def test_block_writer_bytes_equal_row_writer(tmp_path_factory, n_cols, n_rows, pool, seed):
    """Every value of a finite table is written as its float repr, through orjson where
    it is installed; a table with a non-finite value is refused before any write.

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


def test_block_writer_mends_every_layout_in_every_block(tmp_path):
    # three blocks; every row holds a one-digit exponent, e-6 ... e-9 in
    # turn, as a transverse artifact's dxi1 does, and every third row also
    # a cell orjson writes positionally and one in e-60 ... e-99
    n = 2 * _BLOCK_ROWS + 2
    rng = np.random.default_rng(24)
    table = rng.uniform(-1.0, 1.0, (n, 5))
    table[:, 1] = -rng.uniform(1.0, 10.0, n) * 10.0 ** -(6.0 + np.arange(n) % 4)
    m = len(table[::3])
    table[::3, 2] = rng.uniform(1e-5, 1e-4, m)
    table[::3, 3] = rng.uniform(1.0, 10.0, m) * 10.0 ** -rng.integers(60, 100, m).astype(float)
    columns = [table[:, i] for i in range(5)]
    _write_rows(tmp_path / "block.csv", "c0,c1,c2,c3,c4", columns)
    reference_write_rows(tmp_path / "row.csv", "c0,c1,c2,c3,c4", columns)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "row.csv").read_bytes()


@pytest.mark.parametrize("n_rows", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
@pytest.mark.parametrize("n_cols", [1, 2, 5, 9])
def test_block_writer_row_ends_between_spliced_cells(tmp_path, n_cols, n_rows):
    # the first and last cell of every row take a layout orjson does not
    # share, so orjson writes null on both sides of every row end; a middle
    # cell holds a one-digit exponent
    rng = np.random.default_rng([n_cols, n_rows])
    table = rng.uniform(-1.0, 1.0, (n_rows, n_cols))
    other = np.array([3.5e-5, -9.999999999999999e-05, 1e16, -2.5e300, 6.5e-66, -5e-324])
    table[:, 0] = rng.choice(other, n_rows)
    table[:, -1] = rng.choice(other, n_rows)
    if n_cols > 2:
        table[:, n_cols // 2] *= 10.0 ** -(6.0 + np.arange(n_rows) % 4)
    columns = [table[:, i] for i in range(n_cols)]
    header = ",".join(f"c{i}" for i in range(n_cols))
    _write_rows(tmp_path / "block.csv", header, columns)
    reference_write_rows(tmp_path / "row.csv", header, columns)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "row.csv").read_bytes()


def _positional_cells(rng, n):
    # [1e-5, 1e-4), which orjson writes as 0.0000DDD, with one-digit and
    # 17-digit mantissas among them
    cells = rng.choice([-1.0, 1.0], n) * rng.uniform(1e-5, 1e-4, n)
    ends = [1e-05, -1e-05, 9.999999999999999e-05, np.nextafter(1e-5, 1.0), 3.0000000000000004e-05]
    cells[:min(n, len(ends))] = ends[:n]
    return cells


_EDIT_TABLES = {
    # every cell is edited by the replacement chain and the null splice
    "positional": lambda rng, n: _positional_cells(rng, 4 * n).reshape(n, 4),
    # a positional cell, a one-digit exponent and a cell whose exponent repr
    # signs follow one another inside a row and across every row end
    "mixed": lambda rng, n: np.stack([
        _positional_cells(rng, n),
        rng.uniform(-10.0, 10.0, n) * 10.0 ** -rng.integers(6, 10, n).astype(float),
        rng.choice([1e16, -1e16, 2.5e17, -1.5e300, 1.7976931348623157e308], n),
    ], axis=1)[np.arange(n)[:, None], (np.arange(3) + np.arange(n)[:, None]) % 3],
    # no cell needs an edit: two- and three-digit negative exponents,
    # positional values and zeros
    "none": lambda rng, n: np.column_stack([rng.uniform(-1.0, 1.0, n), rng.choice(
        [0.0, -0.0, 1e-4, -0.5, 123.25, 9999999999999998.0, 1e-10, -6.5e-66, 1e-100, 5e-324],
        (n, 4))]),
}


@pytest.mark.parametrize("n_rows", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
@pytest.mark.parametrize("table", sorted(_EDIT_TABLES))
def test_block_writer_byte_edits(tmp_path, table, n_rows):
    values = _EDIT_TABLES[table](np.random.default_rng([n_rows, len(table)]), n_rows)
    size = np.abs(values)
    if table == "positional":
        assert ((size >= 1e-5) & (size < 1e-4)).all()
    elif table == "none":
        assert not (((size >= 1e-9) & (size < 1e-4)) | (size >= 1e16)).any()
    columns = list(values.T)
    header = ",".join(f"c{i}" for i in range(len(columns)))
    _write_rows(tmp_path / "block.csv", header, columns)
    reference_write_rows(tmp_path / "row.csv", header, columns)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "row.csv").read_bytes()


def test_import_does_not_load_orjson():
    # orjson is imported by the first CSV write, not by importing any module
    src = os.path.dirname(os.path.dirname(dynamics.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import importlib, pkgutil, sys, avgbeam\n"
         "for m in pkgutil.iter_modules(avgbeam.__path__):\n"
         "    importlib.import_module('avgbeam.' + m.name)\n"
         "print('orjson' in sys.modules)"],
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


@pytest.mark.parametrize("x0", [[2.0], [0.0, 1.0, 2.0, 3.0], [*np.arange(12.0).reshape(4, 3)],
                                [np.arange(12.0).reshape(4, 3)]],
                         ids=["float", "orbit", "cloud", "one-part"])
def test_kernel_calls_accel_four_times_per_step_in_stage_order(x0):
    # x' = v = 1 from x0, so each call's position is x0 + t exactly
    # (h = 0.375 keeps h/2 and h/6 exact).  A state is a list of parts:
    # floats, four (m,) columns, or one (4, m) array.
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


# ---------------------------------------------------------------------------
# coasting through drifts: the kernel against its own plain four stages

def _plain(accel):
    """accel without its drift test, so the kernel runs the four stages at every step."""
    return lambda x, v: accel(x, v)


def _state_bits(x, v):
    return _bits(np.concatenate([np.ravel(p) for p in (*x, *v)]))


def _kernel_run(accel, x, v, h, n):
    """(step and bits of every observed state, the OutOfLattice message or None).

    Every observed state is read again once the run is over, so a part the
    kernel changed in place after handing it to the observer fails.
    """
    seen = []
    error = None
    try:
        dynamics._rk4(accel, x, v, h, n, lambda k, x, v: seen.append((k, x, v, _state_bits(x, v))))
    except OutOfLattice as exc:
        error = str(exc)
    for _, x, v, bits in seen:
        assert np.array_equal(_state_bits(x, v), bits)
    return [(k, bits) for k, _, _, bits in seen], error


def _assert_coasts_as_plain(accel, x, v, h, n):
    got, error = _kernel_run(accel, x, v, h, n)
    want, want_error = _kernel_run(_plain(accel), x, v, h, n)
    assert error == want_error
    assert [k for k, _ in got] == [k for k, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert np.array_equal(a, b)


def _jacobi_accel(lattice, moments, launch, deviation, h, mode):
    """The accel, launch x and launch v integrate_jacobi_full hands the kernel."""
    grabbed = []
    with mock.patch.object(dynamics, "_rk4", lambda accel, x, v, h, n, observe:
                           grabbed.append((accel, x, v))):
        integrate_jacobi_full(lattice, moments, launch, deviation, launch.t + h,
                              IntegratorConfig(step=abs(h)), mode=mode)
    return grabbed[0]


_COAST_BEAM = compute_moments(sample_gaussian_beam([0.0, 1.0, 0.0], [0.01] * 3, n=40, seed=8))
_SIGNED_SMALL = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.05, 0.05))


@st.composite
def _coast_case(draw):
    """(lattice, states, h, n): 1 to 4 launches near one another, on a line of drift
    runs (drift | drift), quads and dipoles that may end in a drift."""
    elements = []
    for kind in draw(st.lists(st.sampled_from(["drift", "drift|drift", "quad", "dipole"]),
                              min_size=1, max_size=5)):
        length = st.floats(0.05, 0.4)
        if kind == "quad":
            elements.append(NormalQuadDipole(length=draw(length), b0=draw(st.floats(-0.3, 0.3)),
                                             b1=draw(st.floats(-2.0, 2.0))))
        elif kind == "dipole":
            elements.append(Dipole(length=draw(length), b0=draw(st.floats(-1.0, 1.0))))
        else:
            elements += [Drift(length=draw(length)) for _ in kind.split("|")]
    lattice = Lattice.from_elements(elements)
    base = draw(st.floats(0.0, 1.0)) * lattice.total_length
    spatial = [draw(_SIGNED_SMALL), draw(st.one_of(st.sampled_from([0.0, -0.0]),
                                                   st.floats(-1.5, 1.5))), draw(_SIGNED_SMALL)]
    states = []
    for _ in range(draw(st.integers(1, 4))):
        # each sample keeps a component of the first, its zero's sign too, or moves it a little
        x2 = min(base + draw(st.sampled_from([0.0, 0.01, 0.03])), lattice.total_length)
        x = [draw(st.floats(-1.0, 1.0)), draw(_SIGNED_SMALL), x2, draw(_SIGNED_SMALL)]
        v = [c + draw(st.floats(-0.01, 0.01)) if draw(st.booleans()) else c for c in spatial]
        states.append((x, project_to_hyperboloid(v).tolist()))
    h = draw(st.sampled_from([0.01, 0.0125, -0.01]))
    return lattice, states, h, draw(st.integers(10, 200))


@settings(max_examples=300, deadline=None)
@given(case=_coast_case(), rhs_kind=st.sampled_from(["point", "force", "averaged", "jacobi"]),
       form=st.sampled_from(["float", "four-column", "one-part"]),
       mode=st.sampled_from(["full", "linearized"]), scale=st.sampled_from([1.0, 1.0, 1.0, 2.5]))
def test_coasting_equals_plain_stepping_bit_for_bit(case, rhs_kind, form, mode, scale):
    # every observed state, zero signs included, and the step and message of
    # an OutOfLattice equal those of the same right-hand side without its
    # drift test; clouds straddle element edges, a negative h never coasts.
    # Off the shell at eta(v, v) = 6.25 the point force in a drift is +0.0,
    # which turns a -0.0 velocity component to +0.0, so that state never coasts.
    lattice, states, h, n = case
    if rhs_kind == "jacobi":
        (x, v), dxi = states[0], [1e-3, -0.0, 2e-3, 0.0]
        launch = TrajectoryState(0.0, np.array(x), np.array(v))
        deviation = JacobiState(0.0, np.array([0.0, 1e-3, -1e-3, 0.0]), np.array(dxi))
        accel, x, v = _jacobi_accel(lattice, _COAST_BEAM, launch, deviation, h, mode)
        _assert_coasts_as_plain(accel, x, v, h, n)
        return
    states = [(x, [scale * c for c in v]) for x, v in states]
    if rhs_kind == "force":  # written for one orbit's floats only
        rhs, form = dynamics._rhs_force(lattice), "float"
    else:
        slots = _frozen_slots(_COAST_BEAM, states[0][1]) if rhs_kind == "averaged" else ()
        rhs = _rhs_geodesic(lattice, *slots)
    if form == "float":
        _assert_coasts_as_plain(rhs, *states[0], h, n)
        return
    xc, vc = (np.ascontiguousarray(np.array([s[i] for s in states]).T) for i in (0, 1))
    if form == "four-column":
        _assert_coasts_as_plain(rhs, [*xc], [*vc], h, n)
    else:
        _assert_coasts_as_plain(_rows_accel(rhs), [xc], [vc], h, n)


@pytest.mark.parametrize("rhs_kind, form", [
    ("point", "float"), ("point", "four-column"), ("point", "one-part"), ("force", "float"),
    ("averaged", "float"), ("averaged", "four-column"), ("averaged", "one-part")])
def test_coast_past_the_last_drift_raises_as_plain_stepping(rhs_kind, form):
    # quad | drift | drift: the run coasts through both drifts and leaves the
    # lattice; OutOfLattice comes at the same step with the same message
    lattice = Lattice.from_elements([NormalQuadDipole(length=0.3, b0=0.1, b1=1.0),
                                     Drift(length=0.4), Drift(length=0.5)])
    v = project_to_hyperboloid([1e-3, 1.0, -0.0]).tolist()
    x = [0.0, 1e-3, 0.25, 0.0]
    slots = _frozen_slots(_COAST_BEAM, v) if rhs_kind == "averaged" else ()
    rhs = dynamics._rhs_force(lattice) if rhs_kind == "force" else _rhs_geodesic(lattice, *slots)
    if form == "float":
        accel, x, v = rhs, x, v
    elif form == "four-column":
        accel, x, v = rhs, [np.array([c, c]) for c in x], [np.array([c, c]) for c in v]
    else:
        accel, x, v = _rows_accel(rhs), [np.array([x, x]).T], [np.array([v, v]).T]
    got, error = _kernel_run(accel, x, v, 0.01, 150)
    want, want_error = _kernel_run(_plain(accel), x, v, 0.01, 150)
    assert error is not None and error == want_error
    assert len(got) == len(want) < 151
    for (_, a), (_, b) in zip(got, want):
        assert np.array_equal(a, b)


def test_state_whose_first_stage_is_not_negative_zero_never_coasts():
    # off the shell, eta(v, v) = 6.25, the point force in a drift is +0.0;
    # the plain step turns v1 = -0.0 into +0.0, and coasting would keep it
    lattice = Lattice.from_elements([Drift(length=2.0)])
    rhs = _rhs_geodesic(lattice)
    x, v = [0.0, -0.0, 0.1, 0.0], [2.5 * c for c in project_to_hyperboloid([-0.0, 1.0, 0.0])]
    assert _bits(rhs(x, v)).tolist() == _bits([0.0] * 4).tolist()
    _assert_coasts_as_plain(rhs, x, v, 0.01, 10)
    seen = []
    dynamics._rk4(rhs, x, v, 0.01, 10, lambda k, x, v: seen.append(v[1]))
    assert math.copysign(1.0, seen[-1]) == 1.0


def _counted_lookups(run):
    """Field lookups the integrators make during run()."""
    with mock.patch.object(dynamics, "field_entries", wraps=dynamics.field_entries) as lookups:
        run()
    return lookups.call_count


@pytest.mark.parametrize("elements, per_step", [
    ([Drift(length=2.0)], 0), ([Drift(length=0.7), Drift(length=1.3)], 0),
    ([NormalQuadDipole(length=2.0, b0=0.1, b1=0.5)], 4)], ids=["drift", "drift|drift", "quad"])
def test_drift_run_makes_one_lookup_not_four_a_step(elements, per_step):
    # work, not time: 150 steps of h = 0.01 inside a 2 m run of drifts look
    # the field up once, for the first step's first stage; a quad looks it
    # up at every stage
    lattice = Lattice.from_elements(elements)
    launch = TrajectoryState(0.0, np.array([0.0, 1e-3, 0.1, -1e-3]),
                             project_to_hyperboloid([1e-3, 1.0, -1e-3]))
    ens = sample_gaussian_beam([0.0, 1.0, 0.0], [0.01] * 3, n=20, seed=3)
    runs = [
        lambda: integrate_lorentz(lattice, launch, 1.5, _CFG),
        lambda: _orbit(dynamics._rhs_force(lattice), launch, 1.5, _CFG.step),
        lambda: integrate_averaged_geodesic(lattice, compute_moments(ens), launch, 1.5, _CFG),
        lambda: integrate_jacobi_full(lattice, compute_moments(ens), launch, _DEVIATION, 1.5, _CFG),
        lambda: ensemble_track(lattice, ens, launch.x, 1.5, _CFG),
    ]
    for run in runs:
        assert _counted_lookups(run) == (per_step * 150 or 1)


def test_lattice_without_a_drift_gives_no_drift_test():
    lattice = Lattice.from_elements([Dipole(length=25.0, b0=0.05)])
    assert lattice.drift_runs == (-1,)
    assert _rhs_geodesic(lattice).in_drift is None
    assert not hasattr(_rows_accel(_rhs_geodesic(lattice)), "in_drift")


def test_drift_runs_name_the_last_drift_of_each_run():
    q = NormalQuadDipole(length=0.5, b0=0.0, b1=1.0)
    lattice = Lattice.from_elements([Drift(length=0.5), Drift(length=0.5), q, Drift(length=0.5),
                                     q, Drift(length=0.25), Drift(length=0.25)])
    assert lattice.drift_runs == (1, 1, -1, 3, -1, 6, 6)
    assert lattice.in_drift_run(0.0, 0.99) and lattice.in_drift_run(1.5, 1.99)
    assert not lattice.in_drift_run(0.9, 1.0)  # x2 = 1.0 is the quad's entry
    assert lattice.in_drift_run(2.5, 3.0) and not lattice.in_drift_run(2.5, 3.0 + 1e-12)
    assert not lattice.in_drift_run(-1e-12, 0.5) and not lattice.in_drift_run(math.nan, 0.5)


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
        lambda: _orbit(dynamics._rhs_force(lattice), launch, 1.2, cfg.step),
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
def test_rf_scalar_gamma_overflow_is_silent_like_float_arithmetic(e2_0):
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


@pytest.mark.parametrize("mode", ["full", "linearized"], ids=["inertial", "linearized"])
def test_jacobi_equals_dense_reference(edged, mode):
    lattice, launch = edged
    mom = _beam_moments()
    jac = integrate_jacobi_full(lattice, mom, launch, _DEVIATION, 1.0, _CFG, mode=mode)
    D1, D3 = d_slots(mom, launch.v)
    slots = (None, None) if mode == "linearized" else (D1, D3)
    xs, vs = reference_rk4(jacobi_rhs(lattice, D1, D3, slots),
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
    integrate_lorentz(fodo_lattice, launch, 0.6, _CFG)
    _orbit(dynamics._rhs_force(fodo_lattice), launch, 0.6, _CFG.step)
    ref = integrate_averaged_geodesic(fodo_lattice, mom, launch, 0.6, _CFG)
    xi_run = integrate_jacobi_full(fodo_lattice, mom, launch, _DEVIATION, 0.6, _CFG)
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
    start=st.floats(0.25, 0.5),
    offsets=st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e-2, 1e-2)),
                     min_size=2, max_size=2),
    spatial=st.lists(st.floats(-0.05, 0.05), min_size=2, max_size=2),
)
def test_delta_ensemble_is_bitwise_single_particle_on_random_lattices(
        elements, start, offsets, spatial):
    lattice = Lattice.from_elements(elements)
    length = lattice.total_length
    cfg = IntegratorConfig(step=lattice.min_length() / 4.0)
    # launched in the first half, forward at unit spatial speed along x2:
    # the orbit crosses every edge it meets.  Only the electric fields change
    # the rapidity phi, at most by the strongest one, e, per unit of proper
    # time, so in tau the orbit moves at most (cosh(phi + e tau) - cosh phi) / e
    # either way.  The span is the whole steps, up to 0.45 of the lattice
    # length, that keep this reach within 0.99 of the launch's distance from
    # the entry, the nearer end
    launch = TrajectoryState(0.0, np.array([0.0, offsets[0], start * length, offsets[1]]),
                             project_to_hyperboloid([spatial[0], 1.0, spatial[1]]))
    e = max([abs(el.e2) for el in elements if isinstance(el, ConstantE)]
            + [abs(el.e2_0) for el in elements if isinstance(el, RFCavity)], default=0.0)
    gamma, room = float(launch.v[0]), 0.99 * start * length
    phi = math.acosh(gamma)
    tau = (room / math.sinh(phi) if e == 0.0
           else (math.acosh(gamma + e * room) - phi) / e)
    steps = math.floor(min(tau, 0.45 * length) / cfg.step)
    assume(steps > 0)
    span = steps * cfg.step
    single = integrate_lorentz(lattice, launch, span, cfg)
    averaged = integrate_averaged_geodesic(lattice, delta_moments(launch.v), launch, span, cfg)
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
        # the column path, a contiguous column per component, one entry per
        # row, and the one-part path, one (4, n) array whose rows those are
        xc, vc = np.repeat(x0[:, None], n, axis=1), np.ascontiguousarray(ens.ys.T)
        for accel, x, v in ((rhs, [*xc], [*vc]), (_rows_accel(rhs), [xc], [vc])):
            xs, vs = (a.reshape(31, 4, n) for a in _rk4_rows(accel, x, v, 1e-2, 30))
            for a in range(n):
                row = single(TrajectoryState(0.0, x0, ens.ys[a]))
                assert np.array_equal(xs[:, :, a], row.x)
                assert np.array_equal(vs[:, :, a], row.v)


_SIGNED_SPATIAL = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-20.0, 20.0))


@settings(max_examples=200, deadline=None)
@given(
    spatial=st.lists(st.lists(_SIGNED_SPATIAL, min_size=3, max_size=3), min_size=1, max_size=3),
    off=st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3)),
    d1=st.lists(st.floats(-1e-3, 1e-3), min_size=4, max_size=4),
    d3=st.lists(st.floats(-1e-3, 1e-3), min_size=64, max_size=64),
    averaged=st.booleans(),
)
def test_field_free_force_equals_the_full_sums_bit_for_bit(spatial, off, d1, d3, averaged):
    # a drift's () gives the bits of explicit zero entries, zero signs
    # included, for each state as floats and for all of them as
    # one-entry-per-state columns: -0.0 in every component near the shell,
    # the first-stage value on which the kernel coasts through drifts
    states = [(project_to_hyperboloid(p) * (1.0 + off)).tolist() for p in spatial]
    D1, D3 = (d1, np.reshape(d3, (4, 16)).tolist()) if averaged else (None, None)
    zeros = ((1, 2, 0.0), (2, 1, -0.0))
    for v in [*states, [np.array(c) for c in zip(*states)]]:
        short = _geodesic_accel((), v, D1, D3)
        assert np.array_equal(_bits(short), _bits(_geodesic_accel(zeros, v, D1, D3)))
        assert dynamics._negative_zeros(short)


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
    # the float path against the four-column and the one-part cloud paths,
    # every bit compared, zero signs included; rows launched 1 cm apart
    # straddle an edge at nearly every stage, so the cloud takes the masked
    # per-element lookup.  On the drift | quad_dipole line a cloud of two
    # starts wholly in the drift.
    ens = sample_gaussian_beam([0.0, 1.0, 0.0], [sigma] * 3, n=n, seed=seed)
    x0 = np.array([[0.0, 2e-3, 0.08 + 0.01 * a, -1e-3] for a in range(n)])
    xc, vc = np.ascontiguousarray(x0.T), np.ascontiguousarray(ens.ys.T)
    cfg = IntegratorConfig(step=1e-2)
    vref = project_to_hyperboloid([0.0, 1.0, 0.0])
    drift_quad = Lattice.from_elements([Drift(length=0.1),
                                        NormalQuadDipole(length=0.5, b0=scale, b1=-1.5)])
    for lattice in (_every_kind_line(scale), drift_quad):
        pinned = _rhs_geodesic(lattice, *_frozen_slots(compute_moments(ens), vref))
        for rhs in (_rhs_geodesic(lattice), pinned):
            for accel, x, v in ((rhs, [*xc], [*vc]), (_rows_accel(rhs), [xc], [vc])):
                xs, vs = (a.reshape(31, 4, n) for a in _rk4_rows(accel, x, v, 1e-2, 30))
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
    """(run(initial), vector reference rhs, exact row function, steps) of a
    random linear channel."""
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
    gamma = draw(st.floats(1.0, 10.0))
    K = -((2.0 * gamma) * el.e2_0)

    def rhs(k, theta, xi, dxi):
        acc = np.zeros(4)
        acc[0] = -2.0 * gamma * el.e2_0 * xi[2]
        acc[2] = 2.0 * gamma * el.e2_0 * xi[2]
        return acc

    row = longitudinal_row(-1.0, lambda k, tau, u, du: exact_hill(K, tau, u, du),
                           lambda tau, u, du: exact_hill_rise(K, tau, u, du))
    return lambda init: integrate_longitudinal(el, gamma, init, n * _H, cfg), rhs, row, n


@settings(max_examples=300, deadline=None)
@given(channel=_linear_channel(), xi=_LAUNCH, dxi=_LAUNCH)
def test_linear_channel_components_equal_vector_reference(channel, xi, dxi):
    # every component of the launch is random, so a wrong coupling of
    # xi0 to xi2, or a lost sign of zero, shows in some column
    run, rhs, row, n = channel
    init = JacobiState(0.0, xi, dxi)
    ser = run(init)
    xs, vs = reference_rk4(rhs, xi, dxi, _H, n)
    assert_channel(ser, init, exact_series(row, init, _H, n), (xs, vs), _TRUNCATION)
