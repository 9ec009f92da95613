"""The shared RK4 kernel and the closed-form averaged-connection force.

The reference below is the hand-written classical RK4 loop the
integrators were first written with, kept here with its own copy of the
force arithmetic; every integrator routed through the shared kernel must
reproduce it bit for bit.  The property tests pin the closed-form
rank-3 slot against the tensor form of the connection and the promised
batch invariance of the right-hand sides.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from avgbeam import (
    ConstantE,
    Dipole,
    FieldSample,
    IntegratorConfig,
    JacobiState,
    Lattice,
    MomentSet,
    NormalQuadDipole,
    RFCavity,
    SkewQuadDipole,
    TrajectoryState,
    averaged_connection,
    compute_moments,
    contract_geodesic,
    ensemble_track,
    field_mixed,
    integrate_averaged_geodesic,
    integrate_longitudinal,
    integrate_lorentz,
    integrate_transverse_linear,
    moment_deviations,
    principal_solutions,
    project_to_hyperboloid,
    sample_gaussian_beam,
    transverse_k_profile,
    velocity_monomials3,
)
from avgbeam.dynamics import _comoving_third, _gamma, _rhs_geodesic, _rk4_rows
from avgbeam.minkowski import METRIC_SIGNATURE


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


def lorentz_rhs(lattice):
    """Monomial connection form -F v s(3 - s)/2 with fixed-order sums."""

    def rhs(k, theta, x, v):
        xi = np.zeros_like(x)
        xi[..., 1] = x[..., 1]
        xi[..., 3] = x[..., 3]
        F = field_mixed(lattice, x[..., 2], xi)
        Fv = (F[..., :, 0] * v[..., 0, None] + F[..., :, 1] * v[..., 1, None]
              + F[..., :, 2] * v[..., 2, None] + F[..., :, 3] * v[..., 3, None])
        s = (v[..., 0] * v[..., 0] - v[..., 1] * v[..., 1]
             - v[..., 2] * v[..., 2] - v[..., 3] * v[..., 3])
        return -Fv * (s * (3.0 - s) * 0.5)[..., None]

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


def test_transverse_equals_reference(cfg_fine):
    # b0 = 0.05: b0 * b0 = 0.0025000000000000005, while 1/(r*r) with
    # r = 1/b0 gives 0.0025; a small b1 keeps that last bit in K_h
    el = NormalQuadDipole(length=2.0, b0=0.05, b1=1e-3)
    init = JacobiState(0.0, np.array([0.0, 1e-3, 0.0, 2e-3]), np.array([0.0, 0.0, 0.0, 1e-4]))
    ser = integrate_transverse_linear(el, None, init, 1.5, cfg_fine)
    freq = np.array([0.0, el.b0 * el.b0 - el.b1, 0.0, el.b1])
    xs, vs = reference_rk4(lambda k, theta, xi, dxi: -freq * xi, init.xi, init.dxi, 1e-3, 1500)
    assert np.array_equal(ser.xi, xs)
    assert np.array_equal(ser.dxi, vs)


def test_longitudinal_equals_reference(cfg_fine):
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
    assert np.array_equal(ser.xi, xs)
    assert np.array_equal(ser.dxi, vs)


def test_longitudinal_constant_field_equals_reference(cfg_fine):
    el = ConstantE(length=20.0, e2=0.7)
    init = JacobiState(0.0, np.array([2e-4, -1e-4, 1e-3, 3e-4]),
                       np.array([-1e-4, 5e-5, 2e-3, 0.0]))
    ser = integrate_longitudinal(el, 1.5, init, 2.0, cfg_fine)

    def rhs(k, theta, xi, dxi):
        acc = np.zeros(4)
        acc[0] = acc[2] = -el.e2 * dxi[2]
        return acc

    xs, vs = reference_rk4(rhs, init.xi, init.dxi, 1e-3, 2000)
    assert np.array_equal(ser.xi, xs)
    assert np.array_equal(ser.dxi, vs)


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


# ---------------------------------------------------------------------------
# property tests

finite = st.floats(-1.0, 1.0, allow_nan=False)
vec4 = st.lists(finite, min_size=4, max_size=4).map(np.array)


def _minkowski(a, b):
    return float(np.sum(METRIC_SIGNATURE * a * b))


@settings(max_examples=60, deadline=None)
@given(
    spatial=st.lists(st.floats(-20.0, 20.0, allow_nan=False), min_size=3, max_size=3),
    d1=st.lists(st.floats(-1e-3, 1e-3, allow_nan=False), min_size=4, max_size=4),
    d3=st.lists(st.floats(-1e-3, 1e-3, allow_nan=False), min_size=64, max_size=64),
    field=st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=6, max_size=6),
    a=vec4,
    b=vec4,
)
def test_closed_form_force_matches_tensor_connection(spatial, d1, d3, field, a, b):
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

    closed = _gamma(F, first, _comoving_third(y, D3, a, b), a, b)
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
    # the cloud's own moments (slot deviations pinned to one velocity)
    vref = project_to_hyperboloid([0.0, 1.0, 0.0])
    cloud = compute_moments(ens)
    D1, D3 = moment_deviations(cloud, vref)
    for rhs, single in (
        (_rhs_geodesic(lattice),
         lambda st0: integrate_lorentz(lattice, st0, 0.3, cfg)),
        (_rhs_geodesic(lattice, D1, D3),
         lambda st0: integrate_averaged_geodesic(lattice, cloud, st0, 0.3, cfg,
                                                 deviations_from=vref)),
    ):
        xs, vs = _rk4_rows(rhs, np.tile(x0, (n, 1)), np.array(ens.ys), 1e-2, 30)
        for a in range(n):
            row = single(TrajectoryState(0.0, x0, ens.ys[a]))
            assert np.array_equal(xs[:, a, :], row.x)
            assert np.array_equal(vs[:, a, :], row.v)


_COMPONENT = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e-2, 1e-2))
_LAUNCH = st.lists(_COMPONENT, min_size=4, max_size=4).map(np.array)
_H = 0.01


@st.composite
def _linear_channel(draw):
    """(run(initial), vector reference rhs, steps) of a random linear channel."""
    n = draw(st.integers(4, 40))
    cfg = IntegratorConfig(step=_H)
    if draw(st.booleans()):
        el = draw(st.sampled_from([NormalQuadDipole, SkewQuadDipole]))(
            length=1.0, b0=draw(st.floats(0.05, 1.0)), b1=draw(st.floats(-1.0, 1.0)))
        rho = draw(st.one_of(st.none(), st.floats(1.0, 50.0)))
        kh, kv = el.focusing(rho)
        freq = np.array([0.0, kh, 0.0, kv])
        return (lambda init: integrate_transverse_linear(el, rho, init, n * _H, cfg),
                lambda k, theta, xi, dxi: -freq * xi, n)
    if draw(st.booleans()):
        el = ConstantE(length=1.0, e2=draw(st.floats(-2.0, 2.0)))

        def rhs(k, theta, xi, dxi):
            acc = np.zeros(4)
            acc[0] = acc[2] = -el.e2 * dxi[2]
            return acc

        return lambda init: integrate_longitudinal(el, 1.0, init, n * _H, cfg), rhs, n
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

    return lambda init: integrate_longitudinal(el, gamma, init, n * _H, cfg), rhs, n


@settings(max_examples=300, deadline=None)
@given(channel=_linear_channel(), xi=_LAUNCH, dxi=_LAUNCH)
def test_linear_channel_components_equal_vector_reference(channel, xi, dxi):
    # every component of the launch is random, so a wrong coupling of
    # xi0 to xi2, or a lost sign of zero, shows in some column
    run, rhs, n = channel
    ser = run(JacobiState(0.0, xi, dxi))
    xs, vs = reference_rk4(rhs, xi, dxi, _H, n)
    for got, want in ((ser.xi, xs), (ser.dxi, vs)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
