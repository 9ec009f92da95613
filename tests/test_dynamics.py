"""Geodesic integration, averaged transport, deviation dynamics, linear maps."""

import warnings

import numpy as np
import pytest

from avgbeam import (
    ConstantE,
    Dipole,
    Drift,
    IntegratorConfig,
    JacobiState,
    Lattice,
    MismatchedSampling,
    NormalQuadDipole,
    OffShellInitial,
    OutOfLattice,
    RFCavity,
    ReferenceSpanExceeded,
    SkewQuadDipole,
    StepTooLarge,
    TrajectoryState,
    UnsupportedElement,
    ZeroStrength,
    comoving_moments_along,
    compute_moments,
    delta_moments,
    integrate_averaged_geodesic,
    integrate_jacobi_full,
    integrate_longitudinal,
    integrate_lorentz,
    integrate_transverse_linear,
    mean_field_defect,
    minkowski_dot,
    moment_deviations,
    project_to_hyperboloid,
    read_jacobi_csv,
    read_trajectory_csv,
    sample_gaussian_beam,
    velocity_monomials3,
    write_jacobi_csv,
    write_trajectory_csv,
)
from avgbeam.connections import ArcAdapted

SQRT2 = np.sqrt(2.0)


def _circle_exact(t):
    """Closed orbit for the unit-radius dipole circle fixture."""
    return np.stack(
        [SQRT2 * t, np.cos(t) - 1.0, 1.2 + np.sin(t), np.zeros_like(t)], axis=-1
    )


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(step=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(step=-1e-3)
    with pytest.raises(ValueError):
        IntegratorConfig(step=float("nan"))


def test_initial_velocity_must_be_on_shell(circle_lattice, cfg_fine):
    bad = TrajectoryState(0.0, np.zeros(4), np.array([1.0, 0.5, 0.0, 0.0]))
    with pytest.raises(OffShellInitial):
        integrate_lorentz(circle_lattice, bad, 1.0, cfg_fine)


def test_high_gamma_launch_built_by_the_library_is_accepted():
    # project_to_hyperboloid at gamma = 1e5 leaves |eta(y,y)-1| ~ 2e-6,
    # machine precision relative to y0^2; span 1e-4 covers 10 m of the dipole
    lat = Lattice.from_elements([Dipole(length=25.0, b0=0.05)])
    v0 = project_to_hyperboloid([0.0, 1e5, 0.0])
    assert abs(minkowski_dot(v0, v0) - 1.0) > 1e-9
    st = TrajectoryState(0.0, np.array([0.0, 0.0, 1.0, 0.0]), v0)
    cfg = IntegratorConfig(step=1e-5)
    ref = integrate_lorentz(lat, st, 1e-4, cfg)
    avg = integrate_averaged_geodesic(lat, delta_moments(v0), st, 1e-4, cfg)
    assert np.array_equal(avg.x, ref.x)
    jac = integrate_jacobi_full(lat, delta_moments(v0), avg,
                                JacobiState(0.0, np.array([0.0, 1e-3, 0.0, 0.0]), np.zeros(4)),
                                cfg)
    assert len(jac) == len(ref) == 11
    assert np.all(np.isfinite(jac.xi))
    bad = TrajectoryState(0.0, np.zeros(4), np.array([1.0, 0.5, 0.0, 0.0]))
    for run in (lambda: integrate_lorentz(lat, bad, 1e-4, cfg),
                lambda: integrate_averaged_geodesic(lat, delta_moments(v0), bad, 1e-4, cfg)):
        with pytest.raises(OffShellInitial):
            run()


def test_step_must_resolve_elements(circle_state):
    lat = Lattice.from_elements([Dipole(length=0.002, b0=1.0), Drift(length=5.0)])
    with pytest.raises(StepTooLarge):
        integrate_lorentz(lat, circle_state, 1.0, IntegratorConfig(step=1e-3))


def test_grid_is_uniform_and_covers_span(circle_lattice, circle_state):
    ser = integrate_lorentz(circle_lattice, circle_state, 1.0, IntegratorConfig(step=0.3))
    assert np.allclose(np.diff(ser.t), 0.3)
    assert ser.t[0] == 0.0
    assert ser.t[-1] >= 1.0  # span rounded up to whole steps
    assert len(ser) == 5


def test_circle_closes_after_full_turn(circle_lattice, circle_state):
    # step chosen to divide 2 pi so the grid lands exactly on the return time
    h = 2.0 * np.pi / 6283
    ser = integrate_lorentz(circle_lattice, circle_state, 2.0 * np.pi, IntegratorConfig(step=h))
    gap = np.abs(ser.x[-1, 1:] - circle_state.x[1:]).max()
    vgap = np.abs(ser.v[-1] - circle_state.v).max()
    assert gap < 1e-6
    assert vgap < 1e-6
    assert ser.norm_drift() < 1e-12


def test_trajectory_matches_closed_form(circle_lattice, circle_state, cfg_fine):
    ser = integrate_lorentz(circle_lattice, circle_state, 2.0, cfg_fine)
    err = np.abs(ser.x - _circle_exact(ser.t)).max()
    assert err < 1e-10


def test_rk4_order_against_closed_form(circle_lattice, circle_state):
    def endpoint_err(h):
        ser = integrate_lorentz(circle_lattice, circle_state, 2.0, IntegratorConfig(step=h))
        return np.abs(ser.x[-1] - _circle_exact(ser.t[-1])).max()

    ratio = endpoint_err(0.02) / endpoint_err(0.01)
    assert 12.0 < ratio < 20.0


def test_time_reversal(circle_lattice, circle_state, cfg_fine):
    fwd = integrate_lorentz(circle_lattice, circle_state, 2.0, cfg_fine)
    back = integrate_lorentz(circle_lattice, fwd.final, 0.0, cfg_fine)
    assert back.t[-1] == 0.0
    assert np.abs(back.x[-1] - circle_state.x).max() < 1e-9
    assert np.abs(back.v[-1] - circle_state.v).max() < 1e-9


def test_connection_and_force_forms_agree(circle_lattice, circle_state, cfg_fine):
    a = integrate_lorentz(circle_lattice, circle_state, 2.0, cfg_fine, form="connection")
    b = integrate_lorentz(circle_lattice, circle_state, 2.0, cfg_fine, form="force")
    assert np.abs(a.x[-1] - b.x[-1]).max() < 1e-12
    with pytest.raises(ValueError):
        integrate_lorentz(circle_lattice, circle_state, 2.0, cfg_fine, form="euler")


def test_norm_conserved_in_every_element_kind(cfg_fine):
    v0 = np.array([SQRT2, 0.0, 1.0, 0.0])
    cases = {
        "dipole": (Dipole(length=5.0, b0=1.0), [0.0, 0.0, 1.2, 0.0]),
        "normal_quad": (NormalQuadDipole(length=5.0, b0=0.8, b1=0.4), [0.0, 0.05, 1.2, 0.02]),
        "skew_quad": (SkewQuadDipole(length=5.0, b0=0.8, b1=0.4), [0.0, 0.05, 1.2, 0.02]),
        "const_e": (ConstantE(length=5.0, e2=0.1), [0.0, 0.0, 1.0, 0.0]),
        "rf": (RFCavity(length=5.0, e2_0=0.05, w_rf=2.0), [0.0, 0.0, 1.0, 0.0]),
        "drift": (Drift(length=5.0), [0.0, 0.0, 0.0, 0.0]),
    }
    for kind, (elem, x0) in cases.items():
        lat = Lattice.from_elements([elem])
        ser = integrate_lorentz(lat, TrajectoryState(0.0, np.array(x0), v0), 1.0, cfg_fine)
        assert ser.norm_drift() < 1e-12, kind


def test_electric_elements_change_energy(cfg_fine):
    lat = Lattice.from_elements([ConstantE(length=5.0, e2=0.1)])
    st = TrajectoryState(0.0, np.array([0.0, 0.0, 1.0, 0.0]), np.array([SQRT2, 0.0, 1.0, 0.0]))
    ser = integrate_lorentz(lat, st, 1.0, cfg_fine)
    assert ser.v[-1, 0] != ser.v[0, 0]
    assert ser.norm_drift() < 1e-12


def test_moment_deviations_zero_for_delta():
    y = project_to_hyperboloid([0.0, 1.0, 0.0])
    d1, d3 = moment_deviations(delta_moments(y), y)
    assert not np.any(d1)
    assert not np.any(d3)


def test_averaged_geodesic_delta_bitwise_equals_lorentz(circle_lattice, circle_state, cfg_fine):
    mom = delta_moments(circle_state.v)
    a = integrate_lorentz(circle_lattice, circle_state, 2.0, cfg_fine)
    b = integrate_averaged_geodesic(circle_lattice, mom, circle_state, 2.0, cfg_fine)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.v, b.v)


def test_averaged_geodesic_moments_shift_orbit(circle_lattice, circle_state, cfg_fine):
    ens = sample_gaussian_beam([0.0, 1.0, 0.0], [0.05] * 3, n=400, seed=6)
    mom = compute_moments(ens)
    ref = integrate_averaged_geodesic(circle_lattice, mom, circle_state, 1.0, cfg_fine)
    pt = integrate_lorentz(circle_lattice, circle_state, 1.0, cfg_fine)
    assert np.abs(ref.x[-1] - pt.x[-1]).max() > 1e-6  # spread feeds back on the mean


def test_deviations_from_overrides_reference(circle_lattice, circle_state, cfg_fine):
    ens = sample_gaussian_beam([0.0, 1.0, 0.0], [0.05] * 3, n=400, seed=6)
    mom = compute_moments(ens)
    a = integrate_averaged_geodesic(circle_lattice, mom, circle_state, 1.0, cfg_fine)
    b = integrate_averaged_geodesic(
        circle_lattice, mom, circle_state, 1.0, cfg_fine, deviations_from=circle_state.v
    )
    assert np.array_equal(a.x, b.x)  # default reference is the launch velocity
    c = integrate_averaged_geodesic(
        circle_lattice, mom, circle_state, 1.0, cfg_fine,
        deviations_from=project_to_hyperboloid([0.0, 1.01, 0.0]),
    )
    assert np.abs(c.x[-1] - a.x[-1]).max() > 0.0


def test_comoving_moments_track_velocity(circle_lattice, circle_state, cfg_fine):
    ser = integrate_lorentz(circle_lattice, circle_state, 1.0, cfg_fine)
    mom = delta_moments(circle_state.v)
    along = comoving_moments_along(ser, mom)
    # zero deviations: transported moments are the running velocity monomials
    assert np.array_equal(along.first, ser.v)
    k = len(ser) // 2
    assert np.array_equal(along.third[k], velocity_monomials3(ser.v[k]))


def test_trajectory_csv_round_trip(circle_lattice, circle_state, tmp_path):
    ser = integrate_lorentz(circle_lattice, circle_state, 0.5, IntegratorConfig(step=1e-2))
    p = tmp_path / "traj.csv"
    write_trajectory_csv(ser, p)
    assert p.read_text().splitlines()[0] == "t,x0,x1,x2,x3,v0,v1,v2,v3"
    back = read_trajectory_csv(p)
    assert np.array_equal(back.t, ser.t)
    assert np.array_equal(back.x, ser.x)
    assert np.array_equal(back.v, ser.v)


# ---------------------------------------------------------------- deviations


def test_jacobi_free_space_is_linear(cfg_fine):
    lat = Lattice.from_elements([Drift(length=10.0)])
    v0 = project_to_hyperboloid([0.0, 1.0, 0.0])
    ref = integrate_lorentz(lat, TrajectoryState(0.0, np.zeros(4), v0), 5.0, cfg_fine)
    xi0 = np.array([0.0, 1e-3, 0.0, 2e-3])
    dxi0 = np.array([0.0, 5e-4, 0.0, -1e-4])
    jac = integrate_jacobi_full(
        lat, delta_moments(v0), ref, JacobiState(0.0, xi0, dxi0), cfg_fine
    )
    want = xi0[None, :] + jac.t[:, None] * dxi0[None, :]
    assert np.abs(jac.xi - want).max() < 1e-11
    assert jac.decoupling_ok


def test_jacobi_is_exact_linearization_of_flow(circle_lattice, circle_state, cfg_fine):
    # displaced geodesic minus reference, divided by sigma, converges to the
    # transported deviation at second order; the velocity is perturbed along
    # an on-shell tangent so the remainder is a genuine quadratic
    mom = delta_moments(circle_state.v)
    ref = integrate_lorentz(circle_lattice, circle_state, 1.0, cfg_fine)
    xi0 = np.array([0.0, 1.0, 0.0, 0.0])
    w = np.array([0.3, -0.2, 0.4])
    u = circle_state.v[1:]
    dxi0 = np.concatenate([[np.dot(u, w) / circle_state.v[0]], w])
    jac = integrate_jacobi_full(
        circle_lattice, mom, ref, JacobiState(0.0, xi0, dxi0), cfg_fine
    )

    def displaced(sigma):
        st = TrajectoryState(
            0.0, circle_state.x + sigma * xi0, project_to_hyperboloid(u + sigma * w)
        )
        return integrate_lorentz(circle_lattice, st, 1.0, cfg_fine)

    errs = []
    for sigma in (2e-4, 1e-4):
        d = displaced(sigma)
        errs.append(np.abs((d.x[-1] - ref.x[-1]) - sigma * jac.xi[-1]).max())
    assert errs[0] / errs[1] > 3.0  # quadratic remainder halves twice
    assert errs[1] < 1e-7


def test_jacobi_span_and_grid_guards(circle_lattice, circle_state, cfg_fine):
    mom = delta_moments(circle_state.v)
    ref = integrate_lorentz(circle_lattice, circle_state, 1.0, cfg_fine)
    init = JacobiState(0.0, np.array([0.0, 1e-3, 0.0, 0.0]), np.zeros(4))
    with pytest.raises(ReferenceSpanExceeded):
        integrate_jacobi_full(circle_lattice, mom, ref, init, cfg_fine, t_end=2.0)
    with pytest.raises(MismatchedSampling):
        integrate_jacobi_full(circle_lattice, mom, ref, init, IntegratorConfig(step=2e-3))


def test_first_moment_offset_is_frozen_along_jacobi_reference(
    circle_lattice, circle_state, cfg_fine
):
    # epsilon = <y> - dX/dt, the first-moment offset a finite bunch carries
    # along the reference of a deviation run, stays the launch value D1
    ens = sample_gaussian_beam([0.0, 1.0, 0.0], [0.03] * 3, n=200, seed=14)
    mom = compute_moments(ens)
    v0 = project_to_hyperboloid(mom.first[1:4])
    st = TrajectoryState(0.0, circle_state.x, v0)
    ref = integrate_averaged_geodesic(circle_lattice, mom, st, 1.0, cfg_fine)
    jac = integrate_jacobi_full(
        circle_lattice, mom, ref, JacobiState(0.0, np.zeros(4), np.zeros(4)), cfg_fine
    )
    assert np.array_equal(jac.t, ref.t)
    assert not np.any(jac.xi) and not np.any(jac.dxi)  # zero deviation stays zero
    eps = comoving_moments_along(ref, mom).first - ref.v
    d1 = mom.first - v0
    assert np.any(d1)
    assert np.abs(eps - d1).max() <= 4e-16 * np.abs(ref.v).max()


def test_jacobi_linearized_mode_matches_full_for_delta(circle_lattice, circle_state, cfg_fine):
    mom = delta_moments(circle_state.v)
    ref = integrate_lorentz(circle_lattice, circle_state, 1.0, cfg_fine)
    init = JacobiState(0.0, np.array([0.0, 1e-3, 0.0, 0.0]), np.zeros(4))
    a = integrate_jacobi_full(circle_lattice, mom, ref, init, cfg_fine, mode="full")
    b = integrate_jacobi_full(circle_lattice, mom, ref, init, cfg_fine, mode="linearized")
    assert np.abs(a.xi - b.xi).max() < 1e-12


def test_jacobi_flags_velocity_coupling(circle_lattice, circle_state, cfg_fine):
    mom = delta_moments(circle_state.v)
    ref = integrate_lorentz(circle_lattice, circle_state, 1.0, cfg_fine)
    bad = integrate_jacobi_full(
        circle_lattice, mom, ref,
        JacobiState(0.0, np.zeros(4), circle_state.v * 1e-3), cfg_fine,
    )
    assert not bad.decoupling_ok
    good = integrate_jacobi_full(
        circle_lattice, mom, ref,
        JacobiState(0.0, np.zeros(4), np.array([0.0, 0.0, 0.0, 1e-3])), cfg_fine,
    )
    assert good.decoupling_ok


def test_jacobi_arc_frame_restores(circle_lattice, circle_state, cfg_fine):
    mom = delta_moments(circle_state.v)
    ref = integrate_lorentz(circle_lattice, circle_state, 1.0, cfg_fine)
    init = JacobiState(0.0, np.array([0.0, 1e-3, 0.0, 0.0]), np.zeros(4))
    inertial = integrate_jacobi_full(circle_lattice, mom, ref, init, cfg_fine)
    arc = integrate_jacobi_full(
        circle_lattice, mom, ref, init, cfg_fine, frame=ArcAdapted(rho=1.0)
    )
    # the centripetal gradient term changes the horizontal channel only
    diff = np.abs(arc.xi - inertial.xi).max(axis=0)
    assert diff[1] > 1e-6
    assert diff[3] == 0.0


def test_jacobi_csv_round_trip(circle_lattice, circle_state, cfg_fine, tmp_path):
    mom = delta_moments(circle_state.v)
    ref = integrate_lorentz(circle_lattice, circle_state, 0.2, cfg_fine)
    jac = integrate_jacobi_full(
        circle_lattice, mom, ref,
        JacobiState(0.0, np.array([0.0, 1e-3, 0.0, 0.0]), np.zeros(4)), cfg_fine,
    )
    p = tmp_path / "jac.csv"
    write_jacobi_csv(jac, p)
    back = read_jacobi_csv(p)
    assert np.array_equal(back.xi, jac.xi)
    assert np.array_equal(back.dxi, jac.dxi)


# ------------------------------------------------------- linear channel maps


def test_transverse_dipole_is_harmonic():
    elem = Dipole(length=7.0, b0=1.0)
    init = JacobiState(0.0, np.array([0.0, 1e-3, 0.0, 0.0]), np.zeros(4))
    run = integrate_transverse_linear(elem, None, init, 5.0, IntegratorConfig(step=1e-3))
    assert np.abs(run.xi[:, 1] - 1e-3 * np.cos(run.t)).max() < 1e-12
    # vertical channel stays free
    assert not np.any(run.xi[:, 3])


def test_transverse_quad_channels():
    elem = NormalQuadDipole(length=6.0, b0=0.5, b1=0.5)
    init = JacobiState(0.0, np.array([0.0, 1e-3, 0.0, 1e-3]), np.zeros(4))
    run = integrate_transverse_linear(elem, None, init, 4.0, IntegratorConfig(step=1e-3))
    kh = 0.25 - 0.5  # 1/rho^2 - b1, defocusing
    kv = 0.5
    want1 = 1e-3 * np.cosh(np.sqrt(-kh) * run.t)
    want3 = 1e-3 * np.cos(np.sqrt(kv) * run.t)
    assert np.abs(run.xi[:, 1] - want1).max() < 1e-9
    assert np.abs(run.xi[:, 3] - want3).max() < 1e-9


def test_transverse_skew_swaps_channel_roles():
    elem = SkewQuadDipole(length=6.0, b0=0.5, b1=0.5)
    init = JacobiState(0.0, np.array([0.0, 1e-3, 0.0, 1e-3]), np.zeros(4))
    run = integrate_transverse_linear(elem, None, init, 4.0, IntegratorConfig(step=1e-3))
    want1 = 1e-3 * np.cos(np.sqrt(0.75) * run.t)   # 1/rho^2 + b1
    want3 = 1e-3 * np.cosh(np.sqrt(0.5) * run.t)   # -b1 vertical
    assert np.abs(run.xi[:, 1] - want1).max() < 1e-9
    assert np.abs(run.xi[:, 3] - want3).max() < 1e-9


def test_transverse_explicit_rho_overrides_element():
    elem = Dipole(length=7.0, b0=2.0)
    init = JacobiState(0.0, np.array([0.0, 1e-3, 0.0, 0.0]), np.zeros(4))
    run = integrate_transverse_linear(elem, 1.0, init, 5.0, IntegratorConfig(step=1e-3))
    assert np.abs(run.xi[:, 1] - 1e-3 * np.cos(run.t)).max() < 1e-10


def test_transverse_amplitude_warning():
    elem = Dipole(length=7.0, b0=1.0)
    init = JacobiState(0.0, np.array([0.0, 0.5, 0.0, 0.0]), np.zeros(4))
    with pytest.warns(RuntimeWarning):
        integrate_transverse_linear(elem, None, init, 1.0, IntegratorConfig(step=1e-3))


def test_transverse_bounds_and_kinds():
    init = JacobiState(0.0, np.array([0.0, 1e-3, 0.0, 0.0]), np.zeros(4))
    with pytest.raises(OutOfLattice):
        integrate_transverse_linear(Dipole(length=2.0, b0=1.0), None, init, 3.0, IntegratorConfig(step=1e-3))
    with pytest.raises(UnsupportedElement):
        integrate_transverse_linear(ConstantE(length=2.0, e2=0.1), None, init, 1.0, IntegratorConfig(step=1e-3))
    # b0 = 0 has no design radius; an explicit one still runs
    with pytest.raises(ZeroStrength):
        integrate_transverse_linear(Dipole(length=2.0, b0=0.0), None, init, 1.0, IntegratorConfig(step=1e-3))
    integrate_transverse_linear(Dipole(length=2.0, b0=0.0), 1.0, init, 1.0, IntegratorConfig(step=1e-3))


def test_longitudinal_constant_field_closed_form():
    elem = ConstantE(length=20.0, e2=0.1)
    init = JacobiState(0.0, np.zeros(4), np.array([0.0, 0.0, 1e-3, 0.0]))
    run = integrate_longitudinal(elem, 1.0, init, 10.0, IntegratorConfig(step=1e-3))
    want = 1e-2 * (1.0 - np.exp(-0.1 * run.t))
    assert np.abs(run.xi[:, 2] - want).max() < 1e-12
    # temporal channel shares the acceleration but starts from zero slope
    assert np.abs(run.xi[:, 0] - (want - 1e-3 * run.t)).max() < 1e-12


def test_longitudinal_rf_exponential_growth():
    elem = RFCavity(length=20.0, e2_0=1.0, w_rf=3.0)
    gamma = 1.0
    xi0 = 1e-4
    init = JacobiState(0.0, np.array([0.0, 0.0, xi0, 0.0]), np.zeros(4))
    run = integrate_longitudinal(elem, gamma, init, 2.0, IntegratorConfig(step=1e-3))
    want = xi0 * np.cosh(np.sqrt(2.0) * run.t)
    assert np.abs(run.xi[:, 2] - want).max() < 1e-12
    assert np.abs(run.xi[:, 0] + (want - xi0)).max() < 1e-12


def test_longitudinal_gamma_series_matches_constant():
    elem = RFCavity(length=20.0, e2_0=1.0, w_rf=3.0)
    init = JacobiState(0.0, np.array([0.0, 0.0, 1e-4, 0.0]), np.zeros(4))
    cfg = IntegratorConfig(step=1e-2)
    a = integrate_longitudinal(elem, 2.0, init, 1.0, cfg)
    series = np.full(101, 2.0)
    b = integrate_longitudinal(elem, series, init, 1.0, cfg)
    assert np.array_equal(a.xi, b.xi)
    with pytest.raises(MismatchedSampling):
        integrate_longitudinal(elem, np.full(50, 2.0), init, 1.0, cfg)


def test_longitudinal_rejects_magnetic_elements():
    init = JacobiState(0.0, np.zeros(4), np.zeros(4))
    with pytest.raises(UnsupportedElement):
        integrate_longitudinal(Dipole(length=2.0, b0=1.0), 1.0, init, 1.0, IntegratorConfig(step=1e-3))


# ------------------------------------------------------------------- defect


def test_mean_field_defect_small_on_own_geodesic(circle_lattice, circle_state, cfg_fine):
    mom = delta_moments(circle_state.v)
    ref = integrate_averaged_geodesic(circle_lattice, mom, circle_state, 1.0, cfg_fine)
    along = comoving_moments_along(ref, mom)
    t, defect = mean_field_defect(circle_lattice, along, ref)
    assert len(t) == len(ref)
    assert defect[2:-2].max() < 1e-9


def test_mean_field_defect_grid_guard(circle_lattice, circle_state, cfg_fine):
    mom = delta_moments(circle_state.v)
    ref = integrate_lorentz(circle_lattice, circle_state, 1.0, cfg_fine)
    other = integrate_lorentz(circle_lattice, circle_state, 1.0, IntegratorConfig(step=2e-3))
    along = comoving_moments_along(other, mom)
    with pytest.raises(MismatchedSampling):
        mean_field_defect(circle_lattice, along, ref)


def test_defect_detects_wrong_curve(circle_lattice, circle_state, cfg_fine):
    # transporting the moments of a different beam along the curve must
    # leave a visible residual
    mom = delta_moments(project_to_hyperboloid([0.0, 1.1, 0.0]))
    ref = integrate_lorentz(circle_lattice, circle_state, 1.0, cfg_fine)
    along = comoving_moments_along(ref, mom, reference_velocity=circle_state.v)
    _, defect = mean_field_defect(circle_lattice, along, ref)
    assert defect[2:-2].max() > 1e-3
