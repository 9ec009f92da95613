"""Geodesic integration, averaged transport, deviation dynamics, linear maps."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

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
    ParseError,
    RFCavity,
    SkewQuadDipole,
    StepTooLarge,
    TrajectoryState,
    UnsupportedElement,
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
    write_jacobi_csv,
    write_trajectory_csv,
)
from avgbeam.dynamics import _hill_map, _orbit, _rhs_force
from test_kernel import reference_rk4

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
    jac = integrate_jacobi_full(lat, delta_moments(v0), st,
                                JacobiState(0.0, np.array([0.0, 1e-3, 0.0, 0.0]), np.zeros(4)),
                                1e-4, cfg)
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


@pytest.mark.parametrize("t_end", [np.inf, -np.inf, np.nan])
def test_non_finite_span_is_rejected(circle_lattice, circle_state, cfg_fine, t_end):
    with pytest.raises(ValueError, match="span"):
        integrate_lorentz(circle_lattice, circle_state, t_end, cfg_fine)


def test_span_of_too_many_steps_names_span_and_step(circle_lattice, circle_state):
    # span and step are finite, span / step is not
    with pytest.raises(ValueError, match=r"^integration span 1e\+308 over step 0\.001 overflows"):
        integrate_lorentz(circle_lattice, circle_state, 1e308, IntegratorConfig(step=1e-3))
    # span / step is finite, yet past numpy's array size limit, which it checks before allocating
    with pytest.raises(ValueError, match=r"^integration span 1e\+20 over step 0\.001 overflows "
                                         r"the step count: 1e\+23 steps"):
        integrate_lorentz(circle_lattice, circle_state, 1e20, IntegratorConfig(step=1e-3))


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
    a = integrate_lorentz(circle_lattice, circle_state, 2.0, cfg_fine)
    b = _orbit(_rhs_force(circle_lattice), circle_state, 2.0, cfg_fine.step)
    assert np.abs(a.x[-1] - b.x[-1]).max() < 1e-12


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


_LENGTH, _STRENGTH = st.sampled_from([0.25, 0.5, 1.0]), st.floats(-1.0, 1.0)
_ELEMENT = st.one_of(
    st.builds(Drift, length=_LENGTH),
    st.builds(Dipole, length=_LENGTH, b0=_STRENGTH),
    st.builds(NormalQuadDipole, length=_LENGTH, b0=_STRENGTH, b1=_STRENGTH),
    st.builds(SkewQuadDipole, length=_LENGTH, b0=_STRENGTH, b1=_STRENGTH),
    st.builds(ConstantE, length=_LENGTH, e2=_STRENGTH),
    st.builds(RFCavity, length=_LENGTH, e2_0=_STRENGTH, w_rf=st.floats(0.0, 3.0)),
)


def _shell_drift_bound(lattice, series, step):
    """gamma^2 (eps (n + 1) + n (h w)^5 + edges (h w)^2) for a run of n steps of h.

    eta(v, v) cancels terms of size gamma^2, so every term carries gamma^2,
    the run's largest v0: rounding per step, RK4's fifth-order local error
    inside an element, and the second-order error of a step whose stages
    straddle an edge, one per grid interval that crosses one.  w bounds the
    rates of the flow in proper time: the field strength, the betatron rate
    sqrt(|b1| gamma) and the RF phase rate w_rf gamma.
    """
    def largest(*names):
        return max(sum(abs(getattr(e, name, 0.0)) for name in names) for e in lattice.elements)

    gamma = float(np.max(series.v[:, 0]))
    rate = (largest("b0", "b1", "e2", "e2_0") + math.sqrt(largest("b1") * gamma)
            + largest("w_rf") * gamma)
    x2 = series.x[:, 2]
    edges = sum(np.count_nonzero((x2[:-1] < b) != (x2[1:] < b)) for b in lattice.inner_edges)
    n, hw = len(series) - 1, step * rate
    return gamma * gamma * (np.finfo(float).eps * (n + 1) + n * hw ** 5 + edges * hw ** 2)


@settings(max_examples=60, deadline=None)
@given(elements=st.lists(_ELEMENT, min_size=1, max_size=6),
       log_gamma=st.floats(0.02, 3.0),
       tilt=st.lists(st.floats(-0.01, 0.01), min_size=4, max_size=4),
       steps=st.integers(8, 200))
def test_shell_norm_drift_is_bounded_by_step_and_gamma(elements, log_gamma, tilt, steps):
    # random edged lattices crossed from a quarter of their length, gamma
    # up to 1e3; the averaged geodesic runs on the launch's point moments,
    # since a spread cloud's comoving slots move it off the shell by
    # physics, not by integration error
    lattice = Lattice.from_elements(elements)
    speed = math.sqrt(10.0 ** (2.0 * log_gamma) - 1.0)
    v0 = project_to_hyperboloid(speed * np.array([tilt[0], 1.0, tilt[1]]))
    x0 = np.array([0.0, tilt[2], 0.25 * lattice.total_length, tilt[3]])
    span = 0.5 * lattice.total_length / speed
    step = span / max(steps, math.ceil(4.0 * span / lattice.min_length()) + 1)
    launch, cfg = TrajectoryState(0.0, x0, v0), IntegratorConfig(step=step)
    try:
        runs = [integrate_lorentz(lattice, launch, span, cfg),
                _orbit(_rhs_force(lattice), launch, span, step),
                integrate_averaged_geodesic(lattice, delta_moments(v0), launch, span, cfg)]
    except OutOfLattice:  # an electric field turned the orbit back out of the line
        reject()
    for series in runs:
        assert series.norm_drift() <= _shell_drift_bound(lattice, series, step)


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


def test_comoving_moments_track_velocity(circle_lattice, circle_state, cfg_fine):
    ser = integrate_lorentz(circle_lattice, circle_state, 1.0, cfg_fine)
    mom = delta_moments(circle_state.v)
    along = comoving_moments_along(ser, mom)
    # zero deviations: first is the running velocity and no third deviation is kept
    assert along.D3 is None
    assert np.array_equal(along.first, ser.v)


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
    launch = TrajectoryState(0.0, np.zeros(4), v0)
    xi0 = np.array([0.0, 1e-3, 0.0, 2e-3])
    dxi0 = np.array([0.0, 5e-4, 0.0, -1e-4])
    jac = integrate_jacobi_full(
        lat, delta_moments(v0), launch, JacobiState(0.0, xi0, dxi0), 5.0, cfg_fine
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
        circle_lattice, mom, circle_state, JacobiState(0.0, xi0, dxi0), 1.0, cfg_fine
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


def test_jacobi_starts_at_its_launch(circle_lattice, circle_state, cfg_fine):
    mom = delta_moments(circle_state.v)
    init = JacobiState(0.5, np.array([0.0, 1e-3, 0.0, 0.0]), np.zeros(4))
    with pytest.raises(MismatchedSampling):
        integrate_jacobi_full(circle_lattice, mom, circle_state, init, 1.0, cfg_fine)
    late = TrajectoryState(0.5, circle_state.x, circle_state.v)
    jac = integrate_jacobi_full(circle_lattice, mom, late, init, 1.0, cfg_fine)
    assert jac.t[0] == 0.5 and len(jac) == 501
    # the launch alone fixes the reference: a shifted start changes no value
    base = integrate_jacobi_full(circle_lattice, mom, circle_state,
                                 JacobiState(0.0, init.xi, init.dxi), 0.5, cfg_fine)
    assert np.array_equal(jac.xi, base.xi) and np.array_equal(jac.dxi, base.dxi)


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
        circle_lattice, mom, st, JacobiState(0.0, np.zeros(4), np.zeros(4)), 1.0, cfg_fine
    )
    assert np.array_equal(jac.t, ref.t)
    assert not np.any(jac.xi) and not np.any(jac.dxi)  # zero deviation stays zero
    eps = comoving_moments_along(ref, mom).first - ref.v
    d1 = mom.first - v0
    assert np.any(d1)
    assert np.abs(eps - d1).max() <= 4e-16 * np.abs(ref.v).max()


def test_jacobi_linearized_mode_matches_full_for_delta(circle_lattice, circle_state, cfg_fine):
    mom = delta_moments(circle_state.v)
    init = JacobiState(0.0, np.array([0.0, 1e-3, 0.0, 0.0]), np.zeros(4))
    a = integrate_jacobi_full(circle_lattice, mom, circle_state, init, 1.0, cfg_fine,
                              mode="full")
    b = integrate_jacobi_full(circle_lattice, mom, circle_state, init, 1.0, cfg_fine,
                              mode="linearized")
    assert np.abs(a.xi - b.xi).max() < 1e-12


def test_jacobi_flags_velocity_coupling(circle_lattice, circle_state, cfg_fine):
    mom = delta_moments(circle_state.v)
    bad = integrate_jacobi_full(
        circle_lattice, mom, circle_state,
        JacobiState(0.0, np.zeros(4), circle_state.v * 1e-3), 1.0, cfg_fine,
    )
    assert not bad.decoupling_ok
    good = integrate_jacobi_full(
        circle_lattice, mom, circle_state,
        JacobiState(0.0, np.zeros(4), np.array([0.0, 0.0, 0.0, 1e-3])), 1.0, cfg_fine,
    )
    assert good.decoupling_ok


def test_jacobi_csv_round_trip(circle_lattice, circle_state, cfg_fine, tmp_path):
    mom = delta_moments(circle_state.v)
    jac = integrate_jacobi_full(
        circle_lattice, mom, circle_state,
        JacobiState(0.0, np.array([0.0, 1e-3, 0.0, 0.0]), np.zeros(4)), 0.2, cfg_fine,
    )
    p = tmp_path / "jac.csv"
    write_jacobi_csv(jac, p)
    back = read_jacobi_csv(p)
    assert np.array_equal(back.xi, jac.xi)
    assert np.array_equal(back.dxi, jac.dxi)


def test_csv_readers_check_their_header(circle_lattice, circle_state, tmp_path):
    ser = integrate_lorentz(circle_lattice, circle_state, 0.05, IntegratorConfig(step=1e-2))
    jac = integrate_jacobi_full(circle_lattice, delta_moments(circle_state.v), circle_state,
                                JacobiState(0.0, np.zeros(4), np.zeros(4)), 0.05,
                                IntegratorConfig(step=1e-2))
    traj, dev, off = tmp_path / "traj.csv", tmp_path / "jac.csv", tmp_path / "off.csv"
    write_trajectory_csv(ser, traj)
    write_jacobi_csv(jac, dev)
    off.write_text("t,off1,off3,avg1,avg3\n0.0,0.0,0.0,0.0,0.0\n")
    for read, wrong in ((read_trajectory_csv, dev), (read_trajectory_csv, off),
                        (read_jacobi_csv, traj), (read_jacobi_csv, off)):
        with pytest.raises(ParseError, match="expected header") as err:
            read(wrong)
        assert err.value.line == 1


_TRAJ_HEADER = "t,x0,x1,x2,x3,v0,v1,v2,v3"
_JAC_HEADER = "t,xi0,xi1,xi2,xi3,dxi0,dxi1,dxi2,dxi3"
_GOOD = "0.0,0.0,1e-3,0.5,0.0,1.0,0.0,0.0,0.0"


@pytest.mark.parametrize("read, header", [(read_trajectory_csv, _TRAJ_HEADER),
                                          (read_jacobi_csv, _JAC_HEADER)],
                         ids=["trajectory", "jacobi"])
@pytest.mark.parametrize("bad, reason", [
    ("0,1,2,3", "expected 9 comma-separated values, got 4"),
    ("0.1,0.0,1e-3,0.5,0.0,1.0,0.0,x,0.0", "non-numeric"),
    ("0.1,0.0,1e-3,0.5,0.0,1.0,0.0,inf,0.0", "non-finite"),
    ("0.1,0.0,1e-3,0.5,0.0,1.0,0.0,nan,0.0", "non-finite"),
], ids=["short-row", "non-numeric", "inf", "nan"])
def test_csv_readers_name_the_line_of_a_bad_row(tmp_path, read, header, bad, reason):
    p = tmp_path / "run.csv"
    p.write_text(f"{header}\n{_GOOD}\n\n{bad}\n{_GOOD}\n")
    with pytest.raises(ParseError, match=reason) as err:
        read(p)
    assert err.value.line == 4


@pytest.mark.filterwarnings("error")
def test_csv_readers_give_no_rows_for_a_header_only_file(tmp_path):
    traj, jac = tmp_path / "traj.csv", tmp_path / "jac.csv"
    traj.write_text(_TRAJ_HEADER + "\n")
    jac.write_text(_JAC_HEADER + "\n")
    ser, dev = read_trajectory_csv(traj), read_jacobi_csv(jac)
    assert (ser.t.shape, ser.x.shape, ser.v.shape) == ((0,), (0, 4), (0, 4))
    assert (dev.t.shape, dev.xi.shape, dev.dxi.shape) == ((0,), (0, 4), (0, 4))


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
    # b0 = 0 has no design radius: a pure quadrupole runs on K = (-b1, b1),
    # without the amplitude warning even at a large launch; an explicit radius still runs
    quad = NormalQuadDipole(length=1.0, b0=0.0, b1=0.8)
    both = JacobiState(0.0, np.array([0.0, 1e-3, 0.0, 1e-3]), np.zeros(4))
    run = integrate_transverse_linear(quad, None, both, 1.0, IntegratorConfig(step=1e-3))
    w = math.sqrt(0.8)
    assert np.abs(run.xi[:, 1] - 1e-3 * np.cosh(w * run.t)).max() <= 1e-17
    assert np.abs(run.xi[:, 3] - 1e-3 * np.cos(w * run.t)).max() <= 1e-17
    wide = JacobiState(0.0, np.array([0.0, 0.5, 0.0, 0.0]), np.zeros(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        integrate_transverse_linear(quad, None, wide, 1.0, IntegratorConfig(step=1e-3))
    integrate_transverse_linear(Dipole(length=2.0, b0=0.0), 1.0, init, 1.0, IntegratorConfig(step=1e-3))


def test_transverse_grid_must_end_inside_the_element():
    # l_end = 1.0 lies inside, but whole steps of 0.24 end the grid at 1.2
    init = JacobiState(0.0, np.array([0.0, 1e-3, 0.0, 0.0]), np.zeros(4))
    elem = Dipole(length=1.0, b0=1.0)
    with pytest.raises(OutOfLattice, match="1.2"):
        integrate_transverse_linear(elem, None, init, 1.0, IntegratorConfig(step=0.24))
    run = integrate_transverse_linear(elem, None, init, 1.0, IntegratorConfig(step=0.25))
    assert run.t[-1] == 1.0 and len(run) == 5


@pytest.mark.parametrize("K", [1.0, -1.0, 0.0], ids=["focusing", "defocusing", "drift"])
def test_hill_map_equals_hill_solver_on_constant_k(K):
    t = np.arange(2001) * 1e-3
    got = _hill_map(K, t)
    us, dus = reference_rk4(lambda k, theta, u, du: -K * u, [1.0, 0.0], [0.0, 1.0],
                            1e-3, len(t) - 1)
    C, Cp, S = got
    # S' is C: the solved dS is checked against the map's C row
    for mapped, solved in zip((C, Cp, S, C), (us[:, 0], dus[:, 0], us[:, 1], dus[:, 1])):
        assert np.abs(mapped - solved).max() < 1e-11  # RK4 error, h = 1e-3
    assert np.abs(C * C - Cp * S - 1.0).max() <= 1e-14


_HILL_K = st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
                    st.floats(-1e6, 1e6, allow_subnormal=False))


@settings(max_examples=100, deadline=None)
@given(ks=st.lists(_HILL_K, min_size=1, max_size=6), data=st.data())
def test_hill_map_of_a_k_array_is_the_float_calls(ks, data):
    # entries draw their K from a few values, so the sign classes interleave,
    # a K recurs and -0.0 sits next to 0.0; |K| up to 1e6 overflows cosh
    K = np.array(data.draw(st.lists(st.sampled_from(ks), min_size=1, max_size=30)))
    tau = np.array(data.draw(st.lists(st.floats(0.0, 3.0), min_size=len(K), max_size=len(K))))
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _hill_map(K, tau)
        for bits in np.unique(K.view(np.int64)):
            same = K.view(np.int64) == bits
            for got, want in zip(rows, _hill_map(float(K[same][0]), tau[same])):
                assert got[same].tobytes() == np.asarray(want, dtype=float).tobytes()
    assert np.isnan(np.array(rows)[:, ~np.isfinite(K)]).all()


def test_longitudinal_constant_field_closed_form():
    elem = ConstantE(length=20.0, e2=0.1)
    init = JacobiState(0.0, np.zeros(4), np.array([0.0, 0.0, 1e-3, 0.0]))
    run = integrate_longitudinal(elem, 1.0, init, 10.0, IntegratorConfig(step=1e-3))
    want = 1e-2 * (1.0 - np.exp(-0.1 * run.t))
    assert np.abs(run.xi[:, 2] - want).max() < 1e-12
    # temporal channel shares the acceleration but starts from zero slope
    assert np.abs(run.xi[:, 0] - (want - 1e-3 * run.t)).max() < 1e-12


@pytest.mark.parametrize("e2", [0.0, -0.0, 5e-324, -1e-310, 1e-300])
def test_longitudinal_constant_field_without_decay_drifts(e2):
    # e2 tau is 0 or subnormal here, yet the lag (1 - e^(-e2 tau))/e2 is tau
    init = JacobiState(0.0, np.array([1e-4, 0.0, 1e-3, 0.0]), np.array([2e-4, 0.0, 3e-3, 0.0]))
    run = integrate_longitudinal(ConstantE(length=20.0, e2=e2), 1.0, init, 1.0,
                                 IntegratorConfig(step=1e-2))
    drift = init.xi + run.t[:, None] * init.dxi
    assert np.abs(run.xi - drift).max() <= 1e-18
    assert np.array_equal(run.dxi, np.broadcast_to(init.dxi, run.dxi.shape))


def test_longitudinal_rf_exponential_growth():
    elem = RFCavity(length=20.0, e2_0=1.0, w_rf=3.0)
    gamma = 1.0
    xi0 = 1e-4
    init = JacobiState(0.0, np.array([0.0, 0.0, xi0, 0.0]), np.zeros(4))
    run = integrate_longitudinal(elem, gamma, init, 2.0, IntegratorConfig(step=1e-3))
    want = xi0 * np.cosh(np.sqrt(2.0) * run.t)
    assert np.abs(run.xi[:, 2] - want).max() < 1e-12
    assert np.abs(run.xi[:, 0] + (want - xi0)).max() < 1e-12


def test_longitudinal_refuses_a_gamma_series():
    # gamma is one Lorentz factor per run; a series on the run's own grid is not one
    init = JacobiState(0.0, np.array([0.0, 0.0, 1e-4, 0.0]), np.zeros(4))
    for elem in (RFCavity(length=20.0, e2_0=1.0, w_rf=3.0), ConstantE(length=20.0, e2=0.1)):
        with pytest.raises(TypeError):
            integrate_longitudinal(elem, np.full(101, 2.0), init, 1.0, IntegratorConfig(step=1e-2))


@pytest.mark.parametrize("elem", [RFCavity(length=2.0, e2_0=1.0, w_rf=3.0),
                                  ConstantE(length=2.0, e2=0.1)], ids=["rf", "const_e"])
@pytest.mark.parametrize("start, t_end, step", [
    (0.0, 30.0, 0.1),   # 28 m past the exit
    (0.0, 30.0, 1.0),   # past the exit with a step too large: the grid is named first
    (0.0, 2.0, 0.24),   # whole steps of 0.24 end the grid at 2.16 > 2
    (-0.5, 1.0, 0.1),   # starts before the entry
    (1.0, -1.0, 0.1),   # runs backwards out of the entry
], ids=["past-exit", "past-exit-coarse", "last-step-past-exit", "before-entry", "backwards"])
def test_longitudinal_grid_must_stay_inside_the_element(elem, start, t_end, step):
    init = JacobiState(start, np.array([0.0, 0.0, 1e-3, 0.0]), np.zeros(4))
    with pytest.raises(OutOfLattice, match=r"grid \[.*\] leaves element of length 2\.0"):
        integrate_longitudinal(elem, 1.0, init, t_end, IntegratorConfig(step=step))


def test_longitudinal_grid_may_end_at_the_exit():
    init = JacobiState(0.0, np.array([0.0, 0.0, 1e-3, 0.0]), np.zeros(4))
    elem = RFCavity(length=2.0, e2_0=1.0, w_rf=3.0)
    run = integrate_longitudinal(elem, 1.0, init, 2.0, IntegratorConfig(step=0.1))
    assert run.t[-1] == 2.0 and len(run) == 21
    run = integrate_longitudinal(elem, 1.0, init, 2.0, IntegratorConfig(step=0.5))
    assert run.t[-1] == 2.0 and len(run) == 5


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
    along = comoving_moments_along(ref, mom)
    _, defect = mean_field_defect(circle_lattice, along, ref)
    assert defect[2:-2].max() > 1e-3
