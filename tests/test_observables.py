"""Hill-equation machinery, dispersion, and ensemble offset observables."""

import os
import subprocess
import sys

import numpy as np
import pytest

import avgbeam

from avgbeam import (
    Dipole,
    IntegratorConfig,
    JacobiSeries,
    JacobiState,
    Lattice,
    MismatchedGrid,
    MomentsSeries,
    OffsetSeries,
    OutOfSpan,
    PrincipalSolutions,
    ResidualTooLarge,
    TrajectorySeries,
    TrajectoryState,
    WronskianDrift,
    averaged_offset,
    born_offset,
    comoving_moments_along,
    compute_moments,
    delta_moments,
    dispersion,
    gaussian_beam_family,
    green_function,
    integrate_averaged_geodesic,
    integrate_jacobi_full,
    inverse_rho_profile,
    mean_field_defect,
    momentum_spread,
    particular_solution,
    principal_solutions,
    project_to_hyperboloid,
    transverse_k_profile,
)
from avgbeam.observables import _cumtrapz

GAMMA = 100.0
SPEED = np.sqrt(GAMMA * GAMMA - 1.0)


def _grid(span, n):
    return np.linspace(0.0, span, n + 1)


def test_principal_solutions_constant_focusing():
    t = _grid(2.0 * np.pi, 4000)
    ps = principal_solutions(t, np.ones_like(t))
    assert np.abs(ps.C - np.cos(t)).max() < 1e-9
    assert np.abs(ps.S - np.sin(t)).max() < 1e-9
    assert np.abs(ps.Cp + np.sin(t)).max() < 1e-9
    assert ps.wronskian_drift() < 1e-9


def test_principal_solutions_defocusing_and_free():
    t = _grid(2.0, 2000)
    ps = principal_solutions(t, -np.ones_like(t))
    assert np.abs(ps.C - np.cosh(t)).max() < 1e-8
    assert np.abs(ps.S - np.sinh(t)).max() < 1e-8
    free = principal_solutions(t, np.zeros_like(t))
    assert np.abs(free.C - 1.0).max() < 1e-12
    assert np.abs(free.S - t).max() < 1e-12


def test_principal_solutions_input_guards():
    t = _grid(1.0, 100)
    with pytest.raises(MismatchedGrid):
        principal_solutions(t, np.ones(50))
    with pytest.raises(ValueError):
        principal_solutions(t, np.full_like(t, np.nan))
    ragged = t.copy()
    ragged[3] += 1e-3
    with pytest.raises(ValueError):
        principal_solutions(ragged, np.ones_like(t))


def test_principal_solutions_container_checks():
    t = _grid(1.0, 10)
    z = np.zeros_like(t)
    with pytest.raises(ValueError):
        # C(0) must be exactly 1
        PrincipalSolutions(t, z + 0.5, z, z + t, z + 1.0, z + 1.0)
    with pytest.raises(WronskianDrift):
        PrincipalSolutions(t, np.cos(2 * t), -2 * np.sin(2 * t), np.sin(t), np.cos(t), z + 1.0)


def test_wronskian_on_fodo_profile(fodo_lattice):
    grid, k = transverse_k_profile(fodo_lattice, "horizontal", 1e-3)
    ps = principal_solutions(grid, k)
    assert ps.wronskian_drift() < 1e-9


def test_green_function_is_shift_invariant_sine():
    t = _grid(np.pi, 2000)
    ps = principal_solutions(t, np.ones_like(t))
    # off-grid arguments go through linear interpolation, accurate to h^2
    for a, b in ((1.0, 0.25), (2.0, 1.5), (3.0, 3.0)):
        assert abs(green_function(ps, a, b) - np.sin(a - b)) < 1e-6
    # on grid nodes only the integrator error remains
    assert abs(green_function(ps, t[1400], t[300]) - np.sin(t[1400] - t[300])) < 1e-9
    with pytest.raises(OutOfSpan):
        green_function(ps, 4.0, 0.0)


def test_particular_solution_unit_drive():
    t = _grid(np.pi, 3000)
    ps = principal_solutions(t, np.ones_like(t))
    P = particular_solution(ps, np.ones_like(t))
    assert np.abs(P - (1.0 - np.cos(t))).max() < 1e-6


def test_particular_solution_resonant_drive():
    # x'' + x = cos t has the secular solution t sin(t) / 2
    t = _grid(np.pi, 3000)
    ps = principal_solutions(t, np.ones_like(t))
    P = particular_solution(ps, np.cos(t))
    assert np.abs(P - 0.5 * t * np.sin(t)).max() < 1e-6


def test_particular_solution_rejects_rough_drive():
    t = _grid(np.pi, 400)
    ps = principal_solutions(t, np.ones_like(t))
    noisy = np.ones_like(t)
    noisy[::2] += 0.5  # alternating drive the quadrature cannot represent
    with pytest.raises(ResidualTooLarge):
        particular_solution(ps, noisy)


def test_dispersion_constant_dipole():
    lat = Lattice.from_elements([Dipole(length=6.4, b0=1.0)])
    grid, k = transverse_k_profile(lat, "horizontal", 1e-3)
    _, inv = inverse_rho_profile(lat, 1e-3)
    ps = principal_solutions(grid, k)
    res = dispersion(ps, inv, delta=1e-3)
    assert np.abs(res.D - (1.0 - np.cos(grid))).max() < 1e-6
    assert np.array_equal(res.offset, 1e-3 * res.D)
    # a straight line carries zero curvature and disperses nothing
    assert not dispersion(ps, np.zeros_like(inv), delta=1e-3).D.any()
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            dispersion(ps, np.full_like(inv, bad), delta=1e-3)
    with pytest.raises(ValueError, match="momentum spread must be nonnegative"):
        dispersion(ps, inv, delta=-1e-3)


def test_momentum_spread_frozen():
    from avgbeam import JacobiSeries

    t = np.array([0.0, 1.0])
    xi = np.array([[0.0, 0.3, 0.0, 0.4], [0.0, 0.6, 0.0, 0.8]])
    run = JacobiSeries(t=t, xi=xi, dxi=np.zeros_like(xi))
    assert momentum_spread(run) == 1.0
    assert momentum_spread(run, p0=2.0) == 0.5


def test_offset_series_requires_shared_grid():
    t = np.linspace(0.0, 1.0, 11)
    z = np.zeros(11)
    with pytest.raises(MismatchedGrid):
        OffsetSeries(t, z, z, z[:-1], z)


def test_series_consumers_share_one_grid_check(circle_lattice, circle_state, cfg_fine):
    mom = delta_moments(circle_state.v)
    ref = integrate_averaged_geodesic(circle_lattice, mom, circle_state, 0.1, cfg_fine)
    along = comoving_moments_along(ref, mom)
    xi_run = integrate_jacobi_full(circle_lattice, mom, circle_state,
                                   JacobiState(0.0, np.zeros(4), np.zeros(4)), 0.1, cfg_fine)

    def consumers(t_ref, t_series):
        r = TrajectorySeries(t_ref, ref.x, ref.v)
        a = MomentsSeries(t_series, along.first, along.third)
        d = JacobiSeries(t_series, xi_run.xi, xi_run.dxi)
        return (lambda: averaged_offset(circle_lattice, r, a),
                lambda: born_offset(circle_lattice, r, a, d),
                lambda: mean_field_defect(circle_lattice, a, r))

    for run in consumers(ref.t, ref.t + 1e-3):
        with pytest.raises(MismatchedGrid):
            run()
    bent = ref.t.copy()
    bent[50] += 2e-4  # one point off the uniform grid, shared by every series
    for run in consumers(bent, bent):
        with pytest.raises(ValueError, match="grid must be uniform"):
            run()


def _dipole_reference(alpha, span, n=2000, seed=11, step=1e-3):
    lat = Lattice.from_elements([Dipole(length=25.0, b0=0.05)])
    fam = gaussian_beam_family(np.array([0.0, SPEED, 0.0]), n=n, seed=seed)
    mom = compute_moments(fam(alpha))
    v0 = project_to_hyperboloid(mom.first[1:4])
    ref = integrate_averaged_geodesic(
        lat, mom, TrajectoryState(0.0, np.zeros(4), v0), span, IntegratorConfig(step=step)
    )
    along = comoving_moments_along(ref, mom)
    return lat, mom, ref, along


def test_averaged_offset_vanishes_for_delta(circle_lattice, circle_state, cfg_fine):
    mom = delta_moments(circle_state.v)
    ref = integrate_averaged_geodesic(circle_lattice, mom, circle_state, 1.0, cfg_fine)
    along = comoving_moments_along(ref, mom)
    off = averaged_offset(circle_lattice, ref, along)
    assert np.abs(off.avg1).max() < 1e-12
    assert np.abs(off.avg3).max() < 1e-12


def test_averaged_offset_scales_quadratically_in_spread():
    ends = {}
    for alpha in (0.02, 0.01):
        lat, mom, ref, along = _dipole_reference(alpha, span=10.0 / SPEED, n=4000)
        off = averaged_offset(lat, ref, along)
        ends[alpha] = abs(off.avg1[-1])
    assert 3.0 < ends[0.02] / ends[0.01] < 5.0


def test_born_offset_with_zero_deviation_matches_averaged():
    lat, mom, ref, along = _dipole_reference(0.02, span=10.0 / SPEED)
    zero = integrate_jacobi_full(lat, mom, ref.state(0),
                                 JacobiState(0.0, np.zeros(4), np.zeros(4)), ref.final.t,
                                 IntegratorConfig(step=1e-3))
    born = born_offset(lat, ref, along, zero)
    avg = averaged_offset(lat, ref, along)
    assert np.array_equal(born.avg1, avg.avg1)
    assert np.abs(born.off1 - avg.avg1).max() < 1e-12


def test_born_offset_antisymmetric_pair_averages_out():
    lat, mom, ref, along = _dipole_reference(0.02, span=10.0 / SPEED)
    cfg = IntegratorConfig(step=1e-3)
    xi0 = np.array([0.0, 1e-3, 0.0, 5e-4])
    dxi0 = np.array([0.0, 2e-4, -1e-4, 3e-4])
    launch, t_end = ref.state(0), ref.final.t
    up = integrate_jacobi_full(lat, mom, launch, JacobiState(0.0, xi0, dxi0), t_end, cfg)
    dn = integrate_jacobi_full(lat, mom, launch, JacobiState(0.0, -xi0, -dxi0), t_end, cfg)
    avg = averaged_offset(lat, ref, along)
    both = 0.5 * (born_offset(lat, ref, along, up).off1 + born_offset(lat, ref, along, dn).off1)
    assert np.abs(both - avg.avg1).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 101])
def test_cumtrapz_matches_running_trapezoid_sum(n):
    y = np.random.default_rng(n).normal(size=(n, 4))[:, 1]  # a strided column
    expect = [0.0]
    for k in range(1, n):
        expect.append(expect[-1] + 0.01 * (y[k] + y[k - 1]) / 2.0)
    assert np.array_equal(_cumtrapz(y, 0.01), expect)


def test_import_does_not_load_scipy():
    # scipy would be most of the package's import time
    src = os.path.dirname(os.path.dirname(avgbeam.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, avgbeam; print('scipy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
