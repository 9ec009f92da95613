"""Independent-check machinery: ensemble tracking, scaling scans, reports."""

import json

import numpy as np
import pytest

from avgbeam import (
    BeamEnsemble,
    DegenerateFit,
    Dipole,
    IntegratorConfig,
    InvalidCount,
    JacobiState,
    Lattice,
    LinearizationReport,
    OutOfSpan,
    ScalingReport,
    TrajectoryState,
    delta_moments,
    endpoint_deviation,
    ensemble_track,
    gaussian_beam_family,
    integrate_lorentz,
    jacobi_vs_two_geodesics,
    position_at_lab_time,
    theorem1_scan,
    validate_field_gradients,
)
from avgbeam import ConstantE, NormalQuadDipole, RFCavity

SQRT2 = np.sqrt(2.0)


def test_scaling_report_validation_and_json_round_trip(tmp_path):
    rep = ScalingReport(
        alphas=[0.02, 0.01, 0.005],
        deviations=[4.0e-4, 1.0e-4, 2.6e-5],
        fitted_exponent=1.97,
        fitted_prefactor=0.9,
    )
    p = tmp_path / "scan.json"
    p.write_text(rep.to_json())
    back = ScalingReport.from_json(p.read_text())
    assert back.alphas == rep.alphas
    assert back.fitted_exponent == rep.fitted_exponent
    data = json.loads(rep.to_json())
    assert set(data) >= {"alphas", "deviations", "fitted_exponent", "fitted_prefactor"}
    with pytest.raises(ValueError):
        ScalingReport([0.01, 0.02], [1.0, 2.0], 2.0, 1.0)  # not decreasing
    with pytest.raises(ValueError):
        ScalingReport([0.02, 0.01], [1.0, -2.0], 2.0, 1.0)


def test_linearization_report_holds_fit():
    rep = LinearizationReport(scales=[1e-3, 5e-4], errors=[4e-8, 1e-8], fitted_order=2.0)
    assert rep.fitted_order == 2.0


def test_ensemble_mean_of_identical_samples_is_the_geodesic(
    circle_lattice, circle_state, cfg_fine
):
    ens = BeamEnsemble(np.tile(circle_state.v, (8, 1)))
    res = ensemble_track(circle_lattice, ens, circle_state.x, 1.0, cfg_fine)
    single = integrate_lorentz(circle_lattice, circle_state, 1.0, cfg_fine)
    assert np.array_equal(res.mean.x, single.x)
    assert np.array_equal(res.mean.v, single.v)


def test_position_at_lab_time_interpolates(circle_lattice, circle_state, cfg_fine):
    ser = integrate_lorentz(circle_lattice, circle_state, 1.5, cfg_fine)
    T = SQRT2 * 1.0  # lab clock runs at dX0/dtau = sqrt(2), so tau = 1 here
    pos = position_at_lab_time(ser, T)  # spatial 3-vector
    assert abs(pos[0] - (np.cos(1.0) - 1.0)) < 1e-10
    assert abs(pos[1] - (1.2 + np.sin(1.0))) < 1e-10
    assert pos[2] == 0.0
    with pytest.raises(OutOfSpan):
        position_at_lab_time(ser, ser.x[-1, 0] + 1.0)


def test_endpoint_deviation_modes(circle_lattice, circle_state, cfg_fine):
    a = integrate_lorentz(circle_lattice, circle_state, 1.0, cfg_fine)
    b = integrate_lorentz(
        circle_lattice,
        TrajectoryState(0.0, circle_state.x + [0.0, 1e-4, 0.0, 0.0], circle_state.v),
        1.0,
        cfg_fine,
    )
    dev_lab = endpoint_deviation(a, b, comparison="lab-time")
    dev_tau = endpoint_deviation(a, b, comparison="proper-time")
    assert 0.0 < dev_lab < 1e-3
    assert 0.0 < dev_tau < 1e-3
    with pytest.raises(ValueError):
        endpoint_deviation(a, b, comparison="affine")


def test_beam_family_reproducible_and_centered():
    fam = gaussian_beam_family(np.array([0.0, 50.0, 0.0]), n=600, seed=5)
    a, b = fam(0.08), fam(0.08)
    assert np.array_equal(a.ys, b.ys)
    # draws are recentered so the empirical spatial mean hits the target
    assert np.abs(a.ys[:, 1:].mean(axis=0) - [0.0, 50.0, 0.0]).max() < 1e-12
    c = fam(0.04)
    assert not np.array_equal(a.ys, c.ys)
    with pytest.raises(ValueError):
        fam(0.0)
    with pytest.raises(ValueError):
        fam(0.3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [0, -5, 2.5])
def test_beam_family_rejects_a_bad_count_before_drawing(n):
    with pytest.raises(InvalidCount):
        gaussian_beam_family(np.array([0.0, 10.0, 0.0]), n=n, seed=1)


def test_scan_needs_three_decreasing_spreads():
    lat = Lattice.from_elements([Dipole(length=25.0, b0=0.05)])
    fam = gaussian_beam_family(np.array([0.0, 10.0, 0.0]), n=50, seed=1)
    with pytest.raises(DegenerateFit):
        theorem1_scan(lat, fam, [0.02, 0.01], 1.0, IntegratorConfig(step=1e-3))


def test_jacobi_linearization_order_quarters(circle_lattice, circle_state, cfg_fine):
    mom = delta_moments(circle_state.v)
    xi0 = JacobiState(
        0.0, np.array([0.0, 1.0, 0.0, 0.5]), np.array([0.0, 0.2, -0.1, 0.3])
    )
    rep = jacobi_vs_two_geodesics(
        circle_lattice, mom, circle_state, xi0, 1.0, [4e-4, 2e-4, 1e-4], cfg_fine
    )
    assert 1.7 < rep.fitted_order < 2.3
    assert rep.errors[0] > rep.errors[-1]


@pytest.mark.parametrize("step", [0.0, -1e-5, float("nan")])
def test_field_gradient_validation_needs_a_positive_step(step):
    # at step 0 every difference is 0/0, which must not read as a pass
    lat = Lattice.from_elements([Dipole(length=2.0, b0=1.0)])
    with pytest.raises(ValueError, match="step"):
        validate_field_gradients(lat, [np.array([0.0, 0.01, 1.0, -0.02])], step=step)


def test_field_gradient_validation_windows():
    probes = []
    for x2 in (0.5, 1.5):
        probes.append(np.array([0.0, 0.01, x2, -0.02]))
    lat_d = Lattice.from_elements([Dipole(length=2.0, b0=1.0)])
    assert validate_field_gradients(lat_d, probes) == 0.0
    lat_q = Lattice.from_elements([NormalQuadDipole(length=2.0, b0=0.5, b1=2.0)])
    assert validate_field_gradients(lat_q, probes) < 1e-10
    lat_rf = Lattice.from_elements([RFCavity(length=2.0, e2_0=0.05, w_rf=3.0)])
    assert validate_field_gradients(lat_rf, probes) < 1e-6
    lat_e = Lattice.from_elements([ConstantE(length=2.0, e2=0.1)])
    assert validate_field_gradients(lat_e, probes) == 0.0
