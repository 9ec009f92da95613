"""Independent-check machinery: ensemble tracking, scaling scans, reports."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avgbeam import (
    BeamEnsemble,
    DegenerateFit,
    Dipole,
    Drift,
    IntegratorConfig,
    InvalidCount,
    JacobiState,
    Lattice,
    LinearizationReport,
    OutOfLattice,
    OutOfSpan,
    ScalingReport,
    TrajectoryState,
    compute_moments,
    delta_moments,
    endpoint_deviation,
    ensemble_track,
    gaussian_beam_family,
    integrate_averaged_geodesic,
    integrate_lorentz,
    jacobi_vs_two_geodesics,
    position_at_lab_time,
    project_to_hyperboloid,
    theorem1_scan,
    validate_field_gradients,
)
from avgbeam import ConstantE, NormalQuadDipole, RFCavity, SkewQuadDipole
from avgbeam import oracle

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


@pytest.mark.parametrize("s", [0.0, -1.0, math.nan])
def test_scan_needs_a_positive_path_length(s):
    def family(alpha):
        raise AssertionError("drew a cloud for a path length the scan rejects")

    lat = Lattice.from_elements([Dipole(length=25.0, b0=0.05)])
    with pytest.raises(ValueError, match="path length"):
        theorem1_scan(lat, family, [0.02, 0.01, 0.005], s, IntegratorConfig(step=1e-3))


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


# ---------------------------------------------------------------------------
# clouds tracked as one batch

def reference_theorem1_scan(lattice, beam_family, alphas, s, config):
    """theorem1_scan as one loop over alpha, each cloud tracked on its own."""
    deviations = []
    for alpha in alphas:
        ens = beam_family(alpha)
        moments = compute_moments(ens)
        u_c = project_to_hyperboloid(moments.first[1:4])
        t_end = s / math.sqrt(u_c[1] ** 2 + u_c[2] ** 2 + u_c[3] ** 2)
        x0 = np.zeros(4)
        avg = integrate_averaged_geodesic(
            lattice, moments, TrajectoryState(t=0.0, x=x0, v=u_c), t_end, config)
        track = ensemble_track(lattice, ens, x0, t_end, config)
        deviations.append(endpoint_deviation(avg, track.mean))
    slope, intercept = np.polyfit(np.log(alphas), np.log(deviations), 1)
    return ScalingReport(alphas=list(alphas), deviations=deviations,
                         fitted_exponent=float(slope), fitted_prefactor=float(math.exp(intercept)))


def _edged_line():
    cell = [NormalQuadDipole(length=0.5, b0=0.2, b1=1.5), Drift(length=0.5),
            NormalQuadDipole(length=0.5, b0=0.2, b1=-1.5), Drift(length=0.5)]
    return Lattice.from_elements(cell * 2)


# (lattice, launch event, span, step): every cloud stays on one dipole, or
# crosses the edge at x2 = 0.5 of the line, or the edges of a line holding
# every element kind, at step counts that differ by sample
_BATCH_CASES = {
    "dipole": (Lattice.from_elements([Dipole(length=2.0, b0=0.5)]),
               np.array([0.0, 0.0, 0.5, 0.0]), 0.4, 0.04),
    "edged-line": (_edged_line(), np.array([0.0, 0.0, 0.45, 0.0]), 0.2, 0.02),
    "every-kind": (Lattice.from_elements([
        SkewQuadDipole(length=0.1, b0=0.5, b1=1.5), RFCavity(length=0.1, e2_0=0.5, w_rf=3.0),
        ConstantE(length=0.1, e2=0.3), Dipole(length=0.1, b0=0.5),
        NormalQuadDipole(length=0.1, b0=0.5, b1=-1.5), Drift(length=0.1)]),
        np.array([0.0, 2e-3, 0.05, -1e-3]), 0.3, 0.02),
}


@st.composite
def _equal_clouds(draw):
    """1-4 clouds of one size (1-40 samples) about spatial velocity (0, 1, 0)."""
    g, m = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    spread = st.floats(-0.2, 0.2)
    clouds = []
    for _ in range(g):
        spatial = np.reshape(draw(st.lists(spread, min_size=3 * m, max_size=3 * m)), (m, 3))
        ws = draw(st.lists(st.floats(0.0, 4.0), min_size=m, max_size=m).filter(
            lambda w: sum(w) > 0.0))
        clouds.append(BeamEnsemble(project_to_hyperboloid(spatial + [0.0, 1.0, 0.0]), ws))
    return clouds


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy overflow, divide, invalid
@pytest.mark.parametrize("case", sorted(_BATCH_CASES))
@settings(max_examples=40, deadline=None)
@given(clouds=_equal_clouds())
def test_batched_cloud_means_equal_separate_runs(case, clouds):
    lattice, x0, span, step = _BATCH_CASES[case]
    cfg = IntegratorConfig(step=step)
    batch = oracle._track_means(lattice, clouds, x0, span, cfg)
    assert len(batch) == len(clouds)
    for ens, mean in zip(clouds, batch):
        alone = ensemble_track(lattice, ens, x0, span, cfg).mean
        assert np.array_equal(mean.t, alone.t)
        assert _same_bits(mean.x, alone.x) and _same_bits(mean.v, alone.v)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy overflow, divide, invalid
@pytest.mark.parametrize("case", sorted(_BATCH_CASES))
@settings(max_examples=20, deadline=None)
@given(spatial=st.lists(st.floats(-0.2, 0.2), min_size=3, max_size=3),
       clouds=_equal_clouds())
def test_batched_delta_cloud_is_the_single_particle_run(case, spatial, clouds):
    # criterion 05 under batching: a point bunch next to a spread one
    lattice, x0, span, step = _BATCH_CASES[case]
    cfg = IntegratorConfig(step=step)
    v = project_to_hyperboloid(np.add(spatial, [0.0, 1.0, 0.0]))
    spread = clouds[0]
    point = BeamEnsemble(np.tile(v, (len(spread), 1)), spread.ws)
    mean = oracle._track_means(lattice, [point, spread], x0, span, cfg)[0]
    single = integrate_lorentz(lattice, TrajectoryState(0.0, x0, v), span, cfg)
    assert np.array_equal(mean.x, single.x) and np.array_equal(mean.v, single.v)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy overflow, divide, invalid
@pytest.mark.parametrize("case", sorted(_BATCH_CASES))
@settings(max_examples=30, deadline=None)
@given(clouds=_equal_clouds(), data=st.data())
def test_lab_time_means_keep_the_bits_of_ensemble_track(case, clouds, data):
    lattice, x0, span, step = _BATCH_CASES[case]
    cfg = IntegratorConfig(step=step)
    full = [ensemble_track(lattice, ens, x0, span, cfg).mean for ens in clouds]
    n = len(full[0].t) - 1
    # the first cloud compares mid-run, so its pair lies before row n - 1;
    # the others anywhere in the run or at its end
    lab_times = [float(full[0].x[n // 2, 0])] + [
        data.draw(st.one_of(st.floats(0.0, float(f.x[-1, 0])), st.just(float(f.x[-1, 0]))))
        for f in full[1:]]
    kept = oracle._track_means(lattice, clouds, x0, span, cfg, lab_times)

    need = {n - 1, n}
    for T, f in zip(lab_times, full):
        x0s = f.x[:, 0]
        need |= {i for j in range(n) if x0s[j] <= T < x0s[j + 1] for i in (j, j + 1)}
    assert min(need) < n - 1
    for f, mean in zip(full, kept):
        assert np.array_equal(mean.t, f.t) and _same_bits(mean.x0, f.x[:, 0])
        assert set(mean.rows) == need
        for j, row in mean.rows.items():
            assert _same_bits(row, np.concatenate([f.x[j], f.v[j]]))
        # a comparison gets the full run's bits where its rows were kept, else an error
        for T in [T for T in lab_times if T <= f.x[-1, 0]] + f.x[:, 0].tolist():
            k = oracle._bracketing_step(f.x[:, 0], T)
            if {k, k + 1} <= need:
                assert _same_bits(mean.position_at(T), position_at_lab_time(f, T))
            else:
                with pytest.raises(ValueError, match="not reduced"):
                    mean.position_at(T)


def _uneven_family(alpha):
    """Clouds whose mean speed (so their step count) and size depend on alpha."""
    speed, n = {0.02: (1.0, 30), 0.01: (1.0, 30), 0.005: (1.5, 20), 0.0025: (1.0, 20)}[alpha]
    rng = np.random.default_rng([7, int(alpha * 1e6)])
    draws = alpha * rng.standard_normal((n, 3))
    draws += [0.0, speed, 0.0] - draws.mean(axis=0)
    return BeamEnsemble(project_to_hyperboloid(draws), rng.uniform(0.5, 1.5, n))


@pytest.mark.filterwarnings("error")
def test_scan_groups_clouds_by_step_count_and_size(monkeypatch):
    lattice, cfg = _edged_line(), IntegratorConfig(step=0.01)
    alphas = [0.02, 0.01, 0.005, 0.0025]
    want = reference_theorem1_scan(lattice, _uneven_family, alphas, 0.505, cfg)

    groups = []
    track = oracle._track_means

    def spy(lattice, ensembles, x0, t_end, config, lab_times=None):
        means = track(lattice, ensembles, x0, t_end, config, lab_times)
        groups.append((len(means[0].t) - 1, [len(e.ys) for e in ensembles]))
        return means

    monkeypatch.setattr(oracle, "_track_means", spy)
    got = theorem1_scan(lattice, _uneven_family, alphas, 0.505, cfg)
    assert got == want and got.to_json() == want.to_json()
    # 0.505 m at speed 1 takes 51 steps, at speed 1.5 34
    assert sorted(groups) == [(34, [20]), (51, [20]), (51, [30, 30])]


def _leaving_family(alpha):
    """Ten samples at spatial speed about 0.85; the 0.01 cloud has one running backwards."""
    rng = np.random.default_rng([3, int(alpha * 1e6)])
    draws = alpha * rng.standard_normal((10, 3))
    draws += [0.0, 0.85, 0.0] - draws.mean(axis=0)
    if alpha == 0.01:
        draws[:9, 1] = 1.0
        draws[9] = [0.0, -0.5, 0.0]
    return BeamEnsemble(project_to_hyperboloid(draws))


@pytest.mark.filterwarnings("error")
def test_scan_with_a_cloud_that_leaves_the_lattice_raises():
    lattice, cfg = Lattice.from_elements([Drift(length=1.0)]), IntegratorConfig(step=0.01)
    alphas = [0.02, 0.01, 0.005]
    for scan in (reference_theorem1_scan, theorem1_scan):
        with pytest.raises(OutOfLattice):
            scan(lattice, _leaving_family, alphas, 0.5, cfg)
