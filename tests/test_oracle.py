"""Independent-check machinery: ensemble tracking, scaling scans, reports."""

import json
import math
from unittest import mock

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
    UnsupportedElement,
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
    # NaN passes both order checks, so non-finite values are refused on their own
    for bad in ([[0.02, math.nan, 0.005], [1.0, 1.0, 1.0], 2.0, 1.0],
                [[0.02, 0.01, 0.005], [math.nan, 1.0, 1.0], 2.0, 1.0],
                [[0.02, 0.01, 0.005], [1.0, math.inf, 1.0], 2.0, 1.0],
                [[0.02, 0.01, 0.005], [1.0, 1.0, 1.0], math.nan, 1.0],
                [[0.02, 0.01, 0.005], [1.0, 1.0, 1.0], 2.0, math.inf]):
        with pytest.raises(ValueError, match="finite"):
            ScalingReport(*bad)
    with pytest.raises(ValueError, match="finite"):
        ScalingReport([0.02, math.nan, 0.005], [math.nan, 1.0, 1.0], 2.0, 1.0)
    text = ('{"alphas": [0.02, 0.01, 0.005], "deviations": [NaN, 1e-4, 2.6e-5], '
            '"fitted_exponent": NaN, "fitted_prefactor": 0.9}')
    with pytest.raises(ValueError, match="finite"):
        ScalingReport.from_json(text)


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
    dev_lab = endpoint_deviation(a, b)
    # in the uniform dipole the shifted run keeps the reference's lab time, so
    # the lab-time comparison is the distance at the final proper time
    dev_tau = float(np.linalg.norm(a.x[-1, 1:4] - b.x[-1, 1:4]))
    assert 0.0 < dev_lab < 1e-3
    assert 0.0 < dev_tau < 1e-3
    assert dev_lab == pytest.approx(dev_tau, rel=1e-9)


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


# ---------------------------------------------------------------------------
# exact flow in one uniform element

_UNIFORM = [Drift(length=1.0), Dipole(length=1.0, b0=0.6), Dipole(length=1.0, b0=-1.7e3),
            ConstantE(length=1.0, e2=0.3), ConstantE(length=1.0, e2=-2.5e-4)]


def _flow(element, x, v, tau):
    return oracle.uniform_flow(oracle._uniform_field(element), x, v, tau)


@pytest.mark.parametrize("element", _UNIFORM, ids=lambda e: e.kind)
def test_uniform_generator_obeys_its_cayley_hamilton_identity(element):
    F = oracle._uniform_field(element)
    A = np.zeros((4, 4))
    for i, j, f in F:
        A[i, j] = -f
    w2 = oracle._squared_rate(F)
    assert w2 == -0.5 * np.trace(A @ A)
    assert np.array_equal(A @ A @ A + w2 * A, np.zeros((4, 4)))


def test_uniform_flow_is_the_limit_of_integrate_lorentz_in_a_dipole():
    # RK4 is fourth order inside one element: each halving of h cuts the
    # endpoint error 16-fold (measured 15.98-15.99 here)
    element = Dipole(length=3.0, b0=0.6)
    lattice = Lattice.from_elements([element])
    x0, v0 = [0.0, 0.0, 0.05, 0.0], [SQRT2, 0.0, 1.0, 0.0]
    x, v = _flow(element, x0, v0, 2.0)
    errors = []
    for h in (0.04, 0.02, 0.01, 0.005):
        run = integrate_lorentz(lattice, TrajectoryState(0.0, np.array(x0), np.array(v0)),
                                2.0, IntegratorConfig(step=h))
        assert run.t[-1] == 2.0
        errors.append(max(np.abs(run.x[-1] - x).max(), np.abs(run.v[-1] - v).max()))
    assert all(a / b >= 15.0 for a, b in zip(errors, errors[1:])), errors


@pytest.mark.parametrize("element", [Drift(length=5.0), Dipole(length=5.0, b0=0.0),
                                     ConstantE(length=5.0, e2=-0.3),
                                     ConstantE(length=5.0, e2=0.2)],
                         ids=["drift", "zero-dipole", "const_e-accelerating",
                              "const_e-decelerating"])
def test_uniform_flow_matches_fine_steps_on_the_zero_and_hyperbolic_branches(element):
    lattice = Lattice.from_elements([element])
    x0, v0 = [0.3, 0.01, 0.05, -0.02], project_to_hyperboloid([0.1, 1.0, -0.05])
    x, v = _flow(element, x0, v0.tolist(), 1.5)
    run = integrate_lorentz(lattice, TrajectoryState(0.0, np.array(x0), v0), 1.5,
                            IntegratorConfig(step=1e-3))
    assert np.abs(run.x[-1] - x).max() <= 1e-13
    assert np.abs(run.v[-1] - v).max() <= 1e-13


@pytest.mark.parametrize("element", _UNIFORM, ids=lambda e: e.kind)
def test_uniform_flow_on_columns_keeps_the_bits_of_floats(element):
    vs = project_to_hyperboloid([[0.1, 1.0, -0.05], [0.2, 0.5, 0.3], [0.0, 2.0, 0.0]])
    x0 = [0.3, 0.01, 0.05, -0.02]
    cx, cv = _flow(element, x0, list(vs.T), 0.7)
    for i, v in enumerate(vs):
        fx, fv = _flow(element, x0, v.tolist(), 0.7)
        assert _same_bits(np.array([c[i] for c in cx]), np.array(fx))
        assert _same_bits(np.array([c[i] for c in cv]), np.array(fv))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("element", _UNIFORM, ids=lambda e: e.kind)
def test_uniform_flow_at_zero_proper_time_is_the_launch(element):
    x0, v0 = [0.3, 0.01, 0.05, -0.02], [SQRT2, 0.0, 1.0, 0.0]
    assert _flow(element, x0, v0, 0.0) == (x0, v0)


@pytest.mark.parametrize("element", [NormalQuadDipole(length=1.0, b0=0.1, b1=0.0),
                                     SkewQuadDipole(length=1.0, b0=0.1, b1=0.5),
                                     RFCavity(length=1.0, e2_0=0.5, w_rf=3.0)],
                         ids=lambda e: e.kind)
def test_uniform_field_rejects_an_element_with_a_gradient(element):
    with pytest.raises(UnsupportedElement, match=element.kind):
        oracle._uniform_field(element)


# ---------------------------------------------------------------------------
# the scan's route: exact flow or tracked cloud

_EPS = np.finfo(float).eps


def _takes_flow(u, w, n_steps, h):
    """The truncation gate of _flow_mean for a run of n_steps steps of h."""
    tau = n_steps * h
    return oracle._rk4_truncation(u, w, tau, h) <= n_steps * _EPS * u * tau


@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy overflow, divide, invalid
@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(0.01, 0.2), gamma=st.floats(1.1, 100.0), n=st.integers(3, 40),
       steps=st.integers(10, 60), log_b0=st.floats(-6.0, 0.0), bend=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_exact_clouds_match_the_tracked_reference(alpha, gamma, n, steps, log_b0, bend, seed):
    # bends from 1e-6 to 1 put the truncation gate on both sides; a cloud
    # read off the flow matches the tracked one within twice the h^4 error
    # of the geodesic plus a rounding floor (the measured differences came
    # to at most 0.95 of that sum), and a tracked one matches bit for bit
    u, s, b0 = math.sqrt(gamma * gamma - 1.0), 0.5, 10.0 ** log_b0
    element = Dipole(length=2.0 * s, b0=b0) if bend else Drift(length=2.0 * s)
    lattice = Lattice.from_elements([element])
    family = gaussian_beam_family([0.0, u, 0.0], n, seed)
    alphas, cfg = [alpha, alpha / 2.0, alpha / 4.0], IntegratorConfig(step=s / u / steps)
    with mock.patch.object(oracle, "_track_means", wraps=oracle._track_means) as spy:
        got = theorem1_scan(lattice, family, alphas, s, cfg)
    want = reference_theorem1_scan(lattice, family, alphas, s, cfg)
    w, tau = (b0 if bend else 0.0), steps * cfg.step
    if _takes_flow(u, w, steps, cfg.step):
        spy.assert_not_called()  # every cloud stays inside its element
        bound = 2.0 * (oracle._rk4_truncation(u, w, tau, cfg.step) + steps * _EPS * s)
        assert all(abs(a - b) <= bound for a, b in zip(got.deviations, want.deviations)), (
            got.deviations, want.deviations, bound)
    else:
        assert spy.call_count == 1
        assert got == want


def _converged_gaps(lattice, family, alphas, s, step):
    """|deviation - converged deviation| of the scan and of the tracked reference at step.

    The converged deviations come from the reference at step / 8; step
    divides the run, so both grids end at the same proper time.
    """
    converged = reference_theorem1_scan(lattice, family, alphas, s, IntegratorConfig(step / 8))
    return [[abs(a - b) for a, b in zip(scan(lattice, family, alphas, s,
                                              IntegratorConfig(step)).deviations,
                                         converged.deviations)]
            for scan in (theorem1_scan, reference_theorem1_scan)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_scan_is_as_close_to_converged_as_the_tracked_reference_at_high_gamma():
    # gamma 93, b0 0.84, 14 steps: the geodesic's RK4 error (about 7e-12)
    # cancels against the tracked cloud's but not against the exact one,
    # so there the exact flow lands up to 6 % of a deviation off the
    # converged value while the tracked reference stays within 1e-5 of it
    u, s = math.sqrt(93.0 ** 2 - 1.0), 0.5
    lattice = Lattice.from_elements([Dipole(length=1.0, b0=0.84)])
    family = gaussian_beam_family([0.0, u, 0.0], 20, seed=7)
    alphas, step = [0.05, 0.025, 0.0125], s / u / 14
    assert not _takes_flow(u, 0.84, 14, step)
    got, tracked = _converged_gaps(lattice, family, alphas, s, step)
    assert got == tracked
    with mock.patch.object(oracle, "_rk4_truncation", return_value=0.0):
        ungated, tracked = _converged_gaps(lattice, family, alphas, s, step)
    assert all(a > 100.0 * b for a, b in zip(ungated, tracked)), (ungated, tracked)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", [5, 29])
def test_scan_is_as_close_to_converged_as_the_tracked_reference_on_the_bench_dipole(seed):
    # the bunch-dipole scan's inputs at 100 steps: the flow is taken, and
    # it lands as close to the converged deviations as the tracked
    # reference, up to the rounding of 100 steps
    u, s = math.sqrt(99.0), 1.0
    lattice = Lattice.from_elements([Dipole(length=25.0, b0=0.05)])
    family = gaussian_beam_family([0.0, u, 0.0], 50, seed)
    alphas, step = [0.02, 0.01, 0.005], s / u / 100
    assert _takes_flow(u, 0.05, 100, step)
    got, tracked = _converged_gaps(lattice, family, alphas, s, step)
    assert all(a <= b + 100 * _EPS * s for a, b in zip(got, tracked)), (got, tracked)


def _tracked(monkeypatch):
    """Spy on _track_means: the list of cloud counts it is called with."""
    calls, track = [], oracle._track_means

    def spy(lattice, ensembles, x0, t_end, config, lab_times=None):
        calls.append(len(ensembles))
        return track(lattice, ensembles, x0, t_end, config, lab_times)

    monkeypatch.setattr(oracle, "_track_means", spy)
    return calls


def _forward_family(alpha):
    """Ten samples about spatial velocity (0, 1, 0), gamma = sqrt(2)."""
    return gaussian_beam_family([0.0, 1.0, 0.0], 10, seed=11)(alpha)


# (lattice, s, step): the mean turns through 2 rad in the dipole, so v2
# ends negative; or it runs out of a short dipole into a drift; or the
# geodesic's RK4 error would pass its rounding at step 0.01 (the first
# two use step 1e-3, where it does not); or the launch element has a
# gradient or an E field
_TRACKED_CASES = {
    "v2-turns-negative": (Lattice.from_elements([Dipole(length=2.0, b0=1.0)]), 2.0, 1e-3),
    "reaches-the-exit": (Lattice.from_elements([Dipole(length=0.4, b0=0.3),
                                                Drift(length=2.0)]), 1.0, 1e-3),
    "truncation": (Lattice.from_elements([Dipole(length=2.0, b0=0.3)]), 1.0, 0.01),
    "quad_dipole": (Lattice.from_elements([NormalQuadDipole(length=2.0, b0=0.3, b1=0.0)]),
                    1.0, 0.01),
    "skew_quad_dipole": (Lattice.from_elements([SkewQuadDipole(length=2.0, b0=0.3, b1=0.2)]),
                         1.0, 0.01),
    "rf": (Lattice.from_elements([RFCavity(length=2.0, e2_0=0.1, w_rf=3.0)]), 1.0, 0.01),
    "const_e": (Lattice.from_elements([ConstantE(length=2.0, e2=-0.1)]), 1.0, 0.01),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(_TRACKED_CASES))
def test_scan_tracks_a_cloud_the_flow_cannot_keep_in_one_element(monkeypatch, case):
    lattice, s, step = _TRACKED_CASES[case]
    cfg, alphas = IntegratorConfig(step=step), [0.02, 0.01, 0.005]
    if case in ("v2-turns-negative", "reaches-the-exit", "truncation"):
        # the gate passes exactly when the case is not about it
        assert _takes_flow(1.0, lattice.elements[0].b0, math.ceil(s / step - 1e-9), step) == (
            case != "truncation")
    want = reference_theorem1_scan(lattice, _forward_family, alphas, s, cfg)
    calls = _tracked(monkeypatch)
    got = theorem1_scan(lattice, _forward_family, alphas, s, cfg)
    assert sum(calls) == 3
    assert got == want and got.to_json() == want.to_json()


def test_flow_is_not_used_past_half_a_turn():
    # after 6 rad of bend v2 is positive again and x2 is inside the exit,
    # but the orbit left through x2 = 0 on the way (the averaged geodesic
    # raises OutOfLattice there first, so the scan never asks)
    lattice = Lattice.from_elements([Dipole(length=2.0, b0=1.0)])
    ens, h = _forward_family(0.01), 1e-3
    assert oracle._flow_mean(lattice, ens, np.zeros(4), 1000, h, 1.0) is not None
    x, v = _flow(lattice.elements[0], [0.0] * 4, list(ens.ys.T), 6.0)
    assert (v[2] > 0.0).all() and (x[2] < 0.0).all()
    assert _takes_flow(1.0, 1.0, 6000, h)
    assert oracle._flow_mean(lattice, ens, np.zeros(4), 6000, h, 1.0) is None


def test_flow_is_not_used_for_a_sample_launched_backwards():
    # the second sample starts with v2 < 0 and the bend turns it forward
    # before the run ends, inside the element, but it left through x2 = 0
    # on the way
    lattice = Lattice.from_elements([Dipole(length=2.0, b0=1.0)])
    ens = BeamEnsemble(project_to_hyperboloid([[0.0, 1.0, 0.0], [0.5, -0.05, 0.0]]))
    x, v = _flow(lattice.elements[0], [0.0] * 4, list(ens.ys.T), 0.5)
    assert (v[2] > 0.0).all() and (x[2] > 0.0).all() and (x[2] < 2.0).all()
    assert _takes_flow(1.0, 1.0, 500, 1e-3)
    assert oracle._flow_mean(lattice, ens, np.zeros(4), 500, 1e-3, 1.0) is None
