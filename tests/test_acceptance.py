"""Acceptance suite: one test per release criterion, each printing a verdict.

Every test measures the quantity its criterion pins down, prints a single
PASS/FAIL line with the measured value, then asserts.  Tolerances are stated
inline and match the release contract.
"""

import json
import time
import warnings

import numpy as np
import pytest

from avgbeam import (
    BeamEnsemble,
    ConstantE,
    Dipole,
    Drift,
    IntegratorConfig,
    JacobiState,
    Lattice,
    NormalQuadDipole,
    RFCavity,
    SkewQuadDipole,
    TrajectoryState,
    averaged_connection,
    averaged_offset,
    comoving_moments_along,
    compute_moments,
    delta_moments,
    ensemble_track,
    field_at,
    gaussian_beam_family,
    integrate_averaged_geodesic,
    integrate_jacobi_full,
    integrate_longitudinal,
    integrate_lorentz,
    integrate_transverse_linear,
    jacobi_vs_two_geodesics,
    lorentz_connection,
    mean_field_defect,
    particular_solution,
    principal_solutions,
    project_to_hyperboloid,
    theorem1_scan,
    transverse_k_profile,
)
from avgbeam.cli import main as cli_main

SQRT2 = np.sqrt(2.0)
GAMMA = 100.0
SPEED = np.sqrt(GAMMA * GAMMA - 1.0)


def _verdict(capsys, num, slug, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:02d} {slug}: {detail} -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} {slug}: {detail}"


def test_criterion_01_dipole_transfer_map(capsys):
    elem = Dipole(length=7.0, b0=1.0)  # rho = 1
    init = JacobiState(0.0, np.array([0.0, 1.0, 0.0, 0.0]), np.zeros(4))
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        # unit amplitude deliberately exceeds the linearity guard band
        warnings.simplefilter("ignore", RuntimeWarning)
        run = integrate_transverse_linear(elem, None, init, 2.0 * np.pi, IntegratorConfig(step=1e-3))
    elapsed = time.perf_counter() - t0
    err = np.abs(run.xi[:, 1] - np.cos(run.t)).max()
    ok = err <= 1e-8 and elapsed < 1.0
    _verdict(capsys, 1, "dipole-transfer-map", ok,
             f"max|xi1-cos l| = {err:.3e} (tol 1e-8), runtime {elapsed:.2f}s (< 1s)")


def test_criterion_02_quadrupole_maps(capsys):
    cfg = IntegratorConfig(step=1e-3)
    init = JacobiState(0.0, np.array([0.0, 1e-3, 0.0, 1e-3]), np.zeros(4))
    worst = 0.0
    for b1 in (0.5, -0.5):
        elem = NormalQuadDipole(length=8.0, b0=0.5, b1=b1)
        run = integrate_transverse_linear(elem, None, init, 4.0, cfg)
        kh = 0.25 - b1
        kv = b1
        for col, k in ((1, kh), (3, kv)):
            w = np.sqrt(abs(k))
            want = 1e-3 * (np.cos(w * run.t) if k > 0 else np.cosh(w * run.t))
            worst = max(worst, np.abs(run.xi[:, col] - want).max())
    ok = worst <= 1e-8
    _verdict(capsys, 2, "quadrupole-maps", ok,
             f"worst channel error = {worst:.3e} (tol 1e-8)")


def test_criterion_03_norm_conservation(capsys):
    cfg = IntegratorConfig(step=1e-3)  # spans of 1e3 steps
    v0 = np.array([SQRT2, 0.0, 1.0, 0.0])
    cases = [
        (Dipole(length=5.0, b0=1.0), [0.0, 0.0, 1.2, 0.0]),
        (NormalQuadDipole(length=5.0, b0=0.8, b1=0.4), [0.0, 0.05, 1.2, 0.02]),
        (SkewQuadDipole(length=5.0, b0=0.8, b1=0.4), [0.0, 0.05, 1.2, 0.02]),
        (ConstantE(length=5.0, e2=0.1), [0.0, 0.0, 1.0, 0.0]),
        (RFCavity(length=5.0, e2_0=0.05, w_rf=2.0), [0.0, 0.0, 1.0, 0.0]),
        (Drift(length=5.0), [0.0, 0.0, 0.0, 0.0]),
    ]
    worst = 0.0
    for elem, x0 in cases:
        lat = Lattice.from_elements([elem])
        ser = integrate_lorentz(lat, TrajectoryState(0.0, np.array(x0), v0), 1.0, cfg)
        worst = max(worst, ser.norm_drift())
    ok = worst <= 1e-9
    _verdict(capsys, 3, "norm-conservation", ok,
             f"worst |eta(v,v)-1| over 6 element kinds = {worst:.3e} (tol 1e-9)")


def test_criterion_04_force_form_equivalence(capsys):
    lat = Lattice.from_elements([Dipole(length=2.4, b0=1.0)])
    st = TrajectoryState(0.0, np.array([0.0, 0.0, 1.2, 0.0]), np.array([SQRT2, 0.0, 1.0, 0.0]))
    cfg = IntegratorConfig(step=1e-3)
    a = integrate_lorentz(lat, st, 10.0, cfg, form="connection")
    b = integrate_lorentz(lat, st, 10.0, cfg, form="force")
    dist = float(np.linalg.norm(a.x[-1] - b.x[-1]))
    ok = dist <= 1e-9
    _verdict(capsys, 4, "force-form-equivalence", ok,
             f"endpoint distance over span 10 = {dist:.3e} (tol 1e-9)")


def test_criterion_05_delta_degeneracy(capsys):
    lat = Lattice.from_elements([Dipole(length=2.4, b0=1.0)])
    x0 = np.array([0.0, 0.0, 1.2, 0.0])
    v0 = np.array([SQRT2, 0.0, 1.0, 0.0])
    st = TrajectoryState(0.0, x0, v0)
    cfg = IntegratorConfig(step=1e-3)
    mom = delta_moments(v0)

    fs = field_at(lat, x0)
    conn_gap = np.abs(
        averaged_connection(fs, mom).coeffs - lorentz_connection(fs, v0).coeffs
    ).max()

    ref = integrate_averaged_geodesic(lat, mom, st, 1.0, cfg)
    along = comoving_moments_along(ref, mom)
    off = averaged_offset(lat, ref, along)
    off_max = max(np.abs(off.avg1).max(), np.abs(off.avg3).max())

    ens = BeamEnsemble(np.tile(v0, (16, 1)))
    tracked = ensemble_track(lat, ens, x0, 1.0, cfg)
    single = integrate_lorentz(lat, st, 1.0, cfg)
    bitwise = np.array_equal(tracked.mean.x, single.x) and np.array_equal(
        tracked.mean.v, single.v
    )

    ok = conn_gap <= 1e-15 and off_max <= 1e-12 and bitwise
    _verdict(capsys, 5, "delta-degeneracy", ok,
             f"connection gap {conn_gap:.1e} (tol 1e-15), "
             f"max offset {off_max:.1e} (tol 1e-12), ensemble mean bitwise {bitwise}")


def test_criterion_06_bunch_size_scaling(capsys):
    lat = Lattice.from_elements([Dipole(length=25.0, b0=0.05)])
    fam = gaussian_beam_family(np.array([0.0, SPEED, 0.0]), n=10_000, seed=42)
    cfg = IntegratorConfig(step=1e-3)
    alphas = [0.02, 0.01, 0.005]
    t0 = time.perf_counter()
    rep10 = theorem1_scan(lat, fam, alphas, 10.0, cfg)
    elapsed = time.perf_counter() - t0
    rep20 = theorem1_scan(lat, fam, alphas, 20.0, cfg)
    growth = max(d20 / d10 for d10, d20 in zip(rep10.deviations, rep20.deviations))
    ok = 1.6 <= rep10.fitted_exponent <= 2.4 and growth <= 6.0 and elapsed < 30.0
    _verdict(capsys, 6, "bunch-size-scaling", ok,
             f"exponent {rep10.fitted_exponent:.3f} (in [1.6,2.4]), "
             f"span-doubling growth {growth:.2f} (<= 6), runtime {elapsed:.1f}s (< 30s)")


def test_criterion_07_jacobi_linearization_order(capsys):
    lat = Lattice.from_elements([Dipole(length=2.4, b0=1.0)])
    st = TrajectoryState(0.0, np.array([0.0, 0.0, 1.2, 0.0]), np.array([SQRT2, 0.0, 1.0, 0.0]))
    cfg = IntegratorConfig(step=1e-3)
    rep = jacobi_vs_two_geodesics(
        lat, delta_moments(st.v), st,
        JacobiState(0.0, np.array([0.0, 1.0, 0.0, 0.5]), np.array([0.0, 0.2, -0.1, 0.3])),
        1.0, [4e-4, 2e-4, 1e-4], cfg,
    )
    ok = 1.7 <= rep.fitted_order <= 2.3
    _verdict(capsys, 7, "jacobi-linearization-order", ok,
             f"remainder order {rep.fitted_order:.3f} (in [1.7,2.3])")


def test_criterion_08_wronskian(capsys, fodo_lattice):
    drifts = []
    t = np.linspace(0.0, 2.0 * np.pi, 4001)
    drifts.append(principal_solutions(t, np.ones_like(t)).wronskian_drift())
    drifts.append(principal_solutions(t, -0.5 * np.ones_like(t)).wronskian_drift())
    for plane in ("horizontal", "vertical"):
        grid, k = transverse_k_profile(fodo_lattice, plane, 1e-3)
        drifts.append(principal_solutions(grid, k).wronskian_drift())
    worst = max(drifts)
    ok = worst <= 1e-9
    _verdict(capsys, 8, "wronskian", ok,
             f"worst |CS'-C'S-1| over 4 profiles = {worst:.3e} (tol 1e-9)")


def test_criterion_09_particular_solution(capsys):
    t = np.linspace(0.0, np.pi, 3001)
    ps = principal_solutions(t, np.ones_like(t))
    h = t[1] - t[0]
    worst_res = 0.0
    for p in (np.ones_like(t), np.cos(t), 0.5 * t):
        P = particular_solution(ps, p)
        res = (P[2:] - 2 * P[1:-1] + P[:-2]) / h**2 + P[1:-1] - p[1:-1]
        worst_res = max(worst_res, np.abs(res).max())
    P_unit = particular_solution(ps, np.ones_like(t))
    err = np.abs(P_unit - (1.0 - np.cos(t))).max()
    ok = err <= 1e-6 and worst_res <= 1e-6
    _verdict(capsys, 9, "particular-solution", ok,
             f"|P-(1-cos t)| = {err:.3e} (tol 1e-6), worst residual {worst_res:.3e} (tol 1e-6)")


def test_criterion_10_longitudinal_constant_field(capsys):
    elem = ConstantE(length=20.0, e2=0.1)
    init = JacobiState(0.0, np.zeros(4), np.array([0.0, 0.0, 1e-3, 0.0]))
    run = integrate_longitudinal(elem, 1.0, init, 10.0, IntegratorConfig(step=1e-3))
    target = 1e-2 * (1.0 - np.exp(-1.0))
    err = abs(run.xi[-1, 2] - target)
    ok = err <= 1e-8
    _verdict(capsys, 10, "longitudinal-constant-field", ok,
             f"|xi2(10) - 0.01(1-1/e)| = {err:.3e} (tol 1e-8)")


def test_criterion_11_rf_linearized_growth(capsys):
    gamma = 2.0
    elem = RFCavity(length=20.0, e2_0=1.0, w_rf=3.0)
    xi0 = 1e-4
    init = JacobiState(0.0, np.array([0.0, 0.0, xi0, 0.0]), np.zeros(4))
    run = integrate_longitudinal(elem, gamma, init, 2.0, IntegratorConfig(step=1e-3))
    want = xi0 * np.cosh(np.sqrt(2.0 * gamma * 1.0) * run.t)
    err = np.abs(run.xi[:, 2] - want).max()
    ok = err <= 1e-6
    _verdict(capsys, 11, "rf-linearized-growth", ok,
             f"max|xi2 - xi0 cosh(2t)| = {err:.3e} (tol 1e-6) on t in [0,2]")


def test_criterion_12_mean_field_defect_scaling(capsys):
    lat = Lattice.from_elements([Dipole(length=25.0, b0=0.05)])
    fam = gaussian_beam_family(np.array([0.0, SPEED, 0.0]), n=2000, seed=7)
    cfg = IntegratorConfig(step=1e-3)
    norms = {}
    for alpha in (0.02, 0.01):
        mom = compute_moments(fam(alpha))
        v0 = project_to_hyperboloid(mom.first[1:4])
        st = TrajectoryState(0.0, np.zeros(4), v0)
        ref = integrate_averaged_geodesic(lat, mom, st, 10.0 / SPEED, cfg)
        along = comoving_moments_along(ref, mom)
        _, defect = mean_field_defect(lat, along, ref)
        norms[alpha] = defect[2:-2].max()
    ratio = norms[0.02] / norms[0.01]
    ok = 3.2 <= ratio <= 4.8
    _verdict(capsys, 12, "mean-field-defect-scaling", ok,
             f"defect ratio at alpha 0.02/0.01 = {ratio:.2f} (in [3.2,4.8])")


def test_criterion_13_cli_determinism(capsys, tmp_path):
    lat = tmp_path / "line.lat"
    lat.write_text("element dipole length=25.0 b0=0.05\n")
    rf = tmp_path / "rf.lat"
    rf.write_text("element rf length=20.0 e2_0=1.0 w_rf=3.0\n")
    beam = tmp_path / "g.beam"
    beam.write_text("distribution=gaussian\nmean=0,10,0\nsigma=0.01,0.01,0.01\nn=200\nseed=7\n")
    common = ["--lattice", str(lat), "--step", "1e-3", "--span", "0.3"]
    invocations = [
        ["track", "--beam", str(beam)] + common,
        ["avg-track", "--beam", str(beam)] + common,
        ["jacobi", "--beam", str(beam), "--xi0", "0,1e-3,0,0", "--dxi0", "0,0,0,0"] + common,
        ["transverse", "--xi0", "0,1e-3,0,0", "--dxi0", "0,0,0,0"] + common,
        ["longitudinal", "--lattice", str(rf), "--step", "1e-3", "--span", "1.0",
         "--gamma", "1.0", "--xi0", "0,0,1e-4,0", "--dxi0", "0,0,0,0"],
        ["moments", "--beam", str(beam)],
        ["offset", "--beam", str(beam)] + common,
        ["dispersion", "--lattice", str(lat), "--step", "1e-3", "--delta", "1e-3"],
        ["scan-alpha", "--lattice", str(lat), "--alphas", "0.02,0.01,0.005",
         "--span", "1.0", "--seed", "3", "--n", "200"],
        ["validate", "--lattice", str(lat)],
    ]
    a, b = tmp_path / "a.out", tmp_path / "b.out"
    stable = []
    for argv in invocations:
        rc1 = cli_main(argv + ["--out", str(a)])
        rc2 = cli_main(argv + ["--out", str(b)])
        stable.append(rc1 == 0 and rc2 == 0 and a.read_bytes() == b.read_bytes())
    ok = all(stable)
    detail = "all 10 subcommands byte-identical on repeat" if ok else (
        "unstable: " + ", ".join(inv[0] for inv, s in zip(invocations, stable) if not s)
    )
    _verdict(capsys, 13, "cli-determinism", ok, detail)
