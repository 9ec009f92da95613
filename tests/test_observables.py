"""Hill-equation machinery, dispersion, and ensemble offset observables."""

import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import avgbeam

from avgbeam import (
    ConstantE,
    Dipole,
    Drift,
    IntegratorConfig,
    Lattice,
    MismatchedGrid,
    MismatchedSampling,
    MomentsSeries,
    NormalQuadDipole,
    OffsetSeries,
    PrincipalSolutions,
    RFCavity,
    ResidualTooLarge,
    SkewQuadDipole,
    TrajectorySeries,
    TrajectoryState,
    WronskianDrift,
    averaged_offset,
    comoving_moments_along,
    compute_moments,
    delta_moments,
    dispersion,
    gaussian_beam_family,
    integrate_averaged_geodesic,
    inverse_rho_profile,
    mean_field_defect,
    particular_solution,
    principal_solutions,
    project_to_hyperboloid,
    transverse_k_profile,
)
from avgbeam import observables
from avgbeam.dynamics import _frozen_slots, _hill_rows
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
    with_nan = np.cos(t)
    with_nan[5] = np.nan
    with pytest.raises(WronskianDrift):
        PrincipalSolutions(t, with_nan, -np.sin(t), np.sin(t), np.cos(t), z + 1.0)


def test_wronskian_on_fodo_profile(fodo_lattice):
    grid, k = transverse_k_profile(fodo_lattice, "horizontal", 1e-3)
    ps = principal_solutions(grid, k)
    assert ps.wronskian_drift() < 1e-9


def _per_run_rows(t, K):
    """(C, C', S, S') by one _hill_rows call per run of equal K and solution."""
    h = float(t[1] - t[0])
    C, Cp, S, Sp = rows = np.empty((4, len(t)))
    rows[:, 0] = 1.0, 0.0, 0.0, 1.0
    start = 0
    for stop in [*(np.flatnonzero(K[1:-1] != K[:-2]) + 1).tolist(), len(t) - 1]:
        tau = np.arange(1, stop - start + 1) * h
        for u, du in ((C, Cp), (S, Sp)):
            u[start + 1:stop + 1], du[start + 1:stop + 1] = _hill_rows(
                float(K[start]), tau, u[start], du[start])
        start = stop
    return rows


_RUN_K = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0, allow_subnormal=False))


@settings(max_examples=100, deadline=None)
@given(runs=st.lists(st.tuples(_RUN_K, st.integers(1, 5)), min_size=1, max_size=8),
       h=st.sampled_from([1e-2, 0.05, 0.1]), last=_RUN_K)
# the vertical K of a skew_quad_dipole with b1 = 0 is -0.0, next to drifts' 0.0
@example(runs=[(0.0, 2), (-0.0, 3), (0.0, 1), (-1.5, 1), (-0.0, 2)], h=0.1, last=0.0)
@example(runs=[(0.7, 1)], h=0.05, last=-3.0)  # a two-point grid
def test_principal_solutions_are_the_per_run_maps_bit_for_bit(runs, h, last):
    # lengths stay below 4 and |K| below 2, so the Wronskian holds to 1e-9
    K = np.array([k for k, n in runs for _ in range(n)] + [last])
    t = np.arange(len(K)) * h
    ps = principal_solutions(t, K)
    for got, want in zip((ps.C, ps.Cp, ps.S, ps.Sp), _per_run_rows(t, K)):
        assert got.tobytes() == want.tobytes()


def test_principal_solutions_of_skew_b1_zero_take_the_drift_map():
    lattice = Lattice.from_elements([Drift(length=0.2), SkewQuadDipole(length=0.3, b0=0.0, b1=0.0),
                                     Drift(length=0.1)])
    t, K = transverse_k_profile(lattice, "vertical", 0.1)
    assert np.signbit(K[2:5]).all() and not np.signbit(K[:2]).any()
    ps = principal_solutions(t, K)
    for got, want in zip((ps.C, ps.Cp, ps.S, ps.Sp), _per_run_rows(t, K)):
        assert got.tobytes() == want.tobytes()
    assert np.array_equal(ps.S, t) and np.array_equal(ps.C, np.ones_like(t))


def _transfer(K, L):
    """2x2 transfer matrix of u'' + K u = 0 over a length L of constant K."""
    if K == 0.0:
        return np.array([[1.0, L], [0.0, 1.0]])
    w = np.sqrt(abs(K))
    if K > 0.0:
        return np.array([[np.cos(w * L), np.sin(w * L) / w], [-w * np.sin(w * L), np.cos(w * L)]])
    return np.array([[np.cosh(w * L), np.sinh(w * L) / w], [w * np.sinh(w * L), np.cosh(w * L)]])


def _agrees_with_matrix_products(lattice, plane, step, ks):
    """Compare (C, S; C', S') at every element end with the product of the elements' matrices."""
    ps = principal_solutions(*transverse_k_profile(lattice, plane, step))
    M = np.eye(2)
    for K, element, end in zip(ks, lattice.elements, lattice.boundaries):
        M = _transfer(K, element.length) @ M
        i = round(end / step)
        assert np.abs([[ps.C[i], ps.S[i]], [ps.Cp[i], ps.Sp[i]]] - M).max() <= 1e-13
    assert np.array_equal(ps.K, transverse_k_profile(lattice, plane, step)[1])
    return ps


@pytest.mark.parametrize("step", [1e-2, 1.25e-3])
@pytest.mark.parametrize("plane, sign", [("horizontal", -1.0), ("vertical", 1.0)])
def test_lattice_principal_solutions_exact_on_fodo(plane, sign, step):
    # b0 = 0, so K = -b1 horizontally and +b1 vertically; RK4 errs by
    # 2.5e-2 (h = 1e-2) and 3.1e-3 (h = 1.25e-3) at these element ends
    cell = [NormalQuadDipole(length=0.5, b0=0.0, b1=0.8), Drift(length=0.5),
            NormalQuadDipole(length=0.5, b0=0.0, b1=-0.8), Drift(length=0.5)]
    ks = [sign * 0.8, 0.0, -sign * 0.8, 0.0] * 4
    _agrees_with_matrix_products(Lattice.from_elements(cell * 4), plane, step, ks)


@pytest.mark.parametrize("plane, ks", [
    ("horizontal", [0.0, 2.25, 0.09 + 2.0, 0.0, 0.09 - 2.0, 0.0]),
    ("vertical", [0.0, 0.0, -2.0, 0.0, 2.0, 0.0]),
])
def test_lattice_principal_solutions_mixed_elements(plane, ks):
    # drift, rf and const_e carry K = 0; the skew gradient focuses one plane
    # and defocuses the other
    lattice = Lattice.from_elements([
        Drift(length=0.4), Dipole(length=0.6, b0=1.5),
        SkewQuadDipole(length=0.5, b0=0.3, b1=2.0), RFCavity(length=0.5, e2_0=1.0, w_rf=3.0),
        SkewQuadDipole(length=0.5, b0=0.3, b1=-2.0), ConstantE(length=0.3, e2=0.5),
    ])
    ps = _agrees_with_matrix_products(lattice, plane, 1e-2, ks)
    assert ps.wronskian_drift() <= 1e-13


@pytest.mark.parametrize("elements, ks", [
    ([Drift(length=0.4), Drift(length=0.7)], [0.0, 0.0]),
    ([Dipole(length=0.6, b0=1.5), Dipole(length=0.9, b0=1.5)], [2.25, 2.25]),
    ([Drift(length=0.3), Dipole(length=0.6, b0=1.5), Dipole(length=0.9, b0=1.5),
      Drift(length=0.4), Drift(length=0.7)], [0.0, 2.25, 2.25, 0.0, 0.0]),
], ids=["drift-drift", "dipole-dipole", "mixed"])
def test_lattice_principal_solutions_neighbours_with_one_k(elements, ks):
    # neighbours with equal K are one run of the map, so their ends move
    # only by rounding against the per-element matrix chain
    _agrees_with_matrix_products(Lattice.from_elements(elements), "horizontal", 1e-2, ks)


def test_lattice_principal_solutions_read_k_per_element():
    # the edge at 0.01 + 0.05 = 0.060000000000000005 lies above the grid
    # point 6 * 0.01 = 0.06, which the profile still gives to the drift
    lattice = Lattice.from_elements([Dipole(length=0.01, b0=1.0), Dipole(length=0.05, b0=2.0),
                                     Drift(length=0.01)])
    assert transverse_k_profile(lattice, "horizontal", 0.01)[1][6] == 0.0
    _agrees_with_matrix_products(lattice, "horizontal", 0.01, [1.0, 4.0, 0.0])


def test_lattice_principal_solutions_one_dipole_is_cos_sin():
    lattice = Lattice.from_elements([Dipole(length=6.4, b0=1.0)])
    ps = principal_solutions(*transverse_k_profile(lattice, "horizontal", 1e-2))
    # RK4 on the same grid errs by 4e-10
    assert np.abs(ps.C - np.cos(ps.t)).max() <= 1e-13
    assert np.abs(ps.S - np.sin(ps.t)).max() <= 1e-13
    assert np.abs(ps.Cp + np.sin(ps.t)).max() <= 1e-13
    assert np.abs(ps.Sp - np.cos(ps.t)).max() <= 1e-13


def test_lattice_principal_solutions_wronskian_on_ring():
    cell = [NormalQuadDipole(length=0.5, b0=0.02, b1=0.8), Drift(length=0.5),
            NormalQuadDipole(length=0.5, b0=0.02, b1=-0.8), Drift(length=0.5)]
    ring = Lattice.from_elements(cell * 32)
    for plane in ("horizontal", "vertical"):
        ps = principal_solutions(*transverse_k_profile(ring, plane, 4e-3))
        assert ps.wronskian_drift() <= 1e-13


def test_lattice_principal_solutions_rejections():
    overflow = Lattice.from_elements([Dipole(length=1.0, b0=1e200)])  # K = b0^2 = inf
    with pytest.raises(ValueError):
        principal_solutions(*transverse_k_profile(overflow, "horizontal", 1e-2))
    edged = Lattice.from_elements([Dipole(length=0.3, b0=0.1), Drift(length=0.7)])
    with pytest.raises(MismatchedSampling):
        transverse_k_profile(edged, "horizontal", 0.2)
    with pytest.raises(ValueError, match="plane"):
        transverse_k_profile(edged, "diagonal", 0.1)


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
    with_nan = np.ones_like(t)
    with_nan[7] = np.nan
    with pytest.raises(ResidualTooLarge):
        particular_solution(ps, with_nan)


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
    for delta in (-1e-3, np.nan):  # nan < 0 is False, so nan needs its own refusal
        with pytest.raises(ValueError, match="momentum spread must be nonnegative"):
            dispersion(ps, inv, delta=delta)


def test_offset_series_requires_shared_grid():
    t = np.linspace(0.0, 1.0, 11)
    z = np.zeros(11)
    with pytest.raises(MismatchedGrid):
        OffsetSeries(t, z, z[:-1])


def test_series_consumers_share_one_grid_check(circle_lattice, circle_state, cfg_fine):
    mom = delta_moments(circle_state.v)
    ref = integrate_averaged_geodesic(circle_lattice, mom, circle_state, 0.1, cfg_fine)
    along = comoving_moments_along(ref, mom)

    def consumers(t_ref, t_series):
        r = TrajectorySeries(t_ref, ref.x, ref.v)
        a = MomentsSeries(t_series, along.first, along.D3)
        return (lambda: averaged_offset(circle_lattice, r, a),
                lambda: mean_field_defect(circle_lattice, a, r))

    for run in consumers(ref.t, ref.t + 1e-3):
        with pytest.raises(MismatchedGrid):
            run()
    bent = ref.t.copy()
    bent[50] += 2e-4  # one point off the uniform grid, shared by every series
    for run in consumers(bent, bent):
        with pytest.raises(ValueError, match="grid must be uniform"):
            run()


def _dipole_reference(alpha, span, n=2000, seed=11, step=1e-3, speed=SPEED):
    lat = Lattice.from_elements([Dipole(length=25.0, b0=0.05)])
    fam = gaussian_beam_family(np.array([0.0, speed, 0.0]), n=n, seed=seed)
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


def _exact_offset_integrand(F, V, D1, D3):
    """F(first eta(V,V) - third(V,V)) in rationals, first = V + D1, third = V x V x V + D3."""
    sign = (1, -1, -1, -1)
    V = [Fraction(c) for c in V]
    s = sum(g * c * c for g, c in zip(sign, V))
    slot = [(V[m] + Fraction(D1[m])) * s - V[m] * s * s
            - sum(Fraction(D3[m][4 * a + b]) * (sign[a] * sign[b]) * V[a] * V[b]
                  for a in range(4) for b in range(4))
            for m in range(4)]
    out = [Fraction(0)] * 4
    for i, j, f in F:
        out[i] += Fraction(f) * slot[j]
    return out


@pytest.mark.parametrize("gamma", [100.0, 1e3])
def test_offset_integrand_matches_exact_slot_contraction(monkeypatch, gamma):
    # F(first eta(V,V) - third(V,V)) cancels O(gamma^3) terms down to O(alpha^2); a
    # rank-3 tensor series loses that to rounding, the comoving slots keep 1e-5.  What
    # they still lose is eta(V,V) rounded near 1 (gamma^2 eps) times |V|.  Beam of
    # criterion 12 (seed 7); rows compared in rationals on the program's D1, D3.
    speed = np.sqrt(gamma * gamma - 1.0)
    lat, mom, ref, along = _dipole_reference(0.01, span=10.0 / speed, seed=7, speed=speed)
    integrands = []
    monkeypatch.setattr(observables, "_cumtrapz",
                        lambda y, h: integrands.append(y) or _cumtrapz(y, h))
    averaged_offset(lat, ref, along)
    D1, D3 = _frozen_slots(mom, ref.v[0])
    F = lat.elements[0].field_entries(0.0, None)  # a uniform dipole
    rows = np.unique(np.linspace(0, len(ref) - 1, 12).astype(int))
    exact = {k: _exact_offset_integrand(F, ref.v[k].tolist(), D1, D3) for k in rows}
    scale = max(abs(row[c]) for row in exact.values() for c in (1, 3))
    err = max(abs(Fraction(float(got[k])) - exact[k][c]) / scale
              for c, got in zip((1, 3), integrands) for k in rows)
    assert len(rows) >= 11 and err < 1e-5


@pytest.mark.parametrize("n", [1, 2, 3, 101])
def test_cumtrapz_matches_running_trapezoid_sum(n):
    y = np.random.default_rng(n).normal(size=(n, 4))[:, 1]  # a strided column
    expect = [0.0]
    for k in range(1, n):
        expect.append(expect[-1] + 0.01 * (y[k] + y[k - 1]) / 2.0)
    assert np.array_equal(_cumtrapz(y, 0.01), expect)


def test_import_does_not_load_scipy():
    # scipy would be most of the package's import time; no module may import it
    src = os.path.dirname(os.path.dirname(avgbeam.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import importlib, pkgutil, sys, avgbeam\n"
         "for m in pkgutil.iter_modules(avgbeam.__path__):\n"
         "    importlib.import_module('avgbeam.' + m.name)\n"
         "print('scipy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
