"""Field-coupled connection coefficients."""

import numpy as np
import pytest

from avgbeam import (
    Connection3,
    FieldSample,
    OffShell,
    averaged_connection,
    connection_gradient,
    contract_geodesic,
    delta_moments,
    field_at,
    lorentz_connection,
    project_to_hyperboloid,
)
from avgbeam import Dipole, Lattice, NormalQuadDipole
from avgbeam.minkowski import METRIC_SIGNATURE, velocity_monomials3


def _random_field(rng):
    """Random antisymmetric-when-lowered mixed tensor."""
    low = rng.normal(size=(4, 4))
    low = low - low.T
    return FieldSample(METRIC_SIGNATURE[:, None] * low)


def _oracle_coeffs(F, first, third):
    # independent einsum construction of the same coefficients
    eta = np.diag(METRIC_SIGNATURE)
    yl = eta @ first
    t1 = 0.5 * (np.einsum("ij,k->ijk", F, yl) + np.einsum("ik,j->ijk", F, yl))
    thl = np.einsum("msl,sj,lk->mjk", third, eta, eta)
    b = np.einsum("m,jk->mjk", first, eta) - thl
    t2 = 0.5 * np.einsum("im,mjk->ijk", F, b)
    return t1 + t2


def test_lorentz_connection_requires_shell():
    fs = FieldSample(np.zeros((4, 4)))
    with pytest.raises(OffShell):
        lorentz_connection(fs, np.array([2.0, 0.0, 0.0, 0.0]))


def test_geodesic_contraction_collapses_to_force():
    # Gamma(y)(y, y) = F y on the hyperboloid, the identity pinning the
    # coefficient grouping
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(100):
        fs = _random_field(rng)
        y = project_to_hyperboloid(rng.normal(scale=2.0, size=3))
        g = lorentz_connection(fs, y)
        got = contract_geodesic(g, y, y)
        want = fs.f_mixed @ y
        # cancellation budget: contraction sums terms of size |Gamma| |y|^2
        scale = max(1.0, np.abs(g.coeffs).max() * float(np.max(np.abs(y)) ** 2))
        worst = max(worst, np.abs(got - want).max() / scale)
    assert worst < 1e-13


def test_coefficients_match_einsum_oracle():
    rng = np.random.default_rng(22)
    for _ in range(20):
        fs = _random_field(rng)
        y = project_to_hyperboloid(rng.normal(size=3))
        got = lorentz_connection(fs, y).coeffs
        want = _oracle_coeffs(fs.f_mixed, y, velocity_monomials3(y))
        assert np.max(np.abs(got - want)) < 1e-14


def test_lower_slot_symmetry_exact():
    rng = np.random.default_rng(23)
    fs = _random_field(rng)
    g = lorentz_connection(fs, project_to_hyperboloid([0.3, 1.0, -0.2])).coeffs
    assert np.array_equal(g, np.swapaxes(g, 1, 2))


def test_delta_moments_reproduce_lorentz_connection():
    lat = Lattice.from_elements([Dipole(length=1.0, b0=1.0)])
    fs = field_at(lat, np.array([0.0, 0.0, 0.5, 0.0]))
    y = project_to_hyperboloid([0.0, 1.0, 0.0])
    a = lorentz_connection(fs, y)
    b = averaged_connection(fs, delta_moments(y))
    assert np.array_equal(a.coeffs, b.coeffs)


def test_connection_gradient_constant_field_vanishes():
    lat = Lattice.from_elements([Dipole(length=1.0, b0=1.0)])
    fs = field_at(lat, np.array([0.0, 0.0, 0.5, 0.0]))
    y = project_to_hyperboloid([0.0, 1.0, 0.0])
    G = connection_gradient(fs, y, velocity_monomials3(y))
    assert not np.any(G)


def test_connection_gradient_matches_fd():
    lat = Lattice.from_elements([NormalQuadDipole(length=1.0, b0=0.5, b1=2.0)])
    y = project_to_hyperboloid([0.0, 1.0, 0.0])
    mono = velocity_monomials3(y)
    x = np.array([0.0, 0.0, 0.5, 0.0])
    xi = np.array([0.0, 0.02, 0.0, -0.01])
    G = connection_gradient(field_at(lat, x, xi), y, mono)
    h = 1e-6
    for axis in (1, 3):
        dxi = np.zeros(4)
        dxi[axis] = h
        gp = averaged_connection(field_at(lat, x, xi + dxi), delta_moments(y)).coeffs
        gm = averaged_connection(field_at(lat, x, xi - dxi), delta_moments(y)).coeffs
        assert np.max(np.abs(G[axis] - (gp - gm) / (2 * h))) < 1e-8
