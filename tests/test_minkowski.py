"""Metric algebra, hyperboloid projection, and tensor container contracts."""

import math

import numpy as np
import pytest

from avgbeam import (
    Connection3,
    ETA,
    FieldSample,
    METRIC_SIGNATURE,
    OffShell,
    check_on_shell,
    contract_geodesic,
    lower,
    minkowski_dot,
    norm_residual,
    project_to_hyperboloid,
    velocity_monomials3,
)

SQRT2 = np.sqrt(2.0)


def test_metric_is_mostly_minus():
    assert np.array_equal(METRIC_SIGNATURE, [1.0, -1.0, -1.0, -1.0])
    assert np.array_equal(ETA, np.diag([1.0, -1.0, -1.0, -1.0]))


def test_dot_frozen_value():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    # 1 - 4 - 9 - 16
    assert minkowski_dot(a, a) == -28.0
    assert minkowski_dot(np.eye(4)[0], np.eye(4)[0]) == 1.0
    assert minkowski_dot(np.eye(4)[2], np.eye(4)[2]) == -1.0


def test_dot_broadcasts_over_batches():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(7, 4))
    b = rng.normal(size=(7, 4))
    got = minkowski_dot(a, b)
    for k in range(7):
        assert got[k] == minkowski_dot(a[k], b[k])


def test_lower_is_involution():
    v = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(lower(v), [1.0, -2.0, -3.0, -4.0])
    assert np.array_equal(lower(lower(v)), v)


def test_projection_frozen_value():
    y = project_to_hyperboloid([4.0, 0.0, 3.0])
    assert y[0] == np.sqrt(26.0)
    assert np.array_equal(y[1:], [4.0, 0.0, 3.0])
    assert abs(norm_residual(y)) < 1e-12 * y[0] ** 2


def test_projection_shell_property():
    rng = np.random.default_rng(11)
    for _ in range(200):
        u = rng.normal(scale=10.0 ** rng.integers(-3, 3), size=3)
        y = project_to_hyperboloid(u)
        assert y[0] >= 1.0
        assert np.array_equal(y[1:], u)
        assert abs(norm_residual(y)) <= 1e-12 * max(1.0, y[0] ** 2)


def test_check_on_shell_raises_and_reports():
    check_on_shell(np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(OffShell):
        check_on_shell(np.array([1.1, 0.0, 0.0, 0.0]))


def test_check_on_shell_one_rule_scaled_by_energy():
    # |eta(y,y)-1| <= 1e-12 max(1, y0^2): 1e-9 passes at gamma 1e3 and fails at rest
    y = project_to_hyperboloid([0.0, 1e3, 0.0])
    y[0] += 1e-9 / (2.0 * y[0])
    check_on_shell(y)
    with pytest.raises(OffShell):
        check_on_shell(np.array([1.0 + 1e-9, 0.0, 0.0, 0.0]))
    with pytest.raises(OffShell):
        check_on_shell(np.array([np.nan, 0.0, 0.0, 0.0]))


def test_check_on_shell_names_first_bad_row():
    ys = np.tile([1.0, 0.0, 0.0, 0.0], (5, 1))
    ys[2, 0] = 1.5
    ys[4, 0] = 2.0
    with pytest.raises(OffShell, match="sample 2 "):
        check_on_shell(ys, label="sample")


def test_batched_projection_is_bitwise_per_row():
    rng = np.random.default_rng(3)
    for scale in (1e-3, 1.0, 1e3, 1e5):
        u = rng.normal(scale=scale, size=(500, 3))
        batch = project_to_hyperboloid(u)
        rows = np.array([project_to_hyperboloid(r) for r in u])
        assert np.array_equal(batch, rows)
        s = (u[:, 0] * u[:, 0] + u[:, 1] * u[:, 1]) + u[:, 2] * u[:, 2]
        assert np.array_equal(batch[:, 0], [math.sqrt(1.0 + x) for x in s])


def test_monomials_frozen_entries():
    y = np.array([SQRT2, 1.0, 0.0, 0.0])
    m = velocity_monomials3(y)
    assert m[0, 0, 0] == (SQRT2 * SQRT2) * SQRT2
    assert m[0, 1, 1] == SQRT2
    assert m[1, 1, 1] == 1.0
    assert m[2, 1, 3] == 0.0


def test_monomials_exactly_symmetric():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = velocity_monomials3(rng.normal(size=4))
        assert np.array_equal(m, np.swapaxes(m, 0, 1))
        assert np.array_equal(m, np.swapaxes(m, 1, 2))
        assert np.array_equal(m, np.swapaxes(m, 0, 2))


def test_monomials_batch_matches_rows():
    rng = np.random.default_rng(6)
    ys = rng.normal(size=(5, 4))
    batch = velocity_monomials3(ys)
    assert batch.shape == (5, 4, 4, 4)
    for k in range(5):
        assert np.array_equal(batch[k], velocity_monomials3(ys[k]))


def test_connection_container_symmetrizes_lower_slots():
    g = np.zeros((4, 4, 4))
    g[1, 2, 3] = 2.0
    c = Connection3(g)
    assert c.coeffs[1, 2, 3] == 1.0
    assert c.coeffs[1, 3, 2] == 1.0
    with pytest.raises(ValueError):
        Connection3(np.zeros((4, 4)))


def test_connection_zero_and_add():
    g = np.zeros((4, 4, 4))
    g[0, 1, 1] = 3.0
    s = Connection3.zero() + Connection3(g)
    assert s.coeffs[0, 1, 1] == 3.0
    assert not s.coeffs.flags.writeable


def test_field_sample_rejects_symmetric_part():
    bad = np.zeros((4, 4))
    bad[1, 2] = 1.0  # no compensating entry, lowered tensor not antisymmetric
    with pytest.raises(ValueError):
        FieldSample(bad)


def test_field_sample_magnetic_block():
    # spatial-spatial mixed entries flip sign under transpose because both
    # indices carry a -1 from the metric
    f = np.zeros((4, 4))
    f[1, 2] = 1.0
    f[2, 1] = -1.0
    fs = FieldSample(f)
    low = fs.lowered
    assert np.array_equal(low, -low.T)
    assert fs.grad.shape == (4, 4, 4)
    assert not np.any(fs.grad)


def test_contract_geodesic_frozen():
    g = np.zeros((4, 4, 4))
    g[0, 1, 2] = 1.0
    c = Connection3(g)  # symmetrized: [0,1,2] = [0,2,1] = 1/2
    u = np.array([0.0, 2.0, 0.0, 0.0])
    v = np.array([0.0, 0.0, 3.0, 0.0])
    out = contract_geodesic(c, u, v)
    assert out[0] == 3.0
    assert np.array_equal(out[1:], [0.0, 0.0, 0.0])
