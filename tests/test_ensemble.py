"""Weighted velocity ensembles, moment reduction, and beam file parsing."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgbeam import (
    AvgBeamError,
    BeamEnsemble,
    DuplicateKey,
    EmptyEnsemble,
    InvalidCount,
    MomentSet,
    NonFiniteValue,
    OffShell,
    ParseError,
    ZeroWeight,
    compute_moments,
    delta_moments,
    energy_stats,
    parse_beam_definition,
    project_to_hyperboloid,
    read_ensemble_csv,
    realize_beam,
    sample_gaussian_beam,
    velocity_monomials3,
    write_ensemble_csv,
)
from avgbeam import ensemble as ensemble_module

SQRT2 = np.sqrt(2.0)
TWO_SAMPLES = np.array([[SQRT2, 1.0, 0.0, 0.0], [SQRT2, -1.0, 0.0, 0.0]])


def test_ensemble_rejects_off_shell_rows():
    bad = TWO_SAMPLES.copy()
    bad[1, 0] = 1.5
    with pytest.raises(OffShell):
        BeamEnsemble(bad)


def test_ensemble_shell_tolerance_scales_with_energy():
    # a gamma = 1e4 sample keeps eta(y,y) - 1 only to ~1e-9 absolute, which
    # is machine precision relative to y0^2 and must be accepted
    y = project_to_hyperboloid([0.0, 1e4, 0.0])
    y[0] = np.nextafter(y[0], 2e4)
    BeamEnsemble(y[None, :])


def test_ensemble_empty_and_zero_weight():
    with pytest.raises(EmptyEnsemble):
        BeamEnsemble(np.zeros((0, 4)))
    ens = BeamEnsemble(TWO_SAMPLES, ws=np.zeros(2))
    with pytest.raises(ZeroWeight):
        compute_moments(ens)


def test_moments_frozen_two_sample_values():
    m = compute_moments(BeamEnsemble(TWO_SAMPLES))
    assert m.vol == 2.0
    assert np.array_equal(m.first, [SQRT2, 0.0, 0.0, 0.0])
    assert m.third[0, 0, 0] == (SQRT2 * SQRT2) * SQRT2
    assert m.third[0, 1, 1] == SQRT2
    assert m.third[1, 1, 1] == 0.0
    # symmetric storage
    assert np.array_equal(m.third, np.swapaxes(m.third, 1, 2))


def test_weighted_mean_interpolates():
    ws = np.array([3.0, 1.0])
    m = compute_moments(BeamEnsemble(TWO_SAMPLES, ws=ws))
    assert abs(m.first[1] - 0.5) < 1e-15


def test_delta_moments_are_monomials():
    y = project_to_hyperboloid([0.1, 2.0, -0.3])
    d = delta_moments(y)
    assert d.vol == 1.0
    assert np.array_equal(d.first, y)
    assert np.array_equal(d.third, velocity_monomials3(y))


def test_energy_stats_frozen():
    es = energy_stats(BeamEnsemble(TWO_SAMPLES))
    assert es.energy == SQRT2
    assert es.alpha == 2.0  # spatial support diameter


def _energy_stats_in_chunks(ens, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ensemble_module, "_CHUNK", chunk)
        return energy_stats(ens)


def test_energy_stats_chunking_agrees():
    ens = sample_gaussian_beam([0.0, 5.0, 0.0], [0.01] * 3, n=300, seed=2)
    a = _energy_stats_in_chunks(ens, 7)
    b = _energy_stats_in_chunks(ens, 300)
    assert a.energy == b.energy
    assert a.alpha == b.alpha


def _brute_force_energy_stats(ys):
    """The plain scan over all n^2 pairs, components summed in order from zero."""
    best = 0.0
    for a in range(len(ys)):
        d2 = np.zeros(len(ys))
        for c in range(4):
            diff = ys[a, c] - ys[:, c]
            d2 += diff * diff
        best = max(best, float(np.max(d2)))
    return float(np.min(ys[:, 0])), math.sqrt(best)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 200),
    speed=st.floats(0.0, 50.0),
    log_sigma=st.floats(-7.0, -1.0),
    shape=st.sampled_from(["gaussian", "two-blobs", "duplicates", "flat"]),
    chunk=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_energy_stats_equals_brute_force_scan(n, speed, log_sigma, shape, chunk, seed):
    rng = np.random.default_rng(seed)
    sigma = 10.0 ** log_sigma * rng.uniform(0.1, 1.0, size=3)
    draws = np.array([0.0, speed, 0.0]) + sigma * rng.standard_normal((n, 3))
    if shape == "two-blobs":
        draws[: n // 2] += 5.0 * sigma
    elif shape == "duplicates":
        draws = draws[rng.integers(0, max(1, n // 4), size=n)]
    elif shape == "flat":
        draws[:, 2] = speed  # a plane of samples, many equal distances
    ens = BeamEnsemble(project_to_hyperboloid(draws))
    es = _energy_stats_in_chunks(ens, chunk)
    assert (es.energy, es.alpha) == _brute_force_energy_stats(ens.ys)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 200), gamma=st.floats(1.0, 1e3), log_sigma=st.floats(-6.0, -1.0),
       seed=st.integers(0, 2**32 - 1))
def test_third_moment_is_totally_symmetric(n, gamma, log_sigma, seed):
    rng = np.random.default_rng(seed)
    mean = np.array([0.0, math.sqrt(gamma * gamma - 1.0), 0.0])
    draws = mean + 10.0 ** log_sigma * rng.standard_normal((n, 3))
    ws = rng.uniform(0.0, 2.0, size=n)
    ws[rng.integers(n)] = 1.0  # positive total weight
    third = compute_moments(BeamEnsemble(project_to_hyperboloid(draws), ws)).third
    for perm in itertools.permutations(range(3)):
        assert np.array_equal(third, third.transpose(perm))


def test_gaussian_sampler_reproducible_and_on_shell():
    a = sample_gaussian_beam([0.0, 10.0, 0.0], [0.05] * 3, n=500, seed=9)
    b = sample_gaussian_beam([0.0, 10.0, 0.0], [0.05] * 3, n=500, seed=9)
    assert np.array_equal(a.ys, b.ys)
    assert a.ys.shape == (500, 4)
    res = a.ys[:, 0] ** 2 - np.sum(a.ys[:, 1:] ** 2, axis=1) - 1.0
    assert np.max(np.abs(res) / np.maximum(1.0, a.ys[:, 0] ** 2)) < 1e-12
    spread = np.abs(a.ys[:, 1:].mean(axis=0) - [0.0, 10.0, 0.0]).max()
    assert spread < 0.05  # sample mean of 500 draws at sigma 0.05


def test_gaussian_support_diameter_window():
    # sigma 0.01, n = 1e4: the spatial diameter concentrates near
    # 2 * sigma * sqrt(2 ln n) ~ 0.086
    ens = sample_gaussian_beam([0.0, 3.0, 0.0], [0.01] * 3, n=10_000, seed=4)
    es = energy_stats(ens)
    assert 0.04 <= es.alpha <= 0.12


def test_sampler_rejects_bad_count():
    with pytest.raises(InvalidCount):
        sample_gaussian_beam([0.0, 1.0, 0.0], [0.01] * 3, n=0, seed=1)


def test_ensemble_csv_round_trip(tmp_path):
    ens = sample_gaussian_beam([0.2, 4.0, -0.1], [0.02] * 3, n=37, seed=8)
    p = tmp_path / "beam.csv"
    write_ensemble_csv(ens, p)
    back = read_ensemble_csv(p)
    assert np.array_equal(back.ys, ens.ys)
    assert np.array_equal(back.ws, ens.ws)
    assert p.read_text().splitlines()[0] == "y0,y1,y2,y3,w"


def test_parse_beam_gaussian():
    d = parse_beam_definition(
        "distribution=gaussian\nmean=0,10,0\nsigma=0.01,0.01,0.01\nn=100\nseed=3\n"
    )
    assert d.distribution == "gaussian"
    assert np.array_equal(d.mean, [0.0, 10.0, 0.0])
    assert d.n == 100 and d.seed == 3
    v = d.central_velocity()
    assert v[0] == np.sqrt(101.0)


def test_parse_beam_delta_and_realize():
    d = parse_beam_definition("distribution=delta\nmean=0,2,0\nn=5\n")
    ens = realize_beam(d)
    assert ens.ys.shape == (5, 4)
    assert np.array_equal(ens.ys, np.tile(ens.ys[0], (5, 1)))


def test_parse_beam_errors():
    with pytest.raises(ParseError):
        parse_beam_definition("distribution=uniform\nmean=0,1,0\n")
    with pytest.raises(ParseError):
        parse_beam_definition("distribution=gaussian\nmean=0,1,0\nn=10\nseed=1\n")  # no sigma
    with pytest.raises(DuplicateKey):
        parse_beam_definition("distribution=delta\nmean=0,1,0\nmean=0,2,0\n")
    with pytest.raises(ParseError):
        parse_beam_definition("distribution=delta\nmean=0,abc,0\n")


@pytest.mark.parametrize("key, bad", [
    ("distribution", "uniform"),
    ("mean", "0,1,x"),
    ("sigma", "0.01,0.01"),
    ("n", "ten"),
    ("seed", "1.5"),
    ("n", "0"),
    ("n", "-3"),
    ("sigma", "-1,0,0"),
    ("sigma", "0.01,nan,0.01"),
    ("sigma", "0.01,0.01,inf"),
    ("seed", "-1"),
    ("mean", "0,nan,0"),
    ("mean", "-inf,1,0"),
    ("mean", "0,,1,0"),
    ("sigma", "0.01,0.01,0.01,"),
])
def test_parse_beam_error_names_the_line_of_the_bad_value(key, bad):
    good = {"distribution": "gaussian", "mean": "0,1,0", "sigma": "0.01,0.01,0.01",
            "n": "10", "seed": "1"}
    good[key] = bad
    lines = ["# beam"] + [f"{k}={v}" for k, v in good.items()]
    with pytest.raises(ParseError) as err:
        parse_beam_definition("\n".join(lines) + "\n")
    assert err.value.line == 2 + list(good).index(key)


@pytest.mark.parametrize("n", ["0", "-3"])
def test_parse_delta_beam_rejects_nonpositive_count(n):
    with pytest.raises(ParseError) as err:
        parse_beam_definition(f"distribution=delta\nmean=0,2,0\nn={n}\n")
    assert err.value.line == 3


def _good_or_bad(good, bad):
    return st.one_of(st.sampled_from(good), st.sampled_from(bad))


_BEAM_NUMBER = _good_or_bad(["0", "1", "2", "0.01", "1.5"],
                            ["-1", "nan", "inf", "-inf", "1e400", "x", ""])
_TRIPLET = st.one_of(st.lists(_BEAM_NUMBER, min_size=3, max_size=3),
                     st.lists(_BEAM_NUMBER, min_size=2, max_size=4)).map(",".join)
_BEAM_VALUE = {
    "mean": _TRIPLET,
    "sigma": _TRIPLET,
    "n": _good_or_bad(["1", "2"], ["0", "-3", "1.5", "x"]),
    "seed": _good_or_bad(["0", "7"], ["-1", "1.5", "x"]),
}


@st.composite
def _beam_text(draw):
    """A beam file, mostly well formed, with bad values and stray lines mixed in."""
    dist = draw(st.sampled_from(["gaussian", "delta", "uniform"]))
    keys = ["mean", "n"] + (["sigma", "seed"] if dist == "gaussian" else [])
    lines = [f"distribution={dist}"] + [f"{k}={draw(_BEAM_VALUE[k])}" for k in keys]
    lines += draw(st.lists(st.sampled_from(["# comment", "", "x=1", "mean=0,1,0", "=="]),
                           max_size=2))
    return "\n".join(draw(st.permutations(lines)))


@settings(max_examples=300, deadline=None)
@given(text=_beam_text())
def test_beam_file_raises_only_library_errors(text):
    try:
        realize_beam(parse_beam_definition(text))
    except AvgBeamError:
        pass


def test_parse_beam_missing_key_reports_line_zero():
    with pytest.raises(ParseError) as err:
        parse_beam_definition("distribution=gaussian\nmean=0,1,0\nn=10\nseed=1\n")
    assert err.value.line == 0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_ensemble_rejects_non_finite_weights(bad):
    ws = np.ones(6)
    ws[2] = bad
    with pytest.raises(NonFiniteValue, match="sample 2 weight must be finite"):
        BeamEnsemble(np.tile(TWO_SAMPLES[0], (6, 1)), ws=ws)


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_ensemble_file_names_the_line_of_a_non_finite_value(tmp_path, value):
    p = tmp_path / "beam.csv"
    rows = [",".join(repr(float(c)) for c in TWO_SAMPLES[0]) + ",1.0"] * 3
    rows[1] = rows[1].rsplit(",", 1)[0] + "," + value  # the weight of line 3
    p.write_text("y0,y1,y2,y3,w\n" + "\n".join(rows) + "\n")
    with pytest.raises(ParseError) as err:
        read_ensemble_csv(p)
    assert err.value.line == 3


_ROW = ",".join(repr(float(c)) for c in TWO_SAMPLES[0]) + ",1.0"


@pytest.mark.parametrize("text, error, line", [
    ("y0,y1,y2,y3\n" + _ROW + "\n", ParseError, 1),
    ("y0,y1,y2,y3,w\n" + _ROW + "\n" + _ROW + ",1.0\n", ParseError, 3),
    ("y0,y1,y2,y3,w\n" + _ROW.replace("1.0", "one", 1) + "\n", ParseError, 2),
    ("y0,y1,y2,y3,w\n\n", EmptyEnsemble, None),
], ids=["header", "columns", "non-numeric", "no-samples"])
def test_ensemble_file_errors(tmp_path, text, error, line):
    p = tmp_path / "beam.csv"
    p.write_text(text)
    with pytest.raises(error) as err:
        read_ensemble_csv(p)
    assert getattr(err.value, "line", None) == line


def test_moment_set_rejects_non_finite_moments():
    y = TWO_SAMPLES[0]
    mono = velocity_monomials3(y)
    for vol, first, third in ((math.inf, y, mono), (math.nan, y, mono),
                              (1.0, np.array([math.nan, 1.0, 0.0, 0.0]), mono),
                              (1.0, np.array([1.5, math.inf, 0.0, 0.0]), mono),
                              (1.0, y, np.where(mono == mono[1, 1, 1], math.nan, mono))):
        with pytest.raises(NonFiniteValue):
            MomentSet(vol=vol, first=first, third=third)


def test_ensemble_rejection_names_first_bad_sample():
    ys = np.tile(TWO_SAMPLES[0], (6, 1))
    ys[3, 0] = 1.5
    with pytest.raises(OffShell, match="sample 3 "):
        BeamEnsemble(ys)
    ws = np.ones(6)
    ws[4] = -1.0
    with pytest.raises(ValueError, match="sample 4 "):
        BeamEnsemble(np.tile(TWO_SAMPLES[0], (6, 1)), ws=ws)
