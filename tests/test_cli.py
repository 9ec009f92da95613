"""Command line front end: artifacts, exit codes, and determinism."""

import inspect
import json

import numpy as np
import pytest

import avgbeam
from avgbeam import (
    TrajectoryState,
    dynamics,
    load_lattice,
    parse_beam_definition,
    read_jacobi_csv,
    read_trajectory_csv,
)
from avgbeam.cli import build_parser, main

DIPOLE = "element dipole length=25.0 b0=0.05\n"
DELTA_BEAM = "distribution=delta\nmean=0,10,0\n"
GAUSS_BEAM = "distribution=gaussian\nmean=0,10,0\nsigma=0.01,0.01,0.01\nn=200\nseed=7\n"


@pytest.fixture
def files(tmp_path):
    lat = tmp_path / "line.lat"
    lat.write_text(DIPOLE)
    delta = tmp_path / "delta.beam"
    delta.write_text(DELTA_BEAM)
    gauss = tmp_path / "gauss.beam"
    gauss.write_text(GAUSS_BEAM)
    return tmp_path, lat, delta, gauss


def test_track_writes_trajectory(files):
    tmp, lat, delta, _ = files
    out = tmp / "traj.csv"
    rc = main(["track", "--lattice", str(lat), "--beam", str(delta),
               "--step", "1e-3", "--span", "0.5", "--out", str(out)])
    assert rc == 0
    ser = read_trajectory_csv(out)
    assert ser.t[0] == 0.0 and ser.t[-1] >= 0.5
    assert abs(ser.v[0, 2] - 10.0) < 1e-12
    assert out.read_text().splitlines()[0] == "t,x0,x1,x2,x3,v0,v1,v2,v3"


def test_track_forms_agree_closely(files):
    # track's connection form against the direct force form on the same launch
    tmp, lat, delta, _ = files
    a = tmp / "conn.csv"
    main(["track", "--lattice", str(lat), "--beam", str(delta),
          "--step", "1e-3", "--span", "0.5", "--out", str(a)])
    launch = TrajectoryState(0.0, np.zeros(4),
                             parse_beam_definition(delta.read_text()).central_velocity())
    sb = dynamics._orbit(dynamics._rhs_force(load_lattice(lat)), launch, 0.5, 1e-3)
    assert np.abs(read_trajectory_csv(a).x - sb.x).max() < 1e-9


def test_avg_track_delta_equals_track(files):
    tmp, lat, delta, _ = files
    a, b = tmp / "t.csv", tmp / "avg.csv"
    main(["track", "--lattice", str(lat), "--beam", str(delta),
          "--step", "1e-3", "--span", "0.5", "--out", str(a)])
    main(["avg-track", "--lattice", str(lat), "--beam", str(delta),
          "--step", "1e-3", "--span", "0.5", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_jacobi_artifact(files):
    tmp, lat, _, gauss = files
    out = tmp / "jac.csv"
    rc = main(["jacobi", "--lattice", str(lat), "--beam", str(gauss),
               "--step", "1e-3", "--span", "0.4", "--out", str(out),
               "--xi0", "0,1e-3,0,0", "--dxi0", "0,0,0,0"])
    assert rc == 0
    run = read_jacobi_csv(out)
    assert run.xi[0, 1] == 1e-3
    assert out.read_text().splitlines()[0] == "t,xi0,xi1,xi2,xi3,dxi0,dxi1,dxi2,dxi3"


def test_transverse_and_longitudinal(files, tmp_path):
    tmp, lat, _, _ = files
    out = tmp / "tv.csv"
    rc = main(["transverse", "--lattice", str(lat), "--step", "1e-3",
               "--span", "6.0", "--out", str(out),
               "--xi0", "0,1e-3,0,0", "--dxi0", "0,0,0,0"])
    assert rc == 0
    run = read_jacobi_csv(out)
    # rho = 20 m dipole: horizontal harmonic at 1/rho
    want = 1e-3 * np.cos(run.t / 20.0)
    assert np.abs(run.xi[:, 1] - want).max() < 1e-9

    rf = tmp_path / "rf.lat"
    rf.write_text("element rf length=20.0 e2_0=1.0 w_rf=3.0\n")
    out2 = tmp / "lg.csv"
    rc = main(["longitudinal", "--lattice", str(rf), "--step", "1e-3",
               "--span", "1.0", "--out", str(out2),
               "--xi0", "0,0,1e-4,0", "--dxi0", "0,0,0,0", "--gamma", "1.0"])
    assert rc == 0
    run2 = read_jacobi_csv(out2)
    assert np.abs(run2.xi[:, 2] - 1e-4 * np.cosh(np.sqrt(2.0) * run2.t)).max() < 1e-9


def test_transverse_runs_a_pure_quadrupole(tmp_path):
    # b0 = 0 has no design radius, but K = (-b1, b1) is well defined
    lat = tmp_path / "quad.lat"
    lat.write_text("element quad_dipole length=1.0 b0=0.0 b1=0.8\n")
    out = tmp_path / "tv.csv"
    rc = main(["transverse", "--lattice", str(lat), "--step", "1e-3", "--span", "1.0",
               "--out", str(out), "--xi0", "0,1e-3,0,1e-3", "--dxi0", "0,0,0,0"])
    assert rc == 0
    run = read_jacobi_csv(out)
    w = np.sqrt(0.8)
    assert np.abs(run.xi[:, 1] - 1e-3 * np.cosh(w * run.t)).max() < 1e-15
    assert np.abs(run.xi[:, 3] - 1e-3 * np.cos(w * run.t)).max() < 1e-15


# the linear channels' CSVs; in a b0 = 0.05 dipole the transverse dxi1 is
# a one-digit exponent (e-6 ... e-9) on every row after the first, as on
# the benchmark's bunch-dipole; in a focusing quad_dipole, as in the
# benchmark's FODO cells, it passes through [1e-5, 1e-4)
_CSV_JOBS = {
    "transverse": ["transverse", "--lattice", "DIPOLE", "--step", "2.5e-4", "--span", "1.0",
                   "--xi0", "0,3e-3,0,0", "--dxi0", "0,0,0,0"],
    "transverse-quad": ["transverse", "--lattice", "QUAD", "--step", "2.5e-4", "--span", "1.0",
                        "--xi0", "0,3e-3,0,0", "--dxi0", "0,0,0,0"],
    "longitudinal": ["longitudinal", "--lattice", "RF", "--step", "1e-3", "--span", "1.0",
                     "--xi0", "0,0,1e-3,0", "--dxi0", "0,0,0,0"],
    "dispersion": ["dispersion", "--lattice", "DIPOLE", "--step", "1e-3", "--delta", "1e-3"],
}


@pytest.mark.parametrize("job", sorted(_CSV_JOBS))
def test_csv_artifact_bytes_equal_without_orjson(tmp_path, monkeypatch, job):
    pytest.importorskip("orjson")
    (tmp_path / "dipole.lat").write_text("element dipole length=1.0 b0=0.05\n")
    (tmp_path / "rf.lat").write_text("element rf length=20.0 e2_0=1.0 w_rf=3.0\n")
    (tmp_path / "quad.lat").write_text("element quad_dipole length=1.0 b0=0.02 b1=0.8\n")
    files = {"DIPOLE": str(tmp_path / "dipole.lat"), "RF": str(tmp_path / "rf.lat"),
             "QUAD": str(tmp_path / "quad.lat")}
    argv = [files.get(a, a) for a in _CSV_JOBS[job]]
    fast, plain = tmp_path / "orjson.csv", tmp_path / "repr.csv"
    assert main([*argv, "--out", str(fast)]) == 0
    assert dynamics._orjson is not None
    monkeypatch.setattr(dynamics, "_orjson", None)
    assert main([*argv, "--out", str(plain)]) == 0
    assert fast.read_bytes() == plain.read_bytes()
    if job == "transverse":
        assert all(b"e-0" in row.split(b",")[6] for row in fast.read_bytes().splitlines()[2:])
    if job == "transverse-quad":
        size = np.abs(read_jacobi_csv(fast).dxi[:, 1])
        assert ((size >= 1e-5) & (size < 1e-4)).sum() > 100


# every CSV job on a one-element line, so dispersion meets no edge; each
# artifact holds more than one block of rows
_ROW_JOBS = {
    "track": ["track", "--lattice", "LAT", "--beam", "DELTA", "--step", "1e-3", "--span", "1.1"],
    "avg-track": ["avg-track", "--lattice", "LAT", "--beam", "GAUSS", "--step", "1e-3",
                  "--span", "1.1"],
    "jacobi": ["jacobi", "--lattice", "LAT", "--beam", "GAUSS", "--step", "1e-3", "--span", "1.1",
               "--xi0", "0,1e-3,0,0", "--dxi0", "0,0,0,0"],
    "offset": ["offset", "--lattice", "LAT", "--beam", "GAUSS", "--step", "1e-3", "--span", "1.1"],
    "transverse": ["transverse", "--lattice", "LAT", "--step", "2.5e-4", "--span", "1.0",
                   "--xi0", "0,3e-3,0,0", "--dxi0", "0,0,0,0"],
    "longitudinal": ["longitudinal", "--lattice", "RF", "--step", "1e-3", "--span", "1.1",
                     "--xi0", "0,0,1e-3,0", "--dxi0", "0,0,0,0"],
    "dispersion": ["dispersion", "--lattice", "LAT", "--step", "1e-2", "--delta", "1e-3"],
}


@pytest.mark.parametrize("job", sorted(_ROW_JOBS))
def test_csv_artifact_lines_are_rows_of_reprs(files, job):
    tmp, lat, delta, gauss = files
    rf = tmp / "rf.lat"
    rf.write_text("element rf length=20.0 e2_0=1.0 w_rf=3.0\n")
    names = {"LAT": str(lat), "DELTA": str(delta), "GAUSS": str(gauss), "RF": str(rf)}
    out = tmp / "rows.csv"
    assert main([names.get(a, a) for a in _ROW_JOBS[job]] + ["--out", str(out)]) == 0
    text = out.read_text()
    assert text.endswith("\n")
    header, *lines = text.splitlines()
    assert len(lines) > dynamics._BLOCK_ROWS
    width = header.count(",") + 1
    for line in lines:
        cells = line.split(",")
        assert len(cells) == width
        assert line == ",".join(repr(float(c)) for c in cells)


def test_moments_json(files):
    tmp, _, _, gauss = files
    out = tmp / "m.json"
    rc = main(["moments", "--beam", str(gauss), "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert set(data) >= {"vol", "first", "third", "energy", "alpha"}
    assert data["vol"] == 200.0
    assert abs(data["first"][2] - 10.0) < 0.01


def test_offset_csv(files):
    tmp, lat, _, gauss = files
    out = tmp / "off.csv"
    rc = main(["offset", "--lattice", str(lat), "--beam", str(gauss),
               "--step", "1e-3", "--span", "0.4", "--out", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[0] == "t,off1,off3,avg1,avg3"


def test_dispersion_csv(files):
    tmp, lat, _, _ = files
    out = tmp / "disp.csv"
    rc = main(["dispersion", "--lattice", str(lat), "--step", "1e-3",
               "--delta", "1e-3", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "t,C,S,D,off"
    assert len(rows) == 25002  # 25 m at 1 mm plus header
    # one dipole's closed-form map: C = cos(b0 l), S = sin(b0 l) / b0
    l, C, S = np.loadtxt(out, delimiter=",", skiprows=1, usecols=(0, 1, 2)).T
    assert np.abs(C - np.cos(0.05 * l)).max() <= 1e-13
    assert np.abs(0.05 * S - np.sin(0.05 * l)).max() <= 1e-13


def test_scan_alpha_json(files):
    tmp, lat, _, _ = files
    out = tmp / "scan.json"
    rc = main(["scan-alpha", "--lattice", str(lat),
               "--alphas", "0.02,0.01,0.005", "--span", "2.0", "--seed", "42",
               "--n", "300", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["alphas"] == [0.02, 0.01, 0.005]
    assert len(data["deviations"]) == 3
    assert np.isfinite(data["fitted_exponent"])


def test_validate_json(files):
    tmp, lat, _, _ = files
    out = tmp / "val.json"
    rc = main(["validate", "--lattice", str(lat), "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["max_relative_error"] <= 1e-10


def test_runs_are_byte_deterministic(files):
    tmp, lat, _, gauss = files
    a, b = tmp / "a.out", tmp / "b.out"
    invocations = [
        ["track", "--lattice", str(lat), "--beam", str(gauss),
         "--step", "1e-3", "--span", "0.3"],
        ["jacobi", "--lattice", str(lat), "--beam", str(gauss),
         "--step", "1e-3", "--span", "0.3", "--xi0", "0,1e-3,0,0", "--dxi0", "0,0,0,0"],
        ["moments", "--beam", str(gauss)],
        ["scan-alpha", "--lattice", str(lat), "--alphas", "0.02,0.01,0.005",
         "--span", "1.0", "--seed", "3", "--n", "100"],
    ]
    for argv in invocations:
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), argv[0]


def test_missing_file_exits_one(files, capsys):
    tmp, lat, _, _ = files
    rc = main(["track", "--lattice", str(tmp / "nope.lat"), "--beam", str(tmp / "nope.beam"),
               "--step", "1e-3", "--span", "1.0", "--out", str(tmp / "x.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("avgbeam:")
    assert "nope" in err


def test_domain_error_exits_one(files, capsys):
    tmp, lat, delta, _ = files
    rc = main(["track", "--lattice", str(lat), "--beam", str(delta),
               "--step", "20.0", "--span", "30.0", "--out", str(tmp / "x.csv")])
    assert rc == 1
    assert "step" in capsys.readouterr().err


def test_non_finite_lattice_value_exits_one(tmp_path, capsys):
    lat = tmp_path / "inf.lat"
    lat.write_text("element dipole length=inf b0=0.1\n")
    rc = main(["dispersion", "--lattice", str(lat), "--step", "1e-3",
               "--delta", "1e-3", "--out", str(tmp_path / "d.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("avgbeam:")
    assert "line 1" in err


_ORBIT = ["--step", "1e-3", "--span", "0.3"]
_DEVIATION = ["--xi0", "0,1e-3,0,0", "--dxi0", "0,0,0,0"]


# every span subcommand, with a span whose step count at 1e-3 overflows
_SPAN_OVERFLOW = {
    "track-span-overflow": ["track", "--lattice", "LAT", "--beam", "DELTA"],
    "avg-track-span-overflow": ["avg-track", "--lattice", "LAT", "--beam", "GAUSS"],
    "jacobi-span-overflow": ["jacobi", "--lattice", "LAT", "--beam", "GAUSS", *_DEVIATION],
    "offset-span-overflow": ["offset", "--lattice", "LAT", "--beam", "GAUSS"],
    "transverse-span-overflow": ["transverse", "--lattice", "LAT", *_DEVIATION],
    "longitudinal-span-overflow": ["longitudinal", "--lattice", "RF",
                                   "--xi0", "0,0,0.001,0", "--dxi0", "0,0,0,0"],
    "scan-alpha-span-overflow": ["scan-alpha", "--lattice", "LAT", "--alphas", "0.02,0.01,0.005",
                                 "--seed", "3", "--n", "100"],
}


@pytest.mark.parametrize("code, argv", [
    (1, ["transverse", "--lattice", "LAT", *_ORBIT, *_DEVIATION, "--rho", "0"]),
    (2, ["track", "--lattice", "LAT", "--beam", "DELTA", "--step", "1e-3", "--span", "inf"]),
    (2, ["avg-track", "--lattice", "LAT", "--beam", "DELTA", "--step", "1e-3",
         "--span", "nan"]),
    (2, ["dispersion", "--lattice", "LAT", "--step", "1e-3", "--delta", "nan"]),
    (2, ["longitudinal", "--lattice", "RF", *_ORBIT, *_DEVIATION, "--gamma", "nan"]),
    (2, ["jacobi", "--lattice", "LAT", "--beam", "GAUSS", *_ORBIT,
         "--xi0", "nan,1e-3,0,0", "--dxi0", "0,0,0,0"]),
    (2, ["scan-alpha", "--lattice", "LAT", "--alphas", "0.02,nan,0.005", "--span", "1.0",
         "--seed", "3", "--n", "100"]),
    (1, ["validate", "--lattice", "LAT", "--fd-step", "0"]),
    *[(1, [*argv, "--step", "1e-3", "--span", "1e308"]) for argv in _SPAN_OVERFLOW.values()],
], ids=["rho-zero", "span-inf", "span-nan", "delta-nan", "gamma-nan",
        "xi0-nan", "alpha-nan", "fd-step-zero", *_SPAN_OVERFLOW])
def test_bad_numeric_input_is_a_one_line_error(files, capsys, code, argv):
    tmp, lat, delta, gauss = files
    rf = tmp / "rf.lat"
    rf.write_text("element rf length=20.0 e2_0=1.0 w_rf=3.0\n")
    names = {"LAT": str(lat), "DELTA": str(delta), "GAUSS": str(gauss), "RF": str(rf)}
    out = tmp / "x.out"
    try:
        rc = main([names.get(a, a) for a in argv] + ["--out", str(out)])
    except SystemExit as e:  # argparse usage error
        rc = e.code
    assert rc == code
    err = capsys.readouterr().err.splitlines()
    if code == 1:
        assert len(err) == 1 and err[0].startswith("avgbeam:")
    else:
        assert [line for line in err if "error:" in line] == [err[-1]]
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("code, flags, needle", [
    (2, ["--gamma", "0.5"], "--gamma"),
    (2, ["--gamma", "1"], "--gamma"),
    (2, ["--span", "-1"], "--span"),
    (1, ["--n", "0"], "sample count"),
    (2, ["--seed", "-1"], "--seed"),
], ids=["gamma-below-one", "gamma-one", "span-negative", "no-samples", "seed-negative"])
def test_scan_alpha_rejects_bad_beam_before_running(files, capsys, code, flags, needle):
    tmp, lat, _, _ = files
    out = tmp / "scan.json"
    argv = ["scan-alpha", "--lattice", str(lat), "--alphas", "0.02,0.01,0.005",
            "--span", "1.0", "--seed", "3", *flags, "--out", str(out)]
    try:
        rc = main(argv)
    except SystemExit as e:  # argparse usage error
        rc = e.code
    assert rc == code
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if needle in line] == [err[-1]]
    assert code == 2 or len(err) == 1
    assert not out.exists()


# argparse takes only -N and -N.N for negative numbers; a negative value
# with an exponent or in a list must reach the same check as its
# --flag=value form does
_NEGATIVE_VALUES = {
    "xi0-list": (0, ["transverse", "--lattice", "LAT", *_ORBIT, "--dxi0", "0,0,0,0",
                     "--xi0", "-1e-3,0,0,0"]),
    "dxi0-list": (0, ["transverse", "--lattice", "LAT", *_ORBIT, "--xi0", "0,1e-3,0,0",
                      "--dxi0", "-0.5,0,0,0"]),
    "rho-exponent": (0, ["transverse", "--lattice", "LAT", *_ORBIT, *_DEVIATION, "--rho", "-2e1"]),
    "span-exponent": (1, ["track", "--lattice", "LAT", "--beam", "DELTA", "--step", "1e-3",
                          "--span", "-5e-1"]),
    "delta-exponent": (1, ["dispersion", "--lattice", "LAT", "--step", "1e-3", "--delta", "-1e-3"]),
}


@pytest.mark.parametrize("name", sorted(_NEGATIVE_VALUES))
def test_negative_value_after_flag_reaches_its_check(files, capsys, name):
    tmp, lat, delta, _ = files
    code, argv = _NEGATIVE_VALUES[name]
    argv = [{"LAT": str(lat), "DELTA": str(delta)}.get(a, a) for a in argv]
    spaced, joined = tmp / "spaced.out", tmp / "joined.out"
    assert main([*argv, "--out", str(spaced)]) == code
    err = capsys.readouterr().err
    assert main([*argv[:-2], f"{argv[-2]}={argv[-1]}", "--out", str(joined)]) == code
    assert capsys.readouterr().err == err
    if code:
        assert len(err.splitlines()) == 1 and err.startswith("avgbeam:")
        assert not spaced.exists()
    else:
        assert spaced.read_bytes() == joined.read_bytes()
        assert read_jacobi_csv(spaced).xi[0, 0] == (-1e-3 if name == "xi0-list" else 0.0)
    if name == "delta-exponent":
        assert err == "avgbeam: momentum spread must be nonnegative, got -0.001\n"


@pytest.mark.parametrize("name", ["track-span-overflow", "transverse-span-overflow"],
                         ids=["track", "transverse"])
def test_grid_past_numpy_size_limit_names_span_step_and_count(files, capsys, name):
    # 1e20 / 1e-3 is a finite step count that numpy refuses before it allocates
    tmp, lat, delta, _ = files
    out = tmp / "x.out"
    argv = [{"LAT": str(lat), "DELTA": str(delta)}.get(a, a) for a in _SPAN_OVERFLOW[name]]
    assert main(argv + ["--step", "1e-3", "--span", "1e20", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "avgbeam: integration span 1e+20 over step 0.001 overflows the step count: "
        "1e+23 steps, more than a grid can hold\n")
    assert not out.exists()


@pytest.mark.parametrize("span", ["1e308", "1e20"])
def test_scan_alpha_span_error_names_the_lab_span(files, capsys, span):
    # at gamma 10 the proper-time span s / |u_c| is not the --span given
    tmp, lat, _, _ = files
    out = tmp / "scan.json"
    rc = main(["scan-alpha", "--lattice", str(lat), "--alphas", "0.02,0.01,0.005", "--seed", "3",
               "--n", "100", "--gamma", "10", "--step", "1e-3", "--span", span, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"avgbeam: lab path length {float(span)!r} over step 0.001 gives "
                             "no grid: ")
    assert "integration span" not in err[0]
    assert not out.exists()


# every keyword parameter with a default in the public API and every optional
# flag of the CLI, after the settable-value audits
_DEFAULTED_PARAMETERS = [
    "BeamDefinition(sigma)", "BeamDefinition(n)", "BeamDefinition(seed)", "BeamEnsemble(ws)",
    "FieldSample(grad)", "JacobiSeries(decoupling_ok)", "check_on_shell(exc)",
    "check_on_shell(label)", "field_at(xi)", "integrate_jacobi_full(mode)", "momentum_spread(p0)",
    "validate_field_gradients(step)",
]
_OPTIONAL_FLAGS = [
    "jacobi --mode", "transverse --rho", "longitudinal --gamma", "scan-alpha --step",
    "scan-alpha --n", "scan-alpha --gamma", "validate --fd-step",
]


def test_option_surface_is_pinned(files, capsys):
    defaulted = []
    for name in avgbeam.__all__:
        obj = getattr(avgbeam, name)
        if not callable(obj) or (isinstance(obj, type) and issubclass(obj, BaseException)):
            continue
        defaulted += [f"{name}({p.name})" for p in inspect.signature(obj).parameters.values()
                      if p.default is not inspect.Parameter.empty]
    assert defaulted == _DEFAULTED_PARAMETERS

    (commands,) = [a for a in build_parser()._actions if a.choices]
    flags = [f"{command} {action.option_strings[-1]}"
             for command, parser in commands.choices.items() for action in parser._actions
             if action.option_strings and not action.required and action.dest != "help"]
    assert flags == _OPTIONAL_FLAGS

    # the retired options are gone, not ignored
    tmp, lat, delta, _ = files
    lattice, cfg = load_lattice(lat), avgbeam.IntegratorConfig(step=1e-3)
    launch = TrajectoryState(0.0, np.zeros(4), avgbeam.project_to_hyperboloid([0.0, 10.0, 0.0]))
    run = avgbeam.integrate_lorentz(lattice, launch, 0.1, cfg)
    with pytest.raises(TypeError):
        avgbeam.integrate_lorentz(lattice, launch, 0.1, cfg, form="force")
    with pytest.raises(TypeError):
        avgbeam.endpoint_deviation(run, run, comparison="proper-time")
    with pytest.raises(TypeError):
        avgbeam.optics_profiles(lattice, "horizontal", 0.25)
    out = tmp / "track.csv"
    with pytest.raises(SystemExit) as usage:
        main(["track", "--lattice", str(lat), "--beam", str(delta), "--step", "1e-3",
              "--span", "0.1", "--out", str(out), "--form", "force"])
    assert usage.value.code == 2 and "--form" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("code, argv, needle", [
    (2, ["longitudinal", "--lattice", "RF", *_ORBIT, *_DEVIATION, "--gamma", "0.5"], "--gamma"),
    (2, ["longitudinal", "--lattice", "RF", *_ORBIT, *_DEVIATION, "--gamma", "-3"], "--gamma"),
    (2, ["jacobi", "--lattice", "LAT", "--beam", "GAUSS", *_ORBIT,
         "--xi0", "0,1e-3,0", "--dxi0", "0,0,0,0"], "expected 4 comma-separated floats"),
    (2, ["scan-alpha", "--lattice", "LAT", "--alphas", ",", "--span", "1.0", "--seed", "3"],
     "expected a comma-separated list of alphas"),
    (1, ["dispersion", "--lattice", "LAT", "--step", "1e-3", "--delta", "-0.001"],
     "momentum spread must be nonnegative"),
    (1, ["dispersion", "--lattice", "EDGED", "--step", "0.2", "--delta", "1e-3"],
     "element boundary at 0.3 is not aligned to step 0.2"),
    # known defect: D's finite-difference residual sees the jumps in K and 1/rho
    (1, ["dispersion", "--lattice", "EDGED", "--step", "0.1", "--delta", "1e-3"],
     "avgbeam: particular-solution residual"),
    (2, ["jacobi", "--lattice", "LAT", "--beam", "GAUSS", *_ORBIT, *_DEVIATION, "--rho", "5.0"],
     "--rho"),
    (2, ["scan-alpha", "--lattice", "LAT", "--alphas", "0.02,0.01,0.005", "--span", "1.0",
         "--seed", "3", "--comparison", "proper-time"], "--comparison"),
    (2, ["jacobi", "--lattice", "LAT", "--beam", "GAUSS", *_ORBIT, *_DEVIATION,
         "--frame", "arc"], "--frame"),
    (1, ["longitudinal", "--lattice", "RF", "--step", "0.1", "--span", "30", *_DEVIATION],
     "leaves element of length 20.0"),
], ids=["longitudinal-gamma-below-one", "longitudinal-gamma-negative", "xi0-three-values",
        "alphas-empty", "delta-negative", "step-misses-inner-edge", "edged-dispersion-residual",
        "jacobi-rho-removed", "scan-comparison", "jacobi-frame-removed",
        "longitudinal-past-element"])
def test_bad_input_is_rejected_by_name(files, capsys, code, argv, needle):
    tmp, lat, _, gauss = files
    rf, edged = tmp / "rf.lat", tmp / "edged.lat"
    rf.write_text("element rf length=20.0 e2_0=1.0 w_rf=3.0\n")
    edged.write_text("element dipole length=0.3 b0=0.1\nelement drift length=0.7\n")
    names = {"LAT": str(lat), "GAUSS": str(gauss), "RF": str(rf), "EDGED": str(edged)}
    out = tmp / "x.out"
    try:
        rc = main([names.get(a, a) for a in argv] + ["--out", str(out)])
    except SystemExit as e:  # argparse usage error
        rc = e.code
    assert rc == code
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if needle in line] == [err[-1]]
    assert code == 2 or (len(err) == 1 and err[0].startswith("avgbeam: "))
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma", ["1e308", "1e300", "1e200"])
def test_overflowing_run_writes_no_csv(files, capsys, gamma):
    # 2 gamma e2_0 stays finite below gamma = 9e307, yet the RF channel
    # still overflows within the first step
    tmp = files[0]
    rf, out = tmp / "rf.lat", tmp / "long.csv"
    rf.write_text("element rf length=20.0 e2_0=1.0 w_rf=3.0\n")
    rc = main(["longitudinal", "--lattice", str(rf), "--step", "1e-3", "--span", "1",
               "--xi0", "0,0,1e-3,0", "--dxi0", "0,0,0,0", "--gamma", gamma, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("avgbeam: column xi") and err[0].endswith("at row 1; no CSV written")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_dispersion_of_an_overflowing_map_is_one_line(files, capsys):
    # horizontal K = -4e5: cosh and sinh of 632 tau overflow inside the element
    tmp = files[0]
    lat, out = tmp / "steep.lat", tmp / "disp.csv"
    lat.write_text("element quad_dipole length=2.0 b0=0.0 b1=400000.0\n")
    rc = main(["dispersion", "--lattice", str(lat), "--step", "1e-2", "--delta", "0.001",
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "avgbeam: Wronskian deviates from 1 by nan\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_lattice_of_overflowing_length_is_one_line(tmp_path, capsys):
    # each length is finite; their sum is not
    lat, out = tmp_path / "long.lat", tmp_path / "disp.csv"
    lat.write_text("element drift length=1e308\nelement drift length=1e308\n")
    rc = main(["dispersion", "--lattice", str(lat), "--step", "1e307", "--delta", "1e-3",
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "avgbeam: lattice total length must be finite, got inf\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_successive_calls_share_no_state(files):
    tmp, lat, delta, gauss = files
    track = ["track", "--lattice", str(lat), "--beam", str(delta), "--step", "1e-3",
             "--span", "0.5", "--out"]
    # a track run with another step between two equal runs changes neither
    first, finer, again = tmp / "first.csv", tmp / "finer.csv", tmp / "again.csv"
    assert main(track + [str(first)]) == 0
    assert main(["track", "--lattice", str(lat), "--beam", str(delta), "--step", "5e-4",
                 "--span", "0.5", "--out", str(finer)]) == 0
    assert main(track + [str(again)]) == 0
    assert again.read_bytes() == first.read_bytes() != finer.read_bytes()

    # in a uniform dipole a deviation launched with dxi0 = 0 stays constant in both
    # modes; a launch rate brings in the moment slots, where the modes differ
    jacobi = ["jacobi", "--lattice", str(lat), "--beam", str(gauss), *_ORBIT,
              "--xi0", "0,1e-3,0,0", "--dxi0", "0,1e-3,0,0", "--out"]
    full, linearized, again = tmp / "full.csv", tmp / "linearized.csv", tmp / "again.csv"
    assert main(jacobi + [str(full)]) == 0
    assert main(jacobi + [str(linearized), "--mode", "linearized"]) == 0
    assert main(jacobi + [str(again)]) == 0
    assert again.read_bytes() == full.read_bytes() != linearized.read_bytes()
    assert build_parser() is not build_parser()


def test_bad_usage_exits_two(files):
    with pytest.raises(SystemExit) as e:
        main(["track"])  # missing required flags
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 2


def test_help_names_units(capsys):
    with pytest.raises(SystemExit) as e:
        main(["transverse", "--help"])
    assert e.value.code == 0
    out = capsys.readouterr().out
    assert "(m)" in out
