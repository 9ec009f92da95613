"""The benchmark's hooks into the package: traced names and artifact formats.

``perfbench/spans.py`` patches the functions it names and reads the
results of some of them, and ``perfbench/checks.py`` fails every job
whose CSV header is not the one it expects.  A function moved or renamed
in the package, or a header changed, would break a benchmark run without
failing any other test, so these tests resolve every name the tracer
uses and compare the expected headers with what the CLI writes.  The
benchmark files are only loaded, never patched in or edited.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from avgbeam import (
    BeamEnsemble,
    ConstantE,
    Dipole,
    IntegratorConfig,
    JacobiState,
    Lattice,
    RFCavity,
    ensemble_track,
    integrate_longitudinal,
    integrate_transverse_linear,
    project_to_hyperboloid,
)
from avgbeam.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve_in_the_package():
    spans = _load("spans")
    for module, function, _, _ in spans.TRACED:
        assert callable(getattr(importlib.import_module(f"avgbeam.{module}"), function))
    assert callable(importlib.import_module("avgbeam.ensemble").BeamEnsemble.__init__)
    assert callable(importlib.import_module("avgbeam.oracle").gaussian_beam_family)


def test_ensemble_track_result_has_what_the_tracer_reads():
    spans = _load("spans")
    lattice = Lattice.from_elements([Dipole(length=2.0, b0=0.5)])
    ens = BeamEnsemble(project_to_hyperboloid(np.array([[0.0, 1.0, 0.0], [0.0, 1.01, 0.0]])))
    args = (lattice, ens, np.array([0.0, 0.0, 0.5, 0.0]), 0.05, IntegratorConfig(step=0.01))
    result = ensemble_track(*args)
    assert len(result.mean.t) == 6
    assert spans._sample_steps(args, {}, result) == 2 * 5


def test_linear_channel_results_have_what_the_tracer_reads():
    # the channels are closed form, yet dynamics.steps still counts their grid steps
    spans = _load("spans")
    init = JacobiState(0.0, np.array([0.0, 1e-3, 1e-3, 0.0]), np.zeros(4))
    cfg = IntegratorConfig(step=0.01)
    runs = [(integrate_transverse_linear, (Dipole(length=1.0, b0=0.5), None, init, 0.5, cfg), 50),
            (integrate_longitudinal, (RFCavity(length=1.0, e2_0=1.0, w_rf=3.0), 2.0, init, 0.3, cfg), 30),
            (integrate_longitudinal, (ConstantE(length=1.0, e2=0.1), 1.0, init, 0.2, cfg), 20)]
    for channel, args, steps in runs:
        result = channel(*args)
        assert len(result.t) == steps + 1
        assert spans._series_steps(args, {}, result) == steps


def test_benchmark_csv_headers_are_the_cli_headers(tmp_path):
    checks = _load("checks")
    lat, beam = tmp_path / "one.lat", tmp_path / "delta.beam"
    lat.write_text("element dipole length=1.0 b0=0.05\n")
    beam.write_text("distribution=delta\nmean=0,1,0\n")
    orbit = ["--lattice", str(lat), "--beam", str(beam), "--step", "0.01", "--span", "0.05"]
    runs = {
        "trajectory": ["track", *orbit],
        "jacobi": ["jacobi", *orbit, "--xi0", "0,1e-3,0,0", "--dxi0", "0,0,0,0"],
        "offset": ["offset", *orbit],
        "dispersion": ["dispersion", "--lattice", str(lat), "--step", "0.01", "--delta", "1e-3"],
    }
    assert sorted(checks.HEADERS) == sorted(runs)
    for kind, argv in runs.items():
        out = tmp_path / f"{kind}.csv"
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_text().partition("\n")[0] == checks.HEADERS[kind]
