"""What importing avgbeam and running one CLI job load.

The package exports its names lazily and the CLI imports each job's
modules inside the job, so a process loads only the modules it runs.
A later top-level import would quietly undo that, and only these tests
would see it.  Each runs in a fresh interpreter, since the test session
has loaded every module (``conftest.py``).
"""

import json
import os
import subprocess
import sys

import pytest

import avgbeam

SRC = os.path.dirname(os.path.dirname(avgbeam.__file__))

# every public name avgbeam exports, by the module that defines it
EXPORTS = {
    "connections": (
        "averaged_connection connection_gradient lorentz_connection "
    ),
    "dynamics": (
        "IntegratorConfig JacobiSeries JacobiState MomentsSeries TrajectorySeries "
        "TrajectoryState comoving_moments_along integrate_averaged_geodesic "
        "integrate_jacobi_full integrate_longitudinal integrate_lorentz "
        "integrate_transverse_linear mean_field_defect moment_deviations "
        "read_ensemble_csv read_jacobi_csv read_trajectory_csv write_ensemble_csv "
        "write_jacobi_csv write_trajectory_csv "
    ),
    "ensemble": (
        "BeamDefinition BeamEnsemble EnergyStats MomentSet compute_moments delta_moments "
        "energy_stats parse_beam_definition project_to_hyperboloid realize_beam "
        "sample_gaussian_beam "
    ),
    "errors": (
        "AvgBeamError DegenerateFit DuplicateKey EmptyEnsemble InvalidCount "
        "MismatchedGrid MismatchedSampling NegativeLength NonFiniteValue OffShell "
        "OffShellInitial OutOfLattice OutOfSpan ParseError ResidualTooLarge StepTooLarge "
        "UnsupportedElement WronskianDrift ZeroStrength ZeroWeight "
    ),
    "lattice": (
        "ConstantE Dipole Drift Element Lattice NormalQuadDipole RFCavity SkewQuadDipole "
        "curvature_radius field_at field_entries field_gradient field_mixed "
        "gradient_entries inverse_rho_profile load_lattice optics_profiles parse_lattice "
        "transverse_k_profile "
    ),
    "minkowski": (
        "Connection3 ETA FieldSample METRIC_SIGNATURE check_on_shell contract_geodesic "
        "lower minkowski_dot norm_residual velocity_monomials3 "
    ),
    "observables": (
        "DispersionResult OffsetSeries PrincipalSolutions averaged_offset born_offset "
        "dispersion green_function lattice_principal_solutions momentum_spread "
        "particular_solution principal_solutions "
    ),
    "oracle": (
        "EnsembleTrackResult LinearizationReport ScalingReport endpoint_deviation "
        "ensemble_track gaussian_beam_family jacobi_vs_two_geodesics position_at_lab_time "
        "theorem1_scan validate_field_gradients "
    ),
}

# the avgbeam modules and the optional heavy dependencies a process has loaded
_LOADED = ("sorted(m for m in sys.modules "
           "if m.partition('.')[0] in ('avgbeam', 'orjson', 'scipy'))")


def _fresh(code, *argv):
    """Run ``code`` in a fresh interpreter on this checkout; what it prints, read as JSON."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_avgbeam_loads_no_module():
    assert _fresh(f"import json, sys, avgbeam; print(json.dumps({_LOADED}))") == ["avgbeam"]


def test_every_export_is_the_object_its_module_defines():
    code = """
import importlib, json, sys, avgbeam
exports = json.loads(sys.argv[1])
names = [name for text in exports.values() for name in text.split()]
print(json.dumps({
    "wrong": [name for module, text in exports.items() for name in text.split()
              if getattr(avgbeam, name)
              is not getattr(importlib.import_module("avgbeam." + module), name)],
    "submodules": [module for module in exports
                   if getattr(avgbeam, module) is not sys.modules["avgbeam." + module]],
    "not_in_dir": sorted(set(names) - set(dir(avgbeam))),
    "all": sorted(avgbeam.__all__),
    "version": vars(avgbeam).get("__version__"),
}))
"""
    names = sorted(name for text in EXPORTS.values() for name in text.split())
    assert len(names) == 104
    got = _fresh(code, json.dumps(EXPORTS))
    assert got == {"wrong": [], "submodules": [], "not_in_dir": [], "all": names,
                   "version": "0.1.0"}


@pytest.mark.parametrize("name", ["no_such_name", "_write_rows"])  # _write_rows: not exported
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(avgbeam, name)
    assert not hasattr(avgbeam, name)


_JOB = f"""
import json, sys
from avgbeam.cli import main
assert main(sys.argv[1:]) == 0
print(json.dumps({_LOADED}))
"""


def test_moments_process_loads_only_ensemble(tmp_path):
    beam = tmp_path / "gauss.beam"
    beam.write_text("distribution=gaussian\nmean=0,10,0\nsigma=0.01,0.01,0.01\nn=50\nseed=7\n")
    loaded = _fresh(_JOB, "moments", "--beam", str(beam), "--out", str(tmp_path / "m.json"))
    assert loaded == ["avgbeam", "avgbeam.cli", "avgbeam.ensemble", "avgbeam.errors",
                      "avgbeam.minkowski"]


@pytest.mark.parametrize("job,lattice", [("transverse", "element dipole length=1.0 b0=0.05"),
                                         ("longitudinal", "element rf length=2.0 e2_0=1.0 w_rf=3.0")])
def test_linear_channel_process_loads_no_oracle(tmp_path, job, lattice):
    lat = tmp_path / "one.lat"
    lat.write_text(lattice + "\n")
    loaded = _fresh(_JOB, job, "--lattice", str(lat), "--step", "0.01", "--span", "0.5",
                    "--xi0", "0,1e-3,1e-3,0", "--dxi0", "0,0,0,0",
                    "--out", str(tmp_path / "out.csv"))
    assert "avgbeam.dynamics" in loaded
    assert {"avgbeam.oracle", "avgbeam.observables", "avgbeam.connections"} & set(loaded) == set()
