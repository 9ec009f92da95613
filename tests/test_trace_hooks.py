"""The benchmark's tracer hooks into the package by module and function name.

``perfbench/spans.py`` patches the functions it names and reads the
results of some of them.  A function moved or renamed in the package
would break a traced benchmark run without failing any other test, so
this test resolves every name the tracer uses.  The file is only loaded,
never patched in or edited.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from avgbeam import (
    BeamEnsemble,
    Dipole,
    IntegratorConfig,
    Lattice,
    ensemble_track,
    project_to_hyperboloid,
)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_functions_resolve_in_the_package():
    spans = _load_spans()
    for module, function, _, _ in spans.TRACED:
        assert callable(getattr(importlib.import_module(f"avgbeam.{module}"), function))
    assert callable(importlib.import_module("avgbeam.ensemble").BeamEnsemble.__init__)
    assert callable(importlib.import_module("avgbeam.oracle").gaussian_beam_family)


def test_ensemble_track_result_has_what_the_tracer_reads():
    spans = _load_spans()
    lattice = Lattice.from_elements([Dipole(length=2.0, b0=0.5)])
    ens = BeamEnsemble(project_to_hyperboloid(np.array([[0.0, 1.0, 0.0], [0.0, 1.01, 0.0]])))
    args = (lattice, ens, np.array([0.0, 0.0, 0.5, 0.0]), 0.05, IntegratorConfig(step=0.01))
    result = ensemble_track(*args)
    assert len(result.mean.t) == 6
    assert spans._sample_steps(args, {}, result) == 2 * 5
