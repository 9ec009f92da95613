"""Beam dynamics through moment-averaged connections.

The library models a charged-particle bunch as a weighted cloud of unit
4-velocities, replaces the cloud by its first and third velocity moments
inside a connection-form force law, and provides integrators, linear
optics channels, offset observables, and brute-force ensemble
cross-checks for the resulting averaged dynamics.

Importing the package loads none of its modules.  Each public name below
is imported from its module the first time it is used (PEP 562), so a
caller pays only for the modules it reaches: ``avgbeam.load_lattice``
loads ``lattice``, ``avgbeam.theorem1_scan`` loads ``oracle`` and what
``oracle`` imports.  Every name is the object its module defines.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "connections": (
        "averaged_connection",
        "connection_gradient",
        "lorentz_connection",
    ),
    "dynamics": (
        "IntegratorConfig",
        "JacobiSeries",
        "JacobiState",
        "MomentsSeries",
        "TrajectorySeries",
        "TrajectoryState",
        "comoving_moments_along",
        "integrate_averaged_geodesic",
        "integrate_jacobi_full",
        "integrate_longitudinal",
        "integrate_lorentz",
        "integrate_transverse_linear",
        "mean_field_defect",
        "moment_deviations",
        "read_ensemble_csv",
        "read_jacobi_csv",
        "read_trajectory_csv",
        "write_ensemble_csv",
        "write_jacobi_csv",
        "write_trajectory_csv",
    ),
    "ensemble": (
        "BeamDefinition",
        "BeamEnsemble",
        "EnergyStats",
        "MomentSet",
        "compute_moments",
        "delta_moments",
        "energy_stats",
        "parse_beam_definition",
        "project_to_hyperboloid",
        "realize_beam",
        "sample_gaussian_beam",
    ),
    "errors": (
        "AvgBeamError",
        "DegenerateFit",
        "DuplicateKey",
        "EmptyEnsemble",
        "InvalidCount",
        "MismatchedGrid",
        "MismatchedSampling",
        "NegativeLength",
        "NonFiniteValue",
        "OffShell",
        "OffShellInitial",
        "OutOfLattice",
        "OutOfSpan",
        "ParseError",
        "ResidualTooLarge",
        "StepTooLarge",
        "UnsupportedElement",
        "WronskianDrift",
        "ZeroStrength",
        "ZeroWeight",
    ),
    "lattice": (
        "ConstantE",
        "Dipole",
        "Drift",
        "Element",
        "Lattice",
        "NormalQuadDipole",
        "RFCavity",
        "SkewQuadDipole",
        "curvature_radius",
        "field_at",
        "field_entries",
        "field_gradient",
        "field_mixed",
        "gradient_entries",
        "inverse_rho_profile",
        "load_lattice",
        "optics_profiles",
        "parse_lattice",
        "transverse_k_profile",
    ),
    "minkowski": (
        "Connection3",
        "ETA",
        "FieldSample",
        "METRIC_SIGNATURE",
        "check_on_shell",
        "contract_geodesic",
        "lower",
        "minkowski_dot",
        "norm_residual",
        "velocity_monomials3",
    ),
    "observables": (
        "DispersionResult",
        "OffsetSeries",
        "PrincipalSolutions",
        "averaged_offset",
        "born_offset",
        "dispersion",
        "green_function",
        "lattice_principal_solutions",
        "momentum_spread",
        "particular_solution",
        "principal_solutions",
    ),
    "oracle": (
        "EnsembleTrackResult",
        "LinearizationReport",
        "ScalingReport",
        "endpoint_deviation",
        "ensemble_track",
        "gaussian_beam_family",
        "jacobi_vs_two_geodesics",
        "position_at_lab_time",
        "theorem1_scan",
        "validate_field_gradients",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """Import the module that defines ``name``, or the submodule ``name``, on first use."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
