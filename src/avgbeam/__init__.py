"""Beam dynamics through moment-averaged connections.

The library models a charged-particle bunch as a weighted cloud of unit
4-velocities, replaces the cloud by its first and third velocity moments
inside a connection-form force law, and provides integrators, linear
optics channels, offset observables, and brute-force ensemble
cross-checks for the resulting averaged dynamics.
"""

from .connections import (
    ArcAdapted,
    FrameMode,
    INERTIAL,
    InertialCartesian,
    averaged_connection,
    connection_gradient,
    frame_gradient,
    inertial_acceleration,
    lorentz_connection,
)
from .dynamics import (
    IntegratorConfig,
    JacobiSeries,
    JacobiState,
    MomentsSeries,
    TrajectorySeries,
    TrajectoryState,
    comoving_moments_along,
    integrate_averaged_geodesic,
    integrate_jacobi_full,
    integrate_longitudinal,
    integrate_lorentz,
    integrate_transverse_linear,
    mean_field_defect,
    moment_deviations,
    read_ensemble_csv,
    read_jacobi_csv,
    read_trajectory_csv,
    write_ensemble_csv,
    write_jacobi_csv,
    write_trajectory_csv,
)
from .ensemble import (
    BeamDefinition,
    BeamEnsemble,
    EnergyStats,
    MomentSet,
    VelocitySample,
    compute_moments,
    delta_moments,
    energy_stats,
    moments_from_arrays,
    parse_beam_definition,
    project_to_hyperboloid,
    realize_beam,
    sample_gaussian_beam,
)
from .errors import (
    AvgBeamError,
    DegenerateFit,
    DuplicateKey,
    EmptyEnsemble,
    InvalidCount,
    MismatchedGrid,
    MismatchedSampling,
    NegativeLength,
    NonFiniteValue,
    OffShell,
    OffShellInitial,
    OutOfLattice,
    OutOfSpan,
    ParseError,
    ResidualTooLarge,
    StepTooLarge,
    UnsupportedElement,
    WronskianDrift,
    ZeroStrength,
    ZeroWeight,
)
from .lattice import (
    ConstantE,
    Dipole,
    Drift,
    Element,
    Lattice,
    NormalQuadDipole,
    RFCavity,
    SkewQuadDipole,
    curvature_radius,
    field_at,
    field_entries,
    field_gradient,
    field_mixed,
    gradient_entries,
    inverse_rho_profile,
    load_lattice,
    parse_lattice,
    transverse_k_profile,
)
from .minkowski import (
    Connection3,
    ETA,
    FieldSample,
    METRIC_SIGNATURE,
    check_on_shell,
    contract_geodesic,
    lower,
    minkowski_dot,
    norm_residual,
    velocity_monomials3,
)
from .observables import (
    DispersionResult,
    OffsetSeries,
    PrincipalSolutions,
    averaged_offset,
    born_offset,
    dispersion,
    green_function,
    momentum_spread,
    particular_solution,
    principal_solutions,
)
from .oracle import (
    EnsembleTrackResult,
    LinearizationReport,
    ScalingReport,
    endpoint_deviation,
    ensemble_track,
    gaussian_beam_family,
    jacobi_vs_two_geodesics,
    position_at_lab_time,
    theorem1_scan,
    validate_field_gradients,
)

__version__ = "0.1.0"
