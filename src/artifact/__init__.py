"""Closed-form parameter estimation for parameter-linear dynamical systems.

Systems of the form dx/dt = A(x; t) omega, with the right-hand side linear
in the parameter vector, are fitted to sampled trajectories by stacking the
model matrices against finite-difference derivatives and solving the
least-squares problem in one module (regression): by one QR factorization
for constant fits and sweeps, and from each window's normal equations for
per-day (windowed) fits, with QR kept for ill-conditioned windows. Shipped
models: Lotka-Volterra, SIR, and a seven-compartment epidemic model with
hospital, ICU, and vaccination flows; a vorticity module estimates Reynolds
numbers from flow snapshots by the same route. The public names are the
imports below, and __all__ is derived from them.
"""

import types as _types

from .differentiation import (
    GridField,
    TimeSeries,
    central_diff,
    full_diff,
    spatial_gradient,
    spatial_laplacian,
)
from .epidemic import (
    FixedRates,
    RawDailySeries,
    build_s3i3r_states,
    build_sir_states,
    load_who_csv,
)
from .errors import (
    AllZeroColumn,
    ConfigError,
    DegenerateDenominator,
    DimensionMismatch,
    EstimationError,
    IndexOutOfRange,
    MissingColumn,
    MissingField,
    NegativeCompartment,
    NonFiniteState,
    NonFiniteSystem,
    NonMonotonicDates,
    NonPhysical,
    NonPositivePopulation,
    ParseError,
    RankDeficient,
    RegionTooSmall,
    ShapeMismatch,
    TooFewPoints,
    UnderDetermined,
)
from .estimation import (
    ErrorMetrics,
    EstimationWindow,
    NoiseSpec,
    SweepResult,
    SweepSpec,
    WindowedEstimates,
    add_noise,
    assemble_from_series,
    estimate_constant,
    estimate_time_varying,
    relative_error_metrics,
    run_sweep,
    subsample_noise_table,
)
from .integrator import (
    ConstantSchedule,
    PiecewiseSchedule,
    SimulationConfig,
    SinusoidalBetaSchedule,
    erk4_step,
    simulate,
)
from .models import (
    ParameterLinearModel,
    eval_rhs,
    get_model,
    lotka_volterra,
    lotka_volterra_matrix,
    register_model,
    s3i3r,
    s3i3r_matrix,
    sir,
    sir_matrix,
)
from .regression import (
    BatchSolution,
    ParameterEstimate,
    ParameterPartition,
    StackedSystem,
    apply_partition,
    solve_batch,
    solve_ols,
    solve_partitioned,
    solve_ridge,
    solve_single_column,
    stack_systems,
)
from .vorticity import (
    ReynoldsEstimate,
    SensorSet,
    SnapshotStack,
    advected_diffusion_stack,
    assemble_vorticity_system,
    curl_consistency_rms,
    default_wake_region,
    estimate_inverse_re,
    estimate_reynolds,
    load_snapshot_stack,
    manufactured_diffusion_stack,
    reynolds_convergence,
    sample_sensors,
    shedding_time_step,
    snapshots_from_flat_columns,
    write_snapshot_stack,
)

__version__ = "0.1.0"

# every imported name but the submodules, which importing them binds here too
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
