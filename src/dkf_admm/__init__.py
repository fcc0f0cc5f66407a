"""Distributed Kalman filtering over sensor networks via consensus ADMM.

A network of local estimators tracks a linear-Gaussian system. Each node
runs a local Kalman filter whose correction step is solved by primal-only
ADMM sub-iterations (only state iterates cross edges, never duals), while
the global information-rate matrix is agreed on by a sub-iteration-free
consensus loop on half-vectorized matrices. Centralized references (an
information-form Kalman filter and a fixed-point Riccati solver) are
included for validation.
"""

from dkf_admm.exceptions import (
    ConfigRejected,
    DimensionError,
    GraphGenerationFailed,
    GraphNotConnected,
    NotPositiveDefinite,
    ObservabilityError,
    RiccatiDivergence,
    SpectralFailure,
    WireSchemaViolation,
)
from dkf_admm.graphs import (
    SensorGraph,
    SpectralSummary,
    build_graph,
    is_connected,
    load_edge_list,
    spectral_summary,
)
from dkf_admm.linalg import (
    StabilityReport,
    covariance_mode_matrix,
    covariance_stability,
    dare_residual,
    dare_solve,
    spd_inverse,
    spd_solve,
    sym,
    state_mode_matrix,
    state_stability,
    unvech,
    vech,
)
from dkf_admm.models import (
    SensorSpec,
    StateSpaceModel,
    Trajectory,
    build_constant_velocity_model,
    information_rate_target,
    sensor_specs_at,
    simulate_trajectory,
)
from dkf_admm.centralized import (
    CentralizedState,
    centralized_kf_step,
    consensus_fixed_point,
)
from dkf_admm.filtering import (
    CommLedger,
    DkfParams,
    NetworkState,
    auto_params,
    dkf_time_step,
    init_state,
)
from dkf_admm.harness import (
    RunMetrics,
    ScenarioConfig,
    export_csv,
    load_config,
    run_scenario,
    steady_state_prior,
    validate_params,
)

__version__ = "0.1.0"
