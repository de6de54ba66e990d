"""Cascade channel estimation toolkit for RIS-assisted mmWave links.

Simulates the two-hop physical channel, its sparse angular-domain
representation, and pilot-based sensing; recovers the sparse channel with an
exhaustive joint-typicality search (plus genie least-squares and orthogonal
matching pursuit baselines); and benchmarks the Monte Carlo MSE against the
Cramer-Rao lower bound and an analytic upper bound.
"""

from .channel import (
    BS_TO_RIS,
    RIS_TO_MS,
    ChannelRealization,
    Geometry,
    HopModel,
    PathParams,
    angular_transform,
    build_hop,
    compose_cascade,
    dominant_bin,
    directional_param,
    draw_hop,
    inverse_angular_transform,
    predicted_support,
    realize_physical,
    realize_synthetic,
    snap_angles,
    synth_sparse_signal,
    ula_response,
    upa_response,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    RankDeficientError,
    RisCrlbError,
    SearchBudgetExceededError,
)
from .estimator import (
    BEST_STATISTIC,
    LEXICOGRAPHIC_FIRST,
    BoundReport,
    EstimateResult,
    TypicalityConfig,
    crlb,
    default_delta,
    genie_ls,
    jt_estimate,
    missed_detection_term,
    mse_upper_bound,
    omp_estimate,
    squared_error,
    typicality_statistic,
    wrong_support_term,
)
from .harness import (
    ExperimentConfig,
    HopSpec,
    SweepResult,
    TrialRecord,
    default_config,
    export_angular_map,
    load_config,
    run_sweep,
    run_trial,
    trial_seed,
)
from .numerics import (
    dft_matrix,
    kron,
    least_squares,
    numeric_rank,
    projector_complement,
    unvec,
    vec,
)
from .sensing import (
    MeasurementModel,
    Observation,
    PilotConfig,
    gen_pilots,
    measurement_matrix,
    measurement_model,
    observe,
    snr_to_noise_var,
)

__version__ = "0.1.0"
