"""Secrecy-rate analysis and toy-scale coding experiments for MIMO wiretap
channels whose eavesdropper channel states vary arbitrarily."""

__version__ = "0.1.0"

from .channel import (
    DimensionError,
    EveTrace,
    InvariantError,
    MainChannel,
    PowerConfig,
    RankError,
    canonicalize_eve,
    complex_normal,
    eve_observe,
    effective_noise_cov,
    main_observe,
    random_eve_state,
    random_full_rank_channel,
    transmit,
)
from .codebook import (
    BinningParams,
    Codebook,
    ToyScaleError,
    binning_params,
    codebook_ensemble,
    estimate_decode_error,
    eve_bin_decode,
    ml_decode_main,
    sample_codebook,
)
from .leakage import (
    LeakageEstimate,
    SecondMomentCheck,
    SymmetryCheck,
    TailScan,
    density_law_cdf,
    density_law_ks,
    density_law_stat,
    density_law_tail,
    estimate_leakage_mi,
    estimate_variational_distance,
    eve_error_symmetry_check,
    eve_second_moment_check,
    info_density_tail,
    leakage_from_distance,
    total_distance_bound,
    truncated_vs_gaussian_distance,
)
from .quantization import (
    PerturbationCheck,
    PerturbationRadii,
    ScheduleParams,
    check_loglik_perturbation,
    check_loglik_perturbation_batch,
    chernoff_exponent,
    grid_log_size,
    loglik_drift_bound,
    perturbation_radii,
    quantize_eve,
    row_error_cap,
    schedule_params,
    truncation_exponent,
    truncation_mass,
    two_stage_overhead,
)
from .rates import (
    RateRegion,
    SecrecyRateResult,
    bc_region,
    capacity_term,
    converse_rate_bound,
    convex_hull_2d,
    leakage_cap,
    mac_region,
    main_mutual_info,
    region_sum_sdof,
    sdof,
    sdof_slope,
    secrecy_rate,
)

__all__ = [
    "__version__",
    # channel
    "DimensionError", "EveTrace", "InvariantError", "MainChannel", "PowerConfig",
    "RankError", "canonicalize_eve", "complex_normal", "eve_observe",
    "effective_noise_cov", "main_observe", "random_eve_state",
    "random_full_rank_channel", "transmit",
    # rates and regions
    "RateRegion", "SecrecyRateResult", "bc_region", "capacity_term",
    "converse_rate_bound", "convex_hull_2d", "leakage_cap",
    "mac_region", "main_mutual_info", "region_sum_sdof", "sdof", "sdof_slope",
    "secrecy_rate",
    # quantization and exponents
    "PerturbationCheck", "PerturbationRadii", "ScheduleParams",
    "check_loglik_perturbation", "check_loglik_perturbation_batch",
    "chernoff_exponent", "grid_log_size", "loglik_drift_bound",
    "perturbation_radii", "quantize_eve", "row_error_cap", "schedule_params",
    "truncation_exponent", "truncation_mass", "two_stage_overhead",
    # codebooks
    "BinningParams", "Codebook", "ToyScaleError", "binning_params",
    "codebook_ensemble", "estimate_decode_error", "eve_bin_decode",
    "ml_decode_main", "sample_codebook",
    # leakage estimators
    "LeakageEstimate", "SecondMomentCheck", "SymmetryCheck", "TailScan",
    "density_law_cdf", "density_law_ks", "density_law_stat", "density_law_tail",
    "estimate_leakage_mi", "estimate_variational_distance",
    "eve_error_symmetry_check", "eve_second_moment_check",
    "info_density_tail", "leakage_from_distance", "total_distance_bound",
    "truncated_vs_gaussian_distance",
]
