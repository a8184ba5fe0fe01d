"""Planar impulsive dynamics under small noise: simulation and analysis tools.

The package covers the deterministic impulsive system (unit angular speed,
radial drift, multiplicative reset at wedge angle alpha), its noisy
counterpart with impulses at angular hitting times, first-order fluctuation
corrections, inverse Gaussian first-passage analytics, Skorohod-type path
distances built from explicit time distortions, and Monte Carlo experiments
measuring convergence rates as the noise vanishes.
"""

from .cadlag import (CadlagPath, Segment, TimeDistortion, aligning_cost_bound,
                     aligning_slope_deviation_bound, batch_skorohod_upper,
                     build_aligning_distortion, distortion_cost, read_path_csv,
                     skorohod_oracle, skorohod_upper, uniform_distance, write_path_csv)
from .errors import ConfigError, DataError, ImpulseLabError, ParameterError
from .experiments import (EpsilonRow, ExperimentConfig, ExperimentReport, RateFit,
                          clt_experiment, fit_rate, ks_test, lln_experiment)
from .fluctuation import first_order_on_grid, fluctuation_path
from .fpt import (FptParams, derived_tail_constant, fpt_cdf, fpt_density, fpt_laplace,
                  fpt_tail_bound, renewal_mgf_bound)
from .stochastic import (BatchResult, BrownianRecord, GoodSetRecord, NoiseParams,
                         classify_good_set, good_set_mask, good_set_probability_bound,
                         replica_seed_sequence, simulate_batch)
from .system import (DeterministicSolution, DriftModel, ResetModel, SimulationGrid,
                     SystemSpec, constant_drift, deterministic_trajectory,
                     integrate_deterministic, linear_reset, saturating_reset,
                     simulation_grid, solution_to_path, table_drift, table_reset,
                     tanh_drift)
from .cli import RunConfig, load_config

__all__ = [
    "BatchResult", "BrownianRecord", "CadlagPath", "ConfigError", "DataError",
    "DeterministicSolution", "DriftModel", "EpsilonRow", "ExperimentConfig",
    "ExperimentReport", "FptParams", "GoodSetRecord", "ImpulseLabError", "NoiseParams",
    "ParameterError", "RateFit", "ResetModel", "RunConfig", "Segment", "SimulationGrid",
    "SystemSpec", "TimeDistortion",
    "aligning_cost_bound", "aligning_slope_deviation_bound", "batch_skorohod_upper",
    "build_aligning_distortion", "classify_good_set", "clt_experiment",
    "constant_drift", "derived_tail_constant", "deterministic_trajectory",
    "distortion_cost", "first_order_on_grid", "fit_rate",
    "fluctuation_path", "fpt_cdf", "fpt_density", "fpt_laplace", "fpt_tail_bound",
    "good_set_mask", "good_set_probability_bound", "integrate_deterministic",
    "ks_test", "linear_reset", "lln_experiment", "load_config", "read_path_csv",
    "renewal_mgf_bound", "replica_seed_sequence", "saturating_reset",
    "simulate_batch", "simulation_grid", "skorohod_oracle",
    "skorohod_upper", "solution_to_path", "table_drift", "table_reset",
    "tanh_drift", "uniform_distance", "write_path_csv",
]
