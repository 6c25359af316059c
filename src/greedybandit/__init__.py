"""Simulation laboratory for exploration-free linear contextual bandits."""

from .contexts import (DistributionSpec, LacCheckReport, LacFunction, Region,
                       ball, box, cauchy_spec, decay_rate_check,
                       exponential_spec, gaussian_spec, grad_log_density,
                       lac_function, laplace_spec, log_density,
                       sample_context_set, spec_from_config, spec_to_config,
                       student_t_spec, truncate, uniform_ball_spec, verify_lac)
from .diagnostics import (ConcentrationEstimate, ConsistencyReport,
                          DiagnosticsReport, DiversityEstimate, GrowthReport,
                          MarginEstimate, estimate_concentration_params,
                          estimate_diversity_constant, estimate_margin_constant,
                          gram_growth_check, run_diagnostics)
from .env import (BanditInstance, Trajectory, instantaneous_regret, reward,
                  run_episode)
from .estimator import GramState, NotIdentifiedError
from .harness import (ConfigError, ExperimentConfig, ResultsTable,
                      config_from_ini, preset_config, render_svg,
                      run_experiment, write_csv, write_outputs)
from .policies import PolicyConfig, greedy_select, policy_step

__version__ = "0.1.0"

__all__ = [
    "BanditInstance", "ConcentrationEstimate", "ConfigError",
    "ConsistencyReport", "DiagnosticsReport", "DistributionSpec",
    "DiversityEstimate", "ExperimentConfig", "GramState", "GrowthReport",
    "LacCheckReport", "LacFunction", "MarginEstimate", "NotIdentifiedError",
    "PolicyConfig", "Region", "ResultsTable", "Trajectory",
    "ball", "box", "cauchy_spec", "config_from_ini",
    "decay_rate_check", "estimate_concentration_params",
    "estimate_diversity_constant", "estimate_margin_constant",
    "exponential_spec", "gaussian_spec", "grad_log_density", "gram_growth_check",
    "greedy_select", "instantaneous_regret", "lac_function", "laplace_spec",
    "log_density", "policy_step", "preset_config",
    "render_svg", "reward", "run_diagnostics", "run_episode", "run_experiment",
    "sample_context_set", "spec_from_config", "spec_to_config",
    "student_t_spec", "truncate", "uniform_ball_spec", "verify_lac",
    "write_csv", "write_outputs",
]
