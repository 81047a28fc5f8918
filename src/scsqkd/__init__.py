"""Finite-key analysis and simulation for side-channel-secure QKD."""

from .channel import (ChannelParams, ProtocolParams, WindowTally,
                      arm_transmittance, detector_means, effective_prob,
                      expected_tallies)
from .chernoff import (expectation_lower, expectation_upper, observed_lower,
                       observed_upper)
from .keyrate import (KeyRateReport, SecurityParams, binary_entropy,
                      key_rate_coherent, security_budget)
from .mapping import check_mapping_condition, virtual_intensity
from .mc_oracle import coverage_test, simulate
from .optimizer import NoFeasiblePointError, SearchSpace, optimize
from .pipeline import (ASYMPTOTIC, InfeasibleError, SecurityConfig,
                       SourceCalibration, evaluate_point, evaluate_points)

__all__ = [
    "ASYMPTOTIC",
    "ChannelParams",
    "InfeasibleError",
    "KeyRateReport",
    "NoFeasiblePointError",
    "ProtocolParams",
    "SearchSpace",
    "SecurityConfig",
    "SecurityParams",
    "SourceCalibration",
    "WindowTally",
    "arm_transmittance",
    "binary_entropy",
    "check_mapping_condition",
    "coverage_test",
    "detector_means",
    "effective_prob",
    "evaluate_point",
    "evaluate_points",
    "expectation_lower",
    "expectation_upper",
    "expected_tallies",
    "key_rate_coherent",
    "observed_lower",
    "observed_upper",
    "optimize",
    "security_budget",
    "simulate",
    "virtual_intensity",
]

__version__ = "0.1.0"
