"""Finite-key analysis and simulation for side-channel-secure QKD."""

from .channel import (ChannelParams, ProtocolParams, WindowTally,
                      arm_transmittance, detector_means, effective_prob,
                      expected_tallies)
from .chernoff import expectation_upper, observed_upper
from .keyrate import (KeyRateReport, SecurityParams, binary_entropy,
                      security_budget)
from .mc_oracle import simulate
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
    "detector_means",
    "effective_prob",
    "evaluate_point",
    "evaluate_points",
    "expectation_upper",
    "expected_tallies",
    "observed_upper",
    "optimize",
    "security_budget",
    "simulate",
]

__version__ = "0.1.0"
