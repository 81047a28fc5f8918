"""Finite-key analysis and simulation for side-channel-secure QKD."""

from .channel import (ChannelParams, ProtocolParams, WindowTally,
                      arm_transmittance, detector_means, effective_prob,
                      expected_tallies)
from .chernoff import (expectation_lower, expectation_upper, observed_lower,
                       observed_upper)
from .keyrate import (KeyRateReport, SecurityParams, binary_entropy,
                      key_rate_coherent, key_rate_collective, security_budget)
from .mapping import (SourceBounds, VirtualIntensities, check_mapping_condition,
                      virtual_intensity, worst_case_coherent_vacuum_bound)
from .mc_oracle import SimConfig, coverage_test, simulate
from .optimizer import NoFeasiblePointError, SearchSpace, optimize
from .phase_error import (DecompositionCoeffs, PhaseErrorBound,
                          decomposition_coeffs, phase_error_rate_upper)
from .pipeline import (ASYMPTOTIC, InfeasibleError, SecurityConfig,
                       SourceCalibration, evaluate_point, evaluate_points)

__all__ = [
    "ASYMPTOTIC",
    "ChannelParams",
    "DecompositionCoeffs",
    "InfeasibleError",
    "KeyRateReport",
    "NoFeasiblePointError",
    "PhaseErrorBound",
    "ProtocolParams",
    "SearchSpace",
    "SecurityConfig",
    "SecurityParams",
    "SimConfig",
    "SourceBounds",
    "SourceCalibration",
    "VirtualIntensities",
    "WindowTally",
    "arm_transmittance",
    "binary_entropy",
    "check_mapping_condition",
    "coverage_test",
    "decomposition_coeffs",
    "detector_means",
    "effective_prob",
    "evaluate_point",
    "evaluate_points",
    "expectation_lower",
    "expectation_upper",
    "expected_tallies",
    "key_rate_coherent",
    "key_rate_collective",
    "observed_lower",
    "observed_upper",
    "optimize",
    "phase_error_rate_upper",
    "security_budget",
    "simulate",
    "virtual_intensity",
    "worst_case_coherent_vacuum_bound",
]

__version__ = "0.1.0"
