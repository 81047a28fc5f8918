"""Virtual-intensity mapping from calibrated vacuum-amplitude bounds.

Real sources are characterized only by lower bounds on the squared vacuum
amplitude of the states they emit: ``a0`` for Alice's coherent source,
``av0`` for her vacuum source (``b0``/``bv0`` for Bob).  Those bounds fix
the intensities of an equivalent perfect protocol whose security analysis
carries over to the real devices, provided the mapping-existence condition
``exp(-mu) <= (sqrt(a0*av0) - sqrt((1-a0)*(1-av0)))**2`` holds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative tolerance used for bound checks at equality boundaries.
EQUALITY_RTOL = 1e-12


class MappingError(ValueError):
    """Raised when vacuum-amplitude bounds leave the admissible region."""


def require_amplitude(name: str, value: float) -> None:
    """Raise MappingError unless a squared vacuum amplitude lies in [0.5, 1]."""
    if not (0.5 <= value <= 1.0):
        raise MappingError(f"{name} must lie in [0.5, 1], got {value!r}")


def require_fluct(fluct: float) -> None:
    """Raise MappingError unless a relative fluctuation lies in [0, 1)."""
    if not (0.0 <= fluct < 1.0):
        raise MappingError(f"fluct must lie in [0, 1), got {fluct!r}")


@dataclass(frozen=True)
class SourceBounds:
    """Calibrated device-imperfection inputs.

    a0, av0, b0, bv0 are lower bounds on the squared vacuum amplitude of the
    coherent / vacuum sources of Alice and Bob.  ``fluct`` is the relative
    half-width of the intensity fluctuation of the coherent sources
    (e.g. 0.10 for +-10%).
    """

    a0: float
    av0: float
    b0: float
    bv0: float
    fluct: float = 0.0

    def __post_init__(self) -> None:
        for name in ("a0", "av0", "b0", "bv0"):
            require_amplitude(name, getattr(self, name))
        require_fluct(self.fluct)

    @classmethod
    def from_nominal(cls, mu_xA: float, mu_xB: float, av0: float, bv0: float,
                     fluct: float) -> "SourceBounds":
        """Derive coherent-source vacuum bounds from nominal intensities.

        The coherent-source vacuum weight is minimized at the top of the
        fluctuation range, so the certified bound is the worst case
        ``exp(-(1 + fluct) * mu)``.  Raises MappingError when that bound
        falls below 0.5, i.e. the candidate intensity is too large to admit
        a mapping.
        """
        a0 = worst_case_coherent_vacuum_bound(mu_xA, fluct)
        b0 = worst_case_coherent_vacuum_bound(mu_xB, fluct)
        return cls(a0=a0, av0=av0, b0=b0, bv0=bv0, fluct=fluct)


@dataclass(frozen=True)
class VirtualIntensities:
    """Intensities of the equivalent perfect protocol (mean photon numbers)."""

    mu_A: float
    mu_B: float

    def __post_init__(self) -> None:
        if self.mu_A < 0.0 or self.mu_B < 0.0:
            raise MappingError("virtual intensities must be nonnegative")

    @classmethod
    def from_bounds(cls, bounds: SourceBounds) -> "VirtualIntensities":
        return cls(
            mu_A=virtual_intensity(bounds.a0, bounds.av0),
            mu_B=virtual_intensity(bounds.b0, bounds.bv0),
        )


def _vacuum_weight(mu_nominal, fluct: float):
    """exp(-(1 + fluct) * mu_nominal), elementwise."""
    return np.exp(-(1.0 + fluct) * mu_nominal)


def _mapping_inner(a0, av0):
    """sqrt(a0*av0) - sqrt((1-a0)*(1-av0)), elementwise."""
    return np.sqrt(a0 * av0) - np.sqrt((1.0 - a0) * (1.0 - av0))


def virtual_intensity(a0: float, av0: float) -> float:
    """Smallest perfect-protocol intensity compatible with the given bounds.

    Returns ``mu = -2 * ln(sqrt(a0*av0) - sqrt((1-a0)*(1-av0)))``, the value
    for which the mapping-existence condition holds with equality.
    """
    require_amplitude("a0", a0)
    require_amplitude("av0", av0)
    inner = _mapping_inner(a0, av0)
    # For a0, av0 >= 0.5 the inner expression is >= 0; equality only at
    # a0 = av0 = 0.5 which would need an infinite intensity.
    if inner <= 0.0:
        raise MappingError(
            f"no finite virtual intensity exists for a0={a0!r}, av0={av0!r}")
    return float(-2.0 * np.log(inner))


def virtual_intensity_array(mu_nominal: np.ndarray, av0: float, fluct: float
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Virtual intensities and a feasibility mask for nominal intensities.

    Elementwise what :meth:`SourceBounds.from_nominal` followed by
    :func:`virtual_intensity` computes, with ``av0`` and ``fluct`` already
    validated: ``feasible`` is False where either of them would raise
    MappingError, and the intensity there is 0.
    """
    a0 = _vacuum_weight(mu_nominal, fluct)
    inner = _mapping_inner(a0, av0)
    feasible = (mu_nominal >= 0.0) & (a0 >= 0.5) & (a0 <= 1.0) & (inner > 0.0)
    return -2.0 * np.log(np.where(feasible, inner, 1.0)), feasible


def check_mapping_condition(mu: float, a0: float, av0: float,
                            rtol: float = EQUALITY_RTOL) -> bool:
    """True iff exp(-mu) <= (sqrt(a0*av0) - sqrt((1-a0)*(1-av0)))**2.

    The comparison allows a relative slack ``rtol`` so that intensities
    produced by :func:`virtual_intensity` pass at the equality boundary.
    """
    for name, value in (("mu", mu), ("a0", a0), ("av0", av0)):
        if not math.isfinite(value) or value < 0.0:
            raise MappingError(f"{name} must be finite and nonnegative, got {value!r}")
    inner = math.sqrt(a0 * av0) - math.sqrt((1.0 - a0) * (1.0 - av0))
    bound = inner * inner
    return math.exp(-mu) <= bound * (1.0 + rtol)


def worst_case_coherent_vacuum_bound(mu_nominal: float, fluct: float) -> float:
    """Vacuum weight of a coherent source at the top of its fluctuation range.

    For a coherent state the vacuum weight is exp(-mu); the certified lower
    bound over the fluctuation range is attained at maximum intensity.
    """
    if mu_nominal < 0.0:
        raise MappingError(f"mu_nominal must be nonnegative, got {mu_nominal!r}")
    require_fluct(fluct)
    return float(_vacuum_weight(mu_nominal, fluct))
