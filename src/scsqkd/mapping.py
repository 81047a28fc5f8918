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

    A coherent source's vacuum weight is smallest at the top of its
    fluctuation range, so its certified bound is the worst case
    ``a0 = exp(-(1 + fluct) * mu_nominal)``.  Elementwise this is
    :func:`virtual_intensity` of that ``a0`` and ``av0``, with ``av0`` and
    ``fluct`` already validated: ``feasible`` is False where the nominal
    intensity is negative or the call would raise MappingError, and the
    intensity there is 0.
    """
    a0 = np.exp(-(1.0 + fluct) * mu_nominal)
    inner = _mapping_inner(a0, av0)
    feasible = (mu_nominal >= 0.0) & (a0 >= 0.5) & (a0 <= 1.0) & (inner > 0.0)
    return -2.0 * np.log(np.where(feasible, inner, 1.0)), feasible


def check_mapping_condition(mu: float, a0: float, av0: float,
                            rtol: float = EQUALITY_RTOL) -> bool:
    """True iff exp(-mu) <= (sqrt(a0*av0) - sqrt((1-a0)*(1-av0)))**2.

    The comparison allows a relative slack ``rtol`` so that intensities
    produced by :func:`virtual_intensity` pass at the equality boundary.
    """
    if not math.isfinite(mu) or mu < 0.0:
        raise MappingError(f"mu must be finite and nonnegative, got {mu!r}")
    for name, value in (("a0", a0), ("av0", av0)):
        if not (0.0 <= value <= 1.0):
            raise MappingError(f"{name} must lie in [0, 1], got {value!r}")
    inner = math.sqrt(a0 * av0) - math.sqrt((1.0 - a0) * (1.0 - av0))
    bound = inner * inner
    return math.exp(-mu) <= bound * (1.0 + rtol)

