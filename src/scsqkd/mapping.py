"""Virtual-intensity mapping from calibrated vacuum-amplitude bounds.

Real sources are characterized only by lower bounds on the squared vacuum
amplitude of the states they emit: ``a0`` for Alice's coherent source,
``av0`` for her vacuum source (``b0``/``bv0`` for Bob).  Those bounds fix
the intensities of an equivalent perfect protocol whose security analysis
carries over to the real devices, provided the mapping-existence condition
``exp(-mu) <= (sqrt(a0*av0) - sqrt((1-a0)*(1-av0)))**2`` holds.
:func:`virtual_intensity_array` gives the smallest such ``mu`` of each
nominal intensity, the one mapping the package uses.
"""
from __future__ import annotations

import numpy as np


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


def virtual_intensity_array(mu_nominal: np.ndarray, av0: float, fluct: float
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Virtual intensities and a feasibility mask for nominal intensities.

    A coherent source's vacuum weight is smallest at the top of its
    fluctuation range, so its certified bound is the worst case
    ``a0 = exp(-t)`` with ``t = (1 + fluct) * mu_nominal``.  Elementwise the
    virtual intensity is ``-2 ln(sqrt(a0 av0) - sqrt((1 - a0)(1 - av0)))``,
    with ``av0`` and ``fluct`` already validated, evaluated as
    ``t - ln(av0) - 2 ln(1 - s)`` with ``s = sqrt(expm1(t) (1 - av0) / av0)``:
    three nonnegative terms, so no digit is lost where ``a0`` rounds to 1.
    ``feasible`` is False where the nominal intensity is negative, where
    ``a0 < 1/2`` or where ``s >= 1`` (the root vanishes, at
    ``a0 = av0 = 1/2``), and the intensity there is 0.
    """
    t = (1.0 + fluct) * mu_nominal
    feasible = (mu_nominal >= 0.0) & (np.exp(-t) >= 0.5)
    s = np.sqrt(np.expm1(np.where(feasible, t, 0.0)) * ((1.0 - av0) / av0))
    feasible &= s < 1.0
    mu_v = t - np.log1p(-(1.0 - av0)) - 2.0 * np.log1p(-np.where(feasible, s, 0.0))
    return np.where(feasible, mu_v, 0.0), feasible
