"""Deterministic grid search maximizing the coherent-attack key rate.

A coarse grid over (px, mu) is followed by rounds of local refinement.
The intensity axis is searched geometrically: at long distances the optimum
sits orders of magnitude below the upper range limit, where a linear grid
would be blind.  Candidates that violate the mapping-existence condition
after worst-case intensity fluctuation are skipped, not penalized.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, ProtocolParams
from .keyrate import KeyRateReport
from .pipeline import (PointBatch, SecurityConfig, SourceCalibration,
                       evaluate_points)


class NoFeasiblePointError(RuntimeError):
    """Raised when every grid candidate violates the mapping condition."""


@dataclass(frozen=True)
class SearchSpace:
    """Ranges and grid resolution for the (px, mu) search."""

    px_range: tuple[float, float] = (0.01, 0.99)
    mu_range: tuple[float, float] = (1e-4, 1.0)
    grid: tuple[int, int] = (20, 20)   # (px points, mu points)
    refine_rounds: int = 2
    shrink: float = 4.0

    def __post_init__(self) -> None:
        px_lo, px_hi = self.px_range
        mu_lo, mu_hi = self.mu_range
        if not (0.0 < px_lo <= px_hi < 1.0):
            raise ValueError(f"px_range must lie within (0, 1), got {self.px_range!r}")
        if not (0.0 < mu_lo <= mu_hi):
            raise ValueError(f"mu_range must be positive, got {self.mu_range!r}")
        if min(self.grid) < 1:
            raise ValueError(f"grid sizes must be >= 1, got {self.grid!r}")
        if self.refine_rounds < 0 or self.shrink <= 1.0:
            raise ValueError("need refine_rounds >= 0 and shrink > 1")


def _axis(lo: float, hi: float, n: int, log: bool) -> list[float]:
    if n == 1 or lo == hi:
        return [lo]
    if log:
        return np.geomspace(lo, hi, n).tolist()
    return np.linspace(lo, hi, n).tolist()


def optimize(channel: ChannelParams, calib: SourceCalibration,
             block_size: float | str, security: SecurityConfig,
             space: SearchSpace = SearchSpace(), mode: str = "improved"
             ) -> tuple[ProtocolParams, KeyRateReport]:
    """Best feasible (px, mu) by coarse grid plus local refinement.

    Each sweep evaluates its whole grid in one array pass.  Deterministic for
    a fixed configuration: within a sweep the first of equal unclamped
    coherent-attack rates in lexicographic (px, mu) order wins, and only a
    strictly larger rate from a later sweep replaces the incumbent.
    """
    best: tuple[float, float, float, PointBatch, int] | None = None

    def sweep(px_vals: list[float], mu_vals: list[float]) -> None:
        nonlocal best
        px, mu = (g.ravel() for g in np.meshgrid(px_vals, mu_vals, indexing="ij"))
        batch = evaluate_points(channel, calib, 1.0 - px, px, mu, mu, security,
                                block_size, mode)
        feasible = np.flatnonzero(batch.feasible)
        if feasible.size == 0:
            return
        k = int(feasible[np.argmax(batch.R_coh_signed[feasible])])
        score = float(batch.R_coh_signed[k])
        if best is None or score > best[0]:
            best = (score, float(px[k]), float(mu[k]), batch, k)

    px_lo, px_hi = space.px_range
    mu_lo, mu_hi = space.mu_range
    n_px, n_mu = space.grid
    sweep(_axis(px_lo, px_hi, n_px, log=False),
          _axis(mu_lo, mu_hi, n_mu, log=True))
    if best is None:
        raise NoFeasiblePointError("no feasible (px, mu) candidate in the grid")

    px_width = px_hi - px_lo
    log_mu_width = math.log(mu_hi / mu_lo)
    for _ in range(space.refine_rounds):
        px_width /= space.shrink
        log_mu_width /= space.shrink
        _, px_c, mu_c, _, _ = best
        lo = max(px_lo, px_c - px_width / 2.0)
        hi = min(px_hi, px_c + px_width / 2.0)
        m_lo = max(mu_lo, mu_c * math.exp(-log_mu_width / 2.0))
        m_hi = min(mu_hi, mu_c * math.exp(log_mu_width / 2.0))
        sweep(_axis(lo, hi, n_px, log=False),
              _axis(m_lo, m_hi, n_mu, log=True))

    _, px_best, mu_best, batch, k = best
    protocol = ProtocolParams(p0=1.0 - px_best, px=px_best,
                              mu_xA=mu_best, mu_xB=mu_best,
                              N=1 if block_size == "asymptotic" else float(block_size),
                              mode=mode)
    return protocol, batch.report(k)
