"""Deterministic grid search maximizing the coherent-attack key rate.

A coarse grid over (px, mu) is followed by rounds of local refinement.
The intensity axis is searched geometrically: at long distances the optimum
sits orders of magnitude below the upper range limit, where a linear grid
would be blind.  Candidates that violate the mapping-existence condition
after worst-case intensity fluctuation are skipped, not penalized.

:func:`optimize_points` searches many (channel, block size, mode) points at
once: each sweep is one broadcast (point, px, mu) array pass per group of
points with equal mode, dark-count and misalignment probabilities and kind
of block size (finite or asymptotic).  :func:`optimize` is its one-point
call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, ProtocolParams, arm_transmittance
from .keyrate import KeyRateReport
from .pipeline import (ASYMPTOTIC, SecurityConfig, SourceCalibration,
                       evaluate_points, require_block)

# Most candidates in one evaluate_points pass: a group of points is split
# into passes of whole points, and a larger point is a pass of its own.  The
# cost per candidate is nearly flat from ~8 k candidates on, while a finite
# pass peaks at ~0.3 kB per candidate (README scan: +8 % peak RSS over
# 400-candidate passes at 2**13).
_CHUNK = 2 ** 13

# Most (px, mu) candidates per point: a sweep evaluates a point's whole grid
# in one pass, at ~0.3 kB per candidate.
MAX_GRID = 2 ** 20

# Most refinement rounds: at shrink 1.04 both default axes collapse to one
# float within this many.
MAX_REFINE_ROUNDS = 1000


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
        if self.grid[0] * self.grid[1] > MAX_GRID:
            raise ValueError(f"grid must hold at most {MAX_GRID} candidates, "
                             f"got {self.grid!r}")
        if not 0 <= self.refine_rounds <= MAX_REFINE_ROUNDS:
            raise ValueError(f"refine_rounds must lie in [0, {MAX_REFINE_ROUNDS}], "
                             f"got {self.refine_rounds!r}")
        if not self.shrink > 1.0:
            raise ValueError(f"shrink must be > 1, got {self.shrink!r}")


def _axes(lo: np.ndarray, hi: np.ndarray, n: int, space) -> np.ndarray:
    """Row ``i`` is ``space(lo[i], hi[i], n)``; a collapsed range (lo == hi)
    is ``n`` copies of ``lo``.  Only the open rows go through ``space``:
    ``np.linspace`` takes another arithmetic path for every row once one row
    has a zero step, and ``np.geomspace`` gives a collapsed row inner values
    an ulp off ``lo``."""
    out = np.repeat(lo[:, None], n, axis=1)
    wide = lo < hi
    out[wide] = space(lo[wide], hi[wide], n, axis=1)
    return out


def _sweep(points, etas, live: list[int], px_axes: np.ndarray,
           mu_axes: np.ndarray, calib: SourceCalibration,
           security: SecurityConfig, best: list) -> None:
    """One sweep of the (px, mu) grid ``px_axes[j]`` x ``mu_axes[j]`` of each
    point ``live[j]``, evaluated as one broadcast (point, px, mu) pass per
    group and chunk of points.

    Updates ``best[i] = (rate, px, mu, report)``: within a sweep the first
    of equal rates among the feasible candidates of point ``i``, in
    lexicographic (px, mu) order, wins, and it replaces the incumbent only
    if it is strictly larger.
    """
    groups: dict[tuple, list[int]] = {}
    for j, i in enumerate(live):
        channel, block, mode = points[i]
        groups.setdefault((block == ASYMPTOTIC, mode, channel.p_d, channel.e_d),
                          []).append(j)
    n_mu = mu_axes.shape[1]
    step = max(1, _CHUNK // (px_axes.shape[1] * n_mu))
    for members in groups.values():
        for start in range(0, len(members), step):
            rows = members[start:start + step]
            chunk = [live[j] for j in rows]
            channel, _, mode = points[chunk[0]]
            sizes: dict = {}
            block = np.array([sizes.setdefault(points[i][1], len(sizes))
                              for i in chunk])[:, None, None]
            px = px_axes[rows][:, :, None]
            mu = mu_axes[rows][:, None, :]
            eta = np.array([etas[i] for i in chunk])[:, None, None]
            batch = evaluate_points(channel, calib, 1.0 - px, px, mu, mu, eta,
                                    security, tuple(sizes), mode, block)
            feasible = batch.feasible.reshape(len(chunk), -1)
            rates = np.where(feasible, batch.R_coh_signed.reshape(len(chunk), -1),
                             -np.inf)
            top = np.argmax(rates, axis=1)
            # Where every feasible rate is -inf, the first feasible candidate.
            top = np.where(rates[np.arange(len(chunk)), top] == -np.inf,
                           np.argmax(feasible, axis=1), top)
            for r, (i, k) in enumerate(zip(chunk, top.tolist())):
                if not feasible[r, k]:
                    continue
                a, b = divmod(k, n_mu)
                score = float(rates[r, k])
                if best[i] is None or score > best[i][0]:
                    best[i] = (score, float(px[r, a, 0]), float(mu[r, 0, b]),
                               batch.row((r, a, b)))


def optimize_points(points: list[tuple[ChannelParams, float | str, str]],
                    calib: SourceCalibration, security: SecurityConfig,
                    space: SearchSpace = SearchSpace()
                    ) -> list[tuple[ProtocolParams, KeyRateReport] | None]:
    """Best feasible (px, mu) of each (channel, block size, mode) point.

    Each point's search is the one :func:`optimize` describes, and its
    result does not depend on the other points.  A point with no feasible
    candidate in the coarse grid gives None.  Refinement ends before
    ``space.refine_rounds`` once every point's axes have collapsed to its
    incumbent, which later rounds could not replace.
    """
    for _, block, _ in points:
        require_block(block)
    etas = [arm_transmittance(channel) for channel, _, _ in points]
    best: list = [None] * len(points)
    px_lo, px_hi = space.px_range
    mu_lo, mu_hi = space.mu_range
    n_px, n_mu = space.grid
    live = list(range(len(points)))
    lo, hi = np.full(len(live), px_lo), np.full(len(live), px_hi)
    m_lo, m_hi = np.full(len(live), mu_lo), np.full(len(live), mu_hi)
    px_width = px_hi - px_lo
    log_mu_width = math.log(mu_hi / mu_lo)
    for sweep in range(space.refine_rounds + 1):
        if sweep:
            px_width /= space.shrink
            log_mu_width /= space.shrink
            live = [i for i, found in enumerate(best) if found is not None]
            px_c = np.array([best[i][1] for i in live])
            mu_c = np.array([best[i][2] for i in live])
            lo = np.maximum(px_lo, px_c - px_width / 2.0)
            hi = np.minimum(px_hi, px_c + px_width / 2.0)
            m_lo = np.maximum(mu_lo, mu_c * math.exp(-log_mu_width / 2.0))
            m_hi = np.minimum(mu_hi, mu_c * math.exp(log_mu_width / 2.0))
            # Collapsed axes hold only the incumbents, which no sweep replaces.
            if (lo == hi).all() and (m_lo == m_hi).all():
                break
        _sweep(points, etas, live, _axes(lo, hi, n_px, np.linspace),
               _axes(m_lo, m_hi, n_mu, np.geomspace), calib, security, best)

    results = []
    for found, (_, block, mode) in zip(best, points):
        if found is None:
            results.append(None)
            continue
        _, px, mu, report = found
        protocol = ProtocolParams(p0=1.0 - px, px=px, mu_xA=mu, mu_xB=mu,
                                  N=1 if block == ASYMPTOTIC else float(block),
                                  mode=mode)
        results.append((protocol, report))
    return results


def optimize(channel: ChannelParams, calib: SourceCalibration,
             block_size: float | str, security: SecurityConfig,
             space: SearchSpace = SearchSpace(), mode: str = "improved"
             ) -> tuple[ProtocolParams, KeyRateReport]:
    """Best feasible (px, mu) by coarse grid plus local refinement.

    Each sweep evaluates its whole grid in one array pass.  Deterministic for
    a fixed configuration: within a sweep the first of equal unclamped
    coherent-attack rates in lexicographic (px, mu) order wins, and only a
    strictly larger rate from a later sweep replaces the incumbent.  Raises
    NoFeasiblePointError when no candidate of the coarse grid is feasible.
    """
    (result,) = optimize_points([(channel, block_size, mode)], calib, security, space)
    if result is None:
        raise NoFeasiblePointError("no feasible (px, mu) candidate in the grid")
    return result
