"""Deterministic grid search maximizing the coherent-attack key rate.

A coarse grid over (px, mu) is followed by rounds of local refinement.
The intensity axis is searched geometrically: at long distances the optimum
sits orders of magnitude below the upper range limit, where a linear grid
would be blind.  Candidates that violate the mapping-existence condition
after worst-case intensity fluctuation are skipped, not penalized.

:func:`optimize_points` searches many (channel, block size, mode) points at
once: each sweep of every point shares one array pass per group of points
with equal mode, dark-count and misalignment probabilities and kind of
block size (finite or asymptotic).  :func:`optimize` is its one-point call.
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
        if self.refine_rounds < 0:
            raise ValueError(f"refine_rounds must be >= 0, got {self.refine_rounds!r}")
        if not self.shrink > 1.0:
            raise ValueError(f"shrink must be > 1, got {self.shrink!r}")


def _axis(lo: float, hi: float, n: int, log: bool) -> list[float]:
    if n == 1 or lo == hi:
        return [lo]
    if log:
        return np.geomspace(lo, hi, n).tolist()
    return np.linspace(lo, hi, n).tolist()


def _chunks(members: list[int], sizes: dict) -> list[list[int]]:
    """``members`` in order, cut into runs of at most ``_CHUNK`` candidates
    (point ``i`` has ``sizes[i]``); a larger point is a run of its own."""
    chunks, total = [[]], 0
    for i in members:
        if chunks[-1] and total + sizes[i] > _CHUNK:
            chunks.append([])
            total = 0
        chunks[-1].append(i)
        total += sizes[i]
    return chunks


def _sweep(points, etas, axes: dict, calib: SourceCalibration,
           security: SecurityConfig, best: list) -> None:
    """One sweep of the (px, mu) grid ``axes[i]`` of each point ``i`` in ``axes``.

    Updates ``best[i] = (rate, px, mu, report)``: within a sweep the first
    of equal rates among the feasible candidates of point ``i``, in
    lexicographic (px, mu) order, wins, and it replaces the incumbent only
    if it is strictly larger.
    """
    groups: dict[tuple, list[int]] = {}
    for i in axes:
        channel, block, mode = points[i]
        groups.setdefault((block == ASYMPTOTIC, mode, channel.p_d, channel.e_d),
                          []).append(i)
    sizes = {i: len(px) * len(mu) for i, (px, mu) in axes.items()}
    for members in groups.values():
        for chunk in _chunks(members, sizes):
            # Each grid in lexicographic (px, mu) order, as meshgrid's "ij".
            px = np.concatenate([np.repeat(axes[i][0], len(axes[i][1])) for i in chunk])
            mu = np.concatenate([np.tile(axes[i][1], len(axes[i][0])) for i in chunk])
            counts = [sizes[i] for i in chunk]
            channel, block, mode = points[chunk[0]]
            if block != ASYMPTOTIC:
                block = np.repeat([float(points[i][1]) for i in chunk], counts)
            eta = np.repeat([etas[i] for i in chunk], counts)
            batch = evaluate_points(channel, calib, 1.0 - px, px, mu, mu, eta,
                                    security, block, mode)
            lo = 0
            for i, count in zip(chunk, counts):
                feasible = lo + np.flatnonzero(batch.feasible[lo:lo + count])
                lo += count
                if feasible.size == 0:
                    continue
                k = int(feasible[np.argmax(batch.R_coh_signed[feasible])])
                score = float(batch.R_coh_signed[k])
                if best[i] is None or score > best[i][0]:
                    best[i] = (score, float(px[k]), float(mu[k]), batch.report(k))


def optimize_points(points: list[tuple[ChannelParams, float | str, str]],
                    calib: SourceCalibration, security: SecurityConfig,
                    space: SearchSpace = SearchSpace()
                    ) -> list[tuple[ProtocolParams, KeyRateReport] | None]:
    """Best feasible (px, mu) of each (channel, block size, mode) point.

    Each point's search is the one :func:`optimize` describes, and its
    result does not depend on the other points.  A point with no feasible
    candidate in the coarse grid gives None.
    """
    for _, block, _ in points:
        require_block(block)
    etas = [arm_transmittance(channel) for channel, _, _ in points]
    best: list = [None] * len(points)
    px_lo, px_hi = space.px_range
    mu_lo, mu_hi = space.mu_range
    n_px, n_mu = space.grid
    coarse = (_axis(px_lo, px_hi, n_px, log=False),
              _axis(mu_lo, mu_hi, n_mu, log=True))
    _sweep(points, etas, dict.fromkeys(range(len(points)), coarse), calib,
           security, best)

    px_width = px_hi - px_lo
    log_mu_width = math.log(mu_hi / mu_lo)
    for _ in range(space.refine_rounds):
        px_width /= space.shrink
        log_mu_width /= space.shrink
        axes = {}
        for i, found in enumerate(best):
            if found is None:
                continue
            _, px_c, mu_c, _ = found
            lo = max(px_lo, px_c - px_width / 2.0)
            hi = min(px_hi, px_c + px_width / 2.0)
            m_lo = max(mu_lo, mu_c * math.exp(-log_mu_width / 2.0))
            m_hi = min(mu_hi, mu_c * math.exp(log_mu_width / 2.0))
            axes[i] = (_axis(lo, hi, n_px, log=False),
                       _axis(m_lo, m_hi, n_mu, log=True))
        _sweep(points, etas, axes, calib, security, best)

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
