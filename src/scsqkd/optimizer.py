"""Deterministic grid search maximizing the coherent-attack key rate.

A coarse grid over (px, mu) is followed by rounds of local refinement.
The intensity axis is searched geometrically: at long distances the optimum
sits orders of magnitude below the upper range limit, where a linear grid
would be blind.  Candidates that violate the mapping-existence condition
after worst-case intensity fluctuation are skipped, not penalized.

:func:`search_points` searches many points at once, given as columns: each
point's one-arm transmittance, its index into the distinct block sizes and
its mode (the boolean ``baseline`` column of ``channel``), with one channel's
dark-count and misalignment probabilities.  A point table, built once per
call, groups the points by kind of block size (finite or asymptotic), with
each point's index into its kind's sizes.  Each sweep is one broadcast
(point, px, mu) array pass per group of the points still searched, a boolean
mask over the points (all, then those with an incumbent), whatever their
modes, as long as the group fits ``_CHUNK`` candidates.  The
incumbents are one table over the points: each pass picks its winners with
a masked argmax, gathers each report field at the winners' (px, mu) indices
and writes the winners' columns at once.  The search returns each point's px
and mu and one :class:`KeyRateReport` of arrays over the points, built once
from that table; :func:`optimize` is its one-point call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .channel import (MAX_MU, MODES, ChannelParams, ProtocolParams, _check,
                      arm_transmittance)
from .keyrate import KeyRateReport
from .pipeline import (ASYMPTOTIC, SecurityConfig, SourceCalibration,
                       evaluate_points, require_block)

# Most candidates in one evaluate_points pass: a group of points is split
# into passes of whole points, and a larger point is a pass of its own.  The
# cost per candidate is nearly flat from ~8 k candidates on, but each pass
# and its incumbent update cost ~0.1-0.2 ms before their first candidate
# (one candidate per point: 0.11 ms for 26 asymptotic points in both modes,
# 0.16 ms for 12 finite points; median of 3000 calls, Python 3.11, numpy 2.4,
# 2 shared cores), so a group of both modes (13 distances x 2 modes x 400
# candidates) should stay one pass.  A finite pass peaks at ~0.3 kB per
# candidate (README scan: 32.7 MB peak RSS at 2**14 against 30.4 MB with
# 400-candidate passes).
_CHUNK = 2 ** 14

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
        # Each check is written so that NaN fails it.
        (px_lo, px_hi), (mu_lo, mu_hi), (n_px, n_mu) = self.px_range, self.mu_range, self.grid
        _check(self, (("px_range", 0.0 < px_lo <= px_hi < 1.0, "lie within (0, 1)"),
                      ("mu_range", 0.0 < mu_lo <= mu_hi <= MAX_MU,
                       f"lie within (0, {MAX_MU:g}]"),
                      ("grid", n_px >= 1 and n_mu >= 1, "hold sizes >= 1"),
                      ("grid", n_px * n_mu <= MAX_GRID, f"hold at most {MAX_GRID} candidates"),
                      ("refine_rounds", 0 <= self.refine_rounds <= MAX_REFINE_ROUNDS,
                       f"lie in [0, {MAX_REFINE_ROUNDS}]"),
                      ("shrink", self.shrink > 1.0, "be > 1")))


def _axes(lo: np.ndarray, hi: np.ndarray, n: int, geometric: bool) -> np.ndarray:
    """Row ``i`` is ``np.geomspace(lo[i], hi[i], n)`` if ``geometric``, else
    ``np.linspace(lo[i], hi[i], n)``, bit for bit; a collapsed range
    (lo == hi) is ``n`` copies of ``lo``.

    numpy's arithmetic is written out for all rows at once: row ``i`` is
    ``lo[i] + k * ((hi[i] - lo[i]) / (n - 1))`` for k = 0 .. n - 1, ending
    in ``hi[i]``, and a geometric row is 10 to the power of that row on
    ``log10(lo[i])`` and ``log10(hi[i])``, starting at ``lo[i]``.  A
    batched ``np.linspace`` would take another arithmetic path for every
    row once one row has a zero step, and ``np.geomspace`` gives a
    collapsed row inner values an ulp off ``lo``."""
    if n == 1:
        return lo[:, None].copy()
    start, stop = (np.log10(lo), np.log10(hi)) if geometric else (lo, hi)
    out = np.arange(n, dtype=float) * ((stop - start) / (n - 1))[:, None]
    out += start[:, None]
    if geometric:
        np.power(10.0, out, out=out)
        out[:, 0] = lo
        # A linear collapsed row is lo + k * 0.0; 10 ** log10(lo) need not be lo.
        np.copyto(out, lo[:, None], where=(lo == hi)[:, None])
    out[:, -1] = hi
    return out


def _point_table(sizes: tuple, block: np.ndarray, baseline: np.ndarray) -> list[tuple]:
    """The points grouped by kind of block size (finite or asymptotic), the
    points one pass may hold together: per group ``(index, sizes, block,
    baseline)``, the ascending indices of its points, the block sizes of its
    kind, and each point's index into them and baseline flag."""
    asymptotic = np.array([size == ASYMPTOTIC for size in sizes], dtype=bool)
    groups = []
    for own in (~asymptotic, asymptotic):  # the sizes of one kind
        index = np.flatnonzero(own[block])
        if index.size:
            groups.append((index, tuple(size for size, k in zip(sizes, own) if k),
                           (np.cumsum(own) - 1)[block[index]], baseline[index]))
    return groups


class _Incumbents:
    """Each point's best candidate so far, as arrays over the points.

    ``found`` marks the points that have one.  Column ``j`` of ``values``
    holds point ``j``'s px and mu, then the float fields of its
    :class:`KeyRateReport` in their order; the last, R_coh_signed, is its
    score.
    """

    ROWS = len(fields(KeyRateReport)) + 1  # px, mu and the fields but feasible

    def __init__(self, size: int) -> None:
        self.found = np.zeros(size, dtype=bool)
        self.values = np.zeros((self.ROWS, size))

    def update(self, points: np.ndarray, px: np.ndarray, mu: np.ndarray,
               batch: KeyRateReport) -> None:
        """Offer the pass ``batch`` over (point, px, mu), whose row ``r``
        is point ``points[r]`` on the axes ``px[r]`` x ``mu[r]``.

        Every field of ``batch`` is a 3-d array with one row per point,
        whose other axes have the pass's lengths or 1.
        """
        feasible = batch.feasible
        n, n_px, n_mu = len(points), px.shape[1], mu.shape[1]
        rates = np.where(feasible, batch.R_coh_signed, -np.inf).reshape(n, -1)
        top = rates.argmax(axis=1)
        rows = np.arange(n)
        score = rates[rows, top]  # the row max, as the winner's own rate
        # A score above -inf is a feasible candidate's.  Where it is -inf or
        # NaN (np.argmax ranks NaN above every rate), the row is ranked again
        # among its feasible candidates with a rate, NaN below -inf: the
        # first of the largest wins, and a row with none has no winner.
        won = score > -np.inf
        lost = ~won
        if np.count_nonzero(lost):
            again = rates[lost]
            ok = np.broadcast_to(feasible, (n, n_px, n_mu))[lost].reshape(
                len(again), -1) & ~np.isnan(again)
            score[lost] = np.where(ok, again, -np.inf).max(axis=1)
            top[lost] = (ok & (again == score[lost][:, None])).argmax(axis=1)
            won[lost] = ok.any(axis=1)
        a, b = np.divmod(top, n_mu)

        def pick(field):  # each row's winner in a field of a broadcasting shape
            return field[rows, a if field.shape[1] > 1 else 0, b if field.shape[2] > 1 else 0]

        better = won & (~self.found[points] | (score > self.values[-1, points]))
        if not np.count_nonzero(better):
            return
        i = points[better]
        self.found[i] = True
        # vars() holds the fields in their order, feasible first.
        picked = [px[rows, a], mu[rows, b], *map(pick, list(vars(batch).values())[1:])]
        self.values[:, i] = np.array(picked)[:, better]


def _sweep(channel: ChannelParams, eta: np.ndarray, groups: list[tuple],
           live: np.ndarray, px_axes: np.ndarray, mu_axes: np.ndarray,
           calib: SourceCalibration, security: SecurityConfig, best: _Incumbents) -> None:
    """One sweep of the (px, mu) grid ``px_axes[j]`` x ``mu_axes[j]`` of each
    point ``j`` where the boolean mask ``live`` is True, evaluated as one
    broadcast (point, px, mu) pass per group and chunk of points.

    ``groups`` is the point table; the sweep takes each group's live members
    with their block-size indices and baseline flags.  Each pass updates the
    array incumbents ``best``: within a sweep the first of equal rates among
    the feasible candidates of a point, in lexicographic (px, mu) order,
    wins, and replaces the point's incumbent only if strictly larger.
    """
    some_dead = not live.all()
    step = max(1, _CHUNK // (px_axes.shape[1] * mu_axes.shape[1]))
    for index, sizes, block, baseline in groups:
        if some_dead:
            keep = live[index]
            index, block, baseline = index[keep], block[keep], baseline[keep]
        for start in range(0, len(index), step):
            part = slice(start, start + step)
            chunk, px, mu = index[part], px_axes[index[part]], mu_axes[index[part]]
            # One array as both intensities: the pass computes mu-only work once.
            p, m = px[:, :, None], mu[:, None, :]
            batch = evaluate_points(channel, calib, p, m, m, eta[chunk][:, None, None],
                                    security, sizes, block[part][:, None, None],
                                    baseline[part][:, None, None])
            best.update(chunk, px, mu, batch)


def search_points(channel: ChannelParams, calib: SourceCalibration,
                  security: SecurityConfig, eta: np.ndarray, sizes: tuple,
                  block: np.ndarray, baseline: np.ndarray, space: SearchSpace = SearchSpace()
                  ) -> tuple[np.ndarray, np.ndarray, KeyRateReport]:
    """Best feasible (px, mu) of each point ``j``: transmittance ``eta[j]``,
    block size ``sizes[block[j]]`` (distinct sizes) and mode ``baseline[j]``;
    ``channel`` gives the dark-count and misalignment probabilities only.

    Returns each point's px and mu and one :class:`KeyRateReport` whose
    fields are arrays over the points; ``feasible`` marks the points with a
    feasible candidate in the coarse grid, and the others hold 0 in every
    array.  Each point's search is the one :func:`optimize` describes, and
    its result does not depend on the other points.  Refinement ends before
    ``space.refine_rounds`` once every point's axes have collapsed to its
    incumbent, which later rounds could not replace.
    """
    for size in sizes:
        require_block(size)
    if not (len(block) == len(baseline) == len(eta)
            and ((0 <= block) & (block < len(sizes))).all()):
        raise ValueError("block and baseline need one entry per point, "
                         "and block an index into sizes")
    groups = _point_table(sizes, block, baseline)
    best = _Incumbents(len(eta))
    px_lo, px_hi = space.px_range
    mu_lo, mu_hi = space.mu_range
    n_px, n_mu = space.grid
    live = np.ones(len(eta), dtype=bool)
    lo, hi = np.full(len(eta), px_lo), np.full(len(eta), px_hi)
    m_lo, m_hi = np.full(len(eta), mu_lo), np.full(len(eta), mu_hi)
    px_width = px_hi - px_lo
    log_mu_width = math.log(mu_hi / mu_lo)
    for sweep in range(space.refine_rounds + 1):
        if sweep:
            px_width /= space.shrink
            log_mu_width /= space.shrink
            live = best.found.copy()  # a point with no coarse incumbent is not swept again
            # Its axes are never read; its mu is centred on mu_lo, as log10(0) would warn.
            px_c, mu_c = best.values[0], np.where(live, best.values[1], mu_lo)
            lo = np.maximum(px_lo, px_c - px_width / 2.0)
            hi = np.minimum(px_hi, px_c + px_width / 2.0)
            m_lo = np.maximum(mu_lo, mu_c * math.exp(-log_mu_width / 2.0))
            m_hi = np.minimum(mu_hi, mu_c * math.exp(log_mu_width / 2.0))
            # Collapsed axes hold only the incumbents, which no sweep replaces.
            if ((lo == hi) & (m_lo == m_hi) | ~live).all():
                break
        _sweep(channel, eta, groups, live, _axes(lo, hi, n_px, False),
               _axes(m_lo, m_hi, n_mu, True), calib, security, best)
    px, mu, *report = best.values
    return px, mu, KeyRateReport(best.found, *report)


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
    if mode not in MODES:  # before the search, which would run it in improved mode
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    px, mu, report = search_points(channel, calib, security, np.array(
        [arm_transmittance(channel)]), (block_size,), np.zeros(1, dtype=int),
        np.array([mode == "baseline"]), space)
    if not report.feasible[0]:
        raise NoFeasiblePointError("no feasible (px, mu) candidate in the grid")
    px, mu = float(px[0]), float(mu[0])
    return (ProtocolParams(p0=1.0 - px, px=px, mu_xA=mu, mu_xB=mu, mode=mode,
                           N=1 if block_size == ASYMPTOTIC else float(block_size)),
            report.row(0))
