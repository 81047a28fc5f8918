"""Seeded Monte Carlo event simulator; independent oracle for the channel model.

A run of ``protocol.N`` windows is sampled exactly in distribution, without
drawing every window, so its cost does not depend on N.  The four
window-kind counts (O, Z_A, Z_B, B) are one multinomial draw, and each kind
heralds a binomial share of its windows.  In improved mode Charlie
compensates the phase in every window, so every window's detector means
are fixed; in baseline mode the O and Z windows' means are fixed too, since
they carry no interference.  Such a window heralds when the right detector
clicks and the left one does not.
A baseline B window has a uniformly random phase, independent of every
other window's, and heralds on exactly one click; its heralded count is
therefore ``Binomial(count_B, p_bar)``, where ``p_bar`` is the phase average
of the exactly-one-click probability.  The integrand is periodic and
analytic in the phase, so the trapezoid rule over equispaced phases
converges geometrically (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)).

Every heralding probability is combined here from the channel model's
detector means (``detector_means``) and click probability (``click_prob``),
never taken from the channel model's heralding formulas, so the cross-check
stays independent.

``simulate_arrays`` is the array core; it checks only its row counts.
:func:`simulate`, the one-row call, checks the seed and window count, and
its records check every other range (the nonnegative intensities and
transmittance that ``detector_means`` needs among them).  ``scsqkd scan
--mc-validate`` calls the core with the scan's own arrays, and the ``cli``
module docstring says where its checks are made.

All draws of a run come from one counter-based Philox stream keyed on
(seed, 0), so the output depends only on the inputs.  A call builds one
Philox bit generator and re-keys it for each run through its ``state``
setter, which costs far less than building a generator per run (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC'11); no generator
outlives the call.
"""
from __future__ import annotations

import math

import numpy as np

from .channel import (ChannelParams, ProtocolParams, WindowTally, arm_transmittance,
                      click_prob, detector_means, visibility)

# O = both vacuum, Z_A = Alice vacuum / Bob coherent, Z_B the reverse,
# B = both coherent.
_KINDS = ("O", "Z_A", "Z_B", "B")

# The phase average of a run with interference term c = V eta sqrt(mu_A mu_B)
# takes 64 + 2**ceil(log2 c) phases for c > 1, and 64 below.  The exponent
# stops at 16, which bounds a run's phase grid where c > 65536, intensities
# of 1e5 photons and more, far beyond any physical source; the capped grid
# stays within 1.2e-11 of a 50-digit reference at c = 1e6 and 5e-10 at 1e8.
_PHASES = 64
_MAX_PHASE_EXPONENT = 16

# Elements of one phase-average block (runs x phases), which bounds memory
# when many runs or a large c come together.
_PHASE_BLOCK = 1 << 16


def require_seed(seed: int) -> None:
    """Raise ValueError unless ``seed`` fits the unsigned 64-bit Philox key."""
    if not (0 <= seed < 2**64):
        raise ValueError(f"seed must lie in [0, 2**64), got {seed!r}")


def require_windows(n) -> None:
    """Raise ValueError unless ``n`` is a whole number in [1, 2**63).

    The multinomial draw of the window-kind counts takes a signed 64-bit
    count; a fractional count would be truncated.
    """
    if not (1 <= n < 2**63 and n == int(n)):
        raise ValueError(f"window count must be a whole number in "
                             f"[1, 2**63), got {n!r}")


def _phase_count(c: float) -> int:
    """Trapezoid phases for interference term ``c``: ``64 + 2**ceil(log2 c)``
    for ``c > 1``."""
    if c <= 1.0:
        return _PHASES
    # c = mantissa * 2**exponent with mantissa in [0.5, 1): a power of two
    # has mantissa 0.5 and needs one doubling less.
    mantissa, exponent = math.frexp(c)
    return _PHASES + 2 ** min(exponent - (mantissa == 0.5), _MAX_PHASE_EXPONENT)


def _phase_averaged_b_prob(mu_A, mu_B, eta, e_d, p_d) -> np.ndarray:
    """Phase average of a B window's exactly-one-click probability, elementwise
    over 1-d arrays.

    Each element averages ``p_L (1 - p_R) + p_R (1 - p_L)`` over the
    equispaced phases ``2 pi k / M`` of its own phase count ``M``, so its
    value does not depend on the other elements.  A detector stays dark with
    probability ``(1 - p_d) e^{-nu}``, taken directly rather than as
    ``1 - click_prob``, which would round to 0 where a detector almost surely
    clicks and lose every digit of a small average.
    """
    c = np.abs(visibility(e_d)) * eta * np.sqrt(mu_A * mu_B)
    groups: dict[int, list[int]] = {}
    for row, value in enumerate(c.tolist()):
        groups.setdefault(_phase_count(value), []).append(row)
    out = np.empty(c.shape)
    for m, rows in groups.items():
        cos_delta = np.cos(np.arange(m, dtype=float) * (2.0 * np.pi / m))
        step = max(1, _PHASE_BLOCK // m)
        for start in range(0, len(rows), step):
            block = np.array(rows[start:start + step])
            sel = block[:, None]
            nu = np.array(detector_means("B", mu_A[sel], mu_B[sel], eta[sel],
                                         e_d[sel], cos_delta=cos_delta))
            p_click = click_prob(nu, p_d[sel])
            dark = (1.0 - p_d[sel]) * np.exp(-nu)
            one_click = p_click[0] * dark[1] + p_click[1] * dark[0]
            out[block] = one_click.sum(axis=1) / m
    return out


def _heralding(mu_A, mu_B, eta, e_d, p_d, baseline) -> np.ndarray:
    """Heralding probability of each window kind of ``_KINDS``, one row per run,
    over 1-d arrays of one length; ``baseline`` marks the random-phase runs.

    One array pass over all runs.  A kind with fixed detector means heralds
    with ``p_R (1 - p_L)``, the left detector's dark probability taken
    directly as ``(1 - p_d) e^{-nu_L}`` (see :func:`_phase_averaged_b_prob`);
    a baseline run's B column is the phase average of
    :func:`_phase_averaged_b_prob`.
    """
    # (nu_L, nu_R) x kind x run
    nu = np.empty((2, len(_KINDS), len(eta)))
    for col, kind in enumerate(_KINDS):
        nu[0, col], nu[1, col] = detector_means(kind, mu_A, mu_B, eta, e_d)
    probs = (click_prob(nu[1], p_d) * ((1.0 - p_d) * np.exp(-nu[0]))).T
    random_phase = np.flatnonzero(baseline)
    if random_phase.size:
        probs[random_phase, -1] = _phase_averaged_b_prob(
            mu_A[random_phase], mu_B[random_phase], eta[random_phase],
            e_d[random_phase], p_d[random_phase])
    return probs


def simulate_arrays(px, mu_A, mu_B, eta, e_d, p_d, baseline, windows,
                    seeds) -> list[tuple[int, int, int]]:
    """Sampled (n_O, n_B, n_Z) of several runs, one per row of 1-d arrays of
    one length: coherent-source probabilities px (each party sends vacuum
    with p0 = 1 - px), intensities, one-arm transmittance, misalignment and
    dark-count probabilities, the random-phase mask ``baseline``, and the
    sequences ``windows`` and ``seeds``.

    Only row counts are checked: per-row inputs of unequal lengths raise
    ValueError, before any draw.  The caller passes what :func:`simulate`
    checks for one row: px in (0, 1), nonnegative intensities and
    transmittance, p_d and e_d in [0, 1], each window count accepted by
    :func:`require_windows` and each seed by :func:`require_seed`.  One
    array pass gives every row's heralding probabilities, and one Philox
    bit generator, re-keyed per row, draws every row's counts.
    """
    lengths = [len(c) for c in (px, mu_A, mu_B, eta, e_d, p_d, baseline, windows, seeds)]
    if len(set(lengths)) > 1:
        raise ValueError(f"per-row inputs must have one length, got {lengths}")
    probs = _heralding(mu_A, mu_B, eta, e_d, p_d, baseline)
    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    rng = np.random.Generator(bitgen)
    # A fresh generator's state: counter 0 and an empty buffer.  Only the
    # key changes from row to row.
    fresh = bitgen.state
    tallies = []
    for px_row, n, seed, kind_probs in zip(px.tolist(), windows, seeds, probs.tolist()):
        p0_row = 1.0 - px_row
        fresh["state"]["key"] = np.array([seed, 0], dtype=np.uint64)
        bitgen.state = fresh
        counts = rng.multinomial(int(n), [p0_row * p0_row, p0_row * px_row,
                                          px_row * p0_row, px_row * px_row])
        # The B count is drawn last, so a baseline row's O and Z draws are
        # those of the improved mode.
        n_O, n_ZA, n_ZB, n_B = (rng.binomial(count, p) for count, p in
                                zip(counts.tolist(), kind_probs))
        tallies.append((n_O, n_B, n_ZA + n_ZB))
    return tallies


def simulate(protocol: ProtocolParams, channel: ChannelParams, seed: int) -> WindowTally:
    """Sampled effective-window tallies over ``protocol.N`` windows.

    Heralding mirrors the analytic model.  Every window with fixed detector
    means - all of them in improved mode, whose phase is compensated, and
    the O and Z windows in baseline mode - is effective when the right
    detector clicks and the left one does not.  Detectors click
    independently, so such a kind heralds ``Binomial(count, p_R (1 - p_L))``
    windows.  Baseline B windows have a uniformly random phase and herald on
    exactly one click, ``Binomial(count_B, p_bar)`` windows with ``p_bar``
    the phase average.  Both are exact, not approximations; the cost does
    not depend on N.  The one-row call of :func:`simulate_arrays`; it checks
    the seed and window count, and the records check every other range.
    """
    require_seed(seed)
    require_windows(protocol.N)
    (n_O, n_B, n_Z), = simulate_arrays(
        *np.array([[protocol.px], [protocol.mu_xA], [protocol.mu_xB],
                   [arm_transmittance(channel)], [channel.e_d], [channel.p_d]], dtype=float),
        np.array([protocol.mode == "baseline"]), [protocol.N], [seed])
    return WindowTally(n_O=n_O, n_B=n_B, n_Z=n_Z)
