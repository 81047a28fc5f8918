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
converges geometrically (Trefethen & Weideman, SIAM Rev. 56, 385 (2014));
at the interference terms ``c <= 1`` that capped intensities allow, one grid
of 64 phases is exact to rounding.

Every heralding probability is combined here from the channel model's
detector means (``detector_means``) and click probability (``click_prob``),
never taken from the channel model's heralding formulas, so the cross-check
stays independent.

``simulate_arrays`` is the array core; it checks only its row counts.
:func:`simulate`, the one-row call, checks the seed and window count, and
its records check every other range (intensities and transmittance in
[0, 1] among them).  ``scsqkd scan --mc-validate`` calls the core with the
scan's own arrays, and the ``cli`` module docstring says where its checks
are made.

All draws of a run come from one counter-based Philox stream keyed on
(seed, 0), so the output depends only on the inputs.  A call builds one
Philox bit generator and re-keys it for each run through its ``state``
setter, which costs far less than building a generator per run (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC'11); no generator
outlives the call.
"""
from __future__ import annotations

import numpy as np

from .channel import (ChannelParams, ProtocolParams, WindowTally, arm_transmittance,
                      click_prob, detector_means)

# O = both vacuum, Z_A = Alice vacuum / Bob coherent, Z_B the reverse,
# B = both coherent.
_KINDS = ("O", "Z_A", "Z_B", "B")

# The phase average of a B window takes 64 equispaced phases.  At an
# interference term c = V eta sqrt(mu_A mu_B) <= 1, which the intensity cap
# channel.MAX_MU and a transmittance <= 1 guarantee, the trapezoid rule over
# them is exact to rounding.  Their cosines are taken per call, not at
# import, where the first np.cos raised the peak memory of every scan by
# ~0.2 MB, also without the Monte Carlo cross-check.
_PHASES = 64

# Runs per phase-average block: each (runs x phases) temporary of a block
# stays at 0.5 MB, however many random-phase runs come together (10^5 runs
# in one block peaked at 392 MiB of traced memory, in these blocks at 6 MiB).
_ROWS_PER_BLOCK = 1024


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


def _phase_averaged_b_prob(mu_A, mu_B, eta, e_d, p_d) -> np.ndarray:
    """Phase average of a B window's exactly-one-click probability, elementwise
    over 1-d arrays.

    Each element averages ``p_L (1 - p_R) + p_R (1 - p_L)`` over the 64
    equispaced phases ``2 pi k / 64``, so its value does not depend on the
    other elements.  A detector stays dark with probability
    ``(1 - p_d) e^{-nu}``, taken directly rather than as ``1 - click_prob``,
    which would round to 0 where a detector almost surely clicks and lose
    every digit of a small average.
    """
    cos_delta = np.cos(np.arange(_PHASES, dtype=float) * (2.0 * np.pi / _PHASES))
    out = np.empty(len(eta))
    for start in range(0, len(eta), _ROWS_PER_BLOCK):
        rows = slice(start, start + _ROWS_PER_BLOCK)
        mu_a, mu_b, eta_r, e_d_r, p_d_r = (x[rows, None] for x in (mu_A, mu_B, eta, e_d, p_d))
        nu = np.array(detector_means("B", mu_a, mu_b, eta_r, e_d_r, cos_delta=cos_delta))
        p_click = click_prob(nu, p_d_r)
        dark = (1.0 - p_d_r) * np.exp(-nu)
        one_click = p_click[0] * dark[1] + p_click[1] * dark[0]
        out[rows] = one_click.sum(axis=1) / _PHASES
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
    checks for one row: px in (0, 1), intensities and transmittance in
    [0, 1], p_d and e_d in [0, 1], each window count accepted by
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
