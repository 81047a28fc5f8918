"""End-to-end evaluation of (channel, protocol, block size) points.

Glues the modules together: worst-case source bounds -> virtual intensities,
channel expectations at nominal intensities, phase-error bound at the
resolved security budget, and the collective/coherent key rates.  The block
size may be the literal string "asymptotic", in which case Chernoff slack
and all finite-size penalty terms vanish.

:func:`evaluate_points` evaluates candidates given as inputs that broadcast
together in one pass, with a feasibility mask where the source bounds admit
no virtual-protocol mapping; each candidate has its own source choice (px
alone, with p0 = 1 - px), transmittance, block size and heralding mode (the
boolean ``baseline`` column of ``channel``), so one pass can span several
distances, block sizes and both modes.  Each quantity is computed on the
shape of the inputs it depends on: on a (point, px, mu) grid the source
mapping, the heralding probabilities and the asymptotic phase error (a
closed form in those probabilities) run once per (point, mu), and the n_O
Chernoff bound once per px.  Given one array as both intensities, as the
optimizer passes it, the mu-only quantities are computed once, not once per
party.
:func:`evaluate_point` is the same computation on one candidate.

Both return a :class:`~scsqkd.keyrate.KeyRateReport`: a pass's holds arrays
that broadcast to the candidates' shape, each on the shape of the inputs it
depends on, and its ``row(i)`` is candidate ``i``'s report in floats, which
is what :func:`evaluate_point` returns.  A finite candidate's security
budget enters as its one log share of eps_col, indexed from the distinct
block sizes like the coherent-attack penalty.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .channel import (ChannelParams, ProtocolParams, _check, arm_transmittance,
                      heralding_arrays, tally_arrays)
from .keyrate import (KeyRateReport, coherent_attack_penalty, collective_rate_array,
                      ec_leakage_array, security_budget)
from .mapping import virtual_intensity_array
from .phase_error import asymptotic_phase_error, decomposition_arrays, phase_error_arrays

ASYMPTOTIC = "asymptotic"

# Largest post-selection dimension d (8 in the source paper).  The budget's
# (d^2 - 1) ln(N + 1) nats leave the float range from d ~ 5e152, and NaN rates
# come before that (d = 1e152 at N = 1e10); up to this bound a scan's terms
# stay finite at block sizes up to MAX_BLOCK (0-300 km, both modes).
MAX_D = 10 ** 50
# Largest finite block size.  Beyond it the rate's n_Z (1 + log2(1/eps)) term
# overflows doubles: from N ~ 1e305 at d = 8 and N ~ 1e207 at d = MAX_D.
MAX_BLOCK = 1e200
# Largest error-correction efficiency.  From f ~ 1e108 at MAX_BLOCK the
# leakage f n H(E_Z) overflows doubles.
MAX_F = 1e100


def require_block(block_size) -> None:
    """Raise ValueError unless ``block_size`` is ASYMPTOTIC or a real number
    in [1, MAX_BLOCK] (a bool is not a block size)."""
    if block_size == ASYMPTOTIC:
        return
    if not (isinstance(block_size, Real) and not isinstance(block_size, bool)
            and 1.0 <= block_size <= MAX_BLOCK):
        raise ValueError(f"block_size must be {ASYMPTOTIC!r} or a number in "
                         f"[1, {MAX_BLOCK:.0e}], got {block_size!r}")


class InfeasibleError(ValueError):
    """Raised when a candidate admits no virtual-protocol mapping."""


@dataclass(frozen=True)
class SourceCalibration:
    """Calibration facts independent of the scanned intensity.

    av0/bv0 bound the vacuum-source vacuum amplitudes; fluct is the relative
    intensity fluctuation half-width of the coherent sources.
    """

    av0: float = 1.0 - 1e-8
    bv0: float = 1.0 - 1e-8
    fluct: float = 0.1

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it.
        _check(self, (("av0", 0.5 <= self.av0 <= 1.0, "lie in [0.5, 1]"),
                      ("bv0", 0.5 <= self.bv0 <= 1.0, "lie in [0.5, 1]"),
                      ("fluct", 0.0 <= self.fluct < 1.0, "lie in [0, 1)")))


@dataclass(frozen=True)
class SecurityConfig:
    """Security target and accounting constants shared across a scan.

    eps_coh_target lies in (0, 1); the error-correction efficiency f lies
    in [1, MAX_F] (leakage below the Shannon limit would inflate every
    rate); the post-selection dimension d is an integer in [2, MAX_D].
    """

    eps_coh_target: float = 1e-10
    f: float = 1.1
    d: int = 8

    def __post_init__(self) -> None:
        _check(self, (("eps_coh_target", 0.0 < self.eps_coh_target < 1.0, "lie in (0, 1)"),
                      ("f", 1.0 <= self.f <= MAX_F, f"lie in [1, {MAX_F:.0e}]"),
                      ("d", isinstance(self.d, Integral) and 2 <= self.d <= MAX_D,
                       f"be an integer in [2, {MAX_D:.0e}]")))


def evaluate_points(channel: ChannelParams, calib: SourceCalibration,
                    px: np.ndarray, mu_A: np.ndarray, mu_B: np.ndarray, eta,
                    security: SecurityConfig, sizes: tuple, block=0,
                    baseline=False) -> KeyRateReport:
    """Key rates of the candidates (px, mu_A, mu_B), with p0 = 1 - px,
    elementwise, as a :class:`KeyRateReport` of arrays.

    The candidates' inputs, ``eta`` (the one-arm transmittance), ``block``
    and the mode column ``baseline`` broadcast together; ``channel`` gives
    the dark-count and misalignment probabilities, not the distance.
    ``sizes`` is ``(ASYMPTOTIC,)`` or a nonempty tuple of finite block sizes
    (else ValueError), of which the integer ``block`` picks each candidate's.
    At finite sizes the candidates need a search pass's layout: px and
    ``block`` together span every axis but the last, on which ``block`` has
    length 1 (or it is 0-d); any other layout raises ValueError.
    The inputs must satisfy what :class:`ProtocolParams` checks for one
    candidate.  Each element's result is the one :func:`evaluate_point` gives
    for that candidate alone.
    """
    # The security budget's share and the coherent-attack penalty are
    # computed once per distinct block size by the scalar formulas (numpy's
    # log1p and log2 need not match libm to the last bit), then indexed per
    # candidate.
    asymptotic = sizes == (ASYMPTOTIC,)
    if not (isinstance(sizes, tuple) and sizes and (asymptotic or ASYMPTOTIC not in sizes)):
        raise ValueError(f"sizes must be ({ASYMPTOTIC!r},) or a nonempty tuple of "
                         f"finite block sizes, got {sizes!r}")
    for size in sizes:
        require_block(size)
    mu_vA, ok_A = virtual_intensity_array(mu_A, calib.av0, calib.fluct)
    # One array as both intensities, at equal vacuum bounds: mu-only work once.
    mu_vB, ok_B = ((mu_vA, ok_A) if mu_B is mu_A and calib.bv0 == calib.av0
                   else virtual_intensity_array(mu_B, calib.bv0, calib.fluct))
    if asymptotic:
        n, log_share = 1.0, None
    else:
        sizes = [float(size) for size in sizes]
        n = np.array(sizes)[block]
        log_share = np.array([
            security_budget(security.eps_coh_target, size, security.d)
            for size in sizes])[block]
    probs = heralding_arrays(mu_A, mu_B, eta, channel.e_d, channel.p_d, baseline)
    n_O, n_B, n_Z = tally_arrays(px, n, *probs)
    leak = ec_leakage_array(n_O, n_B, n_Z, security.f)
    has_z = n_Z > 0.0
    # Where n_Z = 0, also where it underflows and p_Z does not, e_ph is 0.5 and
    # the rate -inf; the masks run only on a pass that holds such an element.
    empty = np.count_nonzero(has_z) < has_z.size
    coeffs = decomposition_arrays(mu_vA, mu_vB)
    if asymptotic:
        # N p0 px cancels from the asymptotic e_ph (see phase_error): the
        # heralding probabilities give it on their own, px-free axes.
        p_O, p_B, p_Z = probs
        e_ph = asymptotic_phase_error(p_O, p_B, np.where(p_Z > 0.0, p_Z, 1.0), *coeffs)
    else:
        e_ph = phase_error_arrays(n_O, n_B, np.where(has_z, n_Z, 1.0) if empty else n_Z,
                                  n, px, *coeffs, log_xi=log_share)[-1]
    if empty:
        e_ph = np.where(has_z, e_ph, 0.5)
    r_col = collective_rate_array(n_Z, e_ph, leak, log_share, security.d, n)
    if empty:
        r_col = np.where(has_z, r_col, -np.inf)
    r_coh = r_col if asymptotic else r_col - np.array(
        [coherent_attack_penalty(size, security.d) for size in sizes])[block]
    # Each field keeps the shape of the inputs it depends on.
    return KeyRateReport(ok_A if ok_B is ok_A else ok_A & ok_B, mu_vA, mu_vB,
                         n_O, n_B, n_Z, e_ph, leak, r_col, r_coh)


def evaluate_point(channel: ChannelParams, calib: SourceCalibration,
                   protocol: ProtocolParams, security: SecurityConfig,
                   block_size: float | str) -> KeyRateReport:
    """Key-rate report for one candidate protocol at one block size.

    An asymptotic point is one window (N = 1) with no Chernoff slack, no
    security budget and no finite-size or coherent-attack penalty, so its
    collective and coherent rates coincide.  ``protocol.N`` is not read:
    the block size comes from ``block_size`` alone.  Raises InfeasibleError
    when the worst-case source bounds admit no virtual-protocol mapping.
    """
    one = [np.array([v]) for v in (protocol.px, protocol.mu_xA, protocol.mu_xB)]
    batch = evaluate_points(channel, calib, *one, arm_transmittance(channel),
                            security, (block_size,), baseline=protocol.mode == "baseline")
    if not batch.feasible[0]:
        raise InfeasibleError(
            f"no virtual-protocol mapping for mu_xA={protocol.mu_xA!r}, "
            f"mu_xB={protocol.mu_xB!r} at fluct={calib.fluct!r}")
    return batch.row(0)
