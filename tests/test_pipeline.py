"""Tests for the array evaluation of candidates against the one-point path."""
import math
from dataclasses import replace

import numpy as np
import pytest

from scsqkd import pipeline
from scsqkd.channel import ChannelParams, ProtocolParams, arm_transmittance
from scsqkd.optimizer import optimize
from scsqkd.pipeline import (InfeasibleError, SecurityConfig, SourceCalibration,
                             evaluate_point, evaluate_points)

CHANNEL_50 = ChannelParams(50.0, 0.2, 0.3, 1e-9, 0.04)
CALIB = SourceCalibration()

# a0 = exp(-(1 + fluct) mu) reaches the mapping limit 0.5 at mu = ln 2 / 1.1.
MU_EDGE = math.log(2.0) / (1.0 + CALIB.fluct)


def _sweep():
    """A 20 x 20 grid in lexicographic (px, mu) order; 7 mu values straddle
    the mapping limit within a few ulp."""
    mu_vals = np.concatenate((np.geomspace(1e-4, 1.0, 13),
                              MU_EDGE * (1.0 + 2.2e-16 * np.arange(-3, 4))))
    px_vals = np.linspace(0.01, 0.99, 20)
    return (g.ravel() for g in np.meshgrid(px_vals, mu_vals, indexing="ij"))


@pytest.mark.parametrize("block, mode", [(1e12, "improved"), (1e10, "baseline"),
                                         ("asymptotic", "improved"),
                                         ("asymptotic", "baseline")])
def test_batch_equals_evaluate_point(block, mode):
    px, mu = _sweep()
    batch = evaluate_points(CHANNEL_50, CALIB, 1.0 - px, px, mu, mu,
                            arm_transmittance(CHANNEL_50), SecurityConfig(), block, mode)
    raised = np.zeros(px.size, dtype=bool)
    for i, (p, m) in enumerate(zip(px.tolist(), mu.tolist())):
        proto = ProtocolParams(p0=1.0 - p, px=p, mu_xA=m, mu_xB=m, N=1, mode=mode)
        try:
            report = evaluate_point(CHANNEL_50, CALIB, proto, SecurityConfig(), block)
        except InfeasibleError:
            raised[i] = True
            continue
        assert report == batch.row(i)
        assert report.R_coh_signed == batch.R_coh_signed[i]
        assert report.e_ph == batch.e_ph[i]
        assert (report.n_O, report.n_B, report.n_Z) == (
            batch.n_O[i], batch.n_B[i], batch.n_Z[i])
    assert np.array_equal(batch.feasible, ~raised)
    edge = np.abs(mu - MU_EDGE) < 1e-12
    assert batch.feasible[edge].any() and not batch.feasible[edge].all()


@pytest.mark.parametrize("block", [1e12, "asymptotic"])
def test_rows_derive_like_the_pass(block):
    # A row holds floats, and its clamped rates and E_Z are those of the
    # pass: one derivation serves both shapes.
    px, mu = _sweep()
    batch = evaluate_points(CHANNEL_50, CALIB, 1.0 - px, px, mu, mu,
                            arm_transmittance(CHANNEL_50), SecurityConfig(), block)
    assert ((batch.R_coh == 0.0) & batch.feasible).any()
    for i in np.flatnonzero(batch.feasible).tolist():
        row = batch.row(i)
        assert row.feasible is True
        assert {type(getattr(row, name)) for name in
                ("mu_virtual_A", "n_Z", "e_ph", "R_coh_signed", "R_coh", "E_Z")} == {float}
        assert (row.R_col, row.R_coh, row.E_Z) == (batch.R_col[i], batch.R_coh[i],
                                                   batch.E_Z[i])


@pytest.mark.parametrize("mode", ["improved", "baseline"])
def test_mixed_batch_equals_evaluate_point(mode):
    # One finite pass over candidates at four distances and three block
    # sizes, interleaved; each candidate's block size is an index into the
    # distinct sizes.
    px, mu = _sweep()
    channels = [replace(CHANNEL_50, distance_km=d) for d in (0.0, 50.0, 150.0, 400.0)]
    blocks = (1e10, 1e12, 1e14)
    which = np.arange(px.size)
    eta = np.array([arm_transmittance(c) for c in channels])[which % 4]
    batch = evaluate_points(CHANNEL_50, CALIB, 1.0 - px, px, mu, mu, eta,
                            SecurityConfig(), blocks, mode, which % 3)
    for i in np.flatnonzero(batch.feasible).tolist():
        proto = ProtocolParams(p0=1.0 - px[i], px=px[i], mu_xA=mu[i], mu_xB=mu[i],
                               N=1, mode=mode)
        assert evaluate_point(channels[i % 4], CALIB, proto, SecurityConfig(),
                              blocks[i % 3]) == batch.row(i)
    assert batch.feasible.sum() > 300


def test_underflowed_n_z_keeps_half_phase_error():
    # At eta mu = 1e-322 the Z heralding probability is subnormal, and
    # n_Z = p0 px p_Z underflows to 0 at px = 0.01 but not at px = 0.5.
    # Where n_Z = 0, e_ph stays 0.5 and the rate -inf, although the px-free
    # asymptotic e_ph of that (point, mu) is 0 at exact vacuum bounds.
    px = np.array([[0.01], [0.5]])
    mu = np.array([1e-300])
    batch = evaluate_points(replace(CHANNEL_50, p_d=0.0), SourceCalibration(1.0, 1.0),
                            1.0 - px, px, mu, mu, 1e-22, SecurityConfig(), "asymptotic")
    assert batch.n_Z[0, 0] == 0.0 < batch.n_Z[1, 0]
    assert batch.e_ph.tolist() == [[0.5], [0.0]]
    assert batch.R_coh_signed[0, 0] == -np.inf


@pytest.mark.parametrize("block", [0.5, "1e12", True, 0, math.inf, math.nan,
                                   pytest.param(10**400, id="10**400"),
                                   "Asymptotic"])
def test_invalid_block_size_is_named(block):
    # 0.5, "1e12" and True used to give a report; 0 raised ZeroDivisionError,
    # inf and nan an error about log_xi.
    proto = ProtocolParams(p0=0.5, px=0.5, mu_xA=0.1, mu_xB=0.1, N=1)
    with pytest.raises(ValueError, match="block_size"):
        evaluate_point(CHANNEL_50, CALIB, proto, SecurityConfig(), block)


def test_optimize_rejects_block_size_before_evaluating(monkeypatch):
    # optimize(..., 0.5) used to run the whole search, then fail building
    # the optimal ProtocolParams.
    def fail(*args, **kwargs):
        raise AssertionError("evaluated a candidate")
    # The pass's first channel evaluation, and the tallies formed from it.
    monkeypatch.setattr(pipeline, "heralding_arrays", fail)
    monkeypatch.setattr(pipeline, "tally_arrays", fail)
    with pytest.raises(ValueError, match="block_size"):
        optimize(CHANNEL_50, CALIB, 0.5, SecurityConfig())
