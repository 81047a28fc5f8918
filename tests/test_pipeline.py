"""Tests for the array evaluation of candidates against the one-point path."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scsqkd import chernoff, phase_error, pipeline
from scsqkd.channel import (MODES, ChannelParams, ProtocolParams, arm_transmittance,
                            heralding_arrays, tally_arrays)
from scsqkd.mapping import virtual_intensity_array
from scsqkd.optimizer import SearchSpace, optimize, search_points
from scsqkd.pipeline import (InfeasibleError, SecurityConfig, SourceCalibration,
                             evaluate_point, evaluate_points, require_block)

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
                            arm_transmittance(CHANNEL_50), SecurityConfig(), (block,),
                            baseline=mode == "baseline")
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
                            arm_transmittance(CHANNEL_50), SecurityConfig(), (block,))
    assert ((batch.R_coh == 0.0) & batch.feasible).any()
    for i in np.flatnonzero(batch.feasible).tolist():
        row = batch.row(i)
        assert row.feasible is True
        assert {type(getattr(row, name)) for name in
                ("mu_virtual_A", "n_Z", "e_ph", "R_coh_signed", "R_coh", "E_Z")} == {float}
        assert (row.R_col, row.R_coh, row.E_Z) == (batch.R_col[i], batch.R_coh[i],
                                                   batch.E_Z[i])


@pytest.mark.parametrize("first", ["improved", "baseline"])
def test_mixed_batch_equals_evaluate_point(first):
    # One finite and one asymptotic pass over candidates at four distances,
    # three block sizes and both modes, interleaved; each candidate's block
    # size is an index into the distinct ones, and its mode is ``first`` at
    # 0 in the pattern and the other mode at 1, as a baseline column.
    px, mu = _sweep()
    channels = [replace(CHANNEL_50, distance_km=d) for d in (0.0, 50.0, 150.0, 400.0)]
    blocks = (1e10, 1e12, 1e14)
    modes = (first, "baseline" if first == "improved" else "improved")
    which = np.arange(px.size)
    mode_index = which // 12 % 2  # every (distance, block) pair in both modes
    baseline = np.array([mode == "baseline" for mode in modes])[mode_index]
    eta = np.array([arm_transmittance(c) for c in channels])[which % 4]
    for block_size, block, sizes in ((blocks, which % 3, blocks),
                                     (("asymptotic",), 0, ("asymptotic",) * 3)):
        batch = evaluate_points(CHANNEL_50, CALIB, 1.0 - px, px, mu, mu, eta,
                                SecurityConfig(), block_size, block, baseline)
        for i in np.flatnonzero(batch.feasible).tolist():
            proto = ProtocolParams(p0=1.0 - px[i], px=px[i], mu_xA=mu[i], mu_xB=mu[i],
                                   N=1, mode=modes[mode_index[i]])
            assert evaluate_point(channels[i % 4], CALIB, proto, SecurityConfig(),
                                  sizes[i % 3]) == batch.row(i)
        assert batch.feasible.sum() > 300
        assert set(mode_index[batch.feasible].tolist()) == {0, 1}


@pytest.mark.parametrize("block", [1e10, "asymptotic"])
def test_mixed_edge_batch_equals_one_candidate_calls(block):
    # Ordinary candidates in both modes mixed with n_Z = 0 (no transmission
    # and no dark counts), a NaN transmittance and, asymptotic only, an n_Z
    # that underflows where p_Z does not: the n_Z masks must run wherever an
    # element needs them, also beside a NaN.
    eta = [0.3, 0.0, np.nan, 0.1, 0.02] + [1e-150] * (block == "asymptotic")
    px = np.array([0.2, 0.2, 0.2, 0.1, 0.3, 1e-200][:len(eta)])
    mu = np.array([0.01, 0.01, 0.1, 0.001, 0.2, 0.01][:len(eta)])
    mode = np.array([0, 1, 0, 0, 1, 0][:len(eta)])
    channel = replace(CHANNEL_50, p_d=0.0)

    def fields(s):  # each field of the pass over the candidates s, as bytes
        batch = evaluate_points(channel, CALIB, 1.0 - px[s], px[s], mu[s], mu[s],
                                np.array(eta)[s], SecurityConfig(), (block,), 0,
                                mode[s] == 1)
        return batch, [[v.tobytes() for v in f] for f in
                       np.broadcast_arrays(*vars(batch).values())]

    batch, together = fields(slice(None))
    alone = [fields(slice(i, i + 1))[1] for i in range(len(eta))]
    assert together == [[one[k][0] for one in alone] for k in range(len(together))]
    empty = batch.n_Z == 0.0
    assert empty.sum() == 1 + (block == "asymptotic")
    assert (batch.e_ph[empty] == 0.5).all() and (batch.R_coh_signed[empty] == -np.inf).all()
    assert np.isnan(batch.n_Z[2]) and batch.R_coh_signed[2] == -np.inf


def test_each_party_keeps_its_own_source_bounds():
    # The mu-only mapping is shared only when one array is both intensities
    # and the vacuum bounds are equal: each party's virtual intensities are
    # the mapping of its own intensities at its own bound.
    px = np.full(3, 0.3)
    mu = np.array([1e-3, 0.01, 0.1])
    eta = arm_transmittance(CHANNEL_50)
    for calib in (CALIB, SourceCalibration(1.0 - 1e-8, 1.0 - 1e-6)):
        for mu_B in (mu, mu[::-1].copy()):
            batch = evaluate_points(CHANNEL_50, calib, 1.0 - px, px, mu, mu_B, eta,
                                    SecurityConfig(), (1e12,))
            for got, x, bound in ((batch.mu_virtual_A, mu, calib.av0),
                                  (batch.mu_virtual_B, mu_B, calib.bv0)):
                assert got.tolist() == virtual_intensity_array(
                    x, bound, calib.fluct)[0].tolist()
    # A candidate is feasible only where both parties' mappings exist.
    mu_A, mu_B = np.array([0.01, 0.9, 0.01]), np.array([0.9, 0.01, 0.02])
    batch = evaluate_points(CHANNEL_50, CALIB, 1.0 - px, px, mu_A, mu_B, eta,
                            SecurityConfig(), (1e12,))
    assert batch.feasible.tolist() == [False, False, True]


@pytest.mark.parametrize("mode", MODES)
def test_asymptotic_counts_are_one_window(mode):
    # An asymptotic candidate is one window: its counts are the heralding
    # probabilities weighted by the source choices.
    px = np.array([0.1, 0.4])
    mu = np.array([0.01, 0.2])
    eta, baseline = arm_transmittance(CHANNEL_50), mode == "baseline"
    batch = evaluate_points(CHANNEL_50, CALIB, 1.0 - px, px, mu, mu, eta,
                            SecurityConfig(), ("asymptotic",), baseline=baseline)
    want = tally_arrays(1.0 - px, px, 1.0, *heralding_arrays(
        mu, mu, eta, CHANNEL_50.e_d, CHANNEL_50.p_d, baseline))
    assert [f.tolist() for f in (batch.n_O, batch.n_B, batch.n_Z)] == [
        np.broadcast_to(w, px.shape).tolist() for w in want]


def test_underflowed_n_z_keeps_half_phase_error():
    # At eta mu = 1e-322 the Z heralding probability is subnormal, and
    # n_Z = p0 px p_Z underflows to 0 at px = 0.01 but not at px = 0.5.
    # Where n_Z = 0, e_ph stays 0.5 and the rate -inf, although the px-free
    # asymptotic e_ph of that (point, mu) is 0 at exact vacuum bounds.
    px = np.array([[0.01], [0.5]])
    mu = np.array([1e-300])
    batch = evaluate_points(replace(CHANNEL_50, p_d=0.0), SourceCalibration(1.0, 1.0),
                            1.0 - px, px, mu, mu, 1e-22, SecurityConfig(), ("asymptotic",))
    assert batch.n_Z[0, 0] == 0.0 < batch.n_Z[1, 0]
    assert batch.e_ph.tolist() == [[0.5], [0.0]]
    assert batch.R_coh_signed[0, 0] == -np.inf


@pytest.mark.parametrize("block", [1e12, "asymptotic"])
def test_evaluate_point_takes_the_block_size_not_protocol_n(block):
    # perfbench's gate passes N = 1 with a finite block size.
    proto = ProtocolParams(p0=0.5, px=0.5, mu_xA=0.1, mu_xB=0.1, N=1)
    one, *others = (evaluate_point(CHANNEL_50, CALIB, replace(proto, N=n),
                                   SecurityConfig(), block) for n in (1, 10**5, 1e12))
    assert others == [one, one]


@pytest.mark.parametrize("d, block", [(8, 1), pytest.param(pipeline.MAX_D, 1e10,
                                                              id="MAX_D-1e10")])
def test_overflowed_phase_error_ratio_keeps_half(d, block):
    # At 300 km with no dark counts and mu = 1e-300, n_Z is ~3e-306 (block
    # 1) and ~3e-296 (1e10): the phase-error bound over n_Z overflows, which
    # warned, and e_ph is the clamp 1/2.
    proto = ProtocolParams(p0=0.99, px=0.01, mu_xA=1e-300, mu_xB=1e-300, N=1)
    channel = replace(CHANNEL_50, distance_km=300.0, p_d=0.0)
    report = evaluate_point(channel, CALIB, proto, SecurityConfig(d=d), block)
    assert 0.0 < report.n_Z < 1e-295 and report.e_ph == 0.5
    assert report.R_coh_signed < 0.0


# A fixed (px, mu) grid around the optima at 0-150 km.
MONO_PX = np.linspace(0.02, 0.6, 8)[:, None]
MONO_MU = np.geomspace(1e-3, 0.5, 8)


def _clamped_rates(channel, calib, eta) -> np.ndarray:
    """R_coh in improved mode on the grid, 0 where infeasible, on the axes
    (block: 1e10, 1e12, asymptotic; eta; px; mu)."""
    args = (channel, calib, 1.0 - MONO_PX, MONO_PX, MONO_MU, MONO_MU, eta,
            SecurityConfig())
    finite = evaluate_points(*args, (1e10, 1e12), np.array([0, 1])[:, None, None, None])
    asymptotic = evaluate_points(*args, ("asymptotic",))
    rates = [np.where(b.feasible, b.R_coh, 0.0) for b in (finite, asymptotic)]
    return np.concatenate([rates[0], rates[1][None]])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(distance=st.floats(0.0, 150.0), e_d=st.floats(0.0, 0.06),
       p_d=st.floats(-11.0, -6.0).map(lambda x: 10.0 ** x), fluct=st.floats(0.0, 0.2),
       vac=st.floats(-12.0, -6.0).map(lambda x: 10.0 ** x), grow=st.floats(1.01, 2.0))
@example(distance=0.0, e_d=0.01, p_d=1e-10, fluct=0.01, vac=1e-12, grow=1.5)
def test_positive_rate_never_rises_on_a_worse_setting(distance, e_d, p_d, fluct,
                                                      vac, grow):
    # At fixed (px, mu), raising e_d, p_d or fluct, lowering av0 or adding
    # 5 km never raises the clamped coherent rate.  The signed rate below 0
    # is not monotone, so only positive rates are compared.
    channel = ChannelParams(distance, 0.2, 0.3, p_d, e_d)
    calib = SourceCalibration(1.0 - vac, 1.0 - vac, fluct)
    eta = np.array([arm_transmittance(replace(channel, distance_km=d))
                    for d in (distance, distance + 5.0)])[:, None, None]
    base = _clamped_rates(channel, calib, eta)
    assert (base[:, 1] <= base[:, 0]).all()
    for worse_channel, worse_calib in (
            (replace(channel, e_d=e_d * grow), calib),
            (replace(channel, p_d=p_d * grow), calib),
            (channel, replace(calib, fluct=fluct + 0.1 * (grow - 1.0))),
            (channel, replace(calib, av0=1.0 - vac * grow))):
        assert (_clamped_rates(worse_channel, worse_calib, eta) <= base).all()


@pytest.mark.parametrize("block", [0.5, "1e12", True, 0, math.inf, math.nan,
                                   pytest.param(10**400, id="10**400"),
                                   "Asymptotic", 1e306,
                                   pytest.param(math.nextafter(pipeline.MAX_BLOCK, math.inf),
                                                id="after-MAX_BLOCK")])
def test_invalid_block_size_is_named(block):
    # 0.5, "1e12" and True used to give a report; 0 raised ZeroDivisionError,
    # inf and nan an error about log_xi; 1e306 overflowed into -inf rates.
    proto = ProtocolParams(p0=0.5, px=0.5, mu_xA=0.1, mu_xB=0.1, N=1)
    with pytest.raises(ValueError, match="block_size"):
        evaluate_point(CHANNEL_50, CALIB, proto, SecurityConfig(), block)


@pytest.mark.parametrize("sizes", ["asymptotic", 1e12, ("asymptotic", 1e12), ()],
                         ids=["bare-asymptotic", "bare-number", "mixed", "empty"])
def test_malformed_sizes_are_named(sizes):
    # These gave `block_size ... got 'a'`, a TypeError, a failed float
    # conversion and an IndexError.
    one = np.array([0.1])
    with pytest.raises(ValueError, match=r"^sizes must"):
        evaluate_points(CHANNEL_50, CALIB, 1.0 - one, one, one, one,
                        arm_transmittance(CHANNEL_50), SecurityConfig(), sizes)


@pytest.mark.parametrize("block", [1, 1.0, pytest.param(pipeline.MAX_BLOCK, id="MAX_BLOCK")])
def test_block_size_edges_accepted(block):
    require_block(block)


@pytest.mark.parametrize("d", [8, pytest.param(pipeline.MAX_D, id="MAX_D")])
@pytest.mark.parametrize("km", [0.0, 300.0])
@pytest.mark.parametrize("mode", MODES)
def test_every_field_finite_at_the_largest_block(d, km, mode):
    # At d = 8 a block of 1e306 overflowed n_Z (1 + bits) into -inf rates;
    # the suite turns RuntimeWarnings into errors, so no term may overflow.
    channel = replace(CHANNEL_50, distance_km=km)
    px, mu = np.meshgrid(np.linspace(0.01, 0.99, 20), np.geomspace(1e-4, 1.0, 20))
    report = evaluate_points(channel, CALIB, 1.0 - px, px, mu, mu,
                             arm_transmittance(channel), SecurityConfig(d=d),
                             (pipeline.MAX_BLOCK,), baseline=mode == "baseline")
    assert report.feasible.any()
    for name, value in vars(report).items():
        assert np.isfinite(value).all(), name


def test_block_size_below_one_rejected():
    with pytest.raises(ValueError, match="block_size"):
        require_block(math.nextafter(1.0, 0.0))


@pytest.mark.parametrize("field, value", [
    ("eps_coh_target", math.nextafter(0.0, 1.0)),
    ("eps_coh_target", math.nextafter(1.0, 0.0)),
    ("f", 1.0), pytest.param("f", pipeline.MAX_F, id="f-MAX_F"), ("d", 2),
    pytest.param("d", pipeline.MAX_D, id="d-MAX_D")])
def test_security_config_edges_accepted(field, value):
    assert getattr(SecurityConfig(**{field: value}), field) == value


@pytest.mark.parametrize("field, value", [
    ("eps_coh_target", 0.0), ("eps_coh_target", 1.0),
    ("f", math.nextafter(1.0, 0.0)),
    pytest.param("f", math.nextafter(pipeline.MAX_F, math.inf), id="f-MAX_F+ulp"), ("d", 1),
    pytest.param("d", pipeline.MAX_D + 1, id="d-MAX_D+1")])
def test_security_config_just_outside_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must"):
        SecurityConfig(**{field: value})


def test_optimize_rejects_block_size_before_evaluating(monkeypatch):
    # optimize(..., 0.5) used to run the whole search, then fail building
    # the optimal ProtocolParams; at 1e306 the search overflowed.
    def fail(*args, **kwargs):
        raise AssertionError("evaluated a candidate")
    # The pass's first channel evaluation, and the tallies formed from it.
    monkeypatch.setattr(pipeline, "heralding_arrays", fail)
    monkeypatch.setattr(pipeline, "tally_arrays", fail)
    for block in (0.5, 1e306):
        with pytest.raises(ValueError, match="block_size"):
            optimize(CHANNEL_50, CALIB, block, SecurityConfig())
    # Over several points every block size is checked before the first
    # pass: the asymptotic group's pass comes before the finite group's,
    # whose own check would reject 0.5 only after the first evaluation.
    with pytest.raises(ValueError, match="block_size"):
        search_points(CHANNEL_50, CALIB, SecurityConfig(),
                      np.full(2, arm_transmittance(CHANNEL_50)), (pipeline.ASYMPTOTIC, 0.5),
                      np.array([0, 1]), np.zeros(2, dtype=bool), SearchSpace())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(log_n=st.floats(0.0, 15.0), km=st.floats(0.0, 400.0))
def test_scan_phase_error_mean_keeps_observed_upper_off_the_checked_loop(log_n, km):
    """The mean phase-error count of every candidate is at least 2 |ln xi|:
    (p0 px / 2) (c0 sqrt(O) / p0 + c1 sqrt(B) / px + c2 sqrt(N))^2 >=
    2 c0 c1 sqrt(O B) = 2 sqrt(O B), and each expectation_upper bound O, B
    is at least |ln xi|.  So observed_upper sees t <= 1/2, inside its
    no-straggler range, and a pass never enters the checked loop."""
    channel = replace(CHANNEL_50, distance_km=km)
    px = np.linspace(0.01, 0.99, 20).reshape(1, -1, 1)
    mu = np.geomspace(1e-4, 1.0, 20).reshape(1, 1, -1)
    seen = []
    real = phase_error.observed_upper

    def spy(mean, log_xi):
        seen.append((np.copy(mean), log_xi))
        return real(mean, log_xi)

    def straggled(*args):
        raise AssertionError("entered the checked loop")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(phase_error, "observed_upper", spy)
        patch.setattr(chernoff, "_newton", straggled)
        evaluate_points(channel, CALIB, 1.0 - px, px, mu, mu, arm_transmittance(channel),
                        SecurityConfig(), (10.0 ** log_n,),
                        baseline=np.array([False, True]).reshape(-1, 1, 1))
    [(mean, log_xi)] = seen
    assert np.all(mean >= 2.0 * -np.asarray(log_xi) * (1.0 - 1e-12))
