"""Tests for the virtual-intensity mapping."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scsqkd.channel import ChannelParams, arm_transmittance
from scsqkd.mapping import MappingError, virtual_intensity_array
from scsqkd.pipeline import SecurityConfig, SourceCalibration, evaluate_points

AV0 = 1.0 - 1e-8


def _virtual(mu: float, fluct: float, av0: float = AV0) -> float:
    mu_v, feasible = virtual_intensity_array(np.array([mu]), av0, fluct)
    assert feasible[0]
    return float(mu_v[0])


def _reference(mu: float, av0: float, fluct: float) -> tuple[float, float]:
    """(mu_v, kappa): the virtual intensity
    ``-2 ln(sqrt(a0 av0) - sqrt((1 - a0)(1 - av0)))`` at
    ``a0 = exp(-(1 + fluct) mu)``, to 50 digits, and its condition number
    (the relative change of mu_v per relative change of the exponent and of
    1 - av0).  The working precision grows with the digits ``1 - a0``
    cancels."""
    with mpmath.workdps(50 + max(0, -math.floor(math.log10(mu)))):
        t = (1 + mpmath.mpf(fluct)) * mpmath.mpf(mu)
        av0, w = mpmath.mpf(av0), 1 - mpmath.mpf(av0)
        a0 = mpmath.exp(-t)
        mu_v = -2 * mpmath.log(mpmath.sqrt(a0 * av0) - mpmath.sqrt((1 - a0) * w))
        # s = sqrt((1 - a0) w / (a0 av0)), so that mu_v = t - ln av0 - 2 ln(1 - s).
        s = mpmath.sqrt(mpmath.expm1(t) * w / av0)
        kappa = (t * (1 + s * mpmath.exp(t) / ((1 - s) * mpmath.expm1(t)))
                 + (w + s / (1 - s)) / av0) / mu_v
        return float(mu_v), float(kappa)


def _evaluate(mu_A: float, mu_B: float, calib: SourceCalibration):
    one = [np.array([v]) for v in (0.5, 0.5, mu_A, mu_B)]
    channel = ChannelParams(50.0, 0.2, 0.3, 1e-9, 0.04)
    return evaluate_points(channel, calib, *one, arm_transmittance(channel),
                           SecurityConfig(), "asymptotic")


def _condition(mu: float, a0: float, av0: float) -> bool:
    """The mapping-existence condition, with a relative slack of 1e-12 at
    equality."""
    inner = math.sqrt(a0 * av0) - math.sqrt((1.0 - a0) * (1.0 - av0))
    return math.exp(-mu) <= inner * inner * (1.0 + 1e-12)


class TestVirtualIntensity:
    # At fluct = 0 the nominal intensity -ln(a0) has worst-case bound a0.

    def test_perfect_sources_give_mu_zero(self):
        # a0 = av0 = 1: inner term is 1, so mu = -2 ln 1 = 0.
        assert _virtual(0.0, 0.1, av0=1.0) == 0.0

    def test_frozen_value_near_perfect_vacuum_source(self):
        # Independently computed (60-digit arithmetic) for a0 = exp(-0.55).
        mu = _virtual(0.5, 0.1)
        assert mu == pytest.approx(0.55017127772243813278, rel=1e-12)

    def test_perfect_vacuum_source_recovers_coherent_intensity(self):
        # With av0 = 1 exactly: mu = -2 ln sqrt(a0) = (1 + fluct) mu_nominal,
        # to the last bit also where a0 rounds to 1.
        for mu_in in (1e-300, 1e-12, 1e-4, 0.01, 0.3, 0.6):
            assert _virtual(mu_in, 0.1, av0=1.0) == 1.1 * mu_in

    def test_monotone_decreasing_in_each_bound(self):
        # Better (larger) vacuum bounds allow a smaller virtual intensity.
        grid = np.linspace(0.6, 0.999, 40)
        values_a = [_virtual(-math.log(a), 0.0, 0.9) for a in grid]
        values_av = [_virtual(-math.log(0.9), 0.0, a) for a in grid]
        assert all(x > y for x, y in zip(values_a, values_a[1:]))
        assert all(x > y for x, y in zip(values_av, values_av[1:]))

    def test_symmetric_in_arguments(self):
        # Up to the rounding of a0 = exp(ln a0).
        assert _virtual(-math.log(0.7), 0.0, 0.95) == pytest.approx(
            _virtual(-math.log(0.95), 0.0, 0.7), rel=1e-14)

    def test_half_half_is_infeasible(self):
        # a0 = av0 = 0.5 would need an infinite intensity.
        mu = math.log(2.0)
        assert math.exp(-mu) == 0.5
        assert not virtual_intensity_array(np.array([mu]), 0.5, 0.0)[1][0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_invalid_nominal_intensity_is_infeasible(self):
        # A negative intensity (a0 > 1) or NaN has no mapping, and no warning.
        mu_v, feasible = virtual_intensity_array(np.array([-0.1, -1e-300, math.nan]),
                                                 AV0, 0.1)
        assert not feasible.any() and (mu_v == 0.0).all()

    def test_out_of_range_raises(self):
        # Vacuum bounds are checked where the calibration is built.
        with pytest.raises(MappingError):
            SourceCalibration(av0=0.4)
        with pytest.raises(MappingError):
            SourceCalibration(bv0=1.1)


class TestMappingCondition:
    def test_round_trip_at_equality_boundary(self):
        # The produced intensity saturates the condition; the relative slack
        # must make the round trip pass.
        for a0, av0 in ((0.9, 0.99), (0.55, 0.8), (math.exp(-0.1), 1.0 - 1e-8)):
            assert _condition(_virtual(-math.log(a0), 0.0, av0), a0, av0)

    def test_larger_intensity_passes_smaller_fails(self):
        # The virtual intensity is the smallest that meets the condition.
        a0, av0 = 0.9, 0.99
        mu = _virtual(-math.log(a0), 0.0, av0)
        assert _condition(mu * 1.01, a0, av0)
        assert not _condition(mu * 0.99, a0, av0)


class TestWorstCaseBound:
    """virtual_intensity_array certifies a0 at the top of the fluctuation range."""

    def test_closed_form(self):
        assert _virtual(0.1, 0.1) == pytest.approx(_reference(0.1, AV0, 0.1)[0],
                                                   rel=1e-15)

    def test_no_fluctuation_is_plain_vacuum_weight(self):
        assert _virtual(0.3, 0.0) == pytest.approx(_reference(0.3, AV0, 0.0)[0],
                                                   rel=1e-15)

    def test_monotone_decreasing_in_fluctuation(self):
        # A smaller vacuum bound needs a larger virtual intensity.
        values = [_virtual(0.3, f) for f in np.linspace(0.0, 0.5, 20)]
        assert all(x < y for x, y in zip(values, values[1:]))


class TestSourceBounds:
    """Calibrated bounds in SourceCalibration, applied per source."""

    def test_validation(self):
        with pytest.raises(MappingError):
            SourceCalibration(av0=0.3)
        with pytest.raises(MappingError):
            SourceCalibration(fluct=1.0)

    def test_from_nominal_applies_worst_case(self):
        batch = _evaluate(0.1, 0.2, SourceCalibration(av0=0.999, bv0=0.998, fluct=0.1))
        assert batch.mu_virtual_A[0] == pytest.approx(_reference(0.1, 0.999, 0.1)[0],
                                                      rel=1e-15)
        assert batch.mu_virtual_B[0] == pytest.approx(_reference(0.2, 0.998, 0.1)[0],
                                                      rel=1e-15)

    def test_from_nominal_rejects_too_large_intensity(self):
        # exp(-1.1 * mu) < 0.5 for mu > ln(2)/1.1.
        assert not _evaluate(0.7, 0.7, SourceCalibration(1.0, 1.0, 0.1)).feasible[0]

    def test_virtual_intensities_from_bounds(self):
        batch = _evaluate(0.1, 0.1, SourceCalibration(fluct=0.1))
        mu_a, mu_b = batch.mu_virtual_A[0], batch.mu_virtual_B[0]
        # The virtual intensity exceeds the worst-case real intensity because
        # the vacuum source is itself slightly imperfect.
        assert batch.feasible[0] and mu_a > 0.11
        assert mu_a == mu_b
        assert _condition(mu_a, math.exp(-0.11), AV0)


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@st.composite
def _nominal_intensities(draw):
    """(mu, av0, fluct): mu log-uniform of either sign, or within a few ulp
    of ln2 / (1 + fluct), where the worst-case a0 crosses 0.5."""
    fluct = draw(st.floats(0.0, 0.5))
    av0 = draw(st.floats(0.5, 1.0, exclude_min=True))
    edge = math.log(2.0) / (1.0 + fluct)
    mu = draw(st.one_of(
        _log_uniform(1e-10, 10.0),
        _log_uniform(1e-10, 10.0).map(lambda m: -m),
        st.integers(-4, 4).map(lambda k: edge * (1.0 + k * 2.2e-16))))
    return mu, av0, fluct


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(inputs=_nominal_intensities())
def test_feasible_exactly_where_worst_case_vacuum_weight_reaches_half(inputs):
    """For av0 above 1/2 the mask is True exactly where mu >= 0 and the
    worst-case a0 = exp(-(1 + fluct) mu) is at least 1/2; the intensity is
    positive there and 0 elsewhere, and no warning is raised."""
    mu, av0, fluct = inputs
    mu_v, feasible = virtual_intensity_array(np.array([mu]), av0, fluct)
    assert feasible[0] == (mu >= 0.0 and math.exp(-(1.0 + fluct) * mu) >= 0.5)
    assert mu_v[0] > 0.0 if feasible[0] else mu_v[0] == 0.0


@st.composite
def _feasible_intensities(draw):
    """(mu, av0, fluct) with av0 in (1/2, 1] (the default bound and 1 among
    the draws) and mu log-uniform from 1e-300, or uniform, up to the edge
    ln2 / (1 + fluct) where the worst-case a0 reaches 1/2."""
    fluct = draw(st.floats(0.0, 0.5))
    av0 = draw(st.one_of(st.sampled_from([1.0, AV0]),
                         st.floats(0.5, 1.0, exclude_min=True)))
    edge = math.log(2.0) / (1.0 + fluct)
    mu = draw(st.one_of(_log_uniform(1e-300, edge),
                        st.floats(0.0, 1.0).map(lambda x: edge * (1.0 - x))))
    return mu, av0, fluct


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(inputs=_feasible_intensities())
def test_virtual_intensity_array_against_mpmath(inputs):
    """Every feasible virtual intensity is within 1e-15 relative of the
    50-digit value, times the condition number where that exceeds 1 (near
    the a0 = 1/2 edge with av0 near 1/2, where no double-precision
    evaluation does better)."""
    mu, av0, fluct = inputs
    if not (mu > 0.0 and math.exp(-(1.0 + fluct) * mu) >= 0.5):
        return
    expected, kappa = _reference(mu, av0, fluct)
    got = _virtual(mu, fluct, av0)
    assert abs(got - expected) <= 1e-15 * max(1.0, kappa) * expected
