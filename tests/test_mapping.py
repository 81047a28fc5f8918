"""Tests for the virtual-intensity mapping."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scsqkd.channel import ChannelParams, arm_transmittance
from scsqkd.mapping import (MappingError, check_mapping_condition,
                            virtual_intensity, virtual_intensity_array)
from scsqkd.pipeline import SecurityConfig, SourceCalibration, evaluate_points

AV0 = 1.0 - 1e-8


def _virtual(mu: float, fluct: float) -> float:
    mu_v, feasible = virtual_intensity_array(np.array([mu]), AV0, fluct)
    assert feasible[0]
    return float(mu_v[0])


def _evaluate(mu_A: float, mu_B: float, calib: SourceCalibration):
    one = [np.array([v]) for v in (0.5, 0.5, mu_A, mu_B)]
    channel = ChannelParams(50.0, 0.2, 0.3, 1e-9, 0.04)
    return evaluate_points(channel, calib, *one, arm_transmittance(channel),
                           SecurityConfig(), "asymptotic")


class TestVirtualIntensity:
    def test_perfect_sources_give_mu_zero(self):
        # a0 = av0 = 1: inner term is 1, so mu = -2 ln 1 = 0.
        assert virtual_intensity(1.0, 1.0) == 0.0

    def test_frozen_value_near_perfect_vacuum_source(self):
        # Independently computed (60-digit arithmetic) for a0 = exp(-0.55).
        mu = virtual_intensity(math.exp(-0.55), 1.0 - 1e-8)
        assert mu == pytest.approx(0.55017127772243813278, rel=1e-12)

    def test_perfect_vacuum_source_recovers_coherent_intensity(self):
        # With av0 = 1 exactly: mu = -2 ln sqrt(a0) = -ln a0.
        for mu_in in (1e-4, 0.01, 0.3, 0.6):
            mu = virtual_intensity(math.exp(-mu_in), 1.0)
            assert mu == pytest.approx(mu_in, rel=1e-12)

    def test_monotone_decreasing_in_each_bound(self):
        # Better (larger) vacuum bounds allow a smaller virtual intensity.
        grid = np.linspace(0.6, 0.999, 40)
        values_a = [virtual_intensity(a, 0.9) for a in grid]
        values_av = [virtual_intensity(0.9, a) for a in grid]
        assert all(x > y for x, y in zip(values_a, values_a[1:]))
        assert all(x > y for x, y in zip(values_av, values_av[1:]))

    def test_symmetric_in_arguments(self):
        assert virtual_intensity(0.7, 0.95) == virtual_intensity(0.95, 0.7)

    def test_degenerate_half_half_raises(self):
        with pytest.raises(MappingError):
            virtual_intensity(0.5, 0.5)

    def test_out_of_range_raises(self):
        with pytest.raises(MappingError):
            virtual_intensity(0.4, 0.9)
        with pytest.raises(MappingError):
            virtual_intensity(0.9, 1.1)


class TestMappingCondition:
    def test_round_trip_at_equality_boundary(self):
        # The produced intensity saturates the condition; the relative slack
        # must make the round trip pass.
        for a0, av0 in ((0.9, 0.99), (0.55, 0.8), (math.exp(-0.1), 1.0 - 1e-8)):
            mu = virtual_intensity(a0, av0)
            assert check_mapping_condition(mu, a0, av0)

    def test_larger_intensity_passes_smaller_fails(self):
        a0, av0 = 0.9, 0.99
        mu = virtual_intensity(a0, av0)
        assert check_mapping_condition(mu * 1.01, a0, av0)
        assert not check_mapping_condition(mu * 0.99, a0, av0)

    def test_invalid_inputs_raise(self):
        with pytest.raises(MappingError):
            check_mapping_condition(-0.1, 0.9, 0.9)
        with pytest.raises(MappingError):
            check_mapping_condition(math.nan, 0.9, 0.9)

    @pytest.mark.parametrize("a0, av0", [(1.5, 0.9), (0.9, 1.5)])
    def test_amplitude_above_one_raises(self, a0, av0):
        with pytest.raises(MappingError):
            check_mapping_condition(0.1, a0, av0)


class TestWorstCaseBound:
    """virtual_intensity_array certifies a0 at the top of the fluctuation range."""

    def test_closed_form(self):
        assert _virtual(0.1, 0.1) == pytest.approx(
            virtual_intensity(math.exp(-0.11), AV0), rel=1e-15)

    def test_no_fluctuation_is_plain_vacuum_weight(self):
        assert _virtual(0.3, 0.0) == virtual_intensity(math.exp(-0.3), AV0)

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
        assert batch.mu_virtual_A[0] == pytest.approx(
            virtual_intensity(math.exp(-0.11), 0.999), rel=1e-15)
        assert batch.mu_virtual_B[0] == pytest.approx(
            virtual_intensity(math.exp(-0.22), 0.998), rel=1e-15)

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
        assert check_mapping_condition(mu_a, math.exp(-0.11), AV0)


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@st.composite
def _nominal_intensities(draw):
    """(mu, av0, fluct): mu log-uniform of either sign, or within a few ulp
    of ln2 / (1 + fluct), where the worst-case a0 crosses 0.5."""
    fluct = draw(st.floats(0.0, 0.5))
    av0 = draw(st.floats(0.5, 1.0))
    edge = math.log(2.0) / (1.0 + fluct)
    mu = draw(st.one_of(
        _log_uniform(1e-10, 10.0),
        _log_uniform(1e-10, 10.0).map(lambda m: -m),
        st.integers(-4, 4).map(lambda k: edge * (1.0 + k * 2.2e-16))))
    return mu, av0, fluct


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(inputs=_nominal_intensities())
def test_virtual_intensity_array_matches_scalar_mapping(inputs):
    """The array mapping is virtual_intensity of the worst-case a0, exactly,
    and its mask is False exactly where that call raises or mu < 0."""
    mu, av0, fluct = inputs
    mu_v, feasible = virtual_intensity_array(np.array([mu]), av0, fluct)
    a0 = float(np.exp(-(1.0 + fluct) * np.array([mu]))[0])
    try:
        expected = virtual_intensity(a0, av0)
    except MappingError:
        expected = None
    if mu < 0.0 or expected is None:
        assert not feasible[0]
        return
    assert feasible[0]
    assert mu_v[0] == expected
    assert check_mapping_condition(expected, a0, av0)
