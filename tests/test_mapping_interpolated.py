"""Tests for the interpolated ("fast") key mappings.

These mappings trade extra buckets for avoiding logarithm evaluation; the
tests check that the relative-accuracy guarantee is nonetheless preserved and
that the bucket-count overhead matches the documented factors.
"""

import math

import pytest

from repro import DDSketch
from repro.mapping import (
    CubicallyInterpolatedMapping,
    LinearlyInterpolatedMapping,
    LogarithmicMapping,
    QuadraticallyInterpolatedMapping,
)

ALL_INTERPOLATED = (
    LinearlyInterpolatedMapping,
    QuadraticallyInterpolatedMapping,
    CubicallyInterpolatedMapping,
)

#: Documented bucket overheads relative to the memory-optimal log mapping.
EXPECTED_OVERHEAD = {
    LinearlyInterpolatedMapping: 1.0 / math.log(2.0),
    QuadraticallyInterpolatedMapping: 3.0 / (4.0 * math.log(2.0)),
    CubicallyInterpolatedMapping: 7.0 / (10.0 * math.log(2.0)),
}


@pytest.mark.parametrize("mapping_class", ALL_INTERPOLATED)
class TestRelativeAccuracyGuarantee:
    @pytest.mark.parametrize("alpha", [0.005, 0.01, 0.05])
    def test_round_trip_within_alpha_wide_range(self, mapping_class, alpha):
        mapping = mapping_class(alpha)
        value = 1e-9
        while value < 1e15:
            estimate = mapping.value(mapping.key(value))
            assert abs(estimate - value) <= alpha * value * (1 + 1e-9), (
                f"{mapping_class.__name__} violated alpha={alpha} at value={value}"
            )
            value *= 1.31

    def test_round_trip_near_powers_of_two(self, mapping_class):
        # Octave boundaries are where the polynomial interpolation is stitched
        # together, so check values straddling them carefully.
        alpha = 0.01
        mapping = mapping_class(alpha)
        for exponent in range(-20, 21):
            base = 2.0 ** exponent
            for factor in (0.999999, 1.0, 1.000001, 1.5, 1.999999):
                value = base * factor
                estimate = mapping.value(mapping.key(value))
                assert abs(estimate - value) <= alpha * value * (1 + 1e-9)

    def test_keys_are_monotone(self, mapping_class):
        mapping = mapping_class(0.01)
        previous_key = None
        value = 1e-6
        while value < 1e9:
            key = mapping.key(value)
            if previous_key is not None:
                assert key >= previous_key
            previous_key = key
            value *= 1.003


@pytest.mark.parametrize("mapping_class", ALL_INTERPOLATED)
def test_bucket_overhead_matches_documented_factor(mapping_class):
    """Count keys needed to cover [1, 1e6] and compare against the log mapping."""
    alpha = 0.01
    log_mapping = LogarithmicMapping(alpha)
    fast_mapping = mapping_class(alpha)
    log_span = log_mapping.key(1e6) - log_mapping.key(1.0)
    fast_span = fast_mapping.key(1e6) - fast_mapping.key(1.0)
    overhead = fast_span / log_span
    assert overhead == pytest.approx(EXPECTED_OVERHEAD[mapping_class], rel=0.02)


@pytest.mark.parametrize("mapping_class", ALL_INTERPOLATED)
def test_cross_type_mappings_are_not_equal(mapping_class):
    assert mapping_class(0.01) != LogarithmicMapping(0.01)


@pytest.mark.parametrize("mapping_class", ALL_INTERPOLATED)
def test_bytes_round_trip(mapping_class):
    mapping = mapping_class(0.02)
    restored = DDSketch.from_bytes(DDSketch(0.02, mapping=mapping).to_bytes()).mapping
    assert type(restored) is mapping_class
    assert restored == mapping
    for value in (0.004, 1.0, 97.3, 4.6e7):
        assert restored.key(value) == mapping.key(value)


def test_cubic_inverse_is_accurate():
    """The Newton inversion of the cubic must reproduce bucket bounds exactly."""
    mapping = CubicallyInterpolatedMapping(0.01)
    for key in (-500, -3, 0, 7, 1234):
        lower = mapping.lower_bound(key)
        upper = mapping.upper_bound(key)
        assert lower < upper
        # The key of a value just above the lower bound must be the same key.
        assert mapping.key(lower * 1.0000001) == key
        assert mapping.key(upper * 0.9999999) == key


def test_linear_mapping_value_of_key_is_monotone():
    mapping = LinearlyInterpolatedMapping(0.01)
    values = [mapping.value(key) for key in range(-50, 51)]
    assert values == sorted(values)
