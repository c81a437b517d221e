"""Tests for the logarithmic key mapping (the paper's Section 2 bucketing)."""

import math

import pytest

from repro import DDSketch
from repro.exceptions import IllegalArgumentError
from repro.mapping import LogarithmicMapping


class TestConstruction:
    def test_gamma_matches_definition(self):
        mapping = LogarithmicMapping(0.01)
        assert mapping.gamma == pytest.approx((1 + 0.01) / (1 - 0.01))

    def test_relative_accuracy_is_stored(self):
        mapping = LogarithmicMapping(0.05)
        assert mapping.relative_accuracy == 0.05

    @pytest.mark.parametrize("bad_alpha", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_rejects_invalid_relative_accuracy(self, bad_alpha):
        with pytest.raises(IllegalArgumentError):
            LogarithmicMapping(bad_alpha)

    def test_offset_shifts_keys(self):
        plain = LogarithmicMapping(0.01)
        shifted = LogarithmicMapping(0.01, offset=10.0)
        assert shifted.key(5.0) == plain.key(5.0) + 10


class TestKeyAssignment:
    def test_key_is_ceiling_of_log_gamma(self):
        mapping = LogarithmicMapping(0.01)
        gamma = mapping.gamma
        for value in (0.001, 0.5, 1.0, 3.14159, 42.0, 1e6, 1e12):
            expected = math.ceil(math.log(value) / math.log(gamma))
            assert mapping.key(value) == pytest.approx(expected, abs=1)

    def test_keys_are_monotone_in_value(self):
        mapping = LogarithmicMapping(0.02)
        values = [10 ** exponent for exponent in range(-6, 7)]
        keys = [mapping.key(value) for value in values]
        assert keys == sorted(keys)

    def test_value_of_one_maps_near_key_zero(self):
        mapping = LogarithmicMapping(0.01)
        assert mapping.key(1.0) in (0, 1)

    def test_bucket_boundaries_bracket_values(self):
        mapping = LogarithmicMapping(0.01)
        for value in (0.007, 1.0, 17.5, 4.2e8):
            key = mapping.key(value)
            assert mapping.lower_bound(key) < value * (1 + 1e-12)
            assert value <= mapping.upper_bound(key) * (1 + 1e-12)


class TestRelativeAccuracy:
    @pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05, 0.2])
    def test_round_trip_within_alpha(self, alpha):
        mapping = LogarithmicMapping(alpha)
        value = 1e-6
        while value < 1e12:
            estimate = mapping.value(mapping.key(value))
            assert abs(estimate - value) <= alpha * value * (1 + 1e-9)
            value *= 1.7

    def test_representative_value_is_in_bucket(self):
        mapping = LogarithmicMapping(0.01)
        for key in (-100, -1, 0, 1, 50, 1000):
            representative = mapping.value(key)
            assert mapping.lower_bound(key) <= representative <= mapping.upper_bound(key) * (1 + 1e-12)


class TestEqualityAndSerialization:
    def test_equal_mappings_compare_equal(self):
        assert LogarithmicMapping(0.01) == LogarithmicMapping(0.01)

    def test_different_accuracy_not_equal(self):
        assert LogarithmicMapping(0.01) != LogarithmicMapping(0.02)

    def test_hash_consistent_with_equality(self):
        assert hash(LogarithmicMapping(0.01)) == hash(LogarithmicMapping(0.01))

    def test_bytes_round_trip(self):
        mapping = LogarithmicMapping(0.03, offset=2.0)
        restored = DDSketch.from_bytes(DDSketch(0.03, mapping=mapping).to_bytes()).mapping
        assert restored == mapping
        assert restored.key(123.456) == mapping.key(123.456)

    def test_repr_mentions_accuracy(self):
        assert "0.01" in repr(LogarithmicMapping(0.01))
