"""Property-based tests (hypothesis) for the DDSketch itself.

The key invariants, checked on arbitrary small streams:

* Proposition 3: every quantile estimate is within ``alpha`` of the exact
  lower quantile (for unbounded sketches).
* Merging a partition of the stream gives exactly the same sketch state as
  sketching the whole stream.
* count/sum/min/max are exact under insertion.
* Serialization round-trips preserve every query.
"""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import DDSketch, LogUnboundedDenseDDSketch
from repro.baselines.exact import ExactQuantiles

positive_values = st.floats(
    min_value=1e-6, max_value=1e12, allow_nan=False, allow_infinity=False
)
# Signed values whose magnitudes stay within a range that the default
# 2048-bucket sketch can cover without collapsing (the collapse trade-off has
# its own dedicated tests); tiny magnitudes are snapped to zero.
signed_values = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
).map(lambda value: 0.0 if abs(value) < 1e-6 else value)
streams = st.lists(positive_values, min_size=1, max_size=120)
signed_streams = st.lists(signed_values, min_size=1, max_size=120)
quantiles = st.floats(min_value=0.0, max_value=1.0)
alphas = st.sampled_from([0.005, 0.01, 0.05, 0.1])


class TestAccuracyProperty:
    @given(values=streams, quantile=quantiles, alpha=alphas)
    @settings(max_examples=250, deadline=None)
    def test_quantile_estimate_within_alpha(self, values, quantile, alpha):
        sketch = LogUnboundedDenseDDSketch(relative_accuracy=alpha)
        sketch.add_all(values)
        exact = ExactQuantiles(values)
        estimate = sketch.get_quantile_value(quantile)
        actual = exact.quantile(quantile)
        assert estimate is not None
        assert abs(estimate - actual) <= alpha * abs(actual) * (1 + 1e-9)

    @given(values=signed_streams, quantile=quantiles)
    @settings(max_examples=250, deadline=None)
    def test_signed_quantile_estimate_within_alpha(self, values, quantile):
        alpha = 0.01
        sketch = DDSketch(relative_accuracy=alpha)
        sketch.add_all(values)
        exact = ExactQuantiles(values)
        estimate = sketch.get_quantile_value(quantile)
        actual = exact.quantile(quantile)
        assert estimate is not None
        if actual == 0:
            assert abs(estimate) <= 1e-9
        else:
            assert abs(estimate - actual) <= alpha * abs(actual) * (1 + 1e-9)

    @given(values=streams)
    @settings(max_examples=150, deadline=None)
    def test_summaries_are_exact(self, values):
        sketch = DDSketch()
        sketch.add_all(values)
        assert sketch.count == pytest.approx(len(values))
        assert sketch.sum == pytest.approx(math.fsum(values), rel=1e-9, abs=1e-9)
        assert sketch.min == min(values)
        assert sketch.max == max(values)

    @given(values=streams)
    @settings(max_examples=150, deadline=None)
    def test_estimates_monotone_in_quantile(self, values):
        sketch = DDSketch()
        sketch.add_all(values)
        probes = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
        estimates = [sketch.get_quantile_value(q) for q in probes]
        assert estimates == sorted(estimates)


class TestMergeProperty:
    @given(values=signed_streams, split_fraction=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_merge_equals_single_sketch(self, values, split_fraction):
        split = int(len(values) * split_fraction)
        left = DDSketch()
        right = DDSketch()
        whole = DDSketch()
        left.add_all(values[:split])
        right.add_all(values[split:])
        whole.add_all(values)
        left.merge(right)
        assert left.count == pytest.approx(whole.count)
        for quantile in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert left.get_quantile_value(quantile) == pytest.approx(
                whole.get_quantile_value(quantile)
            )

    @given(values=streams)
    @settings(max_examples=100, deadline=None)
    def test_merge_is_commutative(self, values):
        split = len(values) // 2
        a1, b1 = DDSketch(), DDSketch()
        a2, b2 = DDSketch(), DDSketch()
        a1.add_all(values[:split])
        a2.add_all(values[:split])
        b1.add_all(values[split:])
        b2.add_all(values[split:])
        a1.merge(b1)
        b2.merge(a2)
        for quantile in (0.0, 0.5, 1.0):
            assert a1.get_quantile_value(quantile) == pytest.approx(
                b2.get_quantile_value(quantile)
            )


class TestSerializationProperty:
    @given(values=signed_streams)
    @settings(max_examples=150, deadline=None)
    def test_binary_round_trip_preserves_queries(self, values):
        sketch = DDSketch()
        sketch.add_all(values)
        restored = DDSketch.from_bytes(sketch.to_bytes())
        assert restored.count == pytest.approx(sketch.count)
        assert restored.sum == pytest.approx(sketch.sum, rel=1e-9, abs=1e-9)
        for quantile in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert restored.get_quantile_value(quantile) == pytest.approx(
                sketch.get_quantile_value(quantile)
            )

    @given(values=streams)
    @settings(max_examples=100, deadline=None)
    def test_wide_range_round_trip_preserves_queries(self, values):
        # Twelve decades past the 1e-6 floor may exceed the 2048-bucket
        # default, so some of these sketches have collapsed their low tail.
        sketch = DDSketch()
        sketch.add_all(values)
        restored = DDSketch.from_bytes(sketch.to_bytes())
        for quantile in (0.0, 0.5, 1.0):
            assert restored.get_quantile_value(quantile) == pytest.approx(
                sketch.get_quantile_value(quantile)
            )


class TestDeleteProperty:
    @given(values=streams, delete_count=st.integers(min_value=0, max_value=40))
    @settings(max_examples=150, deadline=None)
    def test_add_then_delete_matches_remaining_values(self, values, delete_count):
        assume(delete_count <= len(values))
        sketch = LogUnboundedDenseDDSketch(relative_accuracy=0.01)
        sketch.add_all(values)
        for value in values[:delete_count]:
            sketch.delete(value)
        remaining = values[delete_count:]
        assert sketch.count == pytest.approx(len(remaining))
        if remaining:
            exact = ExactQuantiles(remaining)
            for quantile in (0.25, 0.5, 0.75):
                estimate = sketch.get_quantile_value(quantile)
                actual = exact.quantile(quantile)
                assert abs(estimate - actual) <= 0.01 * abs(actual) * (1 + 1e-9)
