"""Full mergeability tests: Algorithm 4 and the Table 1 claim.

Merging sketches must be exact: the merged sketch answers every query exactly
as a single sketch over the concatenated stream would, regardless of how the
stream was partitioned or in which order the parts are merged.
"""

import random

import pytest

from repro import (
    DDSketch,
    FastDDSketch,
    LogUnboundedDenseDDSketch,
    SparseDDSketch,
    UDDSketch,
)
from repro.exceptions import IllegalArgumentError, UnequalSketchParametersError
from tests.conftest import STANDARD_QUANTILES


def build_and_split(sketch_class, values, num_parts, **kwargs):
    """Build one sketch per chunk plus a reference sketch over all values."""
    parts = [sketch_class(**kwargs) for _ in range(num_parts)]
    reference = sketch_class(**kwargs)
    for index, value in enumerate(values):
        parts[index % num_parts].add(value)
        reference.add(value)
    return parts, reference


@pytest.mark.parametrize("sketch_class", [DDSketch, FastDDSketch, SparseDDSketch, LogUnboundedDenseDDSketch])
class TestMergeEquivalence:
    def test_two_way_merge_equals_single_sketch(self, sketch_class, pareto_stream):
        parts, reference = build_and_split(sketch_class, pareto_stream, 2, relative_accuracy=0.01)
        merged = parts[0]
        merged.merge(parts[1])
        assert merged.count == pytest.approx(reference.count)
        assert merged.sum == pytest.approx(reference.sum)
        assert merged.min == reference.min
        assert merged.max == reference.max
        for quantile in STANDARD_QUANTILES:
            assert merged.get_quantile_value(quantile) == pytest.approx(
                reference.get_quantile_value(quantile)
            )

    def test_many_way_merge_equals_single_sketch(self, sketch_class, exponential_stream):
        parts, reference = build_and_split(
            sketch_class, exponential_stream, 16, relative_accuracy=0.01
        )
        merged = parts[0]
        for part in parts[1:]:
            merged.merge(part)
        for quantile in STANDARD_QUANTILES:
            assert merged.get_quantile_value(quantile) == pytest.approx(
                reference.get_quantile_value(quantile)
            )

    def test_merge_order_does_not_matter(self, sketch_class, rng):
        values = [rng.lognormvariate(0, 1.5) for _ in range(6_000)]
        parts_a, _ = build_and_split(sketch_class, values, 6, relative_accuracy=0.02)
        parts_b, _ = build_and_split(sketch_class, values, 6, relative_accuracy=0.02)

        forward = parts_a[0]
        for part in parts_a[1:]:
            forward.merge(part)

        backward = parts_b[-1]
        for part in reversed(parts_b[:-1]):
            backward.merge(part)

        for quantile in STANDARD_QUANTILES:
            assert forward.get_quantile_value(quantile) == pytest.approx(
                backward.get_quantile_value(quantile)
            )

    def test_merge_empty_into_full_and_back(self, sketch_class, rng):
        values = [rng.expovariate(1.0) for _ in range(1_000)]
        full = sketch_class(relative_accuracy=0.01)
        full.add_all(values)
        before = [full.get_quantile_value(q) for q in STANDARD_QUANTILES]

        full.merge(sketch_class(relative_accuracy=0.01))
        after = [full.get_quantile_value(q) for q in STANDARD_QUANTILES]
        assert before == after

        empty = sketch_class(relative_accuracy=0.01)
        empty.merge(full)
        assert empty.count == pytest.approx(full.count)
        for quantile in STANDARD_QUANTILES:
            assert empty.get_quantile_value(quantile) == pytest.approx(
                full.get_quantile_value(quantile)
            )

    def test_iadd_operator_merges(self, sketch_class, rng):
        values = [rng.random() * 100 for _ in range(2_000)]
        left = sketch_class(relative_accuracy=0.01)
        right = sketch_class(relative_accuracy=0.01)
        left.add_all(values[:1000])
        right.add_all(values[1000:])
        left += right
        assert left.count == pytest.approx(len(values))


class TestMergeValidation:
    def test_merging_different_accuracies_rejected(self):
        coarse = DDSketch(relative_accuracy=0.05)
        fine = DDSketch(relative_accuracy=0.01)
        with pytest.raises(UnequalSketchParametersError):
            coarse.merge(fine)

    def test_merging_different_mappings_rejected(self):
        standard = DDSketch(relative_accuracy=0.01)
        fast = FastDDSketch(relative_accuracy=0.01)
        with pytest.raises(UnequalSketchParametersError):
            standard.merge(fast)

    def test_merging_non_sketch_rejected(self):
        sketch = DDSketch()
        with pytest.raises(IllegalArgumentError):
            sketch.merge("not a sketch")

    def test_mergeable_with_reports_compatibility(self):
        assert DDSketch(0.01).mergeable_with(DDSketch(0.01))
        assert not DDSketch(0.01).mergeable_with(DDSketch(0.02))

    def test_merged_sketch_keeps_accuracy_guarantee(self, rng):
        # End-to-end: 10 agents each sketch part of the stream, all merged.
        values = [rng.paretovariate(1.0) for _ in range(30_000)]
        agents = [DDSketch(relative_accuracy=0.01) for _ in range(10)]
        for index, value in enumerate(values):
            agents[index % 10].add(value)
        merged = agents[0]
        for agent in agents[1:]:
            merged.merge(agent)

        from tests.conftest import assert_relative_accuracy

        assert_relative_accuracy(merged, values, 0.01)

    def test_merge_mixed_signs_and_zeros(self, mixed_sign_stream):
        half = len(mixed_sign_stream) // 2
        left = DDSketch(relative_accuracy=0.01)
        right = DDSketch(relative_accuracy=0.01)
        reference = DDSketch(relative_accuracy=0.01)
        left.add_all(mixed_sign_stream[:half])
        right.add_all(mixed_sign_stream[half:])
        reference.add_all(mixed_sign_stream)
        left.merge(right)
        assert left.zero_count == pytest.approx(reference.zero_count)
        for quantile in STANDARD_QUANTILES:
            assert left.get_quantile_value(quantile) == pytest.approx(
                reference.get_quantile_value(quantile)
            )


def _udd(relative_accuracy, collapses, values=()):
    """A UDDSketch(relative_accuracy, 64) holding ``values``, collapsed
    ``collapses`` times (each collapse squares its gamma)."""
    sketch = UDDSketch(relative_accuracy=relative_accuracy, bin_limit=64)
    for value in values:
        sketch.add(value)
    sketch._collapse_to(collapses)
    return sketch


#: UDDSketch lineages by initial accuracy; 2a / (1 + a**2) is the accuracy
#: 0.01 degrades to after one collapse, as the start of its own lineage.
LINEAGES = [0.01, 0.02, 2 * 0.01 / (1 + 0.01**2)]


def _merge_grid():
    """UDDSketches of every lineage at several collapse counts, empty and
    not, plus plain sketches sharing a lineage's mapping at some count."""
    sketches = []
    for accuracy in LINEAGES:
        for collapses in (0, 1, 3, 5):
            for values in ((), (0.5, 2.0, -3.0)):
                sketches.append(_udd(accuracy, collapses, values))
    for accuracy in LINEAGES:
        sketches.append(DDSketch(relative_accuracy=accuracy))
    sketches.append(DDSketch(mapping=_udd(0.01, 1).mapping))
    for sketch in sketches[-4:]:
        sketch.add(1.5)
    return sketches


class TestUDDSketchMergeability:
    def test_one_lineage_is_mergeable_across_collapse_counts(self):
        fine, coarse = _udd(0.01, 0), _udd(0.01, 5)
        assert fine.mergeable_with(coarse)
        assert coarse.mergeable_with(fine)
        fine.merge(coarse)
        assert fine.collapse_count == 5

    def test_mergeable_with_is_true_exactly_when_merge_succeeds(self):
        grid = _merge_grid()
        for target in grid:
            for source in grid:
                predicted = target.mergeable_with(source)
                attempt = target.copy()
                try:
                    attempt.merge(source)
                    merged = True
                except UnequalSketchParametersError:
                    merged = False
                    # A refused merge changes nothing, not even the mapping.
                    assert attempt.mapping == target.mapping
                assert predicted == merged, (target, source)
