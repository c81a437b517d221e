"""Shared fixtures for the test suite, plus the Hypothesis profiles.

Two Hypothesis profiles are registered here: ``ci`` (thorough — more
examples and longer stateful runs, no deadline so shared runners cannot
flake) and ``dev`` (fast feedback for local loops).  CI selects the ``ci``
profile automatically via the ``CI`` environment variable that every major
CI system sets; override with ``HYPOTHESIS_PROFILE=ci|dev``.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import HealthCheck, settings

from repro import DDSketch
from repro.baselines.exact import ExactQuantiles

settings.register_profile(
    "ci",
    max_examples=200,
    stateful_step_count=50,
    deadline=None,
    suppress_health_check=(HealthCheck.too_slow,),
)
settings.register_profile(
    "dev",
    max_examples=25,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=(HealthCheck.too_slow,),
)
settings.load_profile(
    os.environ.get("HYPOTHESIS_PROFILE", "ci" if os.environ.get("CI") else "dev")
)

#: Quantiles checked throughout the accuracy tests.
STANDARD_QUANTILES = (0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0)


@pytest.fixture
def rng() -> random.Random:
    """Deterministic random generator for test workloads."""
    return random.Random(20190612)


@pytest.fixture
def pareto_stream(rng: random.Random):
    """A moderately sized Pareto(1, 1) stream (heavy-tailed)."""
    return [rng.paretovariate(1.0) for _ in range(20_000)]


@pytest.fixture
def exponential_stream(rng: random.Random):
    """An exponential stream (light subexponential tail)."""
    return [rng.expovariate(1.0) for _ in range(20_000)]


@pytest.fixture
def mixed_sign_stream(rng: random.Random):
    """A stream with negative values, zeros and positive values."""
    values = []
    for _ in range(5_000):
        kind = rng.random()
        if kind < 0.4:
            values.append(rng.expovariate(0.5))
        elif kind < 0.8:
            values.append(-rng.expovariate(0.5))
        else:
            values.append(0.0)
    return values


@pytest.fixture(params=["numpy", "native"])
def kernel_backend(request):
    """Run a test once per ingest-kernel backend (native skips when unavailable)."""
    from repro import kernel
    from repro.kernel.native import availability

    if request.param == "native":
        available, reason = availability()
        if not available:
            pytest.skip(f"native kernel backend unavailable: {reason}")
    before = kernel.active_backend()
    kernel.set_backend(request.param)
    try:
        yield request.param
    finally:
        kernel.set_backend(before)


@pytest.fixture
def default_sketch() -> DDSketch:
    """A DDSketch with the paper's default parameters."""
    return DDSketch(relative_accuracy=0.01)


def exact_of(values) -> ExactQuantiles:
    """Convenience: exact quantiles of a list of values."""
    return ExactQuantiles(values)


def assert_relative_accuracy(sketch, values, alpha, quantiles=STANDARD_QUANTILES) -> None:
    """Assert that sketch quantiles are within ``alpha`` of the exact ones.

    A tiny tolerance on top of ``alpha`` absorbs floating-point rounding at
    the bucket boundaries (the guarantee is tight, so estimates can sit
    exactly at ``alpha`` relative distance).
    """
    exact = ExactQuantiles(values)
    tolerance = alpha * (1 + 1e-9) + 1e-12
    for quantile in quantiles:
        estimate = sketch.get_quantile_value(quantile)
        actual = exact.quantile(quantile)
        assert estimate is not None
        if actual == 0:
            assert abs(estimate) <= tolerance
        else:
            relative_error = abs(estimate - actual) / abs(actual)
            assert relative_error <= tolerance, (
                f"relative error {relative_error} exceeds alpha={alpha} at q={quantile} "
                f"(estimate={estimate}, actual={actual})"
            )
