"""Backend-equivalence property suite for the columnar ingest kernel.

Every test here runs the same ingest program once under the pure-NumPy
kernel backend and once under the compiled native backend, then asserts the
resulting sketches are **byte-identical** on the wire (``to_bytes`` /
registry ``to_frame``) — the acceptance bar of the kernel layer.  Covered:
dense, sparse, tail-collapsing, and uniform-collapsing (UDD, including
mid-collapse) stores, all four mappings, unit and fractional weights, the
grouped multi-sketch path, and the frame-v3 codec round trip.

The whole module skips (with the loader's reason) when the native backend
cannot be compiled on this host.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    DDSketch,
    FastDDSketch,
    LogUnboundedDenseDDSketch,
    SparseDDSketch,
    UDDSketch,
    kernel,
)
from repro.mapping import (
    LinearlyInterpolatedMapping,
    QuadraticallyInterpolatedMapping,
)
from repro.registry import SketchRegistry

from _kernel_testkit import require_native_kernel


@pytest.fixture(autouse=True)
def _native_kernel():
    """Every test here needs the native kernel: skip without one, fail on a
    kernel that failed its self-test."""
    require_native_kernel()


SKETCH_FACTORIES = {
    "dense-log": lambda: LogUnboundedDenseDDSketch(0.01),
    "collapsing-log": lambda: DDSketch(relative_accuracy=0.01, bin_limit=128),
    "collapsing-cubic": lambda: FastDDSketch(0.02, bin_limit=64),
    "collapsing-linear": lambda: FastDDSketch(
        0.05, bin_limit=64, mapping=LinearlyInterpolatedMapping(0.05)
    ),
    "collapsing-quadratic": lambda: FastDDSketch(
        0.05, bin_limit=64, mapping=QuadraticallyInterpolatedMapping(0.05)
    ),
    "sparse-log": lambda: SparseDDSketch(0.01, max_num_buckets=40),
    # The bin limit bounds the collapse depth: the property suite generates
    # magnitudes spanning ~600 orders, and a tiny limit would degrade the
    # adaptive accuracy all the way to 1.0 (which UDDSketch rejects).
    "uniform-udd": lambda: UDDSketch(0.01, bin_limit=1024),
}


@pytest.fixture(autouse=True)
def _restore_backend():
    before = kernel.active_backend()
    yield
    kernel.set_backend(before)


def _run_program(factory, program, backend):
    """Build a sketch and ingest a batch program under one backend."""
    kernel.set_backend(backend)
    sketch = factory()
    for values, weights in program:
        sketch.add_batch(np.asarray(values), weights)
    return sketch


# Wide-magnitude finite floats, including zeros, negatives, and denormal-range
# values that land in the zero bucket.
values_strategy = st.lists(
    st.one_of(
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False),
        st.floats(min_value=1e-300, max_value=1e300),
        st.floats(min_value=-1e300, max_value=-1e-300),
        st.just(0.0),
        st.just(1e-320),
    ),
    min_size=1,
    max_size=60,
)
weights_strategy = st.one_of(
    st.none(),
    st.floats(min_value=0.25, max_value=8.0, allow_nan=False, allow_infinity=False),
)
program_strategy = st.lists(
    st.tuples(values_strategy, weights_strategy), min_size=1, max_size=4
)


@pytest.mark.parametrize("family", sorted(SKETCH_FACTORIES))
@given(program=program_strategy)
@settings(max_examples=40, deadline=None)
def test_backends_byte_identical(family, program):
    factory = SKETCH_FACTORIES[family]
    via_numpy = _run_program(factory, program, "numpy")
    via_native = _run_program(factory, program, "native")
    assert via_native.to_bytes() == via_numpy.to_bytes()
    assert via_native.count == via_numpy.count
    assert via_native.sum == via_numpy.sum


@given(
    values=st.lists(
        st.floats(min_value=1e-6, max_value=1e12, allow_nan=False, allow_infinity=False),
        min_size=200,
        max_size=400,
    )
)
@settings(max_examples=10, deadline=None)
def test_udd_mid_collapse_byte_identical(values):
    """A tiny bin limit forces uniform collapses *during* the batch."""
    program = [(values, None), ([v * 1e3 for v in values[:50]], 0.5)]
    via_numpy = _run_program(lambda: UDDSketch(0.05, bin_limit=8), program, "numpy")
    via_native = _run_program(lambda: UDDSketch(0.05, bin_limit=8), program, "native")
    assert via_numpy.collapse_count >= 1
    assert via_native.to_bytes() == via_numpy.to_bytes()


@given(
    samples=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=200,
    ),
    weighted=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_grouped_ingest_byte_identical(samples, weighted):
    groups = np.array([g for g, _ in samples], dtype=np.int64)
    values = np.array([v for _, v in samples])
    weights = 0.75 if weighted else None

    def ingest(backend):
        kernel.set_backend(backend)
        sketches = [LogUnboundedDenseDDSketch(0.01) for _ in range(8)]
        from repro.core import BaseDDSketch

        BaseDDSketch.add_grouped_batch(sketches, groups, values, weights)
        return [sketch.to_bytes() for sketch in sketches]

    assert ingest("native") == ingest("numpy")


@given(program=program_strategy)
@settings(max_examples=20, deadline=None)
def test_registry_frame_byte_identical(program):
    def build(backend):
        kernel.set_backend(backend)
        registry = SketchRegistry()
        for index, (values, weights) in enumerate(program):
            registry.add_batch(f"series-{index % 3}", np.asarray(values), weights)
        return registry.to_frame()

    frame_numpy = build("numpy")
    frame_native = build("native")
    assert frame_native == frame_numpy

    # Decoding a frame re-bins the buckets through the kernel as well; the
    # round trip must agree across backends too.
    def decode(backend, frame):
        kernel.set_backend(backend)
        registry = SketchRegistry.from_frame(frame)
        return registry.to_frame()

    assert decode("native", frame_numpy) == decode("numpy", frame_numpy)


def test_scalar_adapter_matches_across_backends():
    values = np.concatenate(
        [np.logspace(-4, 8, 500), -np.logspace(-4, 8, 500), np.zeros(10)]
    )
    results = {}
    for backend in ("numpy", "native"):
        kernel.set_backend(backend)
        sketch = DDSketch(relative_accuracy=0.01)
        for value in values.tolist():
            sketch.add(value)
        results[backend] = sketch.to_bytes()
    assert results["native"] == results["numpy"]


def test_codec_error_contract_identical():
    """Malformed payloads raise the same exceptions under both backends."""
    from repro.exceptions import DeserializationError

    kernel.set_backend("numpy")
    payload = LogUnboundedDenseDDSketch(0.01).add_batch(np.logspace(0, 3, 100)).to_bytes()
    truncated = payload[: len(payload) - 3]
    for backend in ("numpy", "native"):
        kernel.set_backend(backend)
        assert DDSketch.from_bytes(payload).count == 100.0
        with pytest.raises(DeserializationError):
            DDSketch.from_bytes(truncated)


def test_loading_the_native_backend_does_not_reenter_itself(monkeypatch):
    """The load-time self-test builds sketches and frames through the kernel
    facade; while the backend is being verified those calls must not start
    another load (each would compile, load and self-test again)."""
    from repro.kernel import native

    loads = []
    compile_and_load = native._compile_and_load

    def counting_compile_and_load():
        loads.append(1)
        return compile_and_load()

    monkeypatch.setattr(native, "_compile_and_load", counting_compile_and_load)
    monkeypatch.setattr(native, "_LOAD_RESULT", None)
    monkeypatch.setattr(kernel, "_active", None)
    monkeypatch.delenv(kernel.BACKEND_ENV, raising=False)
    assert kernel.active_backend() == "native"
    assert loads == [1]
