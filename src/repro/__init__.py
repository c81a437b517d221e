"""Reproduction of "DDSketch: A Fast and Fully-Mergeable Quantile Sketch with
Relative-Error Guarantees" (Masson, Rim, Lee — VLDB 2019).

The package provides:

* :class:`~repro.core.DDSketch` and its preset variants — the paper's primary
  contribution (Section 2),
* the baseline sketches it is evaluated against (GKArray, HDR Histogram,
  Moments sketch) plus related-work extensions (t-digest, KLL) in
  :mod:`repro.baselines`,
* the data-set generators of Section 4.1 in :mod:`repro.datasets`,
* a distributed-monitoring substrate (agents, aggregator, time-series rollups)
  matching the paper's motivating scenario in :mod:`repro.monitoring`,
* the evaluation harness regenerating every table and figure in
  :mod:`repro.evaluation`, and
* the Section 3 size-bound calculations in :mod:`repro.theory`.

Quickstart
----------

>>> from repro import DDSketch
>>> sketch = DDSketch(relative_accuracy=0.01)
>>> for latency_ms in (1.2, 3.4, 150.0, 2.1, 0.9):
...     sketch.add(latency_ms)
>>> p99 = sketch.get_quantile_value(0.99)

High-rate sources should ingest NumPy arrays through the vectorized batch
path instead of looping:

>>> import numpy as np
>>> sketch.add_batch(np.array([1.2, 3.4, 150.0, 2.1, 0.9]))  # doctest: +ELLIPSIS
DDSketch(...)
"""

from repro.core import (
    BaseDDSketch,
    DDSketch,
    FastDDSketch,
    LogCollapsingHighestDenseDDSketch,
    LogCollapsingLowestDenseDDSketch,
    LogUnboundedDenseDDSketch,
    PaperDDSketch,
    QuantileSketch,
    SparseDDSketch,
    UDDSketch,
    UniformCollapsingDDSketch,
)
from repro.registry import SeriesKey, SketchRegistry
from repro.exceptions import (
    DeserializationError,
    EmptySketchError,
    IllegalArgumentError,
    ReproError,
    UnequalSketchParametersError,
    UnsupportedOperationError,
)
from repro.mapping import (
    CubicallyInterpolatedMapping,
    KeyMapping,
    LinearlyInterpolatedMapping,
    LogarithmicMapping,
    QuadraticallyInterpolatedMapping,
)
from repro.store import (
    CollapsingHighestDenseStore,
    CollapsingLowestDenseStore,
    DenseStore,
    SparseStore,
    UniformCollapsingDenseStore,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # Core sketches
    "BaseDDSketch",
    "DDSketch",
    "FastDDSketch",
    "LogCollapsingLowestDenseDDSketch",
    "LogCollapsingHighestDenseDDSketch",
    "LogUnboundedDenseDDSketch",
    "SparseDDSketch",
    "PaperDDSketch",
    "UDDSketch",
    "UniformCollapsingDDSketch",
    "QuantileSketch",
    # High-cardinality registry
    "SeriesKey",
    "SketchRegistry",
    # Mappings
    "KeyMapping",
    "LogarithmicMapping",
    "LinearlyInterpolatedMapping",
    "QuadraticallyInterpolatedMapping",
    "CubicallyInterpolatedMapping",
    # Stores
    "DenseStore",
    "SparseStore",
    "CollapsingLowestDenseStore",
    "CollapsingHighestDenseStore",
    "UniformCollapsingDenseStore",
    # Exceptions
    "ReproError",
    "IllegalArgumentError",
    "UnequalSketchParametersError",
    "EmptySketchError",
    "UnsupportedOperationError",
    "DeserializationError",
]
