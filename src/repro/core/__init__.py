"""Core DDSketch implementation: the paper's primary contribution.

The central class is :class:`DDSketch`, a fully-mergeable quantile sketch with
a relative-error guarantee.  Preset subclasses configure the mapping/store
combinations evaluated in the paper (memory-optimal, fast, unbounded, sparse).
"""

from repro.core.ddsketch import BaseDDSketch, DDSketch
from repro.core.uddsketch import UDDSketch, DEFAULT_UNIFORM_BIN_LIMIT
from repro.core.presets import (
    LogCollapsingLowestDenseDDSketch,
    LogCollapsingHighestDenseDDSketch,
    LogUnboundedDenseDDSketch,
    FastDDSketch,
    SparseDDSketch,
    PaperDDSketch,
    UniformCollapsingDDSketch,
)
from repro.core.protocol import QuantileSketch, sketch_metadata, SketchMetadata

__all__ = [
    "BaseDDSketch",
    "DDSketch",
    "LogCollapsingLowestDenseDDSketch",
    "LogCollapsingHighestDenseDDSketch",
    "LogUnboundedDenseDDSketch",
    "FastDDSketch",
    "SparseDDSketch",
    "PaperDDSketch",
    "UDDSketch",
    "UniformCollapsingDDSketch",
    "DEFAULT_UNIFORM_BIN_LIMIT",
    "QuantileSketch",
    "SketchMetadata",
    "sketch_metadata",
]
