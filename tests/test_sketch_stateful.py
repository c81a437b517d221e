"""Stateful property testing of the whole sketch surface.

A Hypothesis :class:`~hypothesis.stateful.RuleBasedStateMachine` drives one
sketch through arbitrary interleavings of the operations a production
deployment performs — scalar ``add``, vectorized ``add_batch``, ``merge``
with an independently-built peer, and full round trips through the binary
codec — while a plain Python list mirrors every inserted value.  After *every* step
two invariants must hold:

* **count conservation** — ``sketch.count`` equals the number of mirrored
  values exactly (unit weights sum without rounding),
* **the relative-error guarantee** — every checked quantile is within the
  sketch's *current* ``relative_accuracy`` of the exact quantile of the
  mirror.  For :class:`~repro.core.UDDSketch` the machine uses a tiny bucket
  budget so uniform collapses fire mid-run and the invariant is checked
  against the degraded (post-collapse) accuracy.

The value range is kept within what the bounded tail-collapsing stores can
hold without collapsing (their guarantee is explicitly one-sided once they
collapse); the uniform-collapse variant is the one exercised *through* its
collapses.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro import (
    BaseDDSketch,
    DDSketch,
    FastDDSketch,
    LogUnboundedDenseDDSketch,
    SparseDDSketch,
    UDDSketch,
)
from tests.conftest import assert_relative_accuracy

#: Sketch configurations under test.  alpha = 0.02 and |value| in
#: [1e-4, 1e4] keep the key span (~460) far below the 2048-bucket default of
#: the tail-collapsing stores, so their guarantee holds unconditionally; the
#: uniform variant gets a 64-bucket budget so collapses are forced.
CONFIGS = {
    "default": lambda: DDSketch(relative_accuracy=0.02),
    "unbounded": lambda: LogUnboundedDenseDDSketch(relative_accuracy=0.02),
    "sparse": lambda: SparseDDSketch(relative_accuracy=0.02),
    "fast": lambda: FastDDSketch(relative_accuracy=0.02),
    "uniform": lambda: UDDSketch(relative_accuracy=0.02, bin_limit=64),
}

_magnitudes = st.floats(
    min_value=1e-4, max_value=1e4, allow_nan=False, allow_infinity=False
)
_values = st.one_of(st.just(0.0), _magnitudes, _magnitudes.map(lambda x: -x))

#: Quantiles asserted after every step; includes both extremes.
_CHECKED_QUANTILES = (0.0, 0.25, 0.5, 0.75, 0.99, 1.0)


class SketchStateMachine(RuleBasedStateMachine):
    """Interleaves mutations and codec round trips against a value mirror."""

    @initialize(config=st.sampled_from(sorted(CONFIGS)))
    def setup(self, config: str) -> None:
        self.factory = CONFIGS[config]
        self.sketch = self.factory()
        self.mirror: list = []

    @rule(value=_values)
    def add_value(self, value: float) -> None:
        self.sketch.add(value)
        self.mirror.append(value)

    @rule(batch=st.lists(_values, min_size=1, max_size=40))
    def add_batch(self, batch: list) -> None:
        self.sketch.add_batch(np.asarray(batch, dtype=np.float64))
        self.mirror.extend(batch)

    @rule(batch=st.lists(_values, max_size=30))
    def merge_peer(self, batch: list) -> None:
        """Merge an independently built sketch of the same configuration.

        For the uniform variant the peer may have collapsed a different
        number of times than the main sketch, exercising the mixed-alpha
        fusion path of :meth:`UDDSketch.merge`.
        """
        peer = self.factory()
        if batch:
            peer.add_batch(np.asarray(batch, dtype=np.float64))
        self.sketch.merge(peer)
        self.mirror.extend(batch)

    @rule()
    def roundtrip_binary(self) -> None:
        self.sketch = BaseDDSketch.from_bytes(self.sketch.to_bytes())

    @invariant()
    def count_is_conserved(self) -> None:
        if not hasattr(self, "mirror"):
            return
        assert self.sketch.count == float(len(self.mirror))

    @invariant()
    def quantiles_stay_within_current_alpha(self) -> None:
        if not getattr(self, "mirror", None):
            return
        assert_relative_accuracy(
            self.sketch,
            self.mirror,
            alpha=self.sketch.relative_accuracy,
            quantiles=_CHECKED_QUANTILES,
        )


TestSketchStateMachine = SketchStateMachine.TestCase
