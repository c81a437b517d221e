"""Bucket stores: the counter containers backing a DDSketch.

The paper's Section 2.2 discusses several ways to hold the bucket counters in
memory; this package provides each of them behind a single :class:`Store`
interface so that the sketch logic is independent of the storage strategy:

* :class:`DenseStore` — a contiguous, growable array of counters covering the
  range between the minimum and maximum used keys (fast, memory proportional
  to the covered key range).
* :class:`SparseStore` — a dictionary from key to counter (memory proportional
  to the number of non-empty buckets, slower per insertion).
* :class:`CollapsingLowestDenseStore` — a dense store with a bound ``m`` on
  the number of buckets that collapses the lowest buckets together when the
  bound is exceeded (Algorithm 3 / 4 of the paper).
* :class:`CollapsingHighestDenseStore` — same, collapsing from the highest
  keys instead; used for the negative-value half of a full sketch.
* :class:`UniformCollapsingDenseStore` — a dense store that bounds its size by
  folding even/odd key pairs together (the UDDSketch scheme), preserving a
  degraded relative-error guarantee over the whole quantile range instead of
  sacrificing one tail.

For high-cardinality workloads — many stores fed from one columnar batch —
:func:`add_grouped_batch` accumulates parallel ``(group_index, key)`` arrays
into a whole sequence of stores with a single combined ``bincount`` pass
for the plain and tail-collapsing dense stores (falling back to per-group
``add_batch`` slices for the uniform-collapse and sparse store families).
"""

from repro.store.base import Store, Bucket
from repro.store.dense import DenseStore
from repro.store.sparse import SparseStore
from repro.store.collapsing import (
    CollapsingLowestDenseStore,
    CollapsingHighestDenseStore,
)
from repro.store.uniform import UniformCollapsingDenseStore
from repro.store.grouped import GroupedScratch, add_grouped_batch

__all__ = [
    "Store",
    "Bucket",
    "DenseStore",
    "SparseStore",
    "CollapsingLowestDenseStore",
    "CollapsingHighestDenseStore",
    "UniformCollapsingDenseStore",
    "GroupedScratch",
    "add_grouped_batch",
]
