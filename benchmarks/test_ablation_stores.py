"""Ablation: bucket-store choice (dense vs sparse vs collapsing).

DESIGN.md calls out the store as the memory/speed trade-off: the dense store
is the fastest but allocates the whole key span, the sparse store only pays
for non-empty buckets but each insertion is a dictionary update, and the
collapsing store bounds the worst case at the cost of low-quantile accuracy
once the bound is hit (exercised by the bucket-limit ablation).
"""

import time

from _bench_utils import run_once

from repro.core.ddsketch import BaseDDSketch
from repro.datasets import get_dataset
from repro.evaluation.report import format_figure_header, format_table
from repro.mapping import LogarithmicMapping
from repro.store import (
    CollapsingHighestDenseStore,
    CollapsingLowestDenseStore,
    DenseStore,
    SparseStore,
)

#: Timed passes per store; the ratio gate takes each store's best.
GATE_ROUNDS = 5

STORE_FACTORIES = {
    "dense (unbounded)": lambda: (DenseStore(), DenseStore()),
    "sparse": lambda: (SparseStore(), SparseStore()),
    "collapsing dense (m=2048)": lambda: (
        CollapsingLowestDenseStore(bin_limit=2048),
        CollapsingHighestDenseStore(bin_limit=2048),
    ),
}


def build_sketch(store_name):
    store, negative_store = STORE_FACTORIES[store_name]()
    return BaseDDSketch(
        mapping=LogarithmicMapping(0.01), store=store, negative_store=negative_store
    )


def test_ablation_store_speed_and_memory(benchmark, emit):
    values = [float(v) for v in get_dataset("span").generator(20_000, seed=0)]

    def measure():
        # Best of GATE_ROUNDS passes in thread CPU time, the stores taking
        # turns round by round: the per-value loops run ~1-3 us of Python
        # bytecode per value, and a process sharing the host's cores slows
        # a wall-clock pass, or every pass of one store, by 2x or more.
        elapsed = dict.fromkeys(STORE_FACTORIES, float("inf"))
        sketches = {}
        for _ in range(GATE_ROUNDS):
            for store_name in STORE_FACTORIES:
                sketch = sketches[store_name] = build_sketch(store_name)
                add = sketch.add
                start = time.thread_time()
                for value in values:
                    add(value)
                elapsed[store_name] = min(elapsed[store_name], time.thread_time() - start)
        return {
            store_name: {
                "ns_per_add": elapsed[store_name] / len(values) * 1e9,
                "bytes": sketch.size_in_bytes(),
                "buckets": sketch.num_buckets,
                "p99": sketch.get_quantile_value(0.99),
            }
            for store_name, sketch in sketches.items()
        }

    results = run_once(benchmark, measure)
    rows = [
        [name, f"{data['ns_per_add']:.0f}", data["bytes"], data["buckets"]]
        for name, data in results.items()
    ]
    emit(format_figure_header("Ablation", "Store choice on the span data set"))
    emit(format_table(["store", "ns/add", "bytes", "non-empty buckets"], rows))

    dense = results["dense (unbounded)"]
    sparse = results["sparse"]
    collapsing = results["collapsing dense (m=2048)"]

    # Every store produces the same quantile estimates (they share the mapping
    # and no collapse was triggered at this scale).
    assert abs(dense["p99"] - sparse["p99"]) < 1e-9
    assert abs(dense["p99"] - collapsing["p99"]) < 1e-9

    # The sparse store charges only for non-empty buckets, so on the sparse
    # wide-range span data it uses no more memory than the dense spans.
    assert sparse["buckets"] == dense["buckets"]
    assert collapsing["bytes"] <= dense["bytes"] * 1.5

    # Dense insertion is in the same ballpark as sparse insertion (array
    # indexing vs dict update); the slack is wide because both are pure
    # Python where scalar ndarray indexing costs roughly a dict update and
    # shared-runner jitter dominates differences this small.
    assert dense["ns_per_add"] < sparse["ns_per_add"] * 2.5
