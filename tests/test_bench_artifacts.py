"""Every committed ``BENCH_*.json`` artifact validates the shared schema.

The repository's benchmark emitters (``benchmarks/test_groupby_ingest_speed``,
``benchmarks/test_service_throughput``, ``benchmarks/test_overload_throughput``,
and ``repro load-gen``) all write through
:func:`repro.evaluation.artifacts.write_bench_artifact`, so the perf
trajectory stays machine-readable across PRs: one envelope of
``name`` / ``timestamp`` / ``machine`` / ``metrics``.  This suite pins the
schema itself and sweeps whatever artifacts are present at the repo root.

The artifacts are gitignored and written by the benchmarks under
``benchmarks/``, which the tier-1 run collects after ``tests/``.  So on a
fresh checkout an absent artifact skips its checks, with the reason; set
``REPRO_REQUIRE_BENCH_ARTIFACTS=1`` once the benchmarks have run to make an
absent artifact fail instead.
"""

import json
import os
from pathlib import Path

import pytest

from repro.evaluation.artifacts import (
    REQUIRED_KEYS,
    REQUIRED_MACHINE_KEYS,
    bench_artifact,
    machine_info,
    validate_bench_artifact,
    write_bench_artifact,
)
from repro.exceptions import IllegalArgumentError

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Artifacts the benchmarks under ``benchmarks/`` write (CI regenerates and
#: archives them).
EXPECTED_ARTIFACTS = (
    "BENCH_groupby.json",
    "BENCH_service.json",
    "BENCH_overload.json",
    "BENCH_query.json",
    "BENCH_kernel.json",
    "BENCH_wire.json",
)

#: Environment switch turning an absent expected artifact from a skip into a
#: failure (for a run after the benchmarks have written them).
REQUIRE_ENV = "REPRO_REQUIRE_BENCH_ARTIFACTS"


def _artifact_paths():
    return sorted(REPO_ROOT.glob("BENCH_*.json"))


def _missing_artifacts(names):
    """Skip (or, under ``REQUIRE_ENV``, fail) when any of ``names`` is absent."""
    missing = sorted(name for name in names if not (REPO_ROOT / name).is_file())
    if not missing:
        return
    message = f"benchmark artifacts missing from the repo root: {missing}"
    if os.environ.get(REQUIRE_ENV) == "1":
        pytest.fail(message)
    pytest.skip(f"{message}; the benchmarks under benchmarks/ write them")


def _load(name):
    _missing_artifacts([name])
    return json.loads((REPO_ROOT / name).read_text(encoding="utf-8"))


class TestCommittedArtifacts:
    def test_expected_artifacts_exist(self):
        _missing_artifacts(EXPECTED_ARTIFACTS)

    @pytest.mark.parametrize(
        "path", _artifact_paths(), ids=lambda path: path.name
    )
    def test_artifact_validates_against_the_shared_schema(self, path):
        document = json.loads(path.read_text(encoding="utf-8"))
        validate_bench_artifact(document)  # raises IllegalArgumentError on violation

    def test_service_artifact_carries_throughput_metrics(self):
        document = _load("BENCH_service.json")
        sections = document["metrics"]
        assert any("values_per_sec" in section for section in sections.values()), (
            "BENCH_service.json must record the service's end-to-end values/sec"
        )

    def test_query_artifact_carries_interactivity_gates(self):
        document = _load("BENCH_query.json")
        sections = document["metrics"]
        assert {"tag_slice", "threshold"} <= set(sections)
        assert sections["tag_slice"]["warm_seconds"] < 0.010, (
            "warm tag-slice quantile queries must stay interactive (< 10 ms)"
        )
        assert sections["threshold"]["prune_rate"] >= 0.9, (
            "selective threshold queries must prune >= 90% of series from bounds"
        )

    def test_kernel_artifact_records_backends(self):
        document = _load("BENCH_kernel.json")
        sections = document["metrics"]
        assert "numpy" in sections, "the NumPy reference backend must always be measured"
        assert "comparison" in sections
        for backend in ("numpy", "native"):
            if backend not in sections:
                continue
            metrics = sections[backend]
            assert metrics["backend"] == backend, (
                "each section must record which kernel backend produced it"
            )
            for key in (
                "scalar_ns_per_value",
                "batch_log_ns_per_value",
                "batch_cubic_ns_per_value",
                "grouped_1series_ns_per_value",
                "grouped_1000series_ns_per_value",
            ):
                assert metrics[key] > 0.0
        comparison = sections["comparison"]
        assert isinstance(comparison["native_available"], bool)
        if comparison["native_available"]:
            # The committed artifact must show the native batch path beating
            # the pure-NumPy floor by the gated margin on the fused mapping.
            assert comparison["batch_cubic_speedup"] >= comparison["required_batch_speedup"]

    def test_wire_artifact_carries_compression_gate(self):
        document = _load("BENCH_wire.json")
        frame = document["metrics"]["frame"]
        assert frame["num_series"] >= 1_000
        assert frame["zlib_compression_ratio"] >= frame["required_zlib_ratio"], (
            "the committed wire artifact must show compressed frame v3 clearing "
            "its size gate"
        )
        for key in (
            "frame_raw_bytes_per_series",
            "frame_zlib_bytes_per_series",
            "proto_bytes_per_series",
            "frame_encode_ns_per_value",
            "frame_decode_ns_per_value",
            "proto_encode_ns_per_value",
            "proto_decode_ns_per_value",
        ):
            assert frame[key] > 0.0

    def test_overload_artifact_carries_degradation_metrics(self):
        document = _load("BENCH_overload.json")
        sections = document["metrics"]
        assert {"capacity_1x", "capacity_2x", "outage_spool"} <= set(sections)
        assert sections["capacity_2x"]["shed_replies"] > 0, (
            "the 2x phase must actually have shed load"
        )
        assert sections["capacity_2x"]["no_frame_lost"] is True
        assert sections["outage_spool"]["frames_dropped"] == 0


class TestSchemaHelpers:
    def test_bench_artifact_builds_a_valid_document(self):
        document = bench_artifact("unit", {"section": {"elapsed": 1.5, "ok": True}})
        validate_bench_artifact(document)
        assert set(REQUIRED_KEYS) <= set(document)
        assert set(REQUIRED_MACHINE_KEYS) <= set(document["machine"])
        assert document["machine"] == machine_info()

    def test_write_merges_sections_and_replaces_pre_schema_files(self, tmp_path):
        path = tmp_path / "BENCH_unit.json"
        path.write_text('{"legacy": {"old": 1}}', encoding="utf-8")  # pre-schema file
        write_bench_artifact(path, "unit", "first", {"a": 1})
        write_bench_artifact(path, "unit", "second", {"b": 2.5})
        document = json.loads(path.read_text(encoding="utf-8"))
        validate_bench_artifact(document)
        assert set(document["metrics"]) == {"first", "second"}
        assert document["metrics"]["first"] == {"a": 1}

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda doc: doc.pop("timestamp"),
            lambda doc: doc.pop("machine"),
            lambda doc: doc.update(name=""),
            lambda doc: doc.update(timestamp="yesterday-ish"),
            lambda doc: doc.update(metrics={}),
            lambda doc: doc.update(metrics={"s": {}}),
            lambda doc: doc.update(metrics={"s": {"nested": {"too": "deep"}}}),
            lambda doc: doc["machine"].pop("cpu_count"),
        ],
        ids=[
            "no-timestamp", "no-machine", "empty-name", "bad-timestamp",
            "empty-metrics", "empty-section", "non-scalar-leaf", "no-cpu-count",
        ],
    )
    def test_schema_violations_are_rejected(self, mutation):
        document = bench_artifact("unit", {"section": {"value": 1}})
        mutation(document)
        with pytest.raises(IllegalArgumentError):
            validate_bench_artifact(document)

    def test_non_object_documents_are_rejected(self):
        with pytest.raises(IllegalArgumentError):
            validate_bench_artifact(["not", "an", "object"])
