"""The columnar ingest kernel: one engine behind every ingest path.

``repro.kernel`` is the single place where values become *(keys, counts)*
segments.  The scalar :meth:`~repro.core.BaseDDSketch.add`, the vectorized
:meth:`~repro.core.BaseDDSketch.add_batch`, the grouped high-cardinality
pipeline (:func:`repro.store.grouped.add_grouped_batch`), the registry flush
paths, and the frame-v3 bucket codec all call into this module instead of
carrying their own key-computation or binning loops.

Two interchangeable backends implement the inner loops:

* ``numpy`` — the pure-NumPy reference (:mod:`repro.kernel.reference`),
  always available, and definitionally correct;
* ``native`` — a small C library compiled on demand from
  ``src/repro/kernel/_kernel.c`` and loaded via ctypes
  (:mod:`repro.kernel.native`).  A *soft* dependency: it requires only a C
  compiler on the host, and silently gives way to NumPy when one is missing.

Selection: :func:`set_backend` programmatically, or the ``REPRO_KERNEL``
environment variable (``auto`` — the default — prefers native when it can be
built and self-tested; ``numpy`` forces the reference; ``native`` requires
the compiled backend, warning and falling back if unavailable).  Both
backends are bit-exact down to serialized frame bytes — enforced by a native
load-time self-test and by ``tests/test_kernel_backends.py``.
"""

from __future__ import annotations

import os
import warnings
from typing import Optional

from repro.exceptions import IllegalArgumentError
from repro.kernel.segments import (
    NEGATIVE,
    POSITIVE,
    ZERO,
    Selection,
    SignSplit,
    apply_segments,
    classify_value,
    coerce_values_weights,
    selection_from_keys,
)

__all__ = [
    "POSITIVE",
    "NEGATIVE",
    "ZERO",
    "Selection",
    "SignSplit",
    "active_backend",
    "apply_segments",
    "backend_info",
    "bin_grouped",
    "bin_selection",
    "classify_value",
    "coerce_values_weights",
    "compute_keys",
    "decode_bucket_pairs",
    "encode_bucket_pairs",
    "encode_proto_bins",
    "group_key_ranges",
    "native_available",
    "selection_from_keys",
    "set_backend",
]

#: Environment variable selecting the kernel backend (``auto``/``numpy``/``native``).
BACKEND_ENV = "REPRO_KERNEL"

_VALID_CHOICES = ("auto", "numpy", "native")

_active = None  # resolved lazily on first kernel call


def _numpy_backend():
    from repro.kernel.reference import NumpyBackend

    return NumpyBackend()


def _resolve_backend(choice: str, *, strict: bool):
    """Instantiate the backend for ``choice``.

    ``strict`` controls what happens when ``native`` is requested but
    unavailable: raise (programmatic :func:`set_backend`) versus warn and
    fall back (environment-variable selection, which must never break a
    deployment that merely lost its compiler).
    """
    if choice == "numpy":
        return _numpy_backend()
    from repro.kernel.native import NativeKernelUnavailable, load_native_backend

    if choice == "native":
        try:
            return load_native_backend()
        except NativeKernelUnavailable as error:
            if strict:
                raise IllegalArgumentError(
                    f"native kernel backend unavailable: {error}"
                ) from error
            warnings.warn(
                f"REPRO_KERNEL=native requested but unavailable ({error}); "
                "falling back to the numpy backend",
                RuntimeWarning,
                stacklevel=3,
            )
            return _numpy_backend()
    # auto: prefer native, quietly use numpy otherwise.
    try:
        return load_native_backend()
    except NativeKernelUnavailable:
        return _numpy_backend()


def _backend():
    """The active backend object, resolving ``REPRO_KERNEL`` on first use."""
    global _active
    if _active is None:
        choice = os.environ.get(BACKEND_ENV, "auto").strip().lower() or "auto"
        if choice not in _VALID_CHOICES:
            warnings.warn(
                f"unknown {BACKEND_ENV}={choice!r} (expected one of "
                f"{', '.join(_VALID_CHOICES)}); using auto",
                RuntimeWarning,
                stacklevel=3,
            )
            choice = "auto"
        _active = _resolve_backend(choice, strict=False)
    return _active


def set_backend(name: str) -> str:
    """Select the kernel backend programmatically.

    ``name`` is ``"numpy"``, ``"native"``, or ``"auto"``.  Requesting
    ``"native"`` when it cannot be compiled/loaded raises
    :class:`~repro.exceptions.IllegalArgumentError` (unlike the environment
    variable, which warns and falls back).  Returns the name of the backend
    now active.  Existing sketches are unaffected retroactively; the backend
    only changes how *future* kernel calls execute — results are bit-exact
    either way.
    """
    global _active
    choice = str(name).strip().lower()
    if choice not in _VALID_CHOICES:
        raise IllegalArgumentError(
            f"unknown kernel backend {name!r}; expected one of {', '.join(_VALID_CHOICES)}"
        )
    _active = _resolve_backend(choice, strict=True)
    return _active.name


def active_backend() -> str:
    """Name of the backend currently serving kernel calls (``numpy``/``native``)."""
    return _backend().name


def native_available() -> bool:
    """Whether the compiled backend can be built, loaded, and self-tested here."""
    from repro.kernel.native import availability

    return availability()[0]


def backend_info() -> dict:
    """Diagnostics for ``--version`` output and BENCH artifacts.

    Returns a dict with the ``active`` backend name, whether ``native`` is
    available, the unavailability ``reason`` (or ``None``), and the raw
    ``REPRO_KERNEL`` environment setting.
    """
    from repro.kernel.native import availability

    available, reason = availability()
    return {
        "active": active_backend(),
        "native_available": available,
        "native_unavailable_reason": reason,
        "env": os.environ.get(BACKEND_ENV),
    }


def compute_keys(mapping, values) -> SignSplit:
    """Sign-split a float64 value batch and compute its bucket keys.

    The single kernel behind every batch ingest path: values strictly above
    ``mapping.min_possible`` map through ``mapping``'s key function, values
    strictly below its negation map by magnitude, and the remainder land in
    the zero bucket.  Returns a :class:`SignSplit` exposing per-sign masks,
    compressed keys, key ranges, and :meth:`~SignSplit.selection` packaging.
    """
    return _backend().split_keys(mapping, values)


def bin_selection(selection: Selection, lo: int, hi: int):
    """Bin a :class:`Selection` into the key window ``[lo, hi]``.

    Returns a dense count array of ``hi - lo + 1`` cells; out-of-window keys
    accumulate onto the boundary cells, matching bounded-store folding.
    """
    return _backend().bin_selection(selection, lo, hi)


def group_key_ranges(group_indices, keys, num_groups):
    """Per-group ``(min_keys, max_keys)`` of a grouped batch, in one pass.

    Both are ``int64`` arrays of ``num_groups`` entries; a group without
    samples keeps the sentinels ``min_keys[g] > max_keys[g]``.  The caller
    guarantees every group index lies in ``[0, num_groups)`` (the native
    backend does not bounds-check).
    """
    return _backend().group_key_ranges(group_indices, keys, num_groups)


def bin_grouped(group_indices, keys, weights, row_bases, num_cells, scratch=None):
    """Bin a grouped batch into one flat buffer of per-group rows.

    Cell ``row_bases[g] + k`` accumulates the weight of every sample with
    group ``g`` and key ``k``; the caller guarantees every group index
    indexes ``row_bases`` and lays the rows out so that every such cell
    falls in ``[0, num_cells)``.  Returns the ``num_cells``
    cells.  ``scratch`` optionally recycles the reference backend's
    flat-index temporary for single-writer callers.
    """
    return _backend().bin_grouped(
        group_indices, keys, weights, row_bases, num_cells, scratch=scratch
    )


def encode_bucket_pairs(deltas, counts) -> bytes:
    """Encode frame-v3 ``(zig-zag key delta, float64 count)`` bucket pairs."""
    return _backend().encode_bucket_pairs(deltas, counts)


def decode_bucket_pairs(reader, num_buckets: int):
    """Decode ``num_buckets`` frame-v3 bucket pairs from a varint reader.

    Returns ``(deltas, counts)`` arrays and advances ``reader`` past the
    consumed bytes; malformed input raises the codec's historical exceptions.
    """
    return _backend().decode_bucket_pairs(reader, num_buckets)


def encode_proto_bins(keys, counts) -> bytes:
    """Encode sparse bins as DataDog-proto ``binCounts`` map entries.

    The interop codec's (:mod:`repro.serialization.interop`) bucket loop:
    each ``(key, count)`` becomes one length-delimited map-entry submessage
    (``sint32`` zig-zag key + ``double`` count).  The zig-zag/float pair
    bytes inside every entry come from :func:`encode_bucket_pairs`, so the
    proto bytes are identical under both kernel backends wherever the
    frame-v3 bucket bytes are.
    """
    return _backend().encode_proto_bins(keys, counts)
