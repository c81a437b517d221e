"""Optional compiled (C) backend for the columnar ingest kernel.

This is a *soft dependency*: the backend compiles ``_kernel.c`` on first use
with whatever C compiler the host provides (``$CC``, ``cc``, ``gcc`` or
``clang``) and loads it through :mod:`ctypes` — no build step, no installed
extension module, no new Python package.  When no compiler is available (or
the host is big-endian, or the compiled library fails its load-time
self-test against the NumPy reference backend) the kernel facade falls back
to :class:`repro.kernel.reference.NumpyBackend` automatically.

Bit-exactness strategy
----------------------

The C side (see ``_kernel.c``) restricts itself to correctly-rounded
IEEE-754 operations and input-order accumulation, compiled with
``-ffp-contract=off`` so no multiply-add fusion can change polynomial
rounding.  The one transcendental — the logarithmic mapping's ``log`` —
stays on the NumPy side: libm's ``log`` and NumPy's vectorized ``log``
disagree in the last ulp on some inputs, so this backend feeds a
precomputed ``numpy.log(|values|)`` array into the C pass instead of calling
``log`` in C.  Anything order-sensitive (pairwise ``numpy.sum`` totals,
summaries) never runs here at all; it lives in the shared segment layer.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.kernel.reference import NumpyBackend
from repro.kernel.segments import Selection, SignSplit

#: Environment variable overriding where compiled kernels are cached.
CACHE_DIR_ENV = "REPRO_KERNEL_CACHE"

_MODES = {"log": 0, "linear": 1, "quadratic": 2, "cubic": 3}

#: Worst-case wire bytes per encoded bucket: a 10-byte varint + 8-byte float.
_MAX_PAIR_BYTES = 18

#: Worst-case frame bytes of one entry besides its key bytes and buckets:
#: the sketch length varint, the sketch header and two store headers.
_MAX_ENTRY_OVERHEAD = 192

#: Columns of one decoded store row (``DE_COLS`` in ``_kernel.c``).
DECODED_STORE_COLUMNS = 10

#: Columns of one bulk-merge pair row (``MW_COLS`` in ``_kernel.c``).
MERGE_PAIR_COLUMNS = 7

_COMPILE_FLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math"]

#: Cached load attempt: ``None`` until tried, then ``(backend, reason)`` with
#: exactly one of the two set.
_LOAD_RESULT: Optional[Tuple[Optional["NativeBackend"], Optional[str]]] = None


class NativeKernelUnavailable(RuntimeError):
    """Raised when the native backend is requested but cannot be provided."""


def _cache_dir() -> Path:
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-kernel"


def _find_compiler() -> Optional[str]:
    candidates = []
    env_cc = os.environ.get("CC")
    if env_cc:
        candidates.append(env_cc)
    candidates += ["cc", "gcc", "clang"]
    for candidate in candidates:
        found = shutil.which(candidate)
        if found:
            return found
    return None


def _compile_and_load() -> ctypes.CDLL:
    """Compile ``_kernel.c`` (cached by source hash) and load it via ctypes."""
    if sys.byteorder != "little":
        raise NativeKernelUnavailable(
            "the native kernel's wire codec requires a little-endian host"
        )
    source = Path(__file__).with_name("_kernel.c")
    try:
        text = source.read_text(encoding="utf-8")
    except OSError as error:
        raise NativeKernelUnavailable(f"kernel source unreadable: {error}") from error
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    cache = _cache_dir()
    library = cache / f"repro_kernel_{digest}.so"
    if not library.is_file():
        compiler = _find_compiler()
        if compiler is None:
            raise NativeKernelUnavailable(
                "no C compiler found (set $CC or install cc/gcc/clang)"
            )
        try:
            cache.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise NativeKernelUnavailable(f"cannot create cache dir {cache}: {error}") from error
        scratch = cache / f".{library.name}.{os.getpid()}.tmp"
        command = [compiler, *_COMPILE_FLAGS, str(source), "-o", str(scratch), "-lm"]
        try:
            result = subprocess.run(
                command, capture_output=True, text=True, timeout=120, check=False
            )
        except (OSError, subprocess.TimeoutExpired) as error:
            raise NativeKernelUnavailable(f"kernel compilation failed to run: {error}") from error
        if result.returncode != 0:
            tail = (result.stderr or result.stdout or "").strip().splitlines()[-3:]
            raise NativeKernelUnavailable(
                "kernel compilation failed: " + " | ".join(tail or ["(no output)"])
            )
        os.replace(scratch, library)  # atomic publish for concurrent processes
    try:
        lib = ctypes.CDLL(str(library))
    except OSError as error:
        raise NativeKernelUnavailable(f"compiled kernel failed to load: {error}") from error
    _declare(lib)
    return lib


def _declare(lib: ctypes.CDLL) -> None:
    """Attach ctypes signatures so argument marshalling is explicit."""
    p = ctypes.c_void_p
    i64 = ctypes.c_int64
    lib.repro_compute_keys.argtypes = [
        p, p, i64, ctypes.c_int32, ctypes.c_double, ctypes.c_double,
        ctypes.c_double, p, p, p,
    ]
    lib.repro_compute_keys.restype = None
    lib.repro_bin_select.argtypes = [p, p, ctypes.c_int8, i64, p, i64, i64, p]
    lib.repro_bin_select.restype = None
    lib.repro_group_key_ranges.argtypes = [p, p, i64, p, p]
    lib.repro_group_key_ranges.restype = None
    lib.repro_bin_grouped.argtypes = [p, p, i64, p, p, p]
    lib.repro_bin_grouped.restype = None
    lib.repro_encode_pairs.argtypes = [p, p, i64, p]
    lib.repro_encode_pairs.restype = i64
    lib.repro_decode_pairs.argtypes = [p, i64, i64, i64, p, p]
    lib.repro_decode_pairs.restype = i64
    lib.repro_pairwise_sum.argtypes = [p, i64]
    lib.repro_pairwise_sum.restype = ctypes.c_double
    lib.repro_encode_frame_columns.argtypes = [i64, p, p, p, p, p, p, p, p, p]
    lib.repro_encode_frame_columns.restype = i64
    lib.repro_decode_frame_columns.argtypes = [p, i64, i64, i64, p, i64, i64, p, p, p, p, p, p, p]
    lib.repro_decode_frame_columns.restype = i64
    lib.repro_fill_frame_windows.argtypes = [i64, p, p, p, p]
    lib.repro_fill_frame_windows.restype = None
    lib.repro_merge_windows.argtypes = [i64, p, p, p, p]
    lib.repro_merge_windows.restype = i64
    lib.repro_move_windows.argtypes = [i64, p, p, p, p, p, p]
    lib.repro_move_windows.restype = i64


def _ptr(array: Optional["np.ndarray"]):
    return None if array is None else ctypes.c_void_p(array.ctypes.data)


_FLOAT64 = np.dtype(np.float64)


def _checked_pairs(targets, pairs, sources):
    """``(target windows, pairs, source addresses, source buffers)`` for a
    bulk-merge pass, every slice the pass may touch checked; the buffers
    must stay referenced while the pass runs."""
    count = len(targets)
    pairs = np.ascontiguousarray(pairs, dtype=np.int64)
    if pairs.shape != (count, MERGE_PAIR_COLUMNS):
        raise ValueError(f"expected {count} pair rows of {MERGE_PAIR_COLUMNS} columns")
    buffers = [np.ascontiguousarray(source, dtype=np.float64) for source in sources]
    if any(buffer.ndim != 1 for buffer in buffers):
        raise ValueError("source buffers must be one-dimensional")
    # The last three columns: each source window's buffer, first cell and size.
    named = pairs[:, -3]
    if count and ((named < 0) | (named >= len(buffers))).any():
        raise ValueError("a source window names no source buffer")
    starts = pairs[:, -2]
    ends = starts + pairs[:, -1]
    lengths = np.array([buffer.size for buffer in buffers], dtype=np.int64)
    if count and ((starts < 0) | (ends < starts) | (ends > lengths[named])).any():
        raise ValueError("a source window lies outside its source buffer")
    windows = _writable_windows(targets)
    addresses = np.array([buffer.ctypes.data for buffer in buffers], dtype=np.int64)
    return windows, pairs, addresses, buffers


def _writable_windows(targets: Sequence["np.ndarray"]) -> "np.ndarray":
    """``(address, cell count)`` rows of store bins that native code may add into.

    ``ctypes.c_char.from_buffer`` refuses a read-only or non-contiguous
    buffer, and the dtype is checked here.
    """
    for dtype in {bins.dtype for bins in targets}:
        if dtype != _FLOAT64:
            raise ValueError(f"store bins must be float64, got {dtype}")
    addressof = ctypes.addressof
    from_buffer = ctypes.c_char.from_buffer
    addresses = [addressof(from_buffer(bins)) for bins in targets]
    sizes = [bins.size for bins in targets]
    return np.array(addresses + sizes, dtype=np.int64).reshape(2, -1).T.copy()


class NativeSignSplit(SignSplit):
    """Sign split backed by the fused C key pass (full keys + sign flags)."""

    __slots__ = ("keys_full", "flags", "_stats", "_masks", "_keys")

    def __init__(self, values, keys, flags, stats) -> None:
        super().__init__(values, int(stats[0]), int(stats[1]))
        self.keys_full = keys
        self.flags = flags
        self._stats = stats
        self._masks: dict = {}
        self._keys: dict = {}

    def mask_for(self, sign: int) -> "np.ndarray":
        """Boolean mask derived lazily from the C pass's sign flags."""
        mask = self._masks.get(sign)
        if mask is None:
            mask = self.flags == sign
            self._masks[sign] = mask
        return mask

    def keys_for(self, sign: int) -> "np.ndarray":
        """Compressed keys, materialized lazily from the full key array."""
        keys = self._keys.get(sign)
        if keys is None:
            keys = self.keys_full[self.mask_for(sign)]
            self._keys[sign] = keys
        return keys

    def key_range(self, sign: int) -> Tuple[int, int]:
        """Per-sign key extrema tracked by the C pass — no extra reduction."""
        if sign > 0:
            return int(self._stats[2]), int(self._stats[3])
        return int(self._stats[4]), int(self._stats[5])


class FrameColumns(NamedTuple):
    """One chunk of frame entries as the C decode pass returns them.

    The columns are flat Python lists, row after row, so the entry builder
    reads them without NumPy scalar overhead:

    * ``ints`` — per entry: key start, key end (the entry's series-key bytes
      in the payload), mapping code, sketch collapse count;
    * ``floats`` — per entry: accuracy, offset, initial accuracy, zero
      count, count, sum, min, max; ``offset_bits`` holds each offset's
      IEEE-754 bit pattern;
    * ``stores`` — per store, positive store first: code, bin limit (the
      decoded store's, defaults applied), collapse count, first pair, pair
      count, window start key, window size, collapsed flag, positive cells,
      first window cell;
    * ``totals`` — each store's ``float(counts.sum())``;
    * ``keys`` / ``counts`` — every store's buckets end to end;
    * ``cells`` — the dense stores' windows end to end, already binned.
    """

    end: int
    ints: List[int]
    floats: List[float]
    offset_bits: List[int]
    stores: List[int]
    totals: List[float]
    keys: "np.ndarray"
    counts: "np.ndarray"
    cells: "np.ndarray"


class NativeBackend:
    """Kernel backend dispatching the inner loops to the compiled library.

    Mappings advertise their kernel form through
    ``KeyMapping._kernel_transform``; a mapping without one (a user subclass,
    say) is transparently delegated to the NumPy reference backend, so
    correctness never depends on the C side recognizing the mapping.
    """

    name = "native"
    columnar_frames = True
    window_merges = True

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        self._reference = NumpyBackend()

    def split_keys(self, mapping, values: "np.ndarray") -> SignSplit:
        """Sign-split + key computation in one fused C pass."""
        spec = mapping._kernel_transform()
        if spec is None:
            return self._reference.split_keys(mapping, values)
        mode_name, multiplier, key_offset = spec
        mode = _MODES[mode_name]
        values = np.ascontiguousarray(values, dtype=np.float64)
        logs = None
        if mode == _MODES["log"]:
            # numpy's log, not libm's: they differ in the last ulp on some
            # inputs, and the reference backend's keys come from numpy.
            with np.errstate(divide="ignore"):
                logs = np.log(np.abs(values))
        n = values.size
        keys = np.empty(n, dtype=np.int64)
        flags = np.empty(n, dtype=np.int8)
        stats = np.empty(6, dtype=np.int64)
        self._lib.repro_compute_keys(
            _ptr(values), _ptr(logs), n, mode,
            float(multiplier), float(key_offset), float(mapping.min_possible),
            _ptr(keys), _ptr(flags), _ptr(stats),
        )
        return NativeSignSplit(values, keys, flags, stats)

    def bin_selection(self, selection: Selection, lo: int, hi: int) -> "np.ndarray":
        """Window binning in C; unit-weight selections bin straight from the
        flagged full-batch arrays without materializing masks or compressed
        keys."""
        counts = np.zeros(hi - lo + 1, dtype=np.float64)
        split = selection.split
        if selection.weights is None and isinstance(split, NativeSignSplit):
            self._lib.repro_bin_select(
                _ptr(split.keys_full), _ptr(split.flags),
                ctypes.c_int8(selection.sign), split.size,
                None, lo, hi, _ptr(counts),
            )
            return counts
        keys = np.ascontiguousarray(selection.keys, dtype=np.int64)
        weights = selection.weights
        if weights is not None:
            weights = np.ascontiguousarray(weights, dtype=np.float64)
        self._lib.repro_bin_select(
            _ptr(keys), None, ctypes.c_int8(0), keys.size,
            _ptr(weights), lo, hi, _ptr(counts),
        )
        return counts

    def group_key_ranges(
        self, group_indices: "np.ndarray", keys: "np.ndarray", num_groups: int
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """Per-group key extrema in one C pass."""
        group_indices = np.ascontiguousarray(group_indices, dtype=np.int64)
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        min_keys = np.full(num_groups, np.iinfo(np.int64).max, dtype=np.int64)
        max_keys = np.full(num_groups, np.iinfo(np.int64).min, dtype=np.int64)
        self._lib.repro_group_key_ranges(
            _ptr(group_indices), _ptr(keys), keys.size, _ptr(min_keys), _ptr(max_keys)
        )
        return min_keys, max_keys

    def bin_grouped(
        self,
        group_indices: "np.ndarray",
        keys: "np.ndarray",
        weights,
        row_bases: "np.ndarray",
        num_cells: int,
        scratch=None,
    ) -> "np.ndarray":
        """Grouped binning in C — no flat-index temporary at all, so the
        ``scratch`` buffer is simply unused here (results are identical)."""
        group_indices = np.ascontiguousarray(group_indices, dtype=np.int64)
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        row_bases = np.ascontiguousarray(row_bases, dtype=np.int64)
        if weights is not None:
            weights = np.ascontiguousarray(weights, dtype=np.float64)
        cells = np.zeros(num_cells, dtype=np.float64)
        self._lib.repro_bin_grouped(
            _ptr(group_indices), _ptr(keys), keys.size,
            _ptr(weights), _ptr(row_bases), _ptr(cells),
        )
        return cells

    def encode_bucket_pairs(self, deltas: "np.ndarray", counts: "np.ndarray") -> bytes:
        """Varint/zigzag bucket encoding in C; byte-identical to the loop."""
        deltas = np.ascontiguousarray(deltas, dtype=np.int64)
        counts = np.ascontiguousarray(counts, dtype=np.float64)
        out = np.empty(deltas.size * _MAX_PAIR_BYTES, dtype=np.uint8)
        written = self._lib.repro_encode_pairs(
            _ptr(deltas), _ptr(counts), deltas.size, _ptr(out)
        )
        return out[: int(written)].tobytes()

    def decode_bucket_pairs(self, reader, num_buckets: int):
        """Varint/zigzag bucket decoding in C.

        Any anomaly (truncation, over-long varint, delta outside ``int64``)
        makes the C pass bail out *without* touching the reader, and the
        pure-Python loop re-parses to raise the exact historical exception.
        """
        payload = reader._payload
        buffer = np.frombuffer(payload, dtype=np.uint8)
        deltas = np.empty(num_buckets, dtype=np.int64)
        counts = np.empty(num_buckets, dtype=np.float64)
        end = self._lib.repro_decode_pairs(
            _ptr(buffer), len(payload), reader._offset, num_buckets,
            _ptr(deltas), _ptr(counts),
        )
        if end < 0:
            return self._reference.decode_bucket_pairs(reader, num_buckets)
        reader._offset = int(end)
        return deltas, counts

    def encode_frame_columns(
        self, key_bytes: bytes, key_ends, ints, floats, stores, cells, keys, counts
    ) -> Optional[bytes]:
        """Frame entries from gathered columns in one C pass, or ``None``.

        ``None`` means the C pass met a value it does not encode byte for
        byte (a negative count or code); the caller then encodes with the
        per-sketch loop, which raises the loop's exact error.
        """
        key_ends = np.ascontiguousarray(key_ends, dtype=np.int64)
        ints = np.ascontiguousarray(ints, dtype=np.int64)
        floats = np.ascontiguousarray(floats, dtype=np.float64)
        stores = np.ascontiguousarray(stores, dtype=np.int64)
        cells = np.ascontiguousarray(cells, dtype=np.float64)
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        counts = np.ascontiguousarray(counts, dtype=np.float64)
        entries = key_ends.size
        out = np.empty(
            len(key_bytes) + entries * _MAX_ENTRY_OVERHEAD
            + _MAX_PAIR_BYTES * (cells.size + keys.size),
            dtype=np.uint8,
        )
        written = self._lib.repro_encode_frame_columns(
            entries, key_bytes, _ptr(key_ends), _ptr(ints), _ptr(floats), _ptr(stores),
            _ptr(cells), _ptr(keys), _ptr(counts), _ptr(out),
        )
        if written < 0:
            return None
        return out[:written].tobytes()

    def decode_frame_columns(
        self, payload: bytes, start: int, count: int, budget: "np.ndarray",
        dense_chunk: int, default_bin_limit: int,
    ) -> Optional["FrameColumns"]:
        """Parse ``count`` frame entries from ``payload[start:]`` in C.

        Returns the entries' columns with every dense store's window
        already binned, or ``None`` when the pass met anything it does not
        decode exactly as the per-sketch loop (malformed input included);
        the caller then runs that loop.  ``budget`` is the caller's
        ``[enforced, remaining cells]`` pair, updated in place.
        """
        buffer = np.frombuffer(payload, dtype=np.uint8)
        capacity = (len(payload) - start) // 9 + 1
        ints = np.empty((count, 4), dtype=np.int64)
        floats = np.empty((count, 8), dtype=np.float64)
        stores = np.empty((2 * count, DECODED_STORE_COLUMNS), dtype=np.int64)
        totals = np.empty(2 * count, dtype=np.float64)
        keys = np.empty(capacity, dtype=np.int64)
        counts = np.empty(capacity, dtype=np.float64)
        num_cells = np.zeros(1, dtype=np.int64)
        end = self._lib.repro_decode_frame_columns(
            _ptr(buffer), len(payload), start, count, _ptr(budget), dense_chunk,
            default_bin_limit, _ptr(ints), _ptr(floats), _ptr(stores), _ptr(totals),
            _ptr(keys), _ptr(counts), _ptr(num_cells),
        )
        if end < 0:
            return None
        cells = np.zeros(int(num_cells[0]), dtype=np.float64)
        self._lib.repro_fill_frame_windows(
            2 * count, _ptr(stores), _ptr(keys), _ptr(counts), _ptr(cells)
        )
        # Flat lists, not one list per row: the rows would outlive the
        # whole build and each count toward the garbage collector's passes.
        return FrameColumns(
            end=int(end),
            ints=ints.ravel().tolist(),
            floats=floats.ravel().tolist(),
            offset_bits=floats[:, 1].view(np.int64).tolist(),
            stores=stores.ravel().tolist(),
            totals=totals.tolist(),
            keys=keys,
            counts=counts,
            cells=cells,
        )

    def merge_windows(
        self,
        targets: Sequence["np.ndarray"],
        pairs: "np.ndarray",
        sources: Sequence["np.ndarray"],
    ) -> "np.ndarray":
        """Merge store pairs in one C pass; see :func:`repro.kernel.merge_windows`.

        The pass writes into each target through its address and reads each
        source window from its buffer in ``sources``, so both are checked
        here: every target must be a non-empty ``float64`` array that the
        buffer protocol exports as contiguous and writable (reading the
        address that way takes ~0.4 µs a target on a 2-vCPU host, against
        ~1.4 for ``ndarray.ctypes.data``), every source buffer is read as a
        contiguous ``float64`` array, and every source slice must lie inside
        the buffer it names.
        """
        windows, pairs, addresses, buffers = _checked_pairs(targets, pairs, sources)
        out = np.empty(len(targets), dtype=np.int64)
        self._lib.repro_merge_windows(
            len(targets), _ptr(windows), _ptr(pairs), _ptr(addresses), _ptr(out)
        )
        return out

    def move_windows(
        self,
        targets: Sequence["np.ndarray"],
        pairs: "np.ndarray",
        sources: Sequence["np.ndarray"],
        moves: "np.ndarray",
        arena: "np.ndarray",
    ) -> "np.ndarray":
        """Move-and-merge store pairs in one C pass; see :func:`repro.kernel.move_windows`.

        ``targets``, ``pairs`` and ``sources`` are checked as
        :meth:`merge_windows` checks them, and every pair's arena cells
        (``moves``) must lie inside ``arena``, a contiguous writable
        ``float64`` array.
        """
        windows, pairs, addresses, buffers = _checked_pairs(targets, pairs, sources)
        count = len(targets)
        moves = np.ascontiguousarray(moves, dtype=np.int64)
        if moves.shape != (count, 2):
            raise ValueError(f"expected {count} move rows of 2 columns")
        if arena.dtype != _FLOAT64 or arena.ndim != 1 or not arena.flags.c_contiguous:
            raise ValueError("the arena must be a contiguous one-dimensional float64 array")
        ends = moves[:, 0] + moves[:, 1]
        if count and ((moves < 0).any() or (ends > arena.size).any()):
            raise ValueError("a move's cells lie outside the arena")
        arena_address = ctypes.addressof(ctypes.c_char.from_buffer(arena)) if arena.size else 0
        out = np.empty((count, 4), dtype=np.int64)
        self._lib.repro_move_windows(
            count, _ptr(windows), _ptr(pairs), _ptr(addresses), _ptr(moves),
            ctypes.c_void_p(arena_address), _ptr(out),
        )
        return out

    def pairwise_sum(self, values: "np.ndarray") -> float:
        """``float(values.sum())`` computed by the C pass (self-test hook)."""
        values = np.ascontiguousarray(values, dtype=np.float64)
        return float(self._lib.repro_pairwise_sum(_ptr(values), values.size))

    def encode_proto_bins(self, keys: "np.ndarray", counts: "np.ndarray") -> bytes:
        """DataDog-proto map entries composed around the C varint pass.

        The ``(zigzag key, float64 count)`` pair bytes come from
        :meth:`encode_bucket_pairs` (the C hot loop); the proto tag/length
        framing around them is the same shared composition the reference
        backend uses, so both backends emit identical proto bytes by
        construction.
        """
        from repro.kernel.reference import compose_proto_bins

        keys = np.ascontiguousarray(keys, dtype=np.int64)
        return compose_proto_bins(self.encode_bucket_pairs(keys, counts), keys)


def _self_test(backend: NativeBackend) -> None:
    """Verify the compiled kernel against the NumPy reference at load time.

    Covers all four mapping families, both signs, zeros, denormal-adjacent
    magnitudes, window clipping, grouped binning, a codec round trip, the
    pairwise count totals, a small frame through the columnar codec and a
    few store pairs through the bulk merge.
    A failure raises :class:`NativeKernelUnavailable` so the facade falls
    back to NumPy rather than ever serving non-reference bytes.
    """
    from repro.mapping import (
        CubicallyInterpolatedMapping,
        LinearlyInterpolatedMapping,
        LogarithmicMapping,
        QuadraticallyInterpolatedMapping,
    )
    from repro.serialization.encoding import VarintReader

    reference = NumpyBackend()
    rng = np.random.default_rng(20260808)
    values = np.concatenate([
        rng.uniform(-1e6, 1e6, 512),
        np.array([0.0, 1e-310, -1e-310, 1e300, -1e300, 1.0, -1.0, 0.5, 2.0]),
        10.0 ** rng.uniform(-280, 280, 256) * np.where(rng.random(256) < 0.5, -1.0, 1.0),
    ])
    mappings = [
        LogarithmicMapping(0.01),
        LogarithmicMapping(0.003, offset=7.0),
        LinearlyInterpolatedMapping(0.01),
        QuadraticallyInterpolatedMapping(0.02),
        CubicallyInterpolatedMapping(0.01),
    ]
    for mapping in mappings:
        native_split = backend.split_keys(mapping, values)
        ref_split = reference.split_keys(mapping, values)
        for sign in (1, -1):
            if not np.array_equal(native_split.keys_for(sign), ref_split.keys_for(sign)):
                raise NativeKernelUnavailable(
                    f"self-test: key mismatch for {type(mapping).__name__} sign {sign}"
                )
            if native_split.key_range(sign) != ref_split.key_range(sign):
                raise NativeKernelUnavailable("self-test: key-range mismatch")
            native_sel = native_split.selection(sign)
            ref_sel = ref_split.selection(sign)
            lo, hi = ref_sel.min_key + 3, ref_sel.max_key - 3
            if lo > hi:
                lo, hi = ref_sel.min_key, ref_sel.max_key
            if not np.array_equal(
                backend.bin_selection(native_sel, lo, hi),
                np.asarray(reference.bin_selection(ref_sel, lo, hi), dtype=np.float64),
            ):
                raise NativeKernelUnavailable("self-test: bin_selection mismatch")
    groups = rng.integers(0, 9, 512)
    keys = rng.integers(-50, 50, 512)
    weights = rng.integers(1, 9, 512) / 4.0
    # Group 9 never appears, so its range must stay empty (min > max).
    min_keys, max_keys = backend.group_key_ranges(groups, keys, 10)
    ref_min_keys, ref_max_keys = reference.group_key_ranges(groups, keys, 10)
    if not (np.array_equal(min_keys, ref_min_keys) and np.array_equal(max_keys, ref_max_keys)):
        raise NativeKernelUnavailable("self-test: group_key_ranges mismatch")
    # Group g fills row (g + 1) % 9 of 101 cells: rows need not follow group order.
    bases = ((np.arange(9) + 1) % 9 * 101 + 50).astype(np.int64)
    for w in (None, weights):
        native_cells = backend.bin_grouped(groups, keys, w, bases, 9 * 101)
        ref_cells = reference.bin_grouped(groups, keys, w, bases, 9 * 101)
        if not np.array_equal(native_cells, np.asarray(ref_cells, dtype=np.float64)):
            raise NativeKernelUnavailable("self-test: bin_grouped mismatch")
    deltas = np.concatenate([
        rng.integers(-(2**40), 2**40, 64),
        np.array([0, -1, 1, np.iinfo(np.int64).min, np.iinfo(np.int64).max]),
    ]).astype(np.int64)
    counts = rng.random(deltas.size)
    encoded_native = backend.encode_bucket_pairs(deltas, counts)
    encoded_ref = reference.encode_bucket_pairs(deltas, counts)
    if encoded_native != encoded_ref:
        raise NativeKernelUnavailable("self-test: codec encode mismatch")
    out_deltas, out_counts = backend.decode_bucket_pairs(
        VarintReader(encoded_native), deltas.size
    )
    if not (np.array_equal(out_deltas, deltas) and np.array_equal(out_counts, counts)):
        raise NativeKernelUnavailable("self-test: codec round-trip mismatch")
    for size in (0, 5, 8, 13, 128, 129, 1000):
        weights = rng.random(size) / 3.0
        if backend.pairwise_sum(weights) != float(weights.sum()):
            raise NativeKernelUnavailable("self-test: pairwise sum mismatch")
    _frame_self_test(backend, rng)
    _merge_self_test(backend)


@contextlib.contextmanager
def _serving(backend):
    """Serve :mod:`repro.kernel` calls from ``backend`` meanwhile.

    The self-tests build sketches and run the store and codec code, which
    call the kernel facade; while this backend is still being verified, the
    facade must not try to load it again.
    """
    import repro.kernel as facade

    saved = facade._active
    facade._active = backend
    try:
        yield
    finally:
        facade._active = saved


def _frame_self_test(backend: "NativeBackend", rng) -> None:
    """A small frame through both column passes against the per-sketch loop.

    Every store family, both signs, zeros, fractional weights, collapsed
    windows and an empty sketch: the bytes must equal the loop's, and every
    decoded store must hold the loop's exact window and counters.
    """
    with _serving(NumpyBackend()):
        _check_frame_columns(backend, rng)


def _merge_self_test(backend: "NativeBackend") -> None:
    """A few store pairs through the bulk merge against ``Store.merge``.

    One call mixes accepted and declined pairs of the three dense families:
    windows that fit, an unused top or bottom bin, windows that must grow
    (down or up by chunks, or re-anchored) and collapses with and without
    folding, with fractional weights.  Half the sources are read in place
    as windows of a second buffer.  Every target must end in the state a
    per-pair ``merge`` leaves.
    """
    from repro.store import (
        CollapsingHighestDenseStore,
        CollapsingLowestDenseStore,
        DenseStore,
    )
    from repro.store.grouped import merge_store_pairs

    def build(factory, keys):
        store = factory()
        for key in keys:
            store.add(key, 0.3 + key % 3)
        return store

    # (store factory, target keys, source keys); a store created by one
    # add spans 8 keys around it, so its edge bins start unused.
    dense = functools.partial(DenseStore, chunk_size=8)
    lowest = functools.partial(CollapsingLowestDenseStore, 8, chunk_size=8)
    highest = functools.partial(CollapsingHighestDenseStore, 8, chunk_size=8)
    pairs = [
        (dense, [1, 4, 6], [2, 3]),  # fits
        (dense, [1, 4], [30]),  # grows up
        (dense, [10], [-20, 11]),  # grows down
        (lowest, [2], [3]),  # unused top bin: the window shrinks
        (lowest, [2], [3, 5]),  # the source fills the unused top bin
        (lowest, [2, 5, 9], [-6, 4]),  # collapses
        (lowest, [2, 5, 9], [12]),  # moves up, folding the target's low bins
        (lowest, [5], [-20, 10]),  # moves up, folding only the source's low key
        (highest, [2], [1]),  # unused bottom bin: the window shrinks
        (highest, [2], [-2, 1]),  # the source fills the unused bottom bin
        (highest, [-3, 0, 2], [-3, 1]),  # fits
        (highest, [0, 3, 7], [-3]),  # moves down, folding the target's high bins
    ]
    targets = [build(factory, keys) for factory, keys, _ in pairs]
    expected = [build(factory, keys) for factory, keys, _ in pairs]
    # Each source is a plain dense store: any dense family merges as its window.
    sources = [build(dense, keys) for _, _, keys in pairs]
    # Odd pairs read their source as a window of one shared buffer.
    cells = np.concatenate([source._bins for source in sources[1::2]])
    starts = np.cumsum([0] + [source._bins.size for source in sources[1::2]])
    windows = [
        source if index % 2 == 0 else (
            cells, int(starts[index // 2]), source._bins.size, source._offset,
            source._count, lambda store: store.copy(), source,
        )
        for index, source in enumerate(sources)
    ]
    with _serving(backend):
        merge_store_pairs(targets, windows)
    for target, source in zip(expected, sources):
        target.merge(source)
    if not all(_same_store(got, want) for got, want in zip(targets, expected)):
        raise NativeKernelUnavailable("self-test: bulk merge mismatch")


def _check_frame_columns(backend: "NativeBackend", rng) -> None:
    from repro.core import (
        DDSketch,
        LogUnboundedDenseDDSketch,
        SparseDDSketch,
        UDDSketch,
    )
    from repro.registry.series import SeriesKey
    from repro.serialization import frame

    values = np.concatenate([rng.lognormal(0.0, 2.0, 64), -rng.lognormal(0.0, 1.0, 16), [0.0]])
    # Irregular weights, so the stores' count totals depend on summation order.
    weights = rng.random(values.size) * 3.0 + 0.1
    sketches = [
        DDSketch(0.02),
        DDSketch(0.02, bin_limit=6),
        LogUnboundedDenseDDSketch(0.02),
        SparseDDSketch(0.02),
        UDDSketch(0.02, bin_limit=8),
    ]
    for sketch in sketches:
        sketch.add_batch(values, weights)
    sketches.append(DDSketch(0.02))
    entries = [
        (SeriesKey("self.test", {"family": str(index)}), sketch)
        for index, sketch in enumerate(sketches)
    ]
    body = frame._encode_entries(entries)
    if frame._encode_columns(entries, backend.encode_frame_columns) != body:
        raise NativeKernelUnavailable("self-test: frame encode mismatch")
    payload = frame._MAGIC + bytes((3, len(entries))) + body
    decoded = frame._decode_columns(payload, None, None, backend.decode_frame_columns)
    expected = frame._decode_entries(payload, None, None)
    if decoded is None or [key for key, _ in decoded] != [key for key, _ in expected]:
        raise NativeKernelUnavailable("self-test: frame decode mismatch")
    for (_, got), (_, want) in zip(decoded, expected):
        if type(got) is not type(want) or vars(got).keys() != vars(want).keys():
            raise NativeKernelUnavailable("self-test: decoded sketch mismatch")
        for name, value in vars(want).items():
            if name in ("_store", "_negative_store"):
                if not _same_store(getattr(got, name), value):
                    raise NativeKernelUnavailable("self-test: decoded store mismatch")
            elif getattr(got, name) != value:
                raise NativeKernelUnavailable(f"self-test: decoded {name} mismatch")


def _same_store(got, want) -> bool:
    """Same type and the same state, bins compared cell for cell."""
    if type(got) is not type(want) or vars(got).keys() != vars(want).keys():
        return False
    for name, value in vars(want).items():
        other = getattr(got, name)
        if isinstance(value, np.ndarray):
            if not np.array_equal(other, value):
                return False
        elif other != value:
            return False
    return True


def load_native_backend() -> NativeBackend:
    """Compile/load/self-test the native backend (cached per process).

    Raises :class:`NativeKernelUnavailable` with a human-readable reason
    when the backend cannot be provided; the reason is surfaced through
    :func:`repro.kernel.backend_info` and the ``--version`` diagnostics.
    """
    global _LOAD_RESULT
    if _LOAD_RESULT is None:
        try:
            backend = NativeBackend(_compile_and_load())
            _self_test(backend)
            _LOAD_RESULT = (backend, None)
        except NativeKernelUnavailable as error:
            _LOAD_RESULT = (None, str(error))
        except Exception as error:  # defensive: never break ingest over perf
            _LOAD_RESULT = (None, f"unexpected native-kernel failure: {error!r}")
    backend, reason = _LOAD_RESULT
    if backend is None:
        raise NativeKernelUnavailable(reason or "native kernel unavailable")
    return backend


def availability() -> Tuple[bool, Optional[str]]:
    """Return ``(available, reason_if_not)`` without raising."""
    try:
        load_native_backend()
        return True, None
    except NativeKernelUnavailable as error:
        return False, str(error)
