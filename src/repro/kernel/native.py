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
from operator import attrgetter
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

#: Columns of one fold group's head row (``FH_COLS`` in ``_kernel.c``).
FOLD_HEAD_COLUMNS = 5

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
    lib.repro_fold_windows.argtypes = [i64, p, p, p, p, p, i64, p, i64, p, p]
    lib.repro_fold_windows.restype = i64
    lib.repro_used_edges.argtypes = [i64, p, p, p, p]
    lib.repro_used_edges.restype = None
    lib.repro_merge_rows.argtypes = [i64, p, p, p, p, i64, i64, p, i64, p, p, p, p, p, i64, p]
    lib.repro_merge_rows.restype = i64
    lib.repro_merge_entries.argtypes = [i64, p, p, p, p, i64, p, i64, p, p, p, p, p, p, i64, p]
    lib.repro_merge_entries.restype = i64
    lib.repro_fold_scalars.argtypes = [i64, p, p, i64, p, p, p]
    lib.repro_fold_scalars.restype = None


def _ptr(array: Optional["np.ndarray"]):
    return None if array is None else ctypes.c_void_p(array.ctypes.data)


_FLOAT64 = np.dtype(np.float64)


def _checked_pairs(windows: "np.ndarray", pairs, sources):
    """``(pairs, source addresses, source buffers)`` for a bulk-merge pass
    into the targets ``windows`` (``(address, cell count)`` rows), every
    source slice the pass may read checked; the buffers must stay
    referenced while the pass runs."""
    count = len(windows)
    pairs = np.ascontiguousarray(pairs, dtype=np.int64)
    if pairs.shape != (count, MERGE_PAIR_COLUMNS):
        raise ValueError(f"expected {count} pair rows of {MERGE_PAIR_COLUMNS} columns")
    buffers = [np.ascontiguousarray(source, dtype=np.float64) for source in sources]
    if any(buffer.ndim != 1 for buffer in buffers):
        raise ValueError("source buffers must be one-dimensional")
    if count:
        # The last three columns: each source window's buffer, first cell and size.
        named, starts, sizes = pairs[:, -3:].T
        if named.min() < 0 or named.max() >= len(buffers):
            raise ValueError("a source window names no source buffer")
        lengths = np.array([buffer.size for buffer in buffers], dtype=np.int64)
        if starts.min() < 0 or sizes.min() < 0 or (starts + sizes > lengths[named]).any():
            raise ValueError("a source window lies outside its source buffer")
    addresses = np.array([buffer.ctypes.data for buffer in buffers], dtype=np.int64)
    return pairs, addresses, buffers


#: Columns of a decoded store row (FrameColumns.stores) locating its window.
_CELL_SIZE, _CELL_START = 6, 9


def _check_rows(columns, counts, count_column, cells, tail, scratch, rows, signs) -> None:
    """Refuse bucket row arrays a row pass cannot safely address: each must
    be a writable, contiguous array of its dtype and shape, every target
    store must exist, and its window lie in the cells in use."""
    for name, array, dtype, ndim in (
        ("columns", columns, np.int64, 3), ("counts", counts, np.float64, 2),
        ("cells", cells, np.float64, 1), ("tail", tail, np.int64, 1),
        ("scratch", scratch, np.float64, 1),
    ):
        if array.dtype != dtype or array.ndim != ndim or not array.flags.c_contiguous:
            raise ValueError(f"{name} must be a contiguous {ndim}-d {np.dtype(dtype)} array")
        if not array.flags.writeable:
            raise ValueError(f"{name} must be writable")
    if columns.shape[1:] != (2, 8) or count_column + 2 > counts.shape[1] or tail.shape != (2,):
        raise ValueError("expected row columns of two stores by 8, two counts and a tail pair")
    used = int(tail[0])
    if not 0 <= used <= cells.size:
        raise ValueError("the tail lies outside the cells")
    if len(rows):
        if rows.min() < 0 or rows.max() >= min(len(columns), len(counts)):
            raise ValueError("a target names no row")
        if signs.min() < 0 or signs.max() > 1:
            raise ValueError("a target names no store")
        places = columns[rows, signs, 3:5]
        if places.min() < 0 or (places[:, 0] + places[:, 1]).max() > used:
            raise ValueError("a target window lies outside the cells in use")


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


def _readable_windows(windows: Sequence["np.ndarray"]) -> Tuple["np.ndarray", "np.ndarray"]:
    """``(sizes, addresses)`` of store bins that native code may read in place.

    Store bins are one-dimensional, contiguous, writable ``float64``
    arrays; the buffer protocol read refuses any other, and an empty window
    has address 0.
    """
    dtypes = set(map(_DTYPE, windows))
    dimensions = set(map(_NDIM, windows))
    if dtypes - {_FLOAT64} or dimensions - {1}:
        raise ValueError(
            f"store bins must be one-dimensional float64, got {sorted(dimensions)}-d {dtypes}"
        )
    addressof = ctypes.addressof
    from_buffer = ctypes.c_char.from_buffer
    count = len(windows)
    sizes = np.fromiter(map(len, windows), dtype=np.int64, count=count)
    if sizes.all():
        addresses = list(map(addressof, map(from_buffer, windows)))
    else:
        addresses = [addressof(from_buffer(bins)) if bins.size else 0 for bins in windows]
    return sizes, np.array(addresses, dtype=np.int64)


_DTYPE = attrgetter("dtype")
_NDIM = attrgetter("ndim")


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
    * ``cells`` — the dense stores' windows end to end, already binned;
    * ``float_table``, ``store_table`` and ``total_table`` — ``floats``,
      ``stores`` and ``totals`` as the arrays they were read from (one row
      per entry, per store, per store), for column-wise readers.
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
    float_table: "np.ndarray"
    store_table: "np.ndarray"
    total_table: "np.ndarray"


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
        per-sketch loop, which raises the loop's exact error.  A store whose
        window or buckets lie outside ``cells`` or ``keys``/``counts`` is
        refused with ``ValueError``.
        """
        key_ends = np.ascontiguousarray(key_ends, dtype=np.int64)
        ints = np.ascontiguousarray(ints, dtype=np.int64)
        floats = np.ascontiguousarray(floats, dtype=np.float64)
        stores = np.ascontiguousarray(stores, dtype=np.int64)
        cells = np.ascontiguousarray(cells, dtype=np.float64)
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        counts = np.ascontiguousarray(counts, dtype=np.float64)
        entries = key_ends.size
        # The pass reads each store's window from `cells` (its buckets from
        # `keys`/`counts`) at its first cell and length, unchecked.
        table = stores.reshape(-1, 7)
        firsts, lengths = table[:, 5], table[:, 6]
        limits = np.where(table[:, 3] != 0, cells.size, min(keys.size, counts.size))
        if table.size and ((firsts < 0) | (lengths < 0) | (firsts + lengths > limits)).any():
            raise ValueError("a store's cells or buckets lie outside their buffer")
        # Each store writes at most one pair per cell or bucket it lists.
        listed = int(lengths.sum())
        out = np.empty(
            len(key_bytes) + entries * _MAX_ENTRY_OVERHEAD + _MAX_PAIR_BYTES * listed,
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
            float_table=floats,
            store_table=stores,
            total_table=totals,
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
        windows = _writable_windows(targets)
        pairs, addresses, buffers = _checked_pairs(windows, pairs, sources)
        out = np.empty(len(windows), dtype=np.int64)
        self._lib.repro_merge_windows(
            len(windows), _ptr(windows), _ptr(pairs), _ptr(addresses), _ptr(out)
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
        return self._move(_writable_windows(targets), pairs, sources, moves, arena)

    def merge_rows(
        self,
        columns: "np.ndarray",
        counts: "np.ndarray",
        count_column: int,
        cells: "np.ndarray",
        tail: "np.ndarray",
        rows: "np.ndarray",
        signs: "np.ndarray",
        sources: "np.ndarray",
        totals: "np.ndarray",
        source_cells: "np.ndarray",
        scratch: "np.ndarray",
    ) -> "np.ndarray":
        """Merge store windows into bucket rows in one C pass; see
        :func:`repro.kernel.merge_rows`.

        The pass reads and writes the row columns, the counts, the cells and
        the scratch through their addresses, so each must be a writable,
        contiguous array of its dtype; every target's window must lie in
        the cells in use and every source's in ``source_cells``.
        """
        count = len(rows)
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        signs = np.ascontiguousarray(signs, dtype=np.int64)
        sources = np.ascontiguousarray(sources, dtype=np.int64)
        totals = np.ascontiguousarray(totals, dtype=np.float64)
        source_cells = np.ascontiguousarray(source_cells, dtype=np.float64)
        if (signs.shape, sources.shape, totals.shape) != ((count,), (count, 3), (count,)):
            raise ValueError(f"expected {count} signs, source rows and totals")
        _check_rows(columns, counts, count_column, cells, tail, scratch, rows, signs)
        if count and (
            sources[:, 1:].min() < 0 or (sources[:, 1] + sources[:, 2]).max() > source_cells.size
        ):
            raise ValueError("a source window lies outside its cells")
        left = np.empty(count, dtype=np.int64)
        self._lib.repro_merge_rows(
            count, _ptr(rows), _ptr(signs), _ptr(columns), _ptr(counts), counts.shape[1],
            count_column, _ptr(cells), cells.size, _ptr(tail), _ptr(sources), _ptr(totals),
            _ptr(source_cells), _ptr(scratch), scratch.size, _ptr(left),
        )
        return left

    def merge_entries(
        self,
        columns: "np.ndarray",
        floats: "np.ndarray",
        cells: "np.ndarray",
        tail: "np.ndarray",
        entries: "np.ndarray",
        rows: "np.ndarray",
        summaries: "np.ndarray",
        stores: "np.ndarray",
        totals: "np.ndarray",
        source_cells: "np.ndarray",
        scratch: "np.ndarray",
    ) -> "np.ndarray":
        """Fold decoded frame entries into bucket rows in one C pass; see
        :func:`repro.kernel.merge_entries`.  Checked as :meth:`merge_rows`
        checks its arguments, every entry's store windows inside
        ``source_cells``."""
        count = len(rows)
        entries = np.ascontiguousarray(entries, dtype=np.int64)
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        summaries = np.ascontiguousarray(summaries, dtype=np.float64)
        stores = np.ascontiguousarray(stores, dtype=np.int64)
        totals = np.ascontiguousarray(totals, dtype=np.float64)
        source_cells = np.ascontiguousarray(source_cells, dtype=np.float64)
        chunk = len(summaries)
        if (
            entries.shape != (count,) or summaries.shape[1:] != (8,)
            or stores.shape != (2 * chunk, DECODED_STORE_COLUMNS) or totals.shape != (2 * chunk,)
        ):
            raise ValueError(f"expected {count} entries and a chunk's entry and store columns")
        _check_rows(columns, floats, 5, cells, tail, scratch, np.repeat(rows, 2),
                    np.tile(np.arange(2), count))
        if count:
            if entries.min() < 0 or entries.max() >= chunk:
                raise ValueError("an entry names no decoded entry")
            windows = stores.reshape(chunk, 2, -1)[entries][:, :, [_CELL_START, _CELL_SIZE]]
            if windows.min() < 0 or windows.sum(axis=2).max() > source_cells.size:
                raise ValueError("a source window lies outside its cells")
        status = np.empty((count, 2), dtype=np.int64)
        self._lib.repro_merge_entries(
            count, _ptr(entries), _ptr(rows), _ptr(columns), _ptr(floats), floats.shape[1],
            _ptr(cells), cells.size, _ptr(tail), _ptr(summaries), _ptr(stores), _ptr(totals),
            _ptr(source_cells), _ptr(scratch), scratch.size, _ptr(status),
        )
        return status

    def _move(self, windows: "np.ndarray", pairs, sources, moves, arena):
        pairs, addresses, buffers = _checked_pairs(windows, pairs, sources)
        count = len(windows)
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

    def fold_windows(
        self,
        ends: Sequence[int],
        heads: Sequence[int],
        offsets: "np.ndarray",
        windows: Sequence["np.ndarray"],
        counts: Sequence[float],
        total_cells: int,
        group_cells: int,
    ):
        """Fold groups of store windows in one C pass; see :func:`repro.kernel.fold_windows`.

        The pass reads each window in place through its address, so the
        windows are checked as store bins (contiguous ``float64``), and the
        groups must split the windows into non-empty runs.
        """
        count = len(windows)
        table = np.empty((count, 3), dtype=np.int64)
        table[:, 0] = offsets if len(offsets) == count else 0
        table[:, 1], table[:, 2] = _readable_windows(windows)
        return self._fold(ends, heads, table, len(offsets), counts, total_cells, group_cells)

    def fold_rows(
        self,
        ends: Sequence[int],
        heads: Sequence[int],
        rows: "np.ndarray",
        buffers: Sequence["np.ndarray"],
        counts: Sequence[float],
        total_cells: int,
        group_cells: int,
    ):
        """:meth:`fold_windows` over windows inside buffers; see :func:`repro.kernel.fold_rows`.

        Every window must lie inside the buffer it names, each buffer being
        a one-dimensional, contiguous, writable ``float64`` array.
        """
        rows = np.ascontiguousarray(rows, dtype=np.int64).reshape(-1, 4)
        offsets, named, firsts, sizes = rows.T
        if rows.size and ((named < 0) | (named >= len(buffers))).any():
            raise ValueError("a window names no buffer")
        bases = np.zeros(len(buffers), dtype=np.int64)
        lengths = np.zeros(len(buffers), dtype=np.int64)
        for index, buffer in enumerate(buffers):
            if buffer.dtype != _FLOAT64 or buffer.ndim != 1:
                raise ValueError("buffers must be one-dimensional float64 arrays")
            lengths[index] = buffer.size
            if buffer.size:
                bases[index] = ctypes.addressof(ctypes.c_char.from_buffer(buffer))
        if rows.size and ((firsts < 0) | (sizes < 0) | (firsts + sizes > lengths[named])).any():
            raise ValueError("a window lies outside its buffer")
        table = np.empty((len(rows), 3), dtype=np.int64)
        table[:, 0] = offsets
        table[:, 1] = sizes
        table[:, 2] = np.where(sizes > 0, bases[named] + 8 * firsts, 0)
        return self._fold(ends, heads, table, len(rows), counts, total_cells, group_cells)

    def _fold(self, ends, heads, table, offsets, counts, total_cells, group_cells):
        """The C fold over ``(offset, size, address)`` window rows; ``offsets``
        is how many window offsets the caller gave."""
        count = len(table)
        ends = np.ascontiguousarray(ends, dtype=np.int64)
        groups = ends.size
        if not groups or int(ends[-1]) != count or (np.diff(ends, prepend=0) <= 0).any():
            raise ValueError(f"the groups must split the {count} windows into non-empty runs")
        heads = np.ascontiguousarray(heads, dtype=np.int64)
        counts = np.ascontiguousarray(counts, dtype=np.float64)
        if heads.size != groups * FOLD_HEAD_COLUMNS or not offsets == counts.size == count:
            raise ValueError(f"expected {groups} head rows and {count} window offsets and counts")
        total = np.empty(total_cells)
        group = np.empty(group_cells)
        out = np.empty(4, dtype=np.int64)
        total_count = np.empty(1)
        status = self._lib.repro_fold_windows(
            groups, _ptr(ends), _ptr(heads), _ptr(table), _ptr(counts),
            _ptr(total), total_cells, _ptr(group), group_cells, _ptr(out), _ptr(total_count),
        )
        if status < 0:
            return None
        first, size, positive, collapsed = out.tolist()
        return total[:size].copy(), first, positive, bool(collapsed), float(total_count[0])

    def fold_scalars(self, ends: "np.ndarray", scalars: "np.ndarray"):
        """The copy-first fold's scalars in one C pass; see :func:`repro.kernel.fold_scalars`."""
        ends = np.ascontiguousarray(ends, dtype=np.int64)
        if scalars.dtype != _FLOAT64 or scalars.ndim != 2 or scalars.shape[1] < 5:
            raise ValueError("scalars must be a float64 array of at least five columns")
        if not scalars.flags.c_contiguous:
            scalars = np.ascontiguousarray(scalars)
        count = len(scalars)
        if not ends.size or int(ends[-1]) != count or (np.diff(ends, prepend=0) <= 0).any():
            raise ValueError(f"the groups must split the {count} rows into non-empty runs")
        take = np.empty(count, dtype=np.int8)
        merged = np.empty(ends.size, dtype=np.int8)
        total = np.empty(5)
        self._lib.repro_fold_scalars(
            ends.size, _ptr(ends), _ptr(scalars), scalars.shape[1], _ptr(take), _ptr(merged),
            _ptr(total),
        )
        return take.view(bool), merged.view(bool), total.tolist()

    def used_edges(self, windows: Sequence["np.ndarray"]) -> Tuple["np.ndarray", "np.ndarray"]:
        """First and last used cells of store windows in one C pass; see
        :func:`repro.kernel.used_edges`.

        The pass reads each window in place through its address, so the
        windows are checked as store bins (contiguous ``float64``).
        """
        count = len(windows)
        sizes, addresses = _readable_windows(windows)
        first = np.empty(count, dtype=np.int64)
        last = np.empty(count, dtype=np.int64)
        self._lib.repro_used_edges(count, _ptr(sizes), _ptr(addresses), _ptr(first), _ptr(last))
        return first, last

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
    pairwise count totals, a small frame through the columnar codec, a
    few store pairs through the bulk merge and the row passes, a small fold
    and its scalars, and a few windows through the used-edge scan.
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
    _entries_self_test(backend)
    _fold_self_test(backend)
    _edges_self_test(backend)


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
    # The same pairs as rows of one column store through the row pass.
    kinds = {DenseStore: 0, CollapsingLowestDenseStore: 1, CollapsingHighestDenseStore: 2}
    rows = [build(factory, keys) for factory, keys, _ in pairs]
    sizes = np.array([store._bins.size for store in rows])
    columns = np.zeros((len(rows), 2, 8), dtype=np.int64)
    counts = np.zeros((len(rows), 2))
    for index, (store, first) in enumerate(zip(rows, np.cumsum(sizes) - sizes)):
        kind = kinds[type(store)]
        columns[index, 0] = (
            store._offset, kind, store._bin_limit if kind else store._chunk_size, first,
            store._bins.size, store._num_positive, getattr(store, "_is_collapsed", False),
            store._chunk_size,
        )
        counts[index, 0] = store._count
    cells = np.concatenate([store._bins for store in rows] + [np.zeros(32 * len(rows))])
    tail = np.array([sizes.sum(), 0])
    source_sizes = np.array([source._bins.size for source in sources])
    table = np.stack([[source._offset for source in sources],
                      np.cumsum(source_sizes) - source_sizes, source_sizes], axis=1)
    left = backend.merge_rows(
        columns, counts, 0, cells, tail, np.arange(len(rows)), np.zeros(len(rows), dtype=np.int64),
        table, np.array([source._count for source in sources]),
        np.concatenate([source._bins for source in sources]), np.empty(32),
    )
    row_stores = []
    for store, (offset, kind, limit, first, size, positive, collapsed, chunk), count in zip(
        rows, columns[:, 0].tolist(), counts[:, 0].tolist()
    ):
        store._bins, store._offset, store._count = cells[first : first + size].copy(), offset, count
        store._num_positive, store._chunk_size = positive, chunk
        if kind:
            store._bin_limit, store._is_collapsed = limit, bool(collapsed)
        row_stores.append(store)
    with _serving(backend):
        merge_store_pairs(targets, windows)
    for target, source in zip(expected, sources):
        target.merge(source)
    if not all(_same_store(got, want) for got, want in zip(targets, expected)):
        raise NativeKernelUnavailable("self-test: bulk merge mismatch")
    merged = [index for index, code in enumerate(left.tolist()) if code == 0]
    if len(merged) < 8 or not all(
        _same_store(row_stores[index], expected[index]) for index in merged
    ):
        raise NativeKernelUnavailable("self-test: row merge mismatch")


def _entries_self_test(backend: "NativeBackend") -> None:
    """Two decoded entries through the entry pass against the pair pass and
    ``merge_checked_pairs``' scalar rule: one skipped (count 0); one whose
    min ties at -0.0, whose positive store stays and whose negative one
    grows, moving to the tail."""
    columns = np.zeros((2, 2, 8), dtype=np.int64)
    for row in range(2):
        for sign in range(2):  # a plain store of chunk 4 at key 0, one cell used
            columns[row, sign] = (0, 0, 4, 4 * (2 * row + sign), 4, 1, 0, 4)
    floats = np.array([[3.0, 1.0, 5.0, 0.0, 9.0, 1.0, 1.0]] * 2)
    cells = np.zeros(64)
    cells[[0, 4, 8, 12]] = 1.0
    summaries = np.array([
        [0.0, 0.0, 0.0, 0.5, 0.0, 2.0, -1.0, 1.0], [0.0, 0.0, 0.0, 0.5, 3.0, 2.0, -0.0, 12.0],
    ])
    stores = np.zeros((4, DECODED_STORE_COLUMNS), dtype=np.int64)
    stores[:, 5], stores[:, 6], stores[:, _CELL_START] = [1, 1, 2, 6], 1, [0, 1, 2, 3]
    totals, source_cells = np.ones(4), np.ones(4)
    want = [columns.copy(), floats.copy(), cells.copy(), np.array([16, 0])]
    for entry in (0, 1):
        zero, count, total, low, high = summaries[entry, 3:].tolist()
        if count <= 0:
            continue
        scalars = want[1][entry]
        scalars[1] += zero
        scalars[0] += count
        scalars[2] += total
        scalars[3] = low if low < scalars[3] else scalars[3]
        scalars[4] = high if high > scalars[4] else scalars[4]
        for sign in (0, 1):
            store = 2 * entry + sign
            backend.merge_rows(
                want[0], want[1], 5, want[2], want[3], np.array([entry]), np.array([sign]),
                stores[[store]][:, [5, _CELL_START, 6]], totals[[store]], source_cells,
                np.empty(64),
            )
    got = [columns, floats, cells, np.array([16, 0])]
    status = backend.merge_entries(
        *got, np.arange(2), np.arange(2), summaries, stores, totals, source_cells, np.empty(64)
    )
    if status.tolist() != [[0, 0], [0, 0]] or not all(
        a.tobytes() == b.tobytes() for a, b in zip(got, want)
    ) or got[3][1] != 4:
        raise NativeKernelUnavailable("self-test: entry merge mismatch")


def _fold_self_test(backend: "NativeBackend") -> None:
    """Three groups of stores through the fold pass against the copy-first loop.

    Group 0 moves up and collapses; group 1 is one plain dense window,
    merged straight into the total, which folds it onto its low edge;
    group 2 starts from a store whose count drifted to 0 while a bin kept
    weight (the next merge clears it), is folded apart and then merged.
    The weights make key 5 read 0.1 + (0.2 + 0.3), which a flat fold would
    sum as (0.1 + 0.2) + 0.3.  The loop is :meth:`BaseDDSketch.fold`'s, on
    sketches holding these stores.
    """
    from repro.core.ddsketch import BaseDDSketch, _fold_loop
    from repro.mapping import LogarithmicMapping
    from repro.store import CollapsingLowestDenseStore, DenseStore
    from repro.store.grouped import fold_store_groups

    def build(factory, pairs):
        store = factory()
        for key, weight in pairs:
            store.add(key, weight)
        return store

    lowest = functools.partial(CollapsingLowestDenseStore, 8, chunk_size=8)
    dense = functools.partial(DenseStore, chunk_size=8)
    emptied = build(lowest, [(4, 1.0), (3, 2.0**53)])  # the count rounds the 1.0 away
    emptied.remove(3, 2.0**53)
    groups = [
        [build(lowest, [(2, 0.3), (5, 0.1)]), build(lowest, [(9, 0.7)]),
         build(lowest, [(-6, 0.4), (4, 1.3)])],
        [build(dense, [(-30, 0.6), (1, 0.2)])],
        [emptied, build(dense, [(5, 0.2), (9, 0.5)]), build(lowest, [(5, 0.3), (8, 0.9)])],
    ]
    with _serving(backend):
        got = fold_store_groups(
            [store for group in groups for store in group], [3, 4, 7], [True] * 3
        )
    mapping = LogarithmicMapping(0.02)
    sketches = [
        [
            BaseDDSketch._decoded(mapping, store, dense(), 0.0, store.count, 0.0, 0.0, 0.0)
            for store in group
        ]
        for group in groups
    ]
    if got is None or not _same_store(got, _fold_loop(sketches).store):
        raise NativeKernelUnavailable("self-test: fold mismatch")
    # The scalar pass, in the loop's two-level order: a group whose later
    # sketch holds no weight, a -0.0 minimum tie, a group merged without
    # weight and a NaN count taken in.
    scalars = np.array([
        [2.0, 0.5, 3.0, 0.0, 4.0], [0.0, 0.0, 0.0, -1.0, 9.0], [1.5, 0.0, 0.1, -0.0, 4.0],
        [0.0, 0.0, 0.0, np.inf, -np.inf], [np.nan, 0.0, 0.2, -3.0, 3.0],
    ])
    take, merged, total = backend.fold_scalars([3, 5], scalars)
    want = (3.5, 0.5, 3.1, 0.0, 4.0)
    if (take.tolist(), merged.tolist()) != ([1, 0, 1, 1, 1], [1, 0]) or any(
        np.float64(a).tobytes() != np.float64(b).tobytes() for a, b in zip(total, want)
    ):
        raise NativeKernelUnavailable("self-test: scalar fold mismatch")


def _edges_self_test(backend: "NativeBackend") -> None:
    """A few windows through the used-edge scan against ``DenseStore.min_key`` / ``max_key``.

    An empty window, one of zero cells, one positive cell at either end,
    interior zeros, a denormal between a zero and a negative zero, and a
    window read in place inside a larger buffer.  Where the store's reads
    raise, the scan must give -1 for both edges.
    """
    from repro.exceptions import EmptySketchError
    from repro.store import DenseStore

    cells = np.array([0.0, 4.0, 0.0, 0.0, 1.5, 0.0])
    windows = [
        np.zeros(0),
        np.zeros(5),
        np.array([2.5, 0.0, 0.0]),
        np.array([0.0, 0.0, 0.5]),
        np.array([7.0]),
        np.array([0.0, 1.0, 0.0, 0.0, 3.0, 0.0]),
        np.array([0.0, 5e-324, -0.0]),
        cells[2:4],
        cells[1:5],
    ]
    first, last = backend.used_edges(windows)
    for bins, got in zip(windows, zip(first.tolist(), last.tolist())):
        store = DenseStore._decoded(bins, -3, float(bins.sum()), 0, 0, False)
        try:
            want = (store.min_key + 3, store.max_key + 3)
        except EmptySketchError:
            want = (-1, -1)
        if got != want:
            raise NativeKernelUnavailable("self-test: used-edge mismatch")


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
