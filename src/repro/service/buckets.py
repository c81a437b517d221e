"""Columnar interval buckets: one retained window bucket's series as rows.

:class:`~repro.service.ServiceState` keeps the newest interval buckets for
windowed queries.  A bucket holds one series per key pushed in its interval,
and a windowed read folds every selected series over several buckets.  As
sketch objects that fold costs one attribute read per sketch and one buffer
address per store; here a bucket is a small column store instead:

* one ``float64`` **cell buffer** holding every series' store windows, the
  positive store's window then the negative store's, a series after the
  other; a window that must grow moves to the free tail, and the buffer is
  compacted in place once a merge leaves more than one dead cell per eight
  live ones (and more than 16,384);
* one **row** per series: per store its key offset, first cell, cells,
  positive bins, collapsed flag, kind (plain dense, collapsing lowest or
  highest), bin limit (a plain store's chunk size) and chunk size, its
  count, and the sketch's count, zero count, sum, min and max; each row
  also names its mapping and sketch class.

That covers the sketches :meth:`~repro.core.BaseDDSketch.fold`'s native pass
takes: a class keeping the base class's merge and copy, over stores of the
dense families (:data:`~repro.store.grouped.SEGMENT_STORE_TYPES`).  Any other
family (sparse, uniform, UDD) stays a sketch object beside the rows.

A row is, bit for bit, the sketch a bucket of sketch objects would hold: a
new series takes its decoded windows as the frame decoder binned them, and a
merge runs one native pass (:func:`repro.kernel.merge_rows`) that applies the
bulk merge's rules to targets read from the row columns, appends a moved
window at the buffer's tail and updates the columns.  A windowed read
(:func:`fold_series`) builds the fold pass's tables from the row columns and
folds the scalars in one native pass.  Whatever a
pass declines, and everything under the NumPy backend, goes through the
oracle instead: the row is built as a sketch (:meth:`BucketStore.sketch`),
merged with :meth:`~repro.core.BaseDDSketch.merge_checked_pairs` or folded
with :meth:`~repro.core.BaseDDSketch.fold`, and written back.
"""

from __future__ import annotations

import mmap
from itertools import repeat
from operator import attrgetter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import kernel
from repro.core.ddsketch import BaseDDSketch, _plain_fold_class
from repro.registry.series import SeriesKey
from repro.serialization.binary_codec import _MAPPING_CODE, _STORE_CODE
from repro.serialization.frame import (
    FRAME_CHUNK_SERIES,
    DecodedFrame,
    encode_frame,
    frame_bytes,
    read_frame,
)
from repro.store import CollapsingHighestDenseStore, CollapsingLowestDenseStore
from repro.store.base import Store
from repro.store.dense import CHUNK_SIZE, DenseStore
from repro.store.grouped import fold_cells, folded_store

#: Store type of each kind code (the kind codes of the native passes).
_TYPES = (DenseStore, CollapsingLowestDenseStore, CollapsingHighestDenseStore)
_KINDS = {store_type: kind for kind, store_type in enumerate(_TYPES)}

#: Integer columns of each of a row's two stores (positive store first):
#: key offset, kind and bin limit (a plain store's chunk size), the first
#: three columns of a native merge pair, then first cell and cells, its
#: place in the buffer, then positive bins, collapsed flag and chunk size.
OFFSET, KIND, LIMIT, FIRST, SIZE, POSITIVE, COLLAPSED, CHUNK = range(8)
_STORE_INTS = 8

#: Float columns of a row: the sketch's count, zero count, sum, min and max
#: (the order of :func:`repro.kernel.fold_scalars`), then each store's count.
COUNT, ZERO, SUM, MIN, MAX, STORE_COUNT = range(6)
_FLOATS = 7

#: Columns of a decoded store row (:class:`~repro.kernel.native.FrameColumns`).
_CODE, _LIMIT, _LOW, _SIZE, _COLLAPSED, _POSITIVE, _CELL = 0, 1, 5, 6, 7, 8, 9

#: Row kind of each wire store code (-1: not a row family), and the wire
#: code of each kind.
_WINDOW_KIND = np.full(max(_STORE_CODE.values()) + 1, -1, dtype=np.int64)
for _type, _kind in _KINDS.items():
    _WINDOW_KIND[_STORE_CODE[_type]] = _kind
_WIRE_CODES = np.array([_STORE_CODE[store_type] for store_type in _TYPES], dtype=np.int64)

#: Least tail slack, in cells, a buffer grows by.
_MIN_SLACK = 1 << 14

#: Buffers of this many cells or more (1 MiB) are memory maps of their own:
#: growing one remaps it in place, and a dropped one returns its pages at
#: once, where large buffers of growing sizes would leave the heap full of
#: holes.  Smaller ones are plain arrays, reallocated as they grow.
_MAPPED_CELLS = 1 << 17

#: A merge that leaves more than one dead cell per this many live ones (and
#: more than :data:`_MIN_SLACK`) compacts the buffer: dead cells were
#: written once, so they stay resident memory until reused.
_DEAD_SHARE = 8

_SIGNS = np.array([0, 1], dtype=np.int64)
_INT64 = (-(1 << 63), 1 << 63)
_WIRE = attrgetter("_wire")
_ROW_CLASSES: Dict[type, bool] = {}


def _row_class(cls: type) -> bool:
    """Whether a ``cls`` sketch may be a row: what the native fold starts from."""
    plain = _ROW_CLASSES.get(cls)
    if plain is None:
        plain = _ROW_CLASSES[cls] = _plain_fold_class(cls)
    return plain


def _grown(cells: int) -> int:
    """Buffer cells for ``cells`` in use: an eighth more, as tail slack."""
    return cells + max(cells >> 3, _MIN_SLACK)


def _new_buffer(cells: int) -> Tuple[Optional[mmap.mmap], "np.ndarray"]:
    """A buffer of ``cells`` cells: from :data:`_MAPPED_CELLS` on, a private
    anonymous memory map and its ``float64`` view where the platform has
    them, else a plain array."""
    if cells < _MAPPED_CELLS or not hasattr(mmap, "MAP_ANONYMOUS"):
        return None, np.empty(cells)
    # Private: a shared anonymous map could not grow past its first size.
    mapped = mmap.mmap(-1, 8 * cells, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return mapped, np.frombuffer(mapped, dtype=np.float64)


def _gather(source: "np.ndarray", firsts: "np.ndarray", sizes: "np.ndarray") -> "np.ndarray":
    """``source[firsts[i]:firsts[i] + sizes[i]]`` end to end (a view where
    they already lie so)."""
    ends = firsts + sizes
    if not firsts.size:
        return source[:0]
    if (firsts[1:] == ends[:-1]).all():
        return source[int(firsts[0]) : int(ends[-1])]
    return np.concatenate(
        [source[first:end] for first, end in zip(firsts.tolist(), ends.tolist()) if end > first]
        or [source[:0]]
    )


class BucketStore:
    """The series of one retained interval bucket, as rows over one cell buffer.

    Series arrive through :meth:`merge` (after :meth:`check`), in frame
    order; :meth:`from_frame` rebuilds a bucket from :meth:`to_frame`.
    Iterating yields ``(series_key, sketch)`` in sorted key order, each row
    built as a new sketch and each object family's sketch itself.
    """

    def __init__(self) -> None:
        self._index: Dict[bytes, int] = {}  # key frame bytes -> row
        self._keys: List[SeriesKey] = []
        self._mappings: List[Any] = []
        self._classes: List[type] = []
        self._distinct: Dict[int, Any] = {}  # id -> mapping, every mapping a row names
        self._ints = np.zeros((0, 2, _STORE_INTS), dtype=np.int64)
        self._floats = np.zeros((0, _FLOATS))
        # A large buffer is a memory map of its own (_new_buffer).
        self._map: Optional[mmap.mmap] = None
        self._cells = np.zeros(0)
        self._used = 0  # cells taken, live or dead
        self._dead = 0
        self._objects: Dict[SeriesKey, BaseDDSketch] = {}
        self._sorted: Optional[List[Tuple[SeriesKey, Any]]] = None

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._keys) + len(self._objects)

    def __iter__(self) -> Iterator[Tuple[SeriesKey, BaseDDSketch]]:
        """``(key, sketch)`` pairs in sorted key order; rows are built."""
        for key, place in self._order():
            yield key, self.sketch(place) if type(place) is int else place

    def _order(self) -> List[Tuple[SeriesKey, Any]]:
        """Every series in sorted key order: its row, or its sketch object."""
        if self._sorted is None:
            places: List[Tuple[SeriesKey, Any]] = list(zip(self._keys, range(len(self._keys))))
            places += self._objects.items()
            self._sorted = sorted(places, key=lambda place: place[0].sort_key())
        return self._sorted

    @property
    def cells(self) -> Tuple[int, int, int]:
        """``(live, dead, allocated)`` cells of the buffer."""
        return self._used - self._dead, self._dead, self._cells.size

    def sketch(self, row: int) -> BaseDDSketch:
        """Row ``row`` as a new sketch, attribute by attribute as
        :meth:`~repro.core.BaseDDSketch.copy` sets them."""
        count, zero_count, total, minimum, maximum = self._floats[row, :5].tolist()
        cls = self._classes[row]
        sketch = cls.__new__(cls)
        sketch._mapping = self._mappings[row]
        sketch._store = self._store((row, 0))
        sketch._negative_store = self._store((row, 1))
        sketch._zero_count = zero_count
        sketch._min = minimum
        sketch._max = maximum
        sketch._count = count
        sketch._sum = total
        return sketch

    def _store(self, place: Tuple[int, int]) -> Store:
        """Store ``sign`` of row ``row`` (``place``), holding a copy of its window."""
        row, sign = place
        offset, kind, limit, first, size, positive, collapsed, chunk = self._ints[
            row, sign
        ].tolist()
        store_type = _TYPES[kind]
        store = store_type.__new__(store_type)
        store._chunk_size = chunk
        store._bins = self._cells[first : first + size].copy()
        store._offset = offset
        store._count = self._floats[row, STORE_COUNT + sign].item()
        store._num_positive = positive
        if kind:
            store._bin_limit = limit
            store._is_collapsed = bool(collapsed)
        return store

    def _rows_of(self, keys: Sequence[SeriesKey]) -> "np.ndarray":
        """Each key's row, -1 where it has none."""
        return np.fromiter(
            map(self._index.get, map(_WIRE, keys), repeat(-1)), dtype=np.int64, count=len(keys)
        )

    def entries(self) -> DecodedFrame:
        """The bucket as frame entries a bulk merge takes
        (:func:`~repro.registry.merge_entries_into`): rows merge as windows
        read in place from the cell buffer, and each entry's sketch is
        built new (a row) or copied (an object)."""
        return _BucketEntries(self)

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #

    def check(self, frame: DecodedFrame) -> None:
        """Raise what :meth:`merge` would raise for ``frame``; change nothing.

        Each entry of a series the bucket holds is checked as that series'
        sketch would check it (:meth:`~repro.core.BaseDDSketch.check_mergeable`),
        in frame order: a row compares mapping objects first, and builds its
        sketch only where they differ, to compare them as the check does.
        """
        keys = frame.keys
        rows = self._rows_of(keys)
        held = np.flatnonzero(rows >= 0).tolist()
        mappings = self._mappings
        if frame._mappings is not None:
            entry_mappings = frame._mappings
            doubtful = [
                index for index, row in zip(held, rows[held].tolist())
                if entry_mappings[index] is not mappings[row]
            ]
        else:
            doubtful = held
        if self._objects:
            missing = np.flatnonzero(rows < 0).tolist()
            doubtful = sorted(doubtful + [i for i in missing if keys[i] in self._objects])
        for index in doubtful:
            row = int(rows[index])
            if row < 0:
                self._objects[keys[index]].check_mergeable(frame.sketch(index))
                continue
            mapping = mappings[row]
            if frame._mappings is not None:
                other = frame._mappings[index]
            else:
                sketch = frame._sketches[index]
                other = sketch._mapping if isinstance(sketch, BaseDDSketch) else None
            if other is mapping or (other is not None and mapping == other):
                continue
            self.sketch(row).check_mergeable(frame.sketch(index))

    def merge(self, frame: DecodedFrame) -> None:
        """Fold every entry of a checked ``frame`` into this bucket.

        The result is, bit for bit, a bucket of sketch objects taking the
        frame as :func:`~repro.registry.merge_entries_into` takes it, with
        the bucket adopting the entries' sketches: :meth:`check` must pass
        first.  A new series of a row family takes its windows (from the
        decoded columns where the frame has them) into the buffer's tail;
        an object family's sketch is adopted.
        """
        keys = frame.keys
        rows = self._rows_of(keys)
        new = np.flatnonzero(rows < 0).tolist()
        held = np.flatnonzero(rows >= 0)
        if self._objects and new:
            objects = self._objects
            found = [index for index in new if keys[index] in objects]
            if found:
                frame.merge_into([objects[keys[index]] for index in found], found)
                new = [index for index in new if keys[index] not in objects]
        if not held.size:
            oracle: List[int] = []
        elif frame._mappings is not None and kernel.window_merges():
            oracle = self._merge_columns(frame, held, rows[held])
        else:
            oracle = held.tolist()
        if oracle:
            targets = [self.sketch(row) for row in rows[oracle].tolist()]
            frame.merge_into(targets, oracle)
            for row, target in zip(rows[oracle].tolist(), targets):
                self._put(row, target)
        if new:
            self._add(frame, new)
        if self._dead > max((self._used - self._dead) // _DEAD_SHARE, _MIN_SLACK):
            self._compact()

    def _merge_columns(
        self, frame: DecodedFrame, held: "np.ndarray", rows: "np.ndarray"
    ) -> List[int]:
        """Merge the decoded entries ``held`` into their ``rows`` from the
        frame's columns, chunk by chunk; returns the entries left to the
        oracle (those with a store the decoder did not bin as a window)."""
        oracle: List[int] = []
        single = len(frame._chunks) == 1
        chunks = None if single else held // FRAME_CHUNK_SERIES
        for chunk in range(1) if single else range(int(chunks[0]), int(chunks[-1]) + 1):
            if single:
                chosen, local, entry_rows = held, held, rows
            else:
                chosen = chunks == chunk
                local = held[chosen] - chunk * FRAME_CHUNK_SERIES
                entry_rows = rows[chosen]
                chosen = held[chosen]
            if not local.size:
                continue
            columns, builder = frame._chunks[chunk]
            stores = columns.store_table
            kinds = _WINDOW_KIND[stores[:, _CODE]].reshape(-1, 2)[local]
            windows = (kinds >= 0).all(axis=1)
            if not windows.all():
                oracle += chosen[~windows].tolist()
                local, entry_rows = local[windows], entry_rows[windows]
                if not local.size:
                    continue
            # Room for any window a bounded store's move builds; a plain
            # store's that needs more takes the oracle.
            targets = self._ints[entry_rows]
            scratch = np.empty(
                int(targets[:, :, LIMIT].max())
                + 2 * (int(targets[:, :, SIZE].max()) + int(stores[:, _SIZE].max()))
            )
            tail = np.array([self._used, self._dead], dtype=np.int64)
            status = kernel.merge_entries(
                self._ints, self._floats, self._cells, tail, local, entry_rows,
                columns.float_table, stores, columns.total_table, columns.cells, scratch,
            ).ravel()
            self._used, self._dead = tail.tolist()
            # Stores left to the oracle, or moved with no room at the tail.
            pending = np.flatnonzero(status)
            if pending.size:
                self._reserve(-int(status[status < 0].sum()))
                tags = 2 * local[pending >> 1] + (pending & 1)
                self._merge_stores(
                    entry_rows[pending >> 1], pending & 1, stores[tags],
                    columns.total_table[tags], columns.cells, builder.store_at, tags,
                )
        return oracle

    def _merge_stores(self, rows, signs, sources, totals, cells, build, tags) -> None:
        """``Store.merge`` of decoded store windows (``sources`` rows over
        ``cells``, each holding its ``totals``) into store ``signs[i]`` of
        ``rows[i]``, through one :func:`repro.kernel.merge_rows` pass over
        the row columns; the pairs it leaves take the oracle on the built
        source store (``build(tags[i])``)."""
        if not rows.size:
            return
        table = sources[:, [_LOW, _CELL, _SIZE]]
        # Room for any window a bounded store's move builds; a plain store's
        # that needs more takes the oracle.
        sizes = self._ints[rows, signs, SIZE] + table[:, 2]
        scratch = np.empty(int(self._ints[rows, signs, LIMIT].max()) + 2 * int(sizes.max()))
        oracle: List[int] = []
        pending = np.arange(rows.size)
        while pending.size:
            tail = np.array([self._used, self._dead], dtype=np.int64)
            pairs = (rows, signs, table, totals)
            if pending.size < rows.size:
                pairs = (rows[pending], signs[pending], table[pending], totals[pending])
            left = kernel.merge_rows(
                self._ints, self._floats, STORE_COUNT, self._cells, tail, *pairs, cells, scratch
            )
            self._used, self._dead = tail.tolist()
            oracle += pending[left == 1].tolist()
            # Moved windows that found no room at the tail: make it, go again.
            crowded = left < 0
            self._reserve(-int(left[crowded].sum()))
            pending = pending[crowded]
        for index in oracle:
            place = int(rows[index]), int(signs[index])
            store = self._store(place)
            store.merge(build(int(tags[index])))
            self._put_store(place, store)

    def _place(self, rows, signs, source, firsts, sizes) -> None:
        """Install ``source[firsts[i]:firsts[i] + sizes[i]]`` as the window of
        store ``signs[i]`` of ``rows[i]``: where the old window was when it
        fits there, else at the tail."""
        ints = self._ints
        old = ints[rows, signs, SIZE]
        growing = sizes > old
        if growing.any():
            grown = np.flatnonzero(growing)
            added = sizes[grown]
            block = _gather(source, firsts[grown], added)
            self._reserve(block.size)
            tail = self._used
            self._cells[tail : tail + block.size] = block
            ints[rows[grown], signs[grown], FIRST] = tail + np.cumsum(added) - added
            self._used = tail + block.size
            self._dead += int(old[grown].sum())
        kept = np.flatnonzero(~growing)
        if kept.size:
            cells = self._cells
            for row, sign, first, size in zip(
                rows[kept].tolist(), signs[kept].tolist(), firsts[kept].tolist(),
                sizes[kept].tolist(),
            ):
                dest = int(ints[row, sign, FIRST])
                cells[dest : dest + size] = source[first : first + size]
            self._dead += int(old[kept].sum() - sizes[kept].sum())
        ints[rows, signs, SIZE] = sizes

    def _put_store(self, place: Tuple[int, int], store: Store) -> None:
        """Write a store of the row's kind back into store ``sign`` of
        ``row`` (``place``)."""
        row, sign = place
        bins = store._bins
        self._place(
            np.array([row]), np.array([sign]), bins, np.zeros(1, dtype=np.int64),
            np.array([bins.size], dtype=np.int64),
        )
        columns = self._ints[row, sign]
        columns[OFFSET] = store._offset
        columns[POSITIVE] = store._num_positive
        if columns[KIND]:
            columns[COLLAPSED] = store._is_collapsed
        self._floats[row, STORE_COUNT + sign] = store._count

    def _put(self, row: int, sketch: BaseDDSketch) -> None:
        """Write a sketch built from ``row`` (and merged into) back into it."""
        self._floats[row, :5] = (
            sketch._count, sketch._zero_count, sketch._sum, sketch._min, sketch._max
        )
        self._put_store((row, 0), sketch._store)
        self._put_store((row, 1), sketch._negative_store)

    def _add(self, frame: DecodedFrame, indices: List[int]) -> None:
        """New series for ``frame``'s entries ``indices``: rows from the
        decoded columns or the built sketch, objects adopted."""
        if frame._mappings is not None:
            indices = self._add_columns(frame, indices)
        keys = frame.keys
        built = []
        for index in indices:
            sketch = frame.sketch(index)
            row = _row(sketch)
            if row is None:
                self._objects[keys[index]] = sketch
                self._sorted = None
            else:
                built.append((keys[index], sketch, row))
        if not built:
            return
        windows = [window for _, _, (_, _, pair) in built for window in pair]
        sizes = np.array([window.size for window in windows], dtype=np.int64)
        self._add_rows(
            [key for key, _, _ in built],
            [sketch._mapping for _, sketch, _ in built],
            [type(sketch) for _, sketch, _ in built],
            np.array([ints for _, _, (ints, _, _) in built], dtype=np.int64),
            np.array([floats for _, _, (_, floats, _) in built], dtype=np.float64),
            np.concatenate(windows),
            (np.cumsum(sizes) - sizes).reshape(-1, 2),
        )

    def _add_columns(self, frame: DecodedFrame, indices: List[int]) -> List[int]:
        """Rows for the entries ``indices`` whose stores the decoder binned
        as windows, straight from its columns, as the decoder's per-sketch
        build sets them; returns the other entries."""
        rest: List[int] = []
        wanted = np.array(indices, dtype=np.int64)
        chunks = wanted // FRAME_CHUNK_SERIES
        for chunk in range(int(chunks[0]), int(chunks[-1]) + 1):
            entries = wanted[chunks == chunk] if len(frame._chunks) > 1 else wanted
            if not entries.size:
                continue
            columns, _ = frame._chunks[chunk]
            local = entries - chunk * FRAME_CHUNK_SERIES
            store_rows = columns.store_table.reshape(-1, 2, columns.store_table.shape[1])[local]
            kinds = _WINDOW_KIND[store_rows[:, :, _CODE]]
            classes = [frame._classes[index] for index in entries.tolist()]
            fits = (kinds >= 0).all(axis=1) & np.fromiter(
                map(_row_class, classes), dtype=bool, count=len(classes)
            )
            if not fits.all():
                rest += entries[~fits].tolist()
                local, entries, kinds = local[fits], entries[fits], kinds[fits]
                store_rows = store_rows[fits]
                if not local.size:
                    continue
            bounded = kinds > 0
            limits = store_rows[:, :, _LIMIT]
            ints = np.zeros((local.size, 2, _STORE_INTS), dtype=np.int64)
            ints[:, :, OFFSET] = store_rows[:, :, _LOW]
            ints[:, :, SIZE] = store_rows[:, :, _SIZE]
            ints[:, :, POSITIVE] = store_rows[:, :, _POSITIVE]
            ints[:, :, COLLAPSED] = bounded & (store_rows[:, :, _COLLAPSED] == 1)
            ints[:, :, KIND] = kinds
            # The decoded stores' settings: DenseStore._decoded and the
            # bounded stores' _decoded.
            ints[:, :, LIMIT] = np.where(bounded, limits, CHUNK_SIZE)
            ints[:, :, CHUNK] = np.where(bounded, np.clip(limits, 1, CHUNK_SIZE), CHUNK_SIZE)
            summary = columns.float_table[local]
            floats = np.empty((local.size, _FLOATS))
            floats[:, COUNT] = summary[:, 4]
            floats[:, ZERO] = summary[:, 3]
            floats[:, SUM] = summary[:, 5]
            # An empty sketch's NaN min and max are the empty sentinels.
            floats[:, MIN] = np.where(np.isnan(summary[:, 6]), np.inf, summary[:, 6])
            floats[:, MAX] = np.where(np.isnan(summary[:, 7]), -np.inf, summary[:, 7])
            floats[:, STORE_COUNT:] = columns.total_table.reshape(-1, 2)[local]
            picked = entries.tolist()
            self._add_rows(
                [frame.keys[index] for index in picked],
                [frame._mappings[index] for index in picked],
                [frame._classes[index] for index in picked],
                ints, floats, columns.cells, store_rows[:, :, _CELL],
            )
        return rest

    def _add_rows(self, keys, mappings, classes, ints, floats, cells, firsts) -> None:
        """Append rows: their windows are ``cells[firsts[i, s]:firsts[i, s]
        + ints[i, s, SIZE]]`` (``firsts`` has one column per store)."""
        sizes = ints[:, :, SIZE].ravel()
        block = _gather(cells, firsts.ravel(), sizes)
        self._reserve(block.size)
        start = self._used
        self._cells[start : start + block.size] = block
        self._used = start + block.size
        ints[:, :, FIRST] = (start + np.cumsum(sizes) - sizes).reshape(-1, 2)
        first_row = len(self._keys)
        end = first_row + len(keys)
        if end > len(self._ints):
            capacity = max(end, 2 * len(self._ints), 16)
            grown_ints = np.zeros((capacity, 2, _STORE_INTS), dtype=np.int64)
            grown_ints[:first_row] = self._ints[:first_row]
            grown_floats = np.zeros((capacity, _FLOATS))
            grown_floats[:first_row] = self._floats[:first_row]
            self._ints, self._floats = grown_ints, grown_floats
        self._ints[first_row:end] = ints
        self._floats[first_row:end] = floats
        self._index.update(zip(map(_WIRE, keys), range(first_row, end)))
        self._keys += keys
        self._mappings += mappings
        self._classes += classes
        for mapping in {id(mapping): mapping for mapping in mappings}.values():
            self._distinct[id(mapping)] = mapping
        self._sorted = None

    def _reserve(self, cells: int) -> None:
        """Room for ``cells`` more at the tail, with slack."""
        if self._used + cells > self._cells.size:
            self._resize(_grown(self._used + cells))

    def _resize(self, size: int) -> None:
        """Make the buffer ``size`` cells, keeping the cells in use.

        The memory map is remapped in place; while a read still holds a
        view of the cells (or where the platform cannot remap), they are
        copied into a new buffer instead.
        """
        if self._map is not None:
            self._cells = None
            try:
                self._map.resize(8 * size)
            except (BufferError, OSError, SystemError):
                old = np.frombuffer(self._map, dtype=np.float64)
            else:
                self._cells = np.frombuffer(self._map, dtype=np.float64)
                return
        else:
            old = self._cells
        self._map, cells = _new_buffer(size)
        cells[: self._used] = old[: self._used]
        self._cells = cells

    def _compact(self) -> None:
        """Move every live window down over the dead cells, in buffer order:
        the cells after them become the tail, so the buffer keeps its size
        and its resident pages for the windows that move next."""
        ints = self._ints[: len(self._keys)]
        firsts = ints[:, :, FIRST].ravel()
        sizes = ints[:, :, SIZE].ravel()
        order = np.argsort(firsts, kind="stable")
        placed = sizes[order]
        dests = np.cumsum(placed) - placed
        cells = self._cells
        # A window lands at or below where it was, and below every window
        # after it in the buffer: moving them in buffer order overwrites
        # only cells already moved or dead.
        for first, dest, size in zip(firsts[order].tolist(), dests.tolist(), placed.tolist()):
            if size and first != dest:
                cells[dest : dest + size] = cells[first : first + size]
        moved = np.empty_like(firsts)
        moved[order] = dests
        ints[:, :, FIRST] = moved.reshape(-1, 2)
        self._used = int(sizes.sum())
        self._dead = 0

    # ------------------------------------------------------------------ #
    # Frames
    # ------------------------------------------------------------------ #

    def to_frame(self) -> bytes:
        """Every series as one frame-v3 payload, in sorted key order: the
        frame :func:`~repro.serialization.frame.encode_frame` writes for
        this bucket's sketches.  With the native kernel and rows only, it
        is encoded from the columns, reading the windows in place."""
        order = self._order()
        if kernel.columnar_frames() and not self._objects and order:
            rows = np.array([row for _, row in order], dtype=np.int64)
            parts = []
            for start in range(0, rows.size, FRAME_CHUNK_SERIES):
                part = self._encode(rows[start : start + FRAME_CHUNK_SERIES])
                if part is None:
                    break
                parts.append(part)
            else:
                return frame_bytes(len(order), b"".join(parts))
        return encode_frame(self)

    def _encode(self, rows: "np.ndarray") -> Optional[bytes]:
        """One chunk of rows through :func:`repro.kernel.encode_frame_columns`,
        or ``None`` where the per-sketch encoder must run; the columns are
        those :func:`~repro.serialization.frame.encode_frame` gathers."""
        listed = rows.tolist()
        mappings = [self._mappings[row] for row in listed]
        codes = [_MAPPING_CODE.get(type(mapping)) for mapping in mappings]
        if None in codes:
            return None
        wires = [self._keys[row]._wire for row in listed]
        count = rows.size
        ints = np.zeros((count, 2), dtype=np.int64)
        ints[:, 0] = codes
        scalars = self._floats[rows]
        counts = scalars[:, COUNT]
        floats = np.empty((count, 8))
        floats[:, 0] = floats[:, 2] = [mapping.relative_accuracy for mapping in mappings]
        floats[:, 1] = [mapping.offset for mapping in mappings]
        floats[:, 3] = scalars[:, ZERO]
        floats[:, 4] = counts
        floats[:, 5] = scalars[:, SUM]
        # min and max are NaN unless the count is > 0.
        floats[:, 6] = np.where(counts > 0, scalars[:, MIN], np.nan)
        floats[:, 7] = np.where(counts > 0, scalars[:, MAX], np.nan)
        columns = self._ints[rows]
        kinds = columns[:, :, KIND]
        stores = np.zeros((count, 2, 7), dtype=np.int64)
        stores[:, :, 0] = _WIRE_CODES[kinds]
        stores[:, :, 1] = np.where(kinds > 0, columns[:, :, LIMIT], 0)
        stores[:, :, 3] = 1
        stores[:, :, 4:] = columns[:, :, [OFFSET, FIRST, SIZE]]
        return kernel.encode_frame_columns(
            b"".join(wires),
            np.cumsum([len(wire) for wire in wires], dtype=np.int64),
            ints, floats, stores.reshape(-1), self._cells,
            np.zeros(0, dtype=np.int64), np.zeros(0),
        )

    @classmethod
    def from_frame(cls, payload: bytes) -> "BucketStore":
        """A bucket holding a frame's series (:meth:`to_frame`'s inverse).

        Raises what :func:`~repro.serialization.frame.read_frame` raises
        for a malformed payload.
        """
        bucket = cls()
        bucket.merge(read_frame(payload))
        return bucket

    def __repr__(self) -> str:
        live, dead, allocated = self.cells
        return f"BucketStore(series={len(self)}, cells={live}, dead={dead}, allocated={allocated})"


def _row(sketch: Any):
    """``(ints, floats, (positive window, negative window))`` of a sketch a
    row can hold (its first cells left 0), or ``None``."""
    if not _row_class(type(sketch)):
        return None
    ints = []
    floats = [sketch._count, sketch._zero_count, sketch._sum, sketch._min, sketch._max]
    windows = []
    for store in (sketch._store, sketch._negative_store):
        kind = _KINDS.get(type(store))
        bins = store._bins
        if kind is None or bins.dtype != np.float64 or bins.ndim != 1:
            return None
        offset = store._offset
        if not _INT64[0] <= offset < _INT64[1]:
            return None
        columns = [0] * _STORE_INTS
        columns[OFFSET] = offset
        columns[KIND] = kind
        columns[LIMIT] = store._bin_limit if kind else store._chunk_size
        columns[SIZE] = bins.size
        columns[POSITIVE] = store._num_positive
        columns[COLLAPSED] = int(store._is_collapsed) if kind else 0
        columns[CHUNK] = store._chunk_size
        ints.append(columns)
        floats.append(store._count)
        windows.append(bins)
    return ints, floats, windows


class _BucketEntries(DecodedFrame):
    """A bucket's series as a bulk merge's entries (:meth:`BucketStore.entries`).

    A row merges as its state, its windows read in place from the bucket's
    buffer; a sketch it gives is built from the row, and an object's is a
    copy, so a registry may adopt either.
    """

    __slots__ = ("_bucket", "_rows")

    def __init__(self, bucket: BucketStore) -> None:
        super().__init__()
        objects = list(bucket._objects.items())
        self._bucket = bucket
        self._rows = len(bucket._keys)
        self.keys = bucket._keys + [key for key, _ in objects]
        self._mappings = bucket._mappings + [sketch._mapping for _, sketch in objects]
        self._classes = bucket._classes + [type(sketch) for _, sketch in objects]
        self._sketches = [None] * self._rows + [sketch for _, sketch in objects]

    def sketch(self, index: int) -> Any:
        if index < self._rows:
            return self._bucket.sketch(index)
        return self._sketches[index].copy()

    def _build_all(self) -> None:
        self._sketches = [self.sketch(index) for index in range(len(self.keys))]
        self._mappings = None

    def counts(self) -> List[float]:
        return self._bucket._floats[: self._rows, COUNT].tolist() + [
            sketch.count for sketch in self._sketches[self._rows :]
        ]

    def _merge_states(self) -> List[Any]:
        if self._states is None:
            bucket = self._bucket
            rows = self._rows
            cells = bucket._cells
            ints = bucket._ints[:rows]
            floats = bucket._floats[:rows]
            stores = []
            for sign in (0, 1):
                stores.append([
                    (cells, first, size, offset, count, bucket._store, (row, sign))
                    if count > 0.0 else None
                    for row, (offset, first, size, count) in enumerate(zip(
                        *ints[:, sign, [OFFSET, FIRST, SIZE]].T.tolist(),
                        floats[:, STORE_COUNT + sign].tolist(),
                    ))
                ])
            self._states = [
                (zero_count, count, total, minimum, maximum, positive, negative)
                for (count, zero_count, total, minimum, maximum), positive, negative in zip(
                    floats[:, :5].tolist(), *stores
                )
            ] + [False] * (len(self.keys) - rows)
        return self._states


def fold_series(
    buckets: Sequence[BucketStore], keys: Sequence[SeriesKey]
) -> Optional[BaseDDSketch]:
    """Each key folded over the buckets holding it, then the keys merged.

    The sketch :meth:`~repro.core.BaseDDSketch.fold` returns for one group
    per key, holding that key's series in ``buckets`` order (a key no
    bucket holds has no group), bit for bit; ``None`` when no bucket holds
    any key.  With the native kernel, where every selected series is a
    row of one mapping, the fold's tables and group heads come from the
    row columns, the scalars fold in one :func:`repro.kernel.fold_scalars`
    pass and each store side in one :func:`repro.kernel.fold_rows` pass;
    otherwise, and where a pass declines, the groups are built as sketches
    and folded.
    """
    if not buckets or not keys:
        return None
    wires = list(map(_WIRE, keys))
    columns = np.empty((len(buckets), len(keys)), dtype=np.int64)
    for index, bucket in enumerate(buckets):
        columns[index] = np.fromiter(
            map(bucket._index.get, wires, repeat(-1)), dtype=np.int64, count=len(keys)
        )
    if kernel.window_merges() and not any(
        bucket._objects and any(map(bucket._objects.__contains__, keys)) for bucket in buckets
    ):
        folded = _fold_rows(buckets, columns)
        if folded is not None:
            return folded or None
    groups = []
    for index, key in enumerate(keys):
        group = []
        for bucket, rows in zip(buckets, columns):
            row = int(rows[index])
            if row >= 0:
                group.append(bucket.sketch(row))
            elif bucket._objects:
                sketch = bucket._objects.get(key)
                if sketch is not None:
                    group.append(sketch)
        if group:
            groups.append(group)
    return BaseDDSketch.fold(groups) if groups else None


def _fold_rows(buckets: Sequence[BucketStore], columns: "np.ndarray"):
    """:func:`fold_series` from the row columns (``columns[b, k]``: key
    ``k``'s row in bucket ``b``, or -1): the folded sketch, ``False`` when
    no bucket holds any key, or ``None`` for the sketch fold."""
    present = (columns >= 0).T  # key by bucket
    sizes = present.sum(axis=1)
    if not sizes.any():
        return False
    which_key, which = np.nonzero(present)  # key-major: each key's buckets, oldest first
    members = columns.T[which_key, which]
    first_bucket = buckets[int(which[0])]
    first_row = int(members[0])
    mapping = first_bucket._mappings[first_row]
    for index, bucket in enumerate(buckets):
        if all(other is mapping or other == mapping for other in bucket._distinct.values()):
            continue
        rows = map(bucket._mappings.__getitem__, members[which == index].tolist())
        if any(other is not mapping and other != mapping for other in rows):
            return None  # the sketch fold raises what merging them raises
    if len(buckets) == 1:
        ints = first_bucket._ints[members]
        floats = first_bucket._floats[members]
    else:
        ints = np.empty((members.size, 2, _STORE_INTS), dtype=np.int64)
        floats = np.empty((members.size, _FLOATS))
        for index, bucket in enumerate(buckets):
            chosen = which == index
            rows = members[chosen]
            ints[chosen] = bucket._ints[rows]
            floats[chosen] = bucket._floats[rows]
    ends = np.cumsum(sizes[sizes > 0])
    take, merged, total = kernel.fold_scalars(ends, floats)
    taken = np.flatnonzero(take)
    # Every group keeps its head: the fold's groups over the merging stores.
    taken_ends = np.cumsum(take)[ends - 1]
    starts = np.concatenate(([0], taken_ends[:-1]))
    single = taken_ends - starts == 1
    single[0] = False
    multiple = ~single
    multiple[0] = False
    buffers = [bucket._cells for bucket in buckets]
    stores = []
    for sign in (0, 1):
        side = ints[taken, sign]
        counts = floats[taken, STORE_COUNT + sign]
        if not (counts[1:] > 0).any():
            # Every merge of the loop returns at once: a copy of the first.
            stores.append(first_bucket._store((first_row, sign)))
            continue
        heads = np.empty((starts.size, 5), dtype=np.int64)
        heads[:, :4] = side[starts][:, [KIND, LIMIT, POSITIVE, COLLAPSED]]
        heads[single, :4] = 0  # merged straight from its window
        heads[:, 4] = merged
        kinds, limits = heads[:, 0], heads[:, 1]
        group_cells = int(limits[multiple & (kinds > 0)].max(initial=0))
        dense_chunk = int(limits[multiple & (kinds == 0)].max(initial=0))
        total_kind, total_limit, chunk = side[0, [KIND, LIMIT, CHUNK]].tolist()
        cells = fold_cells(
            total_kind, total_limit, group_cells, dense_chunk, side[:, OFFSET], side[:, SIZE]
        )
        if cells is None:
            return None
        table = np.empty((taken.size, 4), dtype=np.int64)
        table[:, [0, 2, 3]] = side[:, [OFFSET, FIRST, SIZE]]
        table[:, 1] = which[taken]
        folded = kernel.fold_rows(taken_ends, heads, table, buffers, counts, *cells)
        if folded is None:
            return None
        stores.append(folded_store(_TYPES[total_kind], chunk, total_limit, folded))
    count, zero_count, total_sum, minimum, maximum = total
    return first_bucket._classes[first_row]._decoded(
        mapping, stores[0], stores[1], zero_count, count, total_sum, minimum, maximum
    )
