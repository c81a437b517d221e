"""Tagged series identity: ``(metric, tags)`` keys for the sketch registry.

In the paper's monitoring scenario (Section 1) a "metric" is really a family
of thousands of concrete series — one per host/endpoint/status combination.
:class:`SeriesKey` is the canonical identity of one such series: a metric
name plus a normalized (sorted, duplicate-free) tuple of ``(key, value)``
string tags.  Keys are hashable, totally ordered (for deterministic flush
and iteration order), and support the subset matching used by tag-filtered
queries (``host="web-1"`` selects every series carrying that tag, whatever
its other tags are).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Tuple, Union

from repro.exceptions import IllegalArgumentError

#: Largest UTF-8 size, in bytes, of a metric name, tag key or tag value.
#: Frames carry each string behind a varint length, and the frame decoder
#: rejects longer ones as malformed, so a key is refused here already: every
#: key a registry accepts can travel in a frame.
MAX_STRING_BYTES = 1 << 16

#: Anything accepted where tags are expected: a mapping, an iterable of
#: ``(key, value)`` pairs, or ``None`` for an untagged series.
TagsLike = Union[None, Mapping[str, str], Iterable[Tuple[str, str]]]

#: Anything accepted where a series is expected: a ready-made key, a bare
#: metric name, or a ``(metric, tags)`` pair.
SeriesLike = Union["SeriesKey", str, Tuple[str, TagsLike]]


def normalize_tags(tags: TagsLike) -> Tuple[Tuple[str, str], ...]:
    """Normalize tags to a sorted, validated tuple of string pairs."""
    if tags is None:
        return ()
    if isinstance(tags, Mapping):
        items = tags.items()
    else:
        items = list(tags)
    normalized = []
    seen = set()
    for item in items:
        try:
            key, value = item
        except (TypeError, ValueError) as error:
            raise IllegalArgumentError(
                f"tags must be (key, value) pairs, got {item!r}"
            ) from error
        if not isinstance(key, str) or not isinstance(value, str):
            raise IllegalArgumentError(
                f"tag keys and values must be strings, got {(key, value)!r}"
            )
        if not key:
            raise IllegalArgumentError("tag keys must be non-empty strings")
        if key in seen:
            raise IllegalArgumentError(f"duplicate tag key {key!r}")
        seen.add(key)
        normalized.append((key, value))
    return tuple(sorted(normalized))


@dataclass(frozen=True, order=True)
class SeriesKey:
    """Identity of one tagged series: a metric name plus normalized tags.

    Instances are immutable, hashable, and ordered by ``(metric, tags)`` so
    registries and frames enumerate series deterministically.  Use
    :meth:`of` to build keys from loose inputs (bare metric strings,
    ``(metric, tags)`` pairs, tag mappings).

    Keys compare equal, and hash, by their frame bytes (:attr:`wire_bytes`):
    the encoding of a metric and its normalized tags is one-to-one, so two
    keys have equal bytes exactly when their ``(metric, tags)`` are equal,
    and a bytes object hashes once per process and caches the result.
    """

    metric: str
    tags: Tuple[Tuple[str, str], ...] = field(default=())

    def __post_init__(self) -> None:
        if not isinstance(self.metric, str) or not self.metric:
            raise IllegalArgumentError(
                f"metric must be a non-empty string, got {self.metric!r}"
            )
        tags = normalize_tags(self.tags)
        object.__setattr__(self, "tags", tags)
        # The key's frame encoding, computed once: the strings' UTF-8 forms
        # are validated here and written verbatim by every later frame.
        parts = [_wire_string(self.metric, "metric"), _varint(len(tags))]
        for key, value in tags:
            parts.append(_wire_string(key, "tag key"))
            parts.append(_wire_string(value, "tag value"))
        object.__setattr__(self, "_wire", b"".join(parts))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._wire == other._wire
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._wire)

    def sort_key(self) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
        """``(metric, tags)``: sorting by it orders keys as ``<`` does, faster."""
        return (self.metric, self.tags)

    @property
    def wire_bytes(self) -> bytes:
        """The key as a frame entry starts: metric, tag count, tag pairs.

        Each string is its varint byte length followed by its UTF-8 bytes
        (see :mod:`repro.serialization.frame`).
        """
        return self._wire

    @classmethod
    def of(cls, series: SeriesLike, tags: TagsLike = None) -> "SeriesKey":
        """Coerce a loose series description into a :class:`SeriesKey`.

        Accepts an existing key (returned as-is when no extra ``tags`` are
        supplied), a bare metric string, or a ``(metric, tags)`` pair; an
        explicit ``tags`` argument combines with a bare metric string.
        """
        if isinstance(series, SeriesKey):
            if tags is not None:
                raise IllegalArgumentError(
                    "cannot combine an existing SeriesKey with extra tags"
                )
            return series
        if isinstance(series, str):
            return cls(series, normalize_tags(tags))
        if isinstance(series, tuple) and len(series) == 2:
            if tags is not None:
                raise IllegalArgumentError(
                    "cannot combine a (metric, tags) pair with extra tags"
                )
            metric, pair_tags = series
            return cls(metric, normalize_tags(pair_tags))
        raise IllegalArgumentError(
            f"expected a SeriesKey, metric string, or (metric, tags) pair, got {series!r}"
        )

    @property
    def tag_dict(self) -> Mapping[str, str]:
        """The tags as a plain dictionary (copy)."""
        return dict(self.tags)

    def matches(self, metric: Optional[str] = None, tag_filter: TagsLike = None) -> bool:
        """Whether this series belongs to ``metric`` and carries every filter tag.

        ``tag_filter`` selects by subset: a series matches when each filter
        pair appears among its tags (extra tags are ignored).  A ``None``
        metric matches any metric; an empty filter matches any tags.
        """
        if metric is not None and self.metric != metric:
            return False
        wanted = normalize_tags(tag_filter)
        if not wanted:
            return True
        own = dict(self.tags)
        return all(own.get(key) == value for key, value in wanted)

    def __str__(self) -> str:
        if not self.tags:
            return self.metric
        rendered = ",".join(f"{key}={value}" for key, value in self.tags)
        return f"{self.metric}{{{rendered}}}"


def _varint(value: int) -> bytes:
    """``encode_varint`` of :mod:`repro.serialization.encoding`, which this
    module cannot import: that package imports this one."""
    out = bytearray()
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _wire_string(text: str, what: str) -> bytes:
    """``text`` as a frame string (varint length + UTF-8), or raise."""
    try:
        encoded = text.encode("utf-8")
    except UnicodeEncodeError as error:
        raise IllegalArgumentError(
            f"{what} {text[:40]!r} is not encodable as UTF-8"
        ) from error
    if len(encoded) > MAX_STRING_BYTES:
        raise IllegalArgumentError(
            f"{what} of {len(encoded)} UTF-8 bytes exceeds the {MAX_STRING_BYTES}-byte limit"
        )
    return _varint(len(encoded)) + encoded
