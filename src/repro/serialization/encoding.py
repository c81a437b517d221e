"""Low-level binary primitives: varints, zig-zag integers, and floats.

These are the standard protobuf-style encodings: unsigned integers are stored
as base-128 varints (7 payload bits per byte, high bit is the continuation
flag), signed integers are zig-zag mapped to unsigned ones so that small
magnitudes stay small on the wire, and floats are fixed 8-byte IEEE-754
little-endian.
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro.exceptions import DeserializationError, IllegalArgumentError

_FLOAT_STRUCT = struct.Struct("<d")


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as a base-128 varint."""
    if value < 0:
        raise IllegalArgumentError(f"varints encode non-negative integers, got {value!r}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(payload: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode a varint from ``payload`` starting at ``offset``.

    Returns ``(value, next_offset)``.
    """
    result = 0
    shift = 0
    position = offset
    while True:
        if position >= len(payload):
            raise DeserializationError("truncated varint")
        byte = payload[position]
        position += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, position
        shift += 7
        if shift > 70:
            raise DeserializationError("varint too long")


def encode_zigzag(value: int) -> bytes:
    """Encode a signed integer using zig-zag mapping followed by a varint."""
    mapped = value * 2 if value >= 0 else -value * 2 - 1
    return encode_varint(mapped)


def decode_zigzag(payload: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode a zig-zag-encoded signed integer; returns ``(value, next_offset)``."""
    mapped, position = decode_varint(payload, offset)
    value = mapped // 2 if mapped % 2 == 0 else -(mapped + 1) // 2
    return value, position


def encode_float(value: float) -> bytes:
    """Encode a float as 8 little-endian IEEE-754 bytes."""
    return _FLOAT_STRUCT.pack(value)


def decode_float(payload: bytes, offset: int = 0) -> Tuple[float, int]:
    """Decode an 8-byte float; returns ``(value, next_offset)``."""
    if offset + 8 > len(payload):
        raise DeserializationError("truncated float")
    return _FLOAT_STRUCT.unpack_from(payload, offset)[0], offset + 8


class VarintReader:
    """Stateful cursor over a binary payload, for sequential decoding."""

    def __init__(self, payload: bytes) -> None:
        self._payload = payload
        self._offset = 0

    @property
    def offset(self) -> int:
        """Current position within the payload."""
        return self._offset

    @property
    def exhausted(self) -> bool:
        """Whether every byte of the payload has been consumed."""
        return self._offset >= len(self._payload)

    @property
    def remaining(self) -> int:
        """Number of unconsumed bytes left in the payload."""
        return max(len(self._payload) - self._offset, 0)

    def read_varint(self) -> int:
        """Read one unsigned varint; raises :class:`DeserializationError`
        when it is truncated or longer than 70 bits of payload."""
        value, self._offset = decode_varint(self._payload, self._offset)
        return value

    def read_zigzag(self) -> int:
        """Read one zig-zag-encoded signed integer (see :func:`decode_zigzag`)."""
        value, self._offset = decode_zigzag(self._payload, self._offset)
        return value

    def read_float(self) -> float:
        """Read one little-endian float64; raises :class:`DeserializationError`
        when fewer than 8 bytes remain."""
        value, self._offset = decode_float(self._payload, self._offset)
        return value

    def read_bytes(self, length: int) -> bytes:
        """Read the next ``length`` bytes; raises :class:`DeserializationError`
        when fewer remain."""
        if self._offset + length > len(self._payload):
            raise DeserializationError("truncated byte string")
        chunk = self._payload[self._offset : self._offset + length]
        self._offset += length
        return chunk
