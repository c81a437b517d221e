"""Wire protocol of the aggregation service: framed messages + push envelopes.

The cross-process transport is deliberately simple: a TCP connection carries
a sequence of **length-prefixed messages**, each a fixed 7-byte header
followed by an opaque payload::

    magic    2 bytes   b"DM"
    type     1 byte    message type (below)
    length   4 bytes   unsigned little-endian payload length
    payload  length bytes

Requests (client -> server): ``PUSH`` (payload is a *push envelope*, below),
``QUERY``/``STATS``/``SNAPSHOT`` (payload is a UTF-8 JSON object, possibly
empty), and ``PING`` (empty payload).  Responses (server -> client): ``OK``,
``ERROR``, and ``OVERLOADED`` (the admission gate shed the request; the body
carries a ``retry_after`` hint in seconds), all carrying a UTF-8 JSON object.

A **push envelope** is the unit the service both receives on the wire and
persists verbatim in its segment log (:mod:`repro.service.segment_log`) —
the record envelope around a frame-v3 payload::

    magic           2 bytes   b"DP"
    version         varint    1
    host            varint length + UTF-8 bytes (producer identity)
    sequence        varint    per-host frame sequence number (1-based)
    interval_start  8 bytes   IEEE-754 little-endian float
    frame           varint length + frame-v3 bytes (:mod:`repro.serialization.frame`)

``(host, sequence)`` identifies a frame for deduplication: a client that
times out may safely retransmit, the server applies each identity at most
once (see :class:`~repro.service.state.ServiceState`).

Like every other decoder in the repository, both layers are fuzz-hardened:
truncated, bit-flipped, oversized, or otherwise adversarial bytes raise
:class:`~repro.exceptions.DeserializationError` — never ``IndexError`` or
``MemoryError`` from the internals.
"""

from __future__ import annotations

import json
import socket
import struct
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.exceptions import DeserializationError, IllegalArgumentError
from repro.serialization.encoding import VarintReader, encode_varint

MESSAGE_MAGIC = b"DM"
ENVELOPE_MAGIC = b"DP"
ENVELOPE_VERSION = 1

#: Message types (client -> server).
MSG_PUSH = 0x01
MSG_QUERY = 0x02
MSG_PING = 0x03
MSG_SNAPSHOT = 0x04
MSG_STATS = 0x05
#: Message types (server -> client).
MSG_OK = 0x10
MSG_ERROR = 0x11
#: The server shed the request at its admission gate.  The JSON body carries
#: ``kind``/``message`` like an ERROR reply plus a ``retry_after`` hint in
#: seconds — an explicit "healthy but at capacity, come back later" signal,
#: distinct from ERROR so clients can back off instead of failing.
MSG_OVERLOADED = 0x12

_KNOWN_TYPES = frozenset(
    (MSG_PUSH, MSG_QUERY, MSG_PING, MSG_SNAPSHOT, MSG_STATS, MSG_OK, MSG_ERROR, MSG_OVERLOADED)
)

#: Ceiling on one message payload.  A frame of 10k series at 1% alpha is a
#: few MB; anything beyond this is a corrupt length field or an attack.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

#: Ceiling on a producer host identifier inside a push envelope.
MAX_HOST_BYTES = 1 << 12

_HEADER = struct.Struct("<2sBI")
_FLOAT = struct.Struct("<d")


def encode_message(message_type: int, payload: bytes = b"") -> bytes:
    """Serialize one wire message (header + payload)."""
    if message_type not in _KNOWN_TYPES:
        raise IllegalArgumentError(f"unknown message type 0x{message_type:02x}")
    if len(payload) > MAX_MESSAGE_BYTES:
        raise IllegalArgumentError(
            f"message payload of {len(payload)} bytes exceeds the {MAX_MESSAGE_BYTES} limit"
        )
    return _HEADER.pack(MESSAGE_MAGIC, message_type, len(payload)) + payload


def decode_header(header: bytes, max_bytes: Optional[int] = None) -> Tuple[int, int]:
    """Validate a 7-byte message header; returns ``(type, payload_length)``.

    The declared payload length is checked *before* any payload bytes are
    read or buffered: a hostile or corrupt length prefix is rejected with
    :class:`DeserializationError` instead of attempting a multi-GB
    allocation.  ``max_bytes`` tightens the ceiling below the protocol-wide
    :data:`MAX_MESSAGE_BYTES` (servers cap inbound messages well under the
    absolute limit; replies are never larger than requests).
    """
    if len(header) != _HEADER.size:
        raise DeserializationError(
            f"message header must be {_HEADER.size} bytes, got {len(header)}"
        )
    magic, message_type, length = _HEADER.unpack(header)
    if magic != MESSAGE_MAGIC:
        raise DeserializationError("message does not start with the service magic bytes")
    if message_type not in _KNOWN_TYPES:
        raise DeserializationError(f"unknown message type 0x{message_type:02x}")
    limit = MAX_MESSAGE_BYTES if max_bytes is None else min(int(max_bytes), MAX_MESSAGE_BYTES)
    if length > limit:
        raise DeserializationError(
            f"message length {length} exceeds the {limit} limit"
        )
    return message_type, length


async def read_message(reader, max_bytes: Optional[int] = None) -> Tuple[int, bytes]:
    """Read one framed message from an :mod:`asyncio` stream reader.

    Returns ``(type, payload)``; raises :class:`DeserializationError` for a
    malformed header (including a length prefix above ``max_bytes``, checked
    before reading the payload) and ``asyncio.IncompleteReadError`` at a
    clean EOF.
    """
    header = await reader.readexactly(_HEADER.size)
    message_type, length = decode_header(header, max_bytes=max_bytes)
    payload = await reader.readexactly(length) if length else b""
    return message_type, payload


def read_message_blocking(sock: socket.socket, max_bytes: Optional[int] = None) -> Tuple[int, bytes]:
    """Read one framed message from a blocking socket.

    Returns ``(type, payload)``.  Raises :class:`DeserializationError` for a
    malformed header (including a length prefix above ``max_bytes``) or a
    connection that closes mid-message.
    """
    header = _recv_exactly(sock, _HEADER.size)
    message_type, length = decode_header(header, max_bytes=max_bytes)
    payload = _recv_exactly(sock, length) if length else b""
    return message_type, payload


def _recv_exactly(sock: socket.socket, length: int) -> bytes:
    chunks = []
    remaining = length
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise DeserializationError(
                f"connection closed with {remaining} of {length} message bytes unread"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def encode_json_message(message_type: int, body: Dict[str, Any]) -> bytes:
    """Serialize a JSON-bodied message (QUERY/STATS/OK/ERROR)."""
    return encode_message(message_type, json.dumps(body, sort_keys=True).encode("utf-8"))


def decode_json_body(payload: bytes) -> Dict[str, Any]:
    """Parse a JSON message body into a dict (DeserializationError on garbage)."""
    if not payload:
        return {}
    try:
        body = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise DeserializationError(f"malformed JSON message body: {error}") from error
    if not isinstance(body, dict):
        raise DeserializationError("JSON message body must be an object")
    return body


@dataclass(frozen=True)
class PushEnvelope:
    """One decoded push envelope: producer identity plus the carried frame."""

    host: str
    sequence: int
    interval_start: float
    frame: bytes

    @property
    def identity(self) -> Tuple[str, int]:
        """The ``(host, sequence)`` deduplication identity."""
        return (self.host, self.sequence)


def encode_push_envelope(
    frame: bytes, host: str, sequence: int, interval_start: float = 0.0
) -> bytes:
    """Wrap a frame-v3 payload in the push/record envelope."""
    host_bytes = str(host).encode("utf-8")
    if not host_bytes:
        raise IllegalArgumentError("envelope host must be a non-empty string")
    if len(host_bytes) > MAX_HOST_BYTES:
        raise IllegalArgumentError(
            f"envelope host of {len(host_bytes)} bytes exceeds the {MAX_HOST_BYTES} limit"
        )
    if sequence < 1:
        raise IllegalArgumentError(f"envelope sequence must be >= 1, got {sequence!r}")
    frame = bytes(frame)
    return (
        ENVELOPE_MAGIC
        + encode_varint(ENVELOPE_VERSION)
        + encode_varint(len(host_bytes))
        + host_bytes
        + encode_varint(int(sequence))
        + _FLOAT.pack(float(interval_start))
        + encode_varint(len(frame))
        + frame
    )


def decode_push_envelope(payload: bytes, validate_frame: bool = False) -> PushEnvelope:
    """Decode a push envelope; optionally validate the embedded frame too.

    With ``validate_frame=True`` the embedded frame-v3 payload is decoded
    (:func:`~repro.serialization.frame.read_frame`, which validates every
    entry without building its sketch) and the result discarded, so that a
    well-formed envelope is also known to carry a well-formed frame.  A
    caller that goes on to apply the frame should not validate here:
    decode it once with ``read_frame(envelope.frame)`` and hand that frame
    to :meth:`~repro.service.state.ServiceState.apply`.  The server does
    so, before persisting, so the segment log only ever stores frames that
    decode and each accepted frame is decoded once.

    Raises
    ------
    DeserializationError
        For any malformed envelope: wrong magic or version, oversized or
        truncated host/frame fields, non-finite interval, trailing bytes,
        or (when requested) a corrupt embedded frame.
    """
    if not isinstance(payload, (bytes, bytearray, memoryview)):
        raise DeserializationError(
            f"push envelope must be bytes, got {type(payload).__name__}"
        )
    payload = bytes(payload)
    if payload[:2] != ENVELOPE_MAGIC:
        raise DeserializationError("payload does not start with the push-envelope magic")
    reader = VarintReader(payload[2:])
    version = reader.read_varint()
    if version != ENVELOPE_VERSION:
        raise DeserializationError(f"unsupported push-envelope version {version}")
    host_length = reader.read_varint()
    if host_length == 0 or host_length > MAX_HOST_BYTES:
        raise DeserializationError(f"envelope host length {host_length} is out of range")
    host_bytes = reader.read_bytes(host_length)
    try:
        host = host_bytes.decode("utf-8")
    except UnicodeDecodeError as error:
        raise DeserializationError("envelope host is not valid UTF-8") from error
    sequence = reader.read_varint()
    interval_start = reader.read_float()
    if interval_start != interval_start or interval_start in (float("inf"), float("-inf")):
        raise DeserializationError(f"envelope interval_start {interval_start!r} is not finite")
    frame_length = reader.read_varint()
    if frame_length > reader.remaining:
        raise DeserializationError(
            f"envelope frame length {frame_length} exceeds the remaining payload"
        )
    frame = reader.read_bytes(frame_length)
    if not reader.exhausted:
        raise DeserializationError(f"{reader.remaining} trailing bytes after the envelope")
    if validate_frame:
        from repro.serialization.frame import read_frame

        read_frame(frame)
    return PushEnvelope(host=host, sequence=sequence, interval_start=interval_start, frame=frame)


def request(
    sock: socket.socket, message_type: int, payload: bytes = b"", timeout: Optional[float] = None
) -> Tuple[int, bytes]:
    """Send one message on a blocking socket and read the single reply."""
    if timeout is not None:
        sock.settimeout(timeout)
    sock.sendall(encode_message(message_type, payload))
    return read_message_blocking(sock)
