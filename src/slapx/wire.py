"""Typed, length-prefixed protocol messages with byte-exact payload sizes.

Framing: 1-byte type tag || 4-byte big-endian payload length || payload.
Each protocol phase has a fixed payload size per direction; content is
length-prefixed internally and zero-padded up to the budget, so the four
phase totals are constant:

    PoL.AP    1040 + 1416 = 2456 bytes
    PoL.ND    1160 +  784 = 1944 bytes
    Spectrum  1720 + 1296 = 3016 bytes
    Service   2080 +  632 = 2712 bytes

At the standard 1500-byte MTU with 40 bytes of IP+TCP headers only the two
request messages above 1460 bytes (spectrum and service) split into two
packets; every response fits a single packet.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import ParameterError, RejectReason, SlapxError

HEADER_LEN = 5  # framing: type byte + u32 payload length


class MessageType(enum.IntEnum):
    POL_REQUEST = 1
    POL_RESPONSE = 2
    SPECTRUM_REQUEST = 3
    SPECTRUM_RESPONSE = 4
    SERVICE_REQUEST = 5
    SERVICE_RESPONSE = 6
    REJECT = 7      # payload: index of the RejectReason (socket transport)


# catalogue name -> (type tag, fixed payload bytes)
MESSAGE_CATALOG: dict[str, tuple[MessageType, int]] = {
    "pol_ap_request": (MessageType.POL_REQUEST, 1040),
    "pol_ap_response": (MessageType.POL_RESPONSE, 1416),
    "pol_nd_request": (MessageType.POL_REQUEST, 1160),
    "pol_nd_response": (MessageType.POL_RESPONSE, 784),
    "spectrum_request": (MessageType.SPECTRUM_REQUEST, 1720),
    "spectrum_response": (MessageType.SPECTRUM_RESPONSE, 1296),
    "service_request": (MessageType.SERVICE_REQUEST, 2080),
    "service_response": (MessageType.SERVICE_RESPONSE, 632),
}

PHASE_MESSAGES = {
    "pol_ap": ("pol_ap_request", "pol_ap_response"),
    "pol_nd": ("pol_nd_request", "pol_nd_response"),
    "spectrum_query": ("spectrum_request", "spectrum_response"),
    "service_request": ("service_request", "service_response"),
}


def phase_total(phase: str) -> int:
    return sum(MESSAGE_CATALOG[m][1] for m in PHASE_MESSAGES[phase])


@dataclass(frozen=True)
class WireMessage:
    type: MessageType
    payload: bytes

    def encode(self) -> bytes:
        return bytes([self.type]) + len(self.payload).to_bytes(4, "big") + self.payload


def encode_reject(reason: RejectReason) -> WireMessage:
    """The REJECT frame: one byte, `reason`'s index in declaration order."""
    return WireMessage(MessageType.REJECT, bytes([list(RejectReason).index(reason)]))


def decode_reject(payload: bytes) -> RejectReason:
    """Inverse of encode_reject; raises SlapxError on any other payload."""
    if len(payload) != 1 or payload[0] >= len(RejectReason):
        raise SlapxError("malformed reject frame")
    return list(RejectReason)[payload[0]]


def build_message(catalog_name: str, content: bytes) -> WireMessage:
    mtype, budget = MESSAGE_CATALOG[catalog_name]
    if len(content) + 4 > budget:
        raise SlapxError(
            f"{catalog_name} content {len(content)}B exceeds its {budget}B budget")
    payload = len(content).to_bytes(4, "big") + content
    return WireMessage(mtype, payload + b"\x00" * (budget - len(payload)))


def message_content(msg: WireMessage) -> bytes:
    clen = int.from_bytes(msg.payload[:4], "big")
    return msg.payload[4:4 + clen]


def decode_message(data: bytes) -> tuple[WireMessage, bytes]:
    """Parse one framed message from a byte stream; returns (message, rest)."""
    if len(data) < HEADER_LEN:
        raise SlapxError("short frame")
    try:
        mtype = MessageType(data[0])
    except ValueError as e:
        raise SlapxError(f"unknown frame type {data[0]}") from e
    plen = int.from_bytes(data[1:5], "big")
    if len(data) < HEADER_LEN + plen:
        raise SlapxError("truncated frame")
    return WireMessage(mtype, data[5:5 + plen]), data[5 + plen:]


# -- field packing and the bounds-checked reader ------------------------------

class Reader:
    """Cursor over bytes for strict decoders: reading past the end raises
    SlapxError, and so does `end()` while any byte is left unread."""

    def __init__(self, data: bytes):
        self._data = data
        self._off = 0

    def take(self, n: int) -> bytes:
        end = self._off + n
        if end > len(self._data):
            raise SlapxError("truncated field")
        out = self._data[self._off:end]
        self._off = end
        return out

    def uint(self, n: int) -> int:
        return int.from_bytes(self.take(n), "big")

    def rest(self) -> bytes:
        """Every byte not read yet."""
        return self.take(len(self._data) - self._off)

    def field(self) -> bytes:
        """One 2-byte length-prefixed field."""
        return self.take(self.uint(2))

    def end(self) -> None:
        if self._off != len(self._data):
            raise SlapxError(f"{len(self._data) - self._off} trailing bytes")


def pack_fields(*fields: bytes) -> bytes:
    out = bytearray()
    for f in fields:
        out += len(f).to_bytes(2, "big") + f
    return bytes(out)


def unpack_fields(data: bytes, count: int) -> list[bytes]:
    """The `count` fields that make up all of `data`, else SlapxError."""
    r = Reader(data)
    out = [r.field() for _ in range(count)]
    r.end()
    return out


def encode_point(l_x: float, l_y: float) -> bytes:
    """A point in metres as two signed 8-byte millimetre counts."""
    return b"".join(int(round(v * 1000)).to_bytes(8, "big", signed=True)
                    for v in (l_x, l_y))


def decode_point(data: bytes) -> tuple[float, float]:
    """Inverse of encode_point; raises SlapxError on any bytes that
    encode_point does not produce."""
    r = Reader(data)
    l_x, l_y = (int.from_bytes(r.take(8), "big", signed=True) / 1000
                for _ in range(2))
    if encode_point(l_x, l_y) != data:  # trailing bytes, or a count no float carries
        raise SlapxError("not a canonical point")
    return l_x, l_y


# -- fragmentation accounting -----------------------------------------------

@dataclass(frozen=True)
class FragEntry:
    message: str
    payload_bytes: int
    header_bytes: int
    packets: int
    overhead_ratio: float


def packet_count(payload: int, mtu: int, header_bytes: int) -> int:
    if mtu <= header_bytes:
        raise ParameterError("MTU must exceed header size")
    return max(1, math.ceil(payload / (mtu - header_bytes)))


def fragmentation_report(mtu: int, header_bytes: int = 40) -> list[FragEntry]:
    out = []
    for name, (_, size) in MESSAGE_CATALOG.items():
        pkts = packet_count(size, mtu, header_bytes)
        headers = pkts * header_bytes
        out.append(FragEntry(name, size, headers, pkts,
                             headers / (headers + size)))
    return out


# link MTUs a sweep reports whenever its range holds them
ANCHOR_MTUS = (1500, 3000, 6000)


def fragmentation_sweep(mtu_min: int = 576, mtu_max: int = 9000,
                        header_bytes: int = 40,
                        step: int = 1) -> dict[int, list[FragEntry]]:
    """Reports every `step` from mtu_min, at mtu_max and at the anchor MTUs
    in range, in increasing MTU order."""
    if header_bytes < 0:
        raise ParameterError("header size must not be negative")
    if step < 1:
        raise ParameterError("MTU step must be at least 1")
    if mtu_min <= header_bytes:
        raise ParameterError("MTU floor must exceed header size")
    if mtu_max < mtu_min:
        raise ParameterError("invalid MTU range")
    mtus = {mtu_max, *range(mtu_min, mtu_max + 1, step),
            *(m for m in ANCHOR_MTUS if mtu_min <= m <= mtu_max)}
    return {mtu: fragmentation_report(mtu, header_bytes)
            for mtu in sorted(mtus)}
