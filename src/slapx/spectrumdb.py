"""Spectrum geolocation database: grid-indexed availability records.

Records are indexed by cell coordinates quantized to the grid resolution
and encode to exactly 560 bytes. Each lookup synthesizes the cell's record
from the database seed; nothing is kept between lookups.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import wire
from .errors import ProtocolReject, RejectReason, SlapxError
from .hashes import H_int

RECORD_BYTES = 560
_MAX_CHANNELS = 52
CELL_M = 50.0        # grid resolution: the edge of one square cell
AREA_M = 10_000.0    # the service area is [0, AREA_M) on both axes
SEED = 7             # the seed every cell's record is synthesized from


@dataclass(frozen=True)
class Channel:
    freq_hz: int
    max_eirp_dbm: float


@dataclass(frozen=True)
class SpectrumRecord:
    cell_x: float
    cell_y: float
    valid_from: int
    valid_until: int
    max_devices: int
    device_mask: int
    channels: tuple[Channel, ...]

    def encode(self) -> bytes:
        if len(self.channels) > _MAX_CHANNELS:
            raise SlapxError("too many channels for fixed record")
        out = bytearray(wire.encode_point(self.cell_x, self.cell_y))
        out += self.valid_from.to_bytes(8, "big")
        out += self.valid_until.to_bytes(8, "big")
        out += self.max_devices.to_bytes(2, "big")
        out += bytes([self.device_mask])
        out += len(self.channels).to_bytes(2, "big")
        for ch in self.channels:
            out += ch.freq_hz.to_bytes(8, "big")
            out += int(round(ch.max_eirp_dbm * 10)).to_bytes(2, "big", signed=True)
        return bytes(out) + b"\x00" * (RECORD_BYTES - len(out))

    @classmethod
    def decode(cls, data: bytes) -> "SpectrumRecord":
        if len(data) != RECORD_BYTES:
            raise SlapxError("bad record length")
        r = wire.Reader(data)
        cell_x, cell_y = wire.decode_point(r.take(16))
        valid_from = r.uint(8)
        valid_until = r.uint(8)
        max_devices = r.uint(2)
        device_mask = r.uint(1)
        channels = tuple(
            Channel(r.uint(8), int.from_bytes(r.take(2), "big", signed=True) / 10)
            for _ in range(r.uint(2)))
        if any(r.rest()):
            raise SlapxError("nonzero padding")
        return cls(cell_x, cell_y, valid_from, valid_until,
                   max_devices, device_mask, channels)


class SpectrumDatabase:
    """Service-area grid; records synthesized deterministically per cell."""

    def cell_of(self, l_x: float, l_y: float) -> tuple[float, float]:
        if not (0.0 <= l_x < AREA_M and 0.0 <= l_y < AREA_M):
            raise ProtocolReject(RejectReason.OUT_OF_AREA,
                                 f"({l_x}, {l_y}) outside service area")
        return int(l_x // CELL_M) * CELL_M, int(l_y // CELL_M) * CELL_M

    def lookup(self, l_x: float, l_y: float) -> SpectrumRecord:
        cx, cy = self.cell_of(l_x, l_y)
        h = H_int("spectrumdb", SEED.to_bytes(8, "big"),
                  int(cx * 1000).to_bytes(8, "big", signed=True),
                  int(cy * 1000).to_bytes(8, "big", signed=True))
        n_ch = 4 + (h % 8)
        channels = []
        for i in range(n_ch):
            hi = H_int("spectrumdb/ch", h.to_bytes(32, "big"), i.to_bytes(2, "big"))
            freq = 3_550_000_000 + (hi % 150) * 1_000_000  # CBRS-like band
            eirp = 20.0 + (hi >> 16) % 200 / 10.0
            channels.append(Channel(freq, eirp))
        return SpectrumRecord(cell_x=cx, cell_y=cy,
                              valid_from=0, valid_until=2 ** 48,
                              max_devices=64, device_mask=0xFF,
                              channels=tuple(channels))
