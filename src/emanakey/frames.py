"""Bit-exact USB 2.0 full-speed keystroke transactions.

A keystroke report travels as an interrupt-IN transaction: the host sends
an IN token, the keyboard answers with a DATA0/DATA1 packet carrying the
8-byte report, and the host acknowledges with ACK. Every packet opens with
the 8-bit SYNC pattern and token/data packets close with their CRC; the
serialized packet is bit-stuffed as one stream, NRZI-encoded from the idle
J state, and terminated by the SE0-SE0-J end-of-packet pattern.

The emanation capture window used throughout the package is the keystroke-
bearing span of the transaction: DATA packet through ACK, the part a
handshake-anchored capture sees. The IN token is still part of the frame
and can be included via ``window="full"``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from . import crc
from .bits import (
    EOP_STATES,
    LineState,
    bit_stuff,
    bits_from_bytes,
    bits_from_int,
    nrzi_encode,
)
from .keys import KeyId, hid_report_for_key

FULL_SPEED_BIT_RATE = 12e6
FRAME_BUDGET_S = 80e-6
SYNC_BITS = (0, 0, 0, 0, 0, 0, 0, 1)

ADDRESS = 1
ENDPOINT = 1
DEFAULT_GAP_BITS = 2


class PacketKind(enum.Enum):
    SOF = 0xA5
    IN = 0x69
    DATA0 = 0xC3
    DATA1 = 0x4B
    ACK = 0xD2
    NAK = 0x5A

    @property
    def pid_byte(self) -> int:
        return self.value


_TOKEN_KINDS = {PacketKind.IN, PacketKind.SOF}
_DATA_KINDS = {PacketKind.DATA0, PacketKind.DATA1}


@dataclass(frozen=True)
class Packet:
    """One packet: kind plus its pre-stuffing field content.

    Tokens carry address+endpoint (SOF reuses the 11-bit field for the
    frame number), data packets carry the payload bytes, handshakes carry
    nothing. ``crc`` is the computed check value (5-bit for tokens, 16-bit
    for data, absent for handshakes).
    """

    kind: PacketKind
    address: int | None = None
    endpoint: int | None = None
    payload: bytes | None = None
    frame_number: int | None = None

    def __post_init__(self):
        if self.kind is PacketKind.IN:
            if self.address is None or self.endpoint is None:
                raise ValueError("IN token needs address and endpoint")
            if not 0 <= self.address < 128 or not 0 <= self.endpoint < 16:
                raise ValueError("address is 7 bits, endpoint is 4 bits")
        if self.kind is PacketKind.SOF and self.frame_number is None:
            raise ValueError("SOF needs a frame number")
        if self.kind in _DATA_KINDS and self.payload is None:
            raise ValueError(f"{self.kind.name} packet needs a payload")

    def field_bits(self) -> list[int]:
        """Field content after the PID, before the CRC, in wire order."""
        if self.kind is PacketKind.SOF:
            return bits_from_int(self.frame_number, 11)
        if self.kind is PacketKind.IN:
            return bits_from_int(self.address, 7) + bits_from_int(self.endpoint, 4)
        if self.kind in _DATA_KINDS:
            return bits_from_bytes(self.payload)
        return []

    @cached_property
    def crc(self) -> int | None:
        if self.kind in _TOKEN_KINDS:
            return crc.crc5(self.field_bits())
        if self.kind in _DATA_KINDS:
            return crc.crc16(self.payload)
        return None

    def bits(self) -> tuple[int, ...]:
        """Unstuffed packet bits: SYNC, PID, fields, CRC."""
        out = list(SYNC_BITS) + bits_from_int(self.kind.pid_byte, 8)
        out += self.field_bits()
        if self.kind in _TOKEN_KINDS:
            out += bits_from_int(self.crc, 5)
        elif self.kind in _DATA_KINDS:
            out += bits_from_int(self.crc, 16)
        return tuple(out)

    def stuffed_bits(self) -> tuple[int, ...]:
        return bit_stuff(self.bits())

    @cached_property
    def _line_states(self) -> tuple[LineState, ...]:
        # Encoded once per packet: a frame's windows all read it.
        return tuple(nrzi_encode(self.stuffed_bits())) + EOP_STATES

    def line_states(self) -> list[LineState]:
        """NRZI states for the stuffed bits plus the 3-slot EOP."""
        return list(self._line_states)


@dataclass(frozen=True)
class Frame:
    """An ordered packet sequence with inter-packet gaps, at 12 Mbps."""

    packets: tuple[Packet, ...]
    gap_bits: int = DEFAULT_GAP_BITS
    bit_rate: float = FULL_SPEED_BIT_RATE
    # Index of the first capture-window packet (the keystroke data packet).
    capture_start: int = 0

    @property
    def bit_time(self) -> float:
        return 1.0 / self.bit_rate

    def _packet_range(self, window: str) -> tuple[Packet, ...]:
        if window == "full":
            return self.packets
        if window == "capture":
            return self.packets[self.capture_start :]
        raise ValueError(f"window must be 'full' or 'capture', got {window!r}")

    def slot_states(self, window: str = "capture") -> list[LineState]:
        """Per-bit-slot line states over the window, gaps idling at J."""
        states: list[LineState] = []
        for i, packet in enumerate(self._packet_range(window)):
            if i > 0:
                states.extend([LineState.J] * self.gap_bits)
            states.extend(packet._line_states)
        return states

    def slot_count(self, window: str = "capture") -> int:
        return len(self.slot_states(window))

    @property
    def duration_s(self) -> float:
        """Full-frame duration including EOPs and gaps."""
        return self.slot_count("full") * self.bit_time


def build_keystroke_transaction(
    key: KeyId,
    data_toggle: PacketKind = PacketKind.DATA0,
    gap_bits: int = DEFAULT_GAP_BITS,
    include_sof: bool = False,
) -> Frame:
    """IN -> DATAx(report) -> ACK transaction for one keystroke.

    The keyboard sits at address 1, endpoint 1. The data toggle defaults
    to DATA0, the variant reference sets are built from. ``include_sof``
    prepends a start-of-frame token (frame number 0) for inspection
    purposes; it is not part of the capture window.
    """
    if data_toggle not in _DATA_KINDS:
        raise ValueError("data_toggle must be DATA0 or DATA1")
    report = hid_report_for_key(key)
    packets: list[Packet] = []
    if include_sof:
        packets.append(Packet(PacketKind.SOF, frame_number=0))
    packets.append(Packet(PacketKind.IN, address=ADDRESS, endpoint=ENDPOINT))
    capture_start = len(packets)
    packets.append(Packet(data_toggle, payload=report.to_bytes()))
    packets.append(Packet(PacketKind.ACK))
    frame = Frame(
        packets=tuple(packets), gap_bits=gap_bits, capture_start=capture_start
    )
    if frame.duration_s > FRAME_BUDGET_S:
        raise ValueError(
            f"frame duration {frame.duration_s * 1e6:.1f} us exceeds the "
            f"{FRAME_BUDGET_S * 1e6:.0f} us budget"
        )
    return frame
