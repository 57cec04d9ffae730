"""USB 2.0 token and data CRCs.

Both CRCs are seeded with all ones and transmitted complemented. Values
here use the reflected (LSB-first) convention throughout, so the integer's
least significant bit is the first bit on the wire, same as every other
field in a packet.

CRC5: generator x^5 + x^2 + 1 over the 11 token bits (7-bit address +
4-bit endpoint). CRC16: generator x^16 + x^15 + x^2 + 1 over the data
payload bits.
"""

from __future__ import annotations

from typing import Iterable, Sequence

_POLY5_REFLECTED = 0x14  # x^5 + x^2 + 1
_POLY16_REFLECTED = 0xA001  # x^16 + x^15 + x^2 + 1

# Register value left after running a correct field+CRC back through the
# update loop (without the output complement). Constant for all inputs;
# checked in the test suite against an independent long-division oracle.
CRC5_RESIDUAL = 0x06
CRC16_RESIDUAL = 0xB001


def _update(crc: int, bits: Iterable[int], poly: int) -> int:
    for b in bits:
        if (crc ^ b) & 1:
            crc = (crc >> 1) ^ poly
        else:
            crc >>= 1
    return crc


def crc5(bits: Sequence[int]) -> int:
    """CRC5 of exactly 11 token bits, in wire order."""
    if len(bits) != 11:
        raise ValueError(f"token CRC covers exactly 11 bits, got {len(bits)}")
    return _update(0x1F, bits, _POLY5_REFLECTED) ^ 0x1F


def _build_table16() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ _POLY16_REFLECTED if crc & 1 else crc >> 1
        table.append(crc)
    return table


_TABLE16 = _build_table16()


def crc16(payload: bytes) -> int:
    """CRC16 of a data payload (byte-wise table driven)."""
    crc = 0xFFFF
    for byte in payload:
        crc = (crc >> 8) ^ _TABLE16[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFF


def crc5_residual(bits_with_crc: Sequence[int]) -> int:
    """Register state after re-dividing field+CRC; equals CRC5_RESIDUAL when intact."""
    return _update(0x1F, bits_with_crc, _POLY5_REFLECTED)


def crc16_residual(bits_with_crc: Iterable[int]) -> int:
    """Register state after re-dividing payload+CRC; equals CRC16_RESIDUAL when intact."""
    return _update(0xFFFF, bits_with_crc, _POLY16_REFLECTED)
