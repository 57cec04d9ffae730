"""Bit-level line coding: LSB-first serialization, bit stuffing, NRZI.

The differential bus has three states: J (idle mark), K, and SE0 (both
lines low, used only by the end-of-packet pattern). NRZI maps a '0' bit
to a state toggle and a '1' bit to no change, so receivers recover timing
from transitions; stuffing inserts a '0' after six consecutive '1's to
bound the gap between transitions.
"""

from __future__ import annotations

import enum
from typing import Iterable, Sequence

from .errors import FramingError, MalformedStreamError

MAX_ONES_RUN = 6


class LineState(enum.IntEnum):
    J = 0
    K = 1
    SE0 = 2


# Differential voltage sign per state: J drives the pair one way, K the
# other, SE0 holds both lines low.
DIFFERENTIAL_LEVEL = {LineState.J: 1.0, LineState.K: -1.0, LineState.SE0: 0.0}

EOP_STATES = (LineState.SE0, LineState.SE0, LineState.J)


def bits_from_bytes(data: bytes | Sequence[int]) -> list[int]:
    """Serialize bytes LSB-first, the transmission order for every field."""
    return [(byte >> i) & 1 for byte in data for i in range(8)]


def bits_from_int(value: int, width: int) -> list[int]:
    return [(value >> i) & 1 for i in range(width)]


def int_from_bits(bits: Sequence[int]) -> int:
    return sum(b << i for i, b in enumerate(bits))


def bit_stuff(bits: Sequence[int]) -> tuple[int, ...]:
    """Insert a '0' after every run of six '1's.

    The insertion fires even when the run ends the stream, so a trailing
    111111 becomes 1111110.
    """
    out: list[int] = []
    run = 0
    for b in bits:
        out.append(b)
        if b:
            run += 1
            if run == MAX_ONES_RUN:
                out.append(0)
                run = 0
        else:
            run = 0
    return tuple(out)


def bit_destuff(bits: Sequence[int]) -> tuple[int, ...]:
    """Remove stuffed zeros; inverse of bit_stuff on its image."""
    out: list[int] = []
    run = 0
    skip_next = False
    for b in bits:
        if skip_next:
            if b != 0:
                raise MalformedStreamError("expected stuffed '0' after six ones")
            skip_next = False
            run = 0
            continue
        out.append(b)
        if b:
            run += 1
            if run == MAX_ONES_RUN:
                skip_next = True
        else:
            run = 0
    return tuple(out)


def nrzi_encode(
    bits: Sequence[int], initial: LineState = LineState.J
) -> list[LineState]:
    """NRZI: '0' toggles the J/K state, '1' holds it. One symbol per bit."""
    j, k = LineState.J, LineState.K  # locals: class lookups per bit cost 4x
    state = initial
    symbols = []
    for b in bits:
        if b == 0:
            state = k if state == j else j
        symbols.append(state)
    return symbols


def nrzi_decode(
    symbols: Iterable[LineState], initial: LineState = LineState.J
) -> tuple[int, ...]:
    """Inverse of nrzi_encode; SE0 inside the payload is a framing error."""
    prev = initial
    bits = []
    for sym in symbols:
        if sym == LineState.SE0:
            raise FramingError("SE0 inside packet payload")
        bits.append(1 if sym == prev else 0)
        prev = sym
    return tuple(bits)

