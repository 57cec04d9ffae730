"""Independent reference implementations used only to check the package.

The CRC oracle is classic polynomial long division over GF(2), written
MSB-first with an explicit dividend array: structurally unrelated to the
package's reflected shift/table implementations. Seeding with all ones is
realized by XOR-ing the first w dividend bits; the complemented remainder
is read off MSB-first and reversed into the package's LSB-first integer
convention.

The edge, radiation and interference oracles are the straightforward
per-slot, per-edge and per-tone loops: walk the line states comparing each
with its predecessor, add one pulse at a time into the output window, and
evaluate each tone's cosine at its own phase.
"""

from __future__ import annotations

import math

import numpy as np

from emanakey.bits import DIFFERENTIAL_LEVEL, LineState
from emanakey.channel import (
    DEFAULT_PAD_S,
    DEFAULT_SAMPLE_RATE,
    Interferer,
    PulseShape,
)
from emanakey.edges import EdgeSeries
from emanakey.frames import Frame


def _long_division(bits: list[int], poly_msb_first: list[int], width: int) -> list[int]:
    dividend = list(bits) + [0] * width
    for i in range(min(width, len(dividend))):
        dividend[i] ^= 1  # all-ones initial remainder
    for i in range(len(bits)):
        if dividend[i]:
            for j, p in enumerate(poly_msb_first):
                dividend[i + j] ^= p
    return dividend[len(bits) :]


def crc5_oracle(bits: list[int]) -> int:
    """CRC5 (x^5+x^2+1) as an LSB-first integer, complemented."""
    remainder = _long_division(list(bits), [1, 0, 0, 1, 0, 1], 5)
    wire = [1 - b for b in remainder]  # complement, MSB-first == wire order
    value = 0
    for i, b in enumerate(wire):
        value |= b << i
    return value


def crc16_oracle_bits(bits: list[int]) -> int:
    """CRC16 (x^16+x^15+x^2+1) as an LSB-first integer, complemented."""
    poly = [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1]
    remainder = _long_division(list(bits), poly, 16)
    wire = [1 - b for b in remainder]
    value = 0
    for i, b in enumerate(wire):
        value |= b << i
    return value


def crc16_oracle(payload: bytes) -> int:
    bits = [(byte >> i) & 1 for byte in payload for i in range(8)]
    return crc16_oracle_bits(bits)


def stuff_oracle(bits: list[int]) -> list[int]:
    """Bit stuffing by regex-free scanning, kept deliberately naive."""
    out: list[int] = []
    ones = 0
    for b in bits:
        out.append(b)
        ones = ones + 1 if b == 1 else 0
        if ones == 6:
            out.append(0)
            ones = 0
    return out


def agreement_score_oracle(detected: list[int], reference: list[int]) -> float:
    """Plain per-slot agreement over the reference length, zero-padded."""
    agree = 0
    for i, ref_bit in enumerate(reference):
        det_bit = detected[i] if i < len(detected) else 0
        agree += det_bit == ref_bit
    return agree / len(reference)


def edge_signs_oracle(frame: Frame, window: str = "capture") -> np.ndarray:
    """Per-slot sign of the level change, walking states from idle J."""
    states = frame.slot_states(window)
    prev = LineState.J
    signs = np.zeros(len(states), dtype=np.int8)
    for i, s in enumerate(states):
        if s != prev:
            delta = DIFFERENTIAL_LEVEL[s] - DIFFERENTIAL_LEVEL[prev]
            signs[i] = 1 if delta > 0 else -1
        prev = s
    return signs


def radiate_oracle(
    source: Frame | EdgeSeries,
    pulse: PulseShape | None = None,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
    pad_before: float = DEFAULT_PAD_S,
    pad_after: float = DEFAULT_PAD_S,
) -> np.ndarray:
    """One pulse per edge, added into the window edge by edge."""
    pulse = pulse or PulseShape()
    if isinstance(source, Frame):
        signs = edge_signs_oracle(source)
        bit = source.bit_time
    else:
        signs = source.slots.astype(np.int8)
        bit = source.bit_width
    n = int(round((signs.size * bit + pad_before + pad_after) * sample_rate))
    out = np.zeros(n, dtype=np.float64)
    half = pulse.support_sigmas * pulse.sigma
    for slot in np.flatnonzero(signs):
        t_edge = pad_before + slot * bit
        lo = max(0, int(math.ceil((t_edge - half) * sample_rate)))
        hi = min(n, int(math.floor((t_edge + half) * sample_rate)) + 1)
        if lo >= hi:
            continue
        t_local = np.arange(lo, hi) / sample_rate - t_edge
        out[lo:hi] += float(signs[slot]) * pulse.waveform(t_local)
    return out


def interference_oracle(
    interferer: Interferer, n: int, sample_rate: float, rng: np.random.Generator
) -> np.ndarray:
    """Tone or 16-tone comb, one cosine per tone at its drawn phase."""
    nyquist_guard = 0.48 * sample_rate
    t = np.arange(n) / sample_rate
    if interferer.bandwidth_hz <= 0:
        if interferer.center_hz >= nyquist_guard:
            return np.zeros(n)
        amp = math.sqrt(2.0 * interferer.power)
        phase = rng.uniform(0, 2 * np.pi)
        return amp * np.cos(2 * np.pi * interferer.center_hz * t + phase)
    m = 16
    freqs = np.linspace(
        interferer.center_hz - interferer.bandwidth_hz / 2,
        interferer.center_hz + interferer.bandwidth_hz / 2,
        m,
    )
    phases = rng.uniform(0, 2 * np.pi, m)
    amp = math.sqrt(2.0 * interferer.power / m)
    out = np.zeros(n)
    for f, ph in zip(freqs, phases):
        if f < nyquist_guard:
            out += amp * np.cos(2 * np.pi * f * t + ph)
    return out
