"""CRC checks against an independent long-division oracle.

The oracle (tests/oracle.py) performs explicit GF(2) polynomial division
MSB-first; the production code uses a reflected shift register (CRC5) and
a byte table (CRC16). Agreement across formulations plus the residual
property pin the conventions.
"""

import numpy as np
import pytest

from emanakey import crc5, crc16
from emanakey.crc import (
    CRC5_RESIDUAL,
    CRC16_RESIDUAL,
    crc5_residual,
    crc16_residual,
)
from emanakey.bits import bits_from_bytes, bits_from_int

from oracle import crc5_oracle, crc16_oracle


def test_crc5_frozen_values():
    assert crc5([0] * 11) == 0x02
    assert crc5(bits_from_int(1, 7) + bits_from_int(1, 4)) == 0x0B


def test_crc5_catalog_check_value():
    # Standard catalog check input "123456789", bit-serial over 72 bits.
    bits = bits_from_bytes(b"123456789")
    from emanakey.crc import _POLY5_REFLECTED, _update

    assert (_update(0x1F, bits, _POLY5_REFLECTED) ^ 0x1F) == 0x19


def test_crc16_catalog_check_value():
    assert crc16(b"123456789") == 0xB4C8


def test_crc16_frozen_values():
    assert crc16(b"") == 0x0000  # complement of the all-ones seed
    assert crc16(bytes([0x00, 0x00, 0x04, 0, 0, 0, 0, 0])) == 0x70BE


def test_crc5_exhaustive_oracle_agreement():
    for value in range(2**11):
        bits = bits_from_int(value, 11)
        assert crc5(bits) == crc5_oracle(bits), f"disagree at {value:#05x}"


def test_crc16_random_oracle_agreement():
    rng = np.random.default_rng(1905)
    for _ in range(2000):
        payload = bytes(rng.integers(0, 256, size=rng.integers(0, 9)))
        assert crc16(payload) == crc16_oracle(payload)


def test_crc5_residual_constant():
    rng = np.random.default_rng(11)
    for _ in range(500):
        bits = list(rng.integers(0, 2, size=11))
        full = bits + bits_from_int(crc5(bits), 5)
        assert crc5_residual(full) == CRC5_RESIDUAL


def test_crc16_residual_constant():
    rng = np.random.default_rng(13)
    for _ in range(500):
        payload = bytes(rng.integers(0, 256, size=rng.integers(0, 9)))
        full = bits_from_bytes(payload) + bits_from_int(crc16(payload), 16)
        assert crc16_residual(full) == CRC16_RESIDUAL


def test_corrupted_stream_fails_residual():
    bits = bits_from_int(0x2A5, 11)
    full = bits + bits_from_int(crc5(bits), 5)
    full[3] ^= 1
    assert crc5_residual(full) != CRC5_RESIDUAL


def test_crc5_requires_eleven_bits():
    with pytest.raises(ValueError):
        crc5([0] * 10)
    with pytest.raises(ValueError):
        crc5([0] * 12)
