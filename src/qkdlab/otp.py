"""One-time-pad messaging with the distilled key.

Bits are numpy uint8 arrays.  Text encodes as 8-bit bytes, most significant
bit first; hex digits map to 4-bit groups the same way.  Encryption is
bitwise XOR against a strict key prefix: a key shorter than the data is
refused outright (no reuse, no padding), and a longer key is consumed
exactly ``len(data)`` bits from the front.
"""

from __future__ import annotations

import re

import numpy as np

_NOT_BITS = "bits must be a flat sequence of 0s and 1s"


def as_bits(bits) -> np.ndarray:
    """Coerce a bit sequence ('0101', [0,1,...] or array) to uint8 bits.

    Every element must equal 0 or 1 exactly; anything else, such as 0.5, -1
    or a character other than '0' and '1', raises ValueError rather than
    being cast to a bit.
    """
    if isinstance(bits, str):
        if not set(bits) <= {"0", "1"}:
            raise ValueError(_NOT_BITS)
        bits = [int(c) for c in bits]
    arr = np.asarray(bits)
    if (arr.ndim != 1 or arr.dtype.kind not in "buif"
            or not np.all((arr == 0) | (arr == 1))):
        raise ValueError(_NOT_BITS)
    return arr.astype(np.uint8, copy=False)


def text_to_bits(text: str) -> np.ndarray:
    return np.unpackbits(np.frombuffer(text.encode("utf-8"), dtype=np.uint8))


def hex_to_bits(hex_string: str) -> np.ndarray:
    """Bits of the hex digits in ``hex_string``, 4 per digit.  Surrounding
    whitespace is ignored, either case is accepted and the digit count may be
    odd; any other character raises ValueError."""
    digits = hex_string.strip()
    if not re.fullmatch("[0-9a-fA-F]*", digits):
        raise ValueError(f"not a hex string: {hex_string!r}")
    packed = np.frombuffer(bytes.fromhex(digits + "0" * (len(digits) % 2)), dtype=np.uint8)
    return np.unpackbits(packed)[:4 * len(digits)]


def bits_to_hex(bits) -> str:
    """Lowercase hex; the tail is zero-padded to a whole nibble, so callers
    that need exact lengths should record the bit count separately."""
    bits = as_bits(bits)
    return np.packbits(bits).tobytes().hex()[:(len(bits) + 3) // 4]


def encrypt(data, key) -> np.ndarray:
    """XOR the data against the first ``len(data)`` key bits."""
    data = as_bits(data)
    key = as_bits(key)
    if len(key) < len(data):
        raise ValueError(
            f"key too short ({len(key)} bits) for {len(data)} data bits: "
            "a one-time pad is never reused or padded")
    return data ^ key[:len(data)]


def decrypt(cipher, key) -> np.ndarray:
    """XOR is an involution, so decryption is encryption."""
    return encrypt(cipher, key)

