import numpy as np
import pytest

from qkdlab import otp


def test_single_bit_truth_table():
    for a, b, want in ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)):
        assert otp.encrypt([a], [b]).tolist() == [want]


def test_worked_example_roundtrip():
    data = otp.as_bits("1010")
    key = otp.as_bits("0110")
    cipher = otp.encrypt(data, key)
    assert cipher.tolist() == [1, 1, 0, 0]
    assert otp.decrypt(cipher, key).tolist() == data.tolist()


def test_zero_key_is_identity():
    data = otp.as_bits("110100111")
    assert otp.encrypt(data, np.zeros(9, np.uint8)).tolist() == data.tolist()


def test_involution_random_pairs(rng):
    for _ in range(1000):
        n = int(rng.integers(1, 64))
        data = rng.integers(0, 2, n).astype(np.uint8)
        key = rng.integers(0, 2, n).astype(np.uint8)
        assert otp.encrypt(otp.encrypt(data, key), key).tolist() == data.tolist()


def test_short_key_refused():
    with pytest.raises(ValueError, match="key too short"):
        otp.encrypt(np.ones(8, np.uint8), np.ones(7, np.uint8))


def test_excess_key_prefix_consumed():
    data = otp.as_bits("1111")
    key = otp.as_bits("10100000")
    assert otp.encrypt(data, key).tolist() == [0, 1, 0, 1]


def test_ciphertext_uniform_under_random_keys(rng):
    # chi-square on the two bit frequencies; 1 dof critical value at the
    # 0.001 level is 10.828
    data = otp.as_bits("1")
    n = 10000
    ones = sum(int(otp.encrypt(data, rng.integers(0, 2, 1).astype(np.uint8))[0])
               for _ in range(n))
    zeros = n - ones
    chi2 = (ones - n / 2) ** 2 / (n / 2) + (zeros - n / 2) ** 2 / (n / 2)
    assert chi2 < 10.828


def test_text_encoding_msb_first():
    bits = otp.text_to_bits("Q")  # 0x51 = 0101 0001
    assert bits.tolist() == [0, 1, 0, 1, 0, 0, 0, 1]
    assert np.packbits(bits).tobytes().decode("utf-8") == "Q"


def _nibble_hex(bits) -> str:
    """Reference codec: one digit per 4 bits, the tail zero-padded."""
    padded = [int(b) for b in bits] + [0] * (-len(bits) % 4)
    return "".join(f"{8 * a + 4 * b + 2 * c + d:x}" for a, b, c, d in zip(*[iter(padded)] * 4))


def test_hex_encoding_roundtrip(rng):
    assert otp.hex_to_bits("a5").tolist() == [1, 0, 1, 0, 0, 1, 0, 1]
    assert otp.bits_to_hex([1, 0, 1, 0, 0, 1, 0, 1]) == "a5"
    assert otp.bits_to_hex([1, 0, 1]) == "a"  # tail zero-padded to a nibble
    assert otp.bits_to_hex([]) == ""
    for n in range(70):
        bits = rng.integers(0, 2, n).astype(np.uint8)
        digits = otp.bits_to_hex(bits)
        assert digits == _nibble_hex(bits)
        assert otp.hex_to_bits(digits).tolist() == bits.tolist() + [0] * (-n % 4)
    # odd digit count, upper case and surrounding whitespace are accepted
    assert otp.hex_to_bits(" \tA5F\n").tolist() == [1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 1, 1]
    assert otp.hex_to_bits("").tolist() == []
    for bad in ("a b", "a5 b6 c7", "0x1f", "g"):
        with pytest.raises(ValueError):
            otp.hex_to_bits(bad)


def test_as_bits_validation():
    with pytest.raises(ValueError):
        otp.as_bits([0, 2, 1])


@pytest.mark.parametrize("bits", [
    [0.5, 1.7], [1.0, 0.9], [-1], [0, 1, 256], [float("nan")], "01 1", "012", "0b1",
    ["0", "1"], [[0, 1], [1, 0]], [1 + 0j]])
def test_as_bits_rejects_anything_but_exact_zeros_and_ones(bits):
    # fractions would truncate to bits, -1 and 256 would wrap to uint8
    with pytest.raises(ValueError, match="^bits must be a flat sequence of 0s and 1s$"):
        otp.as_bits(bits)


def test_as_bits_accepts_exact_zeros_and_ones():
    for bits in ("0110", [0, 1, 1, 0], [0.0, 1.0, 1.0, 0.0], [False, True, True, False],
                 np.array([0, 1, 1, 0], dtype=np.int64)):
        out = otp.as_bits(bits)
        assert out.dtype == np.uint8 and out.tolist() == [0, 1, 1, 0]
    assert otp.as_bits("").tolist() == otp.as_bits([]).tolist() == []


def test_fractional_key_is_refused_not_truncated():
    # truncated, [0.6, 0.2] would be the key 00 and leave the data in clear
    with pytest.raises(ValueError, match="0s and 1s"):
        otp.encrypt([1, 1], [0.6, 0.2])
    with pytest.raises(ValueError, match="0s and 1s"):
        otp.bits_to_hex([0.5, 1.0])
