"""NumPy's ``SeedSequence`` and ``PCG64`` raw stream, bit for bit, in Python and numpy.

NumPy promises that a fixed seed's raw PCG64 words stay the same across
versions (NEP 19), so sessions and tomography draw only those words, and this
module makes them without importing ``numpy.random``.  ``PCG64(seed,
spawn_key)`` equals ``np.random.PCG64(np.random.SeedSequence(seed,
spawn_key=spawn_key))``, and its ``jumped(j)`` equals NumPy's ``jumped(j)``.
:func:`uniform` is the package's one map from words to floats, NumPy's own.

PCG64 is the 128-bit LCG ``s -> MULT s + inc`` with the XSL-RR output of each
new state.  After ``j`` steps from ``s`` the state is ``A_j s + G_j inc`` (mod
2^128), with ``A_j = MULT^j`` and ``G_j = 1 + MULT + ... + MULT^(j-1)``, so a
tile of up to ``_TILE`` words is one vectorised product with the tables of
``A_j`` and ``G_j``, built on first use by doubling and never at import.  A
jump of ``_JUMP`` steps is one such step with ``A`` and ``G`` of that length.
"""

from __future__ import annotations

import copy
import functools
import operator

import numpy as np

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1

# SeedSequence's hash constants and its pool of four 32-bit words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

_MULT = 0x2360ED051FC65DA44385DF649FCCF645   # PCG's default 128-bit multiplier
_TILE = 4096                                  # words per vectorised step
_JUMP = 210306068529402873165736369884012333109   # steps per jump of NumPy's ``jumped``

_U32, _U58, _U63, _U64 = np.uint64(32), np.uint64(58), np.uint64(63), np.uint64(64)
_LOW32 = np.uint64(_M32)


def uniform(words: np.ndarray) -> np.ndarray:
    """Floats in [0, 1) from raw 64-bit words: each word's top 53 bits times
    2^-53, the map ``Generator.random`` applies to the same words."""
    out = (words >> 11).astype(float)
    out *= 2.0 ** -53
    return out


def check_seed(seed) -> None:
    """Refuse a config's seed unless it is a non-negative int (a bool is refused)."""
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _words32(value) -> list[int]:
    """A non-negative integer as little-endian 32-bit words, at least one."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _M32]
    while value >> 32:
        value >>= 32
        words.append(value & _M32)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's hash of successive 32-bit words under a running constant."""
    def hash32(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hash32


def _mix(x: int, y: int) -> int:
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return value ^ value >> 16


def seed_state(entropy: int, spawn_key=()) -> list[int]:
    """``SeedSequence(entropy, spawn_key=spawn_key).generate_state(4, np.uint64)``
    as Python ints."""
    run = _words32(entropy)
    spawn = [word for key in spawn_key for word in _words32(key)]
    if spawn:   # NumPy pads the entropy to the pool's size only beside a spawn key
        run += [0] * (_POOL_SIZE - len(run))
    words = run + spawn
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in (words + [0] * _POOL_SIZE)[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    output = _hasher(_INIT_B, _MULT_B)
    state = [output(pool[i % _POOL_SIZE]) for i in range(8)]
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


def _mul_add(table, x: int, add_hi, add_lo):
    """``table * x + add`` mod 2^128 as ``(hi, lo)`` uint64 arrays, for a table
    of 128-bit values held as ``(hi, lo, lo % 2^32, lo >> 32)`` arrays and an
    addend of uint64 halves (arrays or scalars).  It holds three arrays of the
    table's length at a time."""
    hi, lo, lo0, lo1 = table
    x_hi, x_lo = np.uint64(x >> 64), np.uint64(x & _M64)
    x0, x1 = np.uint64(x & _M32), np.uint64(x >> 32 & _M32)
    # the high word of lo * x_lo, from the four 32 x 32-bit products
    t = lo0 * x0
    t >>= _U32
    u = lo1 * x0
    t += u
    np.multiply(lo0, x1, out=u)
    out_hi = t & _LOW32
    u += out_hi
    t >>= _U32
    u >>= _U32
    np.multiply(lo1, x1, out=out_hi)
    out_hi += t
    out_hi += u
    out_hi += np.multiply(lo, x_hi, out=u)
    out_hi += np.multiply(hi, x_lo, out=u)
    out_lo = np.multiply(lo, x_lo, out=t)
    out_lo += add_lo
    out_hi += add_hi
    out_hi += out_lo < add_lo   # the carry
    return out_hi, out_lo


def _table(hi, lo) -> tuple:
    return hi, lo, lo & _LOW32, lo >> _U32


def _int(pair, i) -> int:
    """Entry ``i`` of a ``(hi, lo, ...)`` array pair as one 128-bit int."""
    return int(pair[0][i]) << 64 | int(pair[1][i])


_ZERO = np.uint64(0)


@functools.cache
def _tables():
    """The read-only tables of ``A_j`` and ``G_j`` for ``j = 1 .. _TILE``, built
    on the first call by doubling: ``A_(m+i) = A_i A_m``, ``G_(m+i) = G_i A_m + G_m``."""
    powers = (np.array([_MULT >> 64], np.uint64), np.array([_MULT & _M64], np.uint64))
    sums = (np.zeros(1, np.uint64), np.ones(1, np.uint64))
    while len(powers[0]) < _TILE:
        a_m = _int(powers, -1)
        more_powers = _mul_add(_table(*powers), a_m, _ZERO, _ZERO)
        more_sums = _mul_add(_table(*sums), a_m, sums[0][-1], sums[1][-1])
        powers = tuple(map(np.concatenate, zip(powers, more_powers)))
        sums = tuple(map(np.concatenate, zip(sums, more_sums)))
    tables = _table(*powers), _table(*sums)
    for column in (*tables[0], *tables[1]):
        column.setflags(write=False)
    return tables


@functools.cache
def _advance(steps: int) -> tuple[int, int]:
    """``(A_steps, G_steps)`` mod 2^128, by squaring (Brown, "Random number
    generation with arbitrary strides", 1994): the state after ``steps``
    steps from ``s`` is ``A_steps s + G_steps inc``."""
    mult, plus = 1, 0              # A and G of the steps taken so far
    cur_mult, cur_plus = _MULT, 1  # A and G of 2^i steps
    while steps:
        if steps & 1:
            mult = mult * cur_mult & _M128
            plus = (plus * cur_mult + cur_plus) & _M128
        cur_plus = (cur_mult + 1) * cur_plus & _M128
        cur_mult = cur_mult * cur_mult & _M128
        steps >>= 1
    return mult, plus


class PCG64:
    """The PCG64 bit generator seeded as ``np.random.PCG64(SeedSequence(seed,
    spawn_key=spawn_key))``; ``random_raw`` gives its raw 64-bit words."""

    def __init__(self, seed: int, spawn_key=()):
        state_hi, state_lo, inc_hi, inc_lo = seed_state(seed, spawn_key)
        self._inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _M128
        self._state = ((self._inc + (state_hi << 64 | state_lo)) * _MULT + self._inc) & _M128
        self._offsets = None   # G_j inc for j = 1 .. _TILE, as (hi, lo)

    def _offset_table(self):
        if self._offsets is None:
            self._offsets = _mul_add(_tables()[1], self._inc, _ZERO, _ZERO)
        return self._offsets

    def jumped(self, jumps: int = 1) -> "PCG64":
        """A new generator ``jumps * _JUMP`` steps (mod 2^128) ahead of this
        one, as ``np.random.PCG64.jumped`` makes it.  It shares this
        generator's increment and its table of ``G_j inc``, which neither
        generator writes, so a chain of jumps builds that table once."""
        twin = copy.copy(self)
        twin._offsets = self._offset_table()
        mult, plus = _advance(_JUMP * operator.index(jumps) & _M128)
        twin._state = (mult * self._state + plus * self._inc) & _M128
        return twin

    def random_raw(self, size=None):
        """The next raw words: one Python int for ``size`` None, else a uint64
        array of shape ``size``."""
        out = np.empty(() if size is None else size, dtype=np.uint64)
        flat = out.reshape(-1)
        for start in range(0, len(flat), _TILE):
            self._fill(flat[start:start + _TILE])
        return int(out) if size is None else out

    def _fill(self, out) -> None:
        """Write the next ``len(out) <= _TILE`` words into ``out``."""
        n = len(out)
        c_hi, c_lo = self._offset_table()
        hi, lo = _mul_add([column[:n] for column in _tables()[0]], self._state, c_hi[:n], c_lo[:n])
        self._state = _int((hi, lo), -1)
        # XSL-RR: the xor of the state's halves, rotated right by its top 6 bits
        lo ^= hi
        hi >>= _U58
        np.right_shift(lo, hi, out=out)
        np.subtract(_U64, hi, out=hi)
        hi &= _U63
        lo <<= hi
        out |= lo
