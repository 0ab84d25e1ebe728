"""The package's PCG64 against NumPy's, the reference: the same words for
every seed, spawn key and size, the same floats from ``uniform`` as from
``Generator.random``, and the same keys from ``distil``."""

import numpy as np
import pytest

from qkdlab.pcg64 import PCG64, check_seed, seed_state, uniform
from qkdlab.protocol import SessionConfig, distil
from qkdlab.tomography import TomoConfig

SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64, 10 ** 400]
SPAWN_KEYS = [(), (1,), (0, 0), (0, 1), (0, 2 ** 16)]
SIZES = [None, 1, 4095, 4096, 4097, (4096, 2), 10 ** 5]


def _reference(seed, spawn_key=()):
    return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=spawn_key))


@pytest.mark.parametrize("spawn_key", SPAWN_KEYS, ids=str)
@pytest.mark.parametrize("seed", SEEDS, ids=["0", "1", "2^32-1", "2^32", "2^64", "10^400"])
def test_raw_words_equal_numpy(seed, spawn_key):
    want = np.random.SeedSequence(seed, spawn_key=spawn_key).generate_state(4, np.uint64)
    assert seed_state(seed, spawn_key) == want.tolist()
    for size in SIZES:
        got = PCG64(seed, spawn_key).random_raw(size)
        ref = _reference(seed, spawn_key).random_raw(size)
        assert type(got) is type(ref), size
        if size is not None:
            assert got.dtype == np.uint64 and got.shape == ref.shape, size
        assert np.array_equal(got, ref), size


def test_successive_calls_continue_the_stream():
    got, ref = PCG64(7, (0, 3)), _reference(7, (0, 3))
    for size in (3, 4096, None, 1, 8193, (5, 2), 4095, None, 10 ** 4):
        assert np.array_equal(got.random_raw(size), ref.random_raw(size)), size


JUMPS = [1, 2, 7, 2 ** 20]


@pytest.mark.parametrize("spawn_key", SPAWN_KEYS, ids=str)
@pytest.mark.parametrize("seed", SEEDS, ids=["0", "1", "2^32-1", "2^32", "2^64", "10^400"])
def test_jumped_words_equal_numpy(seed, spawn_key):
    for jumps in JUMPS:
        got = PCG64(seed, spawn_key).jumped(jumps)
        ref = _reference(seed, spawn_key).jumped(jumps)
        for size in (None, 1, 4097, 10 ** 5):
            assert np.array_equal(got.random_raw(size), ref.random_raw(size)), (jumps, size)


def test_jumped_continues_from_the_position_and_shares_the_offsets():
    got, ref = PCG64(9, (0,)), _reference(9, (0,))
    assert np.array_equal(got.random_raw(5000), ref.random_raw(5000))
    twin, ref_twin = got.jumped(), ref.jumped()
    chained, ref_chained = twin.jumped(3), ref_twin.jumped(3)
    for size in (3, 4096, None):
        assert np.array_equal(twin.random_raw(size), ref_twin.random_raw(size))
        assert np.array_equal(chained.random_raw(size), ref_chained.random_raw(size))
    # the parent goes on from where it was
    assert np.array_equal(got.random_raw(4097), ref.random_raw(4097))
    # one table of G_j inc serves the whole chain
    assert twin._offsets is got._offsets and chained._offsets is got._offsets


@pytest.mark.parametrize("seed", [0, 1, 2 ** 40, 10 ** 30], ids=["0", "1", "2^40", "10^30"])
def test_uniform_equals_generator_random(seed):
    for size in (1, 4097, 10 ** 5):
        got = uniform(PCG64(seed).random_raw(size))
        want = np.random.Generator(np.random.PCG64(seed)).random(size)
        assert got.dtype == want.dtype and np.array_equal(got.view(np.uint64),
                                                           want.view(np.uint64)), size


@pytest.mark.parametrize("seed, spawn_key", [(-1, ()), (1, (0, -1)), (-(2 ** 64), (1,))])
def test_negative_entropy_or_spawn_word_is_refused_as_numpy_refuses_it(seed, spawn_key):
    with pytest.raises(ValueError, match="non-negative"):
        np.random.SeedSequence(seed, spawn_key=spawn_key)
    with pytest.raises(ValueError, match="non-negative"):
        PCG64(seed, spawn_key)


def test_non_integer_entropy_is_refused():
    with pytest.raises(TypeError):
        PCG64(1.5)
    with pytest.raises(TypeError):
        PCG64(1, (0.5,))


@pytest.mark.parametrize("generator", [PCG64, np.random.PCG64], ids=["package", "numpy"])
def test_distil_draws_the_same_key_from_either_generator(generator):
    data = np.random.default_rng(12)
    alice = data.integers(0, 2, 6000, dtype=np.uint8)
    bob = alice ^ (data.random(6000) < 0.03).astype(np.uint8)
    want = distil(alice, bob, PCG64(5))
    got = distil(alice, bob, generator(5))
    assert not want.aborted and len(want.final_key) > 0
    assert np.array_equal(got.final_key, want.final_key)
    assert ((got.qber_estimate, got.abort_reason, got.leaked_bits, got.residual_errors)
            == (want.qber_estimate, want.abort_reason, want.leaked_bits, want.residual_errors))


@pytest.mark.parametrize("seed", [-1, 1.5, True, False, "3", None, np.int64(3)],
                         ids=["-1", "1.5", "True", "False", "str", "None", "np.int64"])
@pytest.mark.parametrize("config", [SessionConfig, TomoConfig])
def test_a_config_refuses_a_seed_that_is_not_a_non_negative_int(config, seed):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        config(seed=seed)


def test_check_seed_takes_any_non_negative_int():
    for seed in (0, 1, 2 ** 64, 10 ** 400):
        check_seed(seed)
    assert SessionConfig(seed=10 ** 400).seed == 10 ** 400
