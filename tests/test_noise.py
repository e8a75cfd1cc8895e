import numpy as np
import pytest

from sfgsim.noise import NOISES_PER_STEP, draw_block, trajectory_generator


def test_streams_are_reproducible():
    a = trajectory_generator(42, 7).standard_normal(100)
    b = trajectory_generator(42, 7).standard_normal(100)
    assert np.array_equal(a, b)


def test_streams_differ_by_trajectory_and_seed():
    a = trajectory_generator(42, 7).standard_normal(100)
    b = trajectory_generator(42, 8).standard_normal(100)
    c = trajectory_generator(43, 7).standard_normal(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def block_in_new_buffer(gens, n_steps):
    return draw_block(gens, n_steps, np.empty((len(gens), n_steps, NOISES_PER_STEP)))


def test_block_size_does_not_change_the_stream():
    gens = [trajectory_generator(1, i) for i in range(3)]
    whole = block_in_new_buffer(gens, 50)
    gens = [trajectory_generator(1, i) for i in range(3)]
    pieces = np.concatenate(
        [block_in_new_buffer(gens, n) for n in (7, 13, 30)], axis=1)
    assert np.array_equal(whole, pieces)
    assert whole.shape == (3, 50, NOISES_PER_STEP)


def test_reused_buffer_gives_the_fresh_stream():
    gens = [trajectory_generator(1, i) for i in range(3)]
    whole = block_in_new_buffer(gens, 50)
    gens = [trajectory_generator(1, i) for i in range(3)]
    buf = np.empty((3, 30, NOISES_PER_STEP))
    pieces = []
    for n in (7, 13, 30):
        block = draw_block(gens, n, out=buf)
        assert block.shape == (3, n, NOISES_PER_STEP)
        assert np.shares_memory(block, buf)
        pieces.append(block.copy())
    assert np.array_equal(whole, np.concatenate(pieces, axis=1))


def test_moments_are_plausibly_standard_normal():
    x = trajectory_generator(5, 0).standard_normal(200_000)
    assert abs(x.mean()) < 3 / np.sqrt(x.size)
    assert abs(x.std() - 1.0) < 3 / np.sqrt(2 * x.size)


# seeds and indices at both ends of their ranges
KEYS = [(0, 0), (0, 10**6), (2**64 - 1, 0), (2**64 - 1, 10**6), (42, 7)]


def philox_stream(seed, index):
    # an explicit uint64 key: a plain list holding 2**64 - 1 becomes a
    # float64 array inside Philox and casts to the key 0
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


@pytest.mark.parametrize("seed,index", KEYS)
def test_stream_is_philox_keyed_by_seed_and_index(seed, index):
    gen = trajectory_generator(seed, index)
    ref = philox_stream(seed, index)
    for _ in range(3):
        assert gen.standard_normal() == ref.standard_normal()
    assert np.array_equal(gen.standard_normal(1000), ref.standard_normal(1000))
    for word in ("counter", "key"):
        assert np.array_equal(gen.bit_generator.state["state"][word],
                              ref.bit_generator.state["state"][word])


def test_draw_block_pieces_are_the_keyed_philox_streams():
    gens = [trajectory_generator(seed, index) for seed, index in KEYS]
    refs = [philox_stream(seed, index) for seed, index in KEYS]
    buf = np.empty((len(KEYS), 30, NOISES_PER_STEP))
    for n in (7, 13, 30):
        block = draw_block(gens, n, out=buf)
        for row, ref in zip(block, refs):
            assert np.array_equal(row, ref.standard_normal((n, NOISES_PER_STEP)))


def state_words(gen):
    state = gen.bit_generator.state
    return ([state["state"][word].tolist() for word in ("counter", "key")]
            + [state["buffer"].tolist()]
            + [state[word] for word in ("buffer_pos", "has_uint32", "uinteger")])


@pytest.mark.parametrize("seed,index", KEYS)
def test_a_rekeyed_generator_is_the_fresh_keyed_stream(seed, index):
    used = trajectory_generator(9, 5)
    used.standard_normal(7)
    used.integers(2**32)
    state = used.bit_generator.state
    assert state["buffer_pos"] != 4 and state["has_uint32"] == 1  # mid-buffer, a spare word
    gen = trajectory_generator(seed, index, reuse=used)
    fresh = trajectory_generator(seed, index)
    assert gen is used
    assert state_words(gen) == state_words(fresh) == state_words(philox_stream(seed, index))
    assert gen.standard_normal() == fresh.standard_normal()
    assert np.array_equal(gen.standard_normal(1001), fresh.standard_normal(1001))
    assert gen.integers(2**32) == fresh.integers(2**32)
    assert state_words(gen) == state_words(fresh)
