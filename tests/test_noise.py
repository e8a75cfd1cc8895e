import numpy as np

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


def test_block_size_does_not_change_the_stream():
    gens = [trajectory_generator(1, i) for i in range(3)]
    whole = draw_block(gens, 50)
    gens = [trajectory_generator(1, i) for i in range(3)]
    pieces = np.concatenate(
        [draw_block(gens, n) for n in (7, 13, 30)], axis=1)
    assert np.array_equal(whole, pieces)
    assert whole.shape == (3, 50, NOISES_PER_STEP)


def test_reused_buffer_gives_the_fresh_stream():
    gens = [trajectory_generator(1, i) for i in range(3)]
    whole = draw_block(gens, 50)
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
