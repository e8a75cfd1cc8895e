"""Reproducible per-trajectory Gaussian noise streams.

Each trajectory's stream is counter-based Philox keyed by (base seed,
trajectory index), whatever generator object carries it: a fresh one, or
one re-keyed from another trajectory; the stream position encodes the
step index.  Streams are therefore independent of how trajectories are
grouped into batches, chunks or threads, which is what makes ensemble
results bit-identical under any degree of parallelism.
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Standard normals consumed per trajectory per step.
NOISES_PER_STEP = 4


@ISeedSequence.register
class _PhiloxKey:
    """Seed sequence whose whole state is the Philox key (seed, index).

    ``Philox(key=...)`` first builds, then discards, a ``SeedSequence``
    drawn from OS entropy; handing Philox this sequence instead sets the
    same key and counter without that detour.  Registered rather than
    subclassed, so each generator keeps a slotted object, not a dict.
    """

    __slots__ = ("key",)

    def __init__(self, seed, index):
        self.key = (seed, index)

    def generate_state(self, n_words, dtype=np.uint32):
        # Philox asks for its two 64-bit key words
        return np.array(self.key, dtype=np.uint64)


# counter and buffer words of a Philox generator that has drawn nothing
_ZERO_WORDS = (0, 0, 0, 0)


def trajectory_generator(seed, index, reuse=None):
    """Generator for one trajectory, a pure function of (seed, index).

    Its stream is that of a Philox generator whose key is the two
    uint64 words (seed, index).  Given ``reuse``, a Philox ``Generator``,
    that generator is re-keyed in place (counter 0, key (seed, index),
    buffer empty, no spare 32-bit word) and returned, whatever it drew
    before: a few times cheaper than building a new one.
    """
    if reuse is None:
        return np.random.Generator(np.random.Philox(_PhiloxKey(seed, index)))
    reuse.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": (seed, index)},
        "buffer": _ZERO_WORDS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return reuse


def draw_block(generators, n_steps, out=None):
    """Next ``n_steps`` steps of noise for a group of trajectories.

    Returns shape (len(generators), n_steps, NOISES_PER_STEP).  Given
    ``out``, a C-contiguous float array of shape (len(generators), K,
    NOISES_PER_STEP) with K >= n_steps, the steps fill its leading
    ``n_steps`` and that view is returned, so one buffer serves a whole
    run.  Consuming a stream in blocks of different sizes yields
    identical numbers, so the block size is a pure performance knob.
    """
    if out is None:
        out = np.empty((len(generators), n_steps, NOISES_PER_STEP))
    block = out[:, :n_steps]
    for gen, row in zip(generators, block):
        gen.standard_normal(out=row)
    return block
