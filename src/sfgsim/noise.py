"""Reproducible per-trajectory Gaussian noise streams.

Each trajectory's stream is counter-based Philox keyed by (base seed,
trajectory index); the stream position encodes the step index.  Every
generator gets its key one way, through Philox's public ``state``: a new
one is built from a fixed seed sequence and then keyed like a reused one.
Streams are therefore independent of how trajectories are grouped into
batches or chunks, which is what makes ensemble results bit-identical
under any chunk width.
"""

import numpy as np

# Standard normals consumed per trajectory per step.
NOISES_PER_STEP = 4

# seeds every new Philox before its key is set, so no OS entropy is drawn;
# shared read-only by every generator, since nothing spawns from it
_BASE = np.random.SeedSequence(0)

# counter and buffer words of a Philox generator that has drawn nothing
_ZERO_WORDS = (0, 0, 0, 0)


def trajectory_generator(seed, index, reuse=None):
    """Generator for one trajectory, a pure function of (seed, index).

    Its stream is that of a Philox generator whose key is the two
    uint64 words (seed, index).  ``reuse``, a Philox ``Generator`` that
    may have drawn anything, is keyed and returned; without it a new
    one is built and keyed.  Either way the key is set through the
    ``state`` setter: counter 0, key (seed, index), buffer empty, no
    spare 32-bit word.  Re-keying is several times cheaper than building.
    """
    gen = np.random.Generator(np.random.Philox(_BASE)) if reuse is None else reuse
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": (seed, index)},
        "buffer": _ZERO_WORDS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen


def draw_block(generators, n_steps, out):
    """Next ``n_steps`` steps of noise for a group of trajectories.

    ``out`` is the caller's C-contiguous float array of shape
    (len(generators), K, NOISES_PER_STEP) with K >= n_steps; the steps
    fill its leading ``n_steps`` and that view, shape
    (len(generators), n_steps, NOISES_PER_STEP), is returned, so one
    buffer serves a whole run.  Consuming a stream in blocks of different
    sizes yields identical numbers, so the block size is a pure
    performance knob.
    """
    block = out[:, :n_steps]
    for gen, row in zip(generators, block):
        gen.standard_normal(out=row)
    return block
