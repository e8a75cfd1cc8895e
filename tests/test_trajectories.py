"""Integrator correctness, ensemble statistics and reproducibility."""

import re
import tracemalloc

import numpy as np
import pytest

import sfgsim as sf
from sfgsim import presets, trajectories
from sfgsim.errors import EnsembleQualityError, ParameterError
from sfgsim.trajectories import _batch_bounds

import oracles

TW = sf.SystemParams.travelling_wave(0.01)


def test_vacuum_is_absorbing():
    state = sf.PhaseSpacePoint.vacuum()
    out = sf.step(TW, state, 1e-3, [0.3, -1.2, 0.7, 2.0])
    assert out.as_array().tolist() == [0j] * 6


def test_drift_direction_of_single_step():
    # noise-free: da3 = -kappa a1 a2 dt at leading order, da1 ~ O(dt^2)
    a, b = 700.0, 650.0
    state = sf.PhaseSpacePoint.coherent(alpha1=a, alpha2=b)
    dt = 1e-6
    out = sf.step(TW, state, dt, np.zeros(4))
    assert out.a3 == pytest.approx(-0.01 * a * b * dt, rel=1e-6)
    assert abs(out.a1 - a) < 1e-4 * abs(out.a3 - 0)


def test_deterministic_step_is_second_order():
    # Richardson: errors at dt and dt/2 against dt/4 reference shrink ~4x
    state = sf.PhaseSpacePoint.coherent(alpha1=700.0, alpha2=700.0)
    t_total = 0.02

    def integrate(dt):
        s = state
        for _ in range(int(round(t_total / dt))):
            s = sf.step(TW, s, dt, np.zeros(4))
        return s.as_array()

    ref = integrate(t_total / 256)
    err1 = np.max(np.abs(integrate(t_total / 16) - ref))
    err2 = np.max(np.abs(integrate(t_total / 32) - ref))
    err4 = np.max(np.abs(integrate(t_total / 64) - ref))
    assert err1 / err2 == pytest.approx(4.0, rel=0.2)
    assert err2 / err4 == pytest.approx(4.0, rel=0.3)


def test_noise_enters_with_conjugate_pairing():
    # one step from a state with a3 real positive: sqrt is real, so the
    # noise couples a1/a2 through (w1 +/- i w3) exactly
    state = sf.PhaseSpacePoint.coherent(alpha3=8.0)
    w = np.array([0.25, -0.5, 1.25, 2.5])
    dt = 1e-8  # tiny: drift negligible relative to sqrt(dt) noise
    out = sf.step(TW, state, dt, w)
    amp = np.sqrt(0.01 * 8.0 / 2) * np.sqrt(dt)
    assert out.a1 == pytest.approx(amp * (w[0] + 1j * w[2]), rel=1e-4)
    assert out.a2 == pytest.approx(amp * (w[0] - 1j * w[2]), rel=1e-4)
    assert out.a1p == pytest.approx(amp * (w[1] + 1j * w[3]), rel=1e-4)
    assert out.a2p == pytest.approx(amp * (w[1] - 1j * w[3]), rel=1e-4)
    # the high-frequency mode receives no noise
    assert out.a3 == pytest.approx(8.0, rel=1e-6)


@pytest.mark.parametrize("p", [
    TW,
    sf.SystemParams.symmetric(0.01, 1.0, 1.0, -250.0),
    sf.SystemParams(0.3, 0.0, 0.5, 0.2, 0.0, 2j),
])
def test_step_matches_the_scalar_step_at_signed_zeros(p):
    # signed zeros can pick the sqrt branch of a negative real a3, so a
    # step from states and noise built of +0, -0 and nonzero parts, the
    # zero noise of the deterministic path included, must match the
    # written-out step bit for bit
    rng = np.random.default_rng(23)
    vals = np.array([0.0, -0.0, 1.5, -0.75])
    for _ in range(400):
        parts = rng.choice(vals, size=(2, 6))
        state = np.empty(6, dtype=complex)
        state.real, state.imag = parts
        for w in (np.zeros(4), rng.choice(np.array([0.0, -0.0, 0.3, -1.1]), size=4)):
            got = sf.step(p, sf.PhaseSpacePoint(*state), 1e-2, w).as_array()
            want = oracles.scalar_step(p, state.reshape(1, 6), 1e-2, w.reshape(1, 4))[0]
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (state, w)


def tw_config(**over):
    base = dict(dt=5e-4, t_max=0.05, n_traj=24, seed=404,
                sample_stride=10, mode="travelling-wave")
    base.update(over)
    return sf.TrajectoryConfig(**base)


def test_vacuum_ensemble_stays_vacuum():
    p = sf.SystemParams(kappa=0.01, gamma1=1, gamma2=1, gamma3=10)
    cfg = sf.TrajectoryConfig(dt=1e-3, t_max=0.1, n_traj=16, seed=1,
                              sample_stride=10, mode="cavity")
    m = sf.run_ensemble(p, sf.PhaseSpacePoint.vacuum(), cfg)
    for name in ("a", "ap", "aa", "apap", "apa", "nn"):
        arr = getattr(m, name)[m.nonempty]
        assert np.all(arr == 0)


def test_seed_determinism():
    init = sf.PhaseSpacePoint.coherent(alpha1=500.0, alpha2=500.0)
    cfg = tw_config(n_traj=96, t_max=0.1)
    first, again = (sf.run_ensemble(TW, init, cfg) for _ in range(2))
    for name in ("a", "ap", "aa", "apap", "apa", "nn"):
        assert np.array_equal(getattr(first, name), getattr(again, name))


TABLES = ("a", "ap", "aa", "apap", "apa", "nn", "batch_valid")


@pytest.mark.parametrize("case", ["finite", "replayed", "empty-batches"])
def test_chunk_width_does_not_change_results(case, monkeypatch):
    # chunks cover whole batches and every trajectory owns its noise
    # stream, so the tables are bit-identical for any chunk width; in the
    # second case chunks holding a diverged trajectory are integrated again
    # with it zero-weighted; in the third some chunks end in empty batches
    # and others hold nothing, while every chunk writes its own rows of one
    # shared table
    if case != "replayed":
        p, init = TW, sf.PhaseSpacePoint.coherent(alpha1=500.0, alpha2=500.0)
        cfg = tw_config(n_traj=200 if case == "finite" else 5, n_batches=8, t_max=0.02)
    else:
        monkeypatch.setattr(trajectories, "MAX_DIVERGED_FRACTION", 1.0)
        p = sf.SystemParams.travelling_wave(0.1)
        init = sf.PhaseSpacePoint.coherent(alpha1=10.0, alpha2=10.0)
        cfg = sf.TrajectoryConfig(dt=0.5, t_max=10.0, n_traj=48, seed=1,
                                  sample_stride=2, mode="travelling-wave", n_batches=8)
    batch = -(-cfg.n_traj // cfg.n_batches)
    ref = sf.run_ensemble(p, init, cfg)
    if case == "replayed":
        assert 0 < ref.n_diverged < cfg.n_batches  # some batches replay, others not
    if case == "empty-batches":
        assert ref.batch_counts.tolist() == [1] * 5 + [0] * 3
        assert np.isnan(ref.aa[5:]).all() and np.isfinite(ref.aa[:5]).all()
    for width in (batch, 3 * batch, trajectories.TRAJECTORY_CHUNK, cfg.n_traj):
        monkeypatch.setattr(trajectories, "TRAJECTORY_CHUNK", width)
        m = sf.run_ensemble(p, init, cfg)
        assert m.n_diverged == ref.n_diverged
        for name in TABLES:
            assert np.array_equal(getattr(m, name), getattr(ref, name),
                                  equal_nan=True), (width, name)


def test_generators_are_built_once_and_rekeyed_after(monkeypatch):
    # eight one-batch chunks, five of which replay a diverged trajectory:
    # thirteen passes of six streams; the first pass builds the
    # generators and every later pass re-keys that list
    monkeypatch.setattr(trajectories, "MAX_DIVERGED_FRACTION", 1.0)
    p = sf.SystemParams.travelling_wave(0.1)
    init = sf.PhaseSpacePoint.coherent(alpha1=10.0, alpha2=10.0)
    cfg = sf.TrajectoryConfig(dt=0.5, t_max=10.0, n_traj=48, seed=1,
                              sample_stride=2, mode="travelling-wave", n_batches=8)
    monkeypatch.setattr(trajectories, "TRAJECTORY_CHUNK", cfg.n_traj)
    ref = sf.run_ensemble(p, init, cfg)
    calls, trajectory_generator = [], trajectories.trajectory_generator

    def spy(seed, index, reuse=None):
        gen = trajectory_generator(seed, index, reuse)
        calls.append((index, reuse is None, id(gen)))
        return gen

    monkeypatch.setattr(trajectories, "trajectory_generator", spy)
    monkeypatch.setattr(trajectories, "TRAJECTORY_CHUNK", 6)
    m = sf.run_ensemble(p, init, cfg)
    assert ref.batch_valid.tolist() == [5, 5, 6, 6, 6, 5, 5, 5]
    assert len(calls) == 13 * 6
    built = [index for index, fresh, _ in calls if fresh]
    assert len({ident for *_, ident in calls}) == len(built)
    assert built == list(range(6))
    for name in TABLES:
        assert np.array_equal(getattr(m, name), getattr(ref, name), equal_nan=True), name


@pytest.mark.parametrize("case", ["finite", "replayed"])
def test_a_seventh_moment_is_one_spec_entry(case, monkeypatch):
    # every layer iterates MOMENTS, so one entry, E[n_j] as a first moment
    # of the factor n = a_j+ a_j, gives a seventh table that is the
    # diagonal of apa bit for bit, and leaves the six others as they were
    if case == "finite":
        p, init = TW, sf.PhaseSpacePoint.coherent(alpha1=500.0, alpha2=500.0)
        cfg = tw_config(n_traj=40, n_batches=8, t_max=0.02)
    else:
        monkeypatch.setattr(trajectories, "MAX_DIVERGED_FRACTION", 1.0)
        p = sf.SystemParams.travelling_wave(0.1)
        init = sf.PhaseSpacePoint.coherent(alpha1=10.0, alpha2=10.0)
        cfg = sf.TrajectoryConfig(dt=0.5, t_max=10.0, n_traj=48, seed=1,
                                  sample_stride=2, mode="travelling-wave", n_batches=8)
    ref = sf.run_ensemble(p, init, cfg)
    monkeypatch.setitem(trajectories.MOMENTS, "n", ("n", None))
    m = sf.run_ensemble(p, init, cfg)
    if case == "replayed":
        assert 0 < m.n_diverged  # the zero-weighted replay path
    assert m.n.shape == m.a.shape
    assert np.array_equal(m.n, np.einsum("bsjj->bsj", m.apa), equal_nan=True)
    for name in TABLES:
        assert np.array_equal(getattr(m, name), getattr(ref, name), equal_nan=True), name
    with np.errstate(invalid="ignore"):
        view = m.global_view()
    assert np.array_equal(view.n, np.einsum("sjj->sj", view.apa), equal_nan=True)
    assert np.array_equal(m.batch_view(0).n, m.n[0], equal_nan=True)


def test_global_view_is_the_stacked_combination_bit_for_bit():
    # the running total starts from +0 and adds batch rows in order, as
    # numpy's sum over axis 0 does, so signed zeros, infinities and the
    # NaN rows of empty batches come out bit for bit the same
    rng = np.random.default_rng(7)
    cfg = tw_config()
    for trial in range(60):
        B, S = int(rng.integers(2, 70)), int(rng.integers(1, 40))
        valid = rng.integers(0, 4, B) * int(rng.integers(1, 3000))
        if trial % 6 == 0:
            valid[:] = 0
        tables = []
        for tail in ((3,), (3,), (3, 3), (3, 3), (3, 3), (3, 3)):
            shape = (B, S) + tail
            arr = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
                * 10.0 ** rng.integers(-300, 300, size=shape)
            for value, share in ((complex(-0.0, -0.0), 0.1), (complex(0.0, -0.0), 0.05),
                                 (complex(np.inf, 1.0), 0.01)):
                arr[rng.random(shape) < share] = value
            arr[valid == 0] = np.nan
            tables.append(arr)
        m = trajectories.MomentTable(None, valid, valid, *tables,
                                     n_diverged=0, config=cfg, params=TW)
        with np.errstate(all="ignore"):
            got = m.global_view()
            for name, arr in zip(TABLES, tables):
                want = oracles.stacked_combine(arr, valid)
                assert np.array_equal(getattr(got, name).view(np.uint64),
                                      want.view(np.uint64)), (trial, name)
        if not valid.any():
            assert all(np.isnan(getattr(got, name)).all() for name in TABLES[:6])
    # a fig-sized table takes the same path
    valid = np.arange(64) % 5
    arr = rng.standard_normal((64, 1601, 3, 3)) + 1j * rng.standard_normal((64, 1601, 3, 3))
    m = trajectories.MomentTable(None, valid, valid, arr, arr, arr, arr, arr, arr,
                                 n_diverged=0, config=cfg, params=TW)
    assert np.array_equal(m._combine(arr), oracles.stacked_combine(arr, valid))


# equal batches of 1-6, 8, 9, 17 and 256 trajectories, then unequal ones;
# a segment of more than four complex values sums pairwise in numpy
REDUCTION_BATCHES = ([[k] * 4 for k in (1, 2, 3, 4, 5, 6, 8, 9, 17, 256)]
                     + [[2, 2, 1, 1], [4, 4, 3], [3, 4], [9, 8]])


@pytest.mark.parametrize("masked", [False, True], ids=["all-kept", "every-third-masked"])
@pytest.mark.parametrize("counts", REDUCTION_BATCHES, ids=str)
def test_reduction_is_the_rowwise_reduceat_bit_for_bit(counts, masked):
    # the component-first block reduced along its trajectory axis, one
    # segment per batch of each sample, against the row-wise reduceat of
    # its (R n, 6) transpose; the tables start at -0.0 and the states hold
    # signed zeros, so every sign reaches the comparison, and masked
    # trajectories hold infinities or NaN
    rng = np.random.default_rng(sum(counts) * 100 + len(counts))
    n, nb, R, S = sum(counts), len(counts), 3, 5
    shape = (6, R, n)
    block = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        * 10.0 ** rng.integers(-3, 4, size=shape)
    for value in (complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 1.0)):
        block[rng.random(shape) < 0.1] = value
    keep = None
    if masked:
        keep = np.arange(n) % 3 != 2
        bad = np.array([complex(np.inf, 1.0), complex(-np.inf, np.nan), complex(np.nan, 0.0)])
        block[:, :, ~keep] = rng.choice(bad, size=(6, R, n - np.count_nonzero(keep)))
    segments = np.concatenate([[0], np.cumsum(counts)[:-1]])
    s = block.reshape(6, R * n).T
    rec = slice(1, 1 + R)

    def tables():
        return trajectories.MomentView(*(
            np.full((nb, S, 3) + (() if right is None else (3,)), complex(-0.0, -0.0))
            for _, right in trajectories.MOMENTS.values()))

    got, want = tables(), tables()
    trajectories.accumulate_sample(got, rec, s, segments, keep)
    oracles.rowwise_accumulate_sample(
        want, rec, s, (np.arange(R)[:, None] * n + segments).ravel(),
        None if keep is None else np.tile(keep, R))
    for name in trajectories.MOMENTS:
        assert np.array_equal(getattr(got, name).view(np.uint64),
                              getattr(want, name).view(np.uint64)), name
    assert np.isfinite(got.nn).all()


def test_a_table_without_survivors_has_nan_standard_errors():
    # every trajectory of both batches diverged: no batch value to spread
    valid = np.zeros(2, int)
    moments = [np.zeros((2, 1, 3) + (() if right is None else (3,)), dtype=complex)
               for _, right in trajectories.MOMENTS.values()]
    m = trajectories.MomentTable(None, valid, valid, *moments,
                                 n_diverged=8, config=tw_config(), params=TW)
    with np.errstate(invalid="ignore"):
        value, se = m.intensities()
    assert value.shape == se.shape == (1, 3)
    assert np.isnan(value).all() and np.isnan(se).all()


def test_moment_table_takes_each_moment_once():
    # positionally in MOMENTS order, by name, or both; never one too many,
    # one twice or one missing
    arr, valid, cfg = np.zeros((2, 1, 3, 3), dtype=complex), np.ones(2, int), tw_config()
    names = list(trajectories.MOMENTS)
    for args, named in (((arr,) * 6, {}), ((), dict.fromkeys(names, arr)),
                        ((arr,) * 4, dict.fromkeys(names[4:], arr))):
        m = trajectories.MomentTable(None, valid, valid, *args, **named,
                                     n_diverged=0, config=cfg, params=TW)
        assert all(getattr(m, name) is arr for name in names)
    for args, named in (((arr,) * 7, {}), ((arr,) * 6, {"nn": arr}), ((arr,) * 5, {})):
        with pytest.raises(TypeError, match="each of the moments"):
            trajectories.MomentTable(None, valid, valid, *args, **named,
                                     n_diverged=0, config=cfg, params=TW)


def test_ensemble_memory_is_one_moment_table():
    # reproduce-shaped: 256 trajectories in 64 batches, 400 samples; the
    # ensemble holds its one B x S x 42 complex table plus one chunk's
    # state, step buffers and noise buffer, and a witness adds only a small
    # part of the table, not a copy of it
    init = sf.PhaseSpacePoint.coherent(alpha1=500.0, alpha2=500.0)
    cfg = tw_config(n_traj=256, n_batches=64, t_max=399 * 5e-4, sample_stride=1)
    table_bytes = 64 * cfg.n_samples * 42 * 16
    # 6 state rows and 34 step-buffer rows of 256 complex numbers
    chunk_bytes = 40 * 256 * 16 + trajectories.NOISE_BLOCK_BYTES
    tracemalloc.start()
    try:
        m = sf.run_ensemble(TW, init, cfg)
        _, ensemble_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        sf.correlations.epr_product(m, 1, 2)
        _, witness_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cfg.n_samples == 400 and m.n_diverged == 0
    assert ensemble_peak < 1.25 * table_bytes + chunk_bytes
    assert witness_peak - before < 0.25 * table_bytes


@pytest.mark.parametrize("case", ["finite", "replayed"])
def test_integration_stops_at_the_last_sample(case, monkeypatch):
    # stride 10 over 256 steps samples through step 250; the steps after
    # it feed no sample, alive check or moment, so 250 steps give the
    # same tables, including which trajectories count as diverged
    if case == "finite":
        p, init, dt = TW, sf.PhaseSpacePoint.coherent(alpha1=500.0, alpha2=500.0), 5e-4
    else:
        monkeypatch.setattr(trajectories, "MAX_DIVERGED_FRACTION", 1.0)
        p, dt = sf.SystemParams.travelling_wave(0.1), 0.06
        init = sf.PhaseSpacePoint.coherent(alpha1=10.0, alpha2=10.0)
    drawn, real_draw = [], trajectories.draw_block

    def counted(generators, n_steps, out=None):
        drawn.append(n_steps)
        return real_draw(generators, n_steps, out)

    monkeypatch.setattr(trajectories, "draw_block", counted)
    tables = [
        sf.run_ensemble(p, init, tw_config(n_traj=48, n_batches=8, dt=dt, t_max=n * dt))
        for n in (256, 250)]
    passes = 2 if case == "replayed" else 1  # a chunk with diverged trajectories replays
    assert sum(drawn) == 2 * passes * 250
    assert tables[0].config.n_samples == tables[1].config.n_samples == 26
    if case == "replayed":
        assert 0 < tables[0].n_diverged < 48
    assert tables[0].n_diverged == tables[1].n_diverged
    assert np.array_equal(tables[0].times, tables[1].times)
    for name in TABLES:
        assert np.array_equal(getattr(tables[0], name), getattr(tables[1], name),
                              equal_nan=True), name


def test_noise_buffer_stays_within_budget_for_a_batch_wider_than_a_chunk(monkeypatch):
    init = sf.PhaseSpacePoint.coherent(alpha1=500.0, alpha2=500.0)
    cfg = tw_config(n_traj=64, n_batches=2, t_max=6e-3, sample_stride=4)  # 12 steps
    ref = sf.run_ensemble(TW, init, cfg)
    budget = 32 * 5 * trajectories.NOISES_PER_STEP * 8  # five steps of one batch
    monkeypatch.setattr(trajectories, "TRAJECTORY_CHUNK", 4)
    monkeypatch.setattr(trajectories, "NOISE_BLOCK_BYTES", budget)
    blocks, draw_block = [], trajectories.draw_block

    def recording(generators, n_steps, out=None):
        block = draw_block(generators, n_steps, out=out)
        blocks.append((block.shape, out.nbytes))
        return block

    monkeypatch.setattr(trajectories, "draw_block", recording)
    m = sf.run_ensemble(TW, init, cfg)
    # two one-batch chunks, each drawing 5 + 5 + 2 steps into one buffer
    assert [shape for shape, _ in blocks] == [(32, 5, 4), (32, 5, 4), (32, 2, 4)] * 2
    assert max(nbytes for _, nbytes in blocks) <= budget
    for name in TABLES:
        assert np.array_equal(getattr(m, name), getattr(ref, name)), name


# a full chunk: the largest odd number of steps whose noise fits the budget,
# CHUNK_R samples per block (as many as an eighth of it holds), and enough
# whole blocks of samples at stride 10 to need a second draw
CHUNK_WIDTH = trajectories.TRAJECTORY_CHUNK
CHUNK_ROW_STEPS = (trajectories.NOISE_BLOCK_BYTES
                   // (CHUNK_WIDTH * trajectories.NOISES_PER_STEP * 8) - 1) | 1
CHUNK_R = max(1, trajectories.NOISE_BLOCK_BYTES // 8 // (6 * 16 * CHUNK_WIDTH))
CHUNK_BLOCKS = CHUNK_ROW_STEPS // (10 * CHUNK_R) + 1


@pytest.mark.parametrize("width, n_steps, row_steps, sample_rows", [
    (256, 300, 255, [256] + [2560] * 3),
    (CHUNK_WIDTH, 10 * CHUNK_R * CHUNK_BLOCKS, CHUNK_ROW_STEPS,
     [CHUNK_WIDTH] + [CHUNK_R * CHUNK_WIDTH] * CHUNK_BLOCKS)],
    ids=["256-wide", f"{CHUNK_WIDTH}-wide"])
def test_noise_rows_are_odd_and_samples_reach_the_reduction_in_blocks(
        width, n_steps, row_steps, sample_rows, monkeypatch):
    # at the default budget a trajectory's noise row holds an odd number of
    # 32-byte steps, so one step's strided read spreads over the cache sets;
    # after t = 0 the samples reach accumulate_sample as (R n, 6) blocks
    layouts, rows = [], []
    draw_block, accumulate_sample = trajectories.draw_block, trajectories.accumulate_sample

    def drawing(generators, n, out=None):
        layouts.append((out.strides[0], out.nbytes, out.flags.c_contiguous))
        return draw_block(generators, n, out=out)

    def accumulating(sums, rec, s, segments, keep=None):
        rows.append(s.shape)
        return accumulate_sample(sums, rec, s, segments, keep)

    monkeypatch.setattr(trajectories, "draw_block", drawing)
    monkeypatch.setattr(trajectories, "accumulate_sample", accumulating)
    init = sf.PhaseSpacePoint.coherent(alpha1=500.0, alpha2=500.0)
    sf.run_ensemble(TW, init, tw_config(n_traj=width, t_max=n_steps * 5e-4))
    assert len(layouts) == 2
    for stride, nbytes, contiguous in layouts:
        assert stride % 64 == 32 and stride == 32 * row_steps and contiguous
        assert nbytes <= trajectories.NOISE_BLOCK_BYTES
    assert rows == [(r, 6) for r in sample_rows]


@pytest.mark.parametrize("t_max, dt", [(8.0, 5e-4), (14.0, 1e-4), (0.128, 5e-4),
                                       (0.5, 1e-4), (15e-4, 5e-4)])
def test_grids_of_whole_steps_are_accepted(t_max, dt):
    # stride 1: the three-step grid has no sample at the default stride 10
    cfg = sf.TrajectoryConfig(dt=dt, t_max=t_max, n_traj=2, seed=0, sample_stride=1)
    assert cfg.n_steps * dt == pytest.approx(t_max, rel=1e-12)


@pytest.mark.parametrize("t_max, dt", [(1e-3, 3e-4), (1.0, 0.3), (1 + 2e-9, 1e-3)])
def test_t_max_must_be_a_whole_number_of_steps(t_max, dt):
    with pytest.raises(ParameterError, match="whole number of steps"):
        sf.TrajectoryConfig(dt=dt, t_max=t_max, n_traj=2, seed=0)


@pytest.mark.parametrize("t_max, dt, stride", [(1e-3, 5e-4, 10), (15e-4, 5e-4, 4),
                                               (0.5, 1e-4, 5001)])
def test_a_stride_past_the_grid_is_refused(t_max, dt, stride):
    # no sample would follow t = 0, so the run would integrate nothing
    with pytest.raises(ParameterError, match="sample_stride"):
        sf.TrajectoryConfig(dt=dt, t_max=t_max, n_traj=2, seed=0, sample_stride=stride)
    cfg = sf.TrajectoryConfig(dt=dt, t_max=t_max, n_traj=2, seed=0,
                              sample_stride=round(t_max / dt))
    assert cfg.n_samples == 2


@pytest.mark.parametrize("check, needle", [
    (lambda: tw_config(dt=0.0), "dt must be > 0"),
    (lambda: tw_config(dt=5e-4, t_max=4e-4), "t_max must cover at least one step"),
    (lambda: tw_config(dt=5e-324, t_max=8.0), "t_max/dt (8.0/5e-324) is not a finite count"),
    (lambda: tw_config(dt=1e-3, t_max=1e308), "t_max/dt (1e+308/0.001) is not a finite count"),
    (lambda: tw_config(sample_stride=0), "sample_stride must be >= 1"),
    (lambda: tw_config(mode="tw"), "mode must be one of"),
    (lambda: tw_config(n_batches=1), "n_batches must be >= 2"),
    (lambda: tw_config(seed=-1), "seed must fit in 64 bits"),
    (lambda: tw_config(seed=2**64), "seed must fit in 64 bits"),
    (lambda: sf.run_ensemble(sf.SystemParams(0.01, 1.0, 1.0, 10.0),
                             sf.PhaseSpacePoint.coherent(alpha1=complex("nan")),
                             tw_config(mode="cavity")),
     "initial state must be finite"),
    (lambda: sf.run_ensemble(TW, sf.PhaseSpacePoint.coherent(alpha1=500.0), tw_config(),
                             threads=2),
     "threads must be 1 (got 2): ensembles run on one thread"),
], ids=["dt", "t-max-below-dt", "steps-overflow-tiny-dt", "steps-overflow-huge-t-max",
        "sample-stride", "mode", "n-batches", "negative-seed", "seed-past-64-bits",
        "non-finite-initial-state", "threads-other-than-one"])
def test_trajectory_input_checks_name_their_invariant(check, needle):
    with pytest.raises(ParameterError, match=re.escape(needle)):
        check()


def test_different_seed_changes_results():
    init = sf.PhaseSpacePoint.coherent(alpha1=500.0, alpha2=500.0)
    m1 = sf.run_ensemble(TW, init, tw_config())
    m2 = sf.run_ensemble(TW, init, tw_config(seed=405))
    assert not np.array_equal(m1.aa, m2.aa)


# the last case runs 14 steps drawn three at a time, so one bound step
# advances the state through several draws into its reused noise buffer
@pytest.mark.parametrize("n_traj,n_batches,n_steps,block_steps",
                         [(8, 64, 3, None), (8, 2, 3, None), (6, 4, 3, None), (6, 4, 14, 3)],
                         ids=["8-64", "8-2", "6-4", "6-4-14-steps-3-per-draw"])
def test_small_ensemble_matches_scalar_reference_exactly(n_traj, n_batches, n_steps,
                                                         block_steps, monkeypatch):
    if block_steps:
        monkeypatch.setattr(trajectories, "NOISE_BLOCK_BYTES",
                            block_steps * n_traj * trajectories.NOISES_PER_STEP * 8)
    init = sf.PhaseSpacePoint.coherent(alpha1=400.0, alpha2=300.0, alpha3=-2.0)
    cfg = tw_config(n_traj=n_traj, n_batches=n_batches, t_max=n_steps * 5e-4, dt=5e-4,
                    sample_stride=1)
    m = sf.run_ensemble(TW, init, cfg)
    states = oracles.scalar_reference_states(TW, init, cfg)
    means, counts = oracles.scalar_reference_batch_means(states, n_batches)
    assert np.array_equal(counts, m.batch_counts)
    for name in ("a", "ap", "aa", "apap", "apa", "nn"):
        got = getattr(m, name)
        want = means[name]
        ok = counts > 0
        assert np.array_equal(got[ok], want[ok]), name


def test_scalar_reference_also_matches_cavity_mode(monkeypatch):
    # the second case is pumped and damped with unequal rates and complex
    # pumps (every E and G row nonzero and distinct), from a coherent
    # start, over 14 steps drawn three at a time and sampled every other step
    cases = [
        (sf.SystemParams(0.01, 1.0, 1.0, 10.0, 200.0, 200.0), sf.PhaseSpacePoint.vacuum(),
         3, 1, None),
        (sf.SystemParams(0.02, 1.0, 1.7, 6.0, 180 + 40j, 120 - 25j),
         sf.PhaseSpacePoint.coherent(alpha1=90 - 5j, alpha2=60 + 3j, alpha3=-4 + 1j), 14, 2, 3),
    ]
    for p, init, n_steps, stride, block_steps in cases:
        if block_steps:
            monkeypatch.setattr(trajectories, "NOISE_BLOCK_BYTES",
                                block_steps * 5 * trajectories.NOISES_PER_STEP * 8)
        cfg = sf.TrajectoryConfig(dt=1e-3, t_max=n_steps * 1e-3, n_traj=5, seed=3,
                                  sample_stride=stride, mode="cavity", n_batches=5)
        m = sf.run_ensemble(p, init, cfg)
        states = oracles.scalar_reference_states(p, init, cfg)
        means, counts = oracles.scalar_reference_batch_means(states, 5)
        for name in ("a", "ap", "aa", "apap", "apa", "nn"):
            assert np.array_equal(getattr(m, name), means[name]), (name, n_steps)


def test_distributional_conjugacy():
    init = sf.PhaseSpacePoint.coherent(alpha1=500.0, alpha2=500.0)
    cfg = tw_config(n_traj=2048, t_max=0.4)
    m = sf.run_ensemble(TW, init, cfg)
    val, se = m.batch_statistic(lambda v: np.abs(v.ap[:, 0] - np.conj(v.a[:, 0])))
    good = se > 0
    assert np.all(val[good] <= 5 * se[good])


def test_manley_rowe_conservation():
    init = sf.PhaseSpacePoint.coherent(alpha1=300.0, alpha2=260.0)
    cfg = tw_config(n_traj=4096, t_max=1.0)
    m = sf.run_ensemble(TW, init, cfg)
    for j in (0, 1):
        val, se = m.batch_statistic(
            lambda v, j=j: np.real(v.apa[:, j, j] + v.apa[:, 2, 2]))
        dev = np.abs(val - val[0])[1:]
        assert np.all(dev <= 3.0 * se[1:])


def test_divergence_guard_raises_ensemble_quality_error():
    # absurd step pushes every trajectory past the guard immediately
    bad = sf.SystemParams.travelling_wave(1.0)
    init = sf.PhaseSpacePoint.coherent(alpha1=1e6, alpha2=1e6)
    cfg = sf.TrajectoryConfig(dt=10.0, t_max=40.0, n_traj=8, seed=0,
                              sample_stride=1, mode="travelling-wave")
    with pytest.raises(EnsembleQualityError) as err:
        sf.run_ensemble(bad, init, cfg)
    assert err.value.n_diverged == 8


def test_travelling_wave_scaling_validation():
    init = sf.PhaseSpacePoint.vacuum()
    with pytest.raises(ValueError):
        sf.run_ensemble(TW, init, tw_config())  # zero a1: no time scale
    p = sf.SystemParams(0.01, 1.0, 1.0, 10.0)
    with pytest.raises(ValueError):
        sf.run_ensemble(p, sf.PhaseSpacePoint.coherent(alpha1=1.0),
                        tw_config())  # lossy params in tw mode


def test_semiclassical_decay_without_drive():
    # amplitudes small enough that the quadratic couplings are negligible
    # (they enter a3 through a slower-decaying source term)
    p = sf.SystemParams(0.01, 0.5, 1.0, 2.0)
    init = sf.PhaseSpacePoint.coherent(alpha1=1e-4, alpha2=6e-5, alpha3=3e-5)
    cfg = sf.TrajectoryConfig(dt=1e-3, t_max=2.0, n_traj=2, seed=0,
                              sample_stride=100, mode="cavity")
    t, path = sf.semiclassical_trajectory(p, init, cfg)
    assert path[-1, 0] == pytest.approx(1e-4 * np.exp(-0.5 * t[-1]), rel=1e-4)
    assert path[-1, 2] == pytest.approx(6e-5 * np.exp(-1.0 * t[-1]), rel=1e-4)
    assert path[-1, 4] == pytest.approx(3e-5 * np.exp(-2.0 * t[-1]), rel=1e-4)


def test_semiclassical_conserves_total_intensity():
    init = sf.PhaseSpacePoint.coherent(alpha1=500.0, alpha2=500.0)
    cfg = tw_config(t_max=2.0, n_traj=2)
    t, path = sf.semiclassical_trajectory(TW, init, cfg)
    n = np.real(path[:, 1::2] * path[:, 0::2])
    total = n[:, 0] + n[:, 2]
    assert np.max(np.abs(total - total[0])) < 1e-6 * total[0]


def test_semiclassical_converges_to_fixed_point():
    p = sf.SystemParams.symmetric(0.01, 1.0, 10.0, 400.0)
    ss = sf.solve_steady_general(p)
    cfg = sf.TrajectoryConfig(dt=1e-3, t_max=25.0, n_traj=2, seed=0,
                              sample_stride=1000, mode="cavity")
    t, path = sf.semiclassical_trajectory(p, sf.PhaseSpacePoint.vacuum(), cfg)
    assert abs(path[-1, 0] - ss.alpha1) < 1e-6
    assert abs(path[-1, 4] - ss.alpha3) < 1e-6


def _written_out_mean_field(p, init, cfg):
    """``oracles.scalar_step`` with zero noise on the sample grid, and the
    step at which it leaves the divergence guard (None if it stays)."""
    dt = trajectories._raw_dt(p, init, cfg)
    s, w = init.as_array().reshape(1, 6), np.zeros((1, 4))
    states = [s[0]]
    for k in range(1, cfg.n_steps + 1):
        s = oracles.scalar_step(p, s, dt, w)
        if not np.all(np.abs(s) <= trajectories.DIVERGENCE_GUARD):
            return None, k
        if k % cfg.sample_stride == 0:
            states.append(s[0])
    return np.array(states), None


_FIG8 = sf.SystemParams(**presets.PRESETS["fig8"].parameters["run"])
_TW_RUN = presets._TW_PARAMS


_MEAN_FIELD_CASES = [
    # fig8 from vacuum on a shortened grid: real states, exact
    (_FIG8, sf.PhaseSpacePoint.vacuum(),
     sf.TrajectoryConfig(dt=1e-4, t_max=0.3, n_traj=2, seed=0, sample_stride=500), 0.0),
    # the travelling-wave preset's coherent start: exact
    (sf.SystemParams.travelling_wave(_TW_RUN["kappa"]),
     sf.PhaseSpacePoint.coherent(_TW_RUN["alpha1_0"], _TW_RUN["alpha2_0"], _TW_RUN["alpha3_0"]),
     sf.TrajectoryConfig(dt=5e-4, t_max=2.0, n_traj=2, seed=0, sample_stride=100,
                         mode="travelling-wave"), 0.0),
    # complex pumps, asymmetric cavity: the oracle's length-1 array loops
    # may fuse a complex product's multiply and add, Python scalars do not
    (sf.SystemParams(0.01, 1.0, 1.7, 10.0, 400 * np.exp(0.7j), 300 * np.exp(-0.2j)),
     sf.PhaseSpacePoint.coherent(3 - 1j, 2j, -0.5),
     sf.TrajectoryConfig(dt=1e-3, t_max=3.0, n_traj=2, seed=0, sample_stride=100), 1e-12),
]
_MEAN_FIELD_IDS = ["fig8-vacuum", "travelling-wave-coherent", "complex-pump-asymmetric"]


@pytest.mark.parametrize("p, init, cfg, rtol", _MEAN_FIELD_CASES, ids=_MEAN_FIELD_IDS)
def test_semiclassical_is_the_written_out_step_without_noise(p, init, cfg, rtol):
    want, _ = _written_out_mean_field(p, init, cfg)
    times, got = sf.semiclassical_trajectory(p, init, cfg)
    assert np.array_equal(times, cfg.sample_times())
    if rtol == 0.0:
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    else:
        assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


_NEG = complex(-0.0, -0.0)


@pytest.mark.parametrize("p, init, cfg", [
    *[case[:3] for case in _MEAN_FIELD_CASES],
    # -0 parts in the start and in both pumps
    (sf.SystemParams(0.02, 1.0, 1.5, 4.0, complex(250.0, -0.0), complex(-0.0, -0.0)),
     sf.PhaseSpacePoint(_NEG, complex(0.0, -0.0), _NEG, complex(-0.0, 0.0), _NEG, _NEG),
     sf.TrajectoryConfig(dt=1e-3, t_max=0.5, n_traj=2, seed=0, sample_stride=50)),
], ids=[*_MEAN_FIELD_IDS, "signed-zeros"])
def test_semiclassical_is_the_tuple_loop_bit_for_bit(p, init, cfg):
    # the loop over six locals does every scalar operation of the loop
    # over state tuples, in the same order
    want = oracles.semiclassical_by_tuples(p, init, cfg, trajectories._raw_dt(p, init, cfg))
    _, got = sf.semiclassical_trajectory(p, init, cfg)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_semiclassical_divergence_is_caught_at_its_step():
    # fig8's pump with a step far too long runs away within a few steps
    cfg = sf.TrajectoryConfig(dt=0.3, t_max=60.0, n_traj=2, seed=0, sample_stride=10)
    _, k = _written_out_mean_field(_FIG8, sf.PhaseSpacePoint.vacuum(), cfg)
    assert k == 7
    with pytest.raises(EnsembleQualityError, match=f"at step {k}$"):
        sf.semiclassical_trajectory(_FIG8, sf.PhaseSpacePoint.vacuum(), cfg)
    # a magnitude beyond the largest float is outside the guard, not an error
    assert not trajectories._inside_guard((0j,) * 5 + (complex(1.7e308, 1.7e308),))
    assert not trajectories._inside_guard((0j,) * 5 + (complex(float("nan"), 0.0),))


def test_batch_bounds_partition():
    counts, bounds = _batch_bounds(100_000, 64)
    assert counts.sum() == 100_000
    assert counts.max() - counts.min() <= 1
    assert bounds[0] == 0 and bounds[-1] == 100_000


def test_step_size_robustness():
    # halving dt moves mean intensities by less than a combined SE
    init = sf.PhaseSpacePoint.coherent(alpha1=500.0, alpha2=500.0)
    cfg1 = tw_config(n_traj=4096, t_max=1.0, dt=5e-4, sample_stride=200)
    cfg2 = tw_config(n_traj=4096, t_max=1.0, dt=2.5e-4, sample_stride=400)
    m1 = sf.run_ensemble(TW, init, cfg1)
    m2 = sf.run_ensemble(TW, init, cfg2)
    i1, s1 = m1.intensities()
    i2, s2 = m2.intensities()
    gate = np.hypot(s1[-1], s2[-1])
    assert np.all(np.abs(i1[-1] - i2[-1]) <= np.maximum(gate, 1e-9))
