"""Stochastic phase-space trajectories and ensemble moment accumulation.

The doubled phase space carries six independent complex amplitudes
(a1, a1+, a2, a2+, a3, a3+); the plus variables equal the conjugates only
in a distributional sense.  The Ito equations read

    da1  = (eps1 - gamma1 a1 + kappa a2+ a3) dt + sqrt(kappa a3 /2)(w1 + i w3) dt^(1/2)
    da1+ = (eps1* - gamma1 a1+ + kappa a2 a3+) dt + sqrt(kappa a3+/2)(w2 + i w4) dt^(1/2)
    da2  = (eps2 - gamma2 a2 + kappa a1+ a3) dt + sqrt(kappa a3 /2)(w1 - i w3) dt^(1/2)
    da2+ = (eps2* - gamma2 a2+ + kappa a1 a3+) dt + sqrt(kappa a3+/2)(w2 - i w4) dt^(1/2)
    da3  = (-gamma3 a3 - kappa a1 a2) dt
    da3+ = (-gamma3 a3+ - kappa a1+ a2+) dt

with w1..w4 independent standard normals per step and the principal
complex square root.  Because the noise coefficients depend only on the
noiseless components a3/a3+, the Ito and Stratonovich readings coincide
and a semi-implicit midpoint step integrates the drift at second order
with no interpretation bias.  The drift is ``steady.block_flow``, the
block path of the steady-state solver's flow ``classical_rhs``; to share
it, a block of n trajectories is held component-first, as a (6, n) array.

Each pass binds its step once (``_midpoint_step``): the state, its
buffers and one noise block are fixed for the pass, so every view, both
bound drifts and the scalars are built once and a step is only its ufunc
calls, since at the figures' 256-400 widths a call costs numpy's per-call
overhead more than arithmetic.  The noise pairs w1 + i w3 and w2 + i w4
are copied into the real and imaginary parts of a complex buffer and
conjugated for w1 - i w3 and w2 - i w4, rather than formed by multiplying
by 1j and adding.  An ensemble pass ends at its last sample (see
``TrajectoryConfig``), because steps after it feed no moment.

The rounding invariant: each complex product goes to a buffer distinct
from its operands, in the written-out operand order, since numpy may
round ``a*b`` and ``b*a``, or a product written over its own input,
differently in the last bit.  It makes the drift, the width-1 ``step``
and the ensemble agree bit for bit; pinned by
``test_classical_rhs_is_the_written_out_flow_bit_for_bit``,
``test_step_matches_the_scalar_step_at_signed_zeros``,
``test_small_ensemble_matches_scalar_reference_exactly`` and
``test_global_view_is_the_stacked_combination_bit_for_bit``.

``semiclassical_trajectory`` runs the same step with zero noise on Python
complex scalars through ``steady.flow_rows``, since a width-1 block
spends its time in numpy call overhead (about 10 us per step instead of
140 us).  Scalar arithmetic rounds each multiply and add of a complex
product on its own, where numpy's vector loops may fuse them (FMA), so
with nonzero imaginary parts the path can differ from ``step`` in the
last bits (2e-17 relative on a complex-pump run); with real states, as
in fig8, it matches ``step`` bit for bit.

Ensemble averages of products of these variables converge to
normally-ordered operator moments.  Trajectories are grouped into a fixed
number of batches; batch means provide standard errors.  Sampled states
are reduced in the component-first layout they are stored in: each batch
of each sample is one ``np.add.reduceat`` segment along the trajectory
axis, so every reported moment is a pure function of (seed, n_traj,
n_batches, grid) - bit-identical under any chunking.  Each chunk of
batches accumulates its sums straight into its own rows of the table
``run_ensemble`` returns, which are then divided in place into batch
means: the ensemble never holds a second copy of the table.
"""

from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .errors import EnsembleQualityError, ParameterError
from .noise import NOISES_PER_STEP, draw_block, trajectory_generator
from .steady import block_coefficients, block_flow, flow_coefficients, flow_rows

# Any amplitude beyond this magnitude flags the trajectory as diverged;
# roughly 1e5 times the largest physical amplitude of interest here.
DIVERGENCE_GUARD = 1e8

# Fixed-point iterations of the semi-implicit midpoint.
MIDPOINT_ITERATIONS = 3

# Diverged fraction beyond which the ensemble is rejected outright.
MAX_DIVERGED_FRACTION = 1e-4

# Vectorization width target: whole batches are grouped into chunks of
# roughly this many trajectories, whose state and step buffers (about
# 0.55 MB) stay in cache through the midpoint iterations.  Performance only:
# batch sums are per batch segment, so results never depend on it.
TRAJECTORY_CHUNK = 1024

# Byte budget of a pass's reused noise buffer.  Each draw_block call fills
# the largest odd number of steps that fit (255 steps of a 256-wide chunk,
# 63 of a 1024-wide one), but at least one, so only a chunk wider than
# 65536 trajectories (one step of noise) exceeds it.  An eighth of it
# bounds a pass's block of sampled states.  Performance and memory only:
# the streams and the moments do not depend on it.
NOISE_BLOCK_BYTES = 2 * 2**20

_MODES = ("cavity", "travelling-wave")


@dataclass(frozen=True)
class PhaseSpacePoint:
    """One point of the doubled phase space."""

    a1: complex = 0j
    a1p: complex = 0j
    a2: complex = 0j
    a2p: complex = 0j
    a3: complex = 0j
    a3p: complex = 0j

    @classmethod
    def coherent(cls, alpha1=0j, alpha2=0j, alpha3=0j):
        """Coherent-state initial condition: plus variables are conjugates."""
        return cls(
            complex(alpha1), np.conj(complex(alpha1)),
            complex(alpha2), np.conj(complex(alpha2)),
            complex(alpha3), np.conj(complex(alpha3)),
        )

    @classmethod
    def vacuum(cls):
        return cls()

    def as_array(self):
        return np.array(
            [self.a1, self.a1p, self.a2, self.a2p, self.a3, self.a3p], dtype=complex
        )

    @property
    def is_finite(self):
        return bool(np.all(np.isfinite(self.as_array().view(float))))


@dataclass(frozen=True)
class TrajectoryConfig:
    """Integration grid, ensemble size and reproducibility controls.

    ``dt`` and ``t_max`` are in scaled interaction time
    zeta = kappa |a1(0)| t for travelling-wave runs and in raw time for
    cavity runs.  ``sample_stride`` is the number of steps between
    recorded samples, starting with t = 0; ``n_batches`` fixes the
    standard-error layout.  When ``sample_stride`` does not divide the
    number of steps, the last sample falls before ``t_max`` and the
    ensemble integrates only up to it, since later steps would feed no
    moment: 256 steps at stride 10 are sampled and integrated through
    step 250.  ``semiclassical_trajectory`` still runs, and checks for
    divergence, over the whole grid.  A ``sample_stride`` beyond the
    number of steps raises ParameterError: no sample would follow t = 0,
    so the ensemble would integrate nothing.
    """

    dt: float
    t_max: float
    n_traj: int
    seed: int
    sample_stride: int = 10
    mode: str = "cavity"
    n_batches: int = 64

    def __post_init__(self):
        if not self.dt > 0:
            raise ParameterError("dt must be > 0")
        if not self.t_max >= self.dt:
            raise ParameterError("t_max must cover at least one step")
        steps = self.t_max / self.dt
        if not np.isfinite(steps):
            raise ParameterError(f"t_max/dt ({self.t_max!r}/{self.dt!r}) is not a finite count")
        if abs(steps - round(steps)) > 1e-9 * round(steps):
            raise ParameterError(
                f"t_max ({self.t_max!r}) must be a whole number of steps dt "
                f"({self.dt!r}); t_max/dt is {steps:.6g}")
        if self.n_traj < 2:
            raise ParameterError("n_traj must be >= 2 so variances are estimable")
        if self.sample_stride < 1:
            raise ParameterError("sample_stride must be >= 1")
        if self.sample_stride > self.n_steps:
            raise ParameterError(
                f"sample_stride ({self.sample_stride}) exceeds the {self.n_steps} steps "
                f"of the grid, so no sample would follow t = 0")
        if self.mode not in _MODES:
            raise ParameterError(f"mode must be one of {_MODES}")
        if self.n_batches < 2:
            raise ParameterError("n_batches must be >= 2")
        if not 0 <= self.seed < 2**64:
            raise ParameterError("seed must fit in 64 bits")

    @property
    def n_steps(self):
        return int(round(self.t_max / self.dt))

    @property
    def n_samples(self):
        return self.n_steps // self.sample_stride + 1

    def sample_times(self):
        steps = np.arange(self.n_samples) * self.sample_stride
        return steps * self.dt


# The ensemble moments in table order, name -> (left, right) over the
# per-mode factors a = a_j, ap = a_j+ and n = a_j+ a_j: E[left_j] with no
# right factor, else E[left_j right_k] (apa[..., j, k] = E[a_j+ a_k]),
# formed from (3, R, n) factors as left[None] * right[:, None] in this
# operand order.
# Everything that stores, reduces or combines moments iterates this table.
MOMENTS = {
    "a": ("a", None),
    "ap": ("ap", None),
    "aa": ("a", "a"),
    "apap": ("ap", "ap"),
    "apa": ("ap", "a"),
    "nn": ("n", "n"),
}


class MomentView:
    """Normally-ordered moment arrays at every sample time.

    One attribute per entry of ``MOMENTS``: (S, 3) for a first moment,
    (S, 3, 3) for a product, so S x 42 numbers for the six.
    """

    def __init__(self, *moments):
        self.__dict__.update(zip(MOMENTS, moments, strict=True))


class MomentTable:
    """Batch-resolved ensemble moments on the sample grid.

    Per-batch means (first axis) let any derived statistic carry a
    standard error from the spread of batch values; the combined view
    weights batches by their surviving trajectory counts.  Each moment of
    ``MOMENTS`` is (B, S, 3), or (B, S, 3, 3) for a product: B x S x
    (2 x 3 + 4 x 9) = B x S x 42 complex numbers (66 MiB at 64 batches and
    1601 samples) whatever the ensemble size.  ``global_view`` costs its
    result and one S-row product per table, once: the table keeps it.
    Moments come positionally in ``MOMENTS`` order or by name.
    """

    def __init__(self, times, batch_counts, batch_valid, *moments,
                 n_diverged, config, params, **named):
        given = len(moments) + len(named)
        named.update(zip(MOMENTS, moments))
        if given != len(MOMENTS) or named.keys() != MOMENTS.keys():
            raise TypeError(f"MomentTable takes each of the moments {list(MOMENTS)} once")
        self.__dict__.update(named)
        self.times, self.batch_counts, self.batch_valid = times, batch_counts, batch_valid
        self.n_diverged, self.config, self.params = n_diverged, config, params
        self._global = None

    @property
    def nonempty(self):
        return np.nonzero(self.batch_valid > 0)[0]

    def _combine(self, arr):
        # the stacked (arr[idx] * w).sum(axis=0) as a running total from +0,
        # without its two B-row temporaries (the rounding invariant of the
        # module docstring); no nonempty batch gives 0/0 = NaN
        idx = self.nonempty
        w = self.batch_valid[idx].astype(float)
        total = np.zeros(arr.shape[1:], dtype=complex)
        for b, wb in zip(idx, w):
            total += arr[b] * wb
        return total / w.sum()

    def global_view(self):
        if self._global is None:
            self._global = MomentView(*(self._combine(getattr(self, n)) for n in MOMENTS))
        return self._global

    def batch_view(self, b):
        return MomentView(*(getattr(self, n)[b] for n in MOMENTS))

    def batch_statistic(self, fn):
        """Evaluate ``fn(view)`` globally and per batch.

        Returns ``(value, se)`` where the standard error is the spread of
        the per-batch values over sqrt(number of nonempty batches).
        """
        value = np.asarray(fn(self.global_view()))
        idx = self.nonempty
        if len(idx) < 2:
            return value, np.full(value.shape, np.nan)
        per_batch = np.stack([np.asarray(fn(self.batch_view(b))) for b in idx])
        return value, per_batch.std(axis=0, ddof=1) / np.sqrt(len(idx))

    def intensities(self):
        """Mean photon numbers E[n_j] with standard errors, shape (S, 3)."""
        value, se = self.batch_statistic(lambda v: np.real(np.einsum("sjj->sj", v.apa)))
        return value, np.real(se)


def _midpoint_step(params, s, dt):
    """The semi-implicit midpoint step of the (6, n) complex block ``s``, bound.

    The returned callable advances ``s`` in place by one step, given
    ``w``, four standard normals per trajectory, shape (4, n); pass zeros
    for the deterministic flow.  Three fixed-point iterations locate the
    drift midpoint m, the step completes as 2m - s (second-order
    deterministic part), and the noise amplitudes are evaluated at m; no
    Stratonovich correction is needed because the noise coefficients ride
    on the noiseless components only.
    """
    n = s.shape[1]
    # midpoint, drift at the midpoint, products (the rounding invariant)
    m, F, t = np.empty((3, 6, n), dtype=complex)
    # noise pairs w0 + i w2, w1 + i w3, w0 - i w2, w1 - i w3
    pairs = np.empty((4, n), dtype=complex)
    # sqrt(kappa/2 (m3, m3+)); sqrt(dt) times that
    amp, root_amp = np.empty((2, 2, n), dtype=complex)
    flow = block_coefficients(params, n)
    drifts = (block_flow(params, s, F, t, flow),
              *[block_flow(params, m, F, t, flow)] * (MIDPOINT_ITERATIONS - 1))
    half, two, root, half_kappa = (np.array(c, dtype=complex)
                                   for c in (0.5 * dt, 2.0, np.sqrt(dt), 0.5 * params.kappa))
    parts, plus_pairs, minus_pairs = pairs[0:2].view(float), pairs[0:2], pairs[2:4]
    re_parts, im_parts, m3, s03, t03 = parts[:, 0::2], parts[:, 1::2], m[4:6], s[0:4], t[0:4]
    # rows 0 and 2 take the a3 amplitude, rows 1 and 3 the a3+ one
    quad_pairs, kicks = pairs.reshape(2, 2, n), t03.reshape(2, 2, n)
    multiply, add, subtract = np.multiply, np.add, np.subtract
    conjugate, sqrt = np.conjugate, np.sqrt

    def advance(w):
        for drift in drifts:
            drift()
            multiply(half, F, t)
            add(s, t, m)
        multiply(two, m, t)
        subtract(t, s, s)
        re_parts[...] = w[0:2]
        im_parts[...] = w[2:4]
        conjugate(plus_pairs, minus_pairs)
        multiply(half_kappa, m3, amp)
        sqrt(amp, amp)
        multiply(root, amp, root_amp)
        multiply(root_amp, quad_pairs, kicks)
        add(s03, t03, s03)
    return advance


def step(params, state, dt, noise):
    """Single-trajectory step; ``noise`` is a length-4 array of normals.

    Divergence is the caller's concern: check ``is_finite`` on the result
    (run_ensemble guards whole blocks at sample times).
    """
    s = state.as_array().reshape(6, 1)
    w = np.asarray(noise, dtype=float).reshape(4, 1)
    _midpoint_step(params, s, dt)(w)
    return PhaseSpacePoint(*s[:, 0])


def _raw_dt(params, init, cfg):
    """Integration step in raw time, converting from scaled units if needed."""
    if cfg.mode == "travelling-wave":
        if not params.is_travelling_wave:
            raise ParameterError(
                "travelling-wave runs require zero loss rates and pumps"
            )
        scale = params.kappa * abs(init.a1)
        if scale <= 0:
            raise ParameterError(
                "travelling-wave time scaling needs a nonzero initial a1"
            )
        return cfg.dt / scale
    return cfg.dt


def _alive_mask(s):
    """Per trajectory (last axis) of a (6, R, n) block of R samples: inside
    the guard at every sample, hence finite (NaN compares false).  Called
    within ``_pass``'s ``np.errstate``."""
    return np.all(np.abs(s) <= DIVERGENCE_GUARD, axis=(0, 1))


def _batch_bounds(n_traj, n_batches):
    counts = np.full(n_batches, n_traj // n_batches, dtype=int)
    counts[: n_traj % n_batches] += 1
    bounds = np.concatenate([[0], np.cumsum(counts)])
    return counts, bounds


def accumulate_sample(sums, rec, s, segments, keep=None):
    """Add a block of samples' moment products to per-batch sums.

    ``sums`` is a ``MomentView`` of (nb, S, ...) arrays, one row per batch
    in the block; ``run_ensemble`` passes views of its table's rows.

    ``s`` is the (R n, 6) transpose of the component-first block of R
    consecutive samples of n trajectories, read back as (6, R, n), so each
    factor is (3, R, n); ``rec`` is the slice of those R samples,
    ``segments`` the nb batch start offsets within a sample
    (np.add.reduceat layout), ``keep`` an optional (n,) boolean mask, the
    same at every sample, that removes diverged trajectories (their states
    may be non-finite, so they are replaced by zeros rather than
    weighted).  Each batch of each sample is one reduceat segment along
    the trajectory axis, so its sum does not depend on R.
    """
    x = s.T.reshape(6, rec.stop - rec.start, -1)
    if keep is not None:
        x = np.where(keep, x, 0.0)
    a, ap = x[0::2], x[1::2]
    factors = {"a": a, "ap": ap, "n": ap * a}
    for name, (left, right) in MOMENTS.items():
        x = factors[left]
        if right is not None:
            x = x[None] * factors[right][:, None]  # x[k, j] = left_j right_k
        # axes reversed, so the transpose of the sums is the table's (nb, R, ...) rows
        getattr(sums, name)[:, rec] += np.add.reduceat(x, segments, axis=-1).T


def _pass(params, init, cfg, dt_raw, lo, hi, segments, sums, spare, keep):
    n = hi - lo
    s = np.repeat(init.as_array()[:, None], n, axis=1)
    advance = _midpoint_step(params, s, dt_raw)
    alive = np.ones(n, dtype=bool)
    # trajectory i's stream, on a generator of ``spare`` re-keyed where the
    # list has one; the list keeps any new and any surplus generators
    gens = [trajectory_generator(cfg.seed, i, reuse)
            for i, reuse in zip_longest(range(lo, hi), spare[:n])]
    spare[:n] = gens

    # steps after the last sample feed no sample, alive check or moment
    stride = cfg.sample_stride
    n_steps = (cfg.n_samples - 1) * stride
    # an odd number of steps per trajectory row, so the rows of a step's
    # (4, n) noise view lie an odd number of 32-byte units apart and spread
    # over every cache set rather than aliasing into a few
    per_draw = min(NOISE_BLOCK_BYTES // (n * NOISES_PER_STEP * 8), n_steps)
    buf = np.empty((n, max(1, per_draw - 1) | 1, NOISES_PER_STEP))
    draws = [buf[:, k, :].T for k in range(buf.shape[1])]
    # later samples go through the guard and the reduction R at a time
    R = max(1, min(NOISE_BLOCK_BYTES // 8 // s.nbytes, cfg.n_samples - 1))
    block = np.empty((6, R, n), dtype=complex)
    done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        accumulate_sample(sums, slice(0, 1), s.T, segments, keep)
        while done < n_steps:
            count = min(len(draws), n_steps - done)
            draw_block(gens, count, out=buf)
            for w in draws[:count]:
                advance(w)
                done += 1
                if done % stride == 0:
                    k = done // stride
                    r = (k - 1) % R + 1  # samples in the block, sample k included
                    block[:, r - 1] = s
                    if r == R or done == n_steps:
                        alive &= _alive_mask(block[:, :r])
                        accumulate_sample(sums, slice(k + 1 - r, k + 1),
                                          block[:, :r].reshape(6, r * n).T, segments, keep)
    return alive


def run_ensemble(params, init, cfg, threads=None):
    """Integrate the full ensemble and accumulate normally-ordered moments.

    Trajectory ``i`` draws its noise from a stream keyed by
    ``(cfg.seed, i)`` and each batch is reduced over its own contiguous
    segment, so the outcome is a pure function of the configuration:
    identical for any chunking.  Diverged trajectories are excluded from
    every average and counted; more than MAX_DIVERGED_FRACTION of them
    raises EnsembleQualityError, since divergence signals a configuration
    fault.  Chunks run one after the other on the calling thread;
    ``threads``, kept for callers that pass it, must be None or 1.

    Memory: the returned table, one B x S x 3 (x 3 for a product) complex
    array per entry of ``MOMENTS`` (B x S x 42 for the six), allocated
    once, plus the running chunk's state, step buffers, noise buffer (at
    most NOISE_BLOCK_BYTES for chunks up to 65536 trajectories) and block
    of sampled states (an eighth of that, or one sample), whatever the
    ensemble size.  One list of generators, one per trajectory of the
    widest chunk run so far, is re-keyed by each later pass rather than
    rebuilt, and freed with the call.  A table, or a batch's (6, width)
    state, whose size numpy cannot index raises ParameterError before any
    work; one larger than memory raises MemoryError.
    """
    if threads not in (None, 1):
        raise ParameterError(f"threads must be 1 (got {threads!r}): ensembles run on one thread")
    dt_raw = _raw_dt(params, init, cfg)
    if not init.is_finite:
        raise ParameterError("initial state must be finite")

    B, S = cfg.n_batches, cfg.n_samples
    # the batch bounds are intp, and a chunk's pass holds the (6, width)
    # complex state of at least one whole batch: refuse what numpy cannot
    # size before anything is sized by it
    widest = -(-cfg.n_traj // B)
    if max(cfg.n_traj, 6 * 16 * widest) > np.iinfo(np.intp).max:
        raise ParameterError(f"n_traj {cfg.n_traj} in n_batches {B} gives batches of {widest} "
                             "trajectories, too wide for an array")
    counts, bounds = _batch_bounds(cfg.n_traj, B)

    # group whole batches, each at most widest, into chunks near the vectorization target
    per_chunk = max(1, TRAJECTORY_CHUNK // widest)
    groups = [(b, min(b + per_chunk, B)) for b in range(0, B, per_chunk)]

    try:
        tables = [np.zeros((B, S, 3) + (() if right is None else (3,)), dtype=complex)
                  for _, right in MOMENTS.values()]
    except ValueError:  # numpy refuses a size whose byte count overflows
        raise ParameterError(f"the moment table of {B} batches x {S} samples x 3 x 3 "
                             f"is too large for an array; raise sample_stride") from None
    valid = np.zeros(B, dtype=int)
    spare = []  # the generator list, kept for later passes
    for b_lo, b_hi in groups:
        # _batch_bounds gives the extra trajectories to the first batches,
        # so a group's nonempty batches are a prefix of its rows; the empty
        # ones keep zeros (reduceat needs strictly advancing offsets)
        rows = slice(b_lo, b_lo + np.count_nonzero(counts[b_lo:b_hi]))
        lo, hi = bounds[b_lo], bounds[b_hi]
        if hi == lo:
            continue
        segments = bounds[rows] - lo
        sums = MomentView(*(t[rows] for t in tables))
        alive = _pass(params, init, cfg, dt_raw, lo, hi, segments, sums, spare, keep=None)
        if not alive.all():
            # integrate again with the diverged trajectories zero-weighted
            # from t=0, so they never touch any average; the noise streams
            # are counter-based and replay exactly
            for t in tables:
                t[rows] = 0
            _pass(params, init, cfg, dt_raw, lo, hi, segments, sums, spare, keep=alive)
        valid[rows] = np.add.reduceat(alive.astype(int), segments)

    n_diverged = cfg.n_traj - int(valid.sum())
    if n_diverged > MAX_DIVERGED_FRACTION * cfg.n_traj:
        raise EnsembleQualityError(
            f"{n_diverged} of {cfg.n_traj} trajectories hit the divergence "
            f"guard ({DIVERGENCE_GUARD:.0e}); shrink dt or revisit the parameters",
            n_diverged=n_diverged,
            n_traj=cfg.n_traj,
        )

    # batch means, divided in place; a batch with no survivor reads NaN
    w = np.where(valid > 0, valid, 1).astype(float)
    for t in tables:
        np.divide(t, w.reshape((B,) + (1,) * (t.ndim - 1)), out=t)
        t[valid == 0] = np.nan

    return MomentTable(cfg.sample_times(), counts, valid, *tables,
                       n_diverged=n_diverged, config=cfg, params=params)


def semiclassical_trajectory(params, init, cfg):
    """Deterministic mean-field path on the ensemble's sample grid.

    The midpoint step of ``_midpoint_step`` with the noise zero, on Python
    complex scalars (see the module docstring); returns ``(times, states)``
    with states of shape (S, 6).  Every step is checked against the
    divergence guard.  The noise term is left out: with w = 0 it adds a
    signed zero, which changes only a -0 part, and ``2m - s`` has none
    (``x - y`` is -0 only for x = -0 and y = +0, and m = s + (dt/2) F is
    -0 only where s is).
    """
    dt_raw = _raw_dt(params, init, cfg)
    c = flow_coefficients(params)
    half, two = complex(0.5 * dt_raw), complex(2.0)
    states = np.empty((cfg.n_samples, 6), dtype=complex)
    states[0] = s = tuple(map(complex, init.as_array()))
    s1, s1p, s2, s2p, s3, s3p = s
    for k in range(1, cfg.n_steps + 1):
        m1, m1p, m2, m2p, m3, m3p = s
        for _ in range(MIDPOINT_ITERATIONS):
            f1, f1p, f2, f2p, f3, f3p = flow_rows(c, m1, m1p, m2, m2p, m3, m3p)
            m1, m1p, m2 = s1 + half * f1, s1p + half * f1p, s2 + half * f2
            m2p, m3, m3p = s2p + half * f2p, s3 + half * f3, s3p + half * f3p
        s1, s1p, s2 = two * m1 - s1, two * m1p - s1p, two * m2 - s2
        s2p, s3, s3p = two * m2p - s2p, two * m3 - s3, two * m3p - s3p
        s = s1, s1p, s2, s2p, s3, s3p
        if not _inside_guard(s):
            raise EnsembleQualityError(
                f"semiclassical path hit the divergence guard at step {k}"
            )
        if k % cfg.sample_stride == 0:
            states[k // cfg.sample_stride] = s
    return cfg.sample_times(), states


def _inside_guard(state):
    """``_alive_mask`` for one state of Python complex numbers."""
    try:
        return all(map(DIVERGENCE_GUARD.__ge__, map(abs, state)))
    except OverflowError:  # a magnitude beyond the largest float
        return False
