"""Independent oracles the test suite checks the library against.

Everything here reimplements the target quantity through a different
route than the library: damped fixed-point iteration and scipy root
finding for steady states, the flow and the fixed-point equations written
out for the drift kernel and the residual, a per-trajectory scalar
integrator for the ensemble engine, one reduceat over (R n, 6) state rows
for its moment reduction, one stacked expression for its batch
combination, a loop over state tuples for the mean-field path, a
per-frequency loop for the batched spectral sweep, periodogram averaging
of a directly simulated linear SDE for the spectral formula, Wick
closure for Gaussian moment closed forms, traces over a Fock-basis
density matrix for the moments of a non-Gaussian state, and the two-mode
witnesses written out separately for the ensemble and for the output
spectra.
"""

import functools

import numpy as np
import scipy.optimize

from sfgsim.noise import trajectory_generator
from sfgsim.steady import flow_coefficients, flow_rows
from sfgsim.trajectories import MOMENTS


# ---------------------------------------------------------------------------
# steady states


def fixed_point_symmetric(kappa, gamma, gamma3, eps, tol=1e-13, max_iter=200_000):
    """Damped alternating update a3 <- -kappa a^2/gamma3, a <- eps/(gamma-kappa a3)."""
    a, a3 = eps / max(gamma, 1e-12), 0.0
    for _ in range(max_iter):
        a3_new = -kappa * a * a / gamma3
        a_new = eps / (gamma - kappa * a3_new)
        da = max(abs(a3_new - a3), abs(a_new - a))
        a, a3 = 0.5 * (a + a_new), 0.5 * (a3 + a3_new)
        if da < tol:
            break
    # polish without damping
    for _ in range(200):
        a3 = -kappa * a * a / gamma3
        a = eps / (gamma - kappa * a3)
    return a, a3


def newton_symmetric(kappa, gamma, gamma3, eps, seed=0, n_starts=20):
    """scipy Newton (hybr) on the two real equations from random starts.

    Keeps the root with a3 <= 0; returns (a, a3).
    """

    def eqs(v):
        a, a3 = v
        return [eps - gamma * a + kappa * a * a3, -gamma3 * a3 - kappa * a * a]

    rng = np.random.default_rng(seed)
    best = None
    scale = max(eps / max(gamma, 1e-6), 1.0)
    for _ in range(n_starts):
        start = rng.uniform(0, 1.5, size=2) * [scale, -scale]
        sol = scipy.optimize.root(eqs, start, method="hybr", tol=1e-14)
        if not sol.success:
            continue
        a, a3 = sol.x
        if a3 <= 1e-9 and a >= -1e-9:
            if best is None or max(map(abs, eqs([a, a3]))) < best[2]:
                best = (a, a3, max(map(abs, eqs([a, a3]))))
    assert best is not None, "oracle found no physical root"
    return best[0], best[1]


def symmetric_root_brentq(kappa, gamma, gamma3, eps):
    """Physical root a3 of the symmetric cubic by bracketing, to rounding.

    f(a3) = gamma3 a3 (kappa a3 - gamma)^2 + kappa eps^2 is positive at 0
    and negative below -(eps^2/(gamma3 kappa))^(1/3), with one sign change
    on a3 <= 0.
    """

    def f(a3):
        return gamma3 * a3 * (kappa * a3 - gamma) ** 2 + kappa * eps**2

    lo = -1.01 * (eps**2 / (gamma3 * kappa)) ** (1.0 / 3.0)
    return scipy.optimize.brentq(f, lo, 0.0, xtol=1e-300, rtol=4 * np.finfo(float).eps)


def newton_general(kappa, g1, g2, g3, e1, e2):
    """scipy root on the three real fixed-point equations (real pumps)."""

    def eqs(v):
        a1, a2, a3 = v
        return [
            e1 - g1 * a1 + kappa * a2 * a3,
            e2 - g2 * a2 + kappa * a1 * a3,
            -g3 * a3 - kappa * a1 * a2,
        ]

    start = [e1 / g1, e2 / g2, 0.0]
    sol = scipy.optimize.root(eqs, start, method="hybr", tol=1e-14)
    assert sol.success
    return sol.x


def fixed_point_general(kappa, g1, g2, g3, e1, e2, damping=0.1, max_iter=500_000):
    """Damped simultaneous fixed-point iteration on (a1, a2, a3)."""
    a1, a2, a3 = e1 / g1, e2 / g2, 0.0
    for _ in range(max_iter):
        n1 = (e1 + kappa * a2 * a3) / g1
        n2 = (e2 + kappa * a1 * a3) / g2
        n3 = -kappa * a1 * a2 / g3
        if max(abs(n1 - a1), abs(n2 - a2), abs(n3 - a3)) < 1e-13:
            a1, a2, a3 = n1, n2, n3
            break
        a1 += damping * (n1 - a1)
        a2 += damping * (n2 - a2)
        a3 += damping * (n3 - a3)
    return a1, a2, a3


def classical_rhs_written_out(params, x):
    """The six flow rows, each one written-out expression, in a new array."""
    a1, a1p, a2, a2p, a3, a3p = x
    k = params.kappa
    g1, g2, g3 = params.gammas
    out = np.empty((6,) + np.shape(a1), dtype=complex)
    out[0] = params.eps1 - g1 * a1 + k * a2p * a3
    out[1] = np.conj(params.eps1) - g1 * a1p + k * a2 * a3p
    out[2] = params.eps2 - g2 * a2 + k * a1p * a3
    out[3] = np.conj(params.eps2) - g2 * a2p + k * a1 * a3p
    out[4] = -g3 * a3 - k * a1 * a2
    out[5] = -g3 * a3p - k * a1p * a2p
    return out


def residual_three_equations(params, alpha1, alpha2, alpha3):
    """Largest magnitude among the three fixed-point equations, written out."""
    k = params.kappa
    g1, g2, g3 = params.gammas
    r1 = params.eps1 - g1 * alpha1 + k * np.conj(alpha2) * alpha3
    r2 = params.eps2 - g2 * alpha2 + k * np.conj(alpha1) * alpha3
    r3 = -g3 * alpha3 - k * alpha1 * alpha2
    return float(max(abs(r1), abs(r2), abs(r3)))


# ---------------------------------------------------------------------------
# scalar reference ensemble


def scalar_step(params, s, dt, w):
    """One midpoint step of a (1, 6) state with (1, 4) normals, written out."""
    k = params.kappa
    half, root = 0.5 * dt, np.sqrt(dt)
    m = s
    for _ in range(3):
        m = s + half * classical_rhs_written_out(params, m.T).T
    new = 2.0 * m - s
    s3 = np.sqrt(0.5 * k * m[:, 4])
    s3p = np.sqrt(0.5 * k * m[:, 5])
    new[:, 0] += root * s3 * (w[:, 0] + 1j * w[:, 2])
    new[:, 1] += root * s3p * (w[:, 1] + 1j * w[:, 3])
    new[:, 2] += root * s3 * (w[:, 0] - 1j * w[:, 2])
    new[:, 3] += root * s3p * (w[:, 1] - 1j * w[:, 3])
    return new


def scalar_reference_states(params, init, cfg):
    """Sampled states of every trajectory via plain per-trajectory loops.

    Uses length-1 array arithmetic (numpy scalar complex multiplication
    takes a different code path than the array kernels) and draws noise
    one step at a time from the same keyed streams.  Returns shape
    (n_traj, n_samples, 6).
    """
    if cfg.mode == "travelling-wave":
        dt = cfg.dt / (params.kappa * abs(init.a1))
    else:
        dt = cfg.dt

    states = np.empty((cfg.n_traj, cfg.n_samples, 6), dtype=complex)
    for i in range(cfg.n_traj):
        gen = trajectory_generator(cfg.seed, i)
        s = init.as_array().reshape(1, 6).copy()
        states[i, 0] = s[0]
        rec = 1
        for stepi in range(1, cfg.n_steps + 1):
            s = scalar_step(params, s, dt, gen.standard_normal(4).reshape(1, 4))
            if stepi % cfg.sample_stride == 0 and rec < cfg.n_samples:
                states[i, rec] = s[0]
                rec += 1
    return states


def scalar_reference_batch_means(states, n_batches):
    """Per-batch moment means from sampled states, same reduction layout."""
    n = states.shape[0]
    counts = np.full(n_batches, n // n_batches, dtype=int)
    counts[: n % n_batches] += 1
    bounds = np.concatenate([[0], np.cumsum(counts)])

    a = states[:, :, 0::2]
    ap = states[:, :, 1::2]
    nph = ap * a
    products = {
        "a": a,
        "ap": ap,
        "aa": a[:, :, :, None] * a[:, :, None, :],
        "apap": ap[:, :, :, None] * ap[:, :, None, :],
        "apa": ap[:, :, :, None] * a[:, :, None, :],
        "nn": nph[:, :, :, None] * nph[:, :, None, :],
    }
    segments = bounds[:-1][counts > 0].astype(np.intp)
    out = {}
    for name, arr in products.items():
        sums = np.add.reduceat(arr, segments, axis=0)
        means = np.full((n_batches,) + arr.shape[1:], np.nan, dtype=complex)
        means[counts > 0] = sums / counts[counts > 0].reshape((-1,) + (1,) * (arr.ndim - 1))
        out[name] = means
    return out, counts


def rowwise_accumulate_sample(sums, rec, s, segments, keep=None):
    """``accumulate_sample`` over the rows of the (R n, 6) sample block.

    ``segments`` holds the batch starts of every sample, R nb offsets
    into the R n rows, and ``keep`` one flag per row; each product table
    is (R n, ...), reduced by one ``np.add.reduceat`` along its rows.
    """
    a = s[:, 0::2]
    ap = s[:, 1::2]
    if keep is not None:
        a = np.where(keep[:, None], a, 0.0)
        ap = np.where(keep[:, None], ap, 0.0)
    factors = {"a": a, "ap": ap, "n": ap * a}
    for name, (left, right) in MOMENTS.items():
        x = factors[left]
        if right is not None:
            x = x[:, :, None] * factors[right][:, None, :]
        table = getattr(sums, name)
        nb, _, *tail = table.shape
        table[:, rec] += np.add.reduceat(x, segments, axis=0).reshape(-1, nb, *tail).swapaxes(0, 1)


def semiclassical_by_tuples(params, init, cfg, dt):
    """The mean-field midpoint loop on six-tuples of Python complex numbers,
    each built from a generator; returns the (S, 6) sampled states."""
    c = flow_coefficients(params)
    half, two = complex(0.5 * dt), complex(2.0)
    s = tuple(map(complex, init.as_array()))
    states = np.empty((cfg.n_samples, 6), dtype=complex)
    states[0] = s
    for k in range(1, cfg.n_steps + 1):
        m = s
        for _ in range(3):
            m = tuple(si + half * fi for si, fi in zip(s, flow_rows(c, *m)))
        s = tuple(two * mi - si for mi, si in zip(m, s))
        if k % cfg.sample_stride == 0:
            states[k // cfg.sample_stride] = s
    return states


def stacked_combine(arr, batch_valid):
    """Survivor-weighted mean over batches as one stacked expression."""
    idx = np.nonzero(batch_valid > 0)[0]
    w = batch_valid[idx].astype(float)
    shape = (-1,) + (1,) * (arr.ndim - 1)
    return (arr[idx] * w.reshape(shape)).sum(axis=0) / w.sum()


# ---------------------------------------------------------------------------
# spectral sweep, one frequency at a time


def spectrum_by_frequency(params, ss, omegas):
    """The spectral sweep as a per-frequency loop of 6x6 solves.

    Same arithmetic as the batched ``sfgsim.spectrum``, one frequency at a
    time; returns (intracavity, output, max_asymmetry, max_imag_residue).
    """
    from sfgsim import spectra

    A = spectra.drift_matrix(params, ss)
    D = spectra.diffusion_product(params, ss)
    eye = np.eye(6)
    intracavity = np.empty((len(omegas), 6, 6), dtype=complex)
    output = np.empty((len(omegas), 6, 6))
    asym = imag = 0.0
    for i, w in enumerate(omegas):
        left = np.linalg.solve(A + 1j * w * eye, D)
        S = np.linalg.solve(A - 1j * w * eye, left.T).T
        intracavity[i] = S
        output[i] = spectra.output_spectra(params, S)
        a, im = spectra._quadrature_residues(S)
        asym, imag = max(asym, a), max(imag, im)
    return intracavity, output, asym, imag


# ---------------------------------------------------------------------------
# direct linear-SDE periodogram


def ou_periodogram(A, B, omegas, n_traj=10_000, t_window=600.0, t_burn=25.0,
                   dt=8e-3, sample_every=6, seed=1):
    """Spectral matrix estimate of d(dX) = -A dX dt + B dW by simulation.

    Crank-Nicolson stepping (exact stationary second moments for linear
    systems at any dt), discrete windowed Fourier transforms at the
    requested frequencies, and the cross-periodogram
    E[X(w) X(-w)^T]/T averaged over trajectories.  Returns
    ``{w: (S_est, S_se)}`` with entrywise standard errors (real and
    imaginary parts share the returned magnitude scale).
    """
    rng = np.random.default_rng(seed)
    dim = A.shape[0]
    n_noise = B.shape[1]
    eye = np.eye(dim)
    lhs = eye + 0.5 * dt * A
    prop_t = np.linalg.solve(lhs, eye - 0.5 * dt * A).T.copy()
    nmap_t = (np.linalg.solve(lhs, B) * np.sqrt(dt)).T.copy()

    noise_chunk = 64

    def advance(x, n_steps, on_step=None):
        done = 0
        while done < n_steps:
            todo = min(noise_chunk, n_steps - done)
            w = rng.standard_normal((todo, n_traj, n_noise))
            for k in range(todo):
                x = x @ prop_t + w[k] @ nmap_t
                if on_step is not None:
                    on_step(done + k, x)
            done += todo
        return x

    x = np.zeros((n_traj, dim), dtype=complex)
    x = advance(x, int(round(t_burn / dt)))

    omegas = np.asarray(omegas, dtype=float)
    need = sorted({float(w) for w in omegas} | {float(-w) for w in omegas})
    acc = {w: np.zeros((n_traj, dim), dtype=complex) for w in need}
    weight = dt * sample_every

    def collect(kstep, xs):
        if kstep % sample_every == 0:
            t = kstep * dt
            for w in need:
                acc[w] += xs * np.exp(-1j * w * t)

    advance(x, int(round(t_window / dt)), on_step=collect)

    out = {}
    for w in omegas:
        f = acc[float(w)] * weight
        g = acc[float(-w)] * weight
        prod = np.einsum("ni,nj->nij", f, g) / t_window
        est = prod.mean(axis=0)
        se = np.sqrt(
            prod.real.std(axis=0, ddof=1) ** 2 + prod.imag.std(axis=0, ddof=1) ** 2
        ) / np.sqrt(n_traj)
        out[float(w)] = (est, se)
    return out


# ---------------------------------------------------------------------------
# Gaussian (Wick) closed forms


def gaussian_moment_tables(mean, sigma):
    """Exact moment tables for jointly Gaussian phase-space variables.

    ``mean`` is the 6-vector of means, ``sigma[i, j] = E[d_i d_j]`` the
    symmetric complex covariance of the fluctuations.  Returns arrays in
    the layout of MomentView (first moments, aa, apap, apa, nn) with a
    single sample time.
    """
    mean = np.asarray(mean, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)

    def second(i, j):
        return mean[i] * mean[j] + sigma[i, j]

    def fourth(i, j, k, l):
        m = mean
        s = sigma
        return (
            m[i] * m[j] * m[k] * m[l]
            + m[i] * m[j] * s[k, l] + m[i] * m[k] * s[j, l] + m[i] * m[l] * s[j, k]
            + m[j] * m[k] * s[i, l] + m[j] * m[l] * s[i, k] + m[k] * m[l] * s[i, j]
            + s[i, j] * s[k, l] + s[i, k] * s[j, l] + s[i, l] * s[j, k]
        )

    ai = [0, 2, 4]
    pi = [1, 3, 5]
    a = np.array([[mean[j] for j in ai]])
    ap = np.array([[mean[j] for j in pi]])
    aa = np.array([[[second(ai[j], ai[k]) for k in range(3)] for j in range(3)]])
    apap = np.array([[[second(pi[j], pi[k]) for k in range(3)] for j in range(3)]])
    apa = np.array([[[second(pi[j], ai[k]) for k in range(3)] for j in range(3)]])
    nn = np.array([[[fourth(pi[j], ai[j], pi[k], ai[k]) for k in range(3)]
                    for j in range(3)]])
    return a, ap, aa, apap, apa, nn


# ---------------------------------------------------------------------------
# a non-Gaussian state in the Fock basis


def fock_mixed_state(seed, support=2, cutoff=4, rank=3):
    """A random mixed state of the three modes and their lowering operators.

    The state, a rank-``rank`` density matrix, holds at most ``support``
    photons in each mode; a state of bounded photon number other than the
    vacuum is not Gaussian.  The operators are truncated at ``cutoff``
    photons per mode, so every product of up to ``cutoff - support``
    raising operators, a a+ included, acts on the state exactly.  Returns
    ``(rho, (a1, a2, a3))`` as (D, D) matrices, D = (cutoff + 1)^3.
    """
    rng = np.random.default_rng(seed)
    levels = cutoff + 1
    lower, eye = np.diag(np.sqrt(np.arange(1.0, levels)), 1), np.eye(levels)

    def embed(j):
        mats = [lower if k == j else eye for k in range(3)]
        return np.kron(np.kron(mats[0], mats[1]), mats[2])

    inside = (np.indices((levels,) * 3) <= support).all(axis=0).ravel()
    g = rng.standard_normal((levels**3, rank)) + 1j * rng.standard_normal((levels**3, rank))
    g[~inside] = 0.0
    rho = g @ g.conj().T
    return rho / np.trace(rho).real, tuple(embed(j) for j in range(3))


def fock_normal_moments(rho, ops):
    """The six normally ordered moments of ``rho`` as Tr(rho O), one sample.

    In the layout of MomentView, written out per entry: <a_j>, <a_j+>,
    <a_j a_k>, <a_j+ a_k+>, <a_j+ a_k> and <a_j+ a_k+ a_j a_k>.
    """
    a = ops
    ad = [op.conj().T for op in ops]

    def ev(*factors):
        return np.trace(rho @ functools.reduce(np.matmul, factors))

    def first(f):
        return np.array([[ev(f[j]) for j in range(3)]])

    def pair(g):
        return np.array([[[g(j, k) for k in range(3)] for j in range(3)]])

    return (first(a), first(ad), pair(lambda j, k: ev(a[j], a[k])),
            pair(lambda j, k: ev(ad[j], ad[k])), pair(lambda j, k: ev(ad[j], a[k])),
            pair(lambda j, k: ev(ad[j], ad[k], a[j], a[k])))


# ---------------------------------------------------------------------------
# two-mode witnesses, one body per half


def ensemble_duan_simon(m, sign=+1):
    """Duan-Simon sum on a MomentTable, written out on its quadrature moments.

    Returns ``m.batch_statistic``'s (value, se) of the raw complex sum.
    """
    from sfgsim.correlations import QuadratureSpec, _covariance_raw, _variance_raw

    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    x1, x2 = QuadratureSpec.x(1), QuadratureSpec.x(2)
    y1, y2 = QuadratureSpec.y(1), QuadratureSpec.y(2)

    def raw(view):
        vx = _variance_raw(view, x1) + _variance_raw(view, x2) \
            + 2.0 * sign * _covariance_raw(view, x1, x2)
        vy = _variance_raw(view, y1) + _variance_raw(view, y2) \
            - 2.0 * sign * _covariance_raw(view, y1, y2)
        return vx + vy

    return m.batch_statistic(raw)


def ensemble_epr_product(m, inferred, steering):
    """Reid product on a MomentTable, its guard on the combined view; (value, se)."""
    from sfgsim.correlations import QuadratureSpec, _covariance_raw, _variance_raw
    from sfgsim.errors import CorrelationError

    if inferred == steering:
        raise ValueError("inferred and steering modes must differ")
    xj, yj = QuadratureSpec.x(inferred), QuadratureSpec.y(inferred)
    xk, yk = QuadratureSpec.x(steering), QuadratureSpec.y(steering)
    gview = m.global_view()
    for q in (xk, yk):
        if np.any(np.real(_variance_raw(gview, q)) < 1e-9):
            raise CorrelationError("steering-mode variance below 1e-9")

    def raw(view):
        vinf_x = _variance_raw(view, xj) \
            - _covariance_raw(view, xj, xk) ** 2 / _variance_raw(view, xk)
        vinf_y = _variance_raw(view, yj) \
            - _covariance_raw(view, yj, yk) ** 2 / _variance_raw(view, yk)
        return vinf_x * vinf_y

    return m.batch_statistic(raw)


def spectral_duan_simon(out, sign=+1):
    """Duan-Simon sum of an (N, 6, 6) output quadrature covariance stack."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    x1, y1, x2, y2 = 0, 1, 2, 3
    vx = out[:, x1, x1] + out[:, x2, x2] + 2 * sign * out[:, x1, x2]
    vy = out[:, y1, y1] + out[:, y2, y2] - 2 * sign * out[:, y1, y2]
    return vx + vy


def spectral_epr(out, inferred, steering):
    """Reid product of an (N, 6, 6) output stack, guarded at every frequency."""
    from sfgsim.errors import CorrelationError

    if inferred == steering:
        raise ValueError("inferred and steering modes must differ")
    xj, yj, xk, yk = (2 * (mode - 1) + q for mode in (inferred, steering) for q in (0, 1))
    vxk = out[:, xk, xk]
    vyk = out[:, yk, yk]
    if np.any(vxk <= 1e-9) or np.any(vyk <= 1e-9):
        raise CorrelationError("steering-mode variance fell below the 1e-9 guard")
    vinf_x = out[:, xj, xj] - out[:, xj, xk] ** 2 / vxk
    vinf_y = out[:, yj, yj] - out[:, yj, yk] ** 2 / vyk
    return vinf_x * vinf_y
