"""Correlation measures: ordering corrections, witnesses, consistency."""

import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg

import sfgsim as sf
from sfgsim.correlations import QuadratureSpec
from sfgsim.errors import CorrelationError
from sfgsim.spectra import _U
from sfgsim.trajectories import MOMENTS, MomentTable, TrajectoryConfig

import oracles


def table_from_samples(samples, n_batches=16):
    """MomentTable with one sample time built from raw phase-space draws,
    the batch means passed positionally in ``MOMENTS`` order."""
    n = samples.shape[0]
    states = samples.reshape(n, 1, 6)
    means, counts = oracles.scalar_reference_batch_means(states, n_batches)
    cfg = TrajectoryConfig(dt=1.0, t_max=1.0, n_traj=n, seed=0,
                           sample_stride=1, n_batches=n_batches)
    return MomentTable(np.array([0.0]), counts, counts.copy(), *(means[name] for name in MOMENTS),
                       n_diverged=0, config=cfg, params=sf.SystemParams(kappa=1.0))


def coherent_samples(n, alphas, seed=0):
    """Coherent-state ensembles are points: every trajectory identical...
    with a pinch of vacuum-level sampling noise when requested elsewhere."""
    z = np.empty((n, 6), dtype=complex)
    for j, alpha in enumerate(alphas):
        z[:, 2 * j] = alpha
        z[:, 2 * j + 1] = np.conj(alpha)
    return z


def gaussian_samples(n, mean, sigma, seed=1):
    """Draw phase-space points with E[d_i d_j] = sigma (complex symmetric).

    Built from a real multivariate normal over (Re, Im) chosen to give the
    requested complex second moments with E[d conj(d)] free; uses the
    real/imaginary decomposition sigma = C_rr - C_ii + 2i C_ri.
    """
    rng = np.random.default_rng(seed)
    dim = len(mean)
    # d = x + iy: E[dd^T] = Cxx - Cyy + i(Cxy + Cyx^T); the free conjugate
    # covariance E[d conj(d)^T] never enters any tracked moment, so extra
    # circular noise (the c*I below) only widens sampling errors
    Sig = np.asarray(sigma)
    c = np.linalg.norm(Sig, 2) + 1e-3
    Crr = 0.5 * Sig.real + c * np.eye(dim)
    Cii = Crr - Sig.real
    Cri = 0.25 * (Sig.imag + Sig.imag.T)
    big = np.block([[Crr, Cri], [Cri.T, Cii]])
    w, v = np.linalg.eigh(big)
    assert w.min() > -1e-9, "requested covariance not realizable this way"
    root = v @ np.diag(np.sqrt(np.clip(w, 0, None))) @ v.T
    xy = rng.standard_normal((n, 2 * dim)) @ root.T
    d = xy[:, :dim] + 1j * xy[:, dim:]
    return np.asarray(mean) + d


def test_coherent_state_is_shot_noise_limited():
    z = coherent_samples(4096, [3 + 1j, -2j, 0.5])
    # a point distribution has zero stochastic variance: add no noise
    m = table_from_samples(z)
    for mode in (1, 2, 3):
        for theta in (0.0, 0.7, np.pi / 2):
            v = sf.quadrature_variance(m, QuadratureSpec(mode, theta))
            assert v.values[0] == pytest.approx(1.0, abs=1e-12)
            assert v.threshold == 1.0
    f = sf.fano(m, modes=(1, 2))
    assert f.values[0] == pytest.approx(1.0, abs=1e-9)
    ds = sf.duan_simon(m)
    assert ds.values[0] == pytest.approx(4.0, abs=1e-12)
    assert ds.threshold == 4.0
    epr = sf.epr_product(m, 1, 2)
    assert epr.values[0] == pytest.approx(1.0, abs=1e-12)
    assert epr.threshold == 1.0


def test_uncertainty_product_bound():
    # V(theta) + V(theta+pi/2) >= 2 for any state
    rng = np.random.default_rng(3)
    sigma = np.zeros((6, 6), dtype=complex)
    sigma[0, 0] = sigma[1, 1] = -0.2      # quadrature-squeezed-ish mode 1
    sigma[0, 1] = sigma[1, 0] = 0.35
    z = gaussian_samples(20000, [2.0, 2.0, 0, 0, 0, 0], sigma, seed=3)
    m = table_from_samples(z)
    for theta in (0.0, 0.3, 1.2):
        va = sf.quadrature_variance(m, QuadratureSpec(1, theta))
        vb = sf.quadrature_variance(m, QuadratureSpec(1, theta + np.pi / 2))
        assert va.values[0] + vb.values[0] >= 2.0 - 1e-9


def test_covariance_of_quadrature_with_itself():
    sigma = np.zeros((6, 6), dtype=complex)
    sigma[0, 1] = sigma[1, 0] = 0.4
    z = gaussian_samples(5000, [1.0, 1.0, 0, 0, 0, 0], sigma, seed=4)
    m = table_from_samples(z)
    q = QuadratureSpec(1, 0.55)
    v = sf.quadrature_variance(m, q)
    c = sf.quadrature_covariance(m, q, q)
    assert c.values[0] + 1.0 == pytest.approx(v.values[0], abs=1e-10)


def test_independent_modes_have_zero_covariance():
    z = gaussian_samples(40000, [0.7, 0.7, 1.2, 1.2, 0, 0],
                         np.zeros((6, 6)), seed=5)
    m = table_from_samples(z)
    c = sf.quadrature_covariance(m, QuadratureSpec.x(1), QuadratureSpec.x(2))
    assert abs(c.values[0]) <= 5 * c.se[0]


def test_observables_match_gaussian_closed_forms():
    # linearized operating point: exact stationary covariance from the
    # Lyapunov equation, exact moments from Wick closure
    p = sf.SystemParams.symmetric(0.01, 1.0, 10.0, 400.0)
    ss = sf.solve_steady_symmetric(p)
    A = sf.drift_matrix(p, ss)
    D = sf.diffusion_product(p, ss)
    sigma = scipy.linalg.solve_continuous_lyapunov(np.real(A), np.real(D))
    mean = ss.phase_space

    a, ap, aa, apap, apa, nn = oracles.gaussian_moment_tables(mean, sigma)
    exact = MomentTable.exact(np.array([0.0]), a, ap, aa, apap, apa, nn, params=p)

    # independent closed forms straight from sigma
    def v_closed(j, theta):
        jj = 2 * (j - 1)
        ph = np.exp(-2j * theta)
        return np.real(1.0 + ph * sigma[jj, jj] + np.conj(ph) * sigma[jj + 1, jj + 1]
                       + 2 * sigma[jj + 1, jj])

    # the moment route cancels mean^2 ~ 6e4 against itself, so exactness
    # is limited by that cancellation, not the formulas
    for mode in (1, 2, 3):
        for theta in (0.0, np.pi / 2):
            got = sf.quadrature_variance(exact, QuadratureSpec(mode, theta)).values[0]
            assert got == pytest.approx(v_closed(mode, theta), rel=1e-7)

    # sampled ensemble agrees with the same closed forms within 3 SE
    z = gaussian_samples(60000, mean, sigma, seed=6)
    sampled = table_from_samples(z, n_batches=60)
    for mode, theta in ((1, 0.0), (3, 0.0), (2, np.pi / 2)):
        s = sf.quadrature_variance(sampled, QuadratureSpec(mode, theta))
        assert abs(s.values[0] - v_closed(mode, theta)) <= 3.2 * s.se[0]
    ds = sf.duan_simon(sampled)
    ds_closed = (v_closed(1, 0) + v_closed(2, 0) + 2 * np.real(
        sigma[0, 2] + sigma[0, 3] + sigma[1, 2] + sigma[1, 3])
        + v_closed(1, np.pi / 2) + v_closed(2, np.pi / 2) - 2 * np.real(
        -sigma[0, 2] + sigma[0, 3] + sigma[1, 2] - sigma[1, 3]))
    assert abs(ds.values[0] - ds_closed) <= 3.5 * ds.se[0]

    # Fano via Wick closure on the exact table
    fano_exact = sf.fano(exact, modes=(1, 2)).values[0]
    n_mean = np.real(apa[0, 0, 0] + apa[0, 1, 1])
    var_n = np.real(nn[0, 0, 0] + 2 * nn[0, 0, 1] + nn[0, 1, 1]
                    - (apa[0, 0, 0] + apa[0, 1, 1]) ** 2)
    assert fano_exact == pytest.approx(1.0 + var_n / n_mean, rel=1e-6)


def test_ordering_corrections_are_exact_on_a_non_gaussian_state():
    # the normally ordered moments of a random mixed state of at most two
    # photons per mode, read through MomentTable.exact: each measure equals
    # Tr(rho O) of its operators, so every vacuum unit and photon-number
    # mean is added once, and no SE is left
    rho, ops = oracles.fock_mixed_state(seed=3)
    m = MomentTable.exact(np.zeros(1), *oracles.fock_normal_moments(rho, ops))

    def mean(op):
        return np.trace(rho @ op).real

    def cov(p, q):  # p and q Hermitian and commuting
        return mean(p @ q) - mean(p) * mean(q)

    def quadrature(mode, theta):
        a = ops[mode - 1]
        return np.exp(-1j * theta) * a + np.exp(1j * theta) * a.conj().T

    def x(mode):
        return quadrature(mode, 0.0)

    def y(mode):
        return quadrature(mode, np.pi / 2)

    n12 = sum(a.conj().T @ a for a in ops[:2])
    checks = [(sf.quadrature_variance(m, QuadratureSpec(mode, theta)),
               cov(quadrature(mode, theta), quadrature(mode, theta)))
              for mode in (1, 2, 3) for theta in (0.0, np.pi / 2, 0.7)]
    checks.append((sf.fano_sum(m), cov(n12, n12) / mean(n12)))
    for sign in (+1, -1):
        joint = (x(1) + sign * x(2), y(1) - sign * y(2))
        checks.append((sf.duan_simon(m, sign), sum(cov(q, q) for q in joint)))
    for j, k in itertools.permutations((1, 2, 3), 2):
        inferred = [cov(q(j), q(j)) - cov(q(j), q(k)) ** 2 / cov(q(k), q(k)) for q in (x, y)]
        checks.append((sf.epr_product(m, j, k), inferred[0] * inferred[1]))
    assert len(checks) == 9 + 1 + 2 + 6
    for series, want in checks:
        assert series.values[0] == pytest.approx(want, rel=0, abs=1e-10), series.label
        assert series.se.tolist() == [0.0], series.label


def test_exchange_symmetry_time_domain():
    p = sf.SystemParams.travelling_wave(0.02)
    a0 = 200.0
    init = sf.PhaseSpacePoint.coherent(alpha1=a0, alpha2=a0)
    cfg = sf.TrajectoryConfig(dt=1e-3, t_max=0.6, n_traj=1500, seed=21,
                              sample_stride=20, mode="travelling-wave")
    m = sf.run_ensemble(p, init, cfg)
    e12 = sf.epr_product(m, 1, 2)
    e21 = sf.epr_product(m, 2, 1)
    gate = 5 * np.hypot(e12.se, e21.se) + 1e-9
    assert np.all(np.abs(e12.values - e21.values) <= gate)
    f1 = sf.fano(m, modes=(1,))
    f2 = sf.fano(m, modes=(2,))
    gate = 5 * np.hypot(f1.se, f2.se) + 1e-9
    assert np.all(np.abs(f1.values - f2.values) <= gate)


def test_each_witness_combines_the_table_once(monkeypatch):
    # a witness's guard reads the same combined view as its statistic, and
    # witnesses on one table share it: no moment table is combined twice,
    # and the bits equal those of witnesses each given a fresh table
    combined = []
    combine = MomentTable._combine
    monkeypatch.setattr(MomentTable, "_combine",
                        lambda self, arr: combined.append(id(arr)) or combine(self, arr))
    z = gaussian_samples(512, [1.0, 1.0, 1.0, 1.0, 0.5, 0.5], 0.1 * np.eye(6))
    witnesses = [
        lambda m: sf.quadrature_variance(m, QuadratureSpec.x(3)),
        sf.fano_sum,
        sf.duan_simon,
        lambda m: sf.epr_product(m, 1, 2),
    ]
    alone = []
    for witness in witnesses:
        combined.clear()
        alone.append(witness(table_from_samples(z)))
        assert combined and len(set(combined)) == len(combined)
    combined.clear()
    m = table_from_samples(z)
    for witness, want in zip(witnesses, alone):
        got = witness(m)
        assert np.array_equal(got.values, want.values) and np.array_equal(got.se, want.se)
    assert combined and len(set(combined)) == len(combined)


def test_fano_guard_on_vacuum():
    z = coherent_samples(256, [0, 0, 0])
    m = table_from_samples(z)
    with pytest.raises(CorrelationError):
        sf.fano(m, modes=(1, 2))


def test_fano_is_nan_only_where_the_mean_is_undefined():
    # a vacuum start has <N> = 0 at t = 0 and light afterwards; the later
    # samples keep the bits of the unguarded formula
    p = sf.SystemParams.symmetric(0.5, 1.0, 1.0, 1.0)
    cfg = TrajectoryConfig(dt=1e-3, t_max=0.2, n_traj=64, seed=3, sample_stride=50,
                           n_batches=8)
    m = sf.run_ensemble(p, sf.PhaseSpacePoint.vacuum(), cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no 0/0 warning from the vacuum sample
        f = sf.fano_sum(m)
    assert np.isnan(f.values[0]) and np.isnan(f.se[0])

    def unguarded(view):
        n1 = sum(view.apa[1:, j, j] for j in (0, 1))
        n2 = sum(view.nn[1:, j, k] for j in (0, 1) for k in (0, 1))
        return 1.0 + (n2 - n1**2) / n1

    value, se = m.batch_statistic(unguarded)
    assert np.array_equal(f.values[1:], value.real) and np.array_equal(f.se[1:], se)


def test_epr_guard_on_degenerate_variance():
    # force a steering-mode variance below the guard via a doctored table
    z = coherent_samples(256, [1.0, 1.0, 0])
    m = table_from_samples(z)
    m.apa[:, :, 1, 1] -= 0.5  # drives V(X2) to ~1e-16 - 2*0.5 < guard
    with pytest.raises(CorrelationError):
        sf.epr_product(m, 1, 2)


def test_imaginary_residue_is_asserted():
    z = coherent_samples(256, [1.0, 1.0, 0])
    m = table_from_samples(z)
    m.aa[:, :, 0, 0] += 1.0j  # corrupt: should be conjugate-consistent
    with pytest.raises(CorrelationError):
        sf.quadrature_variance(m, QuadratureSpec.x(1))


@pytest.mark.parametrize("mode", [0, 4, 1.5])
def test_quadrature_spec_names_its_invariant(mode):
    with pytest.raises(ValueError, match="mode must be 1, 2 or 3"):
        QuadratureSpec(mode)


def test_duan_simon_sign_validation():
    z = coherent_samples(64, [1.0, 1.0, 0])
    m = table_from_samples(z)
    with pytest.raises(ValueError):
        sf.duan_simon(m, sign=2)
    with pytest.raises(ValueError):
        sf.epr_product(m, 1, 1)


def test_ensemble_witnesses_equal_their_written_out_bodies_bit_for_bit():
    sigma = np.zeros((6, 6), dtype=complex)
    sigma[0, 2] = sigma[2, 0] = 0.3     # the a1 a2 correlation the interaction builds
    sigma[1, 3] = sigma[3, 1] = 0.3
    sigma[4, 4], sigma[5, 5] = -0.1, -0.1
    z = gaussian_samples(4096, [2.0, 2.0, 1.5, 1.5, 0.5, 0.5], sigma, seed=8)
    m = table_from_samples(z)
    for sign in (+1, -1):
        got = sf.duan_simon(m, sign)
        value, se = oracles.ensemble_duan_simon(m, sign)
        assert got.values.tobytes() == np.real(value).tobytes(), sign
        assert got.se.tobytes() == np.asarray(se, dtype=float).tobytes(), sign
    for pair in itertools.permutations((1, 2, 3), 2):
        got = sf.epr_product(m, *pair)
        value, se = oracles.ensemble_epr_product(m, *pair)
        assert got.values.tobytes() == np.real(value).tobytes(), pair
        assert got.se.tobytes() == np.asarray(se, dtype=float).tobytes(), pair


def witness_halves(Q, mean=(1.0, 1.0, 0.8, 0.8, 0.5, 0.5)):
    """Each half's (duan_simon(sign), epr(inferred, steering)) on one covariance.

    ``Q`` is a 6 x 6 quadrature covariance over (X1, Y1, X2, Y2, X3, Y3)
    with the vacuum unit on its diagonal.  The spectra read it as the
    output matrix at one frequency; the ensemble reads the
    ``MomentTable.exact`` table of the Gaussian moments whose quadrature
    covariance it is.
    """
    res = sf.SpectrumResult(omega=np.zeros(1), intracavity=None, output=Q[None],
                            max_asymmetry=0.0)
    to_phase_space = np.linalg.inv(_U)
    sigma = to_phase_space @ (Q - np.eye(6)) @ to_phase_space.T
    m = MomentTable.exact(np.zeros(1), *oracles.gaussian_moment_tables(mean, sigma))
    return {
        "spectra": (lambda sign=+1: sf.spectral_duan_simon(res, sign),
                    lambda *pair: sf.spectral_epr(res, *pair)),
        "ensemble": (lambda sign=+1: sf.duan_simon(m, sign).values,
                     lambda *pair: sf.epr_product(m, *pair).values),
    }


def test_both_halves_give_one_witness_value_on_one_covariance():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((6, 6))
    Q = np.eye(6) + 0.2 * g @ g.T
    Q[0, 2] = Q[2, 0] = 0.6     # X1 and X2 correlated, Y1 and Y2 anticorrelated
    Q[1, 3] = Q[3, 1] = -0.6
    halves = witness_halves(Q)
    (ds_s, epr_s), (ds_e, epr_e) = halves["spectra"], halves["ensemble"]
    for sign in (+1, -1):
        assert ds_e(sign) == pytest.approx(ds_s(sign), rel=1e-12, abs=1e-12), sign
    for pair in itertools.permutations((1, 2, 3), 2):
        assert epr_e(*pair) == pytest.approx(epr_s(*pair), rel=1e-12, abs=1e-12), pair


@pytest.mark.parametrize("half", ["spectra", "ensemble"])
def test_both_halves_refuse_the_same_witness_inputs(half, monkeypatch):
    Q = np.eye(6)
    Q[2, 2] = 0.0  # V(X2) = 0: no inferred variance can be conditioned on mode 2
    duan, epr = witness_halves(Q)[half]

    def combine(self, arr):
        raise AssertionError("a table was combined before the arguments were checked")

    monkeypatch.setattr(MomentTable, "_combine", combine)
    for sign in (0, 2, -2):
        with pytest.raises(ValueError, match="sign must be"):
            duan(sign)
    for pair in ((1, 1), (3, 3), (1, 4), (0, 2)):
        with pytest.raises(ValueError):
            epr(*pair)
    monkeypatch.undo()
    with pytest.raises(CorrelationError, match="steering-mode variance"):
        epr(1, 2)
    # conditioning on mode 1 is defined; mode 2's own V(X2) = 0 carries through
    assert epr(2, 1) == pytest.approx(0.0, abs=1e-12)
