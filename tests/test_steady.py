import dataclasses
import itertools
import re

import numpy as np
import pytest

import sfgsim as sf
from sfgsim import presets, spectra, steady
from sfgsim.errors import ParameterError, SteadyStateError

import oracles

# frozen against the damped fixed-point and scipy-Newton oracles (both
# agree to 1e-10); kappa=0.01, gamma=1, gamma3=10
FROZEN_SYMMETRIC = {
    200.0: (159.4562116631, -25.4262834380),
    400.0: (247.8136534524, -61.4116068374),
    600.0: (307.9529006073, -94.8349889924),
}


def params(eps, kappa=0.01, gamma=1.0, gamma3=10.0):
    return sf.SystemParams.symmetric(kappa, gamma, gamma3, eps)


def test_unpumped_cavity_is_empty():
    ss = sf.solve_steady_symmetric(params(0.0))
    assert ss.alpha1 == 0 and ss.alpha2 == 0 and ss.alpha3 == 0
    assert ss.residual == 0.0


@pytest.mark.parametrize("eps", sorted(FROZEN_SYMMETRIC))
def test_symmetric_against_frozen_oracle_values(eps):
    ss = sf.solve_steady_symmetric(params(eps))
    a, a3 = FROZEN_SYMMETRIC[eps]
    assert ss.alpha1 == pytest.approx(a, abs=1e-8)
    assert ss.alpha2 == pytest.approx(a, abs=1e-8)
    assert ss.alpha3 == pytest.approx(a3, abs=1e-8)
    assert ss.method == "closed-form-symmetric"
    assert ss.residual < 1e-10


def test_symmetric_against_live_oracles():
    for eps in (150.0, 333.0, 615.0):
        a_fp, a3_fp = oracles.fixed_point_symmetric(0.01, 1.0, 10.0, eps)
        a_nw, a3_nw = oracles.newton_symmetric(0.01, 1.0, 10.0, eps)
        assert a_fp == pytest.approx(a_nw, abs=1e-9)
        ss = sf.solve_steady_symmetric(params(eps))
        assert ss.alpha1 == pytest.approx(a_fp, abs=1e-8)
        assert ss.alpha3 == pytest.approx(a3_fp, abs=1e-8)


def test_symmetric_requires_symmetric_params():
    with pytest.raises(ValueError):
        sf.solve_steady_symmetric(sf.SystemParams(0.01, 1.0, 2.0, 10.0, 400.0, 400.0))
    with pytest.raises(ValueError):
        sf.solve_steady_symmetric(
            sf.SystemParams(0.01, 1.0, 1.0, 10.0, 400.0j, 400.0j))


_REAL = sf.SteadyStateSolution(1.0 + 0j, 1.0 + 0j, -1.0 + 0j, 0.0, "closed-form-symmetric")


@pytest.mark.parametrize("check, needle", [
    (lambda: steady.stability_map(0.01, 1.0, [1.0, 2.0], (0.0, 0.0)),
     "epsilon_range must satisfy 0 <= lo < hi"),
    (lambda: steady.stability_map(0.01, 1.0, [1.0, 2.0], (-1.0, 5.0)),
     "epsilon_range must satisfy 0 <= lo < hi"),
    (lambda: steady.stability_map(0.01, 1.0, [1.0, 2.0], (5.0, 1.0)),
     "epsilon_range must satisfy 0 <= lo < hi"),
    (lambda: steady.critical_point(params(100.0, gamma=0.0)),
     "critical_point requires gamma > 0 and gamma3 > 0"),
    (lambda: steady.critical_point(params(100.0, gamma3=0.0)),
     "critical_point requires gamma > 0 and gamma3 > 0"),
    (lambda: sf.solve_steady_symmetric(params(100.0, gamma=0.0)),
     "needs gamma > 0 and gamma3 > 0"),
    (lambda: sf.solve_steady_symmetric(params(100.0, gamma3=0.0)),
     "needs gamma > 0 and gamma3 > 0"),
    (lambda: steady.eigenvalues_symmetric(
        params(100.0), dataclasses.replace(_REAL, alpha1=1.0 + 1e-6j)),
     "requires a real steady state"),
    (lambda: steady.eigenvalues_symmetric(
        params(100.0), dataclasses.replace(_REAL, alpha3=-1.0 + 1e-6j)),
     "requires a real steady state"),
], ids=["epsilon-range-empty", "epsilon-range-negative", "epsilon-range-reversed",
        "critical-gamma-zero", "critical-gamma3-zero", "symmetric-gamma-zero",
        "symmetric-gamma3-zero", "eigenvalues-complex-alpha1", "eigenvalues-complex-alpha3"])
def test_steady_input_checks_name_their_invariant(check, needle):
    with pytest.raises(ParameterError, match=re.escape(needle)):
        check()


def test_candidate_roots_reported():
    ss = sf.solve_steady_symmetric(params(600.0))
    assert len(ss.candidates) == 3
    # exactly one nonpositive real root among the candidates
    real = [r for r in ss.candidates if abs(r.imag) < 1e-9 and r.real <= 0]
    assert len(real) == 1


def test_general_matches_symmetric():
    p = params(400.0)
    s1 = sf.solve_steady_symmetric(p)
    s2 = sf.solve_steady_general(p)
    assert abs(s1.alpha1 - s2.alpha1) < 1e-8
    assert abs(s1.alpha3 - s2.alpha3) < 1e-8
    assert s2.method == "numeric-general"


def test_general_asymmetric_frozen():
    # frozen against scipy-Newton and damped fixed-point oracles
    p = sf.SystemParams(0.01, 1.0, 40.0, 2.0, 400.0, 2400.0)
    ss = sf.solve_steady_general(p)
    assert ss.alpha1 == pytest.approx(352.46568261, abs=1e-6)
    assert ss.alpha2 == pytest.approx(51.93500876, abs=1e-6)
    assert ss.alpha3 == pytest.approx(-91.52654157, abs=1e-6)
    assert ss.residual < 1e-10

    a1, a2, a3 = oracles.newton_general(0.01, 1.0, 40.0, 2.0, 400.0, 2400.0)
    assert ss.alpha1 == pytest.approx(a1, abs=1e-7)
    assert ss.alpha3 == pytest.approx(a3, abs=1e-7)
    f1, f2, f3 = oracles.fixed_point_general(0.01, 1.0, 40.0, 2.0, 400.0, 2400.0)
    assert a1 == pytest.approx(f1, abs=1e-7) and a3 == pytest.approx(f3, abs=1e-7)


def test_general_zero_pump_gives_vacuum():
    ss = sf.solve_steady_general(sf.SystemParams(0.01, 1.0, 1.0, 10.0))
    assert ss.alpha1 == 0 and ss.alpha3 == 0


def test_general_requires_positive_gammas():
    with pytest.raises(ValueError):
        sf.solve_steady_general(sf.SystemParams(0.01, 1.0, 0.0, 10.0, 1.0, 1.0))


def test_general_supports_complex_pumps():
    p = sf.SystemParams(0.01, 1.0, 1.0, 10.0, 400 * np.exp(0.7j), 400 * np.exp(-0.2j))
    ss = sf.solve_steady_general(p)
    assert ss.residual < 1e-10
    assert abs(ss.alpha3.imag) > 1.0  # genuinely complex operating point


def test_closed_form_numeric_agreement_sweep():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        kappa = 10 ** rng.uniform(-3, -1)
        gamma = rng.uniform(0.5, 2.0)
        gamma3 = rng.uniform(1.0, 20.0)
        eps = rng.uniform(0.0, 0.9) * 2 * gamma * np.sqrt(gamma * gamma3) / kappa
        p = sf.SystemParams.symmetric(kappa, gamma, gamma3, eps)
        s1 = sf.solve_steady_symmetric(p)
        s2 = sf.solve_steady_general(p)
        scale = max(1.0, abs(s1.alpha1))
        assert abs(s1.alpha1 - s2.alpha1) / scale < 1e-8
        assert abs(s1.alpha3 - s2.alpha3) / scale < 1e-8
        # residual and sign contracts
        assert s1.residual < 1e-10 and s2.residual < 1e-10
        assert np.real(s1.alpha3) <= 0 and np.real(s1.alpha1) >= 0


def test_residual_norm_contract():
    p = params(512.0)
    ss = sf.solve_steady_symmetric(p)
    assert sf.residual_norm(p, ss.alpha1, ss.alpha2, ss.alpha3) == ss.residual
    # perturbing the solution must break the residual bound
    bad = sf.residual_norm(p, ss.alpha1 + 1e-3, ss.alpha2, ss.alpha3)
    assert bad > steady._residual_bound(p, ss.alpha1 + 1e-3, ss.alpha2, ss.alpha3)


def _signed_zero_states():
    """(6, n) states whose real and imaginary parts run over +0, -0 and two
    nonzero values, plus the travelling-wave preset's coherent start."""
    rng = np.random.default_rng(17)
    parts = rng.choice(np.array([0.0, -0.0, 1.5, -0.75]), size=(2, 6, 4096))
    x = np.empty((6, 4097), dtype=complex)
    x.real[:, :-1], x.imag[:, :-1] = parts
    t = presets._TW_PARAMS
    x[:, -1] = sf.PhaseSpacePoint.coherent(
        t["alpha1_0"], t["alpha2_0"], t["alpha3_0"]).as_array()
    return x


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# every zero/nonzero combination of (eps1, eps2, gamma1, gamma2, gamma3),
# then zero pumps and rates carrying a negative sign
_RATES_AND_PUMPS = [
    tuple(v if on else 0.0 for v, on in zip((3 - 2j, -1.5 + 0.5j, 0.7, 1.9, 4.0), mask))
    for mask in itertools.product((False, True), repeat=5)
] + [(complex(-0.0, 0.0), complex(0.0, -0.0), 0.0, 0.0, 0.0),
     (complex(-0.0, -0.0), 0.0, -0.0, -0.0, -0.0)]


def test_residual_norm_is_the_three_equation_form():
    # the kernel-based residual must round exactly like the equations
    # written out, including complex pumps and asymmetric rates
    rng = np.random.default_rng(11)
    for _ in range(500):
        g = 10 ** rng.uniform(-2, 2, size=3)
        e1, e2 = (complex(*rng.normal(size=2)) * 10 ** rng.uniform(-2, 6) for _ in range(2))
        p = sf.SystemParams(10 ** rng.uniform(-4, 0), *g, e1, e2)
        a1, a2, a3 = (complex(*rng.normal(size=2)) * 10 ** rng.uniform(-2, 5) for _ in range(3))
        assert sf.residual_norm(p, a1, a2, a3) == oracles.residual_three_equations(p, a1, a2, a3)
    # zero and negative-zero rates and pumps, at states with signed zeros
    x = _signed_zero_states()[0::2, ::64]
    for eps1, eps2, gamma1, gamma2, gamma3 in _RATES_AND_PUMPS:
        p = sf.SystemParams(0.3, gamma1, gamma2, gamma3, eps1, eps2)
        for a1, a2, a3 in x.T:
            assert (sf.residual_norm(p, a1, a2, a3)
                    == oracles.residual_three_equations(p, a1, a2, a3))


def test_classical_rhs_block_equals_columns():
    # one kernel serves a component-first block (6, n) and a single state;
    # a (6, 1) column runs the same array arithmetic and matches bit for
    # bit, a (6,) state goes through numpy's scalar complex arithmetic,
    # which may round the products differently in the last ulp
    rng = np.random.default_rng(5)
    p = sf.SystemParams(0.03, 0.7, 1.9, 4.0, 300 * np.exp(0.4j), 120 * np.exp(-1.1j))
    x = rng.normal(size=(6, 37)) * 50 + 1j * rng.normal(size=(6, 37)) * 50
    block = steady.classical_rhs(p, x)
    assert block.shape == (6, 37)
    columns = np.concatenate([steady.classical_rhs(p, x[:, j:j + 1]) for j in range(37)],
                             axis=1)
    assert np.array_equal(block, columns)
    # a block may come as six rows
    assert np.array_equal(steady.classical_rhs(p, tuple(x)), block)
    states = np.stack([steady.classical_rhs(p, x[:, j]) for j in range(37)], axis=1)
    assert np.allclose(states, block, rtol=1e-14, atol=0)


@pytest.mark.parametrize("eps1,eps2,gamma1,gamma2,gamma3", _RATES_AND_PUMPS)
def test_classical_rhs_is_the_written_out_flow_bit_for_bit(eps1, eps2, gamma1, gamma2, gamma3):
    # blocks run the rows stacked, (6,) states written out on scalars;
    # signed zeros can pick the sqrt branch of a negative real a3 in the
    # ensemble step, so every bit must match, zero signs included
    p = sf.SystemParams(presets.TW_KAPPA, gamma1, gamma2, gamma3, eps1, eps2)
    x = _signed_zero_states()
    want = oracles.classical_rhs_written_out(p, x)
    assert _same_bits(steady.classical_rhs(p, x), want)
    # the widths the ensemble runs: numpy's vector loops split a row into
    # a body and a remainder by width, and the stacked rows run as longer
    # loops than the written-out ones.  Generic values as well, whose
    # products round: numpy's fused multiply-add rounds (k a) b and
    # b (k a) differently, so they pin the operand order.  A flow bound
    # once, as the ensemble step binds it, reads whatever its x holds
    generic = np.random.default_rng(29).normal(scale=40.0, size=(2, 6, 2048))
    for width in (1, 7, 256, 2048):
        bound, out, scratch = np.empty((3, 6, width), dtype=complex)
        flow = steady.block_flow(p, bound, out, scratch, steady.block_coefficients(p, width))
        for states in (x, generic[0] + 1j * generic[1]):
            block = np.ascontiguousarray(states[:, -width:])
            want = oracles.classical_rhs_written_out(p, block)
            assert _same_bits(steady.classical_rhs(p, block), want), width
            bound[...] = block
            assert flow() is out
            assert _same_bits(out, want), width
    # (6,) states go through numpy's scalar arithmetic
    for j in [*range(0, 4096, 16), 4096]:
        assert _same_bits(steady.classical_rhs(p, x[:, j]),
                          oracles.classical_rhs_written_out(p, x[:, j])), j


def test_large_pump_root_passes_scaled_residual_bound():
    # the residual of a root correct to rounding grows with the size of the
    # equation terms; here it is about 1e-9 against terms of about 1e7
    p = sf.SystemParams.symmetric(1.3e-3, 9.79, 16.7, 7.3e6)
    s1 = sf.solve_steady_symmetric(p)
    s2 = sf.solve_steady_general(p)
    a3 = oracles.symmetric_root_brentq(1.3e-3, 9.79, 16.7, 7.3e6)
    assert s1.alpha3.real == pytest.approx(a3, rel=1e-13, abs=0)
    assert s2.alpha3 == pytest.approx(s1.alpha3, rel=1e-12, abs=0)
    assert s2.alpha1 == pytest.approx(s1.alpha1, rel=1e-12, abs=0)
    assert s1.residual > steady.RESIDUAL_TOL


def test_general_solver_stops_at_convergence_for_large_pumps(monkeypatch):
    # the stopping tests scale with the equation terms like the residual
    # bound; absolute tests were never met here and spent the whole budget
    calls, rhs = [], steady.classical_rhs

    def counted(*args, **kwargs):
        calls.append(1)
        return rhs(*args, **kwargs)

    monkeypatch.setattr(steady, "classical_rhs", counted)
    ss = sf.solve_steady_general(sf.SystemParams.symmetric(1.3e-3, 9.79, 16.7, 7.3e6))
    assert len(calls) <= 50
    a3 = oracles.symmetric_root_brentq(1.3e-3, 9.79, 16.7, 7.3e6)
    assert ss.alpha3.real == pytest.approx(a3, rel=1e-12, abs=0)


def test_general_solver_backtracks_a_newton_step_that_raises_the_residual(monkeypatch):
    # an asymmetric point whose full Newton steps overshoot twice: a trial
    # whose residual does not fall below the best so far is halved
    residuals, rhs = [], steady.classical_rhs
    solves, solve = [], np.linalg.solve

    def recorded(params, x):
        F = rhs(params, x)
        residuals.append(float(np.max(np.abs(F))))
        return F

    monkeypatch.setattr(steady, "classical_rhs", recorded)
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or solve(*a))
    p = sf.SystemParams(0.6034, 0.6829, 0.5912, 1.6686, 209.27, 200.16)
    ss = sf.solve_steady_general(p)
    trials = residuals[1:-1]  # after the start, before the verifying residual_norm
    halved = sum(r >= min(residuals[:i + 1]) for i, r in enumerate(trials))
    assert halved == 2
    # every other trial was a Newton step accepted: no damped fallback ran
    assert len(trials) == len(solves) + halved
    assert ss.residual < steady._residual_bound(p, ss.alpha1, ss.alpha2, ss.alpha3)


@pytest.mark.parametrize("figure", ["fig4", "fig5", "fig6", "fig7", "fig8"])
def test_general_solver_is_converged_at_figure_pumps(figure):
    # a stop no earlier than rounding: further Newton steps and, for
    # symmetric driving, the closed-form root agree to 1e-12
    for run in presets.PRESETS[figure].parameters.values():
        p = sf.SystemParams(**run)
        ss = sf.solve_steady_general(p)
        x = ss.phase_space
        for _ in range(3):
            A = spectra.drift_matrix_raw(p.kappa, *p.gammas, x)
            x = x + np.linalg.solve(A, steady.classical_rhs(p, x))
        want = [x[0], x[2], x[4]]
        if p.is_symmetric:
            closed = sf.solve_steady_symmetric(p)
            want += [closed.alpha1, closed.alpha2, closed.alpha3]
        got = [ss.alpha1, ss.alpha2, ss.alpha3] * (len(want) // 3)
        scale = max(abs(ss.alpha1), abs(ss.alpha2), abs(ss.alpha3))
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12 * scale, run


@pytest.mark.parametrize("p", [
    params(200.0),
    sf.SystemParams(0.01, 1.0, 1.0, 10.0, 400 * np.exp(0.7j), 400 * np.exp(-0.2j)),
], ids=["symmetric", "complex-pumps"])
def test_damped_fallback_reaches_newton_fixed_point(p, monkeypatch):
    newton = sf.solve_steady_general(p)

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(np.linalg, "solve", singular)
    fallback = sf.solve_steady_general(p)
    for name in ("alpha1", "alpha2", "alpha3"):
        want = getattr(newton, name)
        assert abs(getattr(fallback, name) - want) <= 1e-12 * abs(want), name


def test_phase_space_vector_conjugate_layout():
    ss = sf.solve_steady_general(
        sf.SystemParams(0.01, 1.0, 1.0, 10.0, 300 * np.exp(0.5j), 300 * np.exp(0.5j)))
    vec = ss.phase_space
    assert vec[1] == np.conj(vec[0])
    assert vec[5] == np.conj(vec[4])


def test_internal_inconsistency_error_carries_candidates():
    with pytest.raises(SteadyStateError) as err:
        raise SteadyStateError("forced", candidates=(1j, 2j))
    assert err.value.candidates == (1j, 2j)


def test_symmetric_root_matches_brentq_oracle():
    # drives from far below to far above critical, within 1e-9 of it on
    # both sides, and pumps near 1e7; above critical the point is unstable
    # but still the unique physical fixed point
    rng = np.random.default_rng(7)
    for _ in range(300):
        kappa = 10 ** rng.uniform(-4, 0)
        gamma = 10 ** rng.uniform(-2, 2)
        gamma3 = 10 ** rng.uniform(-2, 2)
        eps_c = 2 * gamma * np.sqrt(gamma * gamma3) / kappa
        drives = (eps_c * 10 ** rng.uniform(-6, 2), eps_c * 10 ** rng.uniform(-9, -6),
                  eps_c * (1 - 1e-9), eps_c * (1 + 1e-9), 10 ** rng.uniform(6.5, 7))
        for eps in drives:
            ss = sf.solve_steady_symmetric(sf.SystemParams.symmetric(kappa, gamma, gamma3, eps))
            a3 = oracles.symmetric_root_brentq(kappa, gamma, gamma3, eps)
            assert ss.alpha3.real == pytest.approx(a3, rel=1e-13, abs=0)
            assert ss.alpha1.real == pytest.approx(eps / (gamma - kappa * a3), rel=1e-13, abs=0)
            # the companion root itself, with no further step
            root = min(ss.candidates, key=lambda z: z.real)
            assert ss.alpha3 == complex(root.real) and ss.alpha3.imag == 0
