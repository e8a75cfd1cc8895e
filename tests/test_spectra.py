"""Drift/diffusion structure, the spectral formula and output spectra."""

import itertools
import re

import numpy as np
import pytest

import sfgsim as sf
from sfgsim.errors import CorrelationError, UnstableOperatingPointError
from sfgsim.presets import PRESETS

import oracles

P600 = sf.SystemParams.symmetric(0.01, 1.0, 10.0, 600.0)
SS600 = sf.solve_steady_symmetric(P600)


def test_drift_matrix_unpumped_is_diagonal():
    p = sf.SystemParams.symmetric(0.01, 1.0, 10.0, 0.0)
    ss = sf.solve_steady_symmetric(p)
    A = sf.drift_matrix(p, ss)
    assert np.allclose(A, np.diag([1, 1, 1, 1, 10, 10]), atol=0)


def test_drift_matrix_reference_entry():
    A = sf.drift_matrix(P600, SS600)
    # -kappa*alpha3 with alpha3 ~ -94.835
    assert A[0, 3] == pytest.approx(0.9483498899, abs=1e-8)
    assert np.allclose(A.imag, 0.0)  # real at a real symmetric steady state


def test_drift_matrix_structure_against_definition():
    # every entry hand-checked against the linearized equations
    p = sf.SystemParams(0.01, 1.0, 2.0, 3.0, 100.0, 150.0)
    ss = sf.solve_steady_general(p)
    a1, a2, a3 = ss.alpha1, ss.alpha2, ss.alpha3
    k = 0.01
    want = np.array([
        [1.0, 0, 0, -k * a3, -k * np.conj(a2), 0],
        [0, 1.0, -k * np.conj(a3), 0, 0, -k * a2],
        [0, -k * a3, 2.0, 0, -k * np.conj(a1), 0],
        [-k * np.conj(a3), 0, 0, 2.0, 0, -k * a1],
        [k * a2, 0, k * a1, 0, 3.0, 0],
        [0, k * np.conj(a2), 0, k * np.conj(a1), 0, 3.0],
    ])
    assert np.allclose(sf.drift_matrix(p, ss), want, atol=1e-14)


def test_diffusion_product_structure():
    D = sf.diffusion_product(P600, SS600)
    ka3 = 0.01 * complex(SS600.alpha3)
    want = np.zeros((6, 6), dtype=complex)
    want[0, 2] = want[2, 0] = ka3
    want[1, 3] = want[3, 1] = np.conj(ka3)
    assert np.allclose(D, want, atol=0)
    # four independent real noise channels: the coupled 4x4 block has
    # determinant |kappa*alpha3|^4, so the rank is exactly 4 when driven
    assert np.linalg.matrix_rank(D) == 4


def test_diffusion_vanishes_unpumped():
    p = sf.SystemParams.symmetric(0.01, 1.0, 10.0, 0.0)
    D = sf.diffusion_product(p, sf.solve_steady_symmetric(p))
    assert np.all(D == 0)


def test_diffusion_equals_noise_matrix_product():
    # hand-written 6x4 noise-coefficient matrix, independent of the library
    a3 = complex(SS600.alpha3)
    s3 = np.sqrt(0.01 * a3 / 2)
    s3c = np.sqrt(0.01 * np.conj(a3) / 2)
    B = np.array([
        [s3, 0, 1j * s3, 0],
        [0, s3c, 0, 1j * s3c],
        [s3, 0, -1j * s3, 0],
        [0, s3c, 0, -1j * s3c],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ])
    assert np.allclose(B, sf.noise_matrix(P600, SS600), atol=1e-15)
    assert np.allclose(B @ B.T, sf.diffusion_product(P600, SS600), atol=1e-15)


def test_spectrum_zero_diffusion_is_zero():
    A = sf.drift_matrix(P600, SS600)
    S = sf.intracavity_spectrum(A, np.zeros((6, 6)), 0.3)
    assert np.all(S == 0)


def test_resolvent_identity_reconstructs_diffusion():
    A = sf.drift_matrix(P600, SS600)
    D = sf.diffusion_product(P600, SS600)
    eye = np.eye(6)
    for w in (0.0, 0.7, 5.0, -13.0):
        S = sf.intracavity_spectrum(A, D, w)
        back = (A + 1j * w * eye) @ S @ (A.T - 1j * w * eye)
        assert np.max(np.abs(back - D)) < 1e-10


def test_spectrum_resolvent_decay():
    A = sf.drift_matrix(P600, SS600)
    D = sf.diffusion_product(P600, SS600)
    n1 = np.max(np.abs(sf.intracavity_spectrum(A, D, 100.0)))
    n2 = np.max(np.abs(sf.intracavity_spectrum(A, D, 200.0)))
    assert n2 < n1 / 3.5  # ~1/w^2 falloff


def test_spectrum_refuses_unstable_point():
    p = sf.SystemParams.symmetric(0.01, 1.0, 10.0, 1000.0)
    ss = sf.solve_steady_general(p)
    A = sf.drift_matrix(p, ss)
    D = sf.diffusion_product(p, ss)
    with pytest.raises(UnstableOperatingPointError):
        sf.intracavity_spectrum(A, D, 0.0)
    with pytest.raises(UnstableOperatingPointError):
        sf.spectrum(p)


def test_output_is_shot_noise_without_drive():
    p = sf.SystemParams.symmetric(0.01, 1.0, 10.0, 0.0)
    res = sf.spectrum(p, omegas=np.linspace(-5, 5, 21))
    assert np.allclose(res.output, np.eye(6)[None, :, :], atol=1e-14)


def test_output_approaches_shot_noise_at_large_frequency():
    res = sf.spectrum(P600, omegas=np.array([-3000.0, 3000.0]))
    assert np.allclose(res.output, np.eye(6)[None, :, :], atol=2e-4)


def test_output_physicality():
    res = sf.spectrum(P600)
    diag = np.einsum("nii->ni", res.output)
    assert np.all(diag >= 0)
    for mode in (1, 2, 3):
        vx = res.variance(mode, "X")
        vy = res.variance(mode, "Y")
        assert np.all(vx * vy >= 1.0 - 1e-12)


def test_reference_squeezing_value():
    res = sf.spectrum(P600)
    assert res.variance(3, "X").min() == pytest.approx(0.51334, abs=1e-4)
    assert res.variance(3, "X").min() < 1.0


def test_output_even_in_frequency():
    res = sf.spectrum(P600)
    assert np.allclose(res.output, res.output[::-1], atol=1e-9)
    assert res.max_imag_residue < 1e-10


def test_exchange_symmetry_under_mode_swap():
    pa = sf.SystemParams(0.01, 1.0, 40.0, 2.0, 400.0, 2400.0)
    pb = sf.SystemParams(0.01, 40.0, 1.0, 2.0, 2400.0, 400.0)
    grid = np.linspace(-8, 8, 41)
    ra = sf.spectrum(pa, omegas=grid)
    rb = sf.spectrum(pb, omegas=grid)
    perm = [2, 3, 0, 1, 4, 5]
    swapped = rb.output[:, perm][:, :, perm]
    assert np.allclose(ra.output, swapped, atol=1e-10)


def test_spectral_duan_simon_bounds():
    p0 = sf.SystemParams.symmetric(0.01, 1.0, 10.0, 0.0)
    res0 = sf.spectrum(p0, omegas=np.linspace(-5, 5, 11))
    assert np.allclose(sf.spectral_duan_simon(res0), 4.0, atol=1e-12)

    res = sf.spectrum(P600)
    plus = sf.spectral_duan_simon(res, +1)
    minus = sf.spectral_duan_simon(res, -1)
    assert plus.min() < 4.0
    assert np.all(minus >= 4.0 - 1e-9)
    # asymptotically separable
    assert abs(plus[0] - 4.0) < 0.05 and abs(plus[-1] - 4.0) < 0.05


def test_spectral_epr_symmetric_case():
    res = sf.spectrum(P600)
    e12 = sf.spectral_epr(res, 1, 2)
    e21 = sf.spectral_epr(res, 2, 1)
    assert e12.min() < 1.0
    assert np.allclose(e12, e21, atol=1e-10)

    p0 = sf.SystemParams.symmetric(0.01, 1.0, 10.0, 0.0)
    res0 = sf.spectrum(p0, omegas=np.linspace(-5, 5, 11))
    assert np.allclose(sf.spectral_epr(res0, 1, 2), 1.0, atol=1e-12)


def test_spectral_epr_validates_modes():
    res = sf.spectrum(P600, omegas=np.array([0.0]))
    with pytest.raises(ValueError):
        sf.spectral_epr(res, 1, 1)


@pytest.mark.parametrize("mode, quad, needle", [
    (0, "X", "mode must be 1, 2 or 3"), (4, "Y", "mode must be 1, 2 or 3"),
    (1, "Z", "quad must be 'X' or 'Y'"), (2, "", "quad must be 'X' or 'Y'"),
])
def test_quadrature_index_names_its_invariant(mode, quad, needle):
    with pytest.raises(ValueError, match=re.escape(needle)):
        sf.quadrature_index(mode, quad)


@pytest.mark.parametrize("run", [PRESETS["fig4"].parameters["eps=600"],
                                 PRESETS["fig7"].parameters["run"]], ids=["fig4-eps600", "fig7"])
def test_spectral_witnesses_equal_their_written_out_bodies_bit_for_bit(run):
    res = sf.spectrum(sf.SystemParams(**run))
    for sign in (+1, -1):
        got = sf.spectral_duan_simon(res, sign)
        assert got.tobytes() == oracles.spectral_duan_simon(res.output, sign).tobytes(), sign
    for pair in itertools.permutations((1, 2, 3), 2):
        got = sf.spectral_epr(res, *pair)
        assert got.tobytes() == oracles.spectral_epr(res.output, *pair).tobytes(), pair


def test_monotone_deepening_with_drive_at_zero_frequency():
    mins = {"vx3": [], "ds": [], "epr": []}
    at0 = {"vx3": [], "ds": [], "epr": []}
    for eps in (200.0, 400.0, 600.0):
        p = sf.SystemParams.symmetric(0.01, 1.0, 10.0, eps)
        res = sf.spectrum(p)
        i0 = np.argmin(np.abs(res.omega))
        at0["vx3"].append(res.variance(3, "X")[i0])
        at0["ds"].append(sf.spectral_duan_simon(res)[i0])
        at0["epr"].append(sf.spectral_epr(res, 1, 2)[i0])
        mins["vx3"].append(res.variance(3, "X").min())
        mins["ds"].append(sf.spectral_duan_simon(res).min())
        mins["epr"].append(sf.spectral_epr(res, 1, 2).min())
    for key in at0:
        assert at0[key][0] > at0[key][1] > at0[key][2]
        assert mins[key][0] > mins[key][1] > mins[key][2]


def test_spectral_formula_against_simulated_linear_sde():
    # direct simulation of the fluctuation SDE vs the resolvent formula
    p = sf.SystemParams.symmetric(0.01, 1.0, 10.0, 400.0)
    ss = sf.solve_steady_symmetric(p)
    A = sf.drift_matrix(p, ss)
    B = sf.noise_matrix(p, ss)
    D = sf.diffusion_product(p, ss)
    est = oracles.ou_periodogram(A, B, [0.0, 1.0], n_traj=3000,
                                 t_window=150.0, t_burn=25.0, seed=5)
    for w, (S_est, S_se) in est.items():
        S = sf.intracavity_spectrum(A, D, w)
        err = np.abs(S - S_est)
        tol = 3.0 * S_se + 1e-4
        assert np.all(err <= tol), (w, np.max(err / np.maximum(S_se, 1e-12)))


@pytest.mark.parametrize("run", [
    {"kappa": 0.01, "gamma1": 1.0, "gamma2": 1.0, "gamma3": 10.0,
     "eps1": 600.0, "eps2": 600.0},                                   # fig4
    {"kappa": 0.01, "gamma1": 1.0, "gamma2": 40.0, "gamma3": 2.0,
     "eps1": 400.0, "eps2": 2400.0},                                  # fig7
])
def test_batched_sweep_equals_per_frequency_loop(run):
    p = sf.SystemParams(**run)
    res = sf.spectrum(p)
    intracavity, output, asym, imag = oracles.spectrum_by_frequency(
        p, res.steady_state, res.omega)
    assert np.array_equal(res.intracavity, intracavity)
    assert np.array_equal(res.output, output)
    assert res.max_asymmetry == asym and res.max_imag_residue == imag
    # a scalar frequency gives the matching single matrix
    A = sf.drift_matrix(p, res.steady_state)
    D = sf.diffusion_product(p, res.steady_state)
    assert np.array_equal(sf.intracavity_spectrum(A, D, res.omega[3]), intracavity[3])
