"""Eigenvalue analysis, critical drive and the stability map."""

import numpy as np
import pytest

import sfgsim as sf

EPS600 = sf.SystemParams.symmetric(0.01, 1.0, 10.0, 600.0)


def _sorted(vals):
    return sorted(vals, key=lambda z: (np.round(z.real, 8), np.round(z.imag, 8)))


def test_undriven_eigenvalues_are_pure_decay():
    p = sf.SystemParams.symmetric(0.01, 1.0, 10.0, 0.0)
    ss = sf.solve_steady_symmetric(p)
    lam = np.sort(sf.eigenvalues_symmetric(p, ss).real)
    assert np.allclose(lam, [1, 1, 1, 1, 10, 10], atol=1e-12)
    rep = sf.stability(p)
    assert rep.stable and rep.margin == pytest.approx(1.0, abs=1e-12)


def test_eigenvalues_at_reference_drive():
    # frozen from the exact steady state (alpha3 = -94.83498899...)
    ss = sf.solve_steady_symmetric(EPS600)
    lam = _sorted(sf.eigenvalues_symmetric(EPS600, ss))
    expected = _sorted([
        0.0516501101, 1.9483498899, 2.6226149967, 7.4290351134,
        5.9741749450 + 1.6612436380j, 5.9741749450 - 1.6612436380j,
    ])
    for got, want in zip(lam, expected):
        assert got == pytest.approx(want, abs=1e-8)


def test_eigenvalue_pair_product_identity():
    # lambda1*lambda2 = gamma^2 - kappa^2 alpha3^2 for the first pair
    for eps in (100.0, 400.0, 620.0):
        p = sf.SystemParams.symmetric(0.01, 1.0, 10.0, eps)
        ss = sf.solve_steady_symmetric(p)
        lam = sf.eigenvalues_symmetric(p, ss)
        want = 1.0 - (0.01 * np.real(ss.alpha3)) ** 2
        assert lam[0] * lam[1] == pytest.approx(want, rel=1e-12)


def test_closed_form_matches_numeric_eigenvalues_sweep():
    rng = np.random.default_rng(77)
    for _ in range(40):
        kappa = 10 ** rng.uniform(-3, -1)
        gamma = rng.uniform(0.5, 2.0)
        gamma3 = rng.uniform(1.0, 20.0)
        eps = rng.uniform(0.0, 0.9) * 2 * gamma * np.sqrt(gamma * gamma3) / kappa
        p = sf.SystemParams.symmetric(kappa, gamma, gamma3, eps)
        ss = sf.solve_steady_symmetric(p)
        closed = _sorted(sf.eigenvalues_symmetric(p, ss))
        numeric = _sorted(np.linalg.eigvals(sf.drift_matrix(p, ss)))
        for c, n in zip(closed, numeric):
            assert abs(c - n) < 1e-8


def test_stability_examples():
    assert sf.stability(EPS600).stable
    assert not sf.stability(sf.SystemParams.symmetric(0.01, 1.0, 10.0, 1000.0)).stable


def test_margin_flips_across_critical_drive():
    cp = sf.critical_point(sf.SystemParams.symmetric(0.01, 1.0, 10.0, 0.0))
    below = sf.SystemParams.symmetric(0.01, 1.0, 10.0, (1 - 1e-6) * cp.epsilon_c)
    above = sf.SystemParams.symmetric(0.01, 1.0, 10.0, (1 + 1e-6) * cp.epsilon_c)
    assert sf.stability(below).margin > 0
    assert sf.stability(above).margin < 0


def test_critical_point_closed_forms():
    cp = sf.critical_point(sf.SystemParams.symmetric(0.01, 1.0, 10.0, 0.0))
    assert cp.epsilon_c == pytest.approx(200.0 * np.sqrt(10.0), rel=1e-12)
    assert cp.alpha_c == pytest.approx(100.0 * np.sqrt(10.0), rel=1e-12)
    assert cp.alpha3_c == pytest.approx(-100.0, rel=1e-12)

    cp = sf.critical_point(sf.SystemParams.symmetric(0.01, 1.0, 1.0, 0.0))
    assert cp.epsilon_c == pytest.approx(200.0, rel=1e-12)
    assert cp.alpha_c == pytest.approx(100.0, rel=1e-12)


def test_critical_identity_alpha_c():
    for gamma, gamma3 in ((0.7, 3.0), (1.5, 12.0)):
        cp = sf.critical_point(sf.SystemParams.symmetric(0.02, gamma, gamma3, 0.0))
        assert cp.alpha_c * 2 * gamma == pytest.approx(cp.epsilon_c, rel=1e-12)


def test_steady_state_at_critical_drive_touches_boundary():
    cp = sf.critical_point(sf.SystemParams.symmetric(0.01, 1.0, 10.0, 0.0))
    ss = sf.solve_steady_symmetric(
        sf.SystemParams.symmetric(0.01, 1.0, 10.0, cp.epsilon_c))
    assert 0.01 * np.real(ss.alpha3) == pytest.approx(-1.0, abs=1e-8)


def test_critical_point_rejects_asymmetric():
    with pytest.raises(ValueError):
        sf.critical_point(sf.SystemParams(0.01, 1.0, 40.0, 2.0, 400.0, 2400.0))


def test_drive_ratios_reference_values():
    # amplitude ratios 0.50/0.78/0.97 and intensity ratios 0.25/0.61/0.95
    expect = {200.0: (0.504, 0.254), 400.0: (0.784, 0.614), 600.0: (0.974, 0.948)}
    for eps, (amp, inten) in expect.items():
        a, i2 = sf.drive_ratios(sf.SystemParams.symmetric(0.01, 1.0, 10.0, eps))
        assert a == pytest.approx(amp, abs=5e-3)
        assert i2 == pytest.approx(inten, abs=5e-3)


def test_stability_map_matches_closed_form():
    rows = sf.stability_map(0.01, 1.0, [1.0, 4.0, 10.0], (0.0, 1500.0))
    for row in rows:
        assert row.bracketed
        assert row.epsilon_boundary == pytest.approx(
            row.epsilon_closed_form, rel=1e-3)
    # monotone increasing boundary
    bounds = [r.epsilon_boundary for r in rows]
    assert bounds == sorted(bounds)


def test_stability_map_reports_bracket_failures():
    rows = sf.stability_map(0.01, 1.0, [10.0], (0.0, 100.0))
    assert not rows[0].bracketed
    assert "stable" in rows[0].note


def test_stability_map_certifies_with_two_solves_per_ratio(monkeypatch):
    # ratio 100 has epsilon_c 2000, past the range: no solve at all
    calls = []

    def counted(params, ss=None):
        calls.append(params.eps1.real)
        return stability(params, ss)

    stability = sf.steady.stability
    monkeypatch.setattr(sf.steady, "stability", counted)
    rows = sf.stability_map(0.01, 1.0, [1.0, 4.0, 10.0, 100.0], (0.0, 1500.0))
    assert len(calls) == 2 * 3
    tol = sf.steady.BRACKET_REL_TOL
    for row, (below, above) in zip(rows, zip(calls[0::2], calls[1::2])):
        assert row.bracketed and row.epsilon_boundary == row.epsilon_closed_form
        assert (below, above) == (row.epsilon_closed_form * (1 - tol),
                                  row.epsilon_closed_form * (1 + tol))
    assert not rows[3].bracketed and rows[3].note == "entire range stable"


def test_stability_map_reports_a_failed_certificate(monkeypatch):
    # a closed form 1% high leaves its bracket unstable on both sides
    def high(params):
        cp = critical_point(params)
        return sf.steady.CriticalPoint(cp.alpha_c, 1.01 * cp.epsilon_c, cp.alpha3_c)

    critical_point = sf.steady.critical_point
    monkeypatch.setattr(sf.steady, "critical_point", high)
    row, = sf.stability_map(0.01, 1.0, [4.0], (0.0, 1500.0))
    assert not row.bracketed and row.epsilon_boundary is None
    assert row.epsilon_closed_form == pytest.approx(1.01 * 400.0)
    assert row.note.startswith("closed form not certified: margin ")


@pytest.mark.parametrize("ratio", [1.0, 5.0])
def test_stability_map_certifies_what_stability_calls_stable(ratio):
    # at gamma 1e-4 the margin at epsilon_c (1 - 1e-6) is 1e-10, positive but
    # under STABILITY_TOL: stability() reads that point as not stable, so the
    # map cannot certify the closed form there
    row, = sf.stability_map(0.01, 1e-4, [ratio], (0.0, 1.0))
    eps = row.epsilon_closed_form * (1 - 1e-6)
    report = sf.stability(sf.SystemParams.symmetric(0.01, 1e-4, ratio * 1e-4, eps))
    assert 0 < report.margin <= sf.spectra.STABILITY_TOL and not report.stable
    assert not row.bracketed and row.epsilon_boundary is None
    assert row.note.startswith("closed form not certified: margin 1e-10 at ")


@pytest.mark.parametrize("eps_range, note", [
    ((0.0, 400.0), "range ends inside the certified bracket"),
    ((400.0, 500.0), "range ends inside the certified bracket"),
    ((401.0, 500.0), "entire range unstable"),
])
def test_stability_map_notes_a_range_without_the_bracket(eps_range, note):
    # ratio 4: epsilon_c = 400, bracketed to (399.9996, 400.0004)
    row, = sf.stability_map(0.01, 1.0, [4.0], eps_range)
    assert not row.bracketed and row.note.startswith(note)


def test_stability_map_validates_grids():
    with pytest.raises(ValueError):
        sf.stability_map(0.01, 1.0, [], (0.0, 100.0))
    with pytest.raises(ValueError):
        sf.stability_map(0.01, 1.0, [2.0, 1.0], (0.0, 100.0))
