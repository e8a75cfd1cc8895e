"""Ensemble presets: fig1-fig3 share one travelling-wave ensemble, pending
until each figure has been analysed on it once, and every runner takes the
trajectory count given."""

import traceback
import weakref

import pytest
from numpy.testing import assert_array_equal

from sfgsim import presets, trajectories
from sfgsim.errors import CorrelationError, ParameterError

# the errors fig2 and fig3 raise on their own at 64 trajectories, seed 3
FIG2_ERROR = ("V(X3(theta=0)): imaginary residue 7.623e+01 exceeds tolerance; "
              "moment table is inconsistent")
FIG3_ERROR = ("V(X1+X2)+V(Y1-Y2): imaginary residue 1.625e+00 exceeds tolerance; "
              "moment table is inconsistent")

# (name, passed, detail) of every check, as each figure reports them: fig1-fig3
# at 192 trajectories, seed 3; fig4-fig7 at their own parameters
PINNED_CHECKS = {
    "fig1": [
        ("conserved n1+n3", True, "max deviation 1.85 SE (limit 3)"),
        ("conserved n2+n3", True, "max deviation 1.85 SE (limit 3)"),
        ("conserved n1-n2", True, "max deviation 1.85 SE (limit 3)"),
        ("near-complete conversion", True, "peak n3 = 4.99e+05 vs 0.8*(n1+n2)(0)/2 = 4e+05"),
        ("partial reconversion", True, "decline from peak 46.7% (need >= 10%)"),
    ],
    "fig2": [
        ("sum-frequency quadrature squeezed", True,
         "V(X3) below 1 by 15.8 SE before peak conversion (need > 3)"),
        ("sub-Poissonian intensity sum", True,
         "Fano below 1 by 17.6 SE at early times (need > 3)"),
    ],
    "fig3": [
        ("joint-quadrature entanglement", True,
         "V(X1+X2)+V(Y1-Y2) below 4 by 23.5 SE (need > 3)"),
        ("inferred-variance paradox", True, "EPR product below 1 by 6.9 SE (need > 3)"),
    ],
    "fig4": [
        ("below threshold at eps=200", True, "min 0.8336 vs 1.0"),
        ("below threshold at eps=400", True, "min 0.6265 vs 1.0"),
        ("below threshold at eps=600", True, "min 0.5133 vs 1.0"),
        ("deepens with drive", True, "minima 0.8336 > 0.6265 > 0.5133"),
    ],
    "fig5": [
        ("below threshold at eps=200", True, "min 2.0524 vs 4.0"),
        ("below threshold at eps=400", True, "min 1.5062 vs 4.0"),
        ("below threshold at eps=600", True, "min 1.4882 vs 4.0"),
        ("deepens with drive", True, "minima 2.0524 > 1.5062 > 1.4882"),
    ],
    "fig6": [
        ("below threshold at eps=600", True, "min 0.0021 vs 1.0"),
        ("deepens with drive", True, "minima 0.6326 > 0.1486 > 0.0021"),
    ],
    "fig7": [
        ("mode 2 steers mode 1", True, "min EPR12 = 0.8273 (need < 1)"),
        ("mode 1 cannot steer mode 2", False, "min EPR21 = 0.8243 (need >= 1)"),
    ],
}


def check_lines(result):
    return [(c.name, c.passed, c.detail) for c in result.checks]


@pytest.fixture
def tables(monkeypatch):
    """Weak references to every table ``run_ensemble`` returns, in call order."""
    made = []
    run_ensemble = trajectories.run_ensemble

    def counted(*args, **kwargs):
        table = run_ensemble(*args, **kwargs)
        made.append(weakref.ref(table))
        return table

    monkeypatch.setattr(trajectories, "run_ensemble", counted)
    return made



@pytest.fixture
def analysed(monkeypatch):
    """The fig1-fig3 figures whose analysis ran, in call order."""
    ran = []
    for name, (description, analyse) in list(presets._TW_ANALYSES.items()):
        def counted(table, name=name, analyse=analyse):
            ran.append(name)
            return analyse(table)

        monkeypatch.setitem(presets._TW_ANALYSES, name, (description, counted))
    return ran


def run(fig, n_traj=64, seed=3):
    return presets.PRESETS[fig].run(n_traj=n_traj, seed=seed)


def test_one_ensemble_per_key_each_figure_analysed_once(tables, analysed, monkeypatch):
    integrate = presets.travelling_wave_ensemble

    def fresh(*key):
        # nothing is pending and every earlier table is freed before a new one
        assert presets._PENDING == {} and all(ref() is None for ref in tables)
        return integrate(*key)

    monkeypatch.setattr(presets, "travelling_wave_ensemble", fresh)
    first = run("fig1")
    assert first.metadata["n_traj"] == 64
    # fig1 alone runs no fig2 or fig3 witness; its table waits for them
    assert analysed == ["fig1"] and len(tables) == 1 and tables[0]() is not None
    table, waiting = presets._PENDING[(64, 3)]
    assert tables[0]() is table and waiting == {"fig2", "fig3"}
    del table
    with pytest.raises(CorrelationError, match="imaginary residue 7.623e"):
        run("fig2")
    assert tables[0]() is not None and presets._PENDING[(64, 3)][1] == {"fig3"}
    with pytest.raises(CorrelationError, match="imaginary residue 1.625e"):
        run("fig3")
    # the last waiting figure frees the table
    assert analysed == ["fig1", "fig2", "fig3"] and len(tables) == 1
    assert presets._PENDING == {} and tables[0]() is None
    # a figure asked for again integrates again, with the same result, also
    # while its last ensemble is still pending for fig2 and fig3
    assert_array_equal(run("fig1").columns["n3"], first.columns["n3"])
    assert_array_equal(run("fig1").columns["n3"], first.columns["n3"])
    assert len(tables) == 3 and list(presets._PENDING) == [(64, 3)]
    # a new key replaces the pending ensemble of the old one
    with pytest.raises(CorrelationError):
        run("fig2", seed=4)
    assert list(presets._PENDING) == [(64, 4)]
    with pytest.raises(CorrelationError, match="imaginary residue 1.625e"):
        run("fig3")
    assert len(tables) == 5 and list(presets._PENDING) == [(64, 3)]
    assert analysed == ["fig1", "fig2", "fig3", "fig1", "fig1", "fig2", "fig3"]


def test_shared_results_equal_fresh_runs(tables):
    assert check_lines(run("fig1", n_traj=192)) == PINNED_CHECKS["fig1"]
    shared = {fig: run(fig, n_traj=192) for fig in ("fig2", "fig3")}
    assert len(tables) == 1
    for fig, result in shared.items():
        assert check_lines(result) == PINNED_CHECKS[fig], fig
    for fig, result in shared.items():
        presets._PENDING.clear()
        fresh = run(fig, n_traj=192, seed=3)
        assert list(fresh.columns) == list(result.columns)
        for name, column in fresh.columns.items():
            assert_array_equal(result.columns[name], column, err_msg=f"{fig} {name}")
        assert fresh.metadata == result.metadata and fresh.checks == result.checks
    assert len(tables) == 3


@pytest.mark.parametrize("fig", ["fig4", "fig5", "fig6", "fig7"])
def test_spectral_presets_report_their_pinned_checks(fig):
    assert check_lines(presets.PRESETS[fig].run()) == PINNED_CHECKS[fig]


def test_an_analysis_error_rises_from_its_frame_and_the_ensemble_stays_pending(tables,
                                                                             analysed):
    run("fig1")
    with pytest.raises(CorrelationError) as fig2:
        run("fig2")
    assert str(fig2.value) == FIG2_ERROR and not hasattr(fig2.value, "__notes__")
    # the traceback reaches the witness that raised it
    assert traceback.extract_tb(fig2.value.__traceback__)[-1].filename.endswith("correlations.py")
    # fig3 still analyses the same table: no second integration
    with pytest.raises(CorrelationError) as fig3:
        run("fig3")
    assert str(fig3.value) == FIG3_ERROR
    assert analysed == ["fig1", "fig2", "fig3"] and len(tables) == 1


@pytest.mark.parametrize("fig", ["fig1", "fig8"])
def test_zero_trajectories_are_refused_not_replaced_by_the_default(fig, monkeypatch):
    # n_traj=0 is a count, not "unset": it once ran the preset's default
    # (100 000 for fig1, 10 000 for fig8); the stubs fail fast if any
    # ensemble is reached
    def stub(params, init, cfg):
        raise AssertionError(f"an ensemble of {cfg.n_traj} trajectories was started")

    monkeypatch.setattr(trajectories, "run_ensemble", stub)
    monkeypatch.setattr(trajectories, "semiclassical_trajectory", stub)
    with pytest.raises(ParameterError, match="n_traj must be >= 2"):
        presets.PRESETS[fig].run(n_traj=0, seed=3)
