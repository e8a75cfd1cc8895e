"""Ensemble presets: fig1-fig3 share one travelling-wave ensemble, each
result handed out once, and every runner takes the trajectory count given."""

import gc
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


def run(fig, n_traj=64, seed=3):
    return presets.PRESETS[fig].run(n_traj=n_traj, seed=seed, threads=1)


def test_one_ensemble_per_key_each_result_handed_out_once(tables):
    first = run("fig1")
    assert len(tables) == 1 and tables[0]() is None  # freed, though errors are pending
    assert first.metadata["n_traj"] == 64
    with pytest.raises(CorrelationError) as fig2:
        run("fig2")
    assert str(fig2.value) == FIG2_ERROR
    with pytest.raises(CorrelationError) as fig3:
        run("fig3")
    assert str(fig3.value) == FIG3_ERROR
    assert len(tables) == 1
    # a figure asked for again integrates again, with the same result
    assert_array_equal(run("fig1").columns["n3"], first.columns["n3"])
    assert len(tables) == 2
    # a new key replaces the pending results of the old one
    with pytest.raises(CorrelationError):
        run("fig2", seed=4)
    with pytest.raises(CorrelationError, match="imaginary residue 1.625e"):
        run("fig3")
    assert len(tables) == 4
    assert list(presets._PENDING) == [(64, 3)]


def test_shared_results_equal_fresh_runs(tables):
    run("fig1", n_traj=192)
    shared = {fig: run(fig, n_traj=192) for fig in ("fig2", "fig3")}
    assert len(tables) == 1
    for fig, result in shared.items():
        presets._PENDING.clear()
        fresh = run(fig, n_traj=192, seed=3)
        assert list(fresh.columns) == list(result.columns)
        for name, column in fresh.columns.items():
            assert_array_equal(result.columns[name], column, err_msg=f"{fig} {name}")
        assert fresh.metadata == result.metadata and fresh.checks == result.checks
    assert len(tables) == 3


def test_a_pending_error_keeps_no_caller_alive(tables):
    # a stored error carries no frames: a local of the function that ran
    # fig1 is freed once it returns, while fig2's and fig3's errors wait
    class Local:
        pass

    def caller():
        local = Local()
        run("fig1")
        return weakref.ref(local)

    local = caller()
    gc.collect()
    assert local() is None
    assert sorted(presets._PENDING[(64, 3)]) == ["fig2", "fig3"]
    with pytest.raises(CorrelationError) as fig2:
        run("fig2")
    assert str(fig2.value) == FIG2_ERROR
    # where the analysis raised it, as text
    assert "correlations.py" in fig2.value.__notes__[-1]


@pytest.mark.parametrize("fig", ["fig1", "fig8"])
def test_zero_trajectories_are_refused_not_replaced_by_the_default(fig, monkeypatch):
    # n_traj=0 is a count, not "unset": it once ran the preset's default
    # (100 000 for fig1, 10 000 for fig8); the stubs fail fast if any
    # ensemble is reached
    def stub(params, init, cfg, threads=None):
        raise AssertionError(f"an ensemble of {cfg.n_traj} trajectories was started")

    monkeypatch.setattr(trajectories, "run_ensemble", stub)
    monkeypatch.setattr(trajectories, "semiclassical_trajectory", stub)
    with pytest.raises(ParameterError, match="n_traj must be >= 2"):
        presets.PRESETS[fig].run(n_traj=0, seed=3, threads=1)
