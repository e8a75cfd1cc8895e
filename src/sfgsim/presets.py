"""Named scenario presets covering every capability of the library.

Each preset binds a parameter set to a runnable scenario and an
expected-property checklist, at ensemble sizes sized for a desk machine.
``fig1``-``fig3`` analyze one travelling-wave ensemble (mean conversion
dynamics, squeezing/sub-Poissonian statistics, entanglement measures),
``fig4``-``fig6`` sweep squeezing and entanglement spectra with drive
strength, ``fig7`` probes steering asymmetry with unequal losses and
pumps, and ``fig8`` follows the above-threshold regime where the
semiclassical prediction breaks down.

The first of ``fig1``-``fig3`` run for an ``(n_traj, seed)`` integrates
the ensemble and analyses it for that figure alone; the ensemble stays
pending for the other two.  A later call for the same key analyses it
for its own figure, once per figure, and the last one frees it.  A figure
asked for again, or a new key, integrates a new ensemble in place of the
pending one.
"""

import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import config, spectra, steady, trajectories
from . import correlations as corr
from .params import SystemParams

TW_KAPPA = 0.01
TW_ALPHA0 = 1000.0 / np.sqrt(2.0)
TW_SEED = 1234
CAVITY_SEED = 8888
# fig8's step: the Richardson estimate (4/3)|x(dt) - x(dt/2)| / |x(dt/2)| of
# the semiclassical n1, n2 and n3 is at most 1e-4 at every sample after t = 0
CAVITY_DT = 1e-3

# Desk-scale ensemble sizes; statistical checks account for the
# 1/sqrt(n) widening relative to larger production runs.
TW_N_TRAJ = 100_000
CAVITY_N_TRAJ = 10_000

SPECTRUM_EPS = (200.0, 400.0, 600.0)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class PresetResult:
    """Sweep data plus metadata, ready for CSV emission."""

    axis_unit: str
    columns: dict            # name -> 1-D array; the first is the shared axis
    units: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)


@dataclass(frozen=True)
class FigurePreset:
    """A bound scenario: identifier, parameters, runner and checklist."""

    name: str
    description: str
    parameters: dict         # parameter table the runner builds from, one entry per curve
    default_n_traj: int | None
    runner: Callable         # runner(preset, n_traj=, seed=) -> PresetResult

    def run(self, n_traj=None, seed=None):
        return self.runner(self, n_traj=n_traj, seed=seed)


def travelling_wave_ensemble(n_traj, seed=None):
    """The shared travelling-wave ensemble behind fig1/fig2/fig3."""
    params = SystemParams.travelling_wave(_TW_PARAMS["kappa"])
    init = trajectories.PhaseSpacePoint.coherent(
        _TW_PARAMS["alpha1_0"], _TW_PARAMS["alpha2_0"], _TW_PARAMS["alpha3_0"])
    # fig1-fig3 run on the default grid of ``simulate --mode tw``
    cfg = config.trajectory_config(config.RunConfig(
        mode="tw", n_traj=n_traj, seed=TW_SEED if seed is None else seed))
    return trajectories.run_ensemble(params, init, cfg)


def intensity_columns(inten, se):
    """The n1, n1_se, n2, n2_se, n3, n3_se columns of ``MomentTable.intensities()``."""
    return {f"n{j + 1}{tail}": v[:, j] for j in range(3) for tail, v in (("", inten), ("_se", se))}


def _run_metadata(table):
    return {"n_diverged": table.n_diverged, "n_traj": table.config.n_traj,
            "seed": table.config.seed}


# (n_traj, seed) -> (table, the fig1-fig3 figures not yet analysed on it),
# at most one key; only _run_tw reads or writes it
_PENDING = {}


def _run_tw(preset, n_traj=None, seed=None):
    """Runner of fig1-fig3: this figure's analysis of the pending ensemble, or of a new one."""
    key = (preset.default_n_traj if n_traj is None else n_traj, TW_SEED if seed is None else seed)
    if preset.name not in _PENDING.get(key, (None, ()))[1]:
        _PENDING.clear()  # the old table is freed before the new one is allocated
        _PENDING[key] = (travelling_wave_ensemble(*key), set(_TW_ANALYSES))
    table, waiting = _PENDING.pop(key)
    waiting.remove(preset.name)
    if waiting:
        _PENDING[key] = (table, waiting)
    return _TW_ANALYSES[preset.name][1](table)


def _sig(values, se, bound):
    """Largest margin (in SE units) by which values fall below a bound."""
    good = se > 0
    if not np.any(good):
        return -np.inf
    return float(((bound - values[good]) / se[good]).max())


def _z_check(name, z, what, where=""):
    """The check that ``what`` holds by more than 3 SE, ``z`` being its margin in SE."""
    return Check(name, z > 3.0, f"{what} by {z:.1f} SE{where} (need > 3)")


def _run_fig1(table):
    inten, se = table.intensities()
    t = table.times
    cols = intensity_columns(inten, se)

    checks = []
    # photon-exchange conservation over the early window (Manley-Rowe)
    early = (t <= 3.0) & (t > 0)
    for i, sign, op, j in ((0, "+", operator.add, 2), (1, "+", operator.add, 2),
                           (0, "-", operator.sub, 1)):
        val, vse = table.batch_statistic(
            lambda v, i=i, op=op, j=j: np.real(op(v.apa[:, i, i], v.apa[:, j, j])))
        dev = np.abs(val[early] - val[0]) / np.where(vse[early] > 0, vse[early], np.inf)
        checks.append(Check(f"conserved n{i + 1}{sign}n{j + 1}", bool(np.max(dev) <= 3.0),
                            f"max deviation {np.max(dev):.2f} SE (limit 3)"))

    n3 = inten[:, 2]
    total0 = inten[0, 0] + inten[0, 1]
    pk = int(n3.argmax())
    peak_ok = n3[pk] >= 0.8 * total0 / 2
    tail_min = n3[pk:].min()
    decline = (n3[pk] - tail_min) / n3[pk]
    checks += [Check("near-complete conversion", bool(peak_ok),
                     f"peak n3 = {n3[pk]:.3g} vs 0.8*(n1+n2)(0)/2 = {0.4 * total0:.3g}"),
               Check("partial reconversion", bool(decline >= 0.10),
                     f"decline from peak {100 * decline:.1f}% (need >= 10%)")]

    return PresetResult(
        axis_unit="dimensionless", columns={"zeta": t, **cols},
        units={k: "photons" for k in cols},
        metadata={"peak_zeta": float(t[pk]), **_run_metadata(table)},
        checks=checks,
    )


def _run_fig2(table):
    t = table.times
    vx3 = corr.quadrature_variance(table, corr.QuadratureSpec.x(3))
    fano12 = corr.fano_sum(table)
    inten, _ = table.intensities()
    pk = int(inten[:, 2].argmax())

    before = slice(1, pk)
    early = (t > 0) & (t <= 2.0)
    checks = [
        _z_check("sum-frequency quadrature squeezed",
                 _sig(vx3.values[before], vx3.se[before], 1.0),
                 "V(X3) below 1", " before peak conversion"),
        _z_check("sub-Poissonian intensity sum", _sig(fano12.values[early], fano12.se[early], 1.0),
                 "Fano below 1", " at early times"),
    ]
    return PresetResult(
        axis_unit="dimensionless",
        columns={"zeta": t, "vx3": vx3.values, "vx3_se": vx3.se,
                 "fano_n1n2": fano12.values, "fano_n1n2_se": fano12.se},
        units={"vx3": "shot-noise units", "fano_n1n2": "dimensionless"},
        metadata=_run_metadata(table),
        checks=checks,
    )


def _run_fig3(table):
    t = table.times
    ds = corr.duan_simon(table)
    epr12 = corr.epr_product(table, 1, 2)
    epr21 = corr.epr_product(table, 2, 1)

    checks = [
        _z_check("joint-quadrature entanglement", _sig(ds.values[1:], ds.se[1:], 4.0),
                 "V(X1+X2)+V(Y1-Y2) below 4"),
        _z_check("inferred-variance paradox", _sig(epr12.values[1:], epr12.se[1:], 1.0),
                 "EPR product below 1"),
    ]
    return PresetResult(
        axis_unit="dimensionless",
        columns={"zeta": t,
                 "duan_simon_over4": ds.values / 4.0, "duan_simon_over4_se": ds.se / 4.0,
                 "epr12": epr12.values, "epr12_se": epr12.se,
                 "epr21": epr21.values, "epr21_se": epr21.se},
        units={"duan_simon_over4": "separable boundary at 1"},
        metadata=_run_metadata(table),
        checks=checks,
    )


def _spectral_family(column, series, threshold, strongest_only=False):
    """Runner of the spectral sweeps of ``series(result)``, one per table entry.

    The preset's table runs from weakest to strongest drive; each sweep is
    the column ``{column}_eps{eps1}``, and the threshold is checked at
    every drive, or at the strongest only.
    """
    def sweep(preset, **_):
        cols = {}
        minima = {}
        for run in preset.parameters.values():
            res = spectra.spectrum(SystemParams(**run))
            values = series(res)
            cols.setdefault("omega", res.omega)
            eps = int(run["eps1"])
            cols[f"{column}_eps{eps}"] = values
            minima[eps] = float(values.min())

        checks = [Check(f"below threshold at eps={eps}", minima[eps] < threshold,
                        f"min {minima[eps]:.4f} vs {threshold}")
                  for eps in (list(minima)[-1:] if strongest_only else minima)]
        depths = list(minima.values())
        mono = all(a > b for a, b in zip(depths, depths[1:]))
        checks.append(Check("deepens with drive", bool(mono),
                            "minima " + " > ".join(f"{m:.4f}" for m in depths)))
        return PresetResult(
            axis_unit="units of gamma1", columns=cols,
            metadata={"minima": {str(k): v for k, v in minima.items()}},
            checks=checks,
        )
    return sweep


def _run_fig7(preset, **_):
    p = SystemParams(**preset.parameters["run"])
    res = spectra.spectrum(p)
    epr12 = spectra.spectral_epr(res, 1, 2)
    epr21 = spectra.spectral_epr(res, 2, 1)
    checks = [
        Check("mode 2 steers mode 1", bool(epr12.min() < 1.0),
              f"min EPR12 = {epr12.min():.4f} (need < 1)"),
        Check("mode 1 cannot steer mode 2", bool(epr21.min() >= 1.0),
              f"min EPR21 = {epr21.min():.4f} (need >= 1)"),
    ]
    return PresetResult(
        axis_unit="units of gamma1",
        columns={"omega": res.omega, "epr12": epr12, "epr21": epr21},
        metadata={"steady_state": [res.steady_state.alpha1, res.steady_state.alpha2,
                                   res.steady_state.alpha3]},
        checks=checks,
    )


def _run_fig8(preset, n_traj=None, seed=None):
    p = SystemParams(**preset.parameters["run"])
    init = trajectories.PhaseSpacePoint.vacuum()
    # CAVITY_DT meets the step rule that test_fig8_step_meets_its_rule recomputes
    cfg = trajectories.TrajectoryConfig(
        dt=CAVITY_DT, t_max=14.0, n_traj=preset.default_n_traj if n_traj is None else n_traj,
        seed=CAVITY_SEED if seed is None else seed, sample_stride=100, mode="cavity")
    table = trajectories.run_ensemble(p, init, cfg)
    t_sc, sc = trajectories.semiclassical_trajectory(p, init, cfg)
    ss = steady.solve_steady(p)
    fp = ss.intensities

    inten, se = table.intensities()
    sc_n = np.real(sc[:, 1::2] * sc[:, 0::2])
    last = -1
    checks = [
        _z_check("low-frequency mean exceeds symmetric fixed point",
                 (inten[last, 0] - fp[0]) / se[last, 0], "n1 above fixed point"),
        _z_check("sum-frequency mean falls below symmetric fixed point",
                 (fp[2] - inten[last, 2]) / se[last, 2], "n3 below fixed point"),
    ]
    cols = {"t": table.times, **intensity_columns(inten, se),
            **{f"semiclassical_n{j + 1}": sc_n[:, j] for j in range(3)}}
    return PresetResult(
        axis_unit="1/gamma1", columns=cols,
        units={k: "photons" for k in cols if k != "t"},
        # a negative margin: the symmetric fixed point is a saddle here
        metadata={"fixed_point_n": list(fp), "fixed_point_margin": steady.stability(p, ss).margin,
                  **_run_metadata(table)},
        checks=checks,
    )


# fig1-fig3: name -> (description, analysis of the shared ensemble)
_TW_ANALYSES = {
    "fig1": ("travelling-wave mean intensities: conversion and quantum reconversion", _run_fig1),
    "fig2": ("travelling-wave squeezing of X3 and Fano factor of the intensity sum", _run_fig2),
    "fig3": ("travelling-wave joint-quadrature and inferred-variance entanglement", _run_fig3),
}
_TW_PARAMS = {"kappa": TW_KAPPA, "alpha1_0": TW_ALPHA0, "alpha2_0": TW_ALPHA0,
              "alpha3_0": 0.0}
_SYM_SPEC_PARAMS = {
    f"eps={int(e)}": {"kappa": 0.01, "gamma1": 1.0, "gamma2": 1.0, "gamma3": 10.0,
                      "eps1": e, "eps2": e}
    for e in SPECTRUM_EPS
}

PRESETS = {p.name: p for p in [
    *(FigurePreset(name, description, {"run": _TW_PARAMS}, TW_N_TRAJ, _run_tw)
      for name, (description, _) in _TW_ANALYSES.items()),
    FigurePreset("fig4", "output squeezing spectra of X3 versus drive strength", _SYM_SPEC_PARAMS,
                 None, _spectral_family("vx3", lambda res: res.variance(3, "X"), 1.0)),
    FigurePreset("fig5", "joint-quadrature entanglement spectra versus drive strength",
                 _SYM_SPEC_PARAMS, None,
                 _spectral_family("duan_simon", spectra.spectral_duan_simon, 4.0)),
    FigurePreset("fig6", "inferred-variance product spectra versus drive strength",
                 _SYM_SPEC_PARAMS, None,
                 _spectral_family("epr", lambda res: spectra.spectral_epr(res, 1, 2), 1.0,
                                  strongest_only=True)),
    FigurePreset("fig7", "steering asymmetry with unequal losses and pumps",
                 {"run": {"kappa": 0.01, "gamma1": 1.0, "gamma2": 40.0, "gamma3": 2.0,
                          "eps1": 400.0, "eps2": 2400.0}}, None, _run_fig7),
    FigurePreset("fig8", "above-threshold cavity dynamics versus the semiclassical prediction",
                 {"run": {"kappa": 0.01, "gamma1": 1.0, "gamma2": 1.0, "gamma3": 10.0,
                          "eps1": 1000.0, "eps2": 1000.0}}, CAVITY_N_TRAJ, _run_fig8),
]}
