"""Command-line front end.

Commands: ``steady``, ``stability-map``, ``spectrum``,
``simulate --mode tw|cavity`` and ``reproduce FIG [FIG ...]``; with several
figures, ``--output P`` writes each figure under ``P_figN``.  Each
subcommand's row in ``_SUBCOMMANDS`` names the ``RunConfig`` keys it reads,
and those keys are its only flags; a flag's value parses exactly as the
same key does in a configuration file, and flags override values read
with ``--config FILE``.
Every data-producing command writes CSV files (full round-trip precision,
deterministic row order) plus a JSON sidecar holding the complete
configuration, seed, code version and trajectory/divergence counts, so
any CSV can be regenerated from its sidecar alone.  A key a run does not
read is refused as a file key unless it holds its default, as every
sidecar renders it: each key outside the command's row, except
``command`` and, for ``reproduce``, ``reproduce``, which the command line
sets.  Two rules depend on values, and refuse flags too: a
travelling-wave ``simulate`` reads no pump or loss (a file may hold
zero), and ``reproduce`` reads no ``n_traj`` or ``seed`` when no figure
given runs an ensemble (fig4 to fig7 alone).  A command writes its files
before it prints, and a stdout closed early (``| head``) ends the
printing, not the run: exit 0, no message.

Every failure, running out of memory included, prints a one-line
``error:`` message and exits nonzero (``_EXIT_CODES``).  No environment
variable is read.
"""

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import SystemParams, __version__
from . import correlations as corr
from . import config as cfgmod
from . import presets as presetsmod
from . import spectra, steady, trajectories
from .errors import (
    ConfigError,
    EnsembleQualityError,
    SfgsimError,
    UnstableOperatingPointError,
)

# exit codes: 0 success; 1 usage, configuration, parameter, file or solver
# error, or memory exhausted (MemoryError); 2 spectra requested at an
# unstable operating point; 3 ensemble quality failure (diverged
# trajectories).  ``main`` maps an error's type through ``_EXIT_CODES``,
# and every other error it reports to 1.
EXIT_OK = 0
EXIT_USAGE = 1
_EXIT_CODES = {UnstableOperatingPointError: 2, EnsembleQualityError: 3}


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped onto exit code 1."""

    def error(self, message):
        raise ConfigError(message)


_PHYSICS_KEYS = ("kappa", "gamma1", "gamma2", "gamma3", "eps1", "eps2")
_TRAJECTORY_KEYS = ("dt", "t_max", "sample_stride", "n_traj", "seed",
                    "alpha1_0", "alpha2_0", "alpha3_0")

# subcommand -> (help, the RunConfig keys it reads, in flag order): its
# flags, and the only keys a file may set away from their defaults
_SUBCOMMANDS = {
    "steady": ("classical steady state and stability", _PHYSICS_KEYS + ("output",)),
    "stability-map": ("stability boundary over gamma3/gamma", _PHYSICS_KEYS[:3] + (
        "output", "ratio_min", "ratio_max", "n_ratio", "eps_max")),
    "spectrum": ("output quadrature spectra at a stable point",
                 _PHYSICS_KEYS + ("output", "omega_min", "omega_max", "n_omega")),
    "simulate": ("stochastic trajectory ensemble",
                 _PHYSICS_KEYS + ("output",) + _TRAJECTORY_KEYS + ("mode",)),
    "reproduce": ("run named scenario presets", ("output", "threads", "n_traj", "seed")),
}

# argparse settings beyond the value type, which always comes from the schema
_FLAG_EXTRAS = {
    "output": {"metavar": "PREFIX", "help": "output file prefix"},
    "threads": {"help": "only 1: ensembles run on the calling thread"},
    "mode": {"choices": ("tw", "cavity")},
}


def build_parser():
    parser = _Parser(
        prog="sfgsim",
        description="Quantum dynamics of intracavity sum frequency generation.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"sfgsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, keys) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        p.add_argument("--config", metavar="FILE", help="key=value configuration file")
        for key in keys:
            # an absent flag leaves no attribute, so it never masks the file
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           type=functools.partial(cfgmod._parse_value, key),
                           default=argparse.SUPPRESS, **_FLAG_EXTRAS.get(key, {}))
    p = sub.choices["reproduce"]
    p.add_argument("figure", nargs="+", choices=sorted(presetsmod.PRESETS), metavar="FIG",
                   help="fig1 to fig8; with several, --output P writes P_figN")
    p.add_argument("--plot-script", action="store_true",
                   help="also emit a matplotlib script for the CSV")
    return parser


def _merge_config(args):
    """File values overridden by explicit flags, validated once; checks the output directory."""
    values = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            values = cfgmod.config_values(fh.read())
    row = _SUBCOMMANDS[args.command][1]
    # the command line sets the verb, and for reproduce its first figure
    flags = {key: getattr(args, key) for key in (*row, "command") if hasattr(args, key)}
    if args.command == "reproduce":
        flags["reproduce"] = args.figure[0]
    merged = {**values, **flags}
    # a key the run never reads would be recorded in the sidecar beside data
    # not computed with it: such a file key is refused unless it holds
    # RunConfig's default, as every sidecar renders it.  The row names the
    # keys a command reads; two more rules name keys a value leaves unread,
    # refused as flags too.  One (keys, reason, kept values) per rule
    rules = [([key for key in values if key not in row and key not in flags],
              f"{args.command} does not read these keys", ())]
    if args.command == "reproduce" and all(
            presetsmod.PRESETS[fig].default_n_traj is None for fig in args.figure):
        rules.append((("n_traj", "seed"), f"reproduce {' '.join(args.figure)} runs no ensemble", ()))
    if args.command == "simulate" and merged.get("mode") in ("tw", "travelling-wave"):
        rules.append((_PHYSICS_KEYS[1:], "a travelling-wave run has no pump or loss", (0,)))
    for unused, why, kept in rules:
        ignored = (["--" + key.replace("_", "-") for key in unused if key in flags]
                   + [f"{key} in {args.config}" for key in unused if key in values
                      and values[key] not in (getattr(cfgmod.RunConfig, key), *kept)])
        if ignored:
            raise ConfigError(f"{why}; {', '.join(ignored)} cannot change them")
    if args.command == "reproduce":
        repeated = sorted({fig for fig in args.figure if args.figure.count(fig) > 1})
        if repeated:
            raise ConfigError(f"reproduce: {', '.join(repeated)} given more than once")
    cfg = cfgmod.RunConfig(**merged).validate()
    directory, base = os.path.split(cfg.output or "sfgsim")  # fail before the work
    if base in ("", ".", ".."):  # a directory: its {prefix}.csv would be hidden
        raise ConfigError(f"output prefix {cfg.output!r} names a directory, not a file prefix")
    directory = directory or "."
    if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
        raise ConfigError(f"output prefix {cfg.output!r}: cannot write to {directory!r}")
    return cfg


def write_csv(path, columns, units=None):
    """CSV with a header naming columns and units, full precision; a cell
    holding a comma is quoted."""
    units = units or {}
    arrays = [np.asarray(v) for v in columns.values()]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(f"{n} ({units[n]})" if n in units else n for n in columns)
        out.writerows([cfgmod._render_value(a[i]) for a in arrays] for i in range(len(arrays[0])))


def write_sidecar(path, cfg, extra=None):
    payload = {"version": __version__, "command": cfg.command,
               "config": cfgmod.render_config(cfg), **(extra or {})}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=cfgmod._render_value)
        fh.write("\n")


def _emit(cfg, name, columns, units=None, extra=None):
    """Write ``{prefix}.csv`` and its sidecar ``{prefix}.json``; returns the prefix."""
    prefix = cfg.output or f"sfgsim_{name}"
    write_csv(f"{prefix}.csv", columns, units)
    write_sidecar(f"{prefix}.json", cfg, extra)
    return prefix


def _report(lines):
    """Print a command's lines, once its files are written.

    A reader that closed stdout early (``| head``) has read all it wanted:
    the rest is dropped, and stdout's descriptor is pointed at the null
    device so that the interpreter's flush at exit does not fail again.
    """
    try:
        print(*lines, sep="\n", flush=True)
    except BrokenPipeError:
        with contextlib.suppress(OSError):  # a stdout with no descriptor, e.g. io.StringIO
            fd = sys.stdout.fileno()
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)


# Each command below writes its files and returns the lines it reports.
def _cmd_steady(cfg):
    params = cfgmod.system_params(cfg)
    ss = steady.solve_steady(params)
    report = steady.stability(params, ss)
    lines = [f"method:   {ss.method}", f"alpha1:   {ss.alpha1}", f"alpha2:   {ss.alpha2}",
             f"alpha3:   {ss.alpha3}", f"residual: {ss.residual:.3e}",
             f"stable:   {report.stable} (margin {report.margin:.6g})",
             "eigenvalues: " + ", ".join(f"{z:.6g}" for z in report.eigenvalues)]
    columns = {
        "alpha1": [ss.alpha1], "alpha2": [ss.alpha2], "alpha3": [ss.alpha3],
        "residual": [ss.residual], "method": [ss.method],
        "stable": [report.stable], "margin": [report.margin],
    }
    if ss.method == "closed-form-symmetric" and params.gamma1 > 0 and params.gamma3 > 0:
        cp = steady.critical_point(params)
        amp, intensity = steady.drive_ratios(params)
        lines += [f"critical drive: {cp.epsilon_c:.6g} (alpha_c {cp.alpha_c:.6g})",
                  f"drive ratio: amplitude {amp:.4f}, intensity {intensity:.4f}"]
        columns.update(epsilon_c=[cp.epsilon_c], alpha_c=[cp.alpha_c],
                       amplitude_ratio=[amp], intensity_ratio=[intensity])
    _emit(cfg, "steady", columns)
    return lines


def _cmd_stability_map(cfg):
    if not SystemParams(cfg.kappa, cfg.gamma1, cfg.gamma2).is_symmetric:
        raise ConfigError("stability-map requires gamma1 == gamma2")
    ratios = cfgmod.linear_grid(cfg.ratio_min, cfg.ratio_max, cfg.n_ratio, "n_ratio")
    if np.any(np.diff(ratios) <= 0):
        raise ConfigError(f"ratio_min {cfg.ratio_min!r} and ratio_max {cfg.ratio_max!r} "
                          f"are too close for n_ratio {cfg.n_ratio} distinct ratios")
    closed_top = steady.critical_point(SystemParams.symmetric(
        cfg.kappa, cfg.gamma1, cfg.ratio_max * cfg.gamma1, 0.0)).epsilon_c
    with np.errstate(over="ignore"):
        eps_hi = cfg.eps_max if cfg.eps_max is not None else 2.0 * closed_top
    if not np.isfinite(eps_hi):  # only the default: eps_max is checked finite
        raise ConfigError(f"default eps_max, twice epsilon_c {closed_top:.6g}, overflows "
                          f"float64 at kappa {cfg.kappa:.6g}; set eps_max")
    rows = steady.stability_map(cfg.kappa, cfg.gamma1, ratios, (0.0, eps_hi))
    columns = {
        "gamma3_over_gamma": [r.gamma3_over_gamma for r in rows],
        "epsilon_boundary": [r.epsilon_boundary if r.bracketed else np.nan for r in rows],
        "epsilon_closed_form": [r.epsilon_closed_form for r in rows],
        "note": [r.note or "ok" for r in rows],
    }
    _emit(cfg, "stability_map", columns)
    return [f"gamma3/gamma {r.gamma3_over_gamma:8.3f}: boundary "
            + (f"{r.epsilon_boundary:.6g}" if r.bracketed else f"NOT BRACKETED ({r.note})")
            + f"  closed form {r.epsilon_closed_form:.6g}" for r in rows]


def _cmd_spectrum(cfg):
    params = cfgmod.system_params(cfg)
    result = spectra.spectrum(params, omegas=cfgmod.omega_grid(cfg))
    columns = {"omega": result.omega}
    for mode in (1, 2, 3):
        for quad in ("X", "Y"):
            columns[f"v{quad.lower()}{mode}"] = result.variance(mode, quad)
    columns["duan_simon_plus"] = spectra.spectral_duan_simon(result, +1)
    columns["duan_simon_minus"] = spectra.spectral_duan_simon(result, -1)
    columns["epr12"] = spectra.spectral_epr(result, 1, 2)
    columns["epr21"] = spectra.spectral_epr(result, 2, 1)
    units = {k: "shot-noise units" for k in columns if k != "omega"}
    units["omega"] = "rad/time"
    prefix = _emit(cfg, "spectrum", columns, units, {
        "stability_margin": steady.stability(params, result.steady_state).margin,
        "max_asymmetry": result.max_asymmetry,
    })
    return [f"wrote {prefix}.csv ({len(result.omega)} frequencies)"]


def _cmd_simulate(cfg):
    params = cfgmod.system_params(cfg)
    tcfg = cfgmod.trajectory_config(cfg)
    init = trajectories.PhaseSpacePoint.coherent(cfg.alpha1_0, cfg.alpha2_0, cfg.alpha3_0)
    table = trajectories.run_ensemble(params, init, tcfg)
    axis = "zeta" if tcfg.mode == "travelling-wave" else "t"
    inten, se = table.intensities()
    columns = {axis: table.times, **presetsmod.intensity_columns(inten, se)}
    series = [
        ("vx3", lambda: corr.quadrature_variance(table, corr.QuadratureSpec.x(3))),
        ("fano_n1n2", lambda: corr.fano_sum(table)),
        ("duan_simon", lambda: corr.duan_simon(table)),
        ("epr12", lambda: corr.epr_product(table, 1, 2)),
        ("epr21", lambda: corr.epr_product(table, 2, 1)),
    ]
    lines = []
    for name, build in series:
        try:
            s = build()
        except SfgsimError as exc:
            lines.append(f"note: {name} column omitted ({exc})")
            continue
        columns[name] = s.values
        columns[f"{name}_se"] = s.se
    prefix = _emit(cfg, "simulate", columns,
                   extra={"n_traj": tcfg.n_traj, "n_diverged": table.n_diverged})
    return lines + [f"wrote {prefix}.csv ({table.config.n_samples} samples, "
                    f"{table.n_diverged} diverged)"]


_PLOT_TEMPLATE = """\
#!/usr/bin/env python3
\"\"\"Plot {name}: {description}.\"\"\"
import csv

import matplotlib.pyplot as plt

rows = list(csv.reader(open({csv_name!r})))
header = [h.split(" (")[0] for h in rows[0]]
data = {{h: [float(r[i]) for r in rows[1:]] for i, h in enumerate(header)}}

x = data[{axis!r}]
fig, ax = plt.subplots()
for name in header[1:]:
    if name.endswith("_se"):
        continue
    ax.plot(x, data[name], label=name)
ax.set_xlabel({axis_label!r})
ax.legend()
fig.tight_layout()
fig.savefig({png_name!r}, dpi=160)
print("wrote", {png_name!r})
"""


def _cmd_reproduce(cfg, figures, plot_script):
    """Each figure in turn, as ``reproduce FIG`` alone would write and report it.

    With several figures, ``--output P`` writes each under ``P_figN``.
    """
    for fig in figures:
        output = f"{cfg.output}_{fig}" if cfg.output and len(figures) > 1 else cfg.output
        _report(_reproduce_one(dataclasses.replace(cfg, reproduce=fig, output=output),
                               plot_script))


def _reproduce_one(cfg, plot_script):
    preset = presetsmod.PRESETS[cfg.reproduce]
    result = preset.run(n_traj=cfg.n_traj, seed=cfg.seed)
    prefix = _emit(cfg, preset.name, result.columns, result.units, {
        "preset": preset.name,
        "description": preset.description,
        "parameters": preset.parameters,
        "metadata": result.metadata,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                   for c in result.checks],
    })
    lines = [f"{preset.name}: {preset.description}", f"wrote {prefix}.csv"]
    lines += [f"  [{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}" for c in result.checks]
    if plot_script:
        axis = next(iter(result.columns))
        script = _PLOT_TEMPLATE.format(
            name=preset.name, description=preset.description,
            csv_name=f"{prefix}.csv", axis=axis,
            axis_label=f"{axis} ({result.axis_unit})",
            png_name=f"{prefix}.png",
        )
        with open(f"{prefix}_plot.py", "w", encoding="utf-8") as fh:
            fh.write(script)
        lines.append(f"wrote {prefix}_plot.py")
    return lines


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _merge_config(args)
        if cfg.command == "reproduce":
            _cmd_reproduce(cfg, args.figure, args.plot_script)
        else:
            _report({"steady": _cmd_steady, "stability-map": _cmd_stability_map,
                     "spectrum": _cmd_spectrum, "simulate": _cmd_simulate}[cfg.command](cfg))
        return EXIT_OK
    except (SfgsimError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
