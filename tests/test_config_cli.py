"""Configuration parsing, presets and the command-line interface."""

import csv
import dataclasses
import io
import json
import os
import re
import string
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfgsim import SystemParams, cli, solve_steady, steady, trajectories
from sfgsim.config import (
    COMMANDS,
    FIGURES,
    MODES,
    RunConfig,
    _BOUNDS,
    _render_value,
    config_values,
    omega_grid,
    parse_config,
    render_config,
)
from sfgsim.errors import ConfigError
from sfgsim.presets import PRESETS


def test_minimal_config_parses():
    cfg = parse_config("kappa=0.01\ngamma1=1\n")
    assert cfg.kappa == 0.01 and cfg.gamma1 == 1.0


def test_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\nkappa=0.02  # trailing\n")
    assert cfg.kappa == 0.02


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config("kappa=0.01\n\nnot_a_key=1\n")
    assert "line 3" in str(err.value)
    assert err.value.line == 3


def test_unparsable_number_reports_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config("kappa=banana\n")
    assert "line 1" in str(err.value)


def test_invariant_violation_names_the_invariant():
    with pytest.raises(ConfigError) as err:
        parse_config("kappa=-1\n")
    assert "kappa > 0" in str(err.value)
    # equal stability-map bounds make a one-point grid only
    with pytest.raises(ConfigError, match="ratio_max"):
        parse_config("ratio_min=2\nratio_max=2\n")
    assert parse_config("ratio_min=2\nratio_max=2\nn_ratio=1\n").n_ratio == 1


def _bound(key, value):
    return lambda: RunConfig(**{key: value}).validate()


@pytest.mark.parametrize("check, needle", [
    (lambda: RunConfig(command="plot").validate(), "command must be one of"),
    (_bound("gamma1", -1.0), "invariant violated: gamma1 >= 0 (got -1.0)"),
    (_bound("gamma2", -1.0), "invariant violated: gamma2 >= 0 (got -1.0)"),
    (_bound("gamma3", -1.0), "invariant violated: gamma3 >= 0 (got -1.0)"),
    (lambda: RunConfig(mode="ring").validate(), "mode must be one of"),
    (_bound("dt", 0.0), "invariant violated: dt > 0 (got 0.0)"),
    (_bound("t_max", -1.0), "invariant violated: t_max > 0 (got -1.0)"),
    (_bound("sample_stride", 0), "invariant violated: sample_stride >= 1 (got 0)"),
    (_bound("n_traj", 1), "invariant violated: n_traj >= 2 (got 1)"),
    (lambda: RunConfig(seed=-1).validate(), "seed must fit in 64 bits"),
    (lambda: RunConfig(seed=2**64).validate(), "seed must fit in 64 bits"),
    (_bound("n_omega", 1), "invariant violated: n_omega >= 2 (got 1)"),
    (_bound("n_ratio", 0), "invariant violated: n_ratio >= 1 (got 0)"),
    (_bound("eps_max", 0.0), "invariant violated: eps_max > 0 (got 0.0)"),
    (_bound("threads", 0), "invariant violated: threads == 1 (got 0)"),
    (lambda: parse_config("kappa=0.01\ngamma1 1\n"), "line 2: expected key=value"),
    (lambda: omega_grid(RunConfig(omega_min=2.0, omega_max=1.0)),
     "omega_min must be below omega_max"),
    (lambda: omega_grid(RunConfig(omega_min=1.0, omega_max=1.0)),
     "omega_min must be below omega_max"),
    # each bound just past its edge: zero where it is strict, the largest
    # value below it where it is inclusive
    (_bound("kappa", 0.0), "invariant violated: kappa > 0 (got 0.0)"),
    (_bound("gamma1", -5e-324), "invariant violated: gamma1 >= 0 (got -5e-324)"),
    (_bound("gamma2", -5e-324), "invariant violated: gamma2 >= 0 (got -5e-324)"),
    (_bound("gamma3", -5e-324), "invariant violated: gamma3 >= 0 (got -5e-324)"),
    (_bound("t_max", 0.0), "invariant violated: t_max > 0 (got 0.0)"),
], ids=["command", "gamma1", "gamma2", "gamma3", "mode", "dt", "t-max", "sample-stride",
        "n-traj", "negative-seed", "seed-past-64-bits", "n-omega", "n-ratio", "eps-max",
        "threads", "line-without-equals", "omega-bounds-reversed", "omega-bounds-equal",
        "kappa-zero", "gamma1-below-zero", "gamma2-below-zero", "gamma3-below-zero",
        "t-max-zero"])
def test_config_input_checks_name_their_invariant(check, needle):
    with pytest.raises(ConfigError, match=re.escape(needle)):
        check()


# the value at each bound's edge that passes: the bound itself where it is
# inclusive, the smallest positive float where it is strict
_AT_BOUNDS = {"kappa": 5e-324, "gamma1": 0.0, "gamma2": 0.0, "gamma3": 0.0, "dt": 5e-324,
              "t_max": 5e-324, "sample_stride": 1, "n_traj": 2, "n_omega": 2, "n_ratio": 1,
              "eps_max": 5e-324, "threads": 1}


@pytest.mark.parametrize("key", sorted(_BOUNDS))
def test_config_accepts_each_bound_at_its_edge(key):
    assert getattr(RunConfig(**{key: _AT_BOUNDS[key]}).validate(), key) == _AT_BOUNDS[key]


def test_reproduce_key():
    cfg = parse_config("reproduce=fig7\n")
    assert cfg.reproduce == "fig7"
    with pytest.raises(ConfigError):
        parse_config("reproduce=fig9\n")


def test_round_trip_is_identity():
    samples = [
        RunConfig(),
        RunConfig(command="spectrum", kappa=0.02, eps1=400 + 3j, eps2=2400,
                  n_omega=101, omega_min=-5.0, omega_max=5.0),
        RunConfig(command="simulate", mode="tw", dt=5e-4, t_max=3.0,
                  n_traj=50, seed=7, alpha1_0=707.1, alpha2_0=707.1),
        RunConfig(command="reproduce", reproduce="fig4", output="x"),
        RunConfig(command="spectrum", gamma1=2.5, omega_min=-3.0, n_omega=7),
        RunConfig(command="spectrum", gamma1=0.0, omega_max=0.25, n_omega=5),
    ]
    for cfg in samples:
        text = render_config(cfg)
        again = parse_config(text)
        again.command = cfg.command  # command comes from the CLI verb
        assert again == cfg
        assert render_config(again) == text
        # +-20 gamma1 (unit scale at gamma1 = 0) unless a bound is set
        scale = cfg.gamma1 if cfg.gamma1 > 0 else 1.0
        lo = -20.0 * scale if cfg.omega_min is None else cfg.omega_min
        hi = 20.0 * scale if cfg.omega_max is None else cfg.omega_max
        assert np.array_equal(omega_grid(cfg), np.linspace(lo, hi, cfg.n_omega))
    # a text value whose rendered line would read back as another value
    for output in ("runs/a#b", " runs/a", "auto", "None"):
        with pytest.raises(ConfigError, match=f"output {output!r} does not read back"):
            RunConfig(output=output).validate()


def _optional(strategy):
    return st.none() | strategy


_POSITIVE = st.floats(min_value=1e-300, max_value=1e300)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_COMPLEX = st.complex_numbers(allow_nan=False, allow_infinity=False)


@st.composite
def run_configs(draw):
    ratio_min, ratio_max = sorted(draw(st.tuples(_POSITIVE, _POSITIVE)))
    output = st.text(string.ascii_letters + string.digits + "_-./", min_size=1).filter(
        lambda t: t.lower() not in ("auto", "none"))
    return RunConfig(
        command=draw(st.sampled_from(COMMANDS)),
        kappa=draw(_POSITIVE),
        gamma1=draw(st.floats(0, 1e300)), gamma2=draw(st.floats(0, 1e300)),
        gamma3=draw(st.floats(0, 1e300)),
        eps1=draw(_COMPLEX), eps2=draw(_COMPLEX),
        mode=draw(st.sampled_from(MODES)),
        dt=draw(_optional(_POSITIVE)), t_max=draw(_optional(_POSITIVE)),
        sample_stride=draw(st.integers(1, 10**9)),
        n_traj=draw(_optional(st.integers(2, 10**12))),
        seed=draw(_optional(st.integers(0, 2**64 - 1))),
        alpha1_0=draw(_COMPLEX), alpha2_0=draw(_COMPLEX), alpha3_0=draw(_COMPLEX),
        omega_min=draw(_optional(_FINITE)), omega_max=draw(_optional(_FINITE)),
        n_omega=draw(st.integers(2, 10**9)),
        ratio_min=ratio_min, ratio_max=ratio_max,
        # equal bounds make a one-point grid only
        n_ratio=1 if ratio_min == ratio_max else draw(st.integers(1, 10**9)),
        eps_max=draw(_optional(_POSITIVE)),
        reproduce=draw(_optional(st.sampled_from(FIGURES))),
        output=draw(_optional(output)),
        threads=draw(st.sampled_from([None, 1])),
    ).validate()


@settings(deadline=None)
@given(run_configs())
def test_round_trip_property(cfg):
    text = render_config(cfg)
    assert parse_config(text) == cfg
    assert render_config(parse_config(text)) == text


# one formatter for config text, CSV cells and sidecar values; these are
# the formats the CSV writer and the config renderer each gave before
_FORMATS = [
    (None, "auto"),
    (0.1, "0.1"), (-0.0, "-0.0"), (float("nan"), "nan"), (1e300, "1e+300"),
    (np.float64(0.1), "0.1"), (np.float64(-0.0), "-0.0"), (np.float64("nan"), "nan"),
    (np.float64(1e300), "1e+300"),
    (np.float32(0.1), "0.10000000149011612"),
    (complex(-0.0, 1.5), "(-0+1.5j)"), (complex(2.0, -0.0), "(2-0j)"),
    (np.complex128(1 - 2j), "(1-2j)"), (np.complex128(complex(-0.0, -0.0)), "(-0-0j)"),
    (True, "True"), (np.bool_(False), "False"), (7, "7"), ("closed-form", "closed-form"),
]


@pytest.mark.parametrize("value, text", _FORMATS,
                         ids=[f"{type(v).__name__}-{t}" for v, t in _FORMATS])
def test_one_value_formatter(value, text, tmp_path):
    assert _render_value(value) == text
    if value is None:
        return  # JSON writes null, and no CSV column holds None
    cli.write_csv(tmp_path / "v.csv", {"v": [value]})
    assert (tmp_path / "v.csv").read_text().splitlines() == ["v", text]
    cli.write_sidecar(tmp_path / "v.json", RunConfig(), {"v": value})
    # JSON writes its own floats, ints and bools; the formatter writes the rest
    assert str(json.loads((tmp_path / "v.json").read_text())["v"]) == text


def test_validate_rejects_non_finite_values():
    numeric = [f.name for f in dataclasses.fields(RunConfig)
               if f.type in (float, complex, float | None)]
    assert len(numeric) == 16
    for name in numeric:
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ConfigError, match=f"{name} is finite"):
                RunConfig(**{name: bad}).validate()


def test_preset_parameter_fidelity():
    # literal table of the bound scenario parameters
    assert PRESETS["fig7"].parameters["run"] == {
        "kappa": 0.01, "gamma1": 1.0, "gamma2": 40.0, "gamma3": 2.0,
        "eps1": 400.0, "eps2": 2400.0,
    }
    assert PRESETS["fig8"].parameters["run"] == {
        "kappa": 0.01, "gamma1": 1.0, "gamma2": 1.0, "gamma3": 10.0,
        "eps1": 1000.0, "eps2": 1000.0,
    }
    tw = PRESETS["fig1"].parameters["run"]
    assert tw["kappa"] == 0.01
    assert tw["alpha1_0"] == pytest.approx(1000.0 / np.sqrt(2.0), rel=1e-15)
    assert tw["alpha2_0"] == pytest.approx(1000.0 / np.sqrt(2.0), rel=1e-15)
    assert tw["alpha3_0"] == 0.0
    for eps in (200, 400, 600):
        spec_params = PRESETS["fig4"].parameters[f"eps={eps}"]
        assert spec_params == {"kappa": 0.01, "gamma1": 1.0, "gamma2": 1.0,
                               "gamma3": 10.0, "eps1": float(eps), "eps2": float(eps)}
    assert PRESETS["fig1"].default_n_traj == 100_000
    assert PRESETS["fig8"].default_n_traj == 10_000


def test_presets_run_their_own_tables():
    fig7 = PRESETS["fig7"]
    for run in (fig7.parameters["run"], {**fig7.parameters["run"], "eps2": 2000.0}):
        res = dataclasses.replace(fig7, parameters={"run": run}).run()
        ss = solve_steady(SystemParams(**run))
        assert res.metadata["steady_state"] == [ss.alpha1, ss.alpha2, ss.alpha3]
    fig4 = PRESETS["fig4"]
    two = {k: fig4.parameters[k] for k in ("eps=200", "eps=600")}
    res = dataclasses.replace(fig4, parameters=two).run()
    assert list(res.columns) == ["omega", "vx3_eps200", "vx3_eps600"]
    assert res.metadata["minima"]["600"] == res.columns["vx3_eps600"].min()


# option strings of each subcommand: one flag per key its row reads
_PHYSICS_FLAGS = ["--kappa", "--gamma1", "--gamma2", "--gamma3", "--eps1", "--eps2"]
FROZEN_OPTIONS = {
    "steady": [*_PHYSICS_FLAGS, "--output"],
    "stability-map": ["--kappa", "--gamma1", "--gamma2", "--output",
                      "--ratio-min", "--ratio-max", "--n-ratio", "--eps-max"],
    "spectrum": [*_PHYSICS_FLAGS, "--output", "--omega-min", "--omega-max", "--n-omega"],
    "simulate": [*_PHYSICS_FLAGS, "--output", "--dt", "--t-max", "--sample-stride",
                 "--n-traj", "--seed", "--alpha1-0", "--alpha2-0", "--alpha3-0", "--mode"],
    "reproduce": ["--output", "--threads", "--n-traj", "--seed", "--plot-script"],
}
FROZEN_COMMON = ["-h", "--help", "--config"]


def test_subcommand_option_strings_are_frozen():
    subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert list(subparsers.choices) == list(FROZEN_OPTIONS)
    for command, sub in subparsers.choices.items():
        options = [o for a in sub._actions for o in a.option_strings]
        assert options == FROZEN_COMMON + FROZEN_OPTIONS[command], command
        positionals = [a.dest for a in sub._actions if not a.option_strings]
        assert positionals == (["figure"] if command == "reproduce" else [])
    mode = next(a for a in subparsers.choices["simulate"]._actions if a.dest == "mode")
    assert mode.choices == ("tw", "cavity")
    # every key but the two the command line sets is read by some command
    rows = [row for _, row in cli._SUBCOMMANDS.values()]
    assert set().union(*rows) == {f.name for f in dataclasses.fields(RunConfig)} - {
        "command", "reproduce"}


# a value away from RunConfig's default for every key a file may set
_NOT_DEFAULT = {
    "kappa": "0.02", "gamma1": "2", "gamma2": "2", "gamma3": "3", "eps1": "5", "eps2": "5j",
    "mode": "tw", "dt": "1e-3", "t_max": "1", "sample_stride": "5", "n_traj": "8", "seed": "3",
    "alpha1_0": "1", "alpha2_0": "1", "alpha3_0": "1j", "omega_min": "-1", "omega_max": "1",
    "n_omega": "5", "ratio_min": "2", "ratio_max": "3", "n_ratio": "2", "eps_max": "5",
    "reproduce": "fig4", "output": "x", "threads": "1",
}


@pytest.mark.parametrize("command", COMMANDS)
def test_a_file_key_outside_the_row_is_refused(command, tmp_path, monkeypatch, capsys):
    # each key the command does not read, set away from its default in a
    # file, is one error line naming it; reproduce takes its figure from
    # the command line, which overrides the file's
    monkeypatch.chdir(tmp_path)
    assert set(_NOT_DEFAULT) == {f.name for f in dataclasses.fields(RunConfig)} - {"command"}
    row = cli._SUBCOMMANDS[command][1]
    argv = [command, *(["fig8"] if command == "reproduce" else []), "--config", "k.cfg"]
    unread = [key for key in _NOT_DEFAULT
              if key not in row and (command, key) != ("reproduce", "reproduce")]
    assert unread
    for key in unread:
        assert config_values(f"{key}={_NOT_DEFAULT[key]}")[key] != getattr(RunConfig, key)
        (tmp_path / "k.cfg").write_text(f"{key} = {_NOT_DEFAULT[key]}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == cli.EXIT_USAGE, key
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [
            f"error: {command} does not read these keys; {key} in k.cfg cannot change them"]


def test_flags_parse_like_config_keys():
    text = {"eps1": "400 + 3j", "dt": "auto", "n_traj": "64", "mode": "tw",
            "output": "run", "alpha1_0": "1e3-2j", "sample_stride": "5"}
    args = cli.build_parser().parse_args(
        ["simulate"] + [a for k, v in text.items() for a in ("--" + k.replace("_", "-"), v)])
    cfg = parse_config("".join(f"{k}={v}\n" for k, v in text.items()))
    for key in text:
        assert getattr(args, key) == getattr(cfg, key), key
        assert type(getattr(args, key)) is type(getattr(cfg, key)), key
    # an explicit `auto` flag overrides a value read from the file, and
    # `--output auto` is the default prefix, not a file named auto
    args = cli.build_parser().parse_args(["simulate", "--dt", "auto", "--output", "auto"])
    assert args.dt is None and args.output is None


_TW_SMALL = ["--mode", "tw", "--alpha1-0", "10", "--alpha2-0", "10", "--n-traj", "4",
             "--t-max", "0.01", "--dt", "1e-3", "--sample-stride", "5"]
_EIGENVALUES_FAIL = ["--eps1", "2.0770316667695102e+144", "--eps2", "2.0770316667695102e+144",
                     "--kappa", "0.0008405059041898818", "--gamma3", "8.963009324484853"]


@pytest.mark.parametrize("argv, needle", [
    (["steady", "--eps1", "nan", "--eps2", "nan"], "eps1 is finite"),
    (["steady", "--kappa", "inf"], "kappa is finite"),
    (["steady", "--gamma3", "0", "--eps1", "100", "--eps2", "100"], "loss rates"),
    (["spectrum", "--gamma3", "0", "--eps1", "100", "--eps2", "100"], "loss rates"),
    (["steady", "--config", "missing.cfg"], "missing.cfg"),
    (["steady", "--eps1", "200", "--eps2", "200", "--output", "nodir/x"], "nodir/x"),
    (["simulate", "--n-traj", "4", "--t-max", "0.01", "--output", "nodir/x"],
     "nodir/x"),
    (["simulate", "--mode", "tw", "--n-traj", "4", "--t-max", "0.01"], "initial a1"),
    (["simulate", "--n-traj", "4", "--dt", "3e-4", "--t-max", "1e-3"],
     "whole number of steps"),
    (["simulate", "--n-traj", "8", "--t-max", "0.001", "--dt", "0.0005"],
     "sample_stride (10) exceeds the 2 steps"),
    (["reproduce", "fig4", "--eps1", "1e200"], "--eps1"),
    (["steady", "--eps1", "1e200", "--eps2", "1e200"], "cubic overflows float64"),
    (["spectrum", "--eps1", "1e200", "--eps2", "1e200"], "cubic overflows float64"),
    (["steady", "--eps1", "1e200", "--eps2", "5e199"], "overflowed float64"),
    # LAPACK's eigenvalue iteration gives up on this drift matrix
    (["steady", *_EIGENVALUES_FAIL], "eigenvalues did not converge"),
    (["spectrum", *_EIGENVALUES_FAIL], "eigenvalues did not converge"),
    (["reproduce", "fig4", "--config", "physics.cfg"],
     "kappa in physics.cfg, eps1 in physics.cfg"),
    # fig4-fig7 run no ensemble to take a trajectory count or seed; a file's
    # default (auto) passes
    (["reproduce", "fig4", "fig5", "--n-traj", "5", "--seed", "3"],
     "reproduce fig4 fig5 runs no ensemble; --n-traj, --seed cannot change them"),
    (["reproduce", "fig6", "--config", "ensemble.cfg"],
     "reproduce fig6 runs no ensemble; seed in ensemble.cfg cannot change them"),
    # the map sweeps gamma3 at every drive: no pump or gamma3 of its own
    (["stability-map", "--n-ratio", "2", "--eps1", "100", "--gamma3", "7"],
     "unrecognized arguments: --eps1 100 --gamma3 7"),
    # a travelling wave has no pump or loss to record beside its data
    (["simulate", *_TW_SMALL, "--eps1", "5", "--gamma3", "3"],
     "no pump or loss; --gamma3, --eps1 cannot change them"),
    # a file's zero (what the run uses) or default (what a sidecar renders) passes
    (["simulate", *_TW_SMALL, "--config", "tw.cfg"],
     "no pump or loss; gamma3 in tw.cfg cannot change them"),
    (["simulate", "--mode", "cavity", "--gamma1", "0", "--gamma2", "0", "--gamma3", "0"],
     "automatic dt needs a positive loss rate"),
    (["stability-map", "--ratio-min", "2", "--ratio-max", "2"], "ratio_max"),
    (["stability-map", "--ratio-min", "1", "--ratio-max", "1.0000000000000002",
      "--n-ratio", "3"],
     "ratio_min 1.0 and ratio_max 1.0000000000000002 are too close for n_ratio 3"),
    (["reproduce", "fig1", "fig4", "fig1", "--n-traj", "64"], "fig1 given more than once"),
    (["reproduce", "fig4", "--output", "x#y"], "output 'x#y' does not read back"),
    # an existing directory as the prefix would give the hidden sub/.csv
    (["steady", "--eps1", "200", "--eps2", "200", "--output", "sub/"],
     "'sub/' names a directory"),
    (["steady", "--eps1", "200", "--eps2", "200", "--output", "sub/."],
     "'sub/.' names a directory"),
    # step counts and grid sizes beyond what a float or an array holds
    (["simulate", "--mode", "tw", "--n-traj", "4", "--dt", "5e-324"], "t_max/dt"),
    (["simulate", "--n-traj", "4", "--dt", "1e-3", "--t-max", "1e308"], "t_max/dt"),
    (["simulate", "--n-traj", "4", "--dt", "5e-324"], "t_max/dt"),
    (["spectrum", "--eps1", "100", "--eps2", "100", "--n-omega", "1" + "0" * 20],
     "n_omega 100000000000000000000 is too large"),
    (["stability-map", "--n-ratio", "1" + "0" * 20],
     "n_ratio 100000000000000000000 is too large"),
    (["simulate", "--n-traj", "4", "--dt", "1e-3", "--t-max", "1e13", "--sample-stride", "1"],
     "moment table of 64 batches x 10000000000000001 samples"),
    (["simulate", "--n-traj", "1" + "0" * 20, "--t-max", "0.01"],
     "n_traj 100000000000000000000 in n_batches 64 gives batches of 1562500000000000000"),
    # inputs at the edges of float64's range, each blamed on what overflows
    (["stability-map", "--kappa", "5e-324", "--n-ratio", "2"],
     "critical drive epsilon_c inf (alpha_c inf) overflows float64 at kappa 4.94066e-324"),
    (["stability-map", "--kappa", "6e-308", "--n-ratio", "2"],
     "default eps_max, twice epsilon_c 1.49071e+308, overflows float64 at kappa 6e-308; "
     "set eps_max"),
    (["steady", "--gamma2", "5e-324", "--gamma3", "1e300", "--eps2", "1e-300"],
     "overflowed float64 (residual nan): pumps eps1 0+0j, eps2 1e-300+0j too large for "
     "loss rates gamma1 1, gamma2 4.94e-324, gamma3 1e+300"),
    (["spectrum", "--gamma1", "1.7e308", "--gamma2", "1", "--n-omega", "5"],
     "frequency grid of +-20 gamma1 spans more than float64 holds (gamma1 1.7e+308); "
     "set omega_min and omega_max"),
    # every ensemble runs on the calling thread
    (["reproduce", "fig8", "--n-traj", "4", "--threads", "2"],
     "invariant violated: threads == 1 (got 2)"),
    (["reproduce", "fig8", "--n-traj", "4", "--config", "threads.cfg"],
     "invariant violated: threads == 1 (got 2)"),
    # argparse's own refusals, without its usage block; no flag is abbreviated
    (["no-such-command"], "argument command: invalid choice: 'no-such-command'"),
    (["steady", "--eps3", "1"], "unrecognized arguments: --eps3 1"),
    (["reproduce"], "the following arguments are required: FIG"),
    (["stability-map", "--eps", "5"], "unrecognized arguments: --eps 5"),
    # the map sweeps gamma3 with no pump and runs no ensemble: a file's
    # gamma3, pump or trajectory keys are refused all at once
    (["stability-map", "--n-ratio", "2", "--config", "map.cfg"],
     "stability-map does not read these keys; gamma3 in map.cfg, eps2 in map.cfg "
     "cannot change them"),
    (["stability-map", "--n-ratio", "2", "--config", "start.cfg"],
     "stability-map does not read these keys; mode in start.cfg, dt in start.cfg, "
     "alpha3_0 in start.cfg cannot change them"),
], ids=["nan-pump", "inf-kappa", "steady-gamma3-zero", "spectrum-gamma3-zero",
        "missing-config", "output-dir-missing", "simulate-output-dir-missing",
        "tw-zero-a1", "t-max-not-whole-steps", "stride-past-grid",
        "reproduce-physics-flag", "steady-huge-symmetric-pump",
        "spectrum-huge-symmetric-pump", "steady-huge-asymmetric-pump",
        "steady-eigenvalues-fail", "spectrum-eigenvalues-fail",
        "reproduce-physics-config-key", "reproduce-ensemble-flag",
        "reproduce-ensemble-config-key", "stability-map-physics-flag",
        "tw-physics-flag", "tw-physics-config-key",
        "undamped-cavity-automatic-dt",
        "stability-map-equal-ratio-bounds", "stability-map-ratios-not-distinct",
        "reproduce-repeated-figure", "output-not-read-back", "output-names-directory",
        "output-names-directory-dot", "tw-dt-underflows-steps", "t-max-overflows-steps",
        "automatic-t-max-overflows-steps", "n-omega-too-large", "n-ratio-too-large",
        "moment-table-too-large", "batch-too-wide", "stability-map-tiny-kappa",
        "stability-map-default-eps-max-overflows",
        "steady-tiny-loss-rate", "spectrum-huge-gamma1-default-grid",
        "threads-flag-not-one", "threads-config-key-not-one", "no-such-command",
        "unknown-flag", "reproduce-without-figure", "abbreviated-flag",
        "stability-map-physics-config-key", "stability-map-trajectory-config-keys"])
def test_cli_failure_is_one_error_line_and_exit_one(argv, needle, tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "physics.cfg").write_text("seed = 4\nkappa = 2\neps1 = 1e200\n")
    (tmp_path / "tw.cfg").write_text("gamma1 = 0\ngamma2 = 1\neps2 = 0\ngamma3 = 3\n")
    (tmp_path / "ensemble.cfg").write_text("n_traj = auto\nseed = 3\n")
    (tmp_path / "map.cfg").write_text("gamma3 = 7\neps1 = 0\neps2 = 5\n")
    # dt and the initial amplitudes at their defaults would pass
    (tmp_path / "start.cfg").write_text("mode = tw\ndt = 1e-3\nalpha1_0 = 0\nalpha3_0 = 2j\n")
    (tmp_path / "threads.cfg").write_text("threads = 2\n")
    (tmp_path / "sub").mkdir()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would be a second stderr line
        assert cli.main(argv) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    err = err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and needle in err[0], err
    # every failure comes before any work is reported
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["--kappa", "6e-308", "--n-ratio", "2", "--eps-max", "1.7e308"],
    ["--kappa", "1e-300", "--n-ratio", "2"],
], ids=["eps-max-given", "eps-max-default"])
def test_cli_stability_map_reports_an_overflowing_certificate_unbracketed(argv, tmp_path,
                                                                         monkeypatch, capsys):
    # the steady-state cubic at each certifying drive overflows float64: a
    # failed certificate, reported in its row, not an error about a pump
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["stability-map", *argv]) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert err == "" and len(out.splitlines()) == 2
    for line in out.splitlines():
        assert "boundary NOT BRACKETED (closed form not certified: float64 overflows at drive " \
            in line, line


def test_cli_simulate_from_an_overflowing_amplitude_is_one_error_line(tmp_path, monkeypatch,
                                                                      capsys):
    # the t = 0 sample of amplitude 1e300 overflows a moment
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["simulate", "--n-traj", "4", "--t-max", "0.01",
                         "--alpha1-0", "1e300"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [
        "error: 4 of 4 trajectories hit the divergence guard (1e+08); "
        "shrink dt or revisit the parameters"]


def test_cli_leaves_unexpected_value_errors_to_surface(tmp_path, monkeypatch):
    def broken(params):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(steady, "solve_steady", broken)
    with pytest.raises(ValueError, match="broadcast"):
        cli.main(["steady", "--eps1", "200", "--eps2", "200"])


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 2.79 TiB for an array", "error: Unable to allocate 2.79 TiB for an array"),
    ("", "error: out of memory"),
], ids=["numpy-message", "no-message"])
def test_cli_reports_running_out_of_memory_as_one_error_line(message, line, tmp_path,
                                                            monkeypatch, capsys):
    # a real allocation failure depends on the host's overcommit policy
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(trajectories, "run_ensemble", exhausted)
    assert cli.main(["simulate", "--n-traj", "4", "--t-max", "0.01"]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert err.splitlines() == [line] and out == ""


def run_cli(args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, "-m", "sfgsim.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


def test_cli_steady_exit_zero(tmp_path):
    r = run_cli(["steady", "--eps1", "600", "--eps2", "600",
                 "--output", "out"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert "closed-form-symmetric" in r.stdout
    assert (tmp_path / "out.csv").exists()
    assert (tmp_path / "out.json").exists()


def test_cli_usage_error_is_exit_one(tmp_path):
    r = run_cli(["no-such-command"], tmp_path)
    assert r.returncode == 1
    r = run_cli(["steady", "--kappa", "-1"], tmp_path)
    assert r.returncode == 1
    assert "kappa" in r.stderr


def test_cli_spectrum_unstable_is_exit_two(tmp_path):
    r = run_cli(["spectrum", "--eps1", "1000", "--eps2", "1000"], tmp_path)
    assert r.returncode == 2
    assert "unstable" in r.stderr


def test_cli_ensemble_quality_is_exit_three(tmp_path):
    (tmp_path / "bad.cfg").write_text(
        "mode=tw\nkappa=1.0\ngamma1=0\ngamma2=0\ngamma3=0\n"
        "alpha1_0=1000000.0\nalpha2_0=1000000.0\n"
        "dt=10.0\nt_max=40.0\nn_traj=8\nsample_stride=1\nseed=0\n"
    )
    r = run_cli(["simulate", "--config", "bad.cfg"], tmp_path)
    assert r.returncode == 3
    assert "divergence" in r.stderr


def test_cli_simulate_writes_csv_and_sidecar(tmp_path):
    (tmp_path / "tw.cfg").write_text(
        "mode=tw\nkappa=0.01\ngamma1=0\ngamma2=0\ngamma3=0\n"
        "alpha1_0=500.0\nalpha2_0=500.0\n"
        "dt=0.0005\nt_max=0.05\nn_traj=64\nsample_stride=10\nseed=5\n"
    )
    r = run_cli(["simulate", "--config", "tw.cfg", "--output", "run1"], tmp_path)
    assert r.returncode == 0, r.stderr
    header = (tmp_path / "run1.csv").read_text().splitlines()[0]
    assert header.startswith("zeta")
    assert "n1" in header and "vx3" in header
    meta = json.loads((tmp_path / "run1.json").read_text())
    assert meta["command"] == "simulate"
    assert meta["n_traj"] == 64
    assert meta["n_diverged"] == 0
    assert "seed=5" in meta["config"]


def test_csv_is_reproducible_from_sidecar_alone(tmp_path):
    (tmp_path / "tw.cfg").write_text(
        "mode=tw\nkappa=0.01\ngamma1=0\ngamma2=0\ngamma3=0\n"
        "alpha1_0=500.0\nalpha2_0=500.0\n"
        "dt=0.0005\nt_max=0.05\nn_traj=64\nsample_stride=10\nseed=5\n"
    )
    r = run_cli(["simulate", "--config", "tw.cfg", "--output", "first"], tmp_path)
    assert r.returncode == 0, r.stderr
    meta = json.loads((tmp_path / "first.json").read_text())
    (tmp_path / "replay.cfg").write_text(meta["config"])
    r = run_cli(["simulate", "--config", "replay.cfg", "--output", "second"],
                tmp_path)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "first.csv").read_text() == (tmp_path / "second.csv").read_text()


def test_reproduce_csv_is_reproducible_from_sidecar_alone(tmp_path, monkeypatch):
    # the sidecar renders every key, the preset's unused physics keys at
    # their defaults, which a replay accepts
    monkeypatch.chdir(tmp_path)
    assert cli.main(["reproduce", "fig4", "--output", "first"]) == 0
    meta = json.loads((tmp_path / "first.json").read_text())
    (tmp_path / "replay.cfg").write_text(meta["config"])
    assert cli.main(["reproduce", "fig4", "--config", "replay.cfg", "--output", "second"]) == 0
    assert (tmp_path / "first.csv").read_text() == (tmp_path / "second.csv").read_text()


def test_stability_map_csv_is_reproducible_from_sidecar_alone(tmp_path, monkeypatch):
    # the sidecar renders gamma3 and the pumps at their defaults, which a
    # replay accepts; the second map's failed-certificate note holds a
    # comma, quoted in its cell
    monkeypatch.chdir(tmp_path)
    for argv in (["--n-ratio", "3", "--kappa", "0.02"],
                 ["--gamma1", "1e-4", "--gamma2", "1e-4", "--n-ratio", "1",
                  "--ratio-min", "1", "--ratio-max", "1", "--eps-max", "1"]):
        assert cli.main(["stability-map", *argv, "--output", "first"]) == 0
        meta = json.loads((tmp_path / "first.json").read_text())
        (tmp_path / "replay.cfg").write_text(meta["config"])
        assert cli.main(["stability-map", "--config", "replay.cfg", "--output", "second"]) == 0
        assert (tmp_path / "first.csv").read_text() == (tmp_path / "second.csv").read_text()
        with open(tmp_path / "first.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [4] * len(rows), rows
    assert rows[1][3] == ("closed form not certified: margin 1e-10 at 1.999998e-06, "
                          "-1e-10 at 2.000002e-06")


@pytest.mark.parametrize("argv", [["steady", "--eps1", "200", "--eps2", "200"],
                                  ["spectrum", "--eps1", "200", "--eps2", "200",
                                   "--n-omega", "5"]], ids=["steady", "spectrum"])
def test_no_ensemble_csv_is_reproducible_from_sidecar_alone(argv, tmp_path, monkeypatch):
    # the sidecar renders every trajectory key at its default, which a
    # replay accepts
    monkeypatch.chdir(tmp_path)
    assert cli.main([*argv, "--output", "first"]) == 0
    meta = json.loads((tmp_path / "first.json").read_text())
    assert "n_traj=auto" in meta["config"] and "mode=cavity" in meta["config"]
    (tmp_path / "replay.cfg").write_text(meta["config"])
    assert cli.main([argv[0], "--config", "replay.cfg", "--output", "second"]) == 0
    assert (tmp_path / "first.csv").read_text() == (tmp_path / "second.csv").read_text()


def test_reproduce_takes_a_trajectory_count_when_any_figure_runs_an_ensemble():
    args = cli.build_parser().parse_args(["reproduce", "fig8", "fig4", "--n-traj", "64"])
    assert cli._merge_config(args).n_traj == 64


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone, as after ``| head``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv, written", [
    (["steady", "--eps1", "200", "--eps2", "200"], ["o.csv", "o.json"]),
    (["stability-map", "--n-ratio", "3"], ["o.csv", "o.json"]),
    (["spectrum", "--eps1", "200", "--eps2", "200", "--n-omega", "5"], ["o.csv", "o.json"]),
    (["simulate", "--n-traj", "4", "--t-max", "0.01"], ["o.csv", "o.json"]),
    (["reproduce", "fig4", "fig5", "--plot-script"],
     [f"o_{fig}{end}" for fig in ("fig4", "fig5") for end in (".csv", ".json", "_plot.py")]),
], ids=["steady", "stability-map", "spectrum", "simulate", "reproduce"])
def test_closed_stdout_ends_the_output_not_the_run(argv, written, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    assert cli.main([*argv, "--output", "o"]) == cli.EXIT_OK
    assert sys.stderr.getvalue() == ""
    assert sorted(os.listdir(tmp_path)) == sorted(written)


def test_closed_stdout_pipe_exits_zero_without_a_message(tmp_path):
    # the pipe's reader is gone before the command starts; a buffered
    # stdout keeps what it could not write and flushes it again at exit,
    # which must not fail either
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("PYTHONUNBUFFERED", None)
    with subprocess.Popen([sys.executable, "-m", "sfgsim.cli", "stability-map", "--n-ratio",
                           "3", "--output", "o"], cwd=tmp_path, env=env, stdout=write_end,
                          stderr=subprocess.PIPE, text=True) as proc:
        os.close(write_end)
        err = proc.stderr.read()
    assert proc.returncode == 0 and err == ""
    assert sorted(os.listdir(tmp_path)) == ["o.csv", "o.json"]


def test_cli_reproduce_spectral_preset(tmp_path):
    r = run_cli(["reproduce", "fig4", "--output", "f4", "--plot-script"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert "[PASS]" in r.stdout
    header = (tmp_path / "f4.csv").read_text().splitlines()[0]
    assert "vx3_eps200" in header and "vx3_eps600" in header
    meta = json.loads((tmp_path / "f4.json").read_text())
    assert meta["preset"] == "fig4"
    assert all(c["passed"] for c in meta["checks"])
    assert (tmp_path / "f4_plot.py").exists()


def test_cli_reproduce_trajectory_preset_small(tmp_path):
    r = run_cli(["reproduce", "fig8", "--n-traj", "400", "--output", "f8"],
                tmp_path)
    assert r.returncode == 0, r.stderr
    meta = json.loads((tmp_path / "f8.json").read_text())
    assert meta["metadata"]["n_traj"] == 400
    params = SystemParams(**PRESETS["fig8"].parameters["run"])
    ss = solve_steady(params)
    assert meta["metadata"]["fixed_point_n"] == list(ss.intensities)
    # the reference is the symmetric fixed point, a saddle at this drive
    assert meta["metadata"]["fixed_point_margin"] == steady.stability(params, ss).margin
    assert round(meta["metadata"]["fixed_point_margin"], 3) == -0.545
    assert [c["name"] for c in meta["checks"]] == [
        "low-frequency mean exceeds symmetric fixed point",
        "sum-frequency mean falls below symmetric fixed point"]
    header = (tmp_path / "f8.csv").read_text().splitlines()[0]
    assert "semiclassical_n3" in header


def _reproduce_in(directory, argv, monkeypatch):
    directory.mkdir()
    monkeypatch.chdir(directory)
    return cli.main(["reproduce", *argv, "--threads", "1"])


def test_cli_reproduce_several_figures_writes_single_figure_files(tmp_path, monkeypatch):
    size = ["--n-traj", "192", "--seed", "3"]
    assert _reproduce_in(tmp_path / "multi", ["fig1", "fig2", "fig3", *size,
                                              "--output", "p"], monkeypatch) == 0
    for fig in ("fig1", "fig2", "fig3"):
        assert _reproduce_in(tmp_path / fig, [fig, *size, "--output", f"p_{fig}"],
                             monkeypatch) == 0
        for suffix in (".csv", ".json"):
            name = f"p_{fig}{suffix}"
            assert (tmp_path / "multi" / name).read_bytes() == \
                (tmp_path / fig / name).read_bytes(), name


def test_cli_reproduce_stops_at_the_first_failing_figure(tmp_path, monkeypatch, capsys):
    code = _reproduce_in(tmp_path / "run", ["fig1", "fig2", "fig3", "--n-traj", "64",
                                            "--seed", "3", "--output", "p"], monkeypatch)
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: V(X3(theta=0)): imaginary residue 7.623e+01 exceeds tolerance; "
                   "moment table is inconsistent"]
    assert sorted(os.listdir(tmp_path / "run")) == ["p_fig1.csv", "p_fig1.json"]


def test_cli_flags_override_config_file(tmp_path):
    (tmp_path / "c.cfg").write_text("eps1=600.0\neps2=600.0\nkappa=0.01\n")
    r = run_cli(["steady", "--config", "c.cfg", "--eps1", "200", "--eps2", "200",
                 "--output", "o"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert "-25.42" in r.stdout  # the eps=200 operating point won
    # a file value that a flag overrides is never validated on its own
    (tmp_path / "bad.cfg").write_text("kappa=-1\neps1=600.0\n")
    r = run_cli(["steady", "--config", "bad.cfg", "--kappa", "0.01", "--eps1", "200",
                 "--eps2", "200", "--output", "o"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert "-25.42" in r.stdout
