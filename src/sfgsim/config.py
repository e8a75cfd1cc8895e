"""Run configuration: parsing, validation and rendering.

Configuration text is one ``key=value`` per line with ``#`` comments.
Each key's value type is read from its ``RunConfig`` annotation, and the
command-line flags parse through the same schema; unknown keys and
malformed values are rejected with the offending line number.  ``auto``
stands for a value resolved at run time (step sizes, grids).  Rendering
and parsing round-trip exactly.
"""

import cmath
import operator
import typing
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, ParameterError
from .params import SystemParams
from .spectra import N_OMEGA, default_omegas

COMMANDS = ("steady", "stability-map", "spectrum", "simulate", "reproduce")
# the one alias map: each accepted mode name -> the trajectories mode it runs;
# validation, the --mode flag and every mode rule read it
MODES = {"cavity": "cavity", "travelling-wave": "travelling-wave", "tw": "travelling-wave"}
FIGURES = tuple(f"fig{i}" for i in range(1, 9))
# the RunConfig keys that make a SystemParams, in its field order
PHYSICS_KEYS = tuple(f.name for f in fields(SystemParams))

# key -> (comparison, bound) that the key's value, when set, must meet
_BOUNDS = {"kappa": (">", 0), "gamma1": (">=", 0), "gamma2": (">=", 0), "gamma3": (">=", 0),
           "dt": (">", 0), "t_max": (">", 0), "sample_stride": (">=", 1), "n_traj": (">=", 2),
           "n_omega": (">=", 2), "n_ratio": (">=", 1), "eps_max": (">", 0), "threads": ("==", 1)}
_COMPARISONS = {">": operator.gt, ">=": operator.ge, "==": operator.eq}


@dataclass
class RunConfig:
    """Everything a command needs, with validated invariants."""

    command: str = "steady"
    # physical parameters
    kappa: float = 0.01
    gamma1: float = 1.0
    gamma2: float = 1.0
    gamma3: float = 10.0
    eps1: complex = 0j
    eps2: complex = 0j
    # trajectory controls
    mode: str = "cavity"
    dt: float | None = None
    t_max: float | None = None
    sample_stride: int = 10
    # None = command-specific default (simulate: 10_000/1234; reproduce:
    # the preset's own scale and seed)
    n_traj: int | None = None
    seed: int | None = None
    alpha1_0: complex = 0j
    alpha2_0: complex = 0j
    alpha3_0: complex = 0j
    # frequency grid
    omega_min: float | None = None
    omega_max: float | None = None
    n_omega: int = N_OMEGA
    # stability-map grid
    ratio_min: float = 1.0
    ratio_max: float = 20.0
    n_ratio: int = 20
    eps_max: float | None = None
    # artifacts
    reproduce: str | None = None
    output: str | None = None
    # 1 or auto only: every ensemble runs on the calling thread
    threads: int | None = None

    def __post_init__(self):
        # canonical types: rendering and parsing then round-trip exactly
        for name, (kind, optional) in _SCHEMA.items():
            val = getattr(self, name)
            if kind in (float, complex) and not (optional and val is None):
                setattr(self, name, kind(val))

    def validate(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"command must be one of {COMMANDS}, got {self.command!r}")
        for name, (kind, _) in _SCHEMA.items():
            val = getattr(self, name)
            if kind in (float, complex) and val is not None and not cmath.isfinite(val):
                raise ConfigError(f"invariant violated: {name} is finite (got {val})")
            # the sidecar's config text must reproduce the run: one line that
            # parses back to this value
            line = f"{name}={_render_value(val)}"
            if kind is str and val is not None and (
                    line.splitlines() != [line] or config_values(line) != {name: val}):
                raise ConfigError(f"{name} {val!r} does not read back as itself from config text")
        for name, (op, bound) in _BOUNDS.items():
            val = getattr(self, name)
            if val is not None and not _COMPARISONS[op](val, bound):
                raise ConfigError(f"invariant violated: {name} {op} {bound} (got {val!r})")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {tuple(MODES)}, got {self.mode!r}")
        if self.seed is not None and not 0 <= self.seed < 2**64:
            raise ConfigError("invariant violated: seed must fit in 64 bits")
        if not 0 < self.ratio_min <= self.ratio_max or (
                self.ratio_min == self.ratio_max and self.n_ratio != 1):
            raise ConfigError("invariant violated: 0 < ratio_min < ratio_max "
                              "(ratio_max == ratio_min only with n_ratio 1)")
        if self.reproduce is not None and self.reproduce not in FIGURES:
            raise ConfigError(f"reproduce must be one of {FIGURES}, got {self.reproduce!r}")
        return self

    @property
    def canonical_mode(self):
        return MODES[self.mode]


def _schema_entry(annotation):
    """(value type, whether None/auto is allowed) of one RunConfig annotation."""
    args = [a for a in typing.get_args(annotation) if a is not type(None)]
    return (args[0], True) if args else (annotation, False)


# key -> (value type, optional): the one place each key's type is decided
_SCHEMA = {f.name: _schema_entry(f.type) for f in fields(RunConfig)}


def _parse_value(key, text):
    """Parse one value of ``key``; config files and CLI flags share this."""
    text = text.strip()
    kind, optional = _SCHEMA[key]
    if optional and text.lower() in ("auto", "none"):
        return None
    try:
        return kind(text.replace(" ", "") if kind is complex else text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key}={text!r}: {exc}") from None


def parse_config(text) -> RunConfig:
    """Parse configuration text into a validated RunConfig.

    Later assignments override earlier ones; errors carry the offending
    line number.
    """
    return RunConfig(**config_values(text)).validate()


def config_values(text):
    """The keys ``text`` sets, parsed, as a dict; ``parse_config`` without defaults."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected key=value", line=lineno)
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        try:
            values[key] = _parse_value(key, val)
        except ConfigError as exc:
            raise ConfigError(str(exc), line=lineno) from None
    return values


def _render_value(value):
    """Text of one value, numpy scalars included: config files, CSV cells, sidecars."""
    if value is None:
        return "auto"
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.complexfloating, complex)):
        return repr(complex(value))
    return str(value)


def render_config(cfg: RunConfig) -> str:
    """Deterministic textual form; parse(render(cfg)) == cfg."""
    lines = [f"{f.name}={_render_value(getattr(cfg, f.name))}"
             for f in fields(RunConfig)]
    return "\n".join(lines) + "\n"


def system_params(cfg: RunConfig):
    if cfg.canonical_mode == "travelling-wave" and cfg.command == "simulate":
        return SystemParams.travelling_wave(cfg.kappa)
    return SystemParams(**{k: getattr(cfg, k) for k in PHYSICS_KEYS})


def resolved_dt(cfg: RunConfig):
    """Step default: resolves the fastest linear rate by at least 1000."""
    if cfg.dt is not None:
        return cfg.dt
    if cfg.canonical_mode == "travelling-wave":
        return 5e-4
    fastest = max(cfg.gamma1, cfg.gamma2, cfg.gamma3)
    if not fastest > 0:
        raise ConfigError("automatic dt needs a positive loss rate gamma1, gamma2 or "
                          "gamma3; set dt")
    return 1e-3 / fastest


def resolved_t_max(cfg: RunConfig):
    """Duration default: ten slowest decay times, a whole number of steps dt."""
    if cfg.t_max is not None:
        return cfg.t_max
    if cfg.canonical_mode == "travelling-wave":
        return 8.0
    positive = [g for g in (cfg.gamma1, cfg.gamma2, cfg.gamma3) if g > 0]
    dt = resolved_dt(cfg)
    steps = (10.0 / min(positive) if positive else 10.0) / dt
    if not np.isfinite(steps):
        raise ConfigError(f"t_max/dt: ten decay times over dt {dt!r} overflow; set t_max")
    return dt * round(steps)


def trajectory_config(cfg: RunConfig):
    from .trajectories import TrajectoryConfig

    return TrajectoryConfig(
        dt=resolved_dt(cfg),
        t_max=resolved_t_max(cfg),
        n_traj=10_000 if cfg.n_traj is None else cfg.n_traj,
        seed=1234 if cfg.seed is None else cfg.seed,
        sample_stride=cfg.sample_stride,
        mode=cfg.canonical_mode,
    )


def omega_grid(cfg: RunConfig):
    lo, hi = cfg.omega_min, cfg.omega_max
    if lo is None or hi is None:
        try:  # the default ends: reads only gamma1, ends are exact
            default_lo, default_hi = default_omegas(cfg, n=2)
        except ParameterError as exc:
            raise ConfigError(f"{exc}; set omega_min and omega_max") from None
        lo = default_lo if lo is None else lo
        hi = default_hi if hi is None else hi
    if not lo < hi:
        raise ConfigError("omega_min must be below omega_max")
    return linear_grid(lo, hi, cfg.n_omega, "n_omega")


def linear_grid(lo, hi, n, key):
    """``np.linspace(lo, hi, n)``; a size numpy cannot index is a ConfigError naming ``key``."""
    try:
        return np.linspace(lo, hi, n)
    except ValueError:  # numpy refuses a size whose byte count overflows
        raise ConfigError(f"{key} {n} is too large for an array") from None
