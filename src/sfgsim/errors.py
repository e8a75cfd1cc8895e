"""Exception types raised across the package."""


class SfgsimError(Exception):
    """Base class for all errors raised by sfgsim."""


class ParameterError(SfgsimError, ValueError):
    """Parameters violate a documented precondition of a model or solver.

    Also a ValueError, so callers that catch that keep working.
    """


class SteadyStateError(SfgsimError):
    """A steady-state solution failed its residual verification.

    Carries all candidate roots so the caller can inspect what the solver saw.
    """

    def __init__(self, message, candidates=()):
        super().__init__(message)
        self.candidates = tuple(candidates)


class ConvergenceError(SfgsimError):
    """Iterative solver exhausted its budget without converging."""

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class UnstableOperatingPointError(SfgsimError):
    """Linearized spectra were requested at a dynamically unstable point.

    The fluctuation analysis is meaningless there; integrate the full
    stochastic equations instead (see sfgsim.trajectories.run_ensemble).
    """


class CorrelationError(SfgsimError):
    """A correlation is undefined (division guard) or failed a reality check."""


class EnsembleQualityError(SfgsimError):
    """Too many trajectories hit the divergence guard.

    A non-negligible diverged fraction indicates a configuration fault
    (usually a too-large step or unphysical parameters), so the ensemble
    averages are not trustworthy.
    """

    def __init__(self, message, n_diverged=0, n_traj=0):
        super().__init__(message)
        self.n_diverged = n_diverged
        self.n_traj = n_traj


class ConfigError(SfgsimError):
    """Configuration text or flag values failed validation."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
