"""Physical parameters of the doubly pumped, triply resonant cavity.

The model has three intracavity modes coupled by a second-order
nonlinearity: two driven low-frequency modes (1, 2) and the sum-frequency
mode (3).  All rates are amplitude decay rates; pump amplitudes may be
complex.  Setting every loss and pump to zero recovers the free
travelling-wave interaction.
"""

import cmath
from dataclasses import dataclass, fields

from .errors import ParameterError

# Relative tolerance used when deciding whether the two low-frequency
# modes are driven and damped symmetrically.
SYMMETRY_RTOL = 1e-12


def _rel_close(a, b):
    return abs(a - b) <= SYMMETRY_RTOL * max(abs(a), abs(b))


@dataclass(frozen=True)
class SystemParams:
    """Single source of truth for the physical configuration.

    Parameters
    ----------
    kappa : float
        Effective second-order nonlinearity (inverse time per field
        amplitude).  Must be positive.  Every rate and pump must be finite.
    gamma1, gamma2, gamma3 : float
        Cavity amplitude loss rates of the three modes (inverse time),
        each nonnegative.  All zero means travelling-wave operation.
    eps1, eps2 : complex
        Classical pump amplitudes driving modes 1 and 2
        (field amplitude x inverse time).
    """

    kappa: float
    gamma1: float = 0.0
    gamma2: float = 0.0
    gamma3: float = 0.0
    eps1: complex = 0.0
    eps2: complex = 0.0

    def __post_init__(self):
        if not self.kappa > 0:
            raise ParameterError(f"kappa must be > 0, got {self.kappa}")
        for name in ("gamma1", "gamma2", "gamma3"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0, got {getattr(self, name)}")
        object.__setattr__(self, "eps1", complex(self.eps1))
        object.__setattr__(self, "eps2", complex(self.eps2))
        for f in fields(self):
            if not cmath.isfinite(getattr(self, f.name)):
                raise ParameterError(f"{f.name} must be finite, got {getattr(self, f.name)}")

    @property
    def gammas(self):
        return (self.gamma1, self.gamma2, self.gamma3)

    @property
    def is_travelling_wave(self):
        """True when there is no cavity: all losses and pumps vanish."""
        return (
            self.gamma1 == self.gamma2 == self.gamma3 == 0.0
            and self.eps1 == 0
            and self.eps2 == 0
        )

    @property
    def is_symmetric(self):
        """True when the low-frequency modes are pumped and damped alike."""
        return _rel_close(self.gamma1, self.gamma2) and _rel_close(self.eps1, self.eps2)

    def symmetric_gamma(self):
        """Common low-frequency loss rate; raises when the case is asymmetric."""
        if not self.is_symmetric:
            raise ParameterError("parameters are not symmetric (gamma1 != gamma2 or eps1 != eps2)")
        return self.gamma1

    def symmetric_eps(self):
        """Common pump amplitude; raises when the case is asymmetric."""
        if not self.is_symmetric:
            raise ParameterError("parameters are not symmetric (gamma1 != gamma2 or eps1 != eps2)")
        return self.eps1

    @classmethod
    def symmetric(cls, kappa, gamma, gamma3, eps):
        """Convenience constructor with gamma1 = gamma2 and eps1 = eps2."""
        return cls(kappa=kappa, gamma1=gamma, gamma2=gamma, gamma3=gamma3,
                   eps1=eps, eps2=eps)

    @classmethod
    def travelling_wave(cls, kappa):
        """Free interaction region: no cavity losses, no pumps."""
        return cls(kappa=kappa)
