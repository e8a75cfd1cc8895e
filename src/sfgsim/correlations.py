"""Physical correlations from ensemble moment tables.

Stochastic phase-space averages are normally ordered, so every measurable
quantity needs its ordering correction exactly once, here: quadrature
variances gain the vacuum +1, photon-number variances gain the mean.
The entanglement witnesses, the Duan-Simon sum (threshold 4) and the Reid
product (threshold 1), are defined once in `spectra` and evaluated on the
corrected quadrature covariances of each view.

All reported series are real; the imaginary residue of each raw value is
checked against a tolerance plus five standard errors before being
discarded.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CorrelationError
from .spectra import (check_steering_variance, inferred_variance_product,
                      joint_quadrature_sum, witness_rows)
from .trajectories import MomentTable

# Absolute imaginary residue allowed on top of 5 SE.
IMAG_TOL = 1e-8

# Division guard of the Fano factor; the inferred variances use spectra's.
FANO_MEAN_GUARD = 1e-6


@dataclass(frozen=True)
class QuadratureSpec:
    """A single-mode quadrature: mode index 1..3 and angle theta (mod 2pi)."""

    mode: int
    theta: float = 0.0

    def __post_init__(self):
        if self.mode not in (1, 2, 3):
            raise ValueError(f"mode must be 1, 2 or 3, got {self.mode}")
        object.__setattr__(self, "theta", float(self.theta) % (2.0 * np.pi))

    @classmethod
    def x(cls, mode):
        return cls(mode, 0.0)

    @classmethod
    def y(cls, mode):
        return cls(mode, np.pi / 2.0)


# The quadratures in spectra.quadrature_index order: X1, Y1, X2, Y2, X3, Y3.
_QUADRATURES = [spec(mode) for mode in (1, 2, 3) for spec in (QuadratureSpec.x, QuadratureSpec.y)]


@dataclass
class CorrelationSeries:
    """A time series of one correlation with its threshold.

    ``threshold`` is the classical/separable boundary the series is
    compared against (1 for squeezing, Fano and inferred-variance
    products, 4 for the joint-quadrature sum).
    """

    times: np.ndarray
    values: np.ndarray
    se: np.ndarray
    threshold: float
    label: str = ""

    def __iter__(self):
        return iter((self.times, self.values, self.se))


def _realize(raw, se_raw, label):
    """Strip a complex series to its real part, asserting the residue."""
    raw = np.asarray(raw)
    imag = np.abs(raw.imag) if np.iscomplexobj(raw) else np.zeros(raw.shape)
    bound = IMAG_TOL + 5.0 * np.where(np.isfinite(se_raw), se_raw, 0.0)
    if np.any(imag > bound):
        worst = float(imag.max())
        raise CorrelationError(
            f"{label}: imaginary residue {worst:.3e} exceeds tolerance; "
            "moment table is inconsistent"
        )
    return raw.real


def _series(m: MomentTable, fn, threshold, label):
    value, se = m.batch_statistic(fn)
    se = np.asarray(se, dtype=float)
    return CorrelationSeries(
        times=m.times,
        values=_realize(value, se, label),
        se=se,
        threshold=threshold,
        label=label,
    )


def _variance_raw(view, q):
    """Normally-ordered quadrature variance plus the vacuum unit."""
    j = q.mode - 1
    phase = np.exp(-2j * q.theta)
    caa = view.aa[:, j, j] - view.a[:, j] ** 2
    cpp = view.apap[:, j, j] - view.ap[:, j] ** 2
    cpa = view.apa[:, j, j] - view.ap[:, j] * view.a[:, j]
    return 1.0 + phase * caa + np.conj(phase) * cpp + 2.0 * cpa


def _covariance_raw(view, qj, qk):
    """Stochastic covariance of two quadrature variables (no vacuum term)."""
    j, k = qj.mode - 1, qk.mode - 1
    ej, ek = np.exp(-1j * qj.theta), np.exp(-1j * qk.theta)
    caa = view.aa[:, j, k] - view.a[:, j] * view.a[:, k]
    cpp = view.apap[:, j, k] - view.ap[:, j] * view.ap[:, k]
    # E[a_j a_k+] sits at apa[k, j]: the stochastic variables commute
    cap = view.apa[:, k, j] - view.a[:, j] * view.ap[:, k]
    cpa = view.apa[:, j, k] - view.ap[:, j] * view.a[:, k]
    return ej * ek * caa + ej * np.conj(ek) * cap + np.conj(ej) * ek * cpa \
        + np.conj(ej) * np.conj(ek) * cpp


def quadrature_variance(m: MomentTable, q: QuadratureSpec) -> CorrelationSeries:
    """V(X_mode(theta)); below 1 means squeezing."""
    return _series(
        m, lambda v: _variance_raw(v, q), 1.0,
        f"V(X{q.mode}(theta={q.theta:.4g}))",
    )


def quadrature_covariance(m, qj, qk) -> CorrelationSeries:
    """Covariance of two quadratures; same-mode same-angle gives V - 1."""
    return _series(
        m, lambda v: _covariance_raw(v, qj, qk), 0.0,
        f"cov(X{qj.mode}({qj.theta:.3g}), X{qk.mode}({qk.theta:.3g}))",
    )


def fano(m: MomentTable, modes=(1, 2)) -> CorrelationSeries:
    """Fano factor of the photon-number sum over ``modes``.

    F = V(N)/<N> with the physical variance; coherent light gives exactly
    1, below 1 is sub-Poissonian.  A sample whose combined mean <N> is
    below FANO_MEAN_GUARD (a vacuum start's t = 0) reads NaN, value and
    SE; with no sample above it the series raises CorrelationError.
    """
    idx = [mode - 1 for mode in modes]
    gview = m.global_view()
    defined = np.real(sum(gview.apa[:, j, j] for j in idx)) >= FANO_MEAN_GUARD
    if not defined.any():
        raise CorrelationError(
            f"Fano factor undefined: mean photon number below {FANO_MEAN_GUARD} at every sample"
        )

    def raw(view):
        n1 = sum(view.apa[:, j, j] for j in idx)
        n2 = sum(view.nn[:, j, k] for j in idx for k in idx)
        # divided by 1 where undefined, so those samples raise no 0/0 warning
        return np.where(defined, 1.0 + (n2 - n1**2) / np.where(defined, n1, 1.0), np.nan)

    label = "F(N" + "+N".join(str(mode) for mode in modes) + ")"
    return _series(m, raw, 1.0, label)


def fano_sum(m: MomentTable) -> CorrelationSeries:
    """Fano factor of the summed low-frequency intensities."""
    return fano(m, modes=(1, 2))


def _quadrature_cov(view):
    """The witnesses' ``cov(i, k)`` of one view; the diagonal is the variance."""
    def cov(i, k):
        qi, qk = _QUADRATURES[i], _QUADRATURES[k]
        return _variance_raw(view, qi) if i == k else _covariance_raw(view, qi, qk)
    return cov


def duan_simon(m: MomentTable, sign=+1) -> CorrelationSeries:
    """`spectra.joint_quadrature_sum` of the low-frequency pair; threshold 4.

    The interaction correlates the `+` combination; the opposite sign
    carries excess noise.
    """
    witness_rows(sign)  # before any table is combined
    tag = "+" if sign > 0 else "-"
    return _series(m, lambda view: joint_quadrature_sum(_quadrature_cov(view), sign), 4.0,
                   f"V(X1{tag}X2)+V(Y1{'-' if sign > 0 else '+'}Y2)")


def epr_product(m: MomentTable, inferred, steering) -> CorrelationSeries:
    """`spectra.inferred_variance_product` for mode ``inferred``; threshold 1.

    Conditions on the quadratures of mode ``steering`` with the optimal
    linear gain; the guard reads the combined view only, not each batch.
    """
    witness_rows(inferred=inferred, steering=steering)  # before any table is combined
    check_steering_variance(_quadrature_cov(m.global_view()), inferred, steering)
    return _series(
        m, lambda view: inferred_variance_product(_quadrature_cov(view), inferred, steering),
        1.0, f"EPR{inferred}{steering}")
