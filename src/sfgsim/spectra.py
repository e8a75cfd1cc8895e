"""Linearized fluctuation spectra of the stable intracavity regime.

Around a stable classical steady state the phase-space variables obey a
multivariate Ornstein-Uhlenbeck process

    d(dX) = -A dX dt + B dW,

over the fluctuation basis (da1, da1+, da2, da2+, da3, da3+), with dW four
independent real Wiener increments.  The stationary two-time covariance has
the frequency-domain form

    S(w) = (A + iw)^(-1) B B^T (A^T - iw)^(-1),

from which measurable output quadrature spectra follow through the standard
input-output relations with vacuum inputs: shot noise is 1 and each mode
couples out through its full loss rate.  The two-mode witnesses are defined
here once, on any quadrature covariance; `correlations` evaluates them too.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, CorrelationError, ParameterError,
                     UnstableOperatingPointError)

# Margin below which a drift eigenvalue is treated as unstable/marginal.
STABILITY_TOL = 1e-9

# Smallest steering-mode variance an inferred variance may divide by.
EPR_VARIANCE_GUARD = 1e-9

# Number of fluctuation variables: a pair (da, da+) per mode.
DIM = 6

# Quadrature transform per mode: X = da + da+, Y = -i(da - da+).
_U_BLOCK = np.array([[1.0, 1.0], [-1.0j, 1.0j]])
_U = np.zeros((DIM, DIM), dtype=complex)
for _m in range(3):
    _U[2 * _m : 2 * _m + 2, 2 * _m : 2 * _m + 2] = _U_BLOCK


def quadrature_index(mode, quad):
    """Row/column of quadrature `quad` ('X' or 'Y') of `mode` (1..3)."""
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    offset = {"X": 0, "Y": 1}.get(quad.upper())
    if offset is None:
        raise ValueError(f"quad must be 'X' or 'Y', got {quad!r}")
    return 2 * (mode - 1) + offset


def drift_matrix_raw(kappa, gamma1, gamma2, gamma3, x):
    """Drift matrix A at an arbitrary phase-space point ``x`` (6 complex).

    The linearized fluctuations obey d(dX)/dt = -A dX, so positive real
    parts of A's eigenvalues mean stability.  Also serves as the negative
    Jacobian of the classical flow in the Newton steady-state solver.
    """
    a1, a1p, a2, a2p, a3, a3p = x
    k = kappa
    return np.array(
        [
            [gamma1, 0, 0, -k * a3, -k * a2p, 0],
            [0, gamma1, -k * a3p, 0, 0, -k * a2],
            [0, -k * a3, gamma2, 0, -k * a1p, 0],
            [-k * a3p, 0, 0, gamma2, 0, -k * a1],
            [k * a2, 0, k * a1, 0, gamma3, 0],
            [0, k * a2p, 0, k * a1p, 0, gamma3],
        ],
        dtype=complex,
    )


def drift_matrix(params, ss):
    """Drift matrix A evaluated at a steady state."""
    return drift_matrix_raw(params.kappa, *params.gammas, ss.phase_space)


def noise_matrix(params, ss):
    """6x4 coefficient matrix B of the four real noises.

    Only the low-frequency rows carry noise; the amplitude is the principal
    complex square root of kappa*a3/2 (a3 is negative at any driven steady
    state, so B is genuinely complex).
    """
    s3 = np.sqrt(params.kappa * complex(ss.alpha3) / 2)
    s3p = np.sqrt(params.kappa * np.conj(complex(ss.alpha3)) / 2)
    B = np.zeros((DIM, 4), dtype=complex)
    B[0] = [s3, 0, 1j * s3, 0]
    B[1] = [0, s3p, 0, 1j * s3p]
    B[2] = [s3, 0, -1j * s3, 0]
    B[3] = [0, s3p, 0, -1j * s3p]
    return B


def diffusion_product(params, ss):
    """D = B B^T.  Rank <= 2: the only couplings are da1-da2 and da1+-da2+."""
    a3 = complex(ss.alpha3)
    D = np.zeros((DIM, DIM), dtype=complex)
    D[0, 2] = D[2, 0] = params.kappa * a3
    D[1, 3] = D[3, 1] = params.kappa * np.conj(a3)
    return D


def drift_eigenvalues(A):
    """Eigenvalues of A; LAPACK giving up (near float64's range) raises ConvergenceError."""
    try:
        return np.linalg.eigvals(A)
    except np.linalg.LinAlgError:
        raise ConvergenceError("drift-matrix eigenvalues did not converge") from None


def stability_margin(A):
    """Smallest real part among the eigenvalues of A."""
    return float(drift_eigenvalues(A).real.min())


def intracavity_spectrum(A, D, omega):
    """Spectral matrix S(w) = (A+iw)^(-1) D (A^T-iw)^(-1) by linear solves.

    ``omega`` is one frequency or a grid of them; a grid of shape (N,)
    gives a stack of shape (N, 6, 6), solved in one batched pair of
    solves.  Refuses to evaluate when A has a non-positive stability
    margin: the fluctuations have no stationary state there and the full
    stochastic equations must be integrated instead.
    """
    margin = stability_margin(A)
    if margin <= STABILITY_TOL:
        raise UnstableOperatingPointError(
            f"operating point is unstable (stability margin {margin:.3e}); "
            "linearized spectra are invalid here - integrate the stochastic "
            "equations with sfgsim.trajectories.run_ensemble instead"
        )
    iw = 1j * np.asarray(omega, dtype=float)[..., None, None] * np.eye(DIM)
    left = np.linalg.solve(A + iw, D)
    # right-multiplication by (A^T - iw)^(-1) via a transposed solve
    return np.linalg.solve(A - iw, left.swapaxes(-1, -2)).swapaxes(-1, -2)


def output_spectra(params, S):
    """Measured output quadrature covariance matrix at one frequency.

    ``S`` may also be a stack of shape (N, 6, 6), one matrix per frequency.

    Transforms the phase-space spectrum to the quadrature basis
    (X1, Y1, X2, Y2, X3, Y3), symmetrizes, takes the real part and applies
    the input-output map with vacuum inputs:

        S_out = 1 + 2 G Re(sym(U S U^T)) G,   G = diag(sqrt(gamma_j)),

    so that shot noise is exactly 1 at every frequency.  The transform is
    U S U^T (not U S U^H): positive-P moments are stochastic covariances of
    the quadrature *variables*, and the plain transpose is what reproduces
    known parametric-oscillator output spectra.
    """
    SQ = _U @ np.asarray(S) @ _U.T
    sym = 0.5 * (SQ + SQ.swapaxes(-1, -2))
    g = np.repeat(params.gammas, 2)
    G = np.sqrt(g)
    return np.eye(DIM) + 2.0 * np.real(sym) * np.outer(G, G)


def _quadrature_residues(S):
    """Diagnostics of the symmetrize-and-realize projection.

    Returns (asymmetry, imag_residue): the magnitude removed by
    symmetrization (an odd-in-frequency quadrature-phase component, often
    genuinely nonzero) and the imaginary residue of the symmetrized
    matrix, which should sit at rounding level.  Over a stack of
    matrices both are maxima across the stack.
    """
    SQ = _U @ np.asarray(S) @ _U.T
    SQt = SQ.swapaxes(-1, -2)
    asym = float(np.max(np.abs(SQ - SQt)))
    imag = float(np.max(np.abs((0.5 * (SQ + SQt)).imag)))
    return asym, imag


@dataclass
class SpectrumResult:
    """Frequency sweep of intracavity and output spectral matrices.

    Attributes
    ----------
    omega : (N,) array
        Frequency grid (units of the mode-1 loss rate by convention).
    intracavity : (N, 6, 6) complex array
        S(w) over the phase-space basis.
    output : (N, 6, 6) real array
        Output quadrature covariances over (X1, Y1, X2, Y2, X3, Y3);
        diagonal 1 means shot noise.
    max_asymmetry : float
        Largest magnitude removed by symmetrization across the grid (the
        odd-in-frequency quadrature-phase component).
    max_imag_residue : float
        Largest imaginary residue of the symmetrized matrices; should be
        at rounding level.
    """

    omega: np.ndarray
    intracavity: np.ndarray
    output: np.ndarray
    max_asymmetry: float
    max_imag_residue: float = 0.0
    params: object = None
    steady_state: object = None

    def variance(self, mode, quad):
        """Output spectral variance V(quad_mode, w) across the grid."""
        i = quadrature_index(mode, quad)
        return self.output[:, i, i]


N_OMEGA = 801  # points of the default frequency grid, and the n_omega key's default


def default_omegas(params, n=N_OMEGA, span=20.0):
    """Symmetric frequency grid: `n` points over [-span, span] * gamma1.

    A travelling-wave gamma1 of zero falls back to unit frequency scale;
    a span beyond float64's range raises ParameterError.
    """
    scale = params.gamma1 if params.gamma1 > 0 else 1.0
    if not np.isfinite(2.0 * span * scale):
        raise ParameterError(f"frequency grid of +-{span:g} gamma1 spans more than float64 "
                             f"holds (gamma1 {params.gamma1!r})")
    return np.linspace(-span * scale, span * scale, n)


def spectrum(params, ss=None, omegas=None):
    """Full spectral sweep at a steady state.

    Solves for the steady state when one is not supplied, refuses at
    unstable points, and assembles intracavity and output matrices on the
    grid in grid order.
    """
    if ss is None:
        from .steady import solve_steady  # deferred: steady imports this module

        ss = solve_steady(params)
    if omegas is None:
        omegas = default_omegas(params)
    omegas = np.asarray(omegas, dtype=float)

    S = intracavity_spectrum(drift_matrix(params, ss), diffusion_product(params, ss), omegas)
    asym, imag = _quadrature_residues(S)
    return SpectrumResult(
        omega=omegas,
        intracavity=S,
        output=output_spectra(params, S),
        max_asymmetry=asym,
        max_imag_residue=imag,
        params=params,
        steady_state=ss,
    )


def witness_rows(sign=+1, inferred=1, steering=2):
    """Check a witness's arguments; returns the X, Y rows of ``inferred``, then of ``steering``."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if inferred == steering:
        raise ValueError("inferred and steering modes must differ")
    return [quadrature_index(mode, quad) for mode in (inferred, steering) for quad in "XY"]


def joint_quadrature_sum(cov, sign=+1):
    """Duan-Simon sum V(X1 +/- X2) + V(Y1 -/+ Y2); below 4 certifies entanglement.

    ``cov(i, k)`` covaries quadratures i, k in `quadrature_index` order, vacuum
    unit included; the `+` sign is the combination this interaction correlates.
    """
    x1, y1, x2, y2 = witness_rows(sign)
    vx = cov(x1, x1) + cov(x2, x2) + 2 * sign * cov(x1, x2)
    vy = cov(y1, y1) + cov(y2, y2) - 2 * sign * cov(y1, y2)
    return vx + vy


def inferred_variance_product(cov, inferred, steering):
    """Reid product of mode ``inferred``'s variances inferred from mode ``steering``.

    ``cov`` as for `joint_quadrature_sum`; below 1 the steering mode steers.
    """
    xj, yj, xk, yk = witness_rows(inferred=inferred, steering=steering)
    vinf_x = cov(xj, xj) - cov(xj, xk) ** 2 / cov(xk, xk)
    vinf_y = cov(yj, yj) - cov(yj, yk) ** 2 / cov(yk, yk)
    return vinf_x * vinf_y


def check_steering_variance(cov, inferred, steering):
    """Refuse steering-mode variances at or below `EPR_VARIANCE_GUARD`."""
    for k in witness_rows(inferred=inferred, steering=steering)[2:]:
        if np.any(np.real(cov(k, k)) <= EPR_VARIANCE_GUARD):
            raise CorrelationError(f"steering-mode variance fell below the {EPR_VARIANCE_GUARD} "
                                   "guard; inferred variances are undefined")


def _output_cov(result):
    return lambda i, k: result.output[:, i, k]


def spectral_duan_simon(result, sign=+1):
    """`joint_quadrature_sum` of the output spectra at every frequency."""
    return joint_quadrature_sum(_output_cov(result), sign)


def spectral_epr(result, inferred, steering):
    """`inferred_variance_product` of the output spectra, guarded at every frequency."""
    check_steering_variance(_output_cov(result), inferred, steering)
    return inferred_variance_product(_output_cov(result), inferred, steering)
