"""Classical steady states, stability analysis and the critical drive.

With the noise dropped, the intracavity equations have fixed points
obeying three complex conditions (the plus variables are conjugates in
the mean-field limit):

    0 = eps1 - gamma1 a1 + kappa conj(a2) a3
    0 = eps2 - gamma2 a2 + kappa conj(a1) a3
    0 = -gamma3 a3 - kappa a1 a2

For symmetric driving (gamma1 = gamma2 = gamma, eps1 = eps2 = eps real)
eliminating the low-frequency amplitude leaves a cubic in a3,

    kappa^2 gamma3 a3^3 - 2 gamma gamma3 kappa a3^2
        + gamma^2 gamma3 a3 + kappa eps^2 = 0,

which is monotone on a3 <= 0 and therefore has exactly one nonpositive
real root: the physical branch (a3 <= 0, a = eps/(gamma - kappa a3) >= 0).
Raising the drive pushes kappa*a3 toward -gamma, where the slowest drift
eigenvalue crosses zero; that defines the critical operating point,
epsilon_c = 2 gamma sqrt(gamma gamma3)/kappa.  ``stability_map`` reports
that closed form as each boundary, certified by two eigenvalue solves:
stable at epsilon_c (1 - BRACKET_REL_TOL), not stable at
epsilon_c (1 + BRACKET_REL_TOL).

``solve_steady_symmetric`` takes that root from the companion-matrix
roots (``np.roots``) as it is and verifies it against the full
fixed-point equations.  Any other driving goes to
``solve_steady_general``: Newton iteration on the six phase-space
components with backtracking and a damped fixed-point fallback.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError, SteadyStateError
from .params import SystemParams
from .spectra import STABILITY_TOL, drift_eigenvalues, drift_matrix, drift_matrix_raw

# Residual bound every returned steady state must satisfy (see _residual_bound).
RESIDUAL_TOL = 1e-10

# Newton/fixed-point iteration budget for the general solver.
MAX_ITERATIONS = 10_000

# Relative half-width of the bracket around epsilon_c that stability_map certifies.
BRACKET_REL_TOL = 1e-6


@dataclass(frozen=True)
class SteadyStateSolution:
    """Classical fixed point plus solver diagnostics.

    ``residual`` is the largest magnitude among the three fixed-point
    equations evaluated at the solution; every constructor verifies it
    below RESIDUAL_TOL times max(1, largest term of those equations).
    ``candidates`` records all cubic roots (symmetric path) for inspection.
    """

    alpha1: complex
    alpha2: complex
    alpha3: complex
    residual: float
    method: str
    candidates: tuple = ()

    @property
    def phase_space(self):
        """Six-component phase-space vector with conjugate plus variables."""
        return _doubled(self.alpha1, self.alpha2, self.alpha3)

    @property
    def intensities(self):
        """Mean photon numbers (|a1|^2, |a2|^2, |a3|^2)."""
        return (abs(self.alpha1) ** 2, abs(self.alpha2) ** 2, abs(self.alpha3) ** 2)


@dataclass(frozen=True)
class StabilityReport:
    """Eigenvalues of the drift matrix at a steady state.

    ``stable`` means every eigenvalue real part exceeds the margin
    tolerance; ``margin`` is the smallest real part.
    """

    eigenvalues: tuple
    stable: bool
    margin: float


@dataclass(frozen=True)
class CriticalPoint:
    """Critical drive of the symmetric cavity.

    At the boundary the high-frequency amplitude reaches -gamma/kappa and
    the low-frequency amplitude reaches alpha_c = epsilon_c/(2 gamma).
    """

    alpha_c: float
    epsilon_c: float
    alpha3_c: float


@dataclass(frozen=True)
class StabilityBoundary:
    """One row of a stability-map scan.

    When ``bracketed``, ``epsilon_boundary`` is the closed form
    ``epsilon_closed_form``, certified stable at (1 - BRACKET_REL_TOL)
    times it and not stable at (1 + BRACKET_REL_TOL) times it; otherwise
    it is None and ``note`` says why: the range misses that bracket, or a
    side of it failed its certificate.
    """

    gamma3_over_gamma: float
    epsilon_boundary: float | None
    epsilon_closed_form: float
    bracketed: bool
    note: str = ""


def classical_rhs(params, x):
    """Noise-free right-hand sides over the six phase-space components.

    The one copy of the classical flow: ``x`` is a state of shape (6,) or
    a component-first block of n states, anything ``np.asarray`` makes
    into shape (6, n); the result is a new complex array of its shape.
    A (6,) state goes through ``flow_rows``, a block through
    ``block_flow``, which the ensemble step binds once per pass.
    """
    if np.ndim(x) == 1:
        return np.array(flow_rows(flow_coefficients(params), *x), dtype=complex)
    x = np.asarray(x)
    out, scratch = np.empty((2, *x.shape), dtype=complex)
    return block_flow(params, x, out, scratch)()


def block_flow(params, x, out, scratch, coefficients=None):
    """The flow of a (6, n) block ``x`` into ``out``, bound: returns a no-argument callable.

    Eight array operations run the rows stacked: with y = k x[0:4],

        rows 0-3:  E - G x[0:4] + y[3::-1].reshape(2, 2, n) * x[4:6]
        rows 4-5:  (-g3) x[4:6] - y[0:2] * x[2:4]

    each the written-out operation under the rounding invariant of the
    ``trajectories`` module docstring, so an idle mode's ``eps - gamma a``
    is +0+0j as written out.
    Every view of ``x``, ``out`` and ``scratch`` (C-contiguous complex
    (6, n), none overlapping) is taken here, once, for a caller that
    writes each new state into ``x``.  ``coefficients``: ``block_coefficients(params, n)``.
    """
    n = x.shape[1]
    E, G, k, mg3 = block_coefficients(params, n) if coefficients is None else coefficients
    x03, x23, x45 = x[0:4], x[2:4], x[4:6]
    y, y01, y45, out03, out45 = scratch[0:4], scratch[0:2], scratch[4:6], out[0:4], out[4:6]
    y_swapped, out_pairs = y[::-1].reshape(2, 2, n), out03.reshape(2, 2, n)
    multiply, subtract, add = np.multiply, np.subtract, np.add

    def flow():
        multiply(k, x03, y)
        multiply(y_swapped, x45, out_pairs)
        multiply(y01, x23, y45)
        multiply(mg3, x45, out45)
        subtract(out45, y45, out45)
        multiply(G, x03, y)
        subtract(E, y, y)
        add(y, out03, out03)
        return out
    return flow


def flow_coefficients(params):
    """(k, g1, g2, -g3, eps1, eps1*, eps2, eps2*) as Python complex numbers.

    Real rates held as complex make every product the full complex
    multiply numpy does on promoting a real scalar, whatever the
    interpreter (CPython 3.14 multiplies float by complex without the
    zero terms, which can flip the sign of a zero).
    """
    g1, g2, g3 = params.gammas
    eps1, eps2 = params.eps1, params.eps2
    return tuple(map(complex, (params.kappa, g1, g2, -g3, eps1, eps1.conjugate(),
                               eps2, eps2.conjugate())))


def flow_rows(c, a1, a1p, a2, a2p, a3, a3p):
    """The six flow rows of one state, written out; ``c`` is ``flow_coefficients``."""
    k, g1, g2, mg3, e1, e1c, e2, e2c = c
    return (e1 - g1 * a1 + k * a2p * a3,
            e1c - g1 * a1p + k * a2 * a3p,
            e2 - g2 * a2 + k * a1p * a3,
            e2c - g2 * a2p + k * a1 * a3p,
            mg3 * a3 - k * a1 * a2,
            mg3 * a3p - k * a1p * a2p)


def block_coefficients(params, n):
    """(E, G, k, -g3) for an n-wide block; E and G are (4, n), filled.

    E = (eps1, eps1*, eps2, eps2*) and G = (g1, g1, g2, g2) by row.
    Filled rows, because numpy broadcasts a (4, 1) column more slowly, and
    k and -g3 as 0-d arrays, which a ufunc takes without converting a scalar.
    """
    k, g1, g2, mg3, e1, e1c, e2, e2c = flow_coefficients(params)
    E, G = np.repeat([[[e1], [e1c], [e2], [e2c]], [[g1], [g1], [g2], [g2]]], n, axis=2)
    return E, G, np.array(k), np.array(mg3)


def _doubled(a1, a2, a3):
    """The phase-space state (a1, a1*, a2, a2*, a3, a3*) of three mean-field amplitudes."""
    return np.array([a1, np.conj(a1), a2, np.conj(a2), a3, np.conj(a3)], dtype=complex)


def residual_norm(params, alpha1, alpha2, alpha3):
    """Largest magnitude among the three fixed-point equations (flow rows a1, a2, a3)."""
    F = classical_rhs(params, _doubled(alpha1, alpha2, alpha3))
    return float(max(abs(F[0]), abs(F[2]), abs(F[4])))


def _term_scale(params, alpha1, alpha2, alpha3):
    """max(1, largest term of the fixed-point equations).

    The residual's rounding grows with the terms it cancels, so residual
    tests scale with this to hold however large the pumps are.
    """
    k = params.kappa
    g1, g2, g3 = params.gammas
    terms = (params.eps1, params.eps2, g1 * alpha1, g2 * alpha2, g3 * alpha3,
             k * alpha2 * alpha3, k * alpha1 * alpha3, k * alpha1 * alpha2)
    return max(1.0, *map(abs, terms))


def _residual_bound(params, alpha1, alpha2, alpha3):
    """RESIDUAL_TOL times ``_term_scale``: a root correct to rounding passes."""
    return RESIDUAL_TOL * _term_scale(params, alpha1, alpha2, alpha3)


def _cubic_coeffs(kappa, gamma, gamma3, eps):
    return (
        kappa**2 * gamma3,
        -2.0 * gamma * gamma3 * kappa,
        gamma**2 * gamma3,
        kappa * eps**2,
    )


def solve_steady_symmetric(params: SystemParams) -> SteadyStateSolution:
    """Closed-form steady state of the symmetrically driven cavity.

    Requires gamma1 = gamma2 and a common real nonnegative pump.  Returns
    the unique physical branch (a3 <= 0) and verifies it against the full
    fixed-point equations.  A cubic beyond float64's range raises
    SteadyStateError without a warning.
    """
    eps_c = params.symmetric_eps()
    if eps_c.imag != 0 or eps_c.real < 0:
        raise ParameterError("closed-form solution requires a real nonnegative pump")
    eps = eps_c.real
    gamma = params.symmetric_gamma()
    gamma3 = params.gamma3

    if eps == 0.0:
        return SteadyStateSolution(0j, 0j, 0j, 0.0, "closed-form-symmetric", (0j,))
    if gamma <= 0 or gamma3 <= 0:
        raise ParameterError("a driven cavity needs gamma > 0 and gamma3 > 0 for a steady state")

    try:  # eps**2 beyond the largest float, or an infinite companion matrix
        with np.errstate(over="ignore", invalid="ignore"):
            roots = np.roots(_cubic_coeffs(params.kappa, gamma, gamma3, eps))
    except (OverflowError, np.linalg.LinAlgError):
        raise SteadyStateError(
            "the steady-state cubic overflows float64: pump or rates too large") from None
    # The complex pair has real part above gamma/kappa > 0 (the roots sum
    # to 2 gamma/kappa), so the physical root has the smallest real part.
    a3 = float(roots[np.argmin(roots.real)].real)
    alpha = eps / (gamma - params.kappa * a3)
    residual = residual_norm(params, alpha, alpha, a3)
    if not residual < _residual_bound(params, alpha, alpha, a3) or not a3 <= 0:
        raise SteadyStateError(
            f"closed-form root failed verification (residual {residual:.3e}, a3 {a3!r})",
            candidates=roots,
        )
    return SteadyStateSolution(
        complex(alpha), complex(alpha), complex(a3), residual,
        "closed-form-symmetric", tuple(roots),
    )


def solve_steady_general(params: SystemParams) -> SteadyStateSolution:
    """Numeric fixed point of the classical equations for arbitrary driving.

    Newton iteration on the six phase-space components (the flow is
    holomorphic, so the complex Jacobian is exactly -A) with a damped
    step fallback; agrees with the closed form in the symmetric case.
    A residual that overflows float64 cannot recover, so it raises
    ConvergenceError at once, without a warning.
    """
    g1, g2, g3 = params.gammas
    if min(g1, g2, g3) <= 0:
        raise ParameterError("solve_steady_general requires all loss rates > 0")

    if params.eps1 == 0 and params.eps2 == 0:
        return SteadyStateSolution(0j, 0j, 0j, 0.0, "numeric-general")

    def max_abs(v):
        return float(np.max(np.abs(v)))

    e1, e2 = params.eps1, params.eps2
    with np.errstate(over="ignore", invalid="ignore"):
        # conj(eps)/g, not _doubled(eps/g, ...): conj(eps/g) can differ in a signed zero
        x = np.array([e1 / g1, np.conj(e1) / g1, e2 / g2, np.conj(e2) / g2, 0j, 0j], dtype=complex)
        n_iter = 0
        F = classical_rhs(params, x)
        res = max_abs(F)
        while n_iter < MAX_ITERATIONS:
            if not np.isfinite(res):
                raise ConvergenceError(
                    f"steady-state iteration overflowed float64 (residual {res:.3e}): "
                    f"pumps eps1 {e1:.3g}, eps2 {e2:.3g} too large for loss rates "
                    f"gamma1 {g1:.3g}, gamma2 {g2:.3g}, gamma3 {g3:.3g}", last_iterate=x)
            # stopping tests relative to the equation terms and the iterate: a
            # root correct to rounding leaves a few 1e-16 of the terms, and
            # 1e-14 of them stays below the verification bound at any scale
            if res < 1e-14 * _term_scale(params, x[0], x[2], x[4]):
                break
            A = drift_matrix_raw(params.kappa, g1, g2, g3, x)
            try:
                step = np.linalg.solve(-A, -F)
            except np.linalg.LinAlgError:
                step = np.full(6, np.nan)
            # backtracking on the residual; a step that is not finite tries nothing
            for lam in 0.5 ** np.arange(60.0 if np.all(np.isfinite(step)) else 0.0):
                trial = x + lam * step
                trial_F = classical_rhs(params, trial)
                trial_res = max_abs(trial_F)
                n_iter += 1
                if trial_res < res:
                    x, F, res = trial, trial_F, trial_res
                    break
            else:
                # damped fixed-point fallback: relax toward the explicit updates
                # x_j + F_j/gamma_j, which solve row j of the flow for its own x_j
                x = x + 0.1 * F / np.repeat(params.gammas, 2)
                F = classical_rhs(params, x)
                res = max_abs(F)
                n_iter += 1
                continue
            if lam * max_abs(step) < 1e-14 * max(1.0, max_abs(x)):
                break

    residual = residual_norm(params, x[0], x[2], x[4])
    if not residual < _residual_bound(params, x[0], x[2], x[4]):
        raise ConvergenceError(
            f"steady-state iteration exhausted its budget (residual {residual:.3e})",
            last_iterate=x,
        )
    return SteadyStateSolution(
        complex(x[0]), complex(x[2]), complex(x[4]), residual, "numeric-general"
    )


def solve_steady(params: SystemParams) -> SteadyStateSolution:
    """Dispatch: closed form when the symmetric form applies, else numeric."""
    if params.is_symmetric and params.eps1.imag == 0 and params.eps1.real >= 0:
        if params.eps1 == 0 or (params.gamma1 > 0 and params.gamma3 > 0):
            return solve_steady_symmetric(params)
    return solve_steady_general(params)


def eigenvalues_symmetric(params: SystemParams, ss: SteadyStateSolution):
    """Closed-form drift eigenvalues for the real symmetric steady state.

    Returned in the conventional order (l1, l2, l3, l4, l5, l6); l1 is the
    branch that crosses zero at the critical drive.
    """
    gamma = params.symmetric_gamma()
    if abs(np.imag(ss.alpha1)) > 1e-9 or abs(np.imag(ss.alpha3)) > 1e-9:
        raise ParameterError("eigenvalues_symmetric requires a real steady state")
    gamma3 = params.gamma3
    k = params.kappa
    a = np.real(ss.alpha1)
    a3 = np.real(ss.alpha3)

    common = (gamma - gamma3) ** 2 + k**2 * (a3**2 - 8 * a**2)
    cross = 2 * k * a3 * (gamma - gamma3)
    root_plus = np.sqrt(complex(common + cross))
    root_minus = np.sqrt(complex(common - cross))
    lam = np.empty(6, dtype=complex)
    lam[0] = gamma + k * a3
    lam[1] = gamma - k * a3
    lam[2] = 0.5 * (gamma + gamma3 + k * a3 + root_plus)
    lam[3] = 0.5 * (gamma + gamma3 + k * a3 - root_plus)
    lam[4] = 0.5 * (gamma + gamma3 - k * a3 + root_minus)
    lam[5] = 0.5 * (gamma + gamma3 - k * a3 - root_minus)
    return lam


def stability(params: SystemParams, ss: SteadyStateSolution | None = None) -> StabilityReport:
    """Numeric eigenvalue stability of the steady state."""
    if ss is None:
        ss = solve_steady(params)
    eig = drift_eigenvalues(drift_matrix(params, ss))
    order = np.lexsort((eig.imag, eig.real))
    eig = eig[order]
    margin = float(eig.real.min())
    return StabilityReport(tuple(eig), margin > STABILITY_TOL, margin)


def critical_point(params: SystemParams) -> CriticalPoint:
    """Critical drive of the symmetric cavity.

    Substituting a3 = -gamma/kappa into the fixed-point relations gives
    epsilon_c = 2 gamma sqrt(gamma gamma3)/kappa and
    alpha_c = epsilon_c/(2 gamma); asymmetric driving has no such simple
    expression and is rejected, as is a critical point beyond float64's
    range (a kappa too small for the loss rates).
    """
    gamma = params.symmetric_gamma()
    gamma3 = params.gamma3
    if gamma <= 0 or gamma3 <= 0:
        raise ParameterError("critical_point requires gamma > 0 and gamma3 > 0")
    with np.errstate(over="ignore"):
        eps_c = 2.0 * gamma * np.sqrt(gamma * gamma3) / params.kappa
        alpha_c = eps_c / (2.0 * gamma)
    if not np.isfinite(alpha_c):
        raise ParameterError(f"critical drive epsilon_c {eps_c:.3g} (alpha_c {alpha_c:.3g}) "
                             f"overflows float64 at kappa {params.kappa:g}")
    return CriticalPoint(alpha_c=alpha_c, epsilon_c=eps_c, alpha3_c=-gamma / params.kappa)


def drive_ratios(params: SystemParams):
    """Low-frequency amplitude relative to critical, as (amplitude, intensity).

    The intensity ratio (alpha/alpha_c)^2 is the operating-depth figure
    used when comparing drive strengths; both ratios are reported because
    they are easy to conflate.
    """
    ss = solve_steady_symmetric(params)
    cp = critical_point(params)
    amp = float(np.real(ss.alpha1)) / cp.alpha_c
    return amp, amp**2


def stability_map(kappa, gamma, gamma3_over_gamma, epsilon_range):
    """Stability boundary of the symmetric cavity over a loss-ratio grid.

    For each gamma3/gamma the boundary is the closed form epsilon_c of
    ``critical_point``, certified by two stability solves: the point must
    be ``stable`` (margin above STABILITY_TOL, as ``stability`` and the
    spectra read it) at epsilon_c (1 - BRACKET_REL_TOL) and not stable at
    epsilon_c (1 + BRACKET_REL_TOL).  A row whose
    ``epsilon_range = (lo, hi)`` does not hold that bracket, or whose
    certificate fails, a solve beyond float64's range included, is
    reported unbracketed with a note, not fatal.
    """
    ratios = np.asarray(gamma3_over_gamma, dtype=float)
    if ratios.size == 0 or np.any(np.diff(ratios) <= 0):
        raise ParameterError("gamma3_over_gamma must be a nonempty increasing grid")
    eps_lo, eps_hi = float(epsilon_range[0]), float(epsilon_range[1])
    if not 0 <= eps_lo < eps_hi:
        raise ParameterError("epsilon_range must satisfy 0 <= lo < hi")

    rows = []
    for ratio in ratios:
        p_of = lambda e: SystemParams.symmetric(kappa, gamma, ratio * gamma, e)
        closed = critical_point(p_of(0.0)).epsilon_c
        below, above = closed * (1 - BRACKET_REL_TOL), closed * (1 + BRACKET_REL_TOL)
        if eps_lo <= below and above <= eps_hi:
            try:  # ``drive`` names the solve that fails
                r_below = stability(p_of(drive := below))
                r_above = stability(p_of(drive := above))
            except (SteadyStateError, ConvergenceError):
                note = f"closed form not certified: float64 overflows at drive {drive:.9g}"
            else:
                note = "" if r_below.stable and not r_above.stable else (
                    f"closed form not certified: margin {r_below.margin:.3g} at {below:.9g}, "
                    f"{r_above.margin:.3g} at {above:.9g}")
        else:
            note = ("entire range stable" if eps_hi < closed else
                    "entire range unstable" if eps_lo > closed else
                    f"range ends inside the certified bracket ({below:.9g}, {above:.9g})")
        rows.append(StabilityBoundary(float(ratio), None if note else closed, closed, not note, note))
    return rows
