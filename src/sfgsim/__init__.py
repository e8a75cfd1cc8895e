"""Quantum dynamics of intracavity sum frequency generation.

A numpy/scipy library for the three-mode chi(2) upconverter: exact
positive-P stochastic trajectory ensembles, classical steady states and
stability analysis, linearized fluctuation spectra with input-output
normalization, and squeezing/entanglement/steering correlation measures.
"""

import types

from .correlations import (
    CorrelationSeries,
    QuadratureSpec,
    duan_simon,
    epr_product,
    fano,
    fano_sum,
    quadrature_covariance,
    quadrature_variance,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    CorrelationError,
    EnsembleQualityError,
    SfgsimError,
    SteadyStateError,
    UnstableOperatingPointError,
)
from .params import SystemParams
from .spectra import (
    SpectrumResult,
    default_omegas,
    diffusion_product,
    drift_matrix,
    intracavity_spectrum,
    noise_matrix,
    output_spectra,
    quadrature_index,
    spectral_duan_simon,
    spectral_epr,
    spectrum,
    stability_margin,
)
from .steady import (
    CriticalPoint,
    StabilityBoundary,
    StabilityReport,
    SteadyStateSolution,
    classical_rhs,
    critical_point,
    drive_ratios,
    eigenvalues_symmetric,
    residual_norm,
    solve_steady,
    solve_steady_general,
    solve_steady_symmetric,
    stability,
    stability_map,
)
from .trajectories import (
    MomentTable,
    PhaseSpacePoint,
    TrajectoryConfig,
    run_ensemble,
    semiclassical_trajectory,
    step,
)

__version__ = "0.1.0"

# every public name is imported above, once: the package exports each
# imported object that is not a module
__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_") and not isinstance(obj, types.ModuleType))
