"""The package's public names."""

import types

import sfgsim

# the public names, each imported once by the package
PUBLIC_NAMES = {
    "ConfigError", "ConvergenceError", "CorrelationError", "CorrelationSeries",
    "CriticalPoint", "EnsembleQualityError", "MomentTable", "PhaseSpacePoint",
    "QuadratureSpec", "SfgsimError", "SpectrumResult", "StabilityBoundary",
    "StabilityReport", "SteadyStateError", "SteadyStateSolution", "SystemParams",
    "TrajectoryConfig", "UnstableOperatingPointError", "classical_rhs", "critical_point",
    "default_omegas", "diffusion_product", "drift_matrix", "drive_ratios", "duan_simon",
    "eigenvalues_symmetric", "epr_product", "fano", "fano_sum", "intracavity_spectrum",
    "noise_matrix", "output_spectra", "quadrature_covariance", "quadrature_index",
    "quadrature_variance", "residual_norm", "run_ensemble", "semiclassical_trajectory",
    "solve_steady", "solve_steady_general", "solve_steady_symmetric", "spectral_duan_simon",
    "spectral_epr", "spectrum", "stability", "stability_margin", "stability_map", "step",
}


def test_public_names_are_frozen():
    assert len(PUBLIC_NAMES) == 48
    assert set(sfgsim.__all__) == PUBLIC_NAMES
    assert sfgsim.__all__ == sorted(sfgsim.__all__)
    for name in sfgsim.__all__:
        obj = getattr(sfgsim, name)
        assert not isinstance(obj, types.ModuleType), name
    namespace = {}
    exec("from sfgsim import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
