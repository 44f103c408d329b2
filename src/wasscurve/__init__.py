"""Measure-valued curve regression in Wasserstein space.

Fits laws over linear and quadratic curves to time-stamped probability
distributions by multi-marginal entropic optimal transport, with a
closed-form/SDP path for Gaussian data, a Gaussian-mixture variant, and a
pipeline estimating transition matrices and invariant measures from
distribution snapshots alone.
"""

__version__ = "0.1.0"

from .curves import LINEAR, QUADRATIC, CurveClass, curve_from_name
from .curve_regression import (
    ExtrapolationWarning,
    RegressionResult,
    SolverConfig,
    default_param_grids,
    euclidean_regression_oracle,
    fit,
    marginal_at,
    objective_true,
)
from .gaussian_regression import (
    GaussianCouplingBlocks,
    GaussianCurve,
    biased_covariance,
    fit_gaussian_sdp,
    gaussian_1d_parametric_oracle,
    gaussian_geodesic,
    w2_gaussian,
    w2_gaussian_squared,
)
from .gmm_regression import (
    AtomSet,
    MixtureFitResult,
    fit_mixture_curve,
    mixture_marginal_at,
    wm_distance,
)
from .kernels import CostKernelSet, FactoredKernelSet, build_kernels, kernels_from_costs
from .linalg import project_psd
from .measures import (
    DiscreteMeasure,
    GaussianMeasure,
    GaussianMixture,
    SnapshotDataset,
    SupportGrid,
    measure_from_samples,
)
from .mm_sinkhorn import (
    FactoredCoupling,
    ParamCoupling,
    SolverError,
    extract_param_coupling,
    sinkhorn_solve,
)
from .pfo_estimation import (
    BoxPartition,
    StationaryResult,
    TransitionMatrix,
    arcsine_box_masses,
    arcsine_cdf,
    arcsine_density,
    estimate_transition,
    logistic_map,
    snapshots_from_map,
    stationary_distribution,
)
from .two_marginal import two_marginal_w2, two_marginal_w2_exact

__all__ = [
    "__version__",
    "AtomSet",
    "BoxPartition",
    "CostKernelSet",
    "CurveClass",
    "DiscreteMeasure",
    "ExtrapolationWarning",
    "FactoredCoupling",
    "FactoredKernelSet",
    "GaussianCouplingBlocks",
    "GaussianCurve",
    "GaussianMeasure",
    "GaussianMixture",
    "LINEAR",
    "MixtureFitResult",
    "ParamCoupling",
    "QUADRATIC",
    "RegressionResult",
    "SnapshotDataset",
    "SolverConfig",
    "SolverError",
    "StationaryResult",
    "SupportGrid",
    "TransitionMatrix",
    "arcsine_box_masses",
    "arcsine_cdf",
    "arcsine_density",
    "biased_covariance",
    "build_kernels",
    "curve_from_name",
    "default_param_grids",
    "estimate_transition",
    "euclidean_regression_oracle",
    "extract_param_coupling",
    "fit",
    "fit_gaussian_sdp",
    "fit_mixture_curve",
    "gaussian_1d_parametric_oracle",
    "gaussian_geodesic",
    "kernels_from_costs",
    "logistic_map",
    "marginal_at",
    "measure_from_samples",
    "mixture_marginal_at",
    "objective_true",
    "project_psd",
    "sinkhorn_solve",
    "snapshots_from_map",
    "stationary_distribution",
    "two_marginal_w2",
    "two_marginal_w2_exact",
    "w2_gaussian",
    "w2_gaussian_squared",
    "wm_distance",
]
