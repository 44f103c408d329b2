"""Regression of measure-valued curves against time-stamped distributions.

`fit` assembles the decoupled kernels for a curve class, runs the factored
Sinkhorn engine, and returns the law over curve parameters together with the
transport surrogate objective <c, Gamma>, which is what the multi-marginal
program minimizes and an upper bound on the true marginal-matching objective.
`objective_true` recomputes the Wasserstein objective of the induced
one-time marginals as a separate diagnostic, since quantizing marginals back
onto a grid introduces error of its own.
"""

import logging
import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .curves import CurveClass, LINEAR, QUADRATIC, curve_from_name
from .kernels import build_kernels
from .measures import DiscreteMeasure, SnapshotDataset, SupportGrid, quantize_to_grid, sorted_unique
from .mm_sinkhorn import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    FactoredCoupling,
    ParamCoupling,
    extract_param_coupling,
    sinkhorn_solve,
)
from .two_marginal import two_marginal_w2_exact

logger = logging.getLogger(__name__)

__all__ = [
    "SolverConfig",
    "RegressionResult",
    "CurveClass",
    "LINEAR",
    "QUADRATIC",
    "curve_from_name",
    "default_param_grids",
    "fit",
    "marginal_at",
    "euclidean_regression_oracle",
    "objective_true",
    "ExtrapolationWarning",
]


class ExtrapolationWarning(UserWarning):
    """Marginal requested outside the fitted time window [0, 1]."""


@dataclass
class SolverConfig:
    """Knobs for one regression solve."""

    epsilon: float = 0.1
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    param_grids: Optional[Sequence[SupportGrid]] = None

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass
class RegressionResult:
    """Fitted law over curve parameters plus solve diagnostics."""

    coupling: ParamCoupling
    curve: CurveClass
    objective: float
    iterations: int
    residual: float
    epsilon: float
    converged: bool
    state: FactoredCoupling = field(repr=False)


def default_param_grids(dataset: SnapshotDataset, curve: CurveClass) -> List[SupportGrid]:
    """Default parameter grids for a dataset.

    Linear curves reuse the data grid for both endpoints. Quadratic curves
    reuse it for the initial point while velocity and acceleration get uniform
    per-axis grids spanning [-2*range(X), 2*range(X)] with as many points per
    axis as the data grid, since those parameters live in different units.
    """
    x = dataset.grid
    if curve.n_params == 2:
        return [x, x]
    span = float((x.points.max(axis=0) - x.points.min(axis=0)).max())
    if span <= 0:
        span = max(abs(float(x.points.max())), 1.0)
    rate_grid = SupportGrid.tensor([np.linspace(-2.0 * span, 2.0 * span, len(x))] * x.dim)
    return [x, rate_grid, rate_grid]


def fit(dataset: SnapshotDataset, curve: CurveClass, config: Optional[SolverConfig] = None) -> RegressionResult:
    """Fit a measure-valued curve law to the dataset's snapshots.

    The dataset must carry at least three snapshots; with two, any coupling
    between the endpoints gives zero cost.
    """
    config = config or SolverConfig()
    if len(dataset) < 3:
        raise ValueError("curve regression needs at least 3 snapshots")
    grids = list(config.param_grids) if config.param_grids is not None else default_param_grids(dataset, curve)
    kernels = build_kernels(dataset, curve, grids, config.epsilon)
    state = sinkhorn_solve(kernels, dataset, tol=config.tol, max_iter=config.max_iter)
    return RegressionResult(
        coupling=extract_param_coupling(state),
        curve=curve,
        objective=state.objective,
        iterations=state.iterations,
        residual=state.marginal_residual,
        epsilon=config.epsilon,
        converged=state.converged,
        state=state,
    )


def marginal_at(result: RegressionResult, t: float, output_grid: SupportGrid) -> DiscreteMeasure:
    """One-time marginal of the fitted law, quantized onto the output grid.

    Times outside [0, 1] are allowed (flow extrapolation) but flagged with an
    ExtrapolationWarning.
    """
    if t < 0.0 or t > 1.0:
        warnings.warn(f"marginal requested at t={t} outside [0, 1]", ExtrapolationWarning)
    positions = result.curve.evaluate(result.coupling.param_stack, t)  # (P, d)
    masses = result.coupling.weights.ravel()
    weights = quantize_to_grid(positions, masses, output_grid)
    return DiscreteMeasure(output_grid, weights / weights.sum())


def euclidean_regression_oracle(
    points: Sequence[Tuple[float, np.ndarray, float]],
    curve: CurveClass,
) -> Tuple[np.ndarray, float]:
    """Closed-form weighted least squares for point-valued (Dirac) data.

    Args:
        points: (t_i, v_i, lambda_i) triples; v_i may be scalar or d-vector.
        curve: curve class fixing the design row at each time.

    Returns:
        (params, residual): params has shape (k, d); residual is
        sum_i lambda_i * ||phi(params, t_i) - v_i||^2.
    """
    ts = np.array([float(p[0]) for p in points])
    vs = np.stack([np.atleast_1d(np.asarray(p[1], dtype=float)) for p in points])
    lams = np.array([float(p[2]) for p in points])
    if np.any(lams <= 0):
        raise ValueError("weights must be positive")
    k = curve.n_params
    if len(sorted_unique(ts)) < k:
        raise ValueError(f"need at least {k} distinct timestamps for a {curve.kind} fit")
    design = np.stack([curve.coefficients(t) for t in ts])  # (N, k)
    sw = np.sqrt(lams)[:, None]
    sol, _, rank, _ = np.linalg.lstsq(design * sw, vs * sw, rcond=None)
    if rank < k:
        raise ValueError("rank-deficient design; timestamps do not identify the curve")
    fitted = design @ sol
    residual = float(np.sum(lams * ((fitted - vs) ** 2).sum(axis=1)))
    return sol, residual


def objective_true(result: RegressionResult, dataset: SnapshotDataset) -> float:
    """Recompute sum_i lambda_i W2^2(marginal_at(t_i), mu_i) on the data grid.

    The per-snapshot costs use the exact transport cost (1D monotone coupling
    or small-support LP). Quantization of the pushforward marginal adds error
    on the order of the squared grid spacing.
    """
    total = 0.0
    for t, lam, mu in zip(dataset.timestamps, dataset.lambdas, dataset.measures):
        nu = marginal_at(result, float(t), dataset.grid)
        cost, _ = two_marginal_w2_exact(nu, mu)
        total += float(lam) * cost
    return total
