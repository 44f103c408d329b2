"""Mixture-restricted Wasserstein-type metric and regression over Gaussian mixtures.

Restricting transport plans between Gaussian mixtures to mixture form turns
the problem into discrete transport over the atoms with squared Gaussian-W2
ground cost. Regression over measure-valued curves carries over verbatim:
"lines" become displacement interpolations between atoms, and the same
factored Sinkhorn engine solves the multi-marginal program with parameter
grids given by atom indices and kernels built from precomputed
geodesic-to-atom cost tables.
"""

import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np

from .gaussian_regression import gaussian_geodesic_stack, w2_gaussian_squared_table
from .kernels import _rates, kernels_from_costs
from .measures import DiscreteMeasure, GaussianMeasure, GaussianMixture, SnapshotDataset, SupportGrid, check_coordinate_scale
from .mm_sinkhorn import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    FactoredCoupling,
    ParamCoupling,
    extract_param_coupling,
    sinkhorn_solve,
)
from .two_marginal import exact_transport_lp

logger = logging.getLogger(__name__)


def _stacked(atoms: Sequence[GaussianMeasure]) -> Tuple[np.ndarray, np.ndarray]:
    """Means (K, d) and covariances (K, d, d) of an atom list."""
    return np.stack([a.mean for a in atoms]), np.stack([a.covariance for a in atoms])


@dataclass(frozen=True, eq=False)
class AtomSet:
    """Finite base set of Gaussian atoms."""

    atoms: Tuple[GaussianMeasure, ...]

    @classmethod
    def from_atoms(cls, atoms: Sequence[GaussianMeasure]) -> "AtomSet":
        return cls(tuple(atoms))

    def __len__(self) -> int:
        return len(self.atoms)

    @cached_property
    def index_grid(self) -> SupportGrid:
        """Atom indices as a 1D support grid, for driving the generic engine."""
        return SupportGrid(np.arange(len(self.atoms), dtype=float)[:, None])

    def mixture(self, weights: np.ndarray) -> GaussianMixture:
        return GaussianMixture(self.atoms, weights)


@dataclass(eq=False)
class MixtureFitResult:
    """Fitted coupling over atom pairs (both grids the atom index grid) plus solve diagnostics."""

    coupling: ParamCoupling
    objective: float
    iterations: int
    residual: float
    converged: bool
    state: FactoredCoupling = field(repr=False)


def wm_distance(mu: GaussianMixture, nu: GaussianMixture) -> Tuple[float, np.ndarray]:
    """Mixture-restricted Wasserstein distance and the optimal atom coupling.

    Solves the discrete transport problem over the atom weights with squared
    Gaussian W2 ground cost; the value upper-bounds the plain W2 distance of
    the mixtures.
    """
    cost = w2_gaussian_squared_table(*_stacked(mu.atoms), *_stacked(nu.atoms))
    value, plan = exact_transport_lp(mu.atom_weights, nu.atom_weights, cost)
    return float(np.sqrt(max(value, 0.0))), plan


def geodesic_cost_table(atoms: AtomSet, timestamps: np.ndarray) -> np.ndarray:
    """W2^2 between every atom-pair geodesic point and every target atom.

    Returns an array of shape (N, K*K, K) indexed by (snapshot, pair (j,l) in
    C order, target atom), from one batched geodesic stack and one W2 table.
    """
    k = len(atoms)
    means, covs = _stacked(atoms.atoms)
    first, second = np.indices((k, k)).reshape(2, -1)  # pair j * k + l
    geo_means, geo_covs = gaussian_geodesic_stack(
        means[first], covs[first], means[second], covs[second], np.asarray(timestamps, dtype=float)
    )
    return w2_gaussian_squared_table(geo_means, geo_covs, means, covs)


def _check_atom_scale(atoms: AtomSet, rates: np.ndarray) -> None:
    """check_coordinate_scale for the geodesic-to-atom costs, before any is formed.

    A geodesic point's mean lies in the box of the atoms' means, and its
    covariance trace is at most the larger of its ends' (the trace is the
    second moment about the mean, convex along the displacement
    interpolation), so each W2^2 is at most the box's squared diagonal plus
    twice the largest trace: the box gets one more axis of extent
    sqrt(2 max trace).
    """
    means, covs = _stacked(atoms.atoms)
    with np.errstate(over="ignore"):
        spread = np.sqrt(2.0 * np.trace(covs, axis1=1, axis2=2).max())
    check_coordinate_scale(np.append(means.min(axis=0), 0.0), np.append(means.max(axis=0), spread), rates)


def fit_mixture_curve(
    dataset: Sequence[Tuple[float, float, np.ndarray]],
    atoms: AtomSet,
    epsilon: float = 0.05,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> MixtureFitResult:
    """Fit a law over atom-pair geodesics to mixture-weight snapshots.

    Args:
        dataset: (t_i, lambda_i, p_i) with p_i a weight vector over the atoms;
            needs at least 3 snapshots, timestamps in [0, 1].
        atoms: the fixed Gaussian basis.
        epsilon: entropic regularization for the Sinkhorn solve.

    Returns:
        MixtureFitResult whose coupling weights[j, l] is the fitted mass on the
        geodesic from atom j to atom l.
    """
    if len(dataset) < 3:
        raise ValueError("mixture-curve regression needs at least 3 snapshots")
    rows = sorted(((float(t), float(lam), np.asarray(p, dtype=float)) for t, lam, p in dataset), key=lambda r: r[0])
    timestamps = np.array([r[0] for r in rows])
    lambdas = np.array([r[1] for r in rows])
    grid = atoms.index_grid
    measures = tuple(DiscreteMeasure(grid, r[2]) for r in rows)
    snap = SnapshotDataset(timestamps, measures, lambdas)
    _check_atom_scale(atoms, _rates(lambdas, epsilon))
    costs = geodesic_cost_table(atoms, timestamps)
    kernels = kernels_from_costs(costs, lambdas, epsilon, (grid, grid))
    state = sinkhorn_solve(kernels, snap.target_matrix(), tol=tol, max_iter=max_iter)
    return MixtureFitResult(
        coupling=extract_param_coupling(state),
        objective=state.objective,
        iterations=state.iterations,
        residual=state.marginal_residual,
        converged=state.converged,
        state=state,
    )


def mixture_marginal_at(coupling: ParamCoupling, atoms: AtomSet, t: float) -> GaussianMixture:
    """One-time marginal of the fitted mixture curve: a Gaussian mixture.

    At interior times each atom pair (j, l) with positive mass contributes the
    geodesic point between atoms j and l; at the endpoints the mass collapses
    onto the atoms themselves (row sums at t=0, column sums at t=1).
    """
    if t < -1e-12 or t > 1.0 + 1e-12:
        raise ValueError("mixture marginal defined for t in [0, 1]")
    t = min(max(float(t), 0.0), 1.0)
    w = coupling.weights
    k = len(atoms)
    if w.shape != (k, k):
        raise ValueError("coupling size does not match the atom set")
    if t == 0.0 or t == 1.0:
        weights = w.sum(axis=1) if t == 0.0 else w.sum(axis=0)
        keep = weights > 0
        return GaussianMixture(
            tuple(a for a, kp in zip(atoms.atoms, keep) if kp),
            weights[keep] / weights.sum(),
        )
    first, second = np.nonzero(w > 0)  # pairs (j, l) in C order
    means, covs = _stacked(atoms.atoms)
    geo_means, geo_covs = gaussian_geodesic_stack(means[first], covs[first], means[second], covs[second], np.array([t]))
    masses = w[first, second]
    return GaussianMixture(tuple(map(GaussianMeasure, geo_means[0], geo_covs[0])), masses / masses.sum())
