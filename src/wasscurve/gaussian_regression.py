"""Closed-form Gaussian Wasserstein geometry and Gaussian-case curve regression.

The Bures-Wasserstein distance and the McCann interpolant are implemented
once, over stacks of Gaussians; ``w2_gaussian_squared``, ``w2_gaussian`` and
``gaussian_geodesic`` call them at n = 1.

For Gaussian snapshots the regression over measure-valued curves collapses to
a semidefinite program on the joint covariance of (curve parameters, data
marginals): the objective is linear in that block matrix, the data blocks are
fixed, and the only constraint is positive semidefiniteness. The program is
solved by ADMM splitting: a closed-form proximal step on the free blocks,
a PSD projection, re-imposition of the data blocks, and a dual update.
"""

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .curves import CurveClass, LINEAR
from .curve_regression import euclidean_regression_oracle
from .linalg import inv_sqrtm_pd_stack, project_psd, project_psd_stack, sqrtm_psd_stack
from .measures import GaussianMeasure, sorted_unique
from .mm_sinkhorn import SolverError

logger = logging.getLogger(__name__)

SDP_DEFAULT_TOL = 1e-7
SDP_DEFAULT_MAX_ITER = 50000


def w2_gaussian_squared_table(
    means_a: np.ndarray, covs_a: np.ndarray, means_b: np.ndarray, covs_b: np.ndarray
) -> np.ndarray:
    """Squared W2 from every Gaussian of stack a, means (..., d) and covariances
    (..., d, d), to every one of stack b, (m, d) and (m, d, d); shape (..., m):
    |m_a - m_b|^2 + tr C_a + tr C_b - 2 tr (C_a^(1/2) C_b C_a^(1/2))^(1/2), the
    last three terms clipped at 0. In 1D, (mean difference)^2 + (std difference)^2."""
    diff = means_a[..., None, :] - means_b
    mean_term = np.sum(diff * diff, axis=-1)
    if means_b.shape[-1] == 1:
        std_a = np.sqrt(np.maximum(covs_a[..., 0, 0], 0.0))
        std_b = np.sqrt(np.maximum(covs_b[:, 0, 0], 0.0))
        gap = std_a[..., None] - std_b
        return mean_term + gap * gap
    root_a = sqrtm_psd_stack(covs_a)[..., None, :, :]
    middle = root_a @ covs_b @ root_a
    eigs = np.linalg.eigvalsh((middle + np.swapaxes(middle, -1, -2)) / 2)
    root_trace = np.sum(np.sqrt(np.clip(eigs, 0.0, None)), axis=-1)
    trace_a = np.trace(covs_a, axis1=-2, axis2=-1)[..., None]
    bures = trace_a + np.trace(covs_b, axis1=-2, axis2=-1) - 2.0 * root_trace
    return mean_term + np.maximum(bures, 0.0)


def gaussian_geodesic_stack(
    means_0: np.ndarray, covs_0: np.ndarray, means_1: np.ndarray, covs_1: np.ndarray, times: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Displacement interpolation of n Gaussian pairs (means (n, d), covariances
    (n, d, d) per side) at T times in [0, 1]: means (T, n, d), covariances (T, n, d, d).
    The covariance is C0^(-1/2) ((1-t) C0 + t (C0^(1/2) C1 C0^(1/2))^(1/2))^2 C0^(-1/2);
    a singular C0 that commutes with C1 takes ((1-t) C0^(1/2) + t C1^(1/2))^2, the
    same geodesic, and one that does not is rejected. In 1D the std interpolates linearly."""
    times = np.asarray(times, dtype=float)
    if times.min() < -1e-12 or times.max() > 1.0 + 1e-12:
        raise ValueError("geodesic time must lie in [0, 1]")
    t = np.minimum(np.maximum(times, 0.0), 1.0)[:, None, None]
    means = (1.0 - t) * means_0 + t * means_1
    t = t[..., None]
    if means_0.shape[-1] == 1:
        std = (1.0 - t) * np.sqrt(np.maximum(covs_0, 0.0)) + t * np.sqrt(np.maximum(covs_1, 0.0))
        return means, std * std
    evals = np.linalg.eigvalsh(covs_0)
    singular = evals[:, 0] <= 1e-12 * np.maximum(evals[:, -1], 1e-300)
    covs = np.empty(t.shape[:1] + covs_0.shape)
    if singular.any():
        c0, c1 = covs_0[singular], covs_1[singular]
        comm = np.abs(c0 @ c1 - c1 @ c0).max(axis=(1, 2))
        scale = np.maximum(np.abs(c0).max(axis=(1, 2)) * np.maximum(np.abs(c1).max(axis=(1, 2)), 1.0), 1.0)
        if np.any(comm > 1e-10 * scale):
            raise ValueError("singular first covariance and non-commuting pair; geodesic undefined here")
        mix = (1.0 - t) * sqrtm_psd_stack(c0) + t * sqrtm_psd_stack(c1)
        covs[:, singular] = mix @ mix
    if not singular.all():
        c0, c1 = covs_0[~singular], covs_1[~singular]
        root0 = sqrtm_psd_stack(c0)
        inv_root0 = inv_sqrtm_pd_stack(c0)
        mix = (1.0 - t) * c0 + t * sqrtm_psd_stack(root0 @ c1 @ root0)
        cov = inv_root0 @ mix @ mix @ inv_root0
        covs[:, ~singular] = project_psd_stack(cov)
    return means, covs


def w2_gaussian_squared(a: GaussianMeasure, b: GaussianMeasure) -> float:
    """Squared Wasserstein-2 distance between Gaussians: ``w2_gaussian_squared_table`` of one pair."""
    return float(w2_gaussian_squared_table(a.mean, a.covariance, b.mean[None], b.covariance[None])[0])


def w2_gaussian(a: GaussianMeasure, b: GaussianMeasure) -> float:
    """Wasserstein-2 distance between Gaussians, closed form."""
    return float(np.sqrt(w2_gaussian_squared(a, b)))


def gaussian_geodesic(a: GaussianMeasure, b: GaussianMeasure, t: float) -> GaussianMeasure:
    """Displacement interpolation between two Gaussians at time t in [0, 1]:
    ``gaussian_geodesic_stack`` of one pair at one time."""
    means, covs = gaussian_geodesic_stack(a.mean[None], a.covariance[None], b.mean[None], b.covariance[None], np.array([t]))
    return GaussianMeasure(means[0, 0], covs[0, 0])


def biased_covariance(samples: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sample mean and biased (1/n) covariance of rows."""
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    mean = x.mean(axis=0)
    centered = x - mean
    return mean, centered.T @ centered / x.shape[0]


@dataclass
class SdpDiagnostics:
    iterations: int
    primal_residual: float
    dual_residual: float
    objective: float
    rho: float


@dataclass(eq=False)
class GaussianCouplingBlocks:
    """Joint covariance of (curve parameters, snapshot marginals).

    The matrix is partitioned into (k + N) blocks of size d; the trailing N
    diagonal blocks hold the given data covariances and stay fixed, everything
    else is free subject to overall positive semidefiniteness.
    """

    d: int
    k: int
    matrix: np.ndarray  # ((k+N)d, (k+N)d)
    diagnostics: SdpDiagnostics

    def parameter_covariance(self) -> np.ndarray:
        """Top-left (k d) x (k d) block: the law of the curve parameters."""
        kd = self.k * self.d
        return self.matrix[:kd, :kd]


@dataclass(eq=False)
class GaussianCurve:
    """Gaussian-valued curve induced by the fitted parameter covariance."""

    curve: CurveClass
    mean_coeffs: np.ndarray  # (k, d)
    parameter_covariance: np.ndarray  # (k d, k d)
    d: int

    def mean(self, t: float) -> np.ndarray:
        return self.curve.coefficients(t) @ self.mean_coeffs

    def covariance(self, t: float) -> np.ndarray:
        b = np.kron(self.curve.coefficients(t)[None, :], np.eye(self.d))  # (d, k d)
        cov = b @ self.parameter_covariance @ b.T
        return (cov + cov.T) / 2

    def gaussian_at(self, t: float) -> GaussianMeasure:
        return GaussianMeasure(self.mean(t), project_psd(self.covariance(t)))


def _objective_matrix(timestamps: np.ndarray, lambdas: np.ndarray, curve: CurveClass, d: int) -> np.ndarray:
    """Weight matrix W with objective tr(W C): W = sum_i lambda_i b_i b_i^T (x) I_d."""
    k = curve.n_params
    n = len(timestamps)
    outer = np.zeros((k + n, k + n))
    for i, (t, lam) in enumerate(zip(timestamps, lambdas)):
        b = np.zeros(k + n)
        b[:k] = curve.coefficients(t)
        b[k + i] = -1.0
        outer += lam * np.outer(b, b)
    return np.kron(outer, np.eye(d))


def fit_gaussian_sdp(
    data: Sequence[Tuple[float, float, np.ndarray]],
    curve: CurveClass = LINEAR,
    means: Optional[Sequence[np.ndarray]] = None,
    tol: float = SDP_DEFAULT_TOL,
    max_iter: int = SDP_DEFAULT_MAX_ITER,
) -> Tuple[GaussianCouplingBlocks, GaussianCurve]:
    """Fit a Gaussian-valued curve to Gaussian snapshots by solving the block SDP.

    Args:
        data: (t_i, lambda_i, C_i) triples with symmetric PSD covariances;
            timestamps in [0, 1], weights positive and summing to 1.
        curve: linear or quadratic curve class.
        means: optional per-snapshot means, fitted separately by ordinary
            least squares and attached to the returned curve.
        tol: relative stopping tolerance on primal and dual residuals.
        max_iter: ADMM iteration budget.

    Returns:
        (blocks, curve): the optimal joint covariance with diagnostics, and
        the induced Gaussian-valued curve.

    Raises:
        ValueError: tol not a positive finite number, max_iter below 1, or
            invalid snapshots.
        SolverError: residuals did not reach tol within max_iter.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be a positive finite number")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    timestamps = np.array([float(row[0]) for row in data])
    lambdas = np.array([float(row[1]) for row in data])
    covs = [np.atleast_2d(np.asarray(row[2], dtype=float)) for row in data]
    n = len(covs)
    if n == 0:
        raise ValueError("need at least one snapshot")
    if np.any(lambdas <= 0) or abs(lambdas.sum() - 1.0) > 1e-9:
        raise ValueError("snapshot weights must be positive and sum to 1")
    if np.any(timestamps < -1e-12) or np.any(timestamps > 1 + 1e-12):
        raise ValueError("timestamps must lie in [0, 1]")
    d = covs[0].shape[0]
    for c in covs:
        GaussianMeasure(np.zeros(d), c)  # validates symmetry and PSD
    k = curve.n_params
    size = (k + n) * d
    weight = _objective_matrix(timestamps, lambdas, curve, d)

    fixed_mask = np.zeros((size, size), dtype=bool)
    fixed_values = np.zeros((size, size))
    for i, c in enumerate(covs):
        sl = slice((k + i) * d, (k + i + 1) * d)
        fixed_mask[sl, sl] = True
        fixed_values[sl, sl] = c

    # warm start: data blocks in place, parameter blocks at the average scale
    avg = sum(covs) / n
    x = fixed_values.copy()
    for j in range(k):
        sl = slice(j * d, (j + 1) * d)
        x[sl, sl] = avg
    z = project_psd(x)
    u = np.zeros_like(x)
    # the stopping test squares Frobenius norms of z and of differences up to twice its size;
    # were they infinite, tol * (1 + ||z||) would be too, and the first step would pass it
    r = z.ravel("K")
    with np.errstate(over="ignore"):
        norm_sq = 4.0 * r.dot(r)
    if not math.isfinite(norm_sq):
        scale = max(float(np.abs(c).max()) for c in covs)
        raise ValueError(f"data scale too large for the SDP: covariance entries reach {scale:.3g}, "
                         "and the residual norms overflow; rescale the data")

    # x + u, the projection's input, stays bitwise symmetric with no per-step (x + x.T) / 2:
    # z comes out of project_psd symmetrized, weight / rho is symmetric, the fixed data values
    # are symmetrized once, here, and u is sums and differences of x and z, halved or doubled.
    # A per-step symmetrization would give the same bits, except that entries above about
    # 8.9e307 would become inf (v + v overflows); they stay finite. x, u and the norms'
    # differences live in arrays allocated once; project_psd returns a new z.
    fixed_idx = np.flatnonzero(fixed_mask)
    fixed_flat = ((fixed_values + fixed_values.T) / 2).ravel()[fixed_idx]
    x = np.empty_like(z)
    x_flat = x.reshape(-1)
    xu = np.empty_like(z)
    diff = np.empty_like(z)
    diff_flat = diff.reshape(-1)
    primal = dual = np.inf
    it = 0
    rho = 1.0  # proximal weight, rescaled adaptively; the diagnostics report its final value
    step = weight / rho
    for it in range(1, max_iter + 1):
        np.subtract(z, u, out=x)
        x -= step
        x_flat[fixed_idx] = fixed_flat
        z_prev = z
        np.add(x, u, out=xu)  # bitwise u + x: float addition commutes exactly
        z = project_psd(xu)
        np.subtract(xu, z, out=u)
        # Frobenius norms the way np.linalg.norm takes them (flat dot, sqrt), without its wrapper
        np.subtract(x, z, out=diff)
        primal = math.sqrt(diff_flat.dot(diff_flat))
        np.subtract(z, z_prev, out=diff)
        dual = rho * math.sqrt(diff_flat.dot(diff_flat))
        r = z.reshape(-1)
        scale = tol * (1.0 + math.sqrt(r.dot(r)))
        if primal <= scale and dual <= scale:
            break
        if it % 50 == 0:
            if primal > 10.0 * dual:
                rho *= 2.0
                u /= 2.0
            elif dual > 10.0 * primal:
                rho /= 2.0
                u *= 2.0
            step = weight / rho
    else:
        raise SolverError(
            f"gaussian SDP did not converge in {max_iter} iterations "
            f"(primal {primal:.3e}, dual {dual:.3e})"
        )

    objective = float(np.sum(weight * x))
    diag = SdpDiagnostics(it, primal, dual, objective, rho)
    blocks = GaussianCouplingBlocks(d, k, x, diag)

    if means is not None:
        points = [(t, np.atleast_1d(np.asarray(m, dtype=float)), lam) for t, m, lam in zip(timestamps, means, lambdas)]
        mean_coeffs, _ = euclidean_regression_oracle(points, curve)
    else:
        mean_coeffs = np.zeros((k, d))
    gcurve = GaussianCurve(curve, mean_coeffs, blocks.parameter_covariance().copy(), d)
    return blocks, gcurve


def gaussian_1d_parametric_oracle(
    data: Sequence[Tuple[float, float, float]],
) -> Tuple[np.ndarray, float]:
    """Best-fitting Wasserstein geodesic through centered 1D Gaussians.

    The geodesic between centered 1D Gaussians interpolates standard
    deviations linearly, so geodesic regression reduces to constrained least
    squares sigma_t = (1-t) sigma_0 + t sigma_1 with nonnegative endpoints.
    The residual sum_i lambda_i (sigma_t_i - sigma_i)^2 equals the weighted
    squared-W2 objective for this family.
    """
    ts = np.array([float(r[0]) for r in data])
    lams = np.array([float(r[1]) for r in data])
    sigmas = np.array([float(r[2]) for r in data])
    if not np.all(np.isfinite(sigmas) & (sigmas >= 0)):
        raise ValueError("standard deviations must be nonnegative and finite")
    if np.any(lams <= 0):
        raise ValueError("weights must be positive")
    if len(sorted_unique(ts)) < 2:
        raise ValueError("need at least two distinct timestamps")
    design = np.stack([1.0 - ts, ts], axis=1)
    sw = np.sqrt(lams)
    params, _ = _nnls_two_columns(design * sw[:, None], sigmas * sw)
    fitted = design @ params
    residual = float(np.sum(lams * (fitted - sigmas) ** 2))
    return params, residual


def _nnls_two_columns(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, float]:
    """argmin ||a x - b|| over x >= 0 for a design ``a`` of shape (n, 2) and rank 2.

    Returns (x, ||a x - b||) as scipy.optimize.nnls does. The objective is
    convex, so when the unconstrained least-squares solution is infeasible
    the optimum lies where a bound is active: on one of the two one-column
    fits clipped at 0, or at the origin (both clipped to 0). Comparing those
    candidates covers every active set.
    """
    x = np.linalg.lstsq(a, b, rcond=None)[0]
    if x.min() < 0:
        fits = np.maximum(a.T @ b / (a * a).sum(axis=0), 0.0)  # one-column fits, clipped at 0
        x = min(np.diag(fits), key=lambda c: np.linalg.norm(a @ c - b))
    return x, float(np.linalg.norm(a @ x - b))
