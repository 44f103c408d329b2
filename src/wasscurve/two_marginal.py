"""Two-marginal transport (the classical case), entropic and exact paths.

The entropic path runs the log-domain scaling of ``mm_sinkhorn`` with its
over-relaxation rule; the exact path is the 1D monotone coupling or, on small
supports, a linear program.
"""

import logging
from typing import Tuple

import numpy as np

from .kernels import _sq_distances
from .measures import DiscreteMeasure, SupportGrid, check_coordinate_scale
from .mm_sinkhorn import (
    DEFAULT_MAX_ITER,
    SolverError,
    _log_kernel_sums,
    _Overrelaxation,
    _overrelaxed_log,
    _with_log_zeros,
)

logger = logging.getLogger(__name__)

_LP_MAX_SUPPORT = 64


def _check_same_dim(a: SupportGrid, b: SupportGrid) -> None:
    if a.dim != b.dim:
        raise ValueError(f"measures must share one state dimension (got {a.dim} and {b.dim})")


def _check_pair(mu: DiscreteMeasure, nu: DiscreteMeasure, rate: float) -> None:
    """One dimension, equal mass, and squared distances that, times ``rate``, stay in range."""
    _check_same_dim(mu.grid, nu.grid)
    if abs(mu.weights.sum() - nu.weights.sum()) > 1e-9:
        raise ValueError("measures must carry equal mass")
    a, b = mu.grid.points, nu.grid.points
    check_coordinate_scale(np.minimum(a.min(axis=0), b.min(axis=0)), np.maximum(a.max(axis=0), b.max(axis=0)), rate)


def two_marginal_w2(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    epsilon: float,
    tol: float = 1e-9,
    max_iter: int = DEFAULT_MAX_ITER,
) -> Tuple[float, np.ndarray]:
    """Entropic transport cost <c, plan> (entropy term excluded) and the plan.

    Log-domain scaling throughout, over-relaxed as in ``sinkhorn_solve``
    (dual objective <p, log u> + <q, log v> - sum u K v). The returned value is
    the transport term of a feasible plan, so it upper-bounds the exact
    discrete squared Wasserstein cost and approaches it from above as
    epsilon shrinks.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    _check_pair(mu, nu, 1.0 / epsilon)
    cost = _sq_distances(mu.grid.points, nu.grid.points)
    log_k = -(cost - cost.min()) / epsilon
    p, q = mu.weights, nu.weights
    log_p = _with_log_zeros(p)
    log_q = _with_log_zeros(q)
    log_u = np.zeros(len(p))
    log_v = np.zeros(len(q))
    buf = np.empty_like(log_k)
    log_rows = _log_kernel_sums(log_k, log_v[None, :], 1, buf)  # log (K v)
    relax = _Overrelaxation("two-marginal iterations")
    err = np.inf
    for it in range(max_iter):
        omega = relax.omega
        if omega == 1.0:
            with np.errstate(invalid="ignore"):
                log_u = log_p - log_rows
                log_u[np.isnan(log_u)] = -np.inf
                log_v = log_q - _log_kernel_sums(log_k, log_u[:, None], 0, buf)
                log_v[np.isnan(log_v)] = -np.inf
        else:
            start = log_u, log_v, log_rows, err
            mass_start = float(np.exp(log_u + log_rows).sum())  # sum u K v
            log_u, step_u = _overrelaxed_log(log_u, log_p - log_rows, p, p > 0, omega)
            log_cols = _log_kernel_sums(log_k, log_u[:, None], 0, buf)  # log (K^T u)
            log_v, step_v = _overrelaxed_log(log_v, log_q - log_cols, q, q > 0, omega)
        # the row sums of the plan are u * (K v), and log (K v) is what the
        # next u update needs; a plain iteration matches the columns exactly
        log_rows = _log_kernel_sums(log_k, log_v[None, :], 1, buf)
        rows = np.exp(log_u + log_rows)
        err = float(np.abs(rows - p).sum())
        if omega != 1.0:
            err = max(err, float(np.abs(np.exp(log_v + log_cols) - q).sum()))
            if not relax.accept(omega * (step_u + step_v) - (rows.sum() - mass_start), mass_start, it + 1):
                log_u, log_v, log_rows, err = start
                continue
        if err <= tol:
            break
        relax.observe(it + 1, err)
    else:
        logger.warning("two-marginal sinkhorn stopped at max_iter with residual %.3e", err)
    plan = np.exp(log_u[:, None] + log_k + log_v[None, :])
    return float(np.sum(plan * cost)), plan


def _monotone_coupling_1d(x: np.ndarray, p: np.ndarray, y: np.ndarray, q: np.ndarray) -> Tuple[float, np.ndarray]:
    """Quantile coupling of two 1D measures (optimal for convex costs): squared-distance cost and plan.

    The quantile levels are the union of both cumulative sums, capped at the
    smaller total. Each interval between levels carries its length as mass,
    in the row and column whose quantile holds its midpoint, so zero-weight
    points get none.
    """
    ix, iy = np.argsort(x, kind="stable"), np.argsort(y, kind="stable")
    cp, cq = np.cumsum(p[ix]), np.cumsum(q[iy])
    levels = np.concatenate([[0.0], np.minimum(np.union1d(cp, cq), min(cp[-1], cq[-1]))])
    mass = np.diff(levels)
    mid = levels[:-1] + mass / 2
    rows, cols = ix[np.searchsorted(cp, mid)], iy[np.searchsorted(cq, mid)]
    plan = np.zeros((len(x), len(y)))
    np.add.at(plan, (rows, cols), mass)
    return float(mass @ (x[rows] - y[cols]) ** 2), plan


def exact_w2_supported(a: SupportGrid, b: SupportGrid) -> bool:
    """True when ``two_marginal_w2_exact`` accepts measures on grids a and b.

    One-dimensional supports always are; higher dimensions need the linear
    program, limited to at most _LP_MAX_SUPPORT points per side. Grids of
    different dimensions raise ValueError.
    """
    _check_same_dim(a, b)
    return a.dim == 1 or max(len(a), len(b)) <= _LP_MAX_SUPPORT


def two_marginal_w2_exact(mu: DiscreteMeasure, nu: DiscreteMeasure) -> Tuple[float, np.ndarray]:
    """Exact squared-W2 transport cost of the discrete problem, and an optimal plan.

    One-dimensional inputs use the monotone (quantile) coupling, which is the
    exact optimizer for squared distance; higher dimensions solve the linear
    program directly and are limited to the supports ``exact_w2_supported``
    accepts (ValueError otherwise, and for measures of different dimensions).
    """
    _check_pair(mu, nu, 1.0)
    if mu.dim == 1:
        return _monotone_coupling_1d(mu.grid.points[:, 0], mu.weights, nu.grid.points[:, 0], nu.weights)
    if not exact_w2_supported(mu.grid, nu.grid):
        raise ValueError(f"exact LP path limited to {_LP_MAX_SUPPORT} support points per side")
    return exact_transport_lp(mu.weights, nu.weights, _sq_distances(mu.grid.points, nu.grid.points))


def exact_transport_lp(p: np.ndarray, q: np.ndarray, cost: np.ndarray) -> Tuple[float, np.ndarray]:
    """Minimal <cost, plan> over plans with row sums p and column sums q, and the plan.

    Solved as a linear program by scipy's HiGHS, imported here: the rest of
    the package needs numpy only. Its feasibility tolerances are the tightest
    HiGHS accepts, 1e-10; at its defaults (1e-7) it drops masses of that size.
    Raises SolverError when the solver fails.
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    n, m = cost.shape
    # row i of the plan sums to p_i, column j to q_j; plan entry (i, j) is variable i * m + j
    rows = np.concatenate([np.repeat(np.arange(n), m), n + np.repeat(np.arange(m), n)])
    cols = np.concatenate([np.arange(n * m), (np.arange(m)[:, None] + m * np.arange(n)).ravel()])
    a_eq = csr_matrix((np.ones(2 * n * m), (rows, cols)), shape=(n + m, n * m))
    res = linprog(
        cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([p, q]), bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if not res.success:
        raise SolverError(f"exact transport LP failed: {res.message}")
    return float(res.fun), res.x.reshape(n, m)
