"""Two-marginal transport (the classical case), entropic and exact paths.

The entropic path is the multi-marginal engine, ``sinkhorn_solve``, on a
two-leaf star whose first leaf's kernel is the identity; the exact path is
the 1D monotone coupling or, on small supports, a linear program.
"""

from typing import Tuple

import numpy as np

from .kernels import _check_memory, _kernels_in_place, _sq_distances
from .measures import DiscreteMeasure, SupportGrid, check_coordinate_scale, sorted_unique
from .mm_sinkhorn import DEFAULT_MAX_ITER, SolverError, sinkhorn_solve

_LP_MAX_SUPPORT = 64


def _check_same_dim(a: SupportGrid, b: SupportGrid) -> None:
    if a.dim != b.dim:
        raise ValueError(f"measures must share one state dimension (got {a.dim} and {b.dim})")


def _check_pair(mu: DiscreteMeasure, nu: DiscreteMeasure, rate: float) -> None:
    """One dimension, equal mass, and squared distances that, times ``rate``, stay in range."""
    _check_same_dim(mu.grid, nu.grid)
    if abs(mu.weights.sum() - nu.weights.sum()) > 1e-9:
        raise ValueError("measures must carry equal mass")
    (a_lo, a_hi), (b_lo, b_hi) = mu.grid.bounds, nu.grid.bounds
    check_coordinate_scale(np.minimum(a_lo, b_lo), np.maximum(a_hi, b_hi), rate)


def two_marginal_w2(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    epsilon: float,
    tol: float = 1e-9,
    max_iter: int = DEFAULT_MAX_ITER,
) -> Tuple[float, np.ndarray]:
    """Entropic transport cost <c, plan> (entropy term excluded) and the plan.

    ``sinkhorn_solve`` on a two-leaf star over the smaller support, say
    mu's n points (for n > m the roles swap and the plan comes back
    transposed), both leaves padded to m columns whose targets are 0: leaf
    0 has the cost of x = y (0 on the diagonal, +inf elsewhere), so its
    kernel is the identity, and leaf 1 the squared distance to nu's points.
    A sweep is then u = p / (K v), v = q / (K^T u), accelerated and moved
    to the log domain as the engine's sweeps are, and with weights (1, 1)
    the engine's objective is <c, plan>. That is the transport term of a
    feasible plan, so it upper-bounds the exact discrete squared
    Wasserstein cost and approaches it from above as epsilon shrinks. The
    kernels' logs and exponentials, 4 n m floats, are a ValueError, raised
    before any allocation, when they exceed the machine's physical memory.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    _check_pair(mu, nu, 1.0 / epsilon)
    n, m = len(mu.grid), len(nu.grid)
    if n > m:
        cost, plan = two_marginal_w2(nu, mu, epsilon, tol, max_iter)
        return cost, plan.T
    _check_memory(2 * 2 * n * m * 8, "the two-marginal kernels")
    costs = np.full((2, n, m), np.inf)
    np.fill_diagonal(costs[0], 0.0)
    _sq_distances(mu.grid.points, nu.grid.points, costs[1])
    targets = np.stack([np.zeros(m), nu.weights])
    targets[0, :n] = mu.weights
    kernels = _kernels_in_place(costs, np.ones(2), epsilon, (mu.grid,))
    state = sinkhorn_solve(kernels, targets, tol, max_iter)
    log_a = state.log_potentials
    plan = np.add(log_a[0, :n, None], kernels.log_kernels[1])
    plan += log_a[1]
    return state.objective, np.exp(plan, out=plan)


def _monotone_coupling_1d(x: np.ndarray, p: np.ndarray, y: np.ndarray, q: np.ndarray) -> Tuple[float, np.ndarray]:
    """Quantile coupling of two 1D measures (optimal for convex costs): squared-distance cost and plan.

    The quantile levels are the union of both cumulative sums, capped at the
    smaller total. Each interval between levels carries its length as mass,
    in the row and column whose quantile holds its midpoint, so zero-weight
    points get none.
    """
    ix, iy = np.argsort(x, kind="stable"), np.argsort(y, kind="stable")
    cp, cq = np.cumsum(p[ix]), np.cumsum(q[iy])
    levels = np.concatenate([[0.0], np.minimum(sorted_unique(np.concatenate([cp, cq])), min(cp[-1], cq[-1]))])
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
