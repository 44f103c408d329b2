"""Transition-matrix and invariant-measure estimation from distribution snapshots.

No trajectories, no model: a linear measure-valued curve is fitted to the
snapshot sequence, its endpoint coupling is disintegrated into a row-stochastic
transition matrix, and the invariant measure is approximated by that matrix's
stationary vector. The logistic map supplies the reference experiments.
"""

import logging
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, List, Optional, Tuple

import numpy as np

from .curve_regression import LINEAR, RegressionResult, SolverConfig, fit
from .measures import SnapshotDataset, SupportGrid, measure_from_samples
from .mm_sinkhorn import SolverError

logger = logging.getLogger(__name__)

DEFAULT_SEED = 0
ROW_SUM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class BoxPartition:
    """Equal-width partition of a 1D interval into n boxes."""

    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError("need hi > lo")
        if self.n < 1:
            raise ValueError("need at least one box")

    @cached_property
    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n + 1)

    @cached_property
    def centers(self) -> SupportGrid:
        e = self.edges
        return SupportGrid(((e[:-1] + e[1:]) / 2.0)[:, None])

    @property
    def width(self) -> float:
        return (self.hi - self.lo) / self.n

    def box_index(self, x: np.ndarray) -> np.ndarray:
        """Box index per point, clamping anything outside the domain."""
        x = np.asarray(x, dtype=float)
        idx = np.floor((x - self.lo) / self.width).astype(int)
        return np.clip(idx, 0, self.n - 1)


@dataclass(eq=False)
class TransitionMatrix:
    """Row-stochastic approximation of the Perron-Frobenius operator."""

    Q: np.ndarray
    source_marginal: np.ndarray
    fit: Optional[RegressionResult] = None  # the underlying line fit; its objective hints at model mismatch

    def __post_init__(self):
        q = np.asarray(self.Q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("transition matrix must be square")
        if np.any(q < 0):
            raise ValueError("transition matrix must be nonnegative")
        if np.abs(q.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
            raise ValueError("every row must sum to 1")
        self.Q = q
        self.source_marginal = np.asarray(self.source_marginal, dtype=float)


def iterate_map_particles(
    dynamics: Callable[[np.ndarray], np.ndarray],
    initial: np.ndarray,
    n_snapshots: int,
) -> np.ndarray:
    """Particle positions under repeated application of the map, shape (N, particles)."""
    if n_snapshots < 1:
        raise ValueError("need at least one snapshot")
    out = np.empty((n_snapshots, initial.shape[0]))
    out[0] = initial
    for k in range(1, n_snapshots):
        out[k] = dynamics(out[k - 1])
    return out


def snapshots_from_map(
    dynamics: Callable[[np.ndarray], np.ndarray],
    n_particles: int,
    n_snapshots: int,
    partition: BoxPartition,
    seed: int = DEFAULT_SEED,
) -> SnapshotDataset:
    """Distribution snapshots of a particle cloud evolving under a map.

    Particles start uniform on the partition's domain (seeded), are iterated
    once per snapshot, and each snapshot is quantized by box counting;
    trajectories are discarded. Timestamps are (i-1)/(N-1) for i = 1..N.
    Particles that leave the domain are clamped into the boundary boxes and
    counted in a warning.
    """
    if n_snapshots < 2:
        raise ValueError("need at least two snapshots")
    rng = np.random.default_rng(seed)
    x = rng.uniform(partition.lo, partition.hi, size=n_particles)
    paths = iterate_map_particles(dynamics, x, n_snapshots)
    escaped = int(np.sum((paths < partition.lo) | (paths > partition.hi)))
    if escaped:
        logger.warning("%d particle positions left the domain; clamped to boundary boxes", escaped)
        paths = np.clip(paths, partition.lo, partition.hi)
    timestamps = np.arange(n_snapshots) / (n_snapshots - 1)
    measures = [measure_from_samples(row, partition.centers) for row in paths]
    lambdas = np.full(n_snapshots, 1.0 / n_snapshots)
    return SnapshotDataset(timestamps, tuple(measures), lambdas, 1.0, 1.0)


def generate_logistic_rows(
    r: float = 3.0,
    n_snapshots: int = 6,
    n_particles: int = 1000,
    seed: int = 0,
) -> List[Tuple[float, float]]:
    """Particle snapshots of the logistic map from a uniform start on [0, 1]."""
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.0, 1.0, size=n_particles)
    paths = iterate_map_particles(lambda x: logistic_map(x, r), x0, n_snapshots)
    timestamps = np.arange(n_snapshots) / (n_snapshots - 1)
    rows = []
    for t, xs in zip(timestamps, paths):
        for x in xs:
            rows.append((float(t), float(x)))
    return rows


def estimate_transition(dataset: SnapshotDataset, config: Optional[SolverConfig] = None) -> TransitionMatrix:
    """Estimate the transition matrix from snapshots via linear-curve regression.

    Fits the measure-valued line law with endpoint grids equal to the data
    grid, then disintegrates the endpoint coupling: Q[l, l'] is the coupling
    mass from box l to box l' divided by the coupling's own t=0 marginal.
    Rows whose source mass is zero become uniform rows, keeping Q stochastic
    without inventing dynamics.
    """
    if len(dataset) < 3:
        raise ValueError("transition estimation needs at least 3 snapshots; with 2 any coupling is optimal")
    config = config or SolverConfig(epsilon=0.05)
    if config.param_grids is None:
        config = replace(config, param_grids=(dataset.grid, dataset.grid))
    result: RegressionResult = fit(dataset, LINEAR, config)
    pi = result.coupling.weights  # (n, n): mass from t=0 box to t=1 box
    source = pi.sum(axis=1)
    n = pi.shape[0]
    q = np.empty_like(pi)
    zero_rows = source <= 0.0
    live = ~zero_rows
    q[live] = pi[live] / source[live, None]
    q[zero_rows] = 1.0 / n
    # exact row normalization after floating-point division
    q /= q.sum(axis=1, keepdims=True)
    return TransitionMatrix(q, source, fit=result)


@dataclass
class StationaryResult:
    """Stationary vector of a transition matrix with solve diagnostics."""

    vector: np.ndarray
    residual: float
    iterations: int
    damped: bool


def stationary_distribution(
    transition: TransitionMatrix,
    tol: float = 1e-10,
    max_iter: int = 10000,
    damping: float = 0.999,
) -> StationaryResult:
    """Left fixed point of Q by power iteration from the uniform vector.

    When plain iteration fails to converge within max_iter (periodic chains),
    a damped pass v <- a v Q + (1-a) u is run and reported in the result.
    """
    q = transition.Q
    n = q.shape[0]
    uniform = np.full(n, 1.0 / n)

    def _iterate(update):
        v = uniform.copy()
        for it in range(1, max_iter + 1):
            v_new = update(v)
            v_new /= v_new.sum()
            if np.abs(v_new @ q - v_new).sum() <= tol:
                return v_new, it
            v = v_new
        return None, max_iter

    v, iters = _iterate(lambda v: v @ q)
    if v is not None:
        return StationaryResult(v, float(np.abs(v @ q - v).sum()), iters, False)
    logger.info("plain power iteration did not converge in %d steps; damping with a=%g", max_iter, damping)
    v, iters2 = _iterate(lambda v: damping * (v @ q) + (1.0 - damping) * uniform)
    if v is None:
        raise SolverError(f"stationary iteration failed even with damping after {max_iter} steps")
    return StationaryResult(v, float(np.abs(v @ q - v).sum()), iters + iters2, True)


def logistic_map(x, r: float):
    """One step of the logistic population model r * x * (1 - x) on [0, 1]."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > 1):
        raise ValueError("logistic map defined on [0, 1]")
    if not 0.0 <= r <= 4.0:
        raise ValueError("growth parameter must lie in [0, 4]")
    out = r * x * (1.0 - x)
    return float(out) if out.ndim == 0 else out


def arcsine_density(x):
    """Invariant density of the fully chaotic logistic map: 1 / (pi sqrt(x(1-x)))."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0) or np.any(x >= 1):
        raise ValueError("arcsine density defined on the open interval (0, 1)")
    out = 1.0 / (np.pi * np.sqrt(x * (1.0 - x)))
    return float(out) if out.ndim == 0 else out


def arcsine_cdf(x):
    """Closed-form distribution function (2/pi) asin(sqrt(x)) on [0, 1]."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > 1):
        raise ValueError("arcsine CDF defined on [0, 1]")
    out = (2.0 / np.pi) * np.arcsin(np.sqrt(x))
    return float(out) if out.ndim == 0 else out


def arcsine_box_masses(partition: BoxPartition) -> np.ndarray:
    """Arcsine mass of every partition box, via the closed-form CDF."""
    if partition.lo < 0 or partition.hi > 1:
        raise ValueError("arcsine masses defined for partitions of [0, 1]")
    e = partition.edges
    return arcsine_cdf(e[1:]) - arcsine_cdf(e[:-1])


def mass_near(vector: np.ndarray, partition: BoxPartition, point: float, n_boxes: int = 5) -> float:
    """Total stationary mass in the n_boxes boxes whose centers are nearest a point."""
    centers = partition.centers.points[:, 0]
    order = np.argsort(np.abs(centers - point), kind="stable")[:n_boxes]
    return float(np.asarray(vector)[order].sum())
