"""Discrete measures, grids, Gaussians, mixtures, and time-stamped datasets.

These are the data carriers shared by every solver in the package. All types
are immutable after construction (arrays are marked read-only), so instances
can be shared freely across threads.
"""

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

WEIGHT_TOL = 1e-12
# Bound on a squared distance, times lambda / epsilon where a kernel is built
# from it: costs up to it, and sums of a few of them, stay finite floats.
MAX_SCALED_COST = 1e300


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SupportGrid:
    """Finite set of pairwise-distinct support points in R^d.

    Attributes:
        points: array of shape (n, d); rows are the support points.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("grid needs at least one d-dimensional point")
        if np.unique(pts, axis=0).shape[0] != pts.shape[0]:
            raise ValueError("grid points must be pairwise distinct")
        object.__setattr__(self, "points", _readonly(pts))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    @classmethod
    def tensor(cls, axes: Sequence[np.ndarray]) -> "SupportGrid":
        """Tensor-product grid of 1D axes, one per dimension; the last axis varies fastest."""
        mesh = np.meshgrid(*axes, indexing="ij")
        return cls(np.stack([m.ravel() for m in mesh], axis=1))


def same_support(a: SupportGrid, b: SupportGrid) -> bool:
    """True when two grids carry identical point sets (same order)."""
    return a is b or (a.points.shape == b.points.shape and np.array_equal(a.points, b.points))


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Probability measure with one nonnegative weight per grid point."""

    grid: SupportGrid
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).ravel()
        if w.shape[0] != len(self.grid):
            raise ValueError("one weight per grid point required")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights must sum to 1 (got {float(w.sum())!r})")
        object.__setattr__(self, "weights", _readonly(w))

    @property
    def dim(self) -> int:
        return self.grid.dim


@dataclass(frozen=True, eq=False)
class SnapshotDataset:
    """Time-stamped target measures with per-snapshot weights.

    Snapshots are kept sorted by timestamp; all measures share one grid.
    ``original_horizon`` records the horizon before any normalization, so a
    coupling solved on normalized time can be rescaled back afterwards.
    """

    timestamps: np.ndarray
    measures: Tuple[DiscreteMeasure, ...]
    lambdas: np.ndarray
    horizon: float
    original_horizon: float

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=float).ravel()
        lams = np.asarray(self.lambdas, dtype=float).ravel()
        measures = tuple(self.measures)
        if not (len(ts) == len(measures) == len(lams)) or len(ts) < 1:
            raise ValueError("timestamps, measures, lambdas must align and be nonempty")
        if np.any(np.diff(ts) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if ts[0] < 0:
            raise ValueError(f"timestamps must lie within [0, horizon]; got t = {ts[0]:g} below the lower bound 0")
        if ts[-1] > self.horizon + 1e-12:
            raise ValueError("timestamps must lie within [0, horizon]")
        if np.any(lams <= 0):
            raise ValueError("snapshot weights must be positive")
        if abs(lams.sum() - 1.0) > WEIGHT_TOL:
            raise ValueError("snapshot weights must sum to 1")
        grid = measures[0].grid
        for m in measures[1:]:
            if not same_support(m.grid, grid):
                raise ValueError("all snapshot measures must share one support grid")
        object.__setattr__(self, "timestamps", _readonly(ts))
        object.__setattr__(self, "lambdas", _readonly(lams))
        object.__setattr__(self, "measures", measures)

    @classmethod
    def from_snapshots(
        cls,
        snapshots: Iterable[Tuple[float, DiscreteMeasure, Optional[float]]],
    ) -> "SnapshotDataset":
        """Build a dataset from (timestamp, measure[, weight]) tuples.

        Tuples may be given in any order; they are sorted by timestamp.
        Missing weights default to uniform 1/N. The horizon is the last
        timestamp, or 1 when every timestamp is 0.
        """
        rows = []
        for snap in snapshots:
            t, measure = snap[0], snap[1]
            lam = snap[2] if len(snap) > 2 else None
            rows.append((float(t), measure, lam))
        rows.sort(key=lambda r: r[0])
        ts = np.array([r[0] for r in rows])
        lams = [r[2] for r in rows]
        if all(l is None for l in lams):
            lam_arr = np.full(len(rows), 1.0 / len(rows))
        elif any(l is None for l in lams):
            raise ValueError("give weights for all snapshots or none")
        else:
            lam_arr = np.array([float(l) for l in lams])
        T = float(ts[-1]) if ts[-1] > 0 else 1.0  # all-at-zero data lives on [0, 1]
        return cls(ts, tuple(r[1] for r in rows), lam_arr, T, T)

    @property
    def grid(self) -> SupportGrid:
        return self.measures[0].grid

    @property
    def dim(self) -> int:
        return self.grid.dim

    def __len__(self) -> int:
        return len(self.measures)

    def target_matrix(self) -> np.ndarray:
        """Stacked snapshot weights, shape (N, |X|)."""
        return np.stack([m.weights for m in self.measures])


def normalize_timestamps(dataset: SnapshotDataset) -> SnapshotDataset:
    """Rescale timestamps to [0, 1], keeping measures and weights.

    The pre-normalization horizon stays available as ``original_horizon`` so
    that an optimal coupling of the normalized problem can be mapped back to
    the original time units by scaling the parameter grids.
    """
    if dataset.horizon <= 0:
        raise ValueError("horizon must be positive")
    if dataset.horizon == 1.0:
        return dataset
    return SnapshotDataset(
        dataset.timestamps / dataset.horizon,
        dataset.measures,
        dataset.lambdas,
        1.0,
        dataset.original_horizon,
    )


def quantize_to_grid(points: np.ndarray, masses: np.ndarray, grid: SupportGrid) -> np.ndarray:
    """Deposit masses on the nearest grid point each (Euclidean metric).

    Distance ties break toward the lowest grid index. Returns the accumulated
    weight vector over the grid (not normalized).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] != grid.dim:
        raise ValueError("point dimension does not match grid")
    masses = np.asarray(masses, dtype=float).ravel()
    out = np.zeros(len(grid))
    gp = grid.points
    # Chunks keep each pairwise temporary under 64 KiB, below the C allocator's
    # mmap threshold: a larger one is mapped fresh, and zero-filled page by
    # page, on every call.
    chunk = max(1, 2 ** 13 // max(len(grid) * grid.dim, 1))
    for start in range(0, pts.shape[0], chunk):
        block = pts[start : start + chunk]
        d2 = ((block[:, None, :] - gp[None, :, :]) ** 2).sum(axis=2)
        idx = np.argmin(d2, axis=1)  # argmin takes the first minimum: lowest index wins ties
        np.add.at(out, idx, masses[start : start + chunk])
    return out


def check_coordinate_scale(lo: np.ndarray, hi: np.ndarray, rate=1.0) -> None:
    """ValueError when points inside the boxes [lo, hi] (arrays (..., d)) can
    have squared distances that, times ``rate``, pass MAX_SCALED_COST.

    The bound is each box's squared diagonal, so no pairwise array is formed;
    an overflow in it reads as too large.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        largest = np.square(np.subtract(hi, lo)).sum(axis=-1)
        scaled = largest * rate
    if not np.max(scaled) <= MAX_SCALED_COST:
        raise ValueError(
            f"coordinate scale too large: squared distances reach {np.max(largest):.3g}, and the "
            f"costs formed from them ({np.max(scaled):.3g}) pass {MAX_SCALED_COST:g}; rescale the data"
        )


def measure_from_samples(samples: np.ndarray, grid: SupportGrid) -> DiscreteMeasure:
    """Quantize samples onto the grid by nearest-point counting."""
    pts = np.asarray(samples, dtype=float)
    if pts.size == 0:
        raise ValueError("need at least one sample")
    if pts.ndim == 1:
        pts = pts[:, None]
    counts = quantize_to_grid(pts, np.ones(pts.shape[0]), grid)
    return DiscreteMeasure(grid, counts / counts.sum())


@dataclass(frozen=True, eq=False)
class GaussianMeasure:
    """Gaussian with mean vector and symmetric PSD covariance."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.mean, dtype=float))
        c = np.atleast_2d(np.asarray(self.covariance, dtype=float))
        if c.shape != (m.shape[0], m.shape[0]):
            raise ValueError("covariance must be d x d for a d-vector mean")
        scale = max(np.abs(c).max(), 1.0)
        if np.abs(c - c.T).max() > 1e-10 * scale:
            raise ValueError("covariance must be symmetric")
        evals = np.linalg.eigvalsh((c + c.T) / 2)
        if evals.min() < -1e-10 * max(evals.max(), 0.0) - 1e-300:
            raise ValueError("covariance must be positive semi-definite")
        object.__setattr__(self, "mean", _readonly(m))
        object.__setattr__(self, "covariance", _readonly((c + c.T) / 2))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @classmethod
    def from_std_1d(cls, mean: float, std: float) -> "GaussianMeasure":
        return cls(np.array([mean]), np.array([[std * std]]))


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Convex combination of Gaussian atoms."""

    atoms: Tuple[GaussianMeasure, ...]
    atom_weights: np.ndarray

    def __post_init__(self):
        atoms = tuple(self.atoms)
        w = np.asarray(self.atom_weights, dtype=float).ravel()
        if len(atoms) != w.shape[0] or len(atoms) == 0:
            raise ValueError("one weight per atom required")
        if np.any(w < 0):
            raise ValueError("atom weights must be nonnegative")
        if abs(w.sum() - 1.0) > WEIGHT_TOL:
            raise ValueError("atom weights must sum to 1")
        dims = {a.dim for a in atoms}
        if len(dims) != 1:
            raise ValueError("atoms must share one dimension")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "atom_weights", _readonly(w))

    @property
    def dim(self) -> int:
        return self.atoms[0].dim

    def pdf_1d(self, x: np.ndarray) -> np.ndarray:
        """Mixture density on a 1D grid (atoms must be one-dimensional)."""
        if self.dim != 1:
            raise ValueError("pdf_1d needs one-dimensional atoms")
        x = np.asarray(x, dtype=float).ravel()
        out = np.zeros_like(x)
        for w, atom in zip(self.atom_weights, self.atoms):
            var = atom.covariance[0, 0]
            if var <= 0:
                raise ValueError("degenerate atom has no density")
            out += w * np.exp(-0.5 * (x - atom.mean[0]) ** 2 / var) / np.sqrt(2 * np.pi * var)
        return out
