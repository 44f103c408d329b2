"""Discrete measures, grids, Gaussians, mixtures, and time-stamped datasets.

These are the data carriers shared by every solver in the package. All types
are immutable after construction (arrays are marked read-only), so instances
can be shared freely across threads.
"""

from dataclasses import dataclass
from functools import cached_property
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


def sorted_unique(values: np.ndarray, axis: Optional[int] = None) -> np.ndarray:
    """The distinct entries of a 1-D array, or with axis=0 the distinct rows
    of a 2-D one, sorted: ``np.unique(values, axis=axis)``.

    np.unique first asks np.ma.is_masked, which imports numpy.ma, a tenth of
    the package's import time. This runs the sort np.unique runs on rows (as
    records of one field per column, with numpy's default sort), so that of
    rows equal up to the sign of a zero it keeps the same one; NaN entries
    count as one, as there.
    """
    a = np.ascontiguousarray(values)
    if axis is not None:
        a = a.view([(f"f{i}", a.dtype) for i in range(a.shape[1])]).ravel()
    a = np.sort(a)
    keep = np.ones(a.shape, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    if axis is None and a.size and np.isnan(a[-1]):
        keep[np.searchsorted(a, a[-1]) + 1 :] = False
    return a[keep] if axis is None else a[keep].view(values.dtype).reshape(-1, values.shape[1])


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
        if sorted_unique(pts, axis=0).shape[0] != pts.shape[0]:
            raise ValueError("grid points must be pairwise distinct")
        object.__setattr__(self, "points", _readonly(pts))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @cached_property
    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-coordinate minimum and maximum of the points, each shape (d,)."""
        return _readonly(self.points.min(axis=0)), _readonly(self.points.max(axis=0))

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

    Snapshots are kept sorted by timestamp, and every timestamp lies in
    [0, 1], the time interval of every fitted curve (up to 1e-12 past 1);
    all measures share one grid.
    """

    timestamps: np.ndarray
    measures: Tuple[DiscreteMeasure, ...]
    lambdas: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=float).ravel()
        lams = np.asarray(self.lambdas, dtype=float).ravel()
        measures = tuple(self.measures)
        if not (len(ts) == len(measures) == len(lams)) or len(ts) < 1:
            raise ValueError("timestamps, measures, lambdas must align and be nonempty")
        if np.any(np.diff(ts) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        if ts[0] < 0:
            raise ValueError(f"timestamps must lie within [0, 1]; got t = {ts[0]:g} below the lower bound 0")
        if ts[-1] > 1.0 + 1e-12:
            raise ValueError(f"timestamps must lie within [0, 1]; got t = {ts[-1]:g} above the upper bound 1")
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

        Tuples may be given in any order; they are sorted by timestamp, and
        divided by the last one when it is positive, so that time runs on
        [0, 1]. Missing weights default to uniform 1/N.
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
        if ts[-1] > 0:
            ts = ts / ts[-1]
        return cls(ts, tuple(r[1] for r in rows), lam_arr)

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


def _nearest_index_scan(pts: np.ndarray, gp: np.ndarray) -> np.ndarray:
    """Brute-force nearest_index: every point-to-grid squared distance, O(n |X| d)."""
    idx = np.empty(pts.shape[0], dtype=np.intp)
    # Chunks keep each pairwise temporary under 64 KiB, below the C allocator's
    # mmap threshold: a larger one is mapped fresh, and zero-filled page by
    # page, on every call.
    chunk = max(1, 2 ** 13 // max(gp.shape[0] * gp.shape[1], 1))
    for start in range(0, pts.shape[0], chunk):
        block = pts[start : start + chunk]
        d2 = ((block[:, None, :] - gp[None, :, :]) ** 2).sum(axis=2)
        idx[start : start + chunk] = np.argmin(d2, axis=1)  # the first minimum: lowest index wins ties
    return idx


def _nearest_index_1d(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """nearest_index on a line by sorted search, O((n + |X|) log |X|).

    With the grid sorted, s[i-1] < x <= s[i]. The float (x - g) ** 2 is
    monotone on each side of x, so the minimum sits at s[i-1] or s[i], and a
    grid point further out can equal it only if the next neighbour out on
    its side (s[i-2] or s[i+1]) does too. Points where that happens
    (distances collapsed by rounding or underflow) go to the scan, so the
    lowest index still wins every tie.
    """
    order = np.argsort(g, kind="stable")
    s = g[order]
    last = len(s) - 1
    i = np.searchsorted(s, x)
    lo, hi = np.maximum(i - 1, 0), np.minimum(i, last)
    d_lo, d_hi = (x - s[lo]) ** 2, (x - s[hi]) ** 2
    take_hi = (d_hi < d_lo) | ((d_hi == d_lo) & (order[hi] < order[lo]))
    idx = order[np.where(take_hi, hi, lo)]
    best = np.minimum(d_lo, d_hi)
    far_lo, far_hi = np.maximum(i - 2, 0), np.minimum(i + 1, last)
    tied = ((far_lo < lo) & ((x - s[far_lo]) ** 2 == best)) | ((far_hi > hi) & ((x - s[far_hi]) ** 2 == best))
    if tied.any():
        idx[tied] = _nearest_index_scan(x[tied, None], g[:, None])
    return idx


def nearest_index(points: np.ndarray, grid: SupportGrid) -> np.ndarray:
    """Index of the grid point nearest to each point, shape (n,).

    Nearest means the least squared Euclidean distance, taken as
    ``((x - g) ** 2).sum()``; ties go to the lowest grid index. One-dimensional
    grids use a sorted search, O((n + |X|) log |X|); other grids scan every
    distance, O(n |X| d). Both give the same indices. Points must be a
    finite (n, d) array, or (n,) when d = 1; ValueError otherwise.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] != grid.dim:
        raise ValueError("point dimension does not match grid")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    if grid.dim == 1:
        return _nearest_index_1d(pts[:, 0], grid.points[:, 0])
    return _nearest_index_scan(pts, grid.points)


def quantize_to_grid(points: np.ndarray, masses: np.ndarray, grid: SupportGrid) -> np.ndarray:
    """Deposit masses on the nearest grid point each (``nearest_index``).

    Returns the accumulated weight vector over the grid (not normalized),
    summed in point order. Non-finite points are a ValueError.
    """
    masses = np.asarray(masses, dtype=float).ravel()
    return np.bincount(nearest_index(points, grid), weights=masses, minlength=len(grid))


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
        if m.ndim != 1:
            raise ValueError(f"mean must be a flat vector, got shape {m.shape}")
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
