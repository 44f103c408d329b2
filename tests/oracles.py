"""Independent brute-force oracles the tests check the library against.

Everything here deliberately avoids the library's factored code paths:
dense tensors are materialized entry by entry, and linear programs are solved
by scipy's HiGHS on the full variable set.
"""

import csv
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from wasscurve.dataio import DEFAULT_GRID_POINTS, SchemaError
from wasscurve.gaussian_regression import gaussian_geodesic, w2_gaussian, w2_gaussian_squared
from wasscurve.measures import (
    DiscreteMeasure,
    SnapshotDataset,
    SupportGrid,
    measure_from_samples,
    normalize_timestamps,
)
from wasscurve.kernels import kernels_from_costs, param_tuple_stack


def dense_coupling_tensor(kernels, log_potentials):
    """Full coupling array Gamma of shape (P, |X|, ..., |X|) from kernels and potentials."""
    k = np.exp(kernels.log_kernels)  # (N, P, X)
    a = np.exp(log_potentials)  # (N, X)
    n, p, x = k.shape
    gamma = np.ones((p,) + (1,) * n)
    for i in range(n):
        shape = (p,) + (1,) * i + (x,) + (1,) * (n - i - 1)
        gamma = gamma * (k[i] * a[i][None, :]).reshape(shape)
    return gamma


def dense_curve_kernels(dataset, curve, grids, epsilon):
    """The dense kernel set of a curve-regression cost, each snapshot's (P, |X|)
    costs taken from the curve points by broadcasting, never factored."""
    stack = param_tuple_stack(grids)  # (P, k, d)
    support = np.asarray(dataset.grid.points)
    costs = np.stack([
        ((np.einsum("pkd,k->pd", stack, curve.coefficients(t))[:, None, :] - support[None]) ** 2).sum(axis=2)
        for t in dataset.timestamps
    ])
    return kernels_from_costs(costs, dataset.lambdas, epsilon, grids)


def dense_marginal(gamma, j):
    """Marginal of the dense tensor on snapshot j (axis j+1)."""
    n_axes = gamma.ndim - 1
    axes = tuple(ax for ax in range(gamma.ndim) if ax != j + 1)
    return gamma.sum(axis=axes)


def dense_param_marginal(gamma):
    """Marginal on the parameter axis, normalized to mass 1."""
    out = gamma.sum(axis=tuple(range(1, gamma.ndim)))
    return out / out.sum()


def dense_objective(kernels, gamma):
    """<c, Gamma> summed entry by entry over the dense tensor."""
    n = kernels.n_snapshots
    p, x = kernels.n_param_tuples, kernels.n_support
    total = 0.0
    for i in range(n):
        weighted = kernels.weighted_cost(i)  # (P, X): lambda_i * c_i
        pair = dense_marginal_pair(gamma, i)
        total += float(np.sum(weighted * pair))
    return total


def dense_marginal_pair(gamma, i):
    """Joint (parameter, y_i) marginal of the dense tensor, shape (P, |X|)."""
    axes = tuple(ax for ax in range(1, gamma.ndim) if ax != i + 1)
    return gamma.sum(axis=axes)


def multimarginal_lp(cost_arrays, lambdas, targets):
    """Exact LP over the dense multi-coupling with marginal constraints on every y_j.

    Args:
        cost_arrays: (N, P, X) per-snapshot costs c_i(param, y).
        lambdas: (N,) positive weights.
        targets: (N, X) marginal weight vectors.

    Returns:
        (optimal value, optimal tensor of shape (P, X, ..., X)).
    """
    cost_arrays = np.asarray(cost_arrays, dtype=float)
    lambdas = np.asarray(lambdas, dtype=float)
    targets = np.asarray(targets, dtype=float)
    n, p, x = cost_arrays.shape
    shape = (p,) + (x,) * n
    total_cost = np.zeros(shape)
    for i in range(n):
        view = (p,) + (1,) * i + (x,) + (1,) * (n - i - 1)
        total_cost += lambdas[i] * cost_arrays[i].reshape(view)
    n_vars = total_cost.size
    idx = np.indices(shape).reshape(n + 1, -1)
    rows = []
    cols = []
    for j in range(n):
        rows.append(j * x + idx[j + 1])
        cols.append(np.arange(n_vars))
    a_eq = csr_matrix(
        (np.ones(n * n_vars), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n * x, n_vars),
    )
    b_eq = targets.ravel()
    res = linprog(total_cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return float(res.fun), res.x.reshape(shape)


def transport_lp(cost, p, q):
    """Exact two-marginal transport LP by HiGHS on the dense variable set."""
    n, m = cost.shape
    rows = []
    cols = []
    for i in range(n):
        rows.extend([i] * m)
        cols.extend(range(i * m, (i + 1) * m))
    for j in range(m):
        rows.extend([n + j] * n)
        cols.extend(range(j, n * m, m))
    a_eq = csr_matrix((np.ones(2 * n * m), (rows, cols)), shape=(n + m, n * m))
    res = linprog(np.asarray(cost, dtype=float).ravel(), A_eq=a_eq, b_eq=np.concatenate([p, q]), bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"oracle transport LP failed: {res.message}")
    return float(res.fun), res.x.reshape(n, m)


def gaussian_pdf_measure(grid_points, mean, std):
    """Normalized density weights of N(mean, std^2) on a 1D grid."""
    x = np.asarray(grid_points, dtype=float).ravel()
    w = np.exp(-0.5 * ((x - mean) / std) ** 2)
    return w / w.sum()


_POTENTIAL_LO = 1e-150
_POTENTIAL_HI = 1e150


def reference_sweep_exp(kern, a, m, targets):
    """One exponential-domain sweep, checked and updated snapshot by snapshot.

    The engine's earlier numpy sweep, kept as written: w_j from np.delete plus
    prod, and the residual and range checks after every snapshot. Updates a
    and m in place; returns the max L1 marginal violation, or -1.0 when values
    leave the representable range.
    """
    n = kern.shape[0]
    residual = 0.0
    for j in range(n):
        w = np.prod(np.delete(m, j, axis=0), axis=0) if n > 1 else np.ones(kern.shape[1])
        phi = kern[j].T @ w
        current = a[j] * phi
        residual = max(residual, float(np.abs(current - targets[j]).sum()))
        positive = targets[j] > 0
        if not np.isfinite(phi).all() or np.any(phi[positive] <= 0):
            return -1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            a_new = np.where(positive, targets[j] / phi, 0.0)
        live = a_new[positive]
        if live.size and (live.min() < _POTENTIAL_LO or live.max() > _POTENTIAL_HI):
            return -1.0
        a[j] = a_new
        m[j] = kern[j] @ a_new
        if not np.isfinite(m[j]).all():
            return -1.0
    return residual


# ---------------------------------------------------------------------------
# The per-pair Gaussian-W2 cost tables, kept as written before the batched
# closed forms: one closed-form call per atom pair, geodesic point and target.
# ---------------------------------------------------------------------------


def pairwise_w2_matrix(atoms_a, atoms_b):
    """Matrix of Gaussian W2 distances between two atom lists."""
    out = np.empty((len(atoms_a), len(atoms_b)))
    for i, a in enumerate(atoms_a):
        for j, b in enumerate(atoms_b):
            out[i, j] = w2_gaussian(a, b)
    return out


def geodesic_cost_table(atoms, timestamps):
    """W2^2 between every atom-pair geodesic point and every target atom, shape (N, K*K, K)."""
    k = len(atoms)
    n = len(timestamps)
    table = np.empty((n, k * k, k))
    for i, t in enumerate(timestamps):
        for j in range(k):
            for l in range(k):
                g = gaussian_geodesic(atoms.atoms[j], atoms.atoms[l], float(t), allow_commuting_fallback=True)
                for m in range(k):
                    table[i, j * k + l, m] = w2_gaussian_squared(g, atoms.atoms[m])
    return table


# ---------------------------------------------------------------------------
# The row-by-row snapshot loader, kept as written before the array loader:
# one float() and one ndarray per row, one rescan of the rows per timestamp.
# ---------------------------------------------------------------------------


def _parse_float(token: str, path: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise SchemaError(f"{path}:{line_no}: cannot parse {token!r} as a number") from None
    if not math.isfinite(value):
        raise SchemaError(f"{path}:{line_no}: {token!r} is not a finite number")
    return value


def read_snapshot_rows(path: str) -> Tuple[str, List[Tuple[float, float, np.ndarray]]]:
    """Parse a snapshot CSV; returns (schema, rows of (t, weight, position)).

    Sample-schema rows get weight 1 per particle. Malformed rows are rejected
    with their line number.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        header = [h.strip().lower() for h in header]
        if len(header) >= 2 and header[0] == "t" and header[1] == "weight":
            schema = "atoms"
            dim = len(header) - 2
            expected = [f"x{i + 1}" for i in range(dim)]
            if dim < 1 or header[2:] != expected:
                raise SchemaError(f"{path}: atom header must be t,weight,x1..xd")
        elif len(header) >= 2 and header[0] == "t":
            schema = "samples"
            dim = len(header) - 1
            expected = [f"x{i + 1}" for i in range(dim)]
            if header[1:] != expected:
                raise SchemaError(f"{path}: sample header must be t,x1..xd")
        else:
            raise SchemaError(f"{path}: unrecognized header {header!r}")
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise SchemaError(f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}")
            vals = [_parse_float(c, path, line_no) for c in row]
            if schema == "atoms":
                t, weight, pos = vals[0], vals[1], np.array(vals[2:])
                if weight < 0:
                    raise SchemaError(f"{path}:{line_no}: negative weight")
            else:
                t, weight, pos = vals[0], 1.0, np.array(vals[1:])
            rows.append((t, weight, pos))
        if not rows:
            raise SchemaError(f"{path}: no data rows")
    return schema, rows


def _grid_from_rows(rows: Sequence[Tuple[float, float, np.ndarray]], n_points: int) -> SupportGrid:
    pos = np.stack([r[2] for r in rows])
    lo = pos.min(axis=0)
    hi = pos.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    axes = [np.linspace(lo[a] - 1e-9 * span[a], hi[a] + 1e-9 * span[a], n_points) for a in range(pos.shape[1])]
    if pos.shape[1] == 1:
        return SupportGrid(axes[0][:, None])
    mesh = np.meshgrid(*axes, indexing="ij")
    return SupportGrid(np.stack([m.ravel() for m in mesh], axis=1))


def load_snapshots(
    path: str,
    grid: Optional[SupportGrid] = None,
    grid_points: int = DEFAULT_GRID_POINTS,
    lambdas: Optional[Dict[float, float]] = None,
) -> SnapshotDataset:
    """Load a snapshot dataset from either CSV schema, time-normalized.

    Sample rows are quantized onto the grid (auto-built over the data range
    with grid_points per axis when not given); atom rows become weighted
    Diracs on the union of atom positions. Per-timestamp atom weights must
    sum to 1 within 1e-6 and are renormalized exactly.
    """
    schema, rows = read_snapshot_rows(path)
    times = sorted({r[0] for r in rows})
    snapshots = []
    if schema == "samples":
        the_grid = grid if grid is not None else _grid_from_rows(rows, grid_points)
        for t in times:
            pts = np.stack([r[2] for r in rows if r[0] == t])
            lam = lambdas.get(t) if lambdas else None
            snapshots.append((t, measure_from_samples(pts, the_grid), lam))
    else:
        if grid is not None:
            the_grid = grid
        else:
            pos = np.unique(np.stack([r[2] for r in rows]), axis=0)
            the_grid = SupportGrid(pos)
        key_of = {tuple(p): i for i, p in enumerate(np.asarray(the_grid.points))}
        for t in times:
            weights = np.zeros(len(the_grid))
            total = 0.0
            for rt, w, p in rows:
                if rt != t:
                    continue
                idx = key_of.get(tuple(p))
                if idx is None:
                    # off-grid atom: quantize to the nearest grid point
                    d2 = ((the_grid.points - p[None, :]) ** 2).sum(axis=1)
                    idx = int(np.argmin(d2))
                weights[idx] += w
                total += w
            if abs(total - 1.0) > 1e-6:
                raise SchemaError(f"{path}: atom weights at t={t} sum to {total!r}, expected 1")
            lam = lambdas.get(t) if lambdas else None
            snapshots.append((t, DiscreteMeasure(the_grid, weights / total), lam))
    dataset = SnapshotDataset.from_snapshots(snapshots)
    return normalize_timestamps(dataset)


def sparse_entries(weights: np.ndarray, threshold: float) -> Tuple[List[list], float]:
    """The coupling entries above threshold, one lookup per entry, and their mass summed in row-major order."""
    idx = np.argwhere(weights > threshold)
    entries = [[int(i) for i in row] + [float(weights[tuple(row)])] for row in idx]
    emitted = float(sum(e[-1] for e in entries))
    return entries, emitted
