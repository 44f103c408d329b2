"""Independent brute-force oracles the tests check the library against.

Everything here deliberately avoids the library's factored code paths:
dense tensors are materialized entry by entry, and linear programs are solved
by scipy's HiGHS on the full variable set, at the feasibility tolerances of
``exact_transport_lp`` (1e-10) rather than HiGHS's default 1e-7.
"""

import csv
import math
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from wasscurve.dataio import DEFAULT_GRID_POINTS, SchemaError
from wasscurve.gaussian_regression import _objective_matrix
from wasscurve.linalg import SYM_TOL
from wasscurve.measures import DiscreteMeasure, GaussianMeasure, SnapshotDataset, SupportGrid
from wasscurve.kernels import KernelSet, _sq_distances, kernels_from_costs, param_tuple_stack
from wasscurve.mm_sinkhorn import (
    DEFAULT_MAX_ITER,
    FactoredCoupling,
    SolverError,
    _Anderson,
    _log_kernel_sums,
    _log_plan,
    _log_sums_ratio,
    _log_weights,
    _with_log_zeros,
)
from wasscurve.two_marginal import two_marginal_w2_exact

_LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def mass_change(mass, ratio):
    """sum_p mass_p sum_j ratio_j(p) prod_{i<j} (1 + ratio_i(p)), one ratio row at a time.

    The loop form of ``mm_sinkhorn._mass_change``, which its one-pass form is
    tested against: the rows of ``ratio`` (one per snapshot, any iterable) in
    order, the running product grown by its own increment. Zero-mass tuples add 0.
    """
    with np.errstate(all="ignore"):
        total, grown = np.zeros_like(mass), np.ones_like(mass)
        for r in ratio:
            term = r * grown
            total += term
            grown += term
        return float(np.where(mass > 0, mass * total, 0.0).sum())


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


def dense_coupling_marginals(kernels, log_potentials):
    """Marginals of dense_coupling_tensor on every snapshot, shape (N, |X|).

    The same exp-space products, with the other snapshots' axes summed out
    one factor at a time (m_i = K_i a_i), so the (P, |X|, ..., |X|) tensor
    is never formed.
    """
    k = np.exp(kernels.log_kernels)  # (N, P, X)
    a = np.exp(log_potentials)  # (N, X)
    m = np.einsum("npx,nx->np", k, a)
    out = np.empty_like(a)
    for j in range(k.shape[0]):
        others = np.ones(k.shape[1])
        for i in range(k.shape[0]):
            if i != j:
                others = others * m[i]
        out[j] = a[j] * (others @ k[j])
    return out


def dense_coupling_marginals_from_logs(kernels, log_potentials):
    """Marginals of the dense coupling tensor on every snapshot, shape (N, |X|), with
    each entry's log summed over the snapshots before it is exponentiated, so that
    factors outside the float range on their own (potentials near 1e155 and 1e-305)
    still give finite entries. The (P, |X|, ..., |X|) tensor is formed: tiny instances only.
    """
    log_k = kernels.log_kernels  # (N, P, X)
    n, p, x = log_k.shape
    log_gamma = np.zeros((p,) + (1,) * n)
    for i in range(n):
        shape = (p,) + (1,) * i + (x,) + (1,) * (n - i - 1)
        log_gamma = log_gamma + (log_k[i] + log_potentials[i]).reshape(shape)
    gamma = np.exp(log_gamma)
    return np.array([dense_marginal(gamma, j) for j in range(n)])


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


def dense_pair_marginals(kernels, log_potentials):
    """Joint marginals Gamma_ij of the dense coupling tensor on the snapshot pairs i < j,
    in the order (0, 1), (0, 2), ..., (1, 2), ...; shape (pairs, |X|, |X|). The tensor
    is formed: tiny instances only."""
    gamma = dense_coupling_tensor(kernels, log_potentials)
    n = kernels.n_snapshots
    return np.array([
        gamma.sum(axis=tuple(ax for ax in range(gamma.ndim) if ax not in (i + 1, j + 1)))
        for i in range(n) for j in range(i + 1, n)
    ])


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
    total = 0.0
    for i in range(n):
        weighted = kernels.weighted_cost(i)  # (P, X): lambda_i * c_i
        pair = dense_marginal_pair(gamma, i)
        total += float(np.sum(weighted * pair))
    return total


def transport_objective_from_logs(kernels: KernelSet, log_a: np.ndarray, log_m: np.ndarray) -> float:
    """<c, Gamma> computed kernel-wise, without materializing the coupling.

    ``log_m`` are the log factor sums of ``log_a`` (``_log_factor_sums``).
    """
    buf = np.empty(kernels.log_kernels.shape[1:])
    obj = 0.0
    for i, log_w in enumerate(_log_weights(log_m)):
        np.add(log_w[:, None], kernels.log_kernels[i], out=buf)
        buf += log_a[i]
        np.exp(buf, out=buf)
        buf *= kernels.weighted_cost(i)
        obj += float(buf.sum())
    return obj


def project_marginal(state: FactoredCoupling, j: int) -> np.ndarray:
    """Marginal of the implicit coupling on snapshot j's support, shape (|X|,).

    Matches the brute-force sum over the dense tensor; computed factored in
    O(N * P * |X|) from the state's dense log kernels and log factor sums.
    """
    n = state.kernels.n_snapshots
    if not -n <= j < n:
        raise IndexError(f"snapshot index {j} out of range for {n} snapshots")
    j %= n
    log_k = state.kernels.log_kernels[j]
    log_w = next(islice(_log_weights(state.log_factor_sums), j, None))
    return _log_plan(log_k, log_w, state.log_potentials[j], np.empty(log_k.shape))[0]


def two_marginal_sinkhorn(
    mu: DiscreteMeasure, nu: DiscreteMeasure, epsilon: float, tol: float = 1e-9, max_iter: int = DEFAULT_MAX_ITER
) -> Tuple[float, np.ndarray]:
    """Entropic two-marginal transport by its own log-domain loop: <c, plan> and the plan.

    ``two_marginal_w2`` as it was before it ran on the multi-marginal engine,
    kept as written: u = p / (K v) and v = q / (K^T u) in log space from the
    first iteration, with the engine's Anderson acceleration and safeguard on
    (log u, log v), stopping when the row sums of the plan are within tol.
    """
    cost = _sq_distances(mu.grid.points, nu.grid.points)
    log_k = -(cost - cost.min()) / epsilon
    p, q = mu.weights, nu.weights
    log_p = _with_log_zeros(p)
    log_q = _with_log_zeros(q)
    log_u = np.zeros(len(p))
    log_v = np.zeros(len(q))
    buf = np.empty_like(log_k)
    log_rows = _log_kernel_sums(log_k, log_v[None, :], 1, buf)  # log (K v)
    # the iterate is (log u, log v) at positive weights, as one vector
    live = np.concatenate([p, q]) > 0
    weights = np.concatenate([p, q])[live]
    accel = _Anderson(weights, "two-marginal iterations")
    for _ in range(max_iter):
        with np.errstate(invalid="ignore"):
            log_u = log_p - log_rows
            log_u[np.isnan(log_u)] = -np.inf
            log_v = log_q - _log_kernel_sums(log_k, log_u[:, None], 0, buf)
            log_v[np.isnan(log_v)] = -np.inf
        # the row sums of the plan are u * (K v), and log (K v) is what the
        # next u update needs; the columns match exactly
        log_rows = _log_kernel_sums(log_k, log_v[None, :], 1, buf)
        rows = np.exp(log_u + log_rows)
        err = float(np.abs(rows - p).sum())
        if err <= tol:
            break
        if accel.record(np.concatenate([log_u, log_v])[live], err):
            x = accel.propose()
            step = np.zeros(live.size)
            step[live] = x - accel.g
            with np.errstate(over="ignore", invalid="ignore"):
                grow = np.expm1(step)
                ratio = _log_sums_ratio(log_k, log_v, log_rows, grow[len(p):], buf)  # of K v
                if accel.keep(x, mass_change(rows, np.stack([grow[: len(p)], ratio]))):
                    log_v = log_v + step[len(p):]
                    log_rows = log_rows + np.log1p(ratio)
    plan = np.exp(log_u[:, None] + log_k + log_v[None, :])
    return float(np.sum(plan * cost)), plan


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
    res = linprog(total_cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs", options=_LP_OPTIONS)
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
    res = linprog(np.asarray(cost, dtype=float).ravel(), A_eq=a_eq, b_eq=np.concatenate([p, q]), bounds=(0, None),
                  method="highs", options=_LP_OPTIONS)
    if not res.success:
        raise RuntimeError(f"oracle transport LP failed: {res.message}")
    return float(res.fun), res.x.reshape(n, m)


def gaussian_pdf_measure(grid_points, mean, std):
    """Normalized density weights of N(mean, std^2) on a 1D grid."""
    x = np.asarray(grid_points, dtype=float).ravel()
    w = np.exp(-0.5 * ((x - mean) / std) ** 2)
    return w / w.sum()


def discretized_mixture_w2(mu, nu, n_points=400, n_std=5.0):
    """Squared W2 between 1D mixtures estimated by fine-grid exact transport.

    Both mixtures are discretized onto one shared grid covering every atom's
    mean plus/minus n_std standard deviations; the exact 1D monotone coupling
    is then used. Serves as the reference in the W2 <= WM comparison.
    """
    if mu.dim != 1 or nu.dim != 1:
        raise ValueError("grid discretization implemented for 1D mixtures")
    spans = []
    for mix in (mu, nu):
        for atom in mix.atoms:
            s = float(np.sqrt(atom.covariance[0, 0]))
            spans.append((float(atom.mean[0]) - n_std * s, float(atom.mean[0]) + n_std * s))
    lo = min(s[0] for s in spans)
    hi = max(s[1] for s in spans)
    grid = SupportGrid(np.linspace(lo, hi, n_points)[:, None])
    x = grid.points[:, 0]
    mm = []
    for mix in (mu, nu):
        dens = mix.pdf_1d(x)
        mm.append(DiscreteMeasure(grid, dens / dens.sum()))
    cost, _ = two_marginal_w2_exact(mm[0], mm[1])
    return float(cost)


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
# The per-pair Gaussian closed forms and cost tables, kept as written before the
# batched closed forms: square roots by their own eigendecompositions, and one
# closed-form call per atom pair, geodesic point and target.
# ---------------------------------------------------------------------------


def _sym_eig(a):
    """Eigenvalues (descending) and orthonormal eigenvectors of the symmetrized matrix a."""
    w, v = np.linalg.eigh((a + a.T) / 2)
    return w[::-1], v[:, ::-1]


def sqrtm_psd(a):
    """Symmetric PSD square root B with B @ B = a; eigenvalues within
    -1e-10 * lambda_max of zero are clipped to zero, lower ones rejected."""
    w, v = _sym_eig(a)
    if w[-1] < -1e-10 * max(w[0], 0.0) - 1e-300:
        raise ValueError("matrix is not positive semi-definite")
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return (root + root.T) / 2


def inv_sqrtm_pd(a):
    """Inverse symmetric square root of a strictly positive definite matrix."""
    w, v = _sym_eig(a)
    if w[-1] <= 1e-10 * max(w[0], 1e-300):
        raise ValueError("matrix is singular or nearly so; inverse square root undefined")
    out = (v / np.sqrt(w)) @ v.T
    return (out + out.T) / 2


def w2_gaussian_squared(a, b):
    """Squared Wasserstein-2 distance between Gaussians: mean term plus the Bures term."""
    c0, c1 = a.covariance, b.covariance
    root0 = sqrtm_psd(c0)
    middle = sqrtm_psd(root0 @ c1 @ root0)
    bures = float(np.trace(c0) + np.trace(c1) - 2.0 * np.trace(middle))
    return float(np.sum((a.mean - b.mean) ** 2)) + max(bures, 0.0)


def w2_gaussian(a, b):
    return float(np.sqrt(w2_gaussian_squared(a, b)))


def gaussian_geodesic(a, b, t):
    """McCann interpolant between two Gaussians at time t in [0, 1]. A singular
    first covariance that commutes with the second interpolates the square roots."""
    if t < -1e-12 or t > 1.0 + 1e-12:
        raise ValueError("geodesic time must lie in [0, 1]")
    t = min(max(float(t), 0.0), 1.0)
    mean = (1.0 - t) * a.mean + t * b.mean
    c0, c1 = a.covariance, b.covariance
    evals = np.linalg.eigvalsh(c0)
    if evals.min() <= 1e-12 * max(evals.max(), 1e-300):
        comm = c0 @ c1 - c1 @ c0
        scale = max(np.abs(c0).max() * max(np.abs(c1).max(), 1.0), 1.0)
        if np.abs(comm).max() > 1e-10 * scale:
            raise ValueError("singular first covariance and non-commuting pair; geodesic undefined here")
        mix = (1.0 - t) * sqrtm_psd(c0) + t * sqrtm_psd(c1)
        return GaussianMeasure(mean, mix @ mix)
    root0 = sqrtm_psd(c0)
    inv_root0 = inv_sqrtm_pd(c0)
    mix = (1.0 - t) * c0 + t * sqrtm_psd(root0 @ c1 @ root0)
    cov = inv_root0 @ mix @ mix @ inv_root0
    return GaussianMeasure(mean, _project_psd_reference((cov + cov.T) / 2))


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
                g = gaussian_geodesic(atoms.atoms[j], atoms.atoms[l], float(t))
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


def quantize_to_grid(points: np.ndarray, masses: np.ndarray, grid: SupportGrid) -> np.ndarray:
    """Deposit masses on the nearest grid point each (Euclidean metric).

    The reference for ``measures.quantize_to_grid``: every point-to-grid
    distance, scanned in chunks. Distance ties break toward the lowest grid
    index. Returns the accumulated weight vector over the grid (not normalized).
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


def load_snapshots(
    path: str,
    grid: Optional[SupportGrid] = None,
    grid_points: int = DEFAULT_GRID_POINTS,
    lambdas: Optional[Dict[float, float]] = None,
) -> SnapshotDataset:
    """Load a snapshot dataset from either CSV schema, its times divided by the last one.

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
            counts = quantize_to_grid(pts, np.ones(pts.shape[0]), the_grid)
            lam = lambdas.get(t) if lambdas else None
            snapshots.append((t, DiscreteMeasure(the_grid, counts / counts.sum()), lam))
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
    return SnapshotDataset.from_snapshots(snapshots)


def sparse_entries(weights: np.ndarray, threshold: float) -> Tuple[List[list], float]:
    """The coupling entries above threshold, one lookup per entry, and their mass summed in row-major order."""
    idx = np.argwhere(weights > threshold)
    entries = [[int(i) for i in row] + [float(weights[tuple(row)])] for row in idx]
    emitted = float(sum(e[-1] for e in entries))
    return entries, emitted


# ---------------------------------------------------------------------------
# The Gaussian SDP's ADMM loop, kept as written before the loop-invariant work
# left it, on a PSD projection that validates and symmetrizes every input.
# ---------------------------------------------------------------------------


def _as_symmetric_reference(a: np.ndarray) -> np.ndarray:
    """Validate symmetry to 1e-12 relative, then symmetrize: no exact-symmetry shortcut."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(np.abs(m).max(), 1.0)
    if np.abs(m - m.T).max() > SYM_TOL * scale:
        raise ValueError("matrix is not symmetric")
    return (m + m.T) / 2


def _project_psd_reference(a: np.ndarray) -> np.ndarray:
    m = _as_symmetric_reference(a)
    w, v = np.linalg.eigh(m)
    if w[0] >= 0:
        return m
    n_neg = int(np.searchsorted(w, 0.0))
    v_neg = v[:, :n_neg]
    out = m - (v_neg * w[:n_neg]) @ v_neg.T
    return (out + out.T) / 2


def gaussian_sdp_admm(data, curve, tol, max_iter):
    """fit_gaussian_sdp's ADMM solve: (matrix, iterations, primal, dual, rho); SolverError past max_iter."""
    timestamps = np.array([float(row[0]) for row in data])
    lambdas = np.array([float(row[1]) for row in data])
    covs = [np.atleast_2d(np.asarray(row[2], dtype=float)) for row in data]
    n = len(covs)
    d = covs[0].shape[0]
    k = curve.n_params
    size = (k + n) * d
    weight = _objective_matrix(timestamps, lambdas, curve, d)

    fixed_mask = np.zeros((size, size), dtype=bool)
    fixed_values = np.zeros((size, size))
    for i, c in enumerate(covs):
        sl = slice((k + i) * d, (k + i + 1) * d)
        fixed_mask[sl, sl] = True
        fixed_values[sl, sl] = c

    avg = sum(covs) / n
    x = fixed_values.copy()
    for j in range(k):
        sl = slice(j * d, (j + 1) * d)
        x[sl, sl] = avg
    z = _project_psd_reference(x)
    u = np.zeros_like(x)

    primal = dual = np.inf
    it = 0
    rho = 1.0
    for it in range(1, max_iter + 1):
        x = z - u - weight / rho
        x[fixed_mask] = fixed_values[fixed_mask]
        x = (x + x.T) / 2
        z_prev = z
        z = _project_psd_reference(x + u)
        u = u + x - z
        primal = float(np.linalg.norm(x - z))
        dual = float(rho * np.linalg.norm(z - z_prev))
        scale = tol * (1.0 + float(np.linalg.norm(z)))
        if primal <= scale and dual <= scale:
            break
        if it % 50 == 0:
            if primal > 10.0 * dual:
                rho *= 2.0
                u /= 2.0
            elif dual > 10.0 * primal:
                rho /= 2.0
                u *= 2.0
    else:
        raise SolverError(f"gaussian SDP did not converge in {max_iter} iterations")
    return x, it, primal, dual, rho
