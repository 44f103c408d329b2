"""File schemas, dataset loading, bundled experiment generators, atomic writes.

Two CSV input schemas are supported, both with a mandatory header, UTF-8
encoding and '.' decimal separator:

    samples: t,x1[,x2,...]         one row per particle
    atoms:   t,weight,x1[,x2,...]  weighted Dirac atoms per timestamp

Gaussian-mixture datasets use a JSON schema (documented in the README):
a "basis" list of {mean, covariance} atoms and a "snapshots" list of
{t, weights[, lambda]} rows over that basis.
"""

import csv
import json
import logging
import math
import os
import warnings
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .measures import (
    WEIGHT_TOL,
    DiscreteMeasure,
    GaussianMeasure,
    SnapshotDataset,
    SupportGrid,
    check_coordinate_scale,
    measure_from_samples,
    nearest_index,
    sorted_unique,
)

logger = logging.getLogger(__name__)

DEFAULT_GRID_POINTS = 50


class SchemaError(ValueError):
    """Input file does not match a supported schema."""


def _parse_float(token: str, path: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise SchemaError(f"{path}:{line_no}: cannot parse {token!r} as a number") from None
    if not math.isfinite(value):
        raise SchemaError(f"{path}:{line_no}: {token!r} is not a finite number")
    return value


def _scan_rows(path: str, rows: Iterable[List[str]], n_fields: int, schema: str) -> np.ndarray:
    """Row-by-row parse of the body: skips blank rows and raises on the first malformed one."""
    kept = []
    for line_no, row in enumerate(rows, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != n_fields:
            raise SchemaError(f"{path}:{line_no}: expected {n_fields} fields, got {len(row)}")
        vals = [_parse_float(c, path, line_no) for c in row]
        if schema == "atoms" and vals[1] < 0:
            raise SchemaError(f"{path}:{line_no}: negative weight")
        kept.append(vals)
    return np.array(kept, dtype=float).reshape(-1, n_fields)


def _csv_rows(path: str, fh) -> Iterator[List[str]]:
    """The csv rows of an open file; undecodable bytes and over-long fields raise SchemaError."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except UnicodeDecodeError as exc:  # met a decoding chunk ahead of the rows, past the last line read
        raise SchemaError(f"{path}: bytes after line {reader.line_num} are not UTF-8 ({exc.reason})") from None
    except csv.Error as exc:
        raise SchemaError(f"{path}:{reader.line_num}: {exc}") from None


def read_snapshot_rows(path: str) -> Tuple[str, np.ndarray, np.ndarray, np.ndarray]:
    """Parse a snapshot CSV; returns (schema, times (n,), weights (n,), positions (n, d)).

    Sample-schema rows get weight 1 per particle. Blank rows are skipped;
    a malformed file is rejected at its first fault, with that line number.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = _csv_rows(path, fh)
        try:
            header = next(rows)
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
        # numpy parses each token as float() does or fails; what it fails on, the scan names
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                values = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:  # also a UnicodeDecodeError
            values = None
        if (
            values is None
            or not len(values)
            or values.shape[1] != len(header)
            or not np.isfinite(values).all()
            or (schema == "atoms" and (values[:, 1] < 0).any())
        ):
            fh.seek(0)
            rows = _csv_rows(path, fh)  # a new reader: its line count restarts
            next(rows)  # past the header again
            values = _scan_rows(path, rows, len(header), schema)
    if not len(values):
        raise SchemaError(f"{path}: no data rows")
    if schema == "atoms":
        return schema, values[:, 0], values[:, 1], values[:, 2:]
    return schema, values[:, 0], np.ones(len(values)), values[:, 1:]


def group_by_time(times: np.ndarray) -> Tuple[np.ndarray, List[float], List[slice]]:
    """Rows grouped by timestamp: (order, distinct times ascending, one slice of order each).

    The sort is stable, so each timestamp's rows keep their file order.
    """
    order = np.argsort(times, kind="stable")
    distinct, starts = np.unique(times[order], return_index=True)
    bounds = [*starts.tolist(), len(times)]
    return order, distinct.tolist(), [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _grid_from_positions(pos: np.ndarray, n_points: int) -> SupportGrid:
    lo = pos.min(axis=0)
    hi = pos.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    axes = [np.linspace(lo[a] - 1e-9 * span[a], hi[a] + 1e-9 * span[a], n_points) for a in range(pos.shape[1])]
    return SupportGrid.tensor(axes)


def _atom_indices(positions: np.ndarray, grid: SupportGrid) -> np.ndarray:
    """Grid index of each atom: its exact grid point, else the nearest one (``nearest_index``)."""
    index_of = {key: i for i, key in enumerate(map(tuple, grid.points.tolist()))}
    out = np.array([index_of.get(key, -1) for key in map(tuple, positions.tolist())], dtype=np.intp)
    off_grid = out < 0
    if off_grid.any():
        out[off_grid] = nearest_index(positions[off_grid], grid)
    return out


def load_snapshots(
    path: str,
    grid: Optional[SupportGrid] = None,
    grid_points: int = DEFAULT_GRID_POINTS,
    lambdas: Optional[Dict[float, float]] = None,
) -> SnapshotDataset:
    """Load a snapshot dataset from either CSV schema, its times divided by
    the last one (``SnapshotDataset.from_snapshots``).

    Sample rows are quantized onto the grid (auto-built over the data range
    with grid_points per axis when not given); atom rows become weighted
    Diracs on the union of atom positions. Per-timestamp atom weights must
    sum to 1 within 1e-6 and are renormalized exactly. Coordinates whose
    squared distances overflow are a ValueError (``check_coordinate_scale``).
    """
    schema, times, weights, positions = read_snapshot_rows(path)
    lo, hi = positions.min(axis=0), positions.max(axis=0)
    if grid is not None:
        if positions.shape[1] != grid.dim:
            raise ValueError("point dimension does not match grid")
        lo, hi = np.minimum(lo, grid.bounds[0]), np.maximum(hi, grid.bounds[1])
    check_coordinate_scale(lo, hi)
    order, distinct, groups = group_by_time(times)
    if schema == "samples":
        the_grid = grid if grid is not None else _grid_from_positions(positions, grid_points)
        measures = [measure_from_samples(positions[order[rows]], the_grid) for rows in groups]
    else:
        the_grid = grid if grid is not None else SupportGrid(sorted_unique(positions, axis=0))
        atom_idx = _atom_indices(positions, the_grid)
        measures = []
        for t, rows in zip(distinct, groups):
            w = weights[order[rows]]
            total = atom_weight_total(path, t, w)
            acc = np.zeros(len(the_grid))
            np.add.at(acc, atom_idx[order[rows]], w)
            measures.append(DiscreteMeasure(the_grid, acc / total))
    return SnapshotDataset.from_snapshots(zip(distinct, measures, snapshot_lambdas(lambdas, distinct)))


def atom_weight_total(path: str, t: float, weights: np.ndarray) -> float:
    """Sum of one timestamp's atom weights; SchemaError unless it is 1 within 1e-6."""
    total = float(np.cumsum(weights)[-1]) + 0.0  # a running sum in file order from +0.0, not np.sum's pairwise one
    if abs(total - 1.0) > 1e-6:
        raise SchemaError(f"{path}: atom weights at t={t} sum to {total!r}, expected 1")
    return total


def snapshot_lambdas(lambdas: Optional[Dict[float, float]], timestamps: Sequence[float]) -> List[float]:
    """Regression weight of each timestamp: 1/n each without a lambda file, else the file's.

    The file must give every timestamp a positive weight, and those weights
    must sum to 1 within WEIGHT_TOL; otherwise this raises ValueError.
    """
    if lambdas is None:
        return [1.0 / len(timestamps)] * len(timestamps)
    missing = [float(t) for t in timestamps if t not in lambdas]
    if missing:
        raise ValueError(f"lambda file has no weight for t={missing[0]!r}")
    out = [lambdas[t] for t in timestamps]
    if min(out) <= 0 or abs(np.sum(out) - 1.0) > WEIGHT_TOL:
        raise ValueError(f"lambda file weights must be positive and sum to 1 (they sum to {float(np.sum(out))!r})")
    return out


def load_lambda_file(path: str) -> Dict[float, float]:
    """Per-timestamp regression weights from a 't,lambda' CSV: rows as ``_scan_rows`` reads them, one per timestamp."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = _csv_rows(path, fh)
        header = [h.strip().lower() for h in next(rows, [])]
        if header != ["t", "lambda"]:
            raise SchemaError(f"{path}: lambda file header must be t,lambda")
        values = _scan_rows(path, rows, 2, "lambda").tolist()
    if not values:
        raise SchemaError(f"{path}: no weights")
    out: Dict[float, float] = {}
    for t, lam in values:
        if t in out:
            raise SchemaError(f"{path}: timestamp t={t!r} is listed twice")
        out[t] = lam
    return out


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


def load_mixture_dataset(path: str) -> Tuple[Tuple[GaussianMeasure, ...], List[Tuple[float, float, np.ndarray]]]:
    """Gaussian-mixture dataset from JSON: (basis, [(t, lambda, weights)]).

    Every value is finite, every basis atom a valid Gaussian (a flat mean)
    of one shared dimension, no timestamp is listed twice, each
    snapshot's weights (one >= 0 per atom) sum to 1 and the lambdas are
    positive and sum to 1, within WEIGHT_TOL; anything else raises
    SchemaError naming the file.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_constant=_reject_constant)
        except ValueError as exc:  # also NaN/Infinity literals and undecodable bytes
            raise SchemaError(f"{path}: invalid JSON ({exc})") from None
    try:
        arrays = [(np.asarray(b["mean"], dtype=float), np.asarray(b["covariance"], dtype=float)) for b in doc["basis"]]
        snaps = doc["snapshots"]
        rows = [(float(s["t"]), float(s.get("lambda", 1.0 / len(snaps))), np.asarray(s["weights"], dtype=float)) for s in snaps]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"{path}: mixture schema needs 'basis' and 'snapshots' ({exc})") from None
    except (ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: mixture values must be numbers ({exc})") from None
    if not rows:
        raise SchemaError(f"{path}: no snapshots")
    flat = [x.ravel() for pair in arrays for x in pair] + [w.ravel() for _, _, w in rows] + [row[:2] for row in rows]
    if not np.isfinite(np.concatenate(flat)).all():
        raise SchemaError(f"{path}: mixture values must be finite numbers")
    seen = set()
    for i, (t, lam, w) in enumerate(rows):
        if t in seen:
            raise SchemaError(f"{path}: timestamp t={t!r} is listed twice")
        seen.add(t)
        if w.shape != (len(arrays),):
            raise SchemaError(f"{path}: snapshot {i} needs one weight per basis atom ({len(arrays)}), got shape {w.shape}")
        if (w < 0).any():
            raise SchemaError(f"{path}: snapshot {i} has a negative weight")
        if abs(w.sum() - 1.0) > WEIGHT_TOL:
            raise SchemaError(f"{path}: snapshot {i} weights must sum to 1 (got {float(w.sum())!r})")
        if lam <= 0:
            raise SchemaError(f"{path}: snapshot {i} needs a positive lambda (got {lam!r})")
    total = sum(lam for _, lam, _ in rows)
    if abs(total - 1.0) > WEIGHT_TOL:
        raise SchemaError(f"{path}: snapshot lambdas must sum to 1 (got {total!r})")
    basis = []
    for j, (mean, cov) in enumerate(arrays):
        try:
            basis.append(GaussianMeasure(mean, cov))
        except ValueError as exc:  # a nested mean, or a covariance of the wrong shape, asymmetric or not PSD
            raise SchemaError(f"{path}: basis atom {j}: {exc}") from None
        if basis[j].dim != basis[0].dim:
            raise SchemaError(f"{path}: basis atom {j} has dimension {basis[j].dim}, atom 0 has {basis[0].dim}")
    return tuple(basis), rows


# ---------------------------------------------------------------------------
# Bundled generators reproducing the reference experiments
# ---------------------------------------------------------------------------


def generate_ou_rows(
    n_times: int = 20,
    n_samples: int = 1000,
    seed: int = 0,
) -> List[Tuple[float, float]]:
    """Samples from the spring-relaxation process variance law 2(1 - exp(-2t)).

    Snapshots at n_times equal steps from t=0.1 to t=1; each snapshot draws
    n_samples i.i.d. centered normals with the process variance at its time.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for t in np.linspace(0.1, 1.0, n_times):
        sigma = np.sqrt(2.0 * (1.0 - np.exp(-2.0 * t)))
        for x in rng.normal(0.0, sigma, size=n_samples):
            rows.append((float(t), float(x)))
    return rows


def generate_mixture_toy() -> dict:
    """Fixed four-atom basis with four drifting-weight snapshots (deterministic)."""
    means = [-3.0, -1.0, 1.0, 3.0]
    stds = [0.40, 0.50, 0.45, 0.55]
    basis = [{"mean": [m], "covariance": [[s * s]]} for m, s in zip(means, stds)]
    snapshots = [
        {"t": 0.1, "weights": [0.70, 0.20, 0.07, 0.03]},
        {"t": 1.0 / 3.0, "weights": [0.45, 0.30, 0.15, 0.10]},
        {"t": 2.0 / 3.0, "weights": [0.10, 0.15, 0.30, 0.45]},
        {"t": 0.9, "weights": [0.03, 0.07, 0.20, 0.70]},
    ]
    return {"basis": basis, "snapshots": snapshots}


# ---------------------------------------------------------------------------
# Atomic, deterministic file writes
# ---------------------------------------------------------------------------


def _atomic_write(path: str, payload: str) -> None:
    """Write ``payload`` to a temporary file beside ``path``, then rename it over ``path``.

    The temporary is made as ``tempfile.mkstemp`` makes one: a random name
    (.tmp- and 16 hex digits), mode 0o600, created exclusively and not through
    a symlink, so a name already taken raises FileExistsError. The directory
    is created only when that open finds it missing.
    """
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW
    try:
        fd = os.open(tmp, flags, 0o600)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(tmp), exist_ok=True)
        fd = os.open(tmp, flags, 0o600)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    """Write compact one-line JSON deterministically (sorted keys, repr floats) via temp+rename.

    A NaN or infinite float raises ValueError: the file is always strict JSON.
    ``obj`` must be a tree (no container inside itself); the encoder does not
    check for cycles, which saves its bookkeeping on every list and dict.
    """
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False, check_circular=False)
    _atomic_write(path, text + "\n")


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Write a CSV deterministically via temp+rename."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_sample_csv(path: str, rows: Sequence[Tuple[float, float]]) -> None:
    write_csv(path, ["t", "x1"], [(t,) + tuple(np.atleast_1d(x)) for t, x in rows])
