#!/usr/bin/env python3
"""Measure-valued line fit on Dirac data, checked against plain least squares.

When every snapshot is a single point mass, regression over measure-valued
lines collapses to ordinary Euclidean regression. This script builds such a
dataset, solves the entropic multi-marginal program at a small epsilon, and
compares the transport objective and the heaviest line against the
closed-form normal-equations fit.
"""

import numpy as np

import wasscurve as wc
from wasscurve.curve_regression import SolverConfig, euclidean_regression_oracle, fit, marginal_at


def main():
    timestamps = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    base_line = 0.25 * (1 - timestamps) + 0.75 * timestamps
    values = base_line + 0.125 * np.array([1.0, -1.0, 0.0, -1.0, 1.0])

    grid = wc.SupportGrid(np.array(sorted(set(values) | {0.25, 0.75}))[:, None])
    pts = grid.points[:, 0]
    measures = []
    for v in values:
        w = np.zeros(len(grid))
        w[int(np.argmin(np.abs(pts - v)))] = 1.0
        measures.append(wc.DiscreteMeasure(grid, w))
    dataset = wc.SnapshotDataset(timestamps, tuple(measures), np.full(5, 0.2))

    params, residual = euclidean_regression_oracle(
        [(t, v, 0.2) for t, v in zip(timestamps, values)], wc.LINEAR
    )
    print(f"least-squares fit: x0={params[0, 0]:.4f}, x1={params[1, 0]:.4f}, residual={residual:.6f}")

    result = fit(dataset, wc.LINEAR, SolverConfig(epsilon=4e-4, tol=1e-9, max_iter=20000))
    mode = result.coupling.mode().ravel()
    print(f"transport fit:     objective={result.objective:.6f} "
          f"({result.iterations} sweeps, residual {result.residual:.1e})")
    print(f"heaviest line:     x0={mode[0]:.4f}, x1={mode[1]:.4f}")
    print(f"relative gap to least squares: {abs(result.objective - residual) / residual:.2%}")

    print("\nfitted marginal at t=0.5 (weights on the data grid):")
    mid = marginal_at(result, 0.5, grid)
    for x, w in zip(pts, mid.weights):
        if w > 1e-6:
            print(f"  x={x:.3f}  weight={w:.4f}")


if __name__ == "__main__":
    main()
