#!/usr/bin/env python3
"""Invariant-measure estimation for the logistic map from snapshots alone.

A particle cloud starts uniform on [0, 1] and evolves under x -> r x (1 - x);
only box-counted distribution snapshots are kept, never trajectories. A
measure-valued line fit gives an endpoint coupling, its disintegration a
transition matrix, and power iteration the estimated invariant measure.

r=3: mass should gather around the stable fixed point 2/3.
r=4: the estimate is compared to the closed-form arcsine density.
"""

import os

import numpy as np

from wasscurve.curve_regression import SolverConfig
from wasscurve.dataio import write_csv
from wasscurve.pfo_estimation import (
    BoxPartition,
    arcsine_box_masses,
    estimate_transition,
    logistic_map,
    mass_near,
    snapshots_from_map,
    stationary_distribution,
)


def run_pipeline(r, n_snapshots, boxes, epsilon, seed=0):
    part = BoxPartition(0.0, 1.0, boxes)
    ds = snapshots_from_map(lambda x: logistic_map(x, r), 1000, n_snapshots, part, seed=seed)
    tm = estimate_transition(ds, SolverConfig(epsilon=epsilon, tol=1e-8))
    st = stationary_distribution(tm)
    return part, tm, st


def main(outdir="demo_output"):
    os.makedirs(outdir, exist_ok=True)

    part, tm, st = run_pipeline(3.0, 6, 100, 0.05)
    centers = part.centers.points[:, 0]
    peak = centers[int(np.argmax(st.vector))]
    print(f"r=3 (N=6, 100 boxes, eps=0.05): stationary peak at x={peak:.3f} "
          f"(fixed point 2/3 = {2/3:.3f}), fit objective {tm.fit.objective:.4f}")
    print(f"    mass in the 5 boxes nearest 2/3: {mass_near(st.vector, part, 2/3, 5):.4f}")
    print("    sensitivity (mass near 2/3):")
    for n_snap in (3, 6, 9):
        _, _, s = run_pipeline(3.0, n_snap, 100, 0.05)
        print(f"      N={n_snap}: {mass_near(s.vector, part, 2/3, 5):.4f}")
    for eps in (0.2, 0.1, 0.03):
        _, _, s = run_pipeline(3.0, 6, 100, eps)
        print(f"      eps={eps}: {mass_near(s.vector, part, 2/3, 5):.4f}")
    write_csv(
        os.path.join(outdir, "logistic_r3_stationary.csv"),
        ["center", "mass"],
        list(zip(centers, st.vector)),
    )

    part4, tm4, st4 = run_pipeline(4.0, 5, 50, 0.01)
    reference = arcsine_box_masses(part4)
    l1 = float(np.abs(st4.vector - reference).sum())
    print(f"\nr=4 (N=5, 50 boxes, eps=0.01): L1 distance to the arcsine law = {l1:.4f}")
    print(f"    endpoint boxes carry {st4.vector[0]:.4f} / {st4.vector[-1]:.4f}, "
          f"center box {st4.vector[25]:.4f} (U shape)")
    write_csv(
        os.path.join(outdir, "logistic_r4_stationary.csv"),
        ["center", "mass", "arcsine_mass"],
        list(zip(part4.centers.points[:, 0], st4.vector, reference)),
    )
    print(f"\nwrote CSVs under {outdir}/")


if __name__ == "__main__":
    main()
