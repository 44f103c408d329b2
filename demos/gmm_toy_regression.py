#!/usr/bin/env python3
"""Mixture regression over a fixed four-Gaussian basis.

Four snapshots drift their weight from the leftmost atoms to the rightmost.
The fit finds a law over atom-pair displacement interpolations whose one-time
marginals track that drift; the script prints the fitted pair masses and
writes the interpolated mixture densities at a few times.
"""

import os

import numpy as np

import wasscurve as wc
from wasscurve.dataio import generate_mixture_toy, write_csv
from wasscurve.gmm_regression import fit_mixture_curve, mixture_marginal_at


def main(outdir="demo_output"):
    doc = generate_mixture_toy()
    atoms = wc.AtomSet.from_atoms(
        [wc.GaussianMeasure(np.array(b["mean"]), np.array(b["covariance"])) for b in doc["basis"]]
    )
    snapshots = [(s["t"], 0.25, np.array(s["weights"])) for s in doc["snapshots"]]

    result = fit_mixture_curve(snapshots, atoms, epsilon=0.05, tol=1e-8, max_iter=30000)
    print(f"objective {result.objective:.4f} after {result.iterations} sweeps "
          f"(marginal residual {result.residual:.1e})")
    print("\nfitted mass on atom pairs (rows: start atom, columns: end atom):")
    with np.printoptions(precision=3, suppress=True):
        print(result.coupling.weights)

    x = np.linspace(-5.5, 5.5, 401)
    rows = []
    for t in (0.0, 0.1, 1.0 / 3.0, 2.0 / 3.0, 0.9, 1.0):
        mix = mixture_marginal_at(result.coupling, atoms, t)
        dens = mix.pdf_1d(x)
        rows.append((t, dens))
        heaviest = np.argsort(mix.atom_weights)[::-1][:3]
        desc = ", ".join(
            f"{mix.atom_weights[i]:.2f}@{mix.atoms[i].mean[0]:+.2f}" for i in heaviest
        )
        print(f"t={t:.2f}: top components {desc}")

    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "gmm_marginal_densities.csv")
    write_csv(
        path,
        ["x"] + [f"density_t{t:g}" for t, _ in rows],
        [(xv,) + tuple(d[i] for _, d in rows) for i, xv in enumerate(x)],
    )
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
