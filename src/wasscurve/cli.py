"""Command-line interface tying the solvers into reproducible experiment runs.

Commands: regress, gaussian, gmm, invariant, distance, generate. Every run
echoes its full effective configuration, writes results atomically, and is
byte-deterministic for a fixed config and seed (wall-clock time is logged,
never written to files). Exit codes map machine-readable error categories:
io=2, schema=3, precondition=4, solver-divergence=5.
"""

import argparse
import dataclasses
import json
import locale  # noqa: F401 -- argparse's gettext imports it when the first parser is built; load it with the module
import logging
import os
import sys
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import dataio
from .curve_regression import SolverConfig, curve_from_name, fit, marginal_at, objective_true
from .dataio import SchemaError
from .gaussian_regression import biased_covariance, fit_gaussian_sdp, gaussian_1d_parametric_oracle
from .gmm_regression import fit_mixture_curve, mixture_marginal_at
from .measures import DiscreteMeasure, SupportGrid
from .mm_sinkhorn import SolverError
from .two_marginal import exact_w2_supported, two_marginal_w2, two_marginal_w2_exact
from .pfo_estimation import (
    BoxPartition,
    arcsine_box_masses,
    estimate_transition,
    stationary_distribution,
)

logger = logging.getLogger(__name__)

COUPLING_MASS_THRESHOLD = 1e-9
CATEGORY_EXIT = {"io": 2, "schema": 3, "precondition": 4, "solver-divergence": 5}


@dataclass
class RunConfig:
    """Fully materialized configuration of one CLI run."""

    command: str
    input: Optional[str] = None
    input_b: Optional[str] = None
    output: Optional[str] = None
    curve: str = "linear"
    epsilon: float = 0.1
    tol: float = 1e-8
    max_iter: int = 10000
    lambda_policy: str = "uniform"
    lambda_file: Optional[str] = None
    grids: Dict[str, Tuple[float, float, int]] = field(default_factory=dict)
    query_times: Tuple[float, ...] = ()
    seed: int = 0
    boxes: int = 100
    domain: Tuple[float, float] = (0.0, 1.0)
    kind: Optional[str] = None
    r: float = 3.0
    snapshots: Optional[int] = None
    particles: int = 1000

    def validate(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        for name, (lo, hi, n) in self.grids.items():
            if hi <= lo:
                raise ValueError(f"grid {name}: need hi > lo")
            if self.command in ("regress", "gaussian", "gmm") and n < 2:
                raise ValueError(f"grid {name}: regression commands need at least 2 points per axis")
            if n < 1:
                raise ValueError(f"grid {name}: need at least 1 point")

    def echo(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["grids"] = {k: list(v) for k, v in sorted(self.grids.items())}
        doc["query_times"] = list(self.query_times)
        doc["domain"] = list(self.domain)
        return doc


@dataclass
class ResultBundle:
    """Everything one run produced: objectives, coupling, marginals, diagnostics."""

    command: str
    objectives: Dict[str, float]
    diagnostics: Dict[str, object]
    config_echo: dict
    coupling_entries: List[List[float]] = field(default_factory=list)
    coupling_emitted_mass: float = 0.0
    marginals: List[dict] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "config": self.config_echo,
            "objectives": self.objectives,
            "diagnostics": self.diagnostics,
            "coupling": {
                "threshold": COUPLING_MASS_THRESHOLD,
                "emitted_mass": self.coupling_emitted_mass,
                "entries": self.coupling_entries,
            },
            "marginals": self.marginals,
        }


def _sparse_entries(weights: np.ndarray) -> Tuple[List[List[float]], float]:
    idx = np.argwhere(weights > COUPLING_MASS_THRESHOLD)
    entries = [[int(i) for i in row] + [float(weights[tuple(row)])] for row in idx]
    emitted = float(sum(e[-1] for e in entries))
    return entries, emitted


def _grid_from_spec(spec: Tuple[float, float, int], dim: int) -> SupportGrid:
    lo, hi, n = spec
    return SupportGrid.tensor([np.linspace(lo, hi, int(n))] * dim)


def _lambda_dict(config: RunConfig) -> Optional[Dict[float, float]]:
    if config.lambda_policy == "uniform":
        if config.lambda_file:
            raise ValueError("--lambda-file PATH is read only with --lambda file")
        return None
    if config.lambda_policy == "file":
        if not config.lambda_file:
            raise ValueError("--lambda file needs --lambda-file PATH")
        return dataio.load_lambda_file(config.lambda_file)
    raise ValueError(f"unknown lambda policy {config.lambda_policy!r}")


def _param_grids(config: RunConfig, dataset, curve) -> Optional[List[SupportGrid]]:
    from .curve_regression import default_param_grids

    names = ["x0", "x1", "x2"][: curve.n_params]
    if not any(n in config.grids for n in names):
        return None
    grids = default_param_grids(dataset, curve)
    for slot, name in enumerate(names):
        if name in config.grids:
            grids[slot] = _grid_from_spec(config.grids[name], dataset.dim)
    return grids


def _marginal_payload(t: float, measure: DiscreteMeasure) -> dict:
    return {
        "t": t,
        "extrapolated": bool(t < 0.0 or t > 1.0),
        "points": [list(map(float, p)) for p in np.asarray(measure.grid.points)],
        "weights": [float(w) for w in measure.weights],
    }


def _write_marginal_csvs(outdir: str, marginals: List[dict]) -> None:
    for m in marginals:
        dim = len(m["points"][0])
        header = [f"x{i + 1}" for i in range(dim)] + ["weight"]
        rows = [tuple(p) + (w,) for p, w in zip(m["points"], m["weights"])]
        dataio.write_csv(os.path.join(outdir, f"marginal_t{m['t']:g}.csv"), header, rows)


def _run_regress(config: RunConfig) -> ResultBundle:
    curve = curve_from_name(config.curve)
    data_grid = _grid_from_spec(config.grids["data"], 1) if "data" in config.grids else None
    dataset = dataio.load_snapshots(config.input, grid=data_grid, lambdas=_lambda_dict(config))
    solver = SolverConfig(
        epsilon=config.epsilon,
        tol=config.tol,
        max_iter=config.max_iter,
        param_grids=_param_grids(config, dataset, curve),
    )
    result = fit(dataset, curve, solver)
    objectives = {"surrogate": float(result.objective)}
    if exact_w2_supported(dataset.grid, dataset.grid):  # every marginal lives on the data grid
        objectives["true_w2"] = float(objective_true(result, dataset))
    entries, emitted = _sparse_entries(result.coupling.weights)
    marginals = []
    for t in config.query_times:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # extrapolation is flagged in the payload
            marginals.append(_marginal_payload(float(t), marginal_at(result, float(t), dataset.grid)))
    return ResultBundle(
        command="regress",
        objectives=objectives,
        diagnostics={
            "iterations": int(result.iterations),
            "marginal_residual": float(result.residual),
            "converged": bool(result.converged),
            "epsilon": float(result.epsilon),
            "n_snapshots": len(dataset),
            "grid_points": len(dataset.grid),
        },
        config_echo=config.echo(),
        coupling_entries=entries,
        coupling_emitted_mass=emitted,
        marginals=marginals,
    )


def _moments_by_timestamp(path: str):
    schema, times, weights, positions = dataio.read_snapshot_rows(path)
    order, distinct, groups = dataio.group_by_time(times)
    out = []
    for t, rows in zip(distinct, groups):
        pts = positions[order[rows]]
        wts = weights[order[rows]]
        if schema == "atoms":
            wts = wts / wts.sum()
            mean = wts @ pts
            centered = pts - mean
            cov = (centered * wts[:, None]).T @ centered
        else:
            mean, cov = biased_covariance(pts)
        out.append((t, mean, cov))
    return out


def _run_gaussian(config: RunConfig) -> ResultBundle:
    curve = curve_from_name(config.curve)
    moments = _moments_by_timestamp(config.input)
    horizon = max(t for t, _, _ in moments)
    if horizon <= 0:
        raise ValueError("timestamps must reach past 0")
    lam_map = _lambda_dict(config)
    n = len(moments)
    data = []
    means = []
    for t, mean, cov in moments:
        lam = lam_map.get(t, 1.0 / n) if lam_map else 1.0 / n
        data.append((t / horizon, lam, cov))
        means.append(mean)
    total = sum(row[1] for row in data)
    data = [(t, lam / total, cov) for t, lam, cov in data]
    blocks, gcurve = fit_gaussian_sdp(data, curve, means=means, tol=config.tol, max_iter=config.max_iter)
    objectives = {f"sdp_{curve.kind}": float(blocks.diagnostics.objective)}
    d = gcurve.d
    if d == 1:
        sigmas = [(t, lam, float(np.sqrt(cov[0, 0]))) for (t, lam, cov) in data]
        _, residual = gaussian_1d_parametric_oracle(sigmas)
        objectives["geodesic_1d"] = float(residual)
    query = config.query_times or tuple(float(t) for t, _, _ in data)
    curve_rows = []
    for t in query:
        g = gcurve.gaussian_at(float(t))
        curve_rows.append((float(t), list(map(float, g.mean)), [float(v) for v in g.covariance.ravel()]))
    bundle = ResultBundle(
        command="gaussian",
        objectives=objectives,
        diagnostics={
            "admm_iterations": int(blocks.diagnostics.iterations),
            "primal_residual": float(blocks.diagnostics.primal_residual),
            "dual_residual": float(blocks.diagnostics.dual_residual),
            "n_snapshots": n,
            "dimension": d,
        },
        config_echo=config.echo(),
    )
    bundle.marginals = [
        {"t": t, "extrapolated": bool(t < 0 or t > 1), "mean": m, "covariance": c} for t, m, c in curve_rows
    ]
    return bundle


def _run_gmm(config: RunConfig) -> ResultBundle:
    atoms, rows = dataio.load_mixture_dataset(config.input)
    horizon = max(r[0] for r in rows)
    if horizon > 1.0:
        rows = [(t / horizon, lam, w) for t, lam, w in rows]
    result = fit_mixture_curve(rows, atoms, epsilon=config.epsilon, tol=config.tol, max_iter=config.max_iter)
    entries, emitted = _sparse_entries(result.coupling.w)
    marginals = []
    for t in config.query_times:
        mix = mixture_marginal_at(result.coupling, atoms, float(t))
        marginals.append(
            {
                "t": float(t),
                "extrapolated": False,
                "components": [
                    {
                        "mean": list(map(float, a.mean)),
                        "covariance": [float(v) for v in a.covariance.ravel()],
                        "weight": float(w),
                    }
                    for a, w in zip(mix.atoms, mix.atom_weights)
                ],
            }
        )
    return ResultBundle(
        command="gmm",
        objectives={"surrogate": float(result.objective)},
        diagnostics={
            "iterations": int(result.iterations),
            "marginal_residual": float(result.residual),
            "converged": bool(result.converged),
            "n_atoms": len(atoms),
            "n_snapshots": len(rows),
        },
        config_echo=config.echo(),
        coupling_entries=entries,
        coupling_emitted_mass=emitted,
        marginals=marginals,
    )


def _run_invariant(config: RunConfig) -> ResultBundle:
    lo, hi = config.domain
    partition = BoxPartition(lo, hi, config.boxes)
    dataset = dataio.load_snapshots(config.input, grid=partition.centers, lambdas=_lambda_dict(config))
    solver = SolverConfig(epsilon=config.epsilon, tol=config.tol, max_iter=config.max_iter)
    transition = estimate_transition(dataset, solver)
    stationary = stationary_distribution(transition)
    entries, emitted = _sparse_entries(transition.Q)
    centers = partition.centers.points[:, 0]
    bundle = ResultBundle(
        command="invariant",
        objectives={
            "fit_objective": float(transition.fit_objective),
            "stationary_residual": float(stationary.residual),
        },
        diagnostics={
            "power_iterations": int(stationary.iterations),
            "damped": bool(stationary.damped),
            "boxes": config.boxes,
            "coupling_kind": "transition_matrix",
            "n_snapshots": len(dataset),
        },
        config_echo=config.echo(),
        coupling_entries=entries,
        coupling_emitted_mass=emitted,
    )
    bundle.marginals = [
        {
            "t": None,
            "extrapolated": False,
            "points": [[float(c)] for c in centers],
            "weights": [float(w) for w in stationary.vector],
        }
    ]
    if 0.0 <= lo and hi <= 1.0:
        bundle.diagnostics["arcsine_reference"] = [float(v) for v in arcsine_box_masses(partition)]
    return bundle


def _single_measure(path: str, grid: Optional[SupportGrid]) -> DiscreteMeasure:
    dataset = dataio.load_snapshots(path, grid=grid)
    if len(dataset) != 1:
        raise ValueError(f"{path}: distance command needs exactly one timestamp per file")
    return dataset.measures[0]


def _run_distance(config: RunConfig) -> ResultBundle:
    grid = _grid_from_spec(config.grids["data"], 1) if "data" in config.grids else None
    mu = _single_measure(config.input, grid)
    nu = _single_measure(config.input_b, grid)
    if exact_w2_supported(mu.grid, nu.grid):
        cost, _ = two_marginal_w2_exact(mu, nu)
        method = "exact"
    else:
        cost, _ = two_marginal_w2(mu, nu, config.epsilon, tol=config.tol, max_iter=config.max_iter)
        method = "entropic"
    return ResultBundle(
        command="distance",
        objectives={"w2_squared": float(cost), "w2": float(np.sqrt(max(cost, 0.0)))},
        diagnostics={"method": method},
        config_echo=config.echo(),
    )


def _run_generate(config: RunConfig) -> ResultBundle:
    if not config.output:
        raise ValueError("generate needs --output FILE")
    if config.kind == "ou":
        n_times = config.snapshots if config.snapshots is not None else 20
        rows = dataio.generate_ou_rows(n_times=n_times, n_samples=config.particles, seed=config.seed)
        dataio.write_sample_csv(config.output, rows)
    elif config.kind == "logistic":
        n_snap = config.snapshots if config.snapshots is not None else 6
        rows = dataio.generate_logistic_rows(
            r=config.r, n_snapshots=n_snap, n_particles=config.particles, seed=config.seed
        )
        dataio.write_sample_csv(config.output, rows)
    elif config.kind == "mixture-toy":
        dataio.write_json(config.output, dataio.generate_mixture_toy())
    else:
        raise ValueError(f"unknown generator {config.kind!r}")
    return ResultBundle(
        command="generate",
        objectives={},
        diagnostics={"kind": config.kind, "path": config.output},
        config_echo=config.echo(),
    )


def run(config: RunConfig) -> ResultBundle:
    """Execute one configured run and write its output files."""
    config.validate()
    start = time.perf_counter()
    dispatch = {
        "regress": _run_regress,
        "gaussian": _run_gaussian,
        "gmm": _run_gmm,
        "invariant": _run_invariant,
        "distance": _run_distance,
        "generate": _run_generate,
    }
    if config.command not in dispatch:
        raise ValueError(f"unknown command {config.command!r}")
    bundle = dispatch[config.command](config)
    elapsed = time.perf_counter() - start
    logger.info("%s finished in %.3f s", config.command, elapsed)  # wall time is logged, never written
    if config.output and config.command != "generate":
        os.makedirs(config.output, exist_ok=True)
        dataio.write_json(os.path.join(config.output, "result.json"), bundle.to_json_dict())
        if bundle.marginals and bundle.command in ("regress", "invariant"):
            named = [m for m in bundle.marginals if m.get("t") is not None and "points" in m]
            _write_marginal_csvs(config.output, named)
        if bundle.command == "invariant":
            centers = [p[0] for p in bundle.marginals[0]["points"]]
            weights = bundle.marginals[0]["weights"]
            rows = list(zip(centers, weights))
            header = ["center", "mass"]
            if "arcsine_reference" in bundle.diagnostics:
                header.append("arcsine_mass")
                rows = [r + (a,) for r, a in zip(rows, bundle.diagnostics["arcsine_reference"])]
            dataio.write_csv(os.path.join(config.output, "stationary.csv"), header, rows)
        if bundle.objectives:
            dataio.write_csv(
                os.path.join(config.output, "objectives.csv"),
                ["name", "value"],
                sorted(bundle.objectives.items()),
            )
    return bundle


def _parse_grid_option(values: Optional[Sequence[str]]) -> Dict[str, Tuple[float, float, int]]:
    grids: Dict[str, Tuple[float, float, int]] = {}
    for raw in values or []:
        name, _, spec = raw.rpartition("=")
        name = name or "data"
        if name not in ("data", "x0", "x1", "x2"):
            raise ValueError(f"--grid name must be data, x0, x1 or x2 (got {name!r})")
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"--grid spec must be lo:hi:n (got {spec!r})")
        grids[name] = (float(parts[0]), float(parts[1]), int(parts[2]))
    return grids


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wasscurve", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_curve=True):
        if with_curve:
            p.add_argument("--curve", choices=["linear", "quadratic"], default="linear")
        p.add_argument("--epsilon", type=float, default=0.1)
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--max-iter", type=int, default=10000)
        p.add_argument("--grid", action="append", metavar="[NAME=]LO:HI:N", help="repeatable; NAME in data,x0,x1,x2")
        p.add_argument("--lambda", dest="lambda_policy", choices=["uniform", "file"], default="uniform")
        p.add_argument("--lambda-file")
        p.add_argument("--query-times", default="", help="comma-separated times for marginal output")
        p.add_argument("--output", help="output directory")

    p = sub.add_parser("regress", help="fit a measure-valued curve to snapshot data")
    p.add_argument("--input", required=True)
    add_common(p)

    p = sub.add_parser("gaussian", help="Gaussian-case regression via the covariance SDP")
    p.add_argument("--input", required=True)
    add_common(p)
    p.set_defaults(max_iter=50000)  # ADMM needs a larger budget than Sinkhorn

    p = sub.add_parser("gmm", help="mixture regression over a Gaussian basis")
    p.add_argument("--input", required=True)
    add_common(p, with_curve=False)

    p = sub.add_parser("invariant", help="transition matrix and invariant measure from snapshots")
    p.add_argument("--input", required=True)
    p.add_argument("--boxes", type=int, default=100)
    p.add_argument("--domain", default="0:1", help="LO:HI interval to partition")
    add_common(p, with_curve=False)
    p.set_defaults(epsilon=0.05)

    p = sub.add_parser("distance", help="transport distance between two snapshot files")
    p.add_argument("--input-a", required=True, dest="input")
    p.add_argument("--input-b", required=True)
    add_common(p, with_curve=False)

    p = sub.add_parser("generate", help="write a bundled experiment dataset")
    p.add_argument("kind", choices=["ou", "logistic", "mixture-toy"])
    p.add_argument("--output", required=True)
    p.add_argument("--r", type=float, default=3.0)
    p.add_argument("--snapshots", type=int, help="default: 20 for ou, 6 for logistic")
    p.add_argument("--particles", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    query = tuple(float(tok) for tok in getattr(args, "query_times", "").split(",") if tok.strip())
    domain = (0.0, 1.0)
    if getattr(args, "domain", None):
        lo, _, hi = args.domain.partition(":")
        domain = (float(lo), float(hi))
    cfg = RunConfig(
        command=args.command,
        input=getattr(args, "input", None),
        input_b=getattr(args, "input_b", None),
        output=getattr(args, "output", None),
        curve=getattr(args, "curve", "linear"),
        epsilon=getattr(args, "epsilon", 0.1),
        tol=getattr(args, "tol", 1e-8),
        max_iter=getattr(args, "max_iter", 10000),
        lambda_policy=getattr(args, "lambda_policy", "uniform"),
        lambda_file=getattr(args, "lambda_file", None),
        grids=_parse_grid_option(getattr(args, "grid", None)),
        query_times=query,
        seed=getattr(args, "seed", 0),
        boxes=getattr(args, "boxes", 100),
        domain=domain,
        kind=getattr(args, "kind", None),
        r=getattr(args, "r", 3.0),
        snapshots=getattr(args, "snapshots", None),
        particles=getattr(args, "particles", 1000),
    )
    return cfg


def _configure_logging() -> None:
    level = os.environ.get("WASSCURVE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(levelname)s %(name)s: %(message)s")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        bundle = run(config)
    except SchemaError as exc:
        return _fail("schema", exc)
    except SolverError as exc:
        return _fail("solver-divergence", exc)
    except (FileNotFoundError, PermissionError, IsADirectoryError, OSError) as exc:
        return _fail("io", exc)
    except ValueError as exc:
        return _fail("precondition", exc)
    doc = bundle.to_json_dict()
    print(json.dumps({"command": doc["command"], "objectives": doc["objectives"]}, sort_keys=True))
    return 0


def _fail(category: str, exc: Exception) -> int:
    print(json.dumps({"error": {"category": category, "message": str(exc)}}), file=sys.stderr)
    return CATEGORY_EXIT[category]


if __name__ == "__main__":
    sys.exit(main())
