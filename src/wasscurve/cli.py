"""Command-line interface tying the solvers into reproducible experiment runs.

Commands: regress, gaussian, gmm, invariant, distance, generate. Each takes
only the flags of the config fields it reads (COMMANDS). Every run echoes
those fields, defaults included, writes results atomically, and is
byte-deterministic for a fixed config and seed (wall-clock time is logged,
never written to files). Exit codes map machine-readable error categories:
io=2, schema=3, precondition=4, solver-divergence=5.
"""

import argparse
import copy
import json
import locale  # noqa: F401 -- argparse's gettext imports it when the first parser is built; load it with the module
import logging
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import dataio
from .curve_regression import SolverConfig, curve_from_name, fit, marginal_at, objective_true
from .dataio import SchemaError
from .gaussian_regression import biased_covariance, fit_gaussian_sdp, gaussian_1d_parametric_oracle
from .gmm_regression import AtomSet, fit_mixture_curve, mixture_marginal_at
from .measures import DiscreteMeasure, SupportGrid
from .mm_sinkhorn import SolverError
from .two_marginal import exact_w2_supported, two_marginal_w2, two_marginal_w2_exact
from .pfo_estimation import (
    BoxPartition,
    arcsine_box_masses,
    estimate_transition,
    generate_logistic_rows,
    stationary_distribution,
)

logger = logging.getLogger(__name__)

COUPLING_MASS_THRESHOLD = 1e-9
CATEGORY_EXIT = {"io": 2, "schema": 3, "precondition": 4, "solver-divergence": 5}
REQUIRED = object()  # the default of a field that has none: RunConfig and the command line must give it


class RunConfig:
    """Configuration of one run: exactly the fields its command declares in COMMANDS.

    ``RunConfig(command, **fields)`` fills each field not given with the
    command's default; a field the command does not read is a TypeError.
    """

    def __init__(self, command: str, **fields):
        if command not in COMMANDS:
            raise ValueError(f"unknown command {command!r}")
        declared = COMMANDS[command].defaults
        unknown = sorted(set(fields) - set(declared))
        if unknown:
            raise TypeError(f"{command} reads no field {unknown[0]!r}")
        missing = [name for name, default in declared.items() if default is REQUIRED and name not in fields]
        if missing:
            raise TypeError(f"{command} needs the field {missing[0]!r}")
        self.command = command
        for name, default in declared.items():
            setattr(self, name, fields[name] if name in fields else copy.copy(default))

    def validate(self) -> None:
        for name in ("epsilon", "tol"):
            if name in COMMANDS[self.command].defaults and not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")

    def echo(self) -> dict:
        doc = {"command": self.command}
        for name in COMMANDS[self.command].defaults:
            value = getattr(self, name)
            if isinstance(value, dict):
                value = {k: list(v) for k, v in sorted(value.items())}
            doc[name] = list(value) if isinstance(value, tuple) else value
        return doc


@dataclass
class ResultBundle:
    """Everything one run produced: objectives, coupling, marginals, diagnostics, and its CSV tables.

    ``tables`` maps a file name to the header and rows written under that name
    beside result.json; it is not part of result.json.
    """

    command: str
    objectives: Dict[str, float]
    diagnostics: Dict[str, object]
    config_echo: dict = field(default_factory=dict)
    coupling_entries: List[List[float]] = field(default_factory=list)
    coupling_emitted_mass: float = 0.0
    marginals: List[dict] = field(default_factory=list)
    tables: Dict[str, Tuple[List[str], List[tuple]]] = field(default_factory=dict)

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
    idx = np.nonzero(weights > COUPLING_MASS_THRESHOLD)
    values = weights[idx].tolist()
    entries = [list(entry) for entry in zip(*(i.tolist() for i in idx), values)]
    return entries, float(sum(values))


def _grid_from_spec(spec: Tuple[float, float, int], dim: int) -> SupportGrid:
    lo, hi, n = spec
    return SupportGrid.tensor([np.linspace(lo, hi, int(n))] * dim)


def _lambda_dict(config: RunConfig) -> Optional[Dict[float, float]]:
    return dataio.load_lambda_file(config.lambda_file) if config.lambda_file else None


def _check_grids(config: RunConfig, names: Sequence[str], min_points: int) -> None:
    """Reject a --grid whose NAME this run does not use, or whose LO:HI:N is unusable."""
    for name, (lo, hi, n) in config.grids.items():
        if name not in names:
            raise ValueError(f"--grid {name}: not a grid of this run (its grids: {', '.join(names)})")
        if hi <= lo:
            raise ValueError(f"grid {name}: need hi > lo")
        if n < min_points:
            raise ValueError(f"grid {name}: {config.command} needs at least {min_points} points per axis")


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


def _run_regress(config: RunConfig) -> ResultBundle:
    curve = curve_from_name(config.curve)
    _check_grids(config, ("data", "x0", "x1", "x2")[: 1 + curve.n_params], min_points=2)
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
    tables = {}
    header = [f"x{i + 1}" for i in range(dataset.dim)] + ["weight"]
    for t in config.query_times:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # extrapolation is flagged in the payload
            measure = marginal_at(result, float(t), dataset.grid)
        marginals.append(_marginal_payload(float(t), measure))
        points, weights = measure.grid.points.tolist(), measure.weights.tolist()
        tables[f"marginal_t{float(t):g}.csv"] = (header, [(*p, w) for p, w in zip(points, weights)])
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
        coupling_entries=entries,
        coupling_emitted_mass=emitted,
        marginals=marginals,
        tables=tables,
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
    lams = dataio.snapshot_lambdas(_lambda_dict(config), [t for t, _, _ in moments])
    n = len(moments)
    data = [(t / horizon, lam, cov) for (t, _, cov), lam in zip(moments, lams)]
    means = [mean for _, mean, _ in moments]
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
    )
    bundle.marginals = [
        {"t": t, "extrapolated": bool(t < 0 or t > 1), "mean": m, "covariance": c} for t, m, c in curve_rows
    ]
    return bundle


def _run_gmm(config: RunConfig) -> ResultBundle:
    basis, rows = dataio.load_mixture_dataset(config.input)
    atoms = AtomSet.from_atoms(basis)
    horizon = max(r[0] for r in rows)
    if horizon > 1.0:
        rows = [(t / horizon, lam, w) for t, lam, w in rows]
    result = fit_mixture_curve(rows, atoms, epsilon=config.epsilon, tol=config.tol, max_iter=config.max_iter)
    entries, emitted = _sparse_entries(result.coupling.weights)
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
            "fit_objective": float(transition.fit.objective),
            "stationary_residual": float(stationary.residual),
        },
        diagnostics={
            "iterations": int(transition.fit.iterations),
            "marginal_residual": float(transition.fit.residual),
            "converged": bool(transition.fit.converged),
            "power_iterations": int(stationary.iterations),
            "damped": bool(stationary.damped),
            "boxes": config.boxes,
            "coupling_kind": "transition_matrix",
            "n_snapshots": len(dataset),
        },
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
    columns, header = [centers, stationary.vector], ["center", "mass"]
    if 0.0 <= lo and hi <= 1.0:
        arcsine = arcsine_box_masses(partition)
        bundle.diagnostics["arcsine_reference"] = [float(v) for v in arcsine]
        columns.append(arcsine)
        header.append("arcsine_mass")
    bundle.tables["stationary.csv"] = (header, list(zip(*columns)))
    return bundle


def _single_measure(path: str, grid: Optional[SupportGrid]) -> DiscreteMeasure:
    dataset = dataio.load_snapshots(path, grid=grid)
    if len(dataset) != 1:
        raise ValueError(f"{path}: distance command needs exactly one timestamp per file")
    return dataset.measures[0]


def _run_distance(config: RunConfig) -> ResultBundle:
    _check_grids(config, ("data",), min_points=1)
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
    )


def _run_generate(config: RunConfig) -> ResultBundle:
    if config.kind == "ou":
        n_times = config.snapshots if config.snapshots is not None else 20
        rows = dataio.generate_ou_rows(n_times=n_times, n_samples=config.particles, seed=config.seed)
        dataio.write_sample_csv(config.output, rows)
    elif config.kind == "logistic":
        n_snap = config.snapshots if config.snapshots is not None else 6
        rows = generate_logistic_rows(r=config.r, n_snapshots=n_snap, n_particles=config.particles, seed=config.seed)
        dataio.write_sample_csv(config.output, rows)
    elif config.kind == "mixture-toy":
        dataio.write_json(config.output, dataio.generate_mixture_toy())
    else:
        raise ValueError(f"unknown generator {config.kind!r}")
    return ResultBundle(
        command="generate",
        objectives={},
        diagnostics={"kind": config.kind, "path": config.output},
    )


def _parse_grids(values: Sequence[str]) -> Dict[str, Tuple[float, float, int]]:
    grids: Dict[str, Tuple[float, float, int]] = {}
    for raw in values:
        name, _, spec = raw.rpartition("=")
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"spec must be LO:HI:N (got {spec!r})")
        lo, hi = float(parts[0]), float(parts[1])
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"LO and HI must be finite (got {spec!r})")
        grids[name or "data"] = (lo, hi, int(parts[2]))
    return grids


def _parse_times(text: str) -> Tuple[float, ...]:
    times = tuple(float(tok) for tok in text.split(",") if tok.strip())
    if not all(map(math.isfinite, times)):
        raise ValueError(f"times must be finite (got {text!r})")
    return times


def _parse_domain(text: str) -> Tuple[float, float]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError(f"expected LO:HI (got {text!r})")
    bounds = float(lo), float(hi)
    if not all(map(math.isfinite, bounds)):
        raise ValueError(f"LO and HI must be finite (got {text!r})")
    return bounds


# Config field -> (option string, add_argument keywords, parser of the flag's
# text). Text with a parser is converted after argparse, so that a malformed
# value is a precondition error (exit 4) whose message names the flag.
_FLAGS = {
    "input": ("--input", {}, None),
    "input_b": ("--input-b", {}, None),
    "kind": ("kind", {"choices": ["ou", "logistic", "mixture-toy"]}, None),
    "curve": ("--curve", {"choices": ["linear", "quadratic"]}, None),
    "boxes": ("--boxes", {"type": int}, None),
    "domain": ("--domain", {"help": "LO:HI interval to partition"}, _parse_domain),
    "epsilon": ("--epsilon", {"type": float}, None),
    "tol": ("--tol", {"type": float}, None),
    "max_iter": ("--max-iter", {"type": int}, None),
    "grids": ("--grid", {"action": "append", "metavar": "[NAME=]LO:HI:N", "help": "repeatable"}, _parse_grids),
    "lambda_file": ("--lambda-file", {}, None),
    "query_times": ("--query-times", {"help": "comma-separated times for marginal output"}, _parse_times),
    "output": ("--output", {}, None),
    "r": ("--r", {"type": float}, None),
    "snapshots": ("--snapshots", {"type": int, "help": "default: 20 for ou, 6 for logistic"}, None),
    "particles": ("--particles", {"type": int}, None),
    "seed": ("--seed", {"type": int}, None),
}


@dataclass(frozen=True)
class Command:
    """One subcommand: its run function and each config field it reads, with that field's default."""

    help: str
    run: Callable[[RunConfig], ResultBundle]
    defaults: Dict[str, object]
    options: Dict[str, str] = field(default_factory=dict)  # option strings that differ from _FLAGS

    def option(self, name: str) -> str:
        return self.options.get(name, _FLAGS[name][0])


COMMANDS = {
    "regress": Command("fit a measure-valued curve to snapshot data", _run_regress, dict(
        input=REQUIRED, curve="linear", epsilon=0.1, tol=1e-8, max_iter=10000, grids={},
        lambda_file=None, query_times=(), output=None)),
    "gaussian": Command("Gaussian-case regression via the covariance SDP", _run_gaussian, dict(
        input=REQUIRED, curve="linear", tol=1e-8, max_iter=50000,
        lambda_file=None, query_times=(), output=None)),
    "gmm": Command("mixture regression over a Gaussian basis", _run_gmm, dict(
        input=REQUIRED, epsilon=0.1, tol=1e-8, max_iter=10000, query_times=(), output=None)),
    "invariant": Command("transition matrix and invariant measure from snapshots", _run_invariant, dict(
        input=REQUIRED, boxes=100, domain=(0.0, 1.0), epsilon=0.05, tol=1e-8, max_iter=10000,
        lambda_file=None, output=None)),
    "distance": Command("transport distance between two snapshot files", _run_distance, dict(
        input=REQUIRED, input_b=REQUIRED, epsilon=0.1, tol=1e-8, max_iter=10000, grids={}, output=None),
        options={"input": "--input-a"}),
    "generate": Command("write a bundled experiment dataset", _run_generate, dict(
        kind=REQUIRED, output=REQUIRED, r=3.0, snapshots=None, particles=1000, seed=0)),
}


def run(config: RunConfig) -> ResultBundle:
    """Execute one configured run and write its output files."""
    config.validate()
    start = time.perf_counter()
    bundle = COMMANDS[config.command].run(config)
    bundle.config_echo = config.echo()
    elapsed = time.perf_counter() - start
    logger.info("%s finished in %.3f s", config.command, elapsed)  # wall time is logged, never written
    if config.output and config.command != "generate":
        os.makedirs(config.output, exist_ok=True)
        dataio.write_json(os.path.join(config.output, "result.json"), bundle.to_json_dict())
        for name, (header, rows) in bundle.tables.items():
            dataio.write_csv(os.path.join(config.output, name), header, rows)
        if bundle.objectives:
            dataio.write_csv(
                os.path.join(config.output, "objectives.csv"),
                ["name", "value"],
                sorted(bundle.objectives.items()),
            )
    return bundle


def _build_parser(argv: Optional[Sequence[str]] = None) -> argparse.ArgumentParser:
    """The CLI parser. Given the command line, it adds flags only to the command it names (when
    argv[0] is one); every command's subparser is still there, so help and errors read the same.
    No parser takes abbreviations: each flag has one spelling, and a prefix such as --lambda is
    rejected, not read as --lambda-file."""
    parser = argparse.ArgumentParser(prog="wasscurve", description=__doc__.splitlines()[0], allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    invoked = argv[0] if argv and argv[0] in COMMANDS else None
    for command, spec in COMMANDS.items():
        # a flag left out is absent from the parsed namespace, and RunConfig fills in its default
        p = sub.add_parser(command, help=spec.help, argument_default=argparse.SUPPRESS, allow_abbrev=False)
        if invoked not in (None, command):
            continue
        for name, default in spec.defaults.items():
            option, kwargs = spec.option(name), _FLAGS[name][1]
            if option.startswith("--"):
                kwargs = dict(kwargs, dest=name, required=default is REQUIRED)
            p.add_argument(option, **kwargs)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = dict(vars(args))
    command = fields.pop("command")
    for name, text in list(fields.items()):
        parse = _FLAGS[name][2]
        if parse is not None:
            try:
                fields[name] = parse(text)
            except ValueError as exc:
                raise ValueError(f"{COMMANDS[command].option(name)}: {exc}") from None
    return RunConfig(command, **fields)


def _configure_logging() -> None:
    level = os.environ.get("WASSCURVE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(levelname)s %(name)s: %(message)s")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    _configure_logging()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
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
