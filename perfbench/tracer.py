"""Spans recorded from outside the program, and the per-layer metrics built from them.

The tracer replaces a function at the name its caller looks it up under
(for example ``curve_regression.sinkhorn_solve``, which the regression code
imported from ``mm_sinkhorn``), so no file of the program changes. Every call
through a wrapped name becomes a span with a parent id; spans stay in memory
until the run ends.

A hook whose name no longer exists is recorded as absent. A metric all of
whose hooks are absent is reported with the value ``ABSENT`` (-1) and listed
by name, so a refactor that renames a layer shows up instead of reading as a
zero. A layer that exists but is not called by a workload reads 0.
"""

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

ABSENT = -1.0


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with a parent stack (one thread)."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.absent: List[str] = []
        self.installed: set = set()
        self._restore: List[Tuple[object, str, object]] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str, span_name: str, on_result: Optional[Callable] = None) -> None:
        """Route calls of ``module.attr`` through a span named ``span_name``."""
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent.append(f"{module.__name__}.{attr}")
            return
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.begin(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        setattr(module, attr, traced)
        self.installed.add(span_name)
        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def to_json(self) -> dict:
        return {
            "absent_hooks": list(self.absent),
            "spans": [[s.id, s.parent, s.name, s.start, s.end, s.counters] for s in self.spans],
        }


# ---------------------------------------------------------------------------
# Hooks: (module looked up by the caller, attribute, span name, counter callback)
# ---------------------------------------------------------------------------


def _count_rows(span, args, kwargs, result):
    span.counters["rows"] = len(result[1])


def _count_bytes(span, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    span.counters["bytes"] = os.path.getsize(path)


def _solver_state(span, args, kwargs, result):
    n, p, x = result.kernels.log_kernels.shape
    span.counters.update(
        sweeps=int(result.iterations),
        log_domain=int(bool(result.used_log_domain)),
        converged=int(bool(result.converged)),
        kernel_bytes=int(result.kernels.log_kernels.nbytes),
        flops_per_sweep=4 * n * p * x,
    )


def _power_iterations(span, args, kwargs, result):
    span.counters["iterations"] = int(result.iterations)


def _admm_iterations(span, args, kwargs, result):
    span.counters["iterations"] = int(result[0].diagnostics.iterations)


HOOKS = [
    ("dataio", "read_snapshot_rows", "dataio.parse", _count_rows),
    ("dataio", "load_snapshots", "dataio.load", None),
    ("dataio", "load_mixture_dataset", "dataio.load", _count_rows),
    ("dataio", "write_json", "dataio.write", _count_bytes),
    ("dataio", "write_csv", "dataio.write", _count_bytes),
    ("dataio", "measure_from_samples", "measures.quantize", None),
    ("curve_regression", "build_kernels", "mm_sinkhorn.kernel_build", None),
    ("gmm_regression", "kernels_from_costs", "mm_sinkhorn.kernel_build", None),
    ("curve_regression", "sinkhorn_solve", "mm_sinkhorn.solve", _solver_state),
    ("gmm_regression", "sinkhorn_solve", "mm_sinkhorn.solve", _solver_state),
    ("curve_regression", "extract_param_coupling", "mm_sinkhorn.extract", None),
    ("gmm_regression", "extract_param_coupling", "mm_sinkhorn.extract", None),
    ("cli", "fit", "curve_regression.fit", None),
    ("pfo_estimation", "fit", "curve_regression.fit", None),
    ("cli", "objective_true", "curve_regression.objective_true", None),
    ("cli", "marginal_at", "curve_regression.marginal_at", None),
    ("curve_regression", "marginal_at", "curve_regression.marginal_at", None),
    ("cli", "estimate_transition", "pfo_estimation.estimate", None),
    ("cli", "stationary_distribution", "pfo_estimation.stationary", _power_iterations),
    ("gmm_regression", "geodesic_cost_table", "gmm_regression.cost_table", None),
    ("cli", "fit_mixture_curve", "gmm_regression.fit", None),
    ("cli", "fit_gaussian_sdp", "gaussian_regression.sdp", _admm_iterations),
    ("gaussian_regression", "project_psd", "linalg.project_psd", None),
]


def install(tracer: Tracer, package) -> None:
    """Wrap every hook of ``package`` (the imported ``wasscurve`` package)."""
    for module_name, attr, span_name, on_result in HOOKS:
        module = getattr(package, module_name, None)
        if module is None:
            tracer.absent.append(f"{package.__name__}.{module_name}.{attr}")
            continue
        tracer.wrap(module, attr, span_name, on_result)


# ---------------------------------------------------------------------------
# Per-layer metrics: name -> (unit, spans it is computed from). A metric whose
# spans all lack a hook is absent. Units ending in ".computed" are derived
# from shapes and counts, not measured.
# ---------------------------------------------------------------------------

PER_LAYER = {
    "cli.run_s": ("s", ["cli.run"]),
    "cli.self_s": ("s", ["cli.run"]),
    "dataio.parse_s": ("s", ["dataio.parse"]),
    "dataio.load_s": ("s", ["dataio.load"]),
    "dataio.rows": ("count", ["dataio.parse", "dataio.load"]),
    "dataio.rows_per_s": ("1/s", ["dataio.parse", "dataio.load"]),
    "dataio.write_s": ("s", ["dataio.write"]),
    "dataio.bytes_written": ("bytes", ["dataio.write"]),
    "measures.quantize_s": ("s", ["measures.quantize"]),
    "measures.quantize_calls": ("count", ["measures.quantize"]),
    "mm_sinkhorn.kernel_build_s": ("s", ["mm_sinkhorn.kernel_build"]),
    "mm_sinkhorn.solve_s": ("s", ["mm_sinkhorn.solve"]),
    "mm_sinkhorn.extract_s": ("s", ["mm_sinkhorn.extract"]),
    "mm_sinkhorn.sweeps": ("count", ["mm_sinkhorn.solve"]),
    "mm_sinkhorn.log_domain": ("count", ["mm_sinkhorn.solve"]),
    "mm_sinkhorn.converged": ("count", ["mm_sinkhorn.solve"]),
    "mm_sinkhorn.sweep_s": ("s", ["mm_sinkhorn.solve"]),
    "mm_sinkhorn.kernel_bytes": ("bytes.computed", ["mm_sinkhorn.solve"]),
    "mm_sinkhorn.flops_per_sweep": ("flop.computed", ["mm_sinkhorn.solve"]),
    "mm_sinkhorn.gflops": ("GFLOP/s.computed", ["mm_sinkhorn.solve"]),
    "curve_regression.fit_s": ("s", ["curve_regression.fit"]),
    "curve_regression.self_s": ("s", ["curve_regression.fit"]),
    "curve_regression.objective_true_s": ("s", ["curve_regression.objective_true"]),
    "curve_regression.marginal_at_s": ("s", ["curve_regression.marginal_at"]),
    "pfo_estimation.estimate_s": ("s", ["pfo_estimation.estimate"]),
    "pfo_estimation.stationary_s": ("s", ["pfo_estimation.stationary"]),
    "pfo_estimation.power_iterations": ("count", ["pfo_estimation.stationary"]),
    "gmm_regression.cost_table_s": ("s", ["gmm_regression.cost_table"]),
    "gmm_regression.fit_s": ("s", ["gmm_regression.fit"]),
    "gaussian_regression.sdp_s": ("s", ["gaussian_regression.sdp"]),
    "gaussian_regression.admm_iterations": ("count", ["gaussian_regression.sdp"]),
    "gaussian_regression.admm_iter_s": ("s", ["gaussian_regression.sdp"]),
    "linalg.project_psd_s": ("s", ["linalg.project_psd"]),
    "linalg.project_psd_calls": ("count", ["linalg.project_psd"]),
    # traced minus untraced wall time; filled in by the harness
    "trace_overhead_s": ("s", []),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of one traced call, and the names reported absent.

    ``trace_overhead_s`` needs untraced calls as well and is filled in by the
    harness.
    """
    hooked = tracer.installed | {"cli.run"}
    total: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    counters: Dict[str, float] = {}
    children: Dict[int, float] = {}
    for s in tracer.spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in s.counters.items():
            counters[f"{s.name}.{key}"] = counters.get(f"{s.name}.{key}", 0) + value
        if s.parent is not None:
            children[s.parent] = children.get(s.parent, 0.0) + s.duration

    def self_time(name: str) -> float:
        return sum(s.duration - children.get(s.id, 0.0) for s in tracer.spans if s.name == name)

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def c(key: str) -> float:
        return counters.get(key, 0)

    rows = c("dataio.parse.rows") + c("dataio.load.rows")
    rows_time = sum(s.duration for s in tracer.spans if "rows" in s.counters)
    sweeps = c("mm_sinkhorn.solve.sweeps")
    admm = c("gaussian_regression.sdp.iterations")
    metrics = {
        "cli.run_s": t("cli.run"),
        "cli.self_s": self_time("cli.run"),
        "dataio.parse_s": t("dataio.parse"),
        "dataio.load_s": t("dataio.load"),
        "dataio.rows": rows,
        "dataio.rows_per_s": _ratio(rows, rows_time),
        "dataio.write_s": t("dataio.write"),
        "dataio.bytes_written": c("dataio.write.bytes"),
        "measures.quantize_s": t("measures.quantize"),
        "measures.quantize_calls": calls.get("measures.quantize", 0),
        "mm_sinkhorn.kernel_build_s": t("mm_sinkhorn.kernel_build"),
        "mm_sinkhorn.solve_s": t("mm_sinkhorn.solve"),
        "mm_sinkhorn.extract_s": t("mm_sinkhorn.extract"),
        "mm_sinkhorn.sweeps": sweeps,
        "mm_sinkhorn.log_domain": c("mm_sinkhorn.solve.log_domain"),
        "mm_sinkhorn.converged": c("mm_sinkhorn.solve.converged"),
        "mm_sinkhorn.sweep_s": _ratio(t("mm_sinkhorn.solve"), sweeps),
        "mm_sinkhorn.kernel_bytes": c("mm_sinkhorn.solve.kernel_bytes"),
        "mm_sinkhorn.flops_per_sweep": c("mm_sinkhorn.solve.flops_per_sweep"),
        "mm_sinkhorn.gflops": _ratio(_flops(tracer), t("mm_sinkhorn.solve")) / 1e9,
        "curve_regression.fit_s": t("curve_regression.fit"),
        "curve_regression.self_s": self_time("curve_regression.fit"),
        "curve_regression.objective_true_s": t("curve_regression.objective_true"),
        "curve_regression.marginal_at_s": t("curve_regression.marginal_at"),
        "pfo_estimation.estimate_s": t("pfo_estimation.estimate"),
        "pfo_estimation.stationary_s": t("pfo_estimation.stationary"),
        "pfo_estimation.power_iterations": c("pfo_estimation.stationary.iterations"),
        "gmm_regression.cost_table_s": t("gmm_regression.cost_table"),
        "gmm_regression.fit_s": t("gmm_regression.fit"),
        "gaussian_regression.sdp_s": t("gaussian_regression.sdp"),
        "gaussian_regression.admm_iterations": admm,
        "gaussian_regression.admm_iter_s": _ratio(t("gaussian_regression.sdp"), admm),
        "linalg.project_psd_s": t("linalg.project_psd"),
        "linalg.project_psd_calls": calls.get("linalg.project_psd", 0),
    }
    absent = [name for name, (_, spans) in PER_LAYER.items() if spans and not any(s in hooked for s in spans)]
    for name in absent:
        metrics[name] = ABSENT
    return metrics, absent


def _flops(tracer: Tracer) -> float:
    return sum(
        s.counters["flops_per_sweep"] * s.counters["sweeps"] for s in tracer.spans if s.name == "mm_sinkhorn.solve"
    )

