"""The benchmark's tracer wraps program functions by name; every name it hooks
must exist, and every counter callback must read what the hooked call returns."""

import importlib.util
from pathlib import Path

import wasscurve
import wasscurve.cli as cli
from wasscurve.kernels import FactoredKernelSet

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_hook_resolves():
    hooks = _load_tracer().HOOKS
    assert hooks
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _, _ in hooks
        if not callable(getattr(getattr(wasscurve, module_name, None), attr, None))
    ]
    assert missing == []


def test_every_counter_callback_reads_real_results(tmp_path):
    """The four benchmark commands, on small inputs, through cli.main with every hook installed.

    Each callback must run on what its hooked call returned and set its
    counters. ``regress`` and ``invariant`` solve on factored kernel sets, so
    the solver callback reads a FactoredKernelSet's state. Only that the
    callbacks run is checked: on a factored set the tracer's kernel_bytes and
    flops_per_sweep describe the dense log kernels it builds on first use,
    not the factors the solve held.
    """
    tracing = _load_tracer()
    for argv in (
        ["ou", "--particles", "100", "--snapshots", "4", "--output", str(tmp_path / "ou.csv")],
        ["logistic", "--snapshots", "4", "--particles", "200", "--output", str(tmp_path / "logistic.csv")],
        ["mixture-toy", "--output", str(tmp_path / "mixture.json")],
    ):
        assert cli.main(["generate", *argv]) == 0
    calls = {}

    def recorded(hook, on_result):
        def record(span, args, kwargs, result):
            on_result(span, args, kwargs, result)
            assert span.counters and all(value >= 0 for value in span.counters.values()), hook
            calls.setdefault(hook, []).append(result)

        return record

    tracing.HOOKS = [
        (module, attr, span, on_result and recorded(f"{module}.{attr}", on_result))
        for module, attr, span, on_result in tracing.HOOKS
    ]
    tracer = tracing.Tracer()
    tracing.install(tracer, wasscurve)
    try:
        for k, argv in enumerate([
            ["regress", "--input", str(tmp_path / "ou.csv"), "--query-times", "0,1"],
            ["invariant", "--input", str(tmp_path / "logistic.csv"), "--boxes", "30"],
            ["gmm", "--input", str(tmp_path / "mixture.json"), "--max-iter", "30000"],
            ["gaussian", "--input", str(tmp_path / "ou.csv"), "--tol", "1e-4"],
        ]):
            assert cli.main([*argv, "--output", str(tmp_path / f"out{k}")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert sorted(calls) == sorted(f"{m}.{a}" for m, a, _, on_result in tracing.HOOKS if on_result is not None)
    assert any(isinstance(state.kernels, FactoredKernelSet) for state in calls["curve_regression.sinkhorn_solve"])
    assert tracing.layer_metrics(tracer)[1] == []
