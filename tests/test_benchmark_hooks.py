"""The benchmark's tracer wraps program functions by name; every name it hooks must exist."""

import importlib.util
from pathlib import Path

import wasscurve
import wasscurve.cli  # noqa: F401 -- the tracer hooks names the CLI module looks up

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
