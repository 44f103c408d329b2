"""CLI calls forked from one freshly started process, each reported as JSON.

Usage: python3 perfbench/worker.py SPEC_JSON

The process imports ``wasscurve.cli`` (its import time is one ``setup_s``
sample), forks one child per ``cli.main`` call until ``deadline`` (a
``time.monotonic()`` value) has passed, and then makes one last call itself.
Each call meets the program as a CLI user has it right after the import:
whatever the call imports or builds lazily, it pays again. Forking instead of
starting an interpreter per call leaves more calls, so a run's medians are
steadier. The last,
unforked call gives the peak RSS of a fresh process (``"fresh": true``).

SPEC_JSON holds ``argv`` (the ``wasscurve`` command line), ``result`` (the
``result.json`` path that command writes), ``trace`` (0 or 1; with 1, every
odd call index is traced), ``first_index`` (index of the first call),
``deadline``, ``timeout`` (seconds a call may take), ``dir``
(where ``report-<index>.json``, ``spans-<index>.json`` and ``summary.json``
go), ``gauge_fds`` (the pipe to and from the speed gauge of ``speed.py``,
asked for one load before each call), ``machine`` (whether to report
software versions) and ``spawned`` (the parent's ``time.monotonic()`` just
before it started this process). Only the
standard library is imported before ``wasscurve.cli``, so the import time is
the program's own.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback


def main() -> int:
    spec = json.loads(sys.argv[1])
    import wasscurve.cli as cli

    setup_s = time.monotonic() - spec["spawned"]
    summary_path = os.path.join(spec["dir"], "summary.json")
    summary = {"setup_s": setup_s, "gauge": [], "machine": {}}
    write_json(summary_path, summary)
    to_gauge = os.fdopen(spec["gauge_fds"][0], "w")
    from_gauge = os.fdopen(spec["gauge_fds"][1], "r")

    def gauge():
        to_gauge.write("1\n")
        to_gauge.flush()
        summary["gauge"] += json.loads(from_gauge.readline())

    index = spec["first_index"]
    while time.monotonic() < spec["deadline"]:
        gauge()
        if not forked_call(cli, spec, index):
            write_json(summary_path, summary)
            return 0
        index += 1
    # The last call runs in this process itself, so its ru_maxrss is the peak
    # RSS of a fresh process that imports the program and runs one call.
    gauge()
    signal.alarm(spec["timeout"])
    report = one_call(cli, spec, is_traced(spec, index), spans_path(spec, index))
    signal.alarm(0)
    report["fresh"] = True
    write_json(report_path(spec, index), report)
    if spec["machine"]:
        summary["machine"] = _machine()
    write_json(summary_path, summary)
    return 0


def is_traced(spec: dict, index: int) -> bool:
    return bool(spec["trace"]) and index % 2 == 1


def report_path(spec: dict, index: int) -> str:
    return os.path.join(spec["dir"], f"report-{index}.json")


def spans_path(spec: dict, index: int) -> str:
    return os.path.join(spec["dir"], f"spans-{index}.json")


def forked_call(cli, spec: dict, index: int) -> bool:
    """One call in a forked child; False when the child ended without a report."""
    traced = is_traced(spec, index)
    pid = os.fork()
    if pid == 0:
        # The default action of SIGALRM ends the process, even inside C code.
        signal.alarm(spec["timeout"])
        code = 1
        try:
            write_json(report_path(spec, index), one_call(cli, spec, traced, spans_path(spec, index)))
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.path.exists(report_path(spec, index)):
        return True
    killed = os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGALRM
    write_json(report_path(spec, index), {"traced": traced, "timeout": killed, "crash": f"wait status {status}"})
    return False


def one_call(cli, spec: dict, traced: bool, spans: str) -> dict:
    """Run ``cli.main`` once in this process and describe the call and its output."""
    import wasscurve

    import tracer as tracing

    # The gate needs every Sinkhorn state, including the invariant pipeline's,
    # whose result.json carries no convergence flag. Capturing it adds one
    # wrapper call per solve.
    solves = []

    def capture(span, args, kwargs, state):
        solves.append({"converged": bool(state.converged), "iterations": int(state.iterations)})

    gate = tracing.Tracer()
    for module_name, attr, span_name, _ in tracing.HOOKS:
        if span_name == "mm_sinkhorn.solve":
            module = getattr(wasscurve, module_name, None)
            if module is None:
                gate.absent.append(f"wasscurve.{module_name}.{attr}")
            else:
                gate.wrap(module, attr, "gate.solve", capture)

    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer, wasscurve)

    if os.path.exists(spec["result"]):
        os.remove(spec["result"])
    error = None
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    span = tracer.begin("cli.run") if tracer else None
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(spec["argv"])
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code
    except Exception:  # a crash is a failed call, reported with its traceback
        code = None
        error = traceback.format_exc()
    finally:
        if span is not None:
            tracer.end(span)
    wall_s = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    report = {
        "traced": traced,
        "wall_s": wall_s,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "exit_code": code,
        "error": error,
        "solves": solves,
        "absent_hooks": gate.absent,
    }
    report.update(describe_result(spec["result"]))
    if tracer is not None:
        tracer.uninstall()
        metrics, absent = tracing.layer_metrics(tracer)
        report["layers"] = metrics
        report["absent_metrics"] = absent
        report["absent_hooks"] = sorted(set(gate.absent) | set(tracer.absent))
        write_json(spans, tracer.to_json())
    gate.uninstall()
    return report


def describe_result(path: str) -> dict:
    """What the gate reads from ``result.json``: its digest, convergence flag and objectives."""
    if not os.path.exists(path):
        return {"result_digest": None}
    with open(path, "rb") as fh:
        raw = fh.read()
    out = {"result_digest": hashlib.sha256(raw).hexdigest(), "result_json": True}
    try:
        doc = json.loads(raw)
    except ValueError:
        out["result_json"] = False
        return out
    out["converged"] = doc.get("diagnostics", {}).get("converged")
    out["objectives"] = doc.get("objectives", {})
    out["tol"] = doc.get("config", {}).get("tol")
    return out


def write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _machine() -> dict:
    import importlib.util

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "threadpoolctl": "present" if importlib.util.find_spec("threadpoolctl") else "absent",
    }


if __name__ == "__main__":
    sys.exit(main())
