"""Benchmark of the wasscurve command line: four pipelines end to end, plus a per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload regress --seed 3 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 28 --trace 1

Each workload writes its input with the repository's own ``generate``
command (fixed generator seed), then shuffles the input's rows with
``--seed``: every seed poses the same problem in another order, so the
reference objectives hold for every seed and run-to-run spread is machine
noise, not a data-dependent iteration count. Calls of ``wasscurve.cli.main``
repeat until ``--seconds`` have passed (at least two). They come from a
series of workers (``worker.py``): each starts a fresh interpreter, imports
the program (one ``setup_s`` sample), forks one child per call for a slice
of the run and makes its last call itself (one ``peak_rss_mb`` sample).
Forking leaves more calls in a run than starting an interpreter per call,
and each metric is the median over the run's calls. The times (``wall_s``,
``cpu_s``, ``setup_s``) are scaled to a fixed machine speed by the speed
gauge of ``speed.py``, timed before every call on the same CPU; the
unscaled medians are printed beside them.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced calls and reports the per-layer metrics of ``tracer.py``.
Every call passes through the correctness gate; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, and the exit code is 1 when any call failed the gate.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

from speed import REFERENCE_S
from tracer import ABSENT, PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SPEED = os.path.join(HERE, "speed.py")
REFERENCE = os.path.join(HERE, "reference.json")
WORK_DIR = ".perfbench"
PROGRAM = os.path.join("src", "wasscurve", "cli.py")

# One BLAS thread per child (nproc is 2 on the reference machine): the
# workloads call BLAS on small operands, and a second thread shared with
# other tenants of the machine adds noise but little speed.
BLAS_THREADS = 1
MIN_CALLS = 2
WORKER_SLICE_S = 4.0
CHILD_TIMEOUT_S = 90

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# generate: arguments of `wasscurve generate`; argv: the measured command
# (--input and --output are appended); residuals: objectives that are
# residuals, checked against the solver's own tolerance instead of a
# recorded value; ordered: pairs (a, b) that must satisfy a <= b.
WORKLOADS = {
    "invariant": {
        "generate": ["logistic", "--r", "4", "--snapshots", "6", "--particles", "1000", "--seed", "0"],
        "input": "samples.csv",
        "argv": ["invariant", "--boxes", "80", "--epsilon", "0.05"],
        "residuals": {"stationary_residual": 1e-10},  # stationary_distribution's tol
        "ordered": [],
        "sinkhorn": True,
    },
    "regress": {
        "generate": ["ou", "--particles", "2000", "--snapshots", "10", "--seed", "0"],
        "input": "samples.csv",
        "argv": ["regress", "--curve", "linear", "--query-times", "0,0.5,1,1.5"],
        "residuals": {},
        "ordered": [],
        "sinkhorn": True,
    },
    "gmm": {
        "generate": ["mixture-toy"],
        "input": "mixture.json",
        "argv": ["gmm", "--epsilon", "0.07", "--max-iter", "30000"],
        "residuals": {},
        "ordered": [],
        "sinkhorn": True,
    },
    "gaussian": {
        "generate": ["ou", "--particles", "1000", "--seed", "0"],
        "input": "samples.csv",
        "argv": ["gaussian", "--curve", "quadratic", "--tol", "3e-6"],
        "residuals": {},
        # the quadratic family contains the geodesics
        "ordered": [("sdp_quadratic", "geodesic_1d")],
        "sinkhorn": False,
    },
}


class HarnessError(RuntimeError):
    """The benchmark could not measure (missing program, failed generator, crashed worker)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    env.pop("WASSCURVE_LOG", None)
    return env


def shuffle_input(base: str, path: str, seed: int) -> None:
    """Write ``base`` to ``path`` with its rows in an order drawn from ``seed``."""
    rng = random.Random(seed)
    if path.endswith(".json"):
        with open(base, encoding="utf-8") as fh:
            doc = json.load(fh)
        order = list(range(len(doc["basis"])))
        rng.shuffle(order)
        doc["basis"] = [doc["basis"][i] for i in order]
        for snap in doc["snapshots"]:
            snap["weights"] = [snap["weights"][i] for i in order]
        rng.shuffle(doc["snapshots"])
        text = json.dumps(doc)
    else:
        with open(base, encoding="utf-8") as fh:
            header, *rows = fh.read().splitlines()
        rng.shuffle(rows)
        text = "\n".join([header] + rows) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def prepare(name: str, seed: int, env: dict) -> list:
    """Generate and shuffle one workload's input; returns the measured argv."""
    spec = WORKLOADS[name]
    wdir = os.path.join(WORK_DIR, name)
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(wdir)
    base = os.path.join(wdir, "base-" + spec["input"])
    cmd = [sys.executable, "-m", "wasscurve.cli", "generate", *spec["generate"], "--output", base]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise HarnessError(f"generator failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    path = os.path.join(wdir, spec["input"])
    shuffle_input(base, path, seed)
    return spec["argv"] + ["--input", path, "--output", os.path.join(wdir, "out")]


def start_worker(spec: dict, env: dict, log) -> int:
    """Run one worker (``worker.py``) to its end and return its exit code.

    Its forked calls share its process group, which is killed if the worker
    outlives its deadline by more than a call's timeout."""
    proc = subprocess.Popen(
        [sys.executable, WORKER, json.dumps(spec)],
        env=env,
        stdout=log,
        stderr=log,
        start_new_session=True,
        pass_fds=spec["gauge_fds"],
    )
    try:
        proc.wait(timeout=spec["deadline"] - time.monotonic() + 2 * spec["timeout"])
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None or proc.returncode != 0:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode


def measure(name: str, argv: list, seconds: float, trace: bool, env: dict) -> tuple:
    """Calls of one workload for ``seconds``; returns (call reports, worker summaries).

    Workers follow each other, each a fresh interpreter (one ``setup_s``
    sample) that makes calls for ``WORKER_SLICE_S``. One speed-gauge server
    serves them all. A call that timed out or crashed ends the run.
    """
    wdir = os.path.join(WORK_DIR, name)
    summary_path = os.path.join(wdir, "summary.json")
    reports, summaries = [], []
    gauge = subprocess.Popen([sys.executable, SPEED], env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    start = time.monotonic()
    with gauge, open(os.path.join(wdir, "worker.log"), "ab") as log:
        while len(reports) < MIN_CALLS or time.monotonic() - start < seconds:
            spec = {
                "argv": argv,
                "result": os.path.join(wdir, "out", "result.json"),
                "trace": int(trace),
                "first_index": len(reports),
                "deadline": min(time.monotonic() + WORKER_SLICE_S, start + seconds),
                "timeout": CHILD_TIMEOUT_S,
                "dir": wdir,
                "gauge_fds": [gauge.stdin.fileno(), gauge.stdout.fileno()],
                "machine": not summaries,
                "spawned": time.monotonic(),
            }
            with contextlib.suppress(FileNotFoundError):
                os.remove(summary_path)
            code = start_worker(spec, env, log)
            while os.path.exists(os.path.join(wdir, f"report-{len(reports)}.json")):
                with open(os.path.join(wdir, f"report-{len(reports)}.json"), encoding="utf-8") as fh:
                    reports.append(json.load(fh))
            if code == -signal.SIGALRM:  # the worker's own call timed out
                reports.append({"traced": False, "timeout": True, "crash": "worker timed out"})
                break
            if code != 0 or not os.path.exists(summary_path):
                raise HarnessError(f"worker ended with {code}; see {log.name}")
            with open(summary_path, encoding="utf-8") as fh:
                summaries.append(json.load(fh))
            if "crash" in reports[-1]:
                break
    return reports, summaries


def gate(name: str, report: dict, first: str, reference: dict) -> list:
    """Reasons this call fails the correctness gate (empty when it passes)."""
    if report.get("timeout"):
        return [f"no exit within {CHILD_TIMEOUT_S} s"]
    if "crash" in report:
        return [f"call ended without a report ({report['crash']})"]
    reasons = []
    if report["exit_code"] != 0:
        reasons.append(f"exit code {report['exit_code']}" + (f": {report['error']}" if report["error"] else ""))
    if report["result_digest"] is None:
        return reasons + ["no result.json written"]
    if not report["result_json"]:
        return reasons + ["result.json is not JSON"]
    spec = WORKLOADS[name]
    if report["converged"] is False:
        reasons.append("result.json reports converged: false")
    if any(not s["converged"] for s in report["solves"]):
        reasons.append("sinkhorn_solve returned a state with converged=False")
    solve_hooked = not any(h.endswith(".sinkhorn_solve") for h in report["absent_hooks"])
    if spec["sinkhorn"] and solve_hooked and not report["solves"]:
        reasons.append("no Sinkhorn state was captured")
    objectives = report["objectives"]
    if reference is not None:
        ref = reference["workloads"][name]
        rtol = math.sqrt(ref["tol"])
        for key, expected in ref["objectives"].items():
            got = objectives.get(key)
            if got is None or not abs(got - expected) <= rtol * abs(expected):
                reasons.append(f"objective {key}={got!r} outside {expected!r} +- {rtol:g} relative")
    for key, limit in spec["residuals"].items():
        if not objectives.get(key, math.inf) <= limit:
            reasons.append(f"{key}={objectives.get(key)!r} above {limit:g}")
    for low, high in spec["ordered"]:
        if not objectives.get(low, math.inf) <= objectives.get(high, -math.inf):
            reasons.append(f"{low}={objectives.get(low)!r} exceeds {high}={objectives.get(high)!r}")
    if first is not None and report["result_digest"] != first:
        reasons.append("result.json bytes differ from the first call of this run")
    return reasons


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def tail(values: list):
    """Highest percentile with at least ten samples above it, as (value, percentile), or None."""
    n = len(values)
    if n < 11:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def machine(report: dict) -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    mem_mb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20
    info = {"cpu": cpu, "nproc": os.cpu_count(), "mem_total_mb": round(mem_mb), "blas_threads": BLAS_THREADS}
    info.update(report.get("machine", {}))
    return " ".join(f"{k}={v}" for k, v in info.items())


def run_workload(name: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    env = child_env()
    argv = prepare(name, seed, env)
    reports, summaries = measure(name, argv, seconds, trace, env)
    first = reports[0].get("result_digest")
    failed = 0
    for index, report in enumerate(reports):
        reasons = gate(name, report, first, reference)
        if reasons:
            failed += 1
            print(f"gate: {name} call {index}: " + "; ".join(reasons), file=sys.stderr)
    done = [r for r in reports if "crash" not in r]
    plain = [r for r in done if not r["traced"]]
    traced_reports = [r for r in done if r["traced"]]
    print(
        f"perfbench workload={name} seed={seed} trace={int(trace)} calls={len(reports)} traced={len(traced_reports)}"
        f" workers={len(summaries)}"
    )
    print("machine: " + machine(summaries[0]))
    out = {"name": name, "attempted": len(reports), "failed": failed, "metrics": {}}
    if not plain or (trace and not traced_reports):
        return out
    wall = [r["wall_s"] for r in plain]
    if not trace:
        series = {
            "wall_s": wall,
            "cpu_s": [r["cpu_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain if r.get("fresh")],
            "setup_s": [w["setup_s"] for w in summaries],
        }
        loads = [t for w in summaries for t in w["gauge"]]
        factor = REFERENCE_S / statistics.median(loads)
        print(
            f"speed gauge: median load {statistics.median(loads):.6g} s over {len(loads)} loads;"
            f" times below are scaled by {factor:.6g} to {REFERENCE_S:g} s per load"
        )
        for metric, values in series.items():
            unit = END_TO_END_UNITS[metric]
            scale = factor if unit == "s" else 1.0
            value = statistics.median(values) * scale
            q1, q3 = quartiles(values)
            out["metrics"][metric] = {"value": value, "unit": unit}
            raw = f"unscaled: median {value / scale:.6g}, " if unit == "s" else ""
            print(f"{metric:<14} {value:.6g} {unit}  median of {len(values)} ({raw}q1 {q1:.6g}, q3 {q3:.6g})")
        t = tail(wall)
        if t is None:
            print(f"{'wall_s.tail':<14} n/a s  {len(wall)} calls; a percentile with ten calls above it needs at least 11")
        else:
            print(f"{'wall_s.tail':<14} {t[0] * factor:.6g} s  p{t[1]:.4g} of {len(wall)} calls (unscaled {t[0]:.6g})")
    else:
        layers = {}
        for metric in PER_LAYER:
            if metric == "trace_overhead_s":
                continue
            values = [r["layers"][metric] for r in traced_reports]
            layers[metric] = ABSENT if ABSENT in values else statistics.median(values)
        layers["trace_overhead_s"] = statistics.median(r["wall_s"] for r in traced_reports) - statistics.median(wall)
        absent = sorted({m for r in traced_reports for m in r["absent_metrics"]})
        hooks = sorted({h for r in traced_reports for h in r["absent_hooks"]})
        for metric, value in layers.items():
            unit = PER_LAYER[metric][0]
            out["metrics"][metric] = {"value": value, "unit": unit}
            shown = "absent" if metric in absent else f"{value:.6g}"
            print(f"{metric:<36} {shown} {unit}")
        if absent or hooks:
            print("absent metrics: " + (", ".join(absent) or "none") + "; absent hooks: " + (", ".join(hooks) or "none"))
    print(f"{'failed_share':<14} {failed / len(reports):.6g} share  ({failed} of {len(reports)} calls failed the gate)")
    return out


def record_reference(path: str) -> None:
    """Write the objectives of one call per workload as the gate's reference."""
    doc = {"generator_seed": 0, "tolerance": "relative sqrt(tol) of the solve", "workloads": {}}
    for name, spec in WORKLOADS.items():
        env = child_env()
        argv = prepare(name, 0, env)
        report = measure(name, argv, 0, False, env)[0][0]
        reasons = gate(name, report, None, None)
        if reasons:
            raise HarnessError(f"{name}: " + "; ".join(reasons))
        objectives = {k: v for k, v in report["objectives"].items() if k not in spec["residuals"]}
        doc["workloads"][name] = {"tol": report["tol"], "objectives": objectives}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--reference", default=REFERENCE, help="reference objectives for the gate")
    parser.add_argument("--record-reference", action="store_true", help="write --reference from the current program")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # for the children and for the speed gauge
    # One CPU for this process and every child, so that the speed gauge
    # (speed.py) measures the CPU the calls run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not os.path.isfile(PROGRAM):
        print(f"perfbench: {PROGRAM} not found; run from the repository root", file=sys.stderr)
        return 2
    try:
        if args.record_reference:
            record_reference(args.reference)
            return 0
        with open(args.reference, encoding="utf-8") as fh:
            reference = json.load(fh)
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace), reference) for n in names]
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['name']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
