"""Fast self-test of the benchmark harness (about 15 s).

Run from the repository root:

    python3 perfbench/selftest.py

It checks that every metric named in BENCHMARK.json is emitted with its unit
on a short ``invariant`` run, that a corrupted reference makes the gate fail
and the harness exit nonzero, that a tracer hook whose name is gone is
reported as an absent metric, and that the harness refuses to run where the
program is missing. Exits 1 and lists the failed checks when any fails.
"""

import json
import os
import shutil
import subprocess
import sys
import types

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SCRATCH = os.path.join(".perfbench", "selftest")


def run(*args, cwd="."):
    """Run the copy of run.py under ``cwd``; returns (exit code, last-line JSON or None)."""
    script = os.path.abspath(os.path.join(cwd, "perfbench", "run.py"))
    proc = subprocess.run([sys.executable, script, *args], capture_output=True, text=True, timeout=170, cwd=cwd)
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        doc = None
    return proc.returncode, doc


def main() -> int:
    failures = []

    def check(ok, message):
        if not ok:
            failures.append(message)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    quick = ["--workload", "invariant", "--seed", "1", "--seconds", "0"]

    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        code, doc = run(*quick, "--trace", trace)
        check(code == 0 and doc is not None and doc["correct"], f"--trace {trace}: exit {code}, result {doc}")
        if doc is None:
            continue
        expected = {m["name"]: m["unit"] for m in bench[key]}
        emitted = {name: m.get("unit") for name, m in doc["metrics"].items()}
        check(emitted == expected, f"--trace {trace}: metrics {sorted(emitted)} != {sorted(expected)}")
        check(
            all(isinstance(m["value"], (int, float)) for m in doc["metrics"].values()),
            f"--trace {trace}: non-numeric value",
        )

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    reference["workloads"]["invariant"]["objectives"]["fit_objective"] *= 1.001
    corrupted = os.path.join(SCRATCH, "reference.json")
    with open(corrupted, "w", encoding="utf-8") as fh:
        json.dump(reference, fh)
    code, doc = run(*quick, "--trace", "0", "--reference", corrupted)
    check(
        code == 1 and doc is not None and not doc["correct"] and doc["failed"] == doc["attempted"],
        f"corrupted reference: exit {code}, result {doc}",
    )

    # A package where one solve site is gone and another remains, and a
    # package with no hooked modules at all.
    def module(name, **attrs):
        mod = types.ModuleType(name)
        mod.__dict__.update(attrs)
        return mod

    partial = types.SimpleNamespace(
        __name__="fake",
        curve_regression=module("fake.curve_regression", sinkhorn_solve=lambda: None),
        gmm_regression=module("fake.gmm_regression"),
    )
    t = tracer.Tracer()
    tracer.install(t, partial)
    metrics, absent = tracer.layer_metrics(t)
    check("mm_sinkhorn.solve_s" not in absent, "solve_s absent although one solve hook exists")
    check("fake.gmm_regression.sinkhorn_solve" in t.absent, f"missing hook not listed: {t.absent}")
    check(metrics["dataio.parse_s"] == tracer.ABSENT and "dataio.parse_s" in absent, "parse_s not reported absent")
    t.uninstall()
    bare = tracer.Tracer()
    tracer.install(bare, types.SimpleNamespace(__name__="empty"))
    span = bare.begin("cli.run")
    bare.end(span)
    metrics, absent = tracer.layer_metrics(bare)
    check(metrics["cli.run_s"] >= 0 and "cli.run_s" not in absent, "cli.run_s must stay measurable")
    check(set(absent) == set(tracer.PER_LAYER) - {"cli.run_s", "cli.self_s", "trace_overhead_s"}, "absent set")

    # Without the program beside it the harness must fail without a result.
    bare_dir = os.path.join(SCRATCH, "bare")
    shutil.copytree(HERE, os.path.join(bare_dir, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare_dir)
    code, doc = run("--workload", "invariant", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare_dir)
    check(code != 0 and doc is None, f"bare directory: exit {code}, result {doc}")

    for message in failures:
        print("FAIL " + message)
    print("selftest " + ("passed" if not failures else f"failed ({len(failures)})"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
