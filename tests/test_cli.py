"""File schemas, generators, CLI commands, determinism, error categories."""

import argparse
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from wasscurve import cli, dataio
from wasscurve.dataio import SchemaError
from wasscurve.gmm_regression import AtomSet, fit_mixture_curve
from wasscurve.pfo_estimation import generate_logistic_rows
from wasscurve.two_marginal import two_marginal_w2


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


class TestSchemas:
    def test_sample_schema_round_trip(self, tmp_path):
        p = tmp_path / "s.csv"
        rows = [(0.0, 0.1), (0.0, 0.9), (1.0, 0.4), (1.0, 0.6)]
        dataio.write_sample_csv(str(p), rows)
        schema, times, weights, positions = dataio.read_snapshot_rows(str(p))
        assert schema == "samples"
        assert len(times) == 4
        assert weights[0] == 1.0  # unit weight per particle

    def test_atom_schema_parses_weights(self, tmp_path):
        p = tmp_path / "a.csv"
        write(p, "t,weight,x1\n0,0.25,0.0\n0,0.75,1.0\n")
        schema, times, weights, positions = dataio.read_snapshot_rows(str(p))
        assert schema == "atoms"
        assert weights[0] == 0.25

    def test_malformed_row_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        write(p, "t,x1\n0,0.5\n1,oops\n")
        with pytest.raises(SchemaError, match=":3"):
            dataio.read_snapshot_rows(str(p))

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
    def test_non_finite_number_reports_line_number(self, tmp_path, token):
        p = tmp_path / "bad.csv"
        write(p, f"t,x1\n0,0.5\n1,{token}\n")
        with pytest.raises(SchemaError, match=f":3: '{token}' is not a finite number"):
            dataio.read_snapshot_rows(str(p))

    def test_wrong_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        write(p, "time,x\n0,0.5\n")
        with pytest.raises(SchemaError, match="header"):
            dataio.read_snapshot_rows(str(p))

    def test_atom_weights_must_sum_to_one(self, tmp_path):
        p = tmp_path / "a.csv"
        write(p, "t,weight,x1\n0,0.5,0.0\n0,0.3,1.0\n")
        with pytest.raises(SchemaError, match="sum to"):
            dataio.load_snapshots(str(p))

    def test_three_dirac_atom_file(self, tmp_path):
        p = tmp_path / "a.csv"
        write(p, "t,weight,x1\n0,1,0.0\n0.5,1,0.7\n1,1,0.2\n")
        ds = dataio.load_snapshots(str(p))
        assert len(ds) == 3
        for m in ds.measures:
            assert m.weights.max() == pytest.approx(1.0)

    def test_single_timestamp_file_loads(self, tmp_path):
        p = tmp_path / "one.csv"
        write(p, "t,x1\n0.5,0.1\n0.5,0.9\n")
        ds = dataio.load_snapshots(str(p))
        assert len(ds) == 1

    def test_lambda_file(self, tmp_path):
        p = tmp_path / "lam.csv"
        write(p, "t,lambda\n0,0.5\n1,0.5\n")
        lam = dataio.load_lambda_file(str(p))
        assert lam == {0.0: 0.5, 1.0: 0.5}

    @pytest.mark.parametrize("body, message", [
        ("0,0.5\n\n1,0.5\n", None),  # a blank row is skipped, as in snapshot files
        ("0,0.5\n1,0.5,7\n", ":3: expected 2 fields, got 3"),
        ("0,0.5\n1,nan\n", ":3: 'nan' is not a finite number"),
        ("0,0.5\n1,0.25\n1,0.25\n", ": timestamp t=1.0 is listed twice"),
    ])
    def test_lambda_rows_follow_the_snapshot_grammar(self, tmp_path, body, message):
        p = tmp_path / "lam.csv"
        write(p, "t,lambda\n" + body)
        if message is None:
            assert dataio.load_lambda_file(str(p)) == {0.0: 0.5, 1.0: 0.5}
        else:
            with pytest.raises(SchemaError, match=re.escape(f"{p}{message}")):
                dataio.load_lambda_file(str(p))


class TestGenerators:
    def test_ou_rows_match_variance_law(self):
        rows = dataio.generate_ou_rows(n_times=20, n_samples=2000, seed=0)
        by_t = {}
        for t, x in rows:
            by_t.setdefault(t, []).append(x)
        assert len(by_t) == 20
        for t, xs in by_t.items():
            target = 2.0 * (1.0 - np.exp(-2.0 * t))
            assert np.var(xs) == pytest.approx(target, rel=0.15)

    def test_logistic_rows_need_two_snapshots(self):
        with pytest.raises(ValueError, match="at least two snapshots"):
            generate_logistic_rows(n_snapshots=1)

    def test_logistic_rows_deterministic(self):
        a = generate_logistic_rows(r=4.0, n_snapshots=3, n_particles=50, seed=5)
        b = generate_logistic_rows(r=4.0, n_snapshots=3, n_particles=50, seed=5)
        assert a == b

    def test_mixture_toy_schema(self):
        doc = dataio.generate_mixture_toy()
        assert len(doc["basis"]) == 4
        assert len(doc["snapshots"]) == 4
        for s in doc["snapshots"]:
            assert sum(s["weights"]) == pytest.approx(1.0)

    def test_full_ou_file_loads_as_twenty_snapshots(self, tmp_path):
        p = tmp_path / "ou.csv"
        dataio.write_sample_csv(str(p), dataio.generate_ou_rows())  # 20 x 1000 default
        ds = dataio.load_snapshots(str(p), grid_points=40)
        assert len(ds) == 20
        assert ds.timestamps[-1] == 1.0
        assert len(ds.grid) == 40


class TestRunRegress:
    def make_input(self, tmp_path):
        p = tmp_path / "in.csv"
        rows = generate_logistic_rows(r=3.0, n_snapshots=4, n_particles=400, seed=0)
        dataio.write_sample_csv(str(p), rows)
        return p

    def test_regress_writes_deterministic_outputs(self, tmp_path):
        src = self.make_input(tmp_path)
        out = tmp_path / "out"
        cfg = cli.RunConfig(
            command="regress",
            input=str(src),
            output=str(out),
            epsilon=0.05,
            grids={"data": (0.0, 1.0, 12)},
            query_times=(0.0, 0.5, 1.0),
        )
        outs = []
        for _ in range(2):  # identical config and seed: byte-identical files
            cli.run(cfg)
            outs.append((out / "result.json").read_bytes())
        assert outs[0] == outs[1]
        doc = json.loads(outs[0])
        assert doc["objectives"]["surrogate"] >= 0
        assert doc["coupling"]["emitted_mass"] >= 0.999
        assert os.path.exists(out / "marginal_t0.5.csv")

    def test_round_trip_objectives_bit_exact(self, tmp_path):
        src = self.make_input(tmp_path)
        out = tmp_path / "o"
        cfg = cli.RunConfig(
            command="regress", input=str(src), output=str(out),
            epsilon=0.05, grids={"data": (0.0, 1.0, 10)},
        )
        bundle = cli.run(cfg)
        doc = json.loads((out / "result.json").read_text())
        assert doc["objectives"]["surrogate"] == bundle.objectives["surrogate"]

    def test_quadratic_nested_beats_linear(self, tmp_path):
        src = self.make_input(tmp_path)
        eps = 0.01
        grid_pts = 8
        lin = cli.run(cli.RunConfig(
            command="regress", input=str(src), curve="linear", epsilon=eps,
            grids={"data": (0.0, 1.0, grid_pts)},
        ))
        centers = np.linspace(0, 1, grid_pts)
        diffs = np.unique(np.round(centers[None, :] - centers[:, None], 12))
        quad = cli.run(cli.RunConfig(
            command="regress", input=str(src), curve="quadratic", epsilon=eps,
            grids={
                "data": (0.0, 1.0, grid_pts),
                "x1": (float(diffs.min()), float(diffs.max()), len(diffs)),
                "x2": (0.0, 0.5, 2),  # contains the embedding value 0
            },
        ))
        n_lin = grid_pts * grid_pts
        n_quad = grid_pts * len(diffs) * 2
        slack = eps * np.log(n_quad / n_lin)
        assert quad.objectives["surrogate"] <= lin.objectives["surrogate"] + slack + 1e-9


class TestRunDistance:
    def test_identical_atom_files_zero(self, tmp_path):
        p = tmp_path / "a.csv"
        write(p, "t,weight,x1\n0,0.5,0.0\n0,0.5,1.0\n")
        bundle = cli.run(cli.RunConfig(command="distance", input=str(p), input_b=str(p)))
        assert bundle.objectives["w2_squared"] == pytest.approx(0.0, abs=1e-12)

    def test_dirac_pair(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write(a, "t,weight,x1\n0,1,0.0\n")
        write(b, "t,weight,x1\n0,1,3.0\n")
        bundle = cli.run(cli.RunConfig(command="distance", input=str(a), input_b=str(b)))
        assert bundle.objectives["w2_squared"] == pytest.approx(9.0, abs=1e-12)

    def test_multi_timestamp_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        write(p, "t,weight,x1\n0,1,0.0\n1,1,1.0\n")
        with pytest.raises(ValueError, match="one timestamp"):
            cli.run(cli.RunConfig(command="distance", input=str(p), input_b=str(p)))

    def test_different_dimensions_are_a_precondition_error(self, tmp_path, capsys):
        # the 1D exact path read only the first coordinate of the 2D measure and printed 0
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write(a, "t,weight,x1\n0,1,0.0\n")
        write(b, "t,weight,x1,x2\n0,1,0.0,5.0\n")
        for first, second in ((a, b), (b, a)):
            assert cli.main(["distance", "--input-a", str(first), "--input-b", str(second)]) == 4
            captured = capsys.readouterr()
            assert captured.out == ""
            err = json.loads(captured.err.strip())
            assert err["error"]["category"] == "precondition"
            assert "dimension" in err["error"]["message"]

    def test_max_iter_reaches_the_entropic_path(self, tmp_path, capsys):
        # 2-D supports of 81 points are past the exact LP's limit, so the entropic solver runs
        rng = np.random.default_rng(3)
        axis = np.linspace(0.0, 1.0, 9)
        points = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        paths = []
        for name, shift in (("a", 0.0), ("b", 0.3)):
            weights = rng.random(len(points))
            weights /= weights.sum()
            rows = "".join(f"0,{w:.17g},{x:.17g},{y:.17g}\n" for w, (x, y) in zip(weights, points + shift))
            write(tmp_path / f"{name}.csv", "t,weight,x1,x2\n" + rows)
            paths.append(str(tmp_path / f"{name}.csv"))

        def w2_squared(*flags):
            assert cli.main(["distance", "--input-a", paths[0], "--input-b", paths[1], *flags]) == 0
            return json.loads(capsys.readouterr().out.splitlines()[-1])["objectives"]["w2_squared"]

        mu, nu = (cli._single_measure(p, None) for p in paths)
        expected, _ = two_marginal_w2(mu, nu, 0.1, tol=1e-8, max_iter=2)
        assert w2_squared("--max-iter", "2") == expected
        assert w2_squared() != expected


class TestRunGaussianAndGmm:
    def test_gaussian_on_generated_ou(self, tmp_path):
        src = tmp_path / "ou.csv"
        dataio.write_sample_csv(str(src), dataio.generate_ou_rows(n_times=8, n_samples=400, seed=1))
        bundle = cli.run(cli.RunConfig(command="gaussian", input=str(src), curve="linear"))
        assert "sdp_linear" in bundle.objectives
        assert "geodesic_1d" in bundle.objectives
        assert bundle.objectives["sdp_linear"] <= bundle.objectives["geodesic_1d"] + 1e-6

    def test_gaussian_quadratic_via_main(self, tmp_path, capsys):
        src = tmp_path / "ou.csv"
        dataio.write_sample_csv(str(src), dataio.generate_ou_rows(n_times=10, n_samples=300, seed=2))
        rc = cli.main(["gaussian", "--input", str(src), "--curve", "quadratic"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["objectives"]["sdp_quadratic"] <= summary["objectives"]["geodesic_1d"]

    @pytest.mark.parametrize("rows, flags, geodesic", [
        ("0,1\n0.5,2\n1,3\n", [], 0.0),  # one sample per time: every variance is 0
        # sigmas 0, 1, 0 at weights 1/3: the fit is 1/3 throughout, so the residual is (1 + 4 + 1) / 27
        ("0,1\n0,1\n0.5,0\n0.5,2\n1,5\n1,5\n", ["--tol", "1e-5"], 2 / 9),
    ], ids=["all-zero", "zero-at-the-ends"])
    def test_gaussian_with_zero_variance_snapshots(self, tmp_path, capsys, rows, flags, geodesic):
        src = tmp_path / "flat.csv"
        write(src, "t,x1\n" + rows)
        assert cli.main(["gaussian", "--input", str(src), *flags]) == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["objectives"]["geodesic_1d"] == pytest.approx(geodesic, rel=1e-12, abs=1e-15)

    def test_gmm_toy_runs_and_meets_constraints(self, tmp_path):
        src = tmp_path / "mix.json"
        dataio.write_json(str(src), dataio.generate_mixture_toy())
        bundle = cli.run(cli.RunConfig(
            command="gmm", input=str(src), epsilon=0.05, max_iter=30000, query_times=(0.0, 0.5, 1.0),
        ))
        assert bundle.diagnostics["marginal_residual"] <= 1e-8
        assert len(bundle.marginals) == 3
        comp_mass = sum(c["weight"] for c in bundle.marginals[1]["components"])
        assert comp_mass == pytest.approx(1.0, abs=1e-9)


class TestRunInvariant:
    def test_r3_defaults_peak_near_fixed_point(self, tmp_path):
        src = tmp_path / "log.csv"
        dataio.write_sample_csv(str(src), generate_logistic_rows(r=3.0, n_snapshots=6, n_particles=1000, seed=0))
        out = tmp_path / "out"
        bundle = cli.run(cli.RunConfig(command="invariant", input=str(src), output=str(out), epsilon=0.05))
        weights = np.asarray(bundle.marginals[0]["weights"])
        centers = np.asarray([p[0] for p in bundle.marginals[0]["points"]])
        assert abs(centers[int(np.argmax(weights))] - 2.0 / 3.0) <= 0.05

    def test_invariant_writes_stationary_csv(self, tmp_path):
        src = tmp_path / "log.csv"
        dataio.write_sample_csv(str(src), generate_logistic_rows(r=3.0, n_snapshots=4, n_particles=300, seed=0))
        out = tmp_path / "out"
        bundle = cli.run(cli.RunConfig(
            command="invariant", input=str(src), output=str(out),
            boxes=30, epsilon=0.02, domain=(0.0, 1.0),
        ))
        assert (out / "stationary.csv").exists()
        header = (out / "stationary.csv").read_text().splitlines()[0]
        assert header == "center,mass,arcsine_mass"
        total = sum(bundle.marginals[0]["weights"])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_reports_a_fit_stopped_at_max_iter(self, tmp_path):
        src = tmp_path / "log.csv"
        assert cli.main(["generate", "logistic", "--r", "4", "--snapshots", "6", "--particles", "1000", "--seed", "0",
                         "--output", str(src)]) == 0
        with pytest.warns(RuntimeWarning, match="non-converged"):
            rc = cli.main(["invariant", "--input", str(src), "--boxes", "80", "--max-iter", "2",
                           "--output", str(tmp_path / "out")])
        assert rc == 0
        diagnostics = json.loads((tmp_path / "out" / "result.json").read_text())["diagnostics"]
        assert diagnostics["converged"] is False
        assert diagnostics["iterations"] == 2
        assert diagnostics["marginal_residual"] > 1e-8


class TestMainEntry:
    def test_generate_and_regress_end_to_end(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        rc = cli.main([
            "generate", "logistic", "--output", str(src),
            "--snapshots", "4", "--particles", "200", "--seed", "0",
        ])
        assert rc == 0
        out = tmp_path / "res"
        rc = cli.main([
            "regress", "--input", str(src), "--epsilon", "0.05",
            "--grid", "0:1:10", "--query-times", "0,1", "--output", str(out),
        ])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["command"] == "regress"

    def test_io_error_category(self, tmp_path, capsys):
        rc = cli.main(["regress", "--input", str(tmp_path / "missing.csv")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["category"] == "io"

    def test_schema_error_category(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        write(p, "nope\n1\n")
        rc = cli.main(["regress", "--input", str(p)])
        assert rc == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["category"] == "schema"

    def test_precondition_error_category(self, tmp_path, capsys):
        p = tmp_path / "two.csv"
        write(p, "t,x1\n0,0.1\n1,0.9\n")
        rc = cli.main(["regress", "--input", str(p), "--grid", "0:1:8"])
        assert rc == 4
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["category"] == "precondition"

    def test_negative_timestamp_is_precondition(self, tmp_path, capsys):
        p = tmp_path / "neg.csv"
        write(p, "t,x1\n-0.5,0.1\n-0.5,0.3\n0,0.4\n0,0.6\n1,0.9\n1,0.7\n")
        rc = cli.main(["regress", "--input", str(p), "--grid", "0:1:8"])
        assert rc == 4
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["category"] == "precondition"
        assert "[0, 1]" in err["error"]["message"]
        assert "lower bound 0" in err["error"]["message"]

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_sample_is_schema_error(self, tmp_path, capsys, token):
        p = tmp_path / "nonfinite.csv"
        write(p, f"t,x1\n0,0.1\n0,0.3\n0.5,{token}\n0.5,0.6\n1,0.9\n1,0.7\n")
        rc = cli.main(["regress", "--input", str(p)])
        assert rc == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["category"] == "schema"
        assert f"{p}:4" in err["error"]["message"]

    def test_seed_only_on_generate(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["regress", "--input", "x.csv", "--seed", "3"])
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_bad_grid_spec_rejected(self, capsys):
        rc = cli.main(["regress", "--input", "x.csv", "--grid", "q=0:1:5"])
        assert rc == 4

    def test_config_echo_materializes_defaults(self, tmp_path):
        p = tmp_path / "a.csv"
        write(p, "t,weight,x1\n0,1,0.0\n")
        bundle = cli.run(cli.RunConfig(command="distance", input=str(p), input_b=str(p)))
        echo = bundle.config_echo
        assert echo["epsilon"] == 0.1 and echo["tol"] == 1e-8 and "seed" not in echo


class TestRowOrder:
    """Shuffling a samples CSV's rows changes no byte of result.json (the echoed paths are the same)."""

    @staticmethod
    def _result_bytes(workdir, rows, argv):
        src = workdir / "in.csv"
        dataio.write_sample_csv(str(src), rows)
        out = workdir / "out"
        assert cli.main([*argv, "--input", str(src), "--output", str(out)]) == 0
        return (out / "result.json").read_bytes()

    @settings(max_examples=4, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_regress_and_invariant(self, tmp_path_factory, rnd):
        workdir = tmp_path_factory.mktemp("order")
        rows = generate_logistic_rows(r=4.0, n_snapshots=4, n_particles=150, seed=3)
        shuffled = list(rows)
        rnd.shuffle(shuffled)  # timestamps interleave
        for argv in (["regress", "--epsilon", "0.1", "--query-times", "0,0.5"], ["invariant", "--boxes", "20"]):
            assert self._result_bytes(workdir, shuffled, argv) == self._result_bytes(workdir, rows, argv)


class TestRepeatedRuns:
    """Running a command twice on one input gives the same result.json, byte for byte."""

    # command -> (arguments of `generate` writing --input, or None for two hand-written files; the command's argv)
    RUNS = {
        "gmm": (["mixture-toy"], ["gmm", "--epsilon", "0.07", "--max-iter", "30000"]),
        "regress": (
            ["ou", "--particles", "300", "--snapshots", "6"],
            ["regress", "--curve", "linear", "--query-times", "0,0.5,1,1.5"],
        ),
        "invariant": (["logistic", "--particles", "300", "--snapshots", "4"], ["invariant", "--boxes", "30"]),
        "gaussian": (["ou", "--particles", "300", "--snapshots", "6"], ["gaussian", "--tol", "1e-6"]),
        "distance": (None, ["distance", "--grid", "0:1:20"]),
    }

    @pytest.mark.parametrize("command", sorted(RUNS))
    def test_result_json_byte_identical(self, tmp_path, command):
        generate, argv = self.RUNS[command]
        if generate is None:
            rng = np.random.default_rng(4)
            inputs = []
            for name in ("a", "b"):
                dataio.write_sample_csv(str(tmp_path / f"{name}.csv"), [(0.0, x) for x in rng.uniform(0, 1, 200)])
                inputs.append(str(tmp_path / f"{name}.csv"))
            argv = [*argv, "--input-a", inputs[0], "--input-b", inputs[1]]
        else:
            src = tmp_path / ("mixture.json" if command == "gmm" else "samples.csv")
            assert cli.main(["generate", *generate, "--output", str(src)]) == 0
            argv = [*argv, "--input", str(src)]
        out = tmp_path / "out"
        runs = []
        for _ in range(2):
            assert cli.main([*argv, "--output", str(out)]) == 0
            runs.append((out / "result.json").read_bytes())
        assert runs[0] == runs[1]


def _exit_code(argv):
    """cli.main's exit code, also where argparse rejects the command line (SystemExit)."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def _samples_at(path, times):
    rng = np.random.default_rng(0)
    dataio.write_sample_csv(str(path), [(t, float(x)) for t in times for x in rng.uniform(0.2, 0.8, 12)])


# (command, flag, value) for each flag a command does not read, so argparse rejects it
DROPPED_FLAGS = [
    ("regress", "--lambda", "uniform"),  # a prefix of --lambda-file, which no parser takes as an abbreviation
    ("gaussian", "--epsilon", "7"),
    ("gaussian", "--grid", "x2=0:1:3"),
    ("gmm", "--grid", "0:1:5"),
    ("gmm", "--lambda", "file"),
    ("gmm", "--lambda-file", "missing.csv"),
    ("invariant", "--grid", "0:1:5"),
    ("invariant", "--query-times", "0,1"),
    ("distance", "--lambda", "file"),
    ("distance", "--lambda-file", "missing.csv"),
    ("distance", "--query-times", "0,1"),
]

# the mixture toy as `generate mixture-toy` writes it, for the malformed mixture cases below
MIXTURE_TOY = json.dumps(dataio.generate_mixture_toy(), sort_keys=True, separators=(",", ":"))
# five snapshots of 200 points in the plane: the default 50-per-axis grid would need 582 GiB of dense kernels
PLANE_SAMPLES = "t,x1,x2\n" + "".join(f"{t},{i * 37 % 200 / 200},{i * 91 % 200 / 200}\n" for t in range(5) for i in range(200))


def _huge_samples():
    """200 draws of N(t, 1) * 1e160 at each of t = 0, 0.5, 1: their squared distances overflow."""
    rng = np.random.default_rng(0)
    return "t,x1\n" + "".join(f"{t!r},{float(x)!r}\n" for t in (0.0, 0.5, 1.0) for x in rng.normal(t, 1, 200) * 1e160)


HUGE_SAMPLES = _huge_samples()

# argv ({input}: the file holding `content`; {samples}: a well-formed samples CSV), content, exit code, and
# a text that stderr must hold
MALFORMED_INPUTS = [
    (["gmm", "--input", "{input}"], "{not json", 3, "invalid JSON"),
    (["gmm", "--input", "{input}"], '{"snapshots": []}', 3, "basis"),
    (["gmm", "--input", "{input}"], MIXTURE_TOY.replace('"t":0.1', '"t":NaN'), 3,
     "input: invalid JSON (NaN is not a finite number)"),
    (["gmm", "--input", "{input}"], MIXTURE_TOY.replace("[0.7,", "[NaN,"), 3, "NaN is not a finite number"),
    (["gmm", "--input", "{input}"], MIXTURE_TOY.replace('"t":0.1', '"lambda":NaN,"t":0.1'), 3, "invalid JSON (NaN"),
    (["gmm", "--input", "{input}"], MIXTURE_TOY.replace("[-3.0]", "[-Infinity]"), 3, "-Infinity is not a finite"),
    (["gmm", "--input", "{input}"], MIXTURE_TOY.replace("[-3.0]", "[-1e400]"), 3, "must be finite numbers"),
    (["gmm", "--input", "{input}"], MIXTURE_TOY.replace("[-3.0]", "[1" + "0" * 400 + "]"), 3, "int too large"),
    (["gmm", "--input", "{input}"], MIXTURE_TOY.replace('"t":0.1', '"t":"abc"'), 3,
     "input: mixture values must be numbers"),
    (["gmm", "--input", "{input}"], MIXTURE_TOY.replace("[0.7,", '["x",'), 3,
     "could not convert string to float: 'x'"),
    (["gmm", "--input", "{input}"], MIXTURE_TOY.split(',"snapshots"')[0] + ',"snapshots":[]}', 3, "input: no snapshots"),
    (["gmm", "--input", "{input}"], MIXTURE_TOY.replace("[0.7,0.2,0.07,0.03]", "[0.5,0.5,0.0]"), 3,
     "input: snapshot 0 needs one weight per basis atom (4), got shape (3,)"),
    (["gmm", "--input", "{input}"], MIXTURE_TOY.replace("[0.7,0.2,0.07,0.03]", "[0.9,0.2,-0.1,0.0]"), 3,
     "input: snapshot 0 has a negative weight"),
    (["gmm", "--input", "{input}"], MIXTURE_TOY.replace("[0.7,0.2,0.07,0.03]", "[0.5,0.1,0.1,0.1]"), 3,
     "input: snapshot 0 weights must sum to 1 (got 0.7999999999999999)"),
    (["gmm", "--input", "{input}"], MIXTURE_TOY.replace('"t":0.1', '"lambda":-1,"t":0.1'), 3,
     "input: snapshot 0 needs a positive lambda (got -1.0)"),
    (["gmm", "--input", "{input}"], MIXTURE_TOY.replace('"t":0.1', '"lambda":0.5,"t":0.1'), 3,
     "input: snapshot lambdas must sum to 1 (got 1.25)"),
    (["gmm", "--input", "{input}"], MIXTURE_TOY.replace("[[0.16000000000000003]]", "[[-1.0]]"), 3,
     "input: basis atom 0: covariance must be positive semi-definite"),
    (["gmm", "--input", "{input}"], MIXTURE_TOY.replace("[[0.16000000000000003]]", "[[1.0,0.0]]"), 3,
     "input: basis atom 0: covariance must be d x d"),
    (["regress", "--input", "{samples}", "--lambda-file", "{input}"], "time,lambda\n0,1\n", 3,
     "header"),
    (["regress", "--input", "{input}"], "t,weight,x1\n0,0.5,0.0\n0,0.4,1.0\n", 3, "sum to"),
    (["regress", "--input", "{input}"], b"t,x1\n0,0.5\n1,\xff\n", 3, "input: bytes after line 0 are not UTF-8"),
    (["regress", "--input", "{input}"], "t,x1\n0,0.5\n1,x" + "0" * 140000 + "\n", 3,
     "input:3: field larger than field limit"),
    (["regress", "--input", "{samples}", "--lambda-file", "{input}"], b"t,lambda\n0,\xff\n", 3,
     "input: bytes after line 0 are not UTF-8 (invalid start byte)"),
    (["regress", "--input", "{input}"], PLANE_SAMPLES, 4, "the dense kernels need 1164.2 GiB"),
    (["distance", "--input-a", "{input}", "--input-b", "{input}", "--grid", "0:1:5"], "t,weight,x1,x2\n0,1,0.2,0.3\n", 4,
     "point dimension does not match grid"),
    (["invariant", "--input", "{samples}", "--domain", "1:0"], None, 4, "hi > lo"),
    (["invariant", "--input", "{samples}", "--domain", "0"], None, 4, "--domain"),
    (["invariant", "--input", "{samples}", "--domain=-inf:1"], None, 4, "--domain: LO and HI must be finite (got '-inf:1')"),
    (["invariant", "--input", "{samples}", "--domain=0:inf"], None, 4, "--domain: LO and HI must be finite (got '0:inf')"),
    (["regress", "--input", "{samples}", "--query-times", "0,a"], None, 4, "--query-times"),
    (["regress", "--input", "{samples}", "--query-times", "0,nan"], None, 4, "times must be finite (got '0,nan')"),
    (["regress", "--input", "{samples}", "--query-times", "0.1234561,0.5,0.1234562,0.5"], None, 4,
     "--query-times: 0.1234561 and 0.1234562 both write marginal_t0.123456.csv"),
    (["regress", "--input", "{samples}", "--grid", "0:nan:5"], None, 4, "must be finite (got '0:nan:5')"),
    (["regress", "--input", "{samples}", "--grid", "x0=-inf:1:5"], None, 4, "must be finite (got '-inf:1:5')"),
    (["regress", "--input", "{samples}", "--epsilon", "nan"], None, 4, "epsilon must be positive"),
    (["gaussian", "--input", "{samples}", "--tol", "inf"], None, 4, "tol must be positive"),
    (["gaussian", "--input", "{input}", "--tol", "1e-4"], "t,x1\n0,1e150\n0,-1e150\n0.5,2e150\n0.5,-2e150\n1,1e150\n1,-3e150\n",
     4, "data scale too large for the SDP: covariance entries reach 4e+300"),
    (["regress", "--input", "{samples}", "--lambda-file", "{input}"], "t,lambda\n0,0.5\n1,0.25\n1,0.25\n0.5,0.25\n", 3,
     "input: timestamp t=1.0 is listed twice"),
    (["gaussian", "--input", "{input}", "--tol", "1e-4"],
     "t,weight,x1\n0,0.25,0\n0,0.25,1\n0.5,0.25,0\n0.5,0.25,1\n1,0.25,0\n1,0.25,1\n", 3,
     "input: atom weights at t=0.0 sum to 0.5, expected 1"),
    (["gaussian", "--input", "{samples}", "--max-iter", "0"], None, 4, "--max-iter must be at least 1 (got 0)"),
    (["regress", "--input", "{samples}", "--max-iter", "-3"], None, 4, "--max-iter must be at least 1 (got -3)"),
    (["generate", "logistic", "--snapshots", "1", "--output", "{input}"], None, 4, "need at least two snapshots"),
    (["generate", "ou", "--particles", "-1", "--output", "{input}"], None, 4, "--particles must be at least 1 (got -1)"),
    (["generate", "ou", "--seed", "-1", "--output", "{input}"], None, 4, "--seed must be at least 0 (got -1)"),
    (["generate", "ou", "--snapshots", "0", "--output", "{input}"], None, 4, "--snapshots must be at least 1 (got 0)"),
    (["generate", "logistic", "--particles", "0", "--output", "{input}"], None, 4, "--particles must be at least 1 (got 0)"),
    (["invariant", "--input", "{input}", "--domain=-5e160:5e160", "--boxes", "20"], HUGE_SAMPLES, 4,
     "coordinate scale too large: squared distances reach inf"),
    (["regress", "--input", "{input}"], HUGE_SAMPLES, 4, "coordinate scale too large"),
    (["gmm", "--input", "{input}"], MIXTURE_TOY.replace("[-3.0]", "[1e200]"), 4,
     "coordinate scale too large: squared distances reach inf"),
    (["gmm", "--input", "{input}"], MIXTURE_TOY.replace("[[0.16000000000000003]]", "[[1e300]]"), 4,
     "coordinate scale too large: squared distances reach 2e+300, and the costs formed from them (5e+300)"),
    (["distance", "--input-a", "{input}", "--input-b", "{input}"], "t,x1\n0,1e160\n0,-2e160\n", 4,
     "pass 1e+300; rescale the data"),
    (["regress", "--input", "{samples}", "--curve", "linear", "--grid", "x2=0:1:3"], None, 4, "--grid x2"),
    (["distance", "--input-a", "{samples}", "--input-b", "{samples}", "--grid", "x0=0:1:3"], None, 4, "--grid x0"),
    (["invariant", "--input", "{samples}", "--boxes", "0"], None, 4, "need at least one box"),
    (["regress", "--input", "{samples}", "--grid=0:1"], None, 4, "spec must be LO:HI:N (got '0:1')"),
    (["gaussian", "--input", "{input}"], "t,x1\n0,0.1\n0,0.4\n0,0.9\n", 4, "timestamps must reach past 0"),
] + [
    ([command, *(["--input-a", "{samples}", "--input-b"] if command == "distance" else ["--input"]), "{samples}",
      flag, value], None, 2, f"unrecognized arguments: {flag}")
    for command, flag, value in DROPPED_FLAGS
]


def _coupling_weights():
    """Random 2-D couplings with entries at, just below and just above the emission threshold."""
    near = st.sampled_from([cli.COUPLING_MASS_THRESHOLD, np.nextafter(cli.COUPLING_MASS_THRESHOLD, 0),
                            np.nextafter(cli.COUPLING_MASS_THRESHOLD, 1), 0.0, -0.0])
    entry = st.one_of(near, st.floats(0.0, 1.0, width=64))
    return st.tuples(st.integers(1, 12), st.integers(1, 12)).flatmap(
        lambda shape: st.lists(entry, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]).map(
            lambda values: np.array(values).reshape(shape)))


def _assert_same_entries(weights):
    got, emitted = cli._sparse_entries(weights)
    ref, ref_emitted = oracles.sparse_entries(weights, cli.COUPLING_MASS_THRESHOLD)
    assert got == ref
    assert [type(v) for e in got for v in e] == [type(v) for e in ref for v in e]
    assert np.float64(emitted).tobytes() == np.float64(ref_emitted).tobytes()


class TestSparseEntries:
    """The array-built coupling entries against the per-entry loop of tests/oracles.py."""

    @settings(max_examples=200, deadline=None)
    @given(_coupling_weights())
    def test_matches_the_entry_loop(self, weights):
        _assert_same_entries(weights)

    def test_gmm_coupling(self, tmp_path):
        write(tmp_path / "toy.json", MIXTURE_TOY)
        basis, rows = dataio.load_mixture_dataset(str(tmp_path / "toy.json"))
        _assert_same_entries(fit_mixture_curve(rows, AtomSet.from_atoms(basis), epsilon=0.07, tol=1e-8, max_iter=30000).coupling.weights)


class TestMalformedInput:
    """One cli.main case per class of malformed input, each mapped to its exit category."""

    @pytest.mark.parametrize(
        "argv, content, code, message", MALFORMED_INPUTS, ids=[f"{c[0][0]}: {c[3]}" for c in MALFORMED_INPUTS]
    )
    def test_exit_category(self, tmp_path, capsys, argv, content, code, message):
        _samples_at(tmp_path / "samples.csv", (0.0, 0.5, 1.0))
        if content is not None:
            (tmp_path / "input").write_bytes(content if isinstance(content, bytes) else content.encode())
        paths = {"input": str(tmp_path / "input"), "samples": str(tmp_path / "samples.csv")}
        assert _exit_code([arg.format(**paths) for arg in argv]) == code
        assert message in capsys.readouterr().err


class TestErrorPaths:
    """Exits and rescales of well-formed runs that no other test reaches."""

    @pytest.mark.parametrize("curve, grids, epsilon, message", [
        # a quadratic's 0.29 GiB of dense logs fit, but not with their exponentials
        ("quadratic", ["0:1:200", "x0=-0.5:1.5:40", "x1=-0.5:1.5:40", "x2=-0.5:1.5:40"], "0.1",
         "the dense kernels need 0.6 GiB, more than this machine's 0.5 GiB"),
        # factor_a overflows, so the factored solve leaves the exp domain on its first sweep
        ("linear", ["0:1:400", "x0=-0.5:1.5:250", "x1=-0.5:1.5:250"], "1e-4",
         "the dense log kernels need 0.6 GiB, more than this machine's 0.5 GiB"),
    ])
    def test_kernels_beyond_physical_memory_are_a_precondition_error(self, tmp_path, capsys, monkeypatch, curve, grids, epsilon, message):
        _samples_at(tmp_path / "samples.csv", (0.0, 0.5, 1.0))
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**29 // 4096}.__getitem__)
        argv = ["regress", "--input", str(tmp_path / "samples.csv"), "--curve", curve, "--epsilon", epsilon]
        assert cli.main(argv + [f"--grid={g}" for g in grids]) == 4
        err = json.loads(capsys.readouterr().err)["error"]  # one JSON line, nothing from numpy
        assert err["category"] == "precondition"
        assert err["message"].startswith(message)

    def test_factored_kernels_beyond_physical_memory_are_a_precondition_error(self, tmp_path, capsys, monkeypatch):
        # a 400-point line's factors are refused on a machine of 1 MiB before they are built
        _samples_at(tmp_path / "samples.csv", (0.0, 0.5, 1.0))
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**20 // 4096}.__getitem__)
        argv = ["regress", "--input", str(tmp_path / "samples.csv"), "--grid=0:1:400"]
        assert cli.main(argv + ["--output", str(tmp_path / "out")]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1  # one JSON line, nothing from numpy
        err = json.loads(lines[0])["error"]
        assert err["category"] == "precondition"
        assert err["message"].startswith("the factored kernels need")

    def test_gaussian_stopped_at_max_iter_is_solver_divergence(self, tmp_path, capsys):
        _samples_at(tmp_path / "samples.csv", (0.0, 0.5, 1.0))
        assert cli.main(["gaussian", "--input", str(tmp_path / "samples.csv"), "--tol", "1e-12", "--max-iter", "3"]) == 5
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["category"] == "solver-divergence"
        assert "did not converge in 3 iterations" in err["message"]

    @pytest.mark.parametrize("grid, message", [
        ("1:0:5", "grid data: need hi > lo"),
        ("x0=0:1:1", "grid x0: regress needs at least 2 points per axis"),
    ])
    def test_unusable_grid_is_a_precondition_error(self, tmp_path, capsys, grid, message):
        _samples_at(tmp_path / "samples.csv", (0.0, 0.5, 1.0))
        assert cli.main(["regress", "--input", str(tmp_path / "samples.csv"), "--grid", grid]) == 4
        assert message in capsys.readouterr().err

    def test_gmm_rescales_timestamps_past_1(self, tmp_path):
        # the toy's times 0.1, 1/3, 2/3, 0.9 times 4 run on 4 t / 3.6, the toy's divided by 0.9
        toy = dataio.generate_mixture_toy()
        runs = {}
        for name, scale in (("times4", 4.0), ("over09", 1.0 / 0.9)):
            doc = json.loads(json.dumps(toy))
            for snap in doc["snapshots"]:
                snap["t"] *= scale
            dataio.write_json(str(tmp_path / f"{name}.json"), doc)
            runs[name] = cli.run(cli.RunConfig(command="gmm", input=str(tmp_path / f"{name}.json"), epsilon=0.1))
        assert runs["times4"].diagnostics["converged"]
        np.testing.assert_allclose(runs["times4"].objectives["surrogate"], runs["over09"].objectives["surrogate"], rtol=1e-9)
        np.testing.assert_allclose(
            [e[2] for e in runs["times4"].coupling_entries], [e[2] for e in runs["over09"].coupling_entries], rtol=1e-7, atol=1e-12
        )


class TestLambdaFile:
    """regress, invariant and gaussian share one rule for lambda files."""

    COMMANDS = {
        "regress": ["regress"],
        "invariant": ["invariant", "--boxes", "20"],
        "gaussian": ["gaussian", "--tol", "1e-4"],
    }
    FILES = [  # the input's timestamps are 0, 0.5, 1 and 1.5
        pytest.param("t,lambda\n0,0.25\n0.5,0.25\n1,0.5\n", 4, "no weight for t=1.5", id="lacks-t1.5"),
        pytest.param("t,lambda\n0,0.5\n0.5,0.5\n1,0.5\n1.5,0.5\n", 4, "sum to 1", id="sums-to-2"),
        pytest.param("t,lambda\n0,0.125\n0.5,0.125\n1,0.25\n1.5,0.5\n", 0, "", id="valid"),
    ]

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("lambdas, code, message", FILES)
    def test_same_rule_for_every_command(self, tmp_path, capsys, command, lambdas, code, message):
        _samples_at(tmp_path / "samples.csv", (0.0, 0.5, 1.0, 1.5))
        write(tmp_path / "lam.csv", lambdas)
        argv = [*self.COMMANDS[command], "--input", str(tmp_path / "samples.csv")]
        assert cli.main([*argv, "--lambda-file", str(tmp_path / "lam.csv")]) == code
        assert message in capsys.readouterr().err


class TestCommandDeclarations:
    """Each command's parser, RunConfig and config echo come from one declaration."""

    # command -> (its required flags, the same fields given to RunConfig)
    REQUIRED = {
        "regress": (["--input", "in.csv"], {"input": "in.csv"}),
        "gaussian": (["--input", "in.csv"], {"input": "in.csv"}),
        "gmm": (["--input", "in.json"], {"input": "in.json"}),
        "invariant": (["--input", "in.csv"], {"input": "in.csv"}),
        "distance": (["--input-a", "a.csv", "--input-b", "b.csv"], {"input": "a.csv", "input_b": "b.csv"}),
        "generate": (["ou", "--output", "out.csv"], {"kind": "ou", "output": "out.csv"}),
    }

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_parser_and_run_config_agree(self, command):
        flags, fields = self.REQUIRED[command]
        parsed = cli.config_from_args(cli._build_parser().parse_args([command, *flags]))
        assert parsed.echo() == cli.RunConfig(command=command, **fields).echo()

    def test_defaults_of_the_command(self):
        assert cli.RunConfig(command="gaussian", input="in.csv").max_iter == 50000
        assert cli.RunConfig(command="invariant", input="in.csv").epsilon == 0.05
        assert cli.RunConfig(command="regress", input="in.csv").max_iter == 10000

    def test_fields_a_command_does_not_read_are_rejected(self):
        with pytest.raises(TypeError, match="epsilon"):
            cli.RunConfig(command="gaussian", input="in.csv", epsilon=0.1)
        with pytest.raises(TypeError, match="input"):
            cli.RunConfig(command="regress")


def _readme_section(heading="## Command-line interface"):
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index(heading):]
    return section[: section.index("\n## ")]


def test_readme_library_quick_start_runs(capsys):
    block = _readme_section("## Library quick start").split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["result"].converged
    np.testing.assert_array_equal(scope["dataset"].timestamps, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert float(capsys.readouterr().out) == scope["result"].objective


def _readme_flag_table():
    """The README's flag table: its command columns and {flag: {command: cell}}."""
    lines = [line.strip() for line in _readme_section().splitlines()]
    start = next(i for i, line in enumerate(lines) if line.startswith("| flag |"))
    commands = [c.strip() for c in lines[start].strip("|").split("|")][1:-1]
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split("|")]
        rows[cells[0].strip("`")] = dict(zip(commands, cells[1:]))
    return commands, rows


def test_readme_flag_table_matches_the_parser():
    commands, rows = _readme_flag_table()
    subparsers = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert commands == list(subparsers)
    for command in commands:
        actions = {a.option_strings[0]: a for a in subparsers[command]._actions if a.option_strings}
        del actions["-h"]
        assert sorted(flag for flag, cells in rows.items() if cells[command] != "—") == sorted(actions), command
        for flag, action in actions.items():
            cell, default = rows[flag][command], cli.COMMANDS[command].defaults[action.dest]
            if default is cli.REQUIRED or cell == "required":
                assert cell == "required" and default is cli.REQUIRED, (command, flag)
            elif cell.startswith("`"):  # the default as the flag's text
                _, kwargs, parse = cli._FLAGS[action.dest]
                assert (parse or kwargs.get("type", str))(cell.strip("`")) == default, (command, flag)
            else:  # words for a default that no flag text gives
                assert default in (None, {}, ()), (command, flag)
    options = {s for p in subparsers.values() for a in p._actions for s in a.option_strings}
    mentioned = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", _readme_section()))
    assert mentioned <= options, sorted(mentioned - options)  # no prose about a flag that no command takes


def _readme_examples():
    """The wasscurve command lines of the README's CLI section, without the program name."""
    block = _readme_section().split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("wasscurve ")]


# command lines that argparse rejects (exit 2), beside the dropped flags above; the last
# gives every required flag, so only the leftover --bogus is wrong, and the top-level
# parser reports it with its own usage line
PARSER_ERRORS = [[], ["nope"], ["--input", "x.csv"], ["regress"], ["regress", "--input"], ["regress", "x.csv"],
                 ["regress", "--input", "x.csv", "--curve", "cubic"], ["gmm", "--input", "x.json", "--max-iter", "1.5"],
                 ["generate", "bogus", "--output", "x"], ["distance", "--input", "a.csv"]] + [
    [command, flag, value] for command, flag, value in DROPPED_FLAGS] + [
    ["regress", "--input", "x.csv", "--bogus"]]


# a valid value of each field, as its flag's text
GOOD_VALUES = {
    "input": "x.csv", "input_b": "b.csv", "kind": "ou", "curve": "quadratic", "boxes": "20", "domain": "0:1",
    "epsilon": "0.05", "tol": "1e-6", "max_iter": "300", "grids": "x0=0:1:5", "lambda_file": "lam.csv",
    "query_times": "0,0.5", "output": "out", "r": "4", "snapshots": "3", "particles": "50", "seed": "1",
}
# values for any flag: malformed ints, floats and choices, values starting with "-", and the empty value
ANY_VALUES = ["3", "1.5", "abc", "", "-5.1:5:20", "-0.5", "-0.5,1", "0:1:5", "linear", "cubic", "mixture-toy"]
# tokens that are no flag of the command, or not spelled as one
ODD_TOKENS = ["--eps", "--lambda", "--bogus", "-h", "--help", "--", "-", "x.csv", "ou", ""]
ALL_OPTIONS = sorted({spec.option(n) for spec in cli.COMMANDS.values() for n in spec.defaults} - {"kind"})


def _flag_items(command):
    """One flag of ``command`` (or, now and then, of another command) with a value, written either way."""
    spec = cli.COMMANDS[command]
    names = [n for n in spec.defaults if n != "kind"]

    def written(option, value, joined):
        return [f"{option}={value}"] if joined else [option, value]

    own = st.sampled_from(names).flatmap(lambda n: st.tuples(
        st.just(spec.option(n)), st.one_of(st.just(GOOD_VALUES[n]), st.sampled_from(ANY_VALUES)), st.booleans()))
    foreign = st.tuples(st.sampled_from(ALL_OPTIONS), st.sampled_from(ANY_VALUES), st.booleans())
    return st.one_of(own, own, own, foreign).map(lambda t: written(*t))


@st.composite
def _command_lines(draw):
    """A command line of any command: its required flags (now and then one left out), more flags, repeated
    ones among them, generate's kind anywhere between them, and now and then an odd token."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    spec = cli.COMMANDS[command]
    items = []
    for name, default in spec.defaults.items():
        if default is cli.REQUIRED and name != "kind" and draw(st.integers(0, 4)):
            items.append([f"{spec.option(name)}={GOOD_VALUES[name]}"] if draw(st.booleans())
                         else [spec.option(name), GOOD_VALUES[name]])
    items += draw(st.lists(_flag_items(command), max_size=4))
    extras = [] if draw(st.integers(0, 3)) else [draw(st.sampled_from(ODD_TOKENS))]
    if command == "generate" and draw(st.integers(0, 4)):
        extras.append(draw(st.sampled_from(["ou", "logistic", "mixture-toy", "cubic", ""])))
    for token in extras:
        items.insert(draw(st.integers(0, len(items))), [token])
    return [command, *(token for item in items for token in item)]


# command lines that every run of the property reads: both flag forms, repeats, values starting with "-", empty
# values, prefixes, help, "--", stray tokens, generate's kind before and after its flags, bad values and missing
# required flags
PARSE_EXAMPLES = [
    ["regress", "--input=x.csv", "--grid", "0:1:5", "--grid=x0=-5.1:5:20", "--grid", "x1=0:2:3"],
    ["gmm", "--input", "a.json", "--input", "b.json", "--epsilon=0.05", "--epsilon", "0.07"],
    ["gaussian", "--input", "x.csv", "--query-times", "-0.5,1"],
    ["gaussian", "--input", "x.csv", "--query-times=-0.5,1"],
    ["regress", "--input", "x.csv", "--epsilon", "-0.5"],
    ["regress", "--input", "x.csv", "--grid", "-5.1:5:20"],
    ["regress", "--input=", "--output", "", "--query-times="],
    ["regress", "--input", "x.csv", "--eps", "0.1"],
    ["regress", "--input", "x.csv", "--lambda=lam.csv"],
    ["gmm", "-h"],
    ["gmm", "--input", "x.json", "--"],
    ["gmm", "--input", "x.json", "stray"],
    ["generate", "--output", "o.csv", "ou", "--seed", "2"],
    ["generate", "mixture-toy", "--output=o.json"],
    ["generate", "ou", "ou", "--output", "o.csv"],
    ["generate", "--output", "o.csv"],
    ["invariant", "--input", "x.csv", "--boxes", "1.5"],
    ["regress", "--input", "x.csv", "--tol", "abc"],
    ["regress", "--input", "x.csv", "--curve", "cubic"],
    ["distance", "--input-a", "a.csv", "--input-b=b.csv", "--input", "c.csv"],
    ["distance", "--input-a", "a.csv"],
    ["regress", "--input"],
]


def _with_parse_examples(test):
    for argv in PARSE_EXAMPLES:
        test = example(argv)(test)
    return test


def _outcome(parse, argv):
    """The namespace ``parse`` returns for argv, or its exit code and what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return parse(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


@pytest.fixture
def built_parsers(monkeypatch):
    """The prog of each argparse.ArgumentParser constructed while the test runs."""
    built, init = [], argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    return built


class TestOneCommandParser:
    """main() reads a plain command line from the command's declaration, building no parser; it parses,
    fails and prints help as the parser does."""

    @pytest.mark.parametrize("argv", _readme_examples(), ids=" ".join)
    def test_readme_examples_parse_the_same(self, argv, built_parsers):
        args = cli._parse_args(argv)
        assert built_parsers == []
        assert args == cli._build_parser().parse_args(argv)

    @settings(max_examples=400, deadline=None)
    @given(_command_lines())
    @_with_parse_examples
    def test_command_lines_parse_as_the_parser_parses_them(self, argv):
        assert _outcome(cli._parse_args, argv) == _outcome(cli._build_parser().parse_args, argv)

    def test_main_builds_a_parser_only_for_help_and_errors(self, built_parsers, tmp_path):
        mixture = str(tmp_path / "mix.json")
        dataio.write_json(mixture, dataio.generate_mixture_toy())
        assert cli.main(["gmm", "--input", mixture, "--output", str(tmp_path / "out")]) == 0
        assert built_parsers == []
        full = ["wasscurve"] + [f"wasscurve {command}" for command in cli.COMMANDS]
        for argv, code in ((["gmm", "--help"], 0), (["gmm", "--input", mixture, "--max-iter", "1.5"], 2)):
            assert _outcome(cli.main, argv)[0] == code
            assert built_parsers == full, argv
            built_parsers.clear()

    @pytest.mark.parametrize("argv", PARSER_ERRORS, ids=" ".join)
    def test_errors_print_the_same(self, capsys, argv):
        printed = []
        for parse in (cli._parse_args, cli._build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            printed.append((exc.value.code, capsys.readouterr()))
        assert printed[0] == printed[1]
        assert printed[0][0] == 2 and printed[0][1].err

    @pytest.mark.parametrize("argv", [["--help"], ["gmm", "--help"], ["generate", "-h"]], ids=" ".join)
    def test_help_prints_the_same(self, capsys, argv):
        printed = []
        for parse in (cli._parse_args, cli._build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            printed.append((exc.value.code, capsys.readouterr()))
        assert printed[0] == printed[1]
        assert printed[0][0] == 0 and printed[0][1].out


def test_cli_import_loads_no_scipy():
    """The solvers need numpy only; scipy is imported by the exact LP alone."""
    code = "import sys, wasscurve.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["generate", "regress", "gaussian", "gmm", "invariant", "distance"])
def test_commands_load_no_numpy_ma(tmp_path, command):
    """np.unique imports numpy.ma on its hash path (10-17 ms per process); no command takes that path."""
    samples, mixture, atoms_a, atoms_b = (tmp_path / name for name in ("s.csv", "m.json", "a.csv", "b.csv"))
    dataio.write_sample_csv(str(samples), generate_logistic_rows(r=3.0, n_snapshots=4, n_particles=100, seed=0))
    dataio.write_json(str(mixture), dataio.generate_mixture_toy())
    write(atoms_a, "t,weight,x1\n0,0.5,0.0\n0,0.25,1.0\n0,0.25,2.0\n")
    write(atoms_b, "t,weight,x1\n0,1,0.5\n")
    out = str(tmp_path / "out")
    argv = {
        "generate": ["generate", "ou", "--particles", "50", "--snapshots", "4", "--output", str(tmp_path / "ou.csv")],
        "regress": ["regress", "--input", str(samples), "--grid", "0:1:12", "--output", out],
        "gaussian": ["gaussian", "--input", str(samples), "--output", out],
        "gmm": ["gmm", "--input", str(mixture), "--output", out],
        "invariant": ["invariant", "--input", str(samples), "--boxes", "10", "--output", out],
        "distance": ["distance", "--input-a", str(atoms_a), "--input-b", str(atoms_b), "--output", out],
    }[command]
    code = "import sys; from wasscurve import cli; print(cli.main(sys.argv[1:]), 'numpy.ma' in sys.modules)"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True)
    assert res.stdout.split()[-2:] == ["0", "False"]


def _moments_by_timestamp_loop(path):
    """One rescan of the rows per timestamp: the reference for cli._moments_by_timestamp."""
    from wasscurve.gaussian_regression import biased_covariance

    schema, times, weights, positions = dataio.read_snapshot_rows(path)
    out = []
    for t in sorted(set(times.tolist())):
        pts = positions[times == t]
        wts = weights[times == t]
        if schema == "atoms":
            wts = wts / wts.sum()
            mean = wts @ pts
            centered = pts - mean
            cov = (centered * wts[:, None]).T @ centered
        else:
            mean, cov = biased_covariance(pts)
        out.append((t, mean, cov))
    return out


@pytest.mark.parametrize("schema", ["samples", "atoms"])
def test_moments_by_timestamp_match_the_per_timestamp_scan(tmp_path, schema):
    rng = np.random.default_rng(11)
    n = 300
    ts = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0], size=n).tolist()
    xs = rng.normal(size=(n, 2)).tolist()
    if schema == "samples":
        lines = ["t,x1,x2"] + [f"{t!r},{a!r},{b!r}" for t, (a, b) in zip(ts, xs)]
    else:
        w = rng.random(n) + 0.1
        for t in set(ts):  # each timestamp's weights sum to 1, as the atoms format requires
            w[np.array(ts) == t] /= w[np.array(ts) == t].sum()
        w = w.tolist()
        lines = ["t,weight,x1,x2"] + [f"{t!r},{wi!r},{a!r},{b!r}" for t, wi, (a, b) in zip(ts, w, xs)]
    p = tmp_path / "m.csv"
    write(p, "\n".join(lines) + "\n")
    got = cli._moments_by_timestamp(str(p))
    ref = _moments_by_timestamp_loop(str(p))
    assert [g[0] for g in got] == [r[0] for r in ref]
    for (_, mean, cov), (_, mean_ref, cov_ref) in zip(got, ref):
        np.testing.assert_array_equal(mean, mean_ref)
        np.testing.assert_array_equal(cov, cov_ref)
