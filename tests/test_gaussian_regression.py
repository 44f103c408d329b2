"""Gaussian W2 geometry, geodesics, and the block-covariance SDP."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wasscurve import cli, gaussian_regression
from wasscurve.curves import LINEAR, QUADRATIC
from wasscurve.gaussian_regression import (
    _nnls_two_columns,
    biased_covariance,
    fit_gaussian_sdp,
    gaussian_1d_parametric_oracle,
    gaussian_geodesic,
    project_psd,
    w2_gaussian,
    w2_gaussian_squared,
)
from wasscurve.measures import DiscreteMeasure, GaussianMeasure, SupportGrid
from wasscurve.mm_sinkhorn import SolverError
from wasscurve.two_marginal import two_marginal_w2_exact

import oracles


def g1d(mean, std):
    return GaussianMeasure.from_std_1d(mean, std)


class TestW2Gaussian:
    def test_identical_gaussians(self):
        # square root of trace-level float noise: zero only to ~1e-8
        a = GaussianMeasure(np.zeros(2), np.array([[2.0, 0.3], [0.3, 1.0]]))
        assert w2_gaussian(a, a) == pytest.approx(0.0, abs=1e-7)

    def test_1d_variances(self):
        assert w2_gaussian(g1d(0, 1), g1d(0, 2)) == pytest.approx(1.0, abs=1e-12)

    def test_2d_mean_only(self):
        a = GaussianMeasure(np.zeros(2), np.eye(2))
        b = GaussianMeasure(np.array([3.0, 4.0]), np.eye(2))
        assert w2_gaussian(a, b) == pytest.approx(5.0, abs=1e-12)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            ca = rng.standard_normal((2, 2))
            cb = rng.standard_normal((2, 2))
            a = GaussianMeasure(rng.standard_normal(2), ca @ ca.T)
            b = GaussianMeasure(rng.standard_normal(2), cb @ cb.T)
            assert w2_gaussian(a, b) == pytest.approx(w2_gaussian(b, a), abs=1e-9)

    def test_matches_fine_grid_exact_transport(self):
        # closed form against the discretized problem within 2 percent
        cases = [((0.0, 1.0), (0.5, 1.5)), ((-1.0, 0.7), (1.0, 1.2)), ((0.0, 1.0), (0.0, 2.0))]
        for (m0, s0), (m1, s1) in cases:
            lo = min(m0 - 5 * s0, m1 - 5 * s1)
            hi = max(m0 + 5 * s0, m1 + 5 * s1)
            grid = SupportGrid(np.linspace(lo, hi, 200)[:, None])
            mu = DiscreteMeasure(grid, oracles.gaussian_pdf_measure(grid.points, m0, s0))
            nu = DiscreteMeasure(grid, oracles.gaussian_pdf_measure(grid.points, m1, s1))
            lp_cost, _ = two_marginal_w2_exact(mu, nu)
            closed = w2_gaussian_squared(g1d(m0, s0), g1d(m1, s1))
            assert closed == pytest.approx(lp_cost, rel=0.02)

    def test_matches_entropic_transport_at_small_epsilon(self):
        from wasscurve.two_marginal import two_marginal_w2

        m0, s0, m1, s1 = 0.0, 1.0, 0.5, 1.5
        grid = SupportGrid(np.linspace(m0 - 5 * s1, m1 + 5 * s1, 200)[:, None])
        mu = DiscreteMeasure(grid, oracles.gaussian_pdf_measure(grid.points, m0, s0))
        nu = DiscreteMeasure(grid, oracles.gaussian_pdf_measure(grid.points, m1, s1))
        closed = w2_gaussian_squared(g1d(m0, s0), g1d(m1, s1))
        ent, _ = two_marginal_w2(mu, nu, epsilon=0.01 * closed, tol=1e-9)
        assert closed == pytest.approx(ent, rel=0.02)


    def test_entropic_transport_at_small_epsilon_reaches_its_tol(self, caplog):
        # the instance above: plain iterations stop at max_iter with residual
        # 1.8e-8; accelerated ones reach tol 1e-9 in both marginals
        from wasscurve.two_marginal import two_marginal_w2

        m0, s0, m1, s1 = 0.0, 1.0, 0.5, 1.5
        grid = SupportGrid(np.linspace(m0 - 5 * s1, m1 + 5 * s1, 200)[:, None])
        mu = DiscreteMeasure(grid, oracles.gaussian_pdf_measure(grid.points, m0, s0))
        nu = DiscreteMeasure(grid, oracles.gaussian_pdf_measure(grid.points, m1, s1))
        closed = w2_gaussian_squared(g1d(m0, s0), g1d(m1, s1))
        with caplog.at_level("INFO"):
            _, plan = two_marginal_w2(mu, nu, epsilon=0.01 * closed, tol=1e-9)
        assert "max_iter" not in caplog.text
        assert "sinkhorn sweeps: " in caplog.text and " extrapolations kept, " in caplog.text
        assert np.abs(plan.sum(axis=1) - mu.weights).sum() <= 1e-9
        assert np.abs(plan.sum(axis=0) - nu.weights).sum() <= 1e-9


class TestGaussianGeodesic:
    def test_endpoints(self):
        a = GaussianMeasure(np.array([0.0, 0.0]), np.array([[1.0, 0.2], [0.2, 0.8]]))
        b = GaussianMeasure(np.array([1.0, -1.0]), np.array([[2.0, -0.1], [-0.1, 0.5]]))
        start = gaussian_geodesic(a, b, 0.0)
        end = gaussian_geodesic(a, b, 1.0)
        np.testing.assert_allclose(start.covariance, a.covariance, atol=1e-9)
        np.testing.assert_allclose(end.covariance, b.covariance, atol=1e-9)
        np.testing.assert_allclose(end.mean, b.mean, atol=1e-12)

    def test_1d_std_interpolates_linearly(self):
        mid = gaussian_geodesic(g1d(0, 1), g1d(0, 3), 0.5)
        assert np.sqrt(mid.covariance[0, 0]) == pytest.approx(2.0, abs=1e-12)

    def test_constant_speed(self):
        a = GaussianMeasure(np.array([0.0]), np.array([[1.0]]))
        b = GaussianMeasure(np.array([2.0]), np.array([[4.0]]))
        total = w2_gaussian(a, b)
        times = np.linspace(0.1, 0.9, 9)
        for s in times:
            for t in times:
                if s < t:
                    ds = w2_gaussian(gaussian_geodesic(a, b, s), gaussian_geodesic(a, b, t))
                    assert ds == pytest.approx((t - s) * total, abs=1e-6)

    def test_commuting_fallback(self):
        a = GaussianMeasure(np.array([0.0]), np.array([[0.0]]))
        b = g1d(0.0, 1.0)
        mid = gaussian_geodesic(a, b, 0.5)
        assert np.sqrt(mid.covariance[0, 0]) == pytest.approx(0.5, abs=1e-12)
        # a singular start that commutes with the end (d = 2), and a zero-variance start in 1-D,
        # against the per-pair reference
        pairs = [
            (GaussianMeasure(np.array([0.0, 1.0]), np.diag([2.0, 0.0])),
             GaussianMeasure(np.array([1.0, -1.0]), np.diag([0.5, 3.0]))),
            (GaussianMeasure(np.array([1.5]), np.array([[0.0]])), g1d(-0.5, 2.0)),
        ]
        for start, end in pairs:
            for t in (0.0, 0.3, 0.5, 1.0):
                got, expected = gaussian_geodesic(start, end, t), oracles.gaussian_geodesic(start, end, t)
                np.testing.assert_allclose(got.mean, expected.mean, rtol=1e-12, atol=1e-15)
                np.testing.assert_allclose(got.covariance, expected.covariance, rtol=1e-12, atol=1e-14)

    def test_noncommuting_singular_rejected(self):
        a = GaussianMeasure(np.zeros(2), np.diag([1.0, 0.0]))
        rot = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
        b = GaussianMeasure(np.zeros(2), rot @ np.diag([2.0, 0.5]) @ rot.T)
        with pytest.raises(ValueError, match="non-commuting"):
            gaussian_geodesic(a, b, 0.5)

    def test_time_domain_enforced(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            gaussian_geodesic(g1d(0, 1), g1d(0, 2), 1.5)


def ou_data(n=20):
    ts = np.linspace(0.1, 1.0, n)
    sig2 = 2.0 * (1.0 - np.exp(-2.0 * ts))
    lam = np.full(n, 1.0 / n)
    return [(t, l, np.array([[s2]])) for t, l, s2 in zip(ts, lam, sig2)]


class TestFitGaussianSdp:
    def test_stationary_data_fit_exactly(self):
        c = np.array([[1.5, 0.4], [0.4, 0.9]])
        data = [(t, 1 / 3, c) for t in (0.0, 0.5, 1.0)]
        blocks, curve = fit_gaussian_sdp(data, LINEAR)
        assert blocks.diagnostics.objective == pytest.approx(0.0, abs=1e-5)
        for t in (0.0, 0.3, 1.0):
            np.testing.assert_allclose(curve.covariance(t), c, atol=1e-3)

    def test_geodesic_form_data_recovered(self):
        # variances ((1-t) + 2t)^2 at t in {0, 1/2, 1} are exactly representable
        data = [(t, 1 / 3, np.array([[(1.0 + t) ** 2]])) for t in (0.0, 0.5, 1.0)]
        blocks, curve = fit_gaussian_sdp(data, LINEAR, tol=1e-9)
        assert blocks.diagnostics.objective == pytest.approx(0.0, abs=1e-7)
        for t in np.linspace(0, 1, 11):
            assert curve.covariance(t)[0, 0] == pytest.approx((1.0 + t) ** 2, abs=1e-3)

    def test_single_snapshot_trivial(self):
        data = [(0.5, 1.0, np.array([[2.0]]))]
        blocks, _ = fit_gaussian_sdp(data, LINEAR)
        assert blocks.diagnostics.objective == pytest.approx(0.0, abs=1e-6)

    def test_fixed_blocks_hold_data_exactly(self):
        data = ou_data(6)
        blocks, _ = fit_gaussian_sdp(data, LINEAR)
        for i, (_, _, c) in enumerate(data):
            lo = (blocks.k + i) * blocks.d
            np.testing.assert_array_equal(blocks.matrix[lo : lo + blocks.d, lo : lo + blocks.d], c)

    def test_matrix_psd_within_tolerance(self):
        data = ou_data(8)
        blocks, curve = fit_gaussian_sdp(data, LINEAR)
        evals = np.linalg.eigvalsh(blocks.matrix)
        assert evals.min() >= -1e-5
        assert min(np.linalg.eigvalsh(curve.covariance(t)).min() for t in np.linspace(0.0, 1.0, 101)) >= -1e-8

    def test_rotation_invariance_of_objective(self):
        rng = np.random.default_rng(31)
        theta = 0.6
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        covs = []
        for t in (0.0, 0.5, 1.0):
            g = rng.standard_normal((2, 2))
            covs.append(g @ g.T + 0.3 * np.eye(2))
        data = [(t, 1 / 3, c) for t, c in zip((0.0, 0.5, 1.0), covs)]
        rotated = [(t, 1 / 3, rot @ c @ rot.T) for t, _, c in data]
        obj_a = fit_gaussian_sdp(data, LINEAR)[0].diagnostics.objective
        obj_b = fit_gaussian_sdp(rotated, LINEAR)[0].diagnostics.objective
        assert obj_a == pytest.approx(obj_b, rel=1e-3, abs=1e-7)

    def test_ou_ordering_with_solver_slack(self):
        data = ou_data()
        lin = fit_gaussian_sdp(data, LINEAR, tol=1e-9)[0].diagnostics.objective
        quad = fit_gaussian_sdp(data, QUADRATIC)[0].diagnostics.objective
        sig = [(t, l, float(np.sqrt(c[0, 0]))) for t, l, c in data]
        _, geo = gaussian_1d_parametric_oracle(sig)
        assert quad <= lin + 1e-6
        assert lin <= geo + 1e-7  # mathematically equal on this dataset; slack covers ADMM noise

    def test_means_fitted_separately(self):
        data = [(t, 1 / 3, np.array([[1.0]])) for t in (0.0, 0.5, 1.0)]
        means = [np.array([0.0]), np.array([0.5]), np.array([1.0])]
        _, curve = fit_gaussian_sdp(data, LINEAR, means=means)
        assert curve.mean(0.25)[0] == pytest.approx(0.25, abs=1e-10)

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            fit_gaussian_sdp([(0.0, 0.7, np.eye(1)), (1.0, 0.7, np.eye(1))], LINEAR)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_tol(self, tol):
        # before: the whole budget (50,000 ADMM steps by default) ran, then SolverError
        with pytest.raises(ValueError, match="tol must be a positive finite number"):
            fit_gaussian_sdp(ou_data(), LINEAR, tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -5])
    def test_rejects_empty_budget(self, max_iter):
        # before: "did not converge in -5 iterations"
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            fit_gaussian_sdp(ou_data(), LINEAR, max_iter=max_iter)

    def test_nonconvergence_raises(self):
        with pytest.raises(SolverError, match="did not converge"):
            fit_gaussian_sdp(ou_data(), LINEAR, max_iter=3)


def random_gaussian_data(seed, d, n, asymmetry=0.0):
    """n snapshots at random times in [0, 1], random weights summing to 1, random positive definite covariances;
    each entry then moves by up to ``asymmetry`` times the largest one, so that, for d > 1, they are symmetric
    only to that tolerance."""
    rng = np.random.default_rng(seed)
    lams = rng.uniform(0.1, 1.0, n)
    out = []
    for t, lam in zip(rng.uniform(0.0, 1.0, n), lams / lams.sum()):
        g = rng.standard_normal((d, d))
        cov = g @ g.T + 0.1 * np.eye(d)
        if asymmetry:
            cov += asymmetry * np.abs(cov).max() * rng.uniform(-1.0, 1.0, (d, d))
        out.append((t, lam, cov))
    return out


class TestAdmmLoop:
    """The ADMM loop against the one of tests/oracles.py, which validates and symmetrizes every projection input."""

    MAX_ITER = 2000

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([1, 2]),
        curve=st.sampled_from([LINEAR, QUADRATIC]),
        n=st.integers(1, 6),
        tol=st.sampled_from([1e-2, 1e-3, 1e-4, 1e-5]),
        asymmetry=st.sampled_from([0.0, 1e-13]),  # GaussianMeasure accepts 1e-12 relative
    )
    def test_bit_equal_to_the_reference_loop(self, seed, d, curve, n, tol, asymmetry):
        data = random_gaussian_data(seed, d, n, asymmetry)
        try:
            matrix, iterations, primal, dual, rho = oracles.gaussian_sdp_admm(data, curve, tol, self.MAX_ITER)
        except SolverError:
            with pytest.raises(SolverError):
                fit_gaussian_sdp(data, curve, tol=tol, max_iter=self.MAX_ITER)
            return
        blocks, _ = fit_gaussian_sdp(data, curve, tol=tol, max_iter=self.MAX_ITER)
        assert np.array_equal(blocks.matrix, matrix)
        diag = blocks.diagnostics
        assert (diag.iterations, diag.primal_residual, diag.dual_residual, diag.rho) == (iterations, primal, dual, rho)

    def test_bit_equal_on_the_benchmark_instance(self, tmp_path, monkeypatch):
        # perfbench's gaussian workload: generate ou --particles 1000, then gaussian --curve quadratic --tol 3e-6
        calls = []

        def recording(data, curve, **kwargs):
            blocks, gcurve = fit_gaussian_sdp(data, curve, **kwargs)
            calls.append((data, curve, kwargs, blocks))
            return blocks, gcurve

        samples = str(tmp_path / "samples.csv")
        assert cli.main(["generate", "ou", "--particles", "1000", "--seed", "0", "--output", samples]) == 0
        monkeypatch.setattr(cli, "fit_gaussian_sdp", recording)
        argv = ["gaussian", "--curve", "quadratic", "--tol", "3e-6", "--input", samples, "--output", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        (data, curve, kwargs, blocks), = calls
        matrix, iterations, primal, dual, rho = oracles.gaussian_sdp_admm(data, curve, kwargs["tol"], kwargs["max_iter"])
        assert iterations == 3162
        assert np.array_equal(blocks.matrix, matrix)
        diag = blocks.diagnostics
        assert (diag.iterations, diag.primal_residual, diag.dual_residual, diag.rho) == (iterations, primal, dual, rho)

    @pytest.mark.parametrize("data, curve", [
        (ou_data(8), QUADRATIC),
        (random_gaussian_data(5, 2, 4), LINEAR),
        (random_gaussian_data(5, 2, 4, 1e-13), LINEAR),
    ], ids=["ou-quadratic", "2d-linear", "2d-linear-asymmetric"])
    def test_every_projection_input_is_bitwise_symmetric(self, monkeypatch, data, curve):
        inputs = []

        def recording(a):
            inputs.append(np.array(a))
            return project_psd(a)

        monkeypatch.setattr(gaussian_regression, "project_psd", recording)
        blocks, _ = fit_gaussian_sdp(data, curve, tol=1e-6)
        assert len(inputs) == blocks.diagnostics.iterations + 1  # the warm start, then one per step
        assert all(m.tobytes() == m.T.tobytes() for m in inputs[1:])


class TestParametricOracle:
    def test_affine_sigmas_zero_residual(self):
        data = [(t, 1 / 3, 1.0 + 0.5 * t) for t in (0.0, 0.5, 1.0)]
        params, residual = gaussian_1d_parametric_oracle(data)
        assert residual == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(params, [1.0, 1.5], atol=1e-10)

    def test_two_points_interpolate(self):
        data = [(0.0, 0.5, 0.7), (1.0, 0.5, 1.9)]
        _, residual = gaussian_1d_parametric_oracle(data)
        assert residual == pytest.approx(0.0, abs=1e-15)

    def test_ou_residual_strictly_positive(self):
        ts = np.linspace(0.1, 1.0, 20)
        sig = np.sqrt(2.0 * (1.0 - np.exp(-2.0 * ts)))
        data = [(t, 1 / 20, s) for t, s in zip(ts, sig)]
        _, residual = gaussian_1d_parametric_oracle(data)
        assert residual > 1e-4

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError, match="positive"):
            gaussian_1d_parametric_oracle([(0.0, 0.5, 1.0), (1.0, 0.5, 0.0)])

    def test_rejects_degenerate_design(self):
        with pytest.raises(ValueError, match="distinct"):
            gaussian_1d_parametric_oracle([(0.5, 0.5, 1.0), (0.5, 0.5, 2.0)])


class TestNnlsTwoColumns:
    """The closed-form two-column NNLS against scipy.optimize.nnls.

    Each design is built so that its optimum has a chosen active set: b is
    A x* - r, where the gradient A^T r of |A x - b|^2 / 2 at x* vanishes on
    the free coefficients and is positive on the ones held at 0 (the KKT
    conditions), plus, with more than two rows, a component orthogonal to
    both columns.
    """

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(2, 9),
        active=st.sampled_from([(), (0,), (1,), (0, 1)]),
    )
    def test_matches_scipy_nnls(self, seed, rows, active):
        from scipy.optimize import nnls

        rng = np.random.default_rng(seed)
        a = rng.normal(size=(rows, 2))
        assume(np.linalg.cond(a) < 1e3)
        x_star = rng.uniform(0.1, 3.0, 2)
        x_star[list(active)] = 0.0
        grad = np.zeros(2)
        grad[list(active)] = rng.uniform(0.1, 3.0, len(active))
        r = a @ np.linalg.solve(a.T @ a, grad)  # A^T r = grad, the gradient of |a x - b|^2 / 2 at x*
        if rows > 2:
            q, _ = np.linalg.qr(a, mode="complete")
            r += q[:, 2:] @ rng.normal(size=rows - 2)
        b = a @ x_star - r
        x, rnorm = _nnls_two_columns(a, b)
        x_ref, rnorm_ref = nnls(a, b)
        np.testing.assert_allclose(x, x_ref, rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(rnorm, rnorm_ref, rtol=1e-10, atol=1e-14)
        assert np.all(x >= 0)
        np.testing.assert_array_equal(x == 0, x_star == 0)


class TestBiasedCovariance:
    def test_divides_by_n(self):
        x = np.array([[0.0], [2.0]])
        mean, cov = biased_covariance(x)
        assert mean[0] == pytest.approx(1.0)
        assert cov[0, 0] == pytest.approx(1.0)  # ((1)^2 + (1)^2) / 2

    def test_multivariate_shape(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((100, 3))
        mean, cov = biased_covariance(x)
        assert mean.shape == (3,) and cov.shape == (3, 3)
        np.testing.assert_allclose(cov, cov.T, atol=1e-15)
