"""Regression driver: fit, marginals, euclidean oracle, true-objective diagnostic."""

import numpy as np
import pytest

from wasscurve.curve_regression import (
    LINEAR,
    QUADRATIC,
    ExtrapolationWarning,
    SolverConfig,
    default_param_grids,
    euclidean_regression_oracle,
    fit,
    marginal_at,
    objective_true,
)
from wasscurve.measures import DiscreteMeasure, SnapshotDataset, SupportGrid
from wasscurve.mm_sinkhorn import ParamCoupling


def grid_1d(values):
    return SupportGrid(np.asarray(values, dtype=float)[:, None])


def dirac_dataset(timestamps, values, grid):
    measures = []
    pts = grid.points[:, 0]
    for v in values:
        w = np.zeros(len(grid))
        w[int(np.argmin(np.abs(pts - v)))] = 1.0
        measures.append(DiscreteMeasure(grid, w))
    n = len(measures)
    return SnapshotDataset(np.asarray(timestamps, dtype=float), tuple(measures), np.full(n, 1 / n))


class TestEuclideanOracle:
    def test_collinear_data_zero_residual(self):
        pts = [(0.0, 0.1, 1 / 3), (0.5, 0.45, 1 / 3), (1.0, 0.8, 1 / 3)]
        params, residual = euclidean_regression_oracle(pts, LINEAR)
        assert residual == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(params.ravel(), [0.1, 0.8], atol=1e-12)

    def test_v_pattern_closed_form(self):
        pts = [(0.0, 0.0, 1 / 3), (0.5, 1.0, 1 / 3), (1.0, 0.0, 1 / 3)]
        params, residual = euclidean_regression_oracle(pts, LINEAR)
        np.testing.assert_allclose(params.ravel(), [1 / 3, 1 / 3], atol=1e-12)
        assert residual == pytest.approx(2.0 / 9.0, abs=1e-12)

    def test_quadratic_interpolates_three_points(self):
        pts = [(0.0, 0.3, 1 / 3), (0.5, 0.9, 1 / 3), (1.0, 0.1, 1 / 3)]
        _, residual = euclidean_regression_oracle(pts, QUADRATIC)
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_multivariate_data(self):
        pts = [(0.0, np.array([0.0, 1.0]), 0.5), (1.0, np.array([1.0, 0.0]), 0.5)]
        params, residual = euclidean_regression_oracle(pts, LINEAR)
        assert residual == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(params, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)

    def test_rejects_underdetermined(self):
        with pytest.raises(ValueError, match="distinct timestamps"):
            euclidean_regression_oracle([(0.5, 1.0, 1.0)], LINEAR)
        with pytest.raises(ValueError, match="distinct timestamps"):
            euclidean_regression_oracle([(0.0, 1.0, 0.5), (1.0, 0.0, 0.5)], QUADRATIC)


class TestFit:
    def test_perfect_line_reaches_zero_objective(self):
        grid = grid_1d([0.0, 0.25, 0.5, 0.75, 1.0])
        ds = dirac_dataset([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], grid)
        result = fit(ds, LINEAR, SolverConfig(epsilon=1e-3, tol=1e-9))
        assert result.converged
        assert result.objective <= 1e-4
        mode = result.coupling.mode()
        np.testing.assert_allclose(mode.ravel(), [0.0, 1.0], atol=1e-12)
        # at (near) zero objective the pushforward marginals reproduce the data
        for t, mu in zip(ds.timestamps, ds.measures):
            nu = marginal_at(result, float(t), grid)
            assert np.abs(nu.weights - mu.weights).sum() <= 1e-6

    def test_dirac_objective_matches_euclidean_oracle(self):
        grid = grid_1d([0.0, 1 / 3, 0.5, 1.0])
        ds = dirac_dataset([0.0, 0.5, 1.0], [0.0, 1.0, 0.0], grid)
        _, oracle_residual = euclidean_regression_oracle(
            [(0.0, 0.0, 1 / 3), (0.5, 1.0, 1 / 3), (1.0, 0.0, 1 / 3)], LINEAR
        )
        cost_scale = 1.0  # squared spread of the grid
        result = fit(ds, LINEAR, SolverConfig(epsilon=1e-3 * cost_scale, tol=1e-9))
        assert result.objective == pytest.approx(oracle_residual, rel=0.05)

    def test_quadratic_interpolates_three_diracs(self):
        grid = grid_1d([0.0, 0.5, 1.0])
        ds = dirac_dataset([0.0, 0.5, 1.0], [0.0, 1.0, 0.0], grid)
        pg = (grid, grid_1d([-2.0, 0.0, 2.0, 4.0]), grid_1d([-8.0, -4.0, 0.0, 4.0]))
        result = fit(ds, QUADRATIC, SolverConfig(epsilon=1e-3, tol=1e-9, param_grids=pg))
        # parabola through (0,0), (0.5,1), (1,0): x0=0, x1=4, x2=-4
        assert result.objective <= 1e-4
        np.testing.assert_allclose(result.coupling.mode().ravel(), [0.0, 4.0, -4.0], atol=1e-12)

    def test_quadratic_with_nested_grids_never_worse(self):
        # hypothesis-class nesting: every line (a, b) embeds as (a, b - a, 0)
        grid = grid_1d([0.0, 0.25, 0.5, 0.75, 1.0])
        rng = np.random.default_rng(21)
        rows = rng.random((4, 5)) + 0.1
        rows /= rows.sum(axis=1, keepdims=True)
        measures = tuple(DiscreteMeasure(grid, w) for w in rows)
        ds = SnapshotDataset(np.array([0.0, 0.3, 0.7, 1.0]), measures, np.full(4, 0.25))
        lin_grids = (grid, grid)
        diffs = np.unique(np.round(grid.points[:, 0][None, :] - grid.points[:, 0][:, None], 12))
        quad_grids = (grid, grid_1d(diffs), grid_1d([0.0]))

        from wasscurve.kernels import build_kernels
        import oracles

        def lp_value(curve, grids, eps):
            kernels = build_kernels(ds, curve, grids, eps)
            costs = np.stack([kernels.cost(i) for i in range(len(ds))])
            value, _ = oracles.multimarginal_lp(costs, ds.lambdas, ds.target_matrix())
            return value

        assert lp_value(QUADRATIC, quad_grids, 1.0) <= lp_value(LINEAR, lin_grids, 1.0) + 1e-10

        # entropic surrogates carry an entropy bias of order epsilon * log of the
        # parameter-count ratio, so the same comparison needs that much slack
        eps = 0.02
        lin = fit(ds, LINEAR, SolverConfig(epsilon=eps, tol=1e-9, param_grids=lin_grids))
        quad = fit(ds, QUADRATIC, SolverConfig(epsilon=eps, tol=1e-9, param_grids=quad_grids))
        n_lin = len(lin_grids[0]) * len(lin_grids[1])
        n_quad = len(quad_grids[0]) * len(quad_grids[1]) * len(quad_grids[2])
        assert quad.objective <= lin.objective + eps * np.log(n_quad / n_lin) + 1e-9

    def test_invariant_under_snapshot_permutation(self):
        grid = grid_1d([0.0, 0.5, 1.0])
        rows = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]])
        snaps = [(0.0, DiscreteMeasure(grid, rows[0])), (0.5, DiscreteMeasure(grid, rows[1])), (1.0, DiscreteMeasure(grid, rows[2]))]
        a = fit(SnapshotDataset.from_snapshots(snaps), LINEAR, SolverConfig(epsilon=0.1, tol=1e-10))
        b = fit(SnapshotDataset.from_snapshots(snaps[::-1]), LINEAR, SolverConfig(epsilon=0.1, tol=1e-10))
        assert a.objective == pytest.approx(b.objective, rel=1e-12)
        np.testing.assert_allclose(a.coupling.weights, b.coupling.weights, rtol=1e-10)

    def test_requires_normalized_time_and_three_snapshots(self):
        grid = grid_1d([0.0, 1.0])
        m = DiscreteMeasure(grid, np.array([0.5, 0.5]))
        two = SnapshotDataset(np.array([0.0, 1.0]), (m, m), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="3 snapshots"):
            fit(two, LINEAR)
        with pytest.raises(ValueError, match="above the upper bound 1"):
            SnapshotDataset(np.array([0.0, 1.0, 2.0]), (m, m, m), np.full(3, 1 / 3))


class TestDefaultParamGrids:
    def test_linear_reuses_data_grid(self):
        grid = grid_1d([0.0, 0.5, 1.0])
        ds = dirac_dataset([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], grid)
        g = default_param_grids(ds, LINEAR)
        assert g[0] is grid and g[1] is grid

    def test_quadratic_rate_grids_span_twice_range(self):
        grid = grid_1d([0.0, 0.5, 1.0])
        ds = dirac_dataset([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], grid)
        g = default_param_grids(ds, QUADRATIC)
        assert g[0] is grid
        for rate in g[1:]:
            assert len(rate) == len(grid)
            assert rate.points.min() == pytest.approx(-2.0)
            assert rate.points.max() == pytest.approx(2.0)


class TestMarginalAt:
    def make_result(self):
        grid = grid_1d([0.0, 0.25, 0.5, 0.75, 1.0])
        ds = dirac_dataset([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], grid)
        return fit(ds, LINEAR, SolverConfig(epsilon=1e-3, tol=1e-9)), ds

    def test_endpoint_marginals_are_projections(self):
        result, ds = self.make_result()
        w = result.coupling.weights
        m0 = marginal_at(result, 0.0, ds.grid)
        m1 = marginal_at(result, 1.0, ds.grid)
        np.testing.assert_allclose(m0.weights, w.sum(axis=1), atol=1e-12)
        np.testing.assert_allclose(m1.weights, w.sum(axis=0), atol=1e-12)

    def test_dirac_coupling_pushforward(self):
        grid = grid_1d([0.0, 0.25, 0.5, 0.75, 1.0])
        coupling = np.zeros((5, 5))
        coupling[0, 4] = 1.0  # all mass on the line from 0 to 1
        pc = ParamCoupling((grid, grid), coupling)
        from wasscurve.curve_regression import RegressionResult

        res = RegressionResult(pc, LINEAR, 0.0, 0, 0.0, 1e-3, True, state=None)
        m = marginal_at(res, 0.25, grid)
        np.testing.assert_array_equal(m.weights, [0, 1.0, 0, 0, 0])

    def test_extrapolation_warns(self):
        result, ds = self.make_result()
        with pytest.warns(ExtrapolationWarning):
            m = marginal_at(result, 1.5, ds.grid)
        assert m.weights.sum() == pytest.approx(1.0)

    def test_empty_grid_rejected(self):
        result, ds = self.make_result()
        with pytest.raises(ValueError):
            marginal_at(result, 0.5, SupportGrid(np.zeros((0, 1))))


class TestObjectiveTrue:
    def test_zero_residual_instance(self):
        grid = grid_1d([0.0, 0.25, 0.5, 0.75, 1.0])
        ds = dirac_dataset([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], grid)
        result = fit(ds, LINEAR, SolverConfig(epsilon=1e-3, tol=1e-10))
        assert objective_true(result, ds) == pytest.approx(0.0, abs=1e-6)

    def test_bounded_by_surrogate_plus_grid_error(self):
        grid = grid_1d(np.linspace(0, 1, 9))
        rng = np.random.default_rng(17)
        rows = rng.random((3, 9)) + 0.05
        rows /= rows.sum(axis=1, keepdims=True)
        measures = tuple(DiscreteMeasure(grid, w) for w in rows)
        ds = SnapshotDataset(np.array([0.0, 0.5, 1.0]), measures, np.full(3, 1 / 3))
        result = fit(ds, LINEAR, SolverConfig(epsilon=0.05, tol=1e-10))
        spacing = 1.0 / 8.0
        assert objective_true(result, ds) <= result.objective + spacing**2

    def test_single_snapshot_matches_exactly(self):
        grid = grid_1d([0.0, 0.5, 1.0])
        m = DiscreteMeasure(grid, np.array([0.2, 0.3, 0.5]))
        ds = SnapshotDataset(np.array([1.0]), (m,), np.array([1.0]))
        from wasscurve.kernels import build_kernels
        from wasscurve.mm_sinkhorn import extract_param_coupling, sinkhorn_solve
        from wasscurve.curve_regression import RegressionResult

        kernels = build_kernels(ds, LINEAR, (grid, grid), 1e-3)
        state = sinkhorn_solve(kernels, ds, tol=1e-12)
        result = RegressionResult(
            extract_param_coupling(state), LINEAR, state.objective, state.iterations,
            state.marginal_residual, 1e-3, state.converged, state,
        )
        assert objective_true(result, ds) == pytest.approx(0.0, abs=1e-9)
