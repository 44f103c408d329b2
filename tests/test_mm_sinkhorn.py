"""Engine tests: kernels, factored projections, scaling sweeps, two-marginal transport."""

import dataclasses
import math
import re
import tracemalloc
import warnings
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wasscurve.curves import LINEAR, QUADRATIC
from wasscurve.kernels import (
    CostKernelSet,
    FactoredKernelSet,
    _curve_costs,
    _DenseExp,
    _factored_kernels,
    _kernels_in_place,
    build_kernels,
    kernels_from_costs,
    param_tuple_stack,
)
from wasscurve.measures import DiscreteMeasure, SnapshotDataset, SupportGrid, nearest_index
from wasscurve.mm_sinkhorn import (
    FactoredCoupling,
    SolverError,
    _log_factor_sums,
    _mass_change,
    _stalled,
    extract_param_coupling,
    sinkhorn_solve,
)
from wasscurve.two_marginal import exact_transport_lp, two_marginal_w2, two_marginal_w2_exact

import oracles


def grid_1d(values):
    return SupportGrid(np.asarray(values, dtype=float)[:, None])


def dataset_from_weights(timestamps, weight_rows, grid, lambdas=None):
    measures = tuple(DiscreteMeasure(grid, w) for w in weight_rows)
    n = len(measures)
    lams = np.asarray(lambdas) if lambdas is not None else np.full(n, 1.0 / n)
    return SnapshotDataset(np.asarray(timestamps, dtype=float), measures, lams)


def random_instance(rng, n_snapshots=3, n_support=3, param_sizes=(2, 2), epsilon=0.5):
    grid = grid_1d(np.sort(rng.uniform(0, 1, n_support)))
    param_grids = [grid_1d(np.sort(rng.uniform(0, 1, k))) for k in param_sizes]
    ts = np.sort(rng.uniform(0, 1, n_snapshots))
    ts[0], ts[-1] = 0.0, 1.0
    rows = rng.random((n_snapshots, n_support)) + 0.05
    rows /= rows.sum(axis=1, keepdims=True)
    ds = dataset_from_weights(ts, rows, grid)
    curve = LINEAR if len(param_sizes) == 2 else QUADRATIC
    kernels = build_kernels(ds, curve, param_grids, epsilon)
    return ds, kernels


def log_domain_solve(kernels, targets, **kwargs):
    """sinkhorn_solve with every sweep in the log domain: no potential is in
    range, so the first exp sweep is redone there."""
    import wasscurve.mm_sinkhorn as engine

    with mock.patch.object(engine, "_POTENTIAL_HI", 0.0):
        return sinkhorn_solve(kernels, targets, **kwargs)


class TestBuildKernels:
    def test_max_entry_is_one_at_min_cost(self):
        ds, kernels = random_instance(np.random.default_rng(0))
        for i in range(kernels.n_snapshots):
            assert kernels.log_kernels[i].max() == pytest.approx(0.0, abs=1e-13)
            assert np.all(kernels.log_kernels[i] <= 1e-13)

    def test_linear_cost_at_t0_depends_only_on_x0(self):
        grid = grid_1d([0.0, 0.5, 1.0])
        g0 = grid_1d([0.1, 0.9])
        g1 = grid_1d([0.3, 0.7])
        ds = dataset_from_weights([0.0, 0.5, 1.0], np.full((3, 3), 1 / 3), grid)
        kernels = build_kernels(ds, LINEAR, [g0, g1], 0.7)
        cost0 = kernels.cost(0).reshape(2, 2, 3)
        np.testing.assert_allclose(cost0[:, 0, :], cost0[:, 1, :], atol=1e-12)
        expected = (np.array([0.1, 0.9])[:, None] - np.array([0.0, 0.5, 1.0])[None, :]) ** 2
        np.testing.assert_allclose(cost0[:, 0, :], expected, atol=1e-12)

    def test_quadratic_cost_hand_value(self):
        grid = grid_1d([0.0, 1.0])
        g = [grid_1d([0.0]), grid_1d([1.0]), grid_1d([1.0])]
        ds = dataset_from_weights([0.0, 0.5, 1.0], np.full((3, 2), 0.5), grid)
        kernels = build_kernels(ds, QUADRATIC, g, 1.0)
        # params (0, 1, 1) at t=0.5 give 0 + 0.5 + 0.25 = 0.75; cost to y=1 is 0.0625
        cost_mid = kernels.cost(1)
        assert cost_mid[0, 1] == pytest.approx(0.0625, abs=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_squared_distances_match_cdist(self, dim):
        from scipy.spatial.distance import cdist

        from wasscurve.kernels import _sq_distances

        rng = np.random.default_rng(dim)
        x = rng.normal(size=(7, dim))
        y = rng.normal(size=(5, dim))
        np.testing.assert_array_equal(_sq_distances(x, y), cdist(x, y, "sqeuclidean"))

    def test_kernels_from_costs_leaves_its_input_unchanged(self):
        costs = np.random.default_rng(4).random((2, 3, 4))
        before = costs.copy()
        kernels = kernels_from_costs(costs, np.array([0.5, 0.5]), 0.3, [grid_1d([0.0, 1.0, 2.0])])
        np.testing.assert_array_equal(costs, before)
        np.testing.assert_allclose(kernels.cost(1), before[1], rtol=1e-12)

    def test_build_holds_one_kernel_tensor(self):
        """The squared distances become the log kernels in place: the dense
        build allocates about one (N, P, |X|) tensor, not the three that
        computing the logs out of place holds at once."""
        grid = grid_1d(np.linspace(0, 1, 60))
        ds = dataset_from_weights(np.linspace(0, 1, 6), np.full((6, 60), 1 / 60), grid)
        pgrid = grid_1d(np.linspace(-0.2, 1.2, 14))
        tracemalloc.start()
        try:
            kernels = build_kernels(ds, QUADRATIC, [pgrid] * 3, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(kernels, CostKernelSet)
        assert peak < 1.5 * kernels.log_kernels.nbytes

    def test_rejects_bad_epsilon_and_grids(self):
        ds, _ = random_instance(np.random.default_rng(1))
        g = [grid_1d([0.0, 1.0])]
        with pytest.raises(ValueError, match="match the curve"):
            build_kernels(ds, LINEAR, g, 0.5)
        with pytest.raises(ValueError, match="positive"):
            build_kernels(ds, LINEAR, [grid_1d([0.0, 1.0])] * 2, 0.0)

    @pytest.mark.parametrize("curve, scale, epsilon", [
        (LINEAR, 1e160, 0.1),  # squared distances overflow (factored path)
        (QUADRATIC, 1e160, 0.1),  # the same on the dense path
        (LINEAR, 1e149, 1e-3),  # squared distances below 1e300, but lambda c / epsilon above
    ])
    def test_rejects_costs_that_overflow(self, curve, scale, epsilon):
        ds, _ = random_instance(np.random.default_rng(1))
        grids = [grid_1d([-scale, scale])] * curve.n_params
        with pytest.raises(ValueError, match="coordinate scale too large"):
            build_kernels(ds, curve, grids, epsilon)
        build_kernels(ds, curve, [grid_1d([-1e140, 1e140])] * curve.n_params, epsilon)  # in range


class TestProjections:
    def test_counting_identity_kernels(self):
        # all kernels and potentials equal to one: every marginal entry counts tuples
        n, x = 3, 3
        param_grids = (grid_1d([0.0, 1.0]), grid_1d([0.0, 0.5]))
        costs = np.zeros((n, 4, x))
        kernels = kernels_from_costs(costs, np.full(n, 1 / 3), 1.0, param_grids)
        log_a = np.zeros((n, x))
        state = FactoredCoupling(kernels, log_a, True, 0, 0.0, np.array([]), 0.0, False, _log_factor_sums(kernels.log_kernels, log_a))
        for j in range(n):
            np.testing.assert_allclose(oracles.project_marginal(state, j), 4 * x ** (n - 1), rtol=1e-12)

    def test_single_atom_grids(self):
        param_grids = (grid_1d([0.3]), grid_1d([0.6]))
        costs = np.array([[[0.2]], [[0.4]]])  # N=2, P=1, X=1
        kernels = kernels_from_costs(costs, np.array([0.5, 0.5]), 1.0, param_grids)
        log_a = np.log(np.array([[0.7], [0.9]]))
        state = FactoredCoupling(kernels, log_a, True, 0, 0.0, np.array([]), 0.0, False, _log_factor_sums(kernels.log_kernels, log_a))
        k = np.exp(kernels.log_kernels)
        expected = k[0, 0, 0] * 0.7 * k[1, 0, 0] * 0.9
        assert oracles.project_marginal(state, 0)[0] == pytest.approx(expected, rel=1e-12)

    def test_matches_dense_tensor_on_random_instances(self):
        rng = np.random.default_rng(11)
        for trial in range(6):
            sizes = (2, 2) if trial % 2 == 0 else (2, 3)
            ds, kernels = random_instance(rng, n_snapshots=3, n_support=3, param_sizes=sizes)
            log_a = np.log(rng.uniform(0.4, 2.0, (3, 3)))
            state = FactoredCoupling(kernels, log_a, True, 0, 0.0, np.array([]), 0.0, False, _log_factor_sums(kernels.log_kernels, log_a))
            gamma = oracles.dense_coupling_tensor(kernels, log_a)
            for j in range(3):
                dense = oracles.dense_marginal(gamma, j)
                np.testing.assert_allclose(oracles.project_marginal(state, j), dense, rtol=1e-10)
            np.testing.assert_allclose(
                extract_param_coupling(state).weights.ravel(),
                oracles.dense_param_marginal(gamma).ravel(),
                rtol=1e-10,
            )

    def test_index_out_of_range(self):
        ds, kernels = random_instance(np.random.default_rng(2))
        state = sinkhorn_solve(kernels, ds.target_matrix())
        with pytest.raises(IndexError):
            oracles.project_marginal(state, 5)


class TestSinkhornSolve:
    def test_single_snapshot_matches_after_one_sweep(self):
        grid = grid_1d([0.0, 0.5, 1.0])
        target = np.array([0.2, 0.3, 0.5])
        ds = SnapshotDataset(np.array([1.0]), (DiscreteMeasure(grid, target),), np.array([1.0]))
        kernels = build_kernels(ds, LINEAR, [grid, grid], 0.5)
        state = sinkhorn_solve(kernels, ds.target_matrix(), tol=1e-12)
        assert state.converged and state.iterations <= 2
        np.testing.assert_allclose(oracles.project_marginal(state, 0), target, atol=1e-12)

    def test_feasibility_at_convergence(self):
        ds, kernels = random_instance(np.random.default_rng(3), n_snapshots=4, n_support=4, param_sizes=(3, 3))
        state = sinkhorn_solve(kernels, ds.target_matrix(), tol=1e-9)
        assert state.converged
        for j in range(4):
            err = np.abs(oracles.project_marginal(state, j) - ds.measures[j].weights).sum()
            assert err <= 1e-9

    def test_residual_history_monotone_after_first_sweep(self):
        for seed in (0, 1, 2):
            ds, kernels = random_instance(np.random.default_rng(seed), n_snapshots=3, n_support=4, param_sizes=(3, 3), epsilon=0.4)
            state = sinkhorn_solve(kernels, ds.target_matrix(), tol=1e-10)
            hist = state.residual_history
            assert np.all(np.diff(hist[1:]) <= 1e-12)

    def test_dirac_targets_approach_lp_as_epsilon_shrinks(self):
        grid = grid_1d([0.0, 0.25, 0.5, 0.75, 1.0])
        diracs = np.eye(5)[[0, 4, 0]]  # V pattern: no line interpolates, LP optimum > 0
        ds = dataset_from_weights([0.0, 0.5, 1.0], diracs, grid)
        pg = (grid, grid)
        objectives = []
        lp_value = None
        for eps in (1.0, 0.3, 0.1, 0.03, 3e-3, 1e-3):
            kernels = build_kernels(ds, LINEAR, pg, eps)
            state = sinkhorn_solve(kernels, ds.target_matrix(), tol=1e-10)
            objectives.append(state.objective)
            if lp_value is None:
                costs = np.stack([kernels.cost(i) for i in range(3)])
                lp_value, _ = oracles.multimarginal_lp(costs, ds.lambdas, ds.target_matrix())
        assert lp_value > 0
        assert all(a >= b - 1e-12 for a, b in zip(objectives, objectives[1:]))  # non-increasing
        assert all(o >= lp_value - 1e-9 for o in objectives)
        assert objectives[-1] == pytest.approx(lp_value, rel=1e-3)

    def test_entropic_monotone_in_epsilon(self):
        # transport term of the entropic optimum never increases as epsilon shrinks
        ds, _ = random_instance(np.random.default_rng(8), n_snapshots=3, n_support=4, param_sizes=(3, 3))
        grid = ds.grid
        previous = np.inf
        for eps in (1.0, 0.3, 0.1, 0.03):
            kernels = build_kernels(ds, LINEAR, (grid, grid), eps)
            state = sinkhorn_solve(kernels, ds.target_matrix(), tol=1e-10)
            assert state.objective <= previous + 1e-9
            previous = state.objective

    def test_log_and_exp_domains_agree(self):
        ds, kernels = random_instance(np.random.default_rng(5), epsilon=0.05)
        state = sinkhorn_solve(kernels, ds.target_matrix(), tol=1e-11)
        assert not state.used_log_domain
        log_state = log_domain_solve(kernels, ds.target_matrix(), tol=1e-11)
        assert log_state.used_log_domain
        assert log_state.converged and log_state.marginal_residual <= 1e-11
        log_a = log_state.log_potentials
        log_obj = oracles.transport_objective_from_logs(kernels, log_a, _log_factor_sums(kernels.log_kernels, log_a))
        np.testing.assert_allclose(log_obj, state.objective, rtol=1e-8)

    @staticmethod
    def _low_kernel_instance(seed, kind, n_snapshots, n_support, smallest):
        """An instance whose smallest log kernel entry is ``smallest``, with a factored,
        a dense linear or a dense quadratic kernel set."""
        rng = np.random.default_rng(seed)
        grid = grid_1d(np.sort(rng.uniform(0, 1, n_support)))
        rows = rng.random((n_snapshots, n_support)) + 0.05
        ts = np.sort(rng.uniform(0, 1, n_snapshots))
        ts[0], ts[-1] = 0.0, 1.0
        ds = dataset_from_weights(ts, rows / rows.sum(axis=1, keepdims=True), grid)
        curve = QUADRATIC if kind == "quadratic" else LINEAR
        grids = [grid_1d(np.sort(rng.uniform(-0.5, 1.5, 4))) for _ in range(curve.n_params)]
        build = oracles.dense_curve_kernels if kind == "dense linear" else build_kernels
        kernels = build(ds, curve, grids, build(ds, curve, grids, 1.0).log_kernels.min() / smallest)
        assert isinstance(kernels, FactoredKernelSet) == (kind == "factored")
        return ds, kernels

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["factored", "dense linear", "quadratic"]),
        n_snapshots=st.integers(2, 5),
        n_support=st.integers(3, 8),
        smallest=st.floats(-1500.0, -600.0),
    )
    # the exp-start solve stopped unconverged at 20,000 sweeps (residual 9.1e-4)
    # until stalled exp-domain sweeps gave way to Newton steps
    @example(seed=3601, kind="factored", n_snapshots=3, n_support=6, smallest=-1261.0)
    def test_low_kernels_match_the_log_domain(self, seed, kind, n_snapshots, n_support, smallest):
        # kernel entries far below exp(-600) no longer send a solve to the log
        # domain before its first sweep; it leaves the exp domain only when a
        # sweep does, and reaches the log-domain solve's fixed point either way
        ds, kernels = self._low_kernel_instance(seed, kind, n_snapshots, n_support, smallest)
        state = sinkhorn_solve(kernels, ds.target_matrix(), tol=1e-10, max_iter=20000)
        ref = log_domain_solve(kernels, ds.target_matrix(), tol=1e-10, max_iter=20000)
        assert state.converged and ref.converged and ref.used_log_domain
        np.testing.assert_allclose(state.objective, ref.objective, rtol=1e-8)
        np.testing.assert_allclose(extract_param_coupling(state).weights, extract_param_coupling(ref).weights, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("kind", ["factored", "dense linear", "quadratic"])
    def test_low_kernels_start_in_the_exp_domain(self, kind):
        ds, kernels = self._low_kernel_instance(7, kind, 4, 6, -1000.0)
        state = sinkhorn_solve(kernels, ds.target_matrix(), tol=1e-10, max_iter=20000)
        assert state.converged and not state.used_log_domain

    def test_mid_run_switch_to_log_domain(self):
        # kernels start exp-representable, but matching the second target
        # forces potentials past the overflow guard mid-iteration
        grid = grid_1d([0.0, 1.0])
        pg = (grid_1d([0.0]), grid_1d([0.0]))
        costs = np.array([
            [[0.0, 800.0]],
            [[800.0, 0.0]],
        ])  # (N=2, P=1, X=2); potentials must reach ~exp(400) > 1e150
        kernels = kernels_from_costs(costs, np.array([0.5, 0.5]), 1.0, pg)
        assert kernels.log_kernels.min() >= -600.0  # exp phase is attempted
        m0 = DiscreteMeasure(grid, np.array([0.5, 0.5]))
        ds = SnapshotDataset(np.array([0.0, 1.0]), (m0, m0), np.array([0.5, 0.5]))
        state = sinkhorn_solve(kernels, ds.target_matrix(), tol=1e-9)
        assert state.used_log_domain
        assert state.converged
        for j in range(2):
            assert np.abs(oracles.project_marginal(state, j) - 0.5).max() <= 1e-9

    def test_very_small_epsilon_uses_log_domain(self):
        grid = grid_1d([0.0, 0.5, 1.0])
        diracs = np.eye(3)
        ds = dataset_from_weights([0.0, 0.5, 1.0], diracs, grid)
        kernels = build_kernels(ds, LINEAR, (grid, grid), 1e-4)
        state = sinkhorn_solve(kernels, ds.target_matrix(), tol=1e-9)
        assert state.used_log_domain
        assert state.converged
        assert np.isfinite(state.objective)

    def test_rejects_bad_tol(self):
        ds, kernels = random_instance(np.random.default_rng(6))
        with pytest.raises(ValueError, match="tol"):
            sinkhorn_solve(kernels, ds.target_matrix(), tol=0.0)

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_rejects_max_iter_below_1(self, max_iter):
        ds, kernels = random_instance(np.random.default_rng(6))
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            sinkhorn_solve(kernels, ds.target_matrix(), max_iter=max_iter)

    def test_zero_projection_at_positive_target_raises(self):
        # an infinite cost column: no parameter tuple reaches support point 1, whose target is positive
        costs = np.zeros((2, 2, 2))
        costs[0, :, 1] = np.inf
        kernels = kernels_from_costs(costs, np.full(2, 0.5), 1.0, (grid_1d([0.0]), grid_1d([0.0, 1.0])))
        ds = dataset_from_weights([0.0, 1.0], np.full((2, 2), 0.5), grid_1d([0.0, 1.0]))
        with pytest.raises(SolverError, match="zero marginal projection where the target is positive"):
            sinkhorn_solve(kernels, ds.target_matrix())


class TestExpSweep:
    """The numpy exp-domain sweep against the snapshot-by-snapshot reference sweep.

    w_j is multiplied in another order than the reference's np.delete + prod,
    so values agree to rtol 1e-12 rather than bit for bit. A residual near
    convergence is a sum of cancellations of unit-mass targets, so it also
    gets an absolute tolerance of 1e-14 (about 45 ulps of 1).
    """

    @staticmethod
    def _sweep_both(kern, targets, n_sweeps, m_start=None):
        """Yield (sweep number, result, reference result) with states compared after each sweep.

        Potentials start at 1 and factor sums at K a, or at ``m_start``.
        """
        import wasscurve.mm_sinkhorn as engine

        a_ref = np.ones((kern.shape[0], kern.shape[2]))
        m_ref = np.einsum("npx,nx->np", kern, a_ref) if m_start is None else np.array(m_start, dtype=float)
        a, m = a_ref.copy(), m_ref.copy()
        work = engine._ExpSweepWork(_DenseExp(kern), a, m, targets)
        for k in range(1, n_sweeps + 1):
            res, res_ref = engine._sweep_exp_numpy(work), oracles.reference_sweep_exp(kern, a_ref, m_ref, targets)
            if res_ref >= 0:
                np.testing.assert_allclose(a, a_ref, rtol=1e-12, atol=0)
                np.testing.assert_allclose(m, m_ref, rtol=1e-12, atol=0)
            yield k, res, res_ref

    @pytest.mark.parametrize("n_snapshots, zero_targets, seed", [(1, False, 41), (3, True, 42), (8, False, 43), (8, True, 44)])
    def test_matches_reference_sweep(self, n_snapshots, zero_targets, seed):
        rng = np.random.default_rng(seed)
        grid = grid_1d(np.sort(rng.uniform(0, 1, 6)))
        rows = rng.random((n_snapshots, 6)) + 0.05
        if zero_targets:
            rows[rng.random(rows.shape) < 0.3] = 0.0
            rows[:, 0] += 0.1
        rows /= rows.sum(axis=1, keepdims=True)
        ts = np.linspace(0.0, 1.0, n_snapshots) if n_snapshots > 1 else np.array([1.0])
        ds = dataset_from_weights(ts, rows, grid)
        param_grids = [grid_1d(np.sort(rng.uniform(0, 1, k))) for k in (4, 5)]
        kern = np.exp(build_kernels(ds, LINEAR, param_grids, 0.005).log_kernels)
        residuals = {}
        for k, res, res_ref in self._sweep_both(kern, ds.target_matrix(), 50):
            assert res_ref >= 0
            np.testing.assert_allclose(res, res_ref, rtol=1e-12, atol=1e-14)
            residuals[k] = res_ref
        if n_snapshots > 1:  # one snapshot is matched exactly after its first sweep
            assert residuals[50] > 1e-10  # still far from the rounding floor

    def test_zero_projection_at_zero_target(self):
        # a kernel column of zeros where the target is zero: phi is 0 there, the
        # potential is 0 (not 0/0) and the sweep goes on
        kern = np.array([[[1.0, 0.5, 0.0], [0.3, 1.0, 0.0]], [[1.0, 0.2, 0.4], [0.6, 1.0, 0.9]]])
        targets = np.array([[0.4, 0.6, 0.0], [0.3, 0.3, 0.4]])
        for _, res, res_ref in self._sweep_both(kern, targets, 20):
            assert res_ref >= 0
            np.testing.assert_allclose(res, res_ref, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("instance", ["mid_run_switch", "infeasible_2", "infeasible_3", "overflow_at_zero_target"])
    def test_leaves_safe_range_on_the_same_sweep(self, instance):
        m_start = None
        if instance == "mid_run_switch":  # from TestSinkhornSolve.test_mid_run_switch_to_log_domain
            pg = (grid_1d([0.0]), grid_1d([0.0]))
            costs = np.array([[[0.0, 800.0]], [[800.0, 0.0]]])
            kern = np.exp(kernels_from_costs(costs, np.array([0.5, 0.5]), 1.0, pg).log_kernels)
            targets = np.full((2, 2), 0.5)
        elif instance == "infeasible_2":  # unmatchable marginals: potentials grow geometrically
            kern = np.array([np.eye(2), [[1.0, 1.0], [0.0, 1.0]]])
            targets = np.array([[0.3, 0.7], [0.7, 0.3]])
        elif instance == "infeasible_3":
            kern = np.array([
                np.eye(3),
                [[1.0, 1.0, 0.5], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]],
                [[1.0, 0.2, 0.3], [0.5, 1.0, 0.1], [0.3, 0.2, 1.0]],
            ])
            targets = np.array([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1], [0.2, 0.0, 0.8]])
        else:  # start-of-sweep factor sums that make phi overflow only where the target is zero
            kern = np.array([[[0.0, 1.0], [0.0, 1.0], [1.0, 0.5]], np.ones((3, 2))])
            targets = np.array([[1.0, 0.0], [0.5, 0.5]])
            m_start = [[1.0, 1.0, 1.0], [1e308, 1e308, 1.0]]
        with np.errstate(over="ignore"):
            for k, res, res_ref in self._sweep_both(kern, targets, 1000, m_start):
                if res_ref < 0:
                    break
                assert res >= 0, f"left the safe range at sweep {k}, the reference did not"
            else:
                pytest.fail("the reference sweep never left the safe range")
        assert res == -1.0, f"the reference left the safe range at sweep {k}, the sweep did not"
        expected = {"mid_run_switch": 1, "infeasible_2": 407, "infeasible_3": 215, "overflow_at_zero_target": 1}
        assert k == expected[instance]


class TestFinish:
    """A solve's residual, objective and coupling come from the factor sums its
    sweeps hold; they must equal the log-space recomputations from its potentials.

    The residual sums |marginal - target| over unit-mass marginals, so near
    convergence it is a cancellation; beside rtol 1e-10 it gets atol 1e-14
    (about 45 ulps of 1), as the exp-sweep comparisons do. Its reference is
    the marginals of the dense coupling (``oracles.dense_coupling_marginals``),
    one exp per factor. The stored log potentials round the exp sweep's own,
    which alone can move the residual by about 40 ulps; a log-space logsumexp
    over (N, P, |X|) adds its rounding on top and can pass the atol.
    """

    @staticmethod
    def _assert_matches_log_recomputation(state, ds):
        kernels, log_a = state.kernels, state.log_potentials
        assert state.log_factor_sums is not None
        log_m = _log_factor_sums(kernels.log_kernels, log_a)
        marginals = oracles.dense_coupling_marginals(kernels, log_a)
        residual = np.abs(marginals - ds.target_matrix()).sum(axis=1).max()
        np.testing.assert_allclose(state.marginal_residual, residual, rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(state.objective, oracles.transport_objective_from_logs(kernels, log_a, log_m), rtol=1e-10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # states stopped at max_iter
            cached = extract_param_coupling(state).weights
            fresh = extract_param_coupling(dataclasses.replace(state, log_factor_sums=log_m)).weights
        np.testing.assert_allclose(cached, fresh, rtol=1e-10, atol=0)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_snapshots=st.integers(1, 5),
        n_support=st.integers(2, 7),
        param_sizes=st.sampled_from([(2, 2), (3, 4), (5, 3), (2, 3, 2)]),
        epsilon=st.floats(0.01, 2.0),
        zero_targets=st.booleans(),
        tol=st.sampled_from([1e-4, 1e-8, 1e-11]),
        log_domain=st.booleans(),
    )
    @example(seed=87540411, n_snapshots=1, n_support=2, param_sizes=(2, 2), epsilon=0.01, zero_targets=False, tol=1e-4,
             log_domain=False)
    # the sweep's own a reads a residual of 0.0 here; the returned exp(log a) reads 1.29e-14
    @example(seed=2751098748, n_snapshots=1, n_support=2, param_sizes=(2, 2), epsilon=0.01, zero_targets=False, tol=1e-4,
             log_domain=False)
    def test_matches_log_recomputation(self, seed, n_snapshots, n_support, param_sizes, epsilon, zero_targets, tol,
                                       log_domain):
        rng = np.random.default_rng(seed)
        grid = grid_1d(np.sort(rng.uniform(0, 1, n_support)))
        rows = rng.random((n_snapshots, n_support)) + 0.05
        if zero_targets:
            rows[rng.random(rows.shape) < 0.4] = 0.0
            rows[:, 0] += 0.1
        rows /= rows.sum(axis=1, keepdims=True)
        ts = np.sort(rng.uniform(0, 1, n_snapshots))
        ts[-1] = 1.0
        ds = dataset_from_weights(ts, rows, grid)
        param_grids = [grid_1d(np.sort(rng.uniform(-0.5, 1.5, k))) for k in param_sizes]
        curve = LINEAR if len(param_sizes) == 2 else QUADRATIC
        kernels = build_kernels(ds, curve, param_grids, epsilon)
        state = (log_domain_solve if log_domain else sinkhorn_solve)(kernels, ds.target_matrix(), tol=tol, max_iter=3000)
        assert state.used_log_domain or not log_domain
        self._assert_matches_log_recomputation(state, ds)

    def test_mid_run_switch_to_log_domain(self):
        # the instance of TestSinkhornSolve.test_mid_run_switch_to_log_domain
        grid = grid_1d([0.0, 1.0])
        pg = (grid_1d([0.0]), grid_1d([0.0]))
        kernels = kernels_from_costs(np.array([[[0.0, 800.0]], [[800.0, 0.0]]]), np.array([0.5, 0.5]), 1.0, pg)
        m0 = DiscreteMeasure(grid, np.array([0.5, 0.5]))
        ds = SnapshotDataset(np.array([0.0, 1.0]), (m0, m0), np.array([0.5, 0.5]))
        state = sinkhorn_solve(kernels, ds.target_matrix(), tol=1e-9)
        assert state.used_log_domain and state.converged
        self._assert_matches_log_recomputation(state, ds)

    def test_pure_log_phase(self):
        ds, kernels = random_instance(np.random.default_rng(31), n_snapshots=4, n_support=5, param_sizes=(4, 4), epsilon=2e-4)
        state = log_domain_solve(kernels, ds.target_matrix(), tol=1e-9)
        assert state.used_log_domain and state.converged
        self._assert_matches_log_recomputation(state, ds)

    def test_exp_finish_allocates_no_kernel_tensor(self, monkeypatch):
        # memory allocated after the last sweep stays below the size of one
        # (N, P, |X|) array: the finish works one snapshot at a time
        import wasscurve.mm_sinkhorn as engine

        ds, kernels = random_instance(np.random.default_rng(37), n_snapshots=8, n_support=40, param_sizes=(20, 20), epsilon=0.5)
        tensor_bytes = kernels.log_kernels.nbytes
        after_sweep = []
        sweep = engine._sweep_exp_numpy

        def sweep_then_mark(work):
            res = sweep(work)
            tracemalloc.reset_peak()
            after_sweep.append(tracemalloc.get_traced_memory()[0])
            return res

        monkeypatch.setattr(engine, "_sweep_exp_numpy", sweep_then_mark)
        tracemalloc.start()
        try:
            state = sinkhorn_solve(kernels, ds.target_matrix(), tol=1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.converged and not state.used_log_domain
        assert peak - after_sweep[-1] < 0.5 * tensor_bytes
        self._assert_matches_log_recomputation(state, ds)

    def test_log_domain_solve_allocates_no_kernel_tensor(self, monkeypatch):
        # from its first log-domain sweep on, when the exponentials are freed, a
        # dense solve stays below half of one (N, P, |X|) array above its
        # kernels: each log-space pass works in (P, |X|) arrays, one snapshot at a time
        import wasscurve.mm_sinkhorn as engine

        ds, kernels = random_instance(np.random.default_rng(41), n_snapshots=8, n_support=50, param_sizes=(8, 8, 8), epsilon=1.5e-3)
        assert isinstance(kernels, CostKernelSet)
        sweep, log_sweeps = engine._sweep_log, []

        def mark_then_sweep(*args):
            if not log_sweeps:
                tracemalloc.reset_peak()
            log_sweeps.append(1)
            return sweep(*args)

        monkeypatch.setattr(engine, "_sweep_log", mark_then_sweep)
        tracemalloc.start()
        try:
            state = log_domain_solve(kernels, ds.target_matrix(), tol=1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.converged and state.used_log_domain
        assert peak < 0.5 * kernels.log_kernels.nbytes
        self._assert_matches_log_recomputation(state, ds)

    @staticmethod
    def _exp_finish(kernels, a, targets):
        """The finish of an exp-domain solve whose sweeps ended at the potentials a."""
        from wasscurve.mm_sinkhorn import _exp_start, _finish

        work = _exp_start(kernels.exp_operator(), targets)
        np.copyto(work.a, a)
        return _finish(kernels, targets, work, None, None)

    def test_forbidden_pairs_give_one_finite_objective_from_both_finishes(self, monkeypatch):
        # snapshot 0 forbids the off-diagonal pairs (cost +inf, kernel entry 0); at epsilon
        # 1/600 snapshot 1's kernel is e^-600 off its diagonal, so moving 0.4 of mass across
        # drives the potentials out of the exp range and the solve finishes in log space, while
        # the exp finish of the same potentials stays in range; both count the forbidden pairs
        # as 0, not as 0 * inf = NaN
        import wasscurve.mm_sinkhorn as engine

        costs = np.array([[[0.0, np.inf], [np.inf, 0.0]], [[0.0, 1.0], [1.0, 0.0]]])
        kernels = kernels_from_costs(costs, np.ones(2), 1 / 600, (grid_1d([0.0, 1.0]),))
        targets = np.array([[0.5, 0.5], [0.9, 0.1]])
        state = sinkhorn_solve(kernels, targets, tol=1e-12)
        assert state.converged and state.used_log_domain
        monkeypatch.setattr(engine, "_log_plan", None)  # no snapshot of the exp finish leaves exp space
        finish = self._exp_finish(kernels, np.exp(state.log_potentials), targets)
        assert np.isfinite(state.objective) and finish.residual <= 1e-12
        assert finish.objective == pytest.approx(state.objective, rel=1e-12)
        assert state.objective == pytest.approx(0.4, rel=1e-12)  # 0.4 of mass moves at cost 1

    @staticmethod
    def _underflow_instance():
        # K_0[1, 0] = e^-590 times a potential of 1e-150 underflows to 0 in m_0[1]
        pg = (grid_1d([0.0, 1.0]), grid_1d([0.0]))
        costs = np.array([[[0.0, 590.0], [590.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]])
        kernels = kernels_from_costs(costs, np.array([0.5, 0.5]), 0.5, pg)
        assert kernels.log_kernels.min() >= -600.0
        a = np.array([[1e-150, 0.0], [2e149, 3e149]])
        assert np.einsum("npx,nx->np", np.exp(kernels.log_kernels), a).min() == 0.0
        return kernels, a, np.array([[1.0, 0.0], [0.5, 0.5]])

    @staticmethod
    def _overflow_instance():
        # every factor sum is a normal float, but w_2 = m_0 m_1 is about 1e310
        pg = (grid_1d([0.0, 1.0]), grid_1d([0.0]))
        costs = np.array([[[0.0, 1.0], [1.0, 0.0]], [[0.0, 2.0], [0.5, 0.0]], [[0.0, 1.5], [3.0, 0.0]]])
        kernels = kernels_from_costs(costs, np.full(3, 1 / 3), 0.5, pg)
        a = np.array([[1e155, 2e155], [3e155, 1e155], [1e-305, 3e-305]])
        m = np.einsum("npx,nx->np", np.exp(kernels.log_kernels), a)
        with np.errstate(over="ignore"):
            assert m.min() >= np.finfo(float).tiny and np.isinf(m[0] * m[1]).all()
        return kernels, a, np.array([[0.5, 0.5], [0.25, 0.75], [0.6, 0.4]])

    def test_underflowing_factor_sums_finish_in_log_space(self):
        # the finish recomputes the underflowing factor sums in log space instead of taking log 0
        kernels, a, targets = self._underflow_instance()
        finish = self._exp_finish(kernels, a, targets)
        with np.errstate(divide="ignore"):
            log_a = np.log(a)
        np.testing.assert_allclose(finish.log_m, _log_factor_sums(kernels.log_kernels, log_a), rtol=1e-14)
        assert np.isfinite(finish.log_m).all()

    def test_overflowing_weights_finish_in_log_space(self):
        # the finish takes snapshot 2, whose w_2 overflows, in log space
        kernels, a, targets = self._overflow_instance()
        finish = self._exp_finish(kernels, a, targets)
        log_a = np.log(a)
        log_m = _log_factor_sums(kernels.log_kernels, log_a)
        np.testing.assert_allclose(finish.log_m, log_m, rtol=1e-14)
        objective = oracles.transport_objective_from_logs(kernels, log_a, log_m)
        assert np.isfinite(objective)
        np.testing.assert_allclose(finish.objective, objective, rtol=1e-12)

    @pytest.mark.parametrize("instance, log_rows, log_plans", [
        ("_underflow_instance", [0], []),  # only m_0 holds a sum below the normal range
        ("_overflow_instance", [], [2]),  # only w_2 overflows
    ])
    def test_exp_finish_leaves_exp_space_only_where_it_fails(self, monkeypatch, instance, log_rows, log_plans):
        # the rows of log m summed in log space and the snapshots whose plan is formed
        # in log space, told apart by the kernel row each call reads
        import wasscurve.mm_sinkhorn as engine

        kernels, a, targets = getattr(self, instance)()
        rows, plans = [], []

        def spy(calls, f):
            def call(log_k, *args):
                calls.extend(j for j, row in enumerate(kernels.log_kernels) if np.shares_memory(log_k, row))
                return f(log_k, *args)
            return call

        monkeypatch.setattr(engine, "_log_kernel_sums", spy(rows, engine._log_kernel_sums))
        monkeypatch.setattr(engine, "_log_plan", spy(plans, engine._log_plan))
        finish = self._exp_finish(kernels, a, targets)
        assert rows == log_rows and plans == log_plans
        with np.errstate(divide="ignore"):
            log_a = np.log(a)
        log_m = _log_factor_sums(kernels.log_kernels, log_a)
        np.testing.assert_allclose(finish.objective, oracles.transport_objective_from_logs(kernels, log_a, log_m), rtol=1e-12)
        marginals = oracles.dense_coupling_marginals_from_logs(kernels, log_a)
        residual = np.abs(marginals - targets).sum(axis=1).max()
        np.testing.assert_allclose(finish.residual, residual, rtol=1e-10, atol=1e-14)


class TestFactoredKernels:
    """Linear 1-D kernel sets are held as three factors per snapshot. Their
    solves must match the dense kernel set of oracles.dense_curve_kernels,
    solved the same way, at rtol 1e-10; the residual, a cancellation near
    convergence, also gets atol 1e-14.
    """

    @staticmethod
    def _instance(seed, n_snapshots, n_support, param_sizes, origin, reach=0.3):
        rng = np.random.default_rng(seed)
        grid = grid_1d(origin + np.sort(rng.uniform(0, 1, n_support)))
        rows = rng.random((n_snapshots, n_support)) + 0.05
        rows /= rows.sum(axis=1, keepdims=True)
        ts = np.sort(rng.uniform(0, 1, n_snapshots))
        ts[0], ts[-1] = 0.0, 1.0
        lambdas = rng.uniform(0.2, 1.0, n_snapshots)
        ds = dataset_from_weights(ts, rows, grid, lambdas / lambdas.sum())
        grids = tuple(grid_1d(origin + np.sort(rng.uniform(-reach, 1 + reach, k))) for k in param_sizes)
        return ds, grids

    @staticmethod
    def _assert_shifts_match_dense(ds, grids, epsilon):
        """The factored set's shifts are those of build_kernels' dense path, bit for bit (the
        oracle's curve points, an einsum, can differ from the library's in the last bit)."""
        kernels = build_kernels(ds, LINEAR, grids, epsilon)
        assert isinstance(kernels, FactoredKernelSet)
        built = _kernels_in_place(_curve_costs(LINEAR, ds.timestamps, param_tuple_stack(grids), ds.grid.points),
                                  ds.lambdas, epsilon, grids)
        assert kernels.shifts.tobytes() == built.shifts.tobytes()
        return kernels

    @staticmethod
    def _assert_matches_dense(ds, grids, epsilon):
        kernels = TestFactoredKernels._assert_shifts_match_dense(ds, grids, epsilon)
        dense = oracles.dense_curve_kernels(ds, LINEAR, grids, epsilon)
        state, ref = (sinkhorn_solve(k, ds.target_matrix(), tol=1e-10, max_iter=20000) for k in (kernels, dense))
        assert state.converged and ref.converged
        assert (state.iterations, state.used_log_domain) == (ref.iterations, ref.used_log_domain)
        rtol = 1e-10
        np.testing.assert_allclose(extract_param_coupling(state).weights, extract_param_coupling(ref).weights, rtol=rtol)
        np.testing.assert_allclose(state.objective, ref.objective, rtol=rtol)
        np.testing.assert_allclose(state.marginal_residual, ref.marginal_residual, rtol=rtol, atol=1e-14)
        for j in range(len(ds)):
            np.testing.assert_allclose(oracles.project_marginal(state, j), oracles.project_marginal(ref, j), rtol=rtol)
        return state

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_snapshots=st.integers(3, 7),
        n_support=st.integers(3, 45),
        param_sizes=st.tuples(st.integers(2, 45), st.integers(2, 45)),
        epsilon=st.floats(np.log(0.03), np.log(1.0)).map(np.exp),
        origin=st.sampled_from([0.0, -40.0, 1000.0]),
    )
    def test_matches_dense_solve(self, seed, n_snapshots, n_support, param_sizes, epsilon, origin):
        ds, grids = self._instance(seed, n_snapshots, n_support, param_sizes, origin)
        self._assert_matches_dense(ds, grids, epsilon)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        times=st.sets(st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.3, 1 / 3, 2 / 3, 0.7, 1.0]), st.floats(0.0, 1.0)),
                      min_size=1, max_size=6),
        n_support=st.integers(1, 45),
        epsilon=st.floats(np.log(0.03), np.log(1.0)).map(np.exp),
        origin=st.sampled_from([0.0, -40.0, 1000.0]),
    )
    def test_shifts_on_the_support_grids(self, seed, times, n_support, epsilon, origin):
        # parameter grids that are the support: a curve point of a tuple (x_j, x_j) that lands
        # on x_j exactly gives the shift 0.0 without the scan; where 1 - t rounds (t = 0.2, 0.3,
        # 1/3), (1 - t) x_j + t x_j can miss x_j by a last bit, and a snapshot whose every such
        # point misses still gets the scan's shift
        rng = np.random.default_rng(seed)
        grid = grid_1d(origin + np.sort(rng.uniform(0, 1, n_support)))
        rows = rng.random((len(times), n_support)) + 0.05
        ds = dataset_from_weights(sorted(times), rows / rows.sum(axis=1, keepdims=True), grid)
        self._assert_shifts_match_dense(ds, (grid, grid), epsilon)

    def test_shifts_in_two_dimensions(self):
        # the shift is the least squared distance from a curve point to the support, summed over
        # both axes; a 6x6 grid whose parameter grids are offset from it reads 0.0113, 0.00067 and
        # 0.0113, where a minimum over single coordinates' squares took 0.003 at t = 0 and t = 1
        axis = np.linspace(0.0, 1.0, 6)
        support = SupportGrid(np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2))
        params = SupportGrid(support.points + np.array([0.03, -0.05]))
        ts = np.array([0.0, 0.3, 1.0])
        ds = dataset_from_weights(ts, np.full((3, 36), 1 / 36), support)
        stack = param_tuple_stack((params, params))
        coefficients = np.array([LINEAR.coefficients(t) for t in ts])
        kernels = _factored_kernels(ds, LINEAR, (params, params), stack, coefficients, 0.1)
        built = _kernels_in_place(_curve_costs(LINEAR, ts, stack, support.points), ds.lambdas, 0.1, (params, params))
        assert kernels.shifts.tobytes() == built.shifts.tobytes()
        assert (kernels.shifts > 0).all()

    def test_support_grids_scan_where_no_diagonal_point_lands(self, monkeypatch):
        from wasscurve import kernels as kernels_module

        times = np.array([0.2, 0.3])
        candidates = np.random.default_rng(3).uniform(-1.0, 1.0, 400)
        stack = np.stack([candidates, candidates], axis=1)[:, :, None]
        misses = np.logical_and.reduce([LINEAR.evaluate(stack, t)[:, 0] != candidates for t in times])
        grid = grid_1d(np.sort(candidates[misses][:6]))
        scans = []
        monkeypatch.setattr(kernels_module, "nearest_index", lambda *a: scans.append(1) or nearest_index(*a))
        ds = dataset_from_weights(times, np.full((2, 6), 1 / 6), grid)
        kernels = self._assert_shifts_match_dense(ds, (grid, grid), 0.1)
        assert len(scans) == 2 and (kernels.shifts > 0).all()

    def test_support_grids_skip_the_scan(self, monkeypatch):
        # (1 - t) x + t x is x exactly at t = 0, 1/2 and 1: every shift is 0.0 and no snapshot scans
        from wasscurve import kernels as kernels_module

        def no_scan(points, grid):
            raise AssertionError("nearest_index was called")

        monkeypatch.setattr(kernels_module, "nearest_index", no_scan)
        grid = grid_1d(np.linspace(-1.0, 3.0, 12))
        ds = dataset_from_weights([0.0, 0.5, 1.0], np.full((3, 12), 1 / 12), grid)
        kernels = build_kernels(ds, LINEAR, (grid, grid), 0.1)
        assert kernels.shifts.tobytes() == np.zeros(3).tobytes()

    def test_log_domain_fallback(self):
        # exp-representable kernels (smallest log entry -556), but the target
        # mass at y = 1, far from every curve point, needs potentials past the
        # overflow guard: the solve switches to the dense log kernels
        grid = grid_1d(np.linspace(0, 1, 30))
        pgrid = grid_1d(np.linspace(0, 0.2, 30))
        ds = dataset_from_weights([0.0, 0.4, 1.0], np.full((3, 30), 1 / 30), grid, [0.2, 0.3, 0.5])
        kernels = build_kernels(ds, LINEAR, (pgrid, pgrid), 9e-4)
        assert isinstance(kernels, FactoredKernelSet) and kernels.log_kernels.min() >= -600.0
        assert self._assert_matches_dense(ds, (pgrid, pgrid), 9e-4).used_log_domain

    def test_dense_logs_are_checked_against_physical_memory(self, monkeypatch):
        # factor_a overflows, so the solve leaves the exp domain on its first
        # sweep; its 0.56 GiB of dense logs are refused before they are allocated
        import os

        grid = grid_1d(np.linspace(0, 1, 400))
        ds = dataset_from_weights([0.0, 0.5, 1.0], np.full((3, 400), 1 / 400), grid)
        pgrid = grid_1d(np.linspace(-0.5, 1.5, 250))
        kernels = build_kernels(ds, LINEAR, (pgrid, pgrid), 1e-4)
        assert isinstance(kernels, FactoredKernelSet) and np.isinf(kernels.factor_a).any()
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**29 // 4096}.__getitem__)
        with pytest.raises(ValueError, match=r"the dense log kernels need 0\.6 GiB, more than this machine's 0\.5 GiB"):
            sinkhorn_solve(kernels, ds.target_matrix())
        assert "log_kernels" not in vars(kernels)

    def test_factors_are_checked_against_physical_memory(self, monkeypatch):
        # on a machine of 1 MiB, a 400-point line's 11.5 MB of factors, with its tuple stack
        # and an exp-domain solve's (N, P) sums, are refused before any of them is allocated
        import os

        grid = grid_1d(np.linspace(0, 1, 400))
        ds = dataset_from_weights([0.0, 0.5, 1.0], np.full((3, 400), 1 / 400), grid)
        factor_bytes = 3 * 3 * 400 * 400 * 8
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**20 // 4096}.__getitem__)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"the factored kernels need 35\.4 MiB, more than this machine's 1\.0 MiB") as refused:
                build_kernels(ds, LINEAR, (grid, grid), 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < factor_bytes / 100
        # both sizes read nonzero, where GiB with one decimal read 0.0 for each
        sizes = [float(x) for x in re.findall(r"(\d+\.\d) [GM]iB", str(refused.value))]
        assert len(sizes) == 2 and min(sizes) > 0

    @pytest.mark.parametrize("spread", [1.0, 3.0])
    def test_wide_parameter_grids_near_exp_limit(self, spread):
        # parameter grids reaching ``spread`` past each end of the support and
        # a smallest log kernel entry of -590 give largest log factor_a
        # entries of 318.6 (1.0) and 433.65 (3.0); the solve runs on the
        # factors in the exp domain and allocates no array of the dense
        # kernels' size
        grid = grid_1d(np.linspace(0, 1, 20))
        rows = np.random.default_rng(0).random((4, 20)) + 0.05
        ds = dataset_from_weights([0.0, 0.3, 0.6, 1.0], rows / rows.sum(axis=1, keepdims=True), grid)
        pgrid = grid_1d(np.linspace(-spread, 1 + spread, 20))
        epsilon = (1 + spread) ** 2 * 0.25 / 590
        kernels = build_kernels(ds, LINEAR, (pgrid, pgrid), epsilon)
        assert oracles.dense_curve_kernels(ds, LINEAR, (pgrid, pgrid), epsilon).log_kernels.min() == pytest.approx(-590.0)
        assert np.log(kernels.factor_a.max()) == pytest.approx({1.0: 318.6, 3.0: 433.65}[spread])
        tensor_bytes = len(ds) * math.prod(kernels.param_shape) * kernels.n_support * 8
        tracemalloc.start()
        try:
            state = sinkhorn_solve(kernels, ds.target_matrix(), tol=1e-10, max_iter=20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.converged and not state.used_log_domain
        assert peak < tensor_bytes
        assert not self._assert_matches_dense(ds, (pgrid, pgrid), epsilon).used_log_domain

    def test_overflowing_factor_a_reaches_the_dense_objective(self):
        # factor_a, the one factor above 1, can overflow where the kernels are
        # in the exp domain: here its largest log is 1.53 times minus the
        # smallest log kernel. The solve then leaves the exp domain on its first
        # sweep (the dense one does not) and still reaches the dense oracle's objective
        ds, grids = self._instance(412, 4, 5, (2, 5), 0.0, 3.0)
        epsilon = -build_kernels(ds, LINEAR, grids, 1.0).log_kernels.min() / 590
        kernels = build_kernels(ds, LINEAR, grids, epsilon)
        assert kernels.log_kernels.min() == pytest.approx(-590.0) and np.isinf(kernels.factor_a).any()
        dense = oracles.dense_curve_kernels(ds, LINEAR, grids, epsilon)
        state, ref = (sinkhorn_solve(k, ds.target_matrix(), tol=1e-10, max_iter=20000) for k in (kernels, dense))
        assert state.converged and ref.converged
        np.testing.assert_allclose(state.objective, ref.objective, rtol=1e-10)

    def test_holds_no_dense_tensor(self):
        # N=6, |X|=80 as in the logistic benchmark: 24.6 MB of dense log kernels
        grid = grid_1d(np.linspace(0, 1, 80))
        rows = np.random.default_rng(5).random((6, 80)) + 0.05
        ds = dataset_from_weights(np.linspace(0, 1, 6), rows / rows.sum(axis=1, keepdims=True), grid)
        tensor_bytes = 6 * 80**3 * 8
        tracemalloc.start()
        try:
            kernels = build_kernels(ds, LINEAR, (grid, grid), 0.05)
            state = sinkhorn_solve(kernels, ds.target_matrix())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(kernels, FactoredKernelSet) and state.converged and not state.used_log_domain
        assert peak < tensor_bytes / 4
        # a mixture cost table has no such structure and stays dense
        costs = np.random.default_rng(6).random((5, 16, 4))
        assert isinstance(kernels_from_costs(costs, np.full(5, 0.2), 0.07, (grid_1d(np.arange(4.0)),) * 2), CostKernelSet)


class TestOverrelaxation:
    """Accelerated sweeps (Anderson extrapolation, which took over from
    over-relaxation) change the path of a solve, not its fixed point."""

    @staticmethod
    def _solve(kernels, targets, plain, log_domain, **kwargs):
        import wasscurve.mm_sinkhorn as engine

        solve = log_domain_solve if log_domain else sinkhorn_solve
        with ExitStack() as stack:
            if plain:  # no residual ratio counts as slow
                stack.enter_context(mock.patch.object(engine, "_SLOW_RATIO", np.inf))
            return solve(kernels, targets, **kwargs)

    @staticmethod
    def _instance(seed, n_snapshots, n_support, param_sizes, epsilon, zero_targets):
        rng = np.random.default_rng(seed)
        grid = grid_1d(np.sort(rng.uniform(0, 1, n_support)))
        rows = rng.random((n_snapshots, n_support)) + 0.05
        if zero_targets:
            rows[rng.random(rows.shape) < 0.4] = 0.0
            rows[:, 0] += 0.1
        rows /= rows.sum(axis=1, keepdims=True)
        ts = np.sort(rng.uniform(0, 1, n_snapshots))
        ts[-1] = 1.0
        ds = dataset_from_weights(ts, rows, grid)
        param_grids = [grid_1d(np.sort(rng.uniform(-0.5, 1.5, k))) for k in param_sizes]
        curve = LINEAR if len(param_sizes) == 2 else QUADRATIC
        return ds, build_kernels(ds, curve, param_grids, epsilon)

    # instances of the property below whose plain sweeps contract slowly
    # (949, 483, 113 and 41 of them at tol 1e-10): (seed, N, |X|, grid
    # sizes, epsilon, zero targets)
    SETTLING = [
        (856912306, 5, 8, (2, 2), 0.0035809754799371097, False),
        (624804088, 5, 4, (2, 2), 0.002536891017960976, True),
        (3653403231, 4, 5, (3, 4), 0.0025077373480802754, False),
        (4011686354, 4, 4, (2, 3, 2), 0.011826425112643613, True),
    ]
    # a hard instance for extrapolation: plain sweeps take 1,101, accelerated
    # ones about 276, of whose extrapolations about 43 are undone
    STALL = (1616143949, 6, 4, (3, 4), 0.0025336, False)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_snapshots=st.integers(1, 6),
        n_support=st.integers(2, 8),
        param_sizes=st.sampled_from([(2, 2), (3, 4), (5, 3), (2, 3, 2), (3, 3, 3)]),
        epsilon=st.floats(np.log(0.002), 0.0).map(np.exp),
        zero_targets=st.booleans(),
        log_domain=st.booleans(),
    )
    @example(*SETTLING[0], False)
    @example(*SETTLING[1], True)
    @example(*SETTLING[3], True)
    @example(*STALL, False)
    @example(*STALL, True)
    def test_agrees_with_plain_sweeps(self, seed, n_snapshots, n_support, param_sizes, epsilon, zero_targets, log_domain):
        ds, kernels = self._instance(seed, n_snapshots, n_support, param_sizes, epsilon, zero_targets)
        tol = 1e-10
        states = [self._solve(kernels, ds.target_matrix(), plain, log_domain, tol=tol, max_iter=50000) for plain in (True, False)]
        for state in states:
            assert state.converged
            assert state.used_log_domain or not log_domain
            for j in range(n_snapshots):
                assert np.abs(oracles.project_marginal(state, j) - ds.measures[j].weights).sum() <= tol
        plain, accelerated = states
        assert plain.accelerated == plain.acceleration_reverts == 0
        assert accelerated.iterations <= 2 * plain.iterations
        np.testing.assert_allclose(accelerated.objective, plain.objective, rtol=1e-6)
        np.testing.assert_allclose(
            extract_param_coupling(accelerated).weights, extract_param_coupling(plain).weights, rtol=1e-6
        )

    @pytest.mark.parametrize("instance", SETTLING)
    def test_settled_rate_over_relaxes(self, instance):
        # a slowly contracting solve is extrapolated, and takes fewer sweeps than plain ones
        ds, kernels = self._instance(*instance)
        plain = self._solve(kernels, ds.target_matrix(), True, False, tol=1e-10, max_iter=50000)
        accelerated = sinkhorn_solve(kernels, ds.target_matrix(), tol=1e-10, max_iter=50000)
        assert accelerated.accelerated > 0
        assert accelerated.accelerated + accelerated.acceleration_reverts < accelerated.iterations
        assert accelerated.iterations < plain.iterations

    @pytest.mark.parametrize("log_domain", [False, True])
    @pytest.mark.parametrize("instance", [SETTLING[0], SETTLING[1], STALL])
    def test_accepted_sweeps_raise_the_dual(self, monkeypatch, instance, log_domain):
        # every kept extrapolation x leaves the dual objective
        # sum_j <p_j, log a_j> - mass at least where the plain sweep's output
        # g left it, with the masses recomputed from the dense coupling; the
        # difference is formed term by term, so 1e-14 (45 ulps of the unit
        # mass) covers the rounding of the recomputation
        import wasscurve.mm_sinkhorn as engine

        ds, kernels = self._instance(*instance)
        targets = ds.target_matrix()
        positive = targets > 0
        gains = []

        def mass(x):
            log_a = np.full(targets.shape, -np.inf)
            log_a[positive] = x
            return oracles.dense_coupling_marginals(kernels, log_a)[0].sum()

        keep = engine._Anderson.keep

        def checked_keep(self, x, mass_change):
            kept = keep(self, x, mass_change)
            if kept:
                gains.append(targets[positive] @ (x - self.g) - (mass(x) - mass(self.g)))
            return kept

        monkeypatch.setattr(engine._Anderson, "keep", checked_keep)
        state = self._solve(kernels, ds.target_matrix(), False, log_domain, tol=1e-10, max_iter=50000)
        assert state.converged and state.used_log_domain == log_domain
        assert len(gains) == state.accelerated > 0
        assert min(gains) >= -1e-14

    @pytest.mark.parametrize("log_domain", [False, True])
    def test_safeguard_undoes_a_sweep_that_lowers_the_dual(self, monkeypatch, caplog, log_domain):
        import wasscurve.mm_sinkhorn as engine

        coefficients = engine._Anderson.coefficients
        monkeypatch.setattr(engine._Anderson, "coefficients", lambda self: -40.0 * coefficients(self))
        ds, kernels = self._instance(*self.SETTLING[0])
        with caplog.at_level("DEBUG", logger="wasscurve.mm_sinkhorn"):
            state = self._solve(kernels, ds.target_matrix(), False, log_domain, tol=1e-10, max_iter=50000)
        assert state.acceleration_reverts >= 1
        assert "extrapolation undone: dual objective change -" in caplog.text
        assert state.residual_history.size == state.iterations
        monkeypatch.undo()
        plain = self._solve(kernels, ds.target_matrix(), True, log_domain, tol=1e-10, max_iter=50000)
        assert state.converged and plain.converged
        assert state.used_log_domain == plain.used_log_domain == log_domain
        np.testing.assert_allclose(state.objective, plain.objective, rtol=1e-6)

    def test_safeguard_undoes_a_two_marginal_extrapolation(self, monkeypatch, caplog):
        import wasscurve.mm_sinkhorn as engine

        rng = np.random.default_rng(14)
        grid = grid_1d(np.linspace(0, 1, 12))
        mu, nu = (DiscreteMeasure(grid, w / w.sum()) for w in rng.random((2, 12)) + 0.05)
        coefficients = engine._Anderson.coefficients
        monkeypatch.setattr(engine._Anderson, "coefficients", lambda self: -40.0 * coefficients(self))
        with caplog.at_level("DEBUG", logger="wasscurve.mm_sinkhorn"):
            cost, plan = two_marginal_w2(mu, nu, 0.002, tol=1e-10)
        assert "sinkhorn sweeps: extrapolation undone: dual objective change -" in caplog.text
        assert np.abs(plan.sum(axis=1) - mu.weights).sum() <= 1e-10
        assert np.abs(plan.sum(axis=0) - nu.weights).sum() <= 1e-10
        monkeypatch.undo()
        with mock.patch.object(engine, "_SLOW_RATIO", np.inf):
            plain, _ = two_marginal_w2(mu, nu, 0.002, tol=1e-10)
        np.testing.assert_allclose(cost, plain, rtol=1e-6)

    def test_unsettled_solve_runs_plain(self, monkeypatch):
        # a solve whose residual falls fast is never extrapolated, so its
        # potentials are those of plain sweeps, bit for bit
        import wasscurve.mm_sinkhorn as engine

        proposals = []
        propose = engine._Anderson.propose
        monkeypatch.setattr(engine._Anderson, "propose", lambda self: proposals.append(1) or propose(self))
        ds, kernels = random_instance(np.random.default_rng(3), n_snapshots=4, n_support=4, param_sizes=(3, 3))
        state = sinkhorn_solve(kernels, ds.target_matrix(), tol=1e-9)
        plain = self._solve(kernels, ds.target_matrix(), True, False, tol=1e-9)
        assert state.accelerated == state.acceleration_reverts == 0 and not proposals
        np.testing.assert_array_equal(state.log_potentials, plain.log_potentials)
        assert state.iterations == plain.iterations


class TestNewtonPhase:
    """Stalled exp-domain sweeps give way to damped Newton steps on the dual;
    these change the path of a solve, not its fixed point."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["factored", "dense linear", "quadratic"]),
        n_snapshots=st.integers(2, 5),
        n_support=st.integers(2, 8),
        epsilon=st.floats(np.log(0.002), np.log(0.05)).map(np.exp),
        zero_targets=st.booleans(),
    )
    def test_agrees_with_plain_sweeps(self, seed, kind, n_snapshots, n_support, epsilon, zero_targets):
        # every slow solve enters the phase at its first kept extrapolation
        # past the window when a Newton step is priced at nothing
        import wasscurve.mm_sinkhorn as engine

        ds, kernels = TestOverrelaxation._instance(seed, n_snapshots, n_support, (3, 3, 3) if kind == "quadratic" else (3, 4),
                                                   epsilon, zero_targets)
        if kind == "dense linear":
            kernels = oracles.dense_curve_kernels(ds, LINEAR, kernels.parameter_grids, epsilon)
        tol = 1e-10
        with mock.patch.object(engine, "_NEWTON_MULTIPLE", 0.0):
            state = sinkhorn_solve(kernels, ds.target_matrix(), tol=tol, max_iter=50000)
        assume(state.newton_steps > 0)
        plain = TestOverrelaxation._solve(kernels, ds.target_matrix(), True, False, tol=tol, max_iter=50000)
        assert state.converged and plain.converged
        assert state.residual_history.size == state.iterations
        for j in range(n_snapshots):
            assert np.abs(oracles.project_marginal(state, j) - ds.measures[j].weights).sum() <= tol
        np.testing.assert_allclose(state.objective, plain.objective, rtol=1e-6)
        np.testing.assert_allclose(extract_param_coupling(state).weights, extract_param_coupling(plain).weights, rtol=1e-6)

    @pytest.mark.parametrize("kind", ["factored", "dense linear", "quadratic"])
    def test_pair_products_match_the_dense_tensor(self, kind):
        # (K_i a_i)^T diag(prod_{k != i, j} m_k) (K_j a_j) is the pair marginal Gamma_ij
        rng = np.random.default_rng(31)
        ds, kernels = TestSinkhornSolve._low_kernel_instance(31, kind, 4, 5, -30.0)
        log_a = rng.normal(size=(4, 5))
        log_a[1, 2] = -np.inf  # a zero target's potential
        a = np.exp(log_a)
        m = np.exp(_log_factor_sums(oracles.dense_curve_kernels(ds, QUADRATIC if kind == "quadratic" else LINEAR,
                                                                kernels.parameter_grids, kernels.epsilon).log_kernels, log_a))
        first, second = np.array([(i, j) for i in range(4) for j in range(i + 1, 4)]).T
        w = np.array([np.prod([m[k] for k in range(4) if k not in (i, j)], axis=0) for i, j in zip(first, second)])
        pairs = kernels.exp_operator().pair(first, second, w, a)
        assert "log_kernels" not in vars(kernels) or kind != "factored"  # the factors' pairs never build the dense logs
        np.testing.assert_allclose(pairs, oracles.dense_pair_marginals(kernels, log_a), rtol=1e-12, atol=0)
        with mock.patch("wasscurve.kernels._PAIR_BATCH", 1):  # dense kernels: one pair per batch
            np.testing.assert_allclose(kernels.exp_operator().pair(first, second, w, a), pairs, rtol=1e-14, atol=0)

    DRAWS = [  # test_low_kernels_match_the_log_domain's draws whose sweeps stall
        (3601, "factored", 3, 6, -1261.0),
        (302454070, "factored", 5, 8, -940.3047664832554),
        (2685871986, "factored", 4, 7, -1484.8),
    ]

    @pytest.mark.parametrize("draw", DRAWS)
    def test_stalled_draws_converge_on_the_factors(self, draw):
        # sweeps alone take 20,442, 22,927 and 1,419; the phase reaches tol in a
        # few hundred iterations at most and never builds the dense logs
        ds, kernels = TestSinkhornSolve._low_kernel_instance(*draw)
        state = sinkhorn_solve(kernels, ds.target_matrix(), tol=1e-10, max_iter=20000)
        assert state.converged and not state.used_log_domain and state.newton_steps > 0
        assert state.iterations < 1000
        assert "log_kernels" not in vars(kernels)
        np.testing.assert_allclose(state.objective, oracles.transport_objective_from_logs(
            kernels, state.log_potentials, _log_factor_sums(kernels.log_kernels, state.log_potentials)), rtol=1e-8)

    def test_phase_is_chosen_at_run_time(self, tmp_path, monkeypatch):
        # on the benchmark inputs: the mixture toy's sweeps stall and enter the
        # phase; regress and invariant converge in sweeps before they could
        import wasscurve.cli as cli
        import wasscurve.curve_regression as curve_regression
        import wasscurve.gmm_regression as gmm_regression

        states = []
        for module in (curve_regression, gmm_regression):
            solve = module.sinkhorn_solve
            monkeypatch.setattr(module, "sinkhorn_solve", lambda *a, _solve=solve, **k: states.append(_solve(*a, **k)) or states[-1])
        steps = {}
        for name, generate, argv in [
            ("gmm", ["mixture-toy"], ["--epsilon", "0.07", "--max-iter", "30000"]),
            ("regress", ["ou", "--particles", "2000", "--snapshots", "10", "--seed", "0"], ["--curve", "linear", "--query-times", "0,0.5,1,1.5"]),
            ("invariant", ["logistic", "--r", "4", "--snapshots", "6", "--particles", "1000", "--seed", "0"], ["--boxes", "80", "--epsilon", "0.05"]),
        ]:
            data = str(tmp_path / f"{name}.input")
            assert cli.main(["generate", *generate, "--output", data]) == 0
            states.clear()
            assert cli.main([name, "--input", data, *argv, "--output", str(tmp_path / name)]) == 0
            assert len(states) == 1 and states[0].converged
            steps[name] = states[0].newton_steps
        assert steps["gmm"] > 0 and steps["regress"] == steps["invariant"] == 0


class TestNewtonEntry:
    """The phase is entered only where its steps are priced below the sweeps they save."""

    # shape (4, 100, 10): a Newton step costs 8.83 sweeps, so 20 of them pay past 177 sweeps to tol
    @pytest.mark.parametrize("rates, stalled", [
        ([0.5] * 5, False),  # five fast sweeps: 12 more reach tol
        ([0.99] * 5, True),  # five slow ones: 1,141 more
        ([0.7] * 15 + [1.0] * 5, False),  # flat over five sweeps, fast over twenty: 23 more
        ([0.995] * 15 + [1.0] * 5, True),  # flat over five, slow over twenty: 3,042 more
        ([1.0] * 20, True),  # flat over twenty
        ([0.1] * 3 + [1.0] * 5, False),  # flat over five, fast over the eight there are
        ([0.5] * 4, False),  # too few sweeps to price
    ])
    def test_entry_is_priced_on_a_synthetic_history(self, rates, stalled):
        history = list(1e-3 * np.cumprod([1.0, *rates]))
        assert _stalled(history, 1e-8, (4, 100, 10)) is stalled

    @pytest.mark.parametrize("epsilon, enters", [(0.01, False), (0.005, True)])
    def test_regress_input(self, tmp_path, epsilon, enters):
        # at 0.01 the residual is flat over five sweeps at sweep 141, but the
        # last twenty project 97 more sweeps, where a step costs 121; at 0.005
        # they project 96,933, and three steps converge the solve
        from wasscurve import dataio
        from wasscurve.curve_regression import default_param_grids

        dataio.write_sample_csv(str(tmp_path / "ou.csv"), dataio.generate_ou_rows(n_times=10, n_samples=2000, seed=0))
        ds = dataio.load_snapshots(str(tmp_path / "ou.csv"))
        kernels = build_kernels(ds, LINEAR, default_param_grids(ds, LINEAR), epsilon)
        state = sinkhorn_solve(kernels, ds.target_matrix(), tol=1e-8, max_iter=10000)
        assert state.converged and not state.used_log_domain
        assert (state.newton_steps > 0) is enters


class TestExtractParamCoupling:
    def test_uniform_kernels_give_uniform_coupling(self):
        param_grids = (grid_1d([0.0, 1.0]), grid_1d([0.0, 1.0]))
        costs = np.zeros((2, 4, 3))
        kernels = kernels_from_costs(costs, np.array([0.5, 0.5]), 1.0, param_grids)
        log_a = np.zeros((2, 3))
        state = FactoredCoupling(kernels, log_a, True, 0, 0.0, np.array([]), 0.0, False, _log_factor_sums(kernels.log_kernels, log_a))
        np.testing.assert_allclose(extract_param_coupling(state).weights, 0.25)

    def test_warns_when_not_converged(self):
        ds, kernels = random_instance(np.random.default_rng(7))
        state = sinkhorn_solve(kernels, ds.target_matrix(), tol=1e-12, max_iter=1)
        assert not state.converged
        with pytest.warns(RuntimeWarning, match="non-converged"):
            extract_param_coupling(state)

    def test_symmetric_instance_symmetric_coupling(self):
        # targets symmetric under x -> -x; negating all grids leaves the coupling unchanged
        grid = grid_1d([-1.0, 0.0, 1.0])
        rows = np.array([[0.3, 0.4, 0.3], [0.25, 0.5, 0.25], [0.2, 0.6, 0.2]])
        ds = dataset_from_weights([0.0, 0.5, 1.0], rows, grid)
        kernels = build_kernels(ds, LINEAR, (grid, grid), 0.3)
        state = sinkhorn_solve(kernels, ds.target_matrix(), tol=1e-11)
        w = extract_param_coupling(state).weights
        np.testing.assert_allclose(w, w[::-1, ::-1], atol=1e-10)

    def test_single_snapshot_dirac_concentrates_with_epsilon(self):
        # N=1 with a Dirac target: mass gathers on the zero-cost parameter tuple
        grid = grid_1d([0.0, 0.5, 1.0])
        target = np.array([0.0, 0.0, 1.0])  # Dirac at 1.0 observed at t=1
        ds = SnapshotDataset(np.array([1.0]), (DiscreteMeasure(grid, target),), np.array([1.0]))
        previous = 0.0
        for eps in (0.3, 0.1, 0.03, 0.01):
            kernels = build_kernels(ds, LINEAR, (grid, grid), eps)
            state = sinkhorn_solve(kernels, ds.target_matrix(), tol=1e-11)
            w = extract_param_coupling(state).weights
            # zero-cost tuples are exactly those with x1 = 1.0 (the last column)
            mass_on_zero_cost = w[:, 2].sum()
            assert mass_on_zero_cost >= previous - 1e-12
            previous = mass_on_zero_cost
        assert previous >= 0.99

    def test_solve_is_deterministic(self):
        ds, kernels = random_instance(np.random.default_rng(23), n_snapshots=3, n_support=4)
        a = sinkhorn_solve(kernels, ds.target_matrix(), tol=1e-10)
        b = sinkhorn_solve(kernels, ds.target_matrix(), tol=1e-10)
        np.testing.assert_array_equal(a.log_potentials, b.log_potentials)
        assert a.objective == b.objective and a.iterations == b.iterations

    def test_dirac_mode_matches_least_squares(self):
        # mode of the parameter coupling sits at the euclidean fit for Dirac data
        grid = grid_1d([0.0, 1.0 / 3.0, 0.5, 1.0])
        diracs = np.array([
            [1.0, 0, 0, 0],
            [0, 0, 0, 1.0],
            [1.0, 0, 0, 0],
        ])
        ds = dataset_from_weights([0.0, 0.5, 1.0], diracs, grid)
        kernels = build_kernels(ds, LINEAR, (grid, grid), 1e-3)
        state = sinkhorn_solve(kernels, ds.target_matrix(), tol=1e-9)
        mode = extract_param_coupling(state).mode()
        np.testing.assert_allclose(mode.ravel(), [1.0 / 3.0, 1.0 / 3.0], atol=1e-12)


class TestTimeScaling:
    @pytest.mark.parametrize("horizon", [2.0, 10.0])
    def test_lp_objective_invariant_under_time_scaling(self, horizon):
        grid = grid_1d([0.0, 0.5, 1.0])
        rows = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.1, 0.3, 0.6]])
        lambdas = np.full(3, 1 / 3)
        raw_ts = np.array([0.0, 0.4, 1.0]) * horizon
        base = np.array([0.0, 0.5, 1.0])  # parameter grid for the [0, T] problem
        support = grid.points[:, 0]

        def cost_arrays(eval_coeffs, g0, g1):
            stack = param_tuple_stack((grid_1d(g0), grid_1d(g1)))[:, :, 0]
            out = np.empty((3, stack.shape[0], 3))
            for i, (c0, c1) in enumerate(eval_coeffs):
                phi = c0 * stack[:, 0] + c1 * stack[:, 1]
                out[i] = (phi[:, None] - support[None, :]) ** 2
            return out

        scaled = cost_arrays([( horizon - t, t) for t in raw_ts], base, base)
        normalized = cost_arrays([(1 - t / horizon, t / horizon) for t in raw_ts], base * horizon, base * horizon)
        v_scaled, _ = oracles.multimarginal_lp(scaled, lambdas, rows)
        v_norm, _ = oracles.multimarginal_lp(normalized, lambdas, rows)
        assert v_scaled == pytest.approx(v_norm, abs=1e-9)

    def test_entropic_objective_invariant_under_time_scaling(self):
        horizon = 2.0
        grid = grid_1d([0.0, 1.0])
        rows = np.array([[0.7, 0.3], [0.4, 0.6], [0.2, 0.8]])
        ds_norm = dataset_from_weights([0.0, 0.25, 1.0], rows, grid)
        pg_scaled = (grid_1d([0.0, horizon]), grid_1d([0.0, horizon]))
        kernels_norm = build_kernels(ds_norm, LINEAR, pg_scaled, 0.2)
        state_norm = sinkhorn_solve(kernels_norm, ds_norm.target_matrix(), tol=1e-11)
        # the [0, T] problem, built from raw cost arrays
        stack = param_tuple_stack((grid_1d([0.0, 1.0]), grid_1d([0.0, 1.0])))[:, :, 0]
        raw_ts = np.array([0.0, 0.25, 1.0]) * horizon
        costs = np.empty((3, 4, 2))
        for i, t in enumerate(raw_ts):
            phi = (horizon - t) * stack[:, 0] + t * stack[:, 1]
            costs[i] = (phi[:, None] - grid.points[:, 0][None, :]) ** 2
        kernels_scaled = kernels_from_costs(costs, ds_norm.lambdas, 0.2, (grid_1d([0.0, 1.0]),) * 2)
        state_scaled = sinkhorn_solve(kernels_scaled, ds_norm.target_matrix(), tol=1e-11)
        assert state_scaled.objective == pytest.approx(state_norm.objective, rel=1e-8)


class TestLogSumExp:
    """The numpy log-sum-exp that replaces scipy.special.logsumexp."""

    @staticmethod
    def _arrays():
        rng = np.random.default_rng(3)
        x = rng.normal(scale=30.0, size=(6, 9))
        x[1, [0, 4]] = -np.inf
        x[3] = -np.inf
        x[:, 2] = -np.inf
        return x

    @pytest.mark.parametrize("axis", [0, 1, None])
    def test_matches_scipy(self, axis):
        from scipy.special import logsumexp

        from wasscurve.mm_sinkhorn import _logsumexp

        x = self._arrays()
        with np.errstate(divide="ignore"):
            expected = logsumexp(x, axis=axis)
        got = _logsumexp(x, axis)
        np.testing.assert_allclose(got, expected, rtol=1e-12)
        if axis == 1:
            assert got[3] == -np.inf
        if axis == 0:
            assert got[2] == -np.inf

    def test_work_buffer_gives_the_same_result(self):
        from wasscurve.mm_sinkhorn import _logsumexp

        x = self._arrays()
        fresh = _logsumexp(x, 1)
        work = x.copy()
        np.testing.assert_array_equal(_logsumexp(work, 1, work), fresh)

    def test_flat_all_minus_inf(self):
        from wasscurve.mm_sinkhorn import _logsumexp

        assert _logsumexp(np.full(4, -np.inf)) == -np.inf


class TestLogWeights:
    """log w_j = sum_{i != j} log m_i, as ``_log_weights`` forms it for every log-space pass."""

    @staticmethod
    def _rows():
        rng = np.random.default_rng(17)
        rows = rng.uniform(0.5, 2.0, (6, 40))
        rows[2] = rng.choice([-1.0, 1.0], 40) * rng.uniform(0.5e4, 1e4, 40)
        return rows

    @staticmethod
    def _assert_within_ulps(got, rows, j):
        expected = np.array([math.fsum(np.delete(column, j)) for column in rows.T])
        assert (np.abs(got - expected) <= 4 * np.spacing(np.abs(expected))).all()

    def test_large_row_does_not_cancel(self):
        from wasscurve.mm_sinkhorn import _log_weights

        rows = self._rows()
        for j, log_w in enumerate(_log_weights(rows)):
            self._assert_within_ulps(log_w, rows, j)

    def test_rows_rewritten_during_the_pass(self):
        # a sweep rewrites row j before it asks for w_{j+1}: w_j sums the new rows before j and the old ones after it
        from wasscurve.mm_sinkhorn import _log_weights

        rows = self._rows()
        new = 1.5 * rows[::-1]
        live = rows.copy()
        for j, log_w in enumerate(_log_weights(live)):
            self._assert_within_ulps(log_w, np.concatenate([new[:j], rows[j:]]), j)
            live[j] = new[j]

    def test_minus_inf_row_gives_minus_inf(self):
        from wasscurve.mm_sinkhorn import _log_weights

        rows = self._rows()
        rows[4, :10] = -np.inf
        with np.errstate(invalid="raise"):
            weights = np.array(list(_log_weights(rows)))
        assert not np.isnan(weights).any()
        assert np.isneginf(np.delete(weights, 4, axis=0)[:, :10]).all()
        assert np.isfinite(weights[4]).all() and np.isfinite(weights[:, 10:]).all()

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 8),
        p=st.integers(1, 6),
        data=st.data(),
    )
    def test_bit_equal_to_the_reversed_cumsum(self, n, p, data):
        # the suffix sums sum_{i > j} log m_i of a reversed np.cumsum over the rows
        from wasscurve.mm_sinkhorn import _log_weights

        entry = st.one_of(st.floats(-1e4, 1e4), st.sampled_from([-np.inf, -0.0, 0.0]))
        rows = np.array(data.draw(st.lists(entry, min_size=n * p, max_size=n * p))).reshape(n, p)
        for j in data.draw(st.sets(st.integers(0, n - 1), max_size=2)):
            rows[j] = -np.inf
        suffix = np.zeros_like(rows)
        np.cumsum(rows[:0:-1], axis=0, out=suffix[-2::-1])
        expected, prefix = [], np.zeros(p)
        for j in range(n):
            expected.append(prefix + suffix[j])
            prefix += rows[j]
        assert np.array(list(_log_weights(rows))).tobytes() == np.array(expected).tobytes()


@st.composite
def _mass_change_inputs(draw):
    """An (N, P) ratio array of both signs, magnitudes 1e-14 to 10, and a parameter mass with
    zero entries, whose ratios may be NaN or infinite, as 0 / 0 and x / 0 make them."""
    n, p = draw(st.integers(1, 12)), draw(st.integers(1, 50))
    exponents = np.array(draw(st.lists(st.floats(-14, 1), min_size=n * p, max_size=n * p))).reshape(n, p)
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n * p, max_size=n * p))).reshape(n, p)
    ratio = signs * 10.0 ** exponents
    mass = np.array(draw(st.lists(st.sampled_from([0.0, 1e-300]) | st.floats(1e-6, 1e3), min_size=p, max_size=p)))
    for column in np.flatnonzero(mass == 0):
        ratio[:, column] = draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf, 0.5]), min_size=n, max_size=n))
    return mass, ratio


class TestMassChange:
    """``_mass_change``'s one-pass form against the row loop in tests/oracles.py."""

    @settings(max_examples=200, deadline=None)
    @given(_mass_change_inputs())
    def test_matches_the_row_loop(self, inputs):
        mass, ratio = inputs
        live = mass > 0
        # the scale of the sum: sum_p mass_p sum_j |r_j prod_{i<j} (1 + r_i)|
        grown = np.vstack([np.ones((1, ratio.shape[1])), np.cumprod(np.abs(1.0 + ratio[:-1]), axis=0)])
        scale = float(mass[live] @ (np.abs(ratio) * grown)[:, live].sum(axis=0))
        got = _mass_change(mass, ratio.copy())  # it overwrites its ratio
        assert math.isfinite(got)
        assert abs(got - oracles.mass_change(mass, ratio)) <= 1e-12 * scale


class TestTwoMarginal:
    def measures_on(self, values, *weight_rows):
        g = grid_1d(values)
        return [DiscreteMeasure(g, np.asarray(w, dtype=float)) for w in weight_rows]

    def test_identical_measures_cost_vanishes_with_epsilon(self):
        mu, = self.measures_on([0.0, 1.0, 2.0], [0.3, 0.4, 0.3])
        previous = np.inf
        for eps in (1.0, 0.3, 0.1, 0.03):
            cost, _ = two_marginal_w2(mu, mu, eps, tol=1e-11)
            assert cost <= previous + 1e-12
            previous = cost
        assert previous <= 1e-3

    def test_diracs_single_route(self):
        mu, nu = self.measures_on([0.0, 3.0], [1.0, 0.0], [0.0, 1.0])
        cost, plan = two_marginal_w2_exact(mu, nu)
        assert cost == pytest.approx(9.0, abs=1e-12)
        assert plan[0, 1] == pytest.approx(1.0)

    def test_two_point_exact_quarter(self):
        mu, nu = self.measures_on([0.0, 1.0], [0.5, 0.5], [0.25, 0.75])
        cost, _ = two_marginal_w2_exact(mu, nu)
        assert cost == pytest.approx(0.25, abs=1e-12)

    def test_exact_1d_matches_lp_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            vals_a = np.sort(rng.uniform(0, 1, 6))
            vals_b = np.sort(rng.uniform(0, 1, 5))
            wa = rng.random(6) + 0.01
            wa /= wa.sum()
            wb = rng.random(5) + 0.01
            wb /= wb.sum()
            mu = DiscreteMeasure(grid_1d(vals_a), wa)
            nu = DiscreteMeasure(grid_1d(vals_b), wb)
            cost, _ = two_marginal_w2_exact(mu, nu)
            ref, _ = oracles.transport_lp((vals_a[:, None] - vals_b[None, :]) ** 2, wa, wb)
            assert cost == pytest.approx(ref, rel=1e-10, abs=1e-12)

    @staticmethod
    @st.composite
    def unsorted_1d_measure(draw):
        """A measure on 1-8 distinct unsorted points in [-5, 5]; zero weights allowed, never all zero.

        The LP oracle (HiGHS) meets its constraints and optimality to its 1e-10 tolerances, not
        exactly. So the points lie on a 1/8 lattice, where every cost, and so every reduced cost
        the simplex checks, is a multiple of 1/64. Positive weights are drawn at 1e-3 or more;
        normalization takes them down to 1e-3 / 21.001 = 4.8e-5 at the least."""
        points = np.array(draw(st.lists(st.integers(-40, 40), min_size=1, max_size=8, unique=True))) / 8
        weights = np.array(draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 1.0, 3.0]) | st.floats(1e-3, 1.0),
                                         min_size=len(points), max_size=len(points))))
        if weights.sum() <= 0:
            weights[draw(st.integers(0, len(points) - 1))] = 1.0
        return DiscreteMeasure(grid_1d(points), weights / weights.sum())

    @settings(max_examples=150, deadline=None)
    @given(unsorted_1d_measure(), unsorted_1d_measure())
    # at HiGHS's default 1e-7 tolerances an LP accepts a plan entry of -5.7e-8 here, and a cost
    # 1.8e-9 below the exact 0.01561446596514135
    @example(*(DiscreteMeasure(grid_1d(np.arange(6) / 8), np.array(w) / sum(w))
               for w in ([0.0, 0.1, 0.1, 3.0, 1.0, 1e-3], [0.1, 0.1, 3.0, 1.0, 1e-3, 1e-3])))
    def test_exact_1d_plan_is_an_optimal_coupling(self, mu, nu):
        cost, plan = two_marginal_w2_exact(mu, nu)
        x, y = mu.grid.points[:, 0], nu.grid.points[:, 0]
        ref, _ = oracles.transport_lp((x[:, None] - y[None, :]) ** 2, mu.weights, nu.weights)
        assert cost == pytest.approx(ref, rel=1e-10, abs=1e-12)
        assert plan.min() >= 0
        np.testing.assert_allclose(plan.sum(axis=1), mu.weights, rtol=0, atol=1e-12)
        np.testing.assert_allclose(plan.sum(axis=0), nu.weights, rtol=0, atol=1e-12)
        assert float(np.sum(plan * (x[:, None] - y[None, :]) ** 2)) == pytest.approx(cost, rel=1e-12, abs=1e-15)

    def test_exact_2d_small_support(self):
        rng = np.random.default_rng(13)
        pa = rng.uniform(0, 1, (5, 2))
        pb = rng.uniform(0, 1, (4, 2))
        wa = rng.random(5)
        wa /= wa.sum()
        wb = rng.random(4)
        wb /= wb.sum()
        mu = DiscreteMeasure(SupportGrid(pa), wa)
        nu = DiscreteMeasure(SupportGrid(pb), wb)
        cost, _ = two_marginal_w2_exact(mu, nu)
        ref, _ = oracles.transport_lp(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(-1), wa, wb)
        assert cost == pytest.approx(ref, rel=1e-10)

    def test_exact_lp_keeps_a_mass_below_the_default_tolerance(self):
        # HiGHS's default feasibility tolerance (1e-7) drops the 6e-8, and the cost with it
        mu = DiscreteMeasure(SupportGrid(np.array([[0.0, 0.0]])), np.array([1.0]))
        nu = DiscreteMeasure(SupportGrid(np.array([[0.0, 0.0], [1.0, 0.0]])), np.array([1.0 - 6e-8, 6e-8]))
        cost, plan = two_marginal_w2_exact(mu, nu)
        assert cost == pytest.approx(6e-8, rel=1e-6)
        np.testing.assert_allclose(plan.sum(axis=0), nu.weights, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_costs_that_overflow_are_rejected(self, dim):
        def pair(scale):
            pad = [[0.0] * (dim - 1)] * 2
            return DiscreteMeasure(SupportGrid(np.hstack([[[scale], [-scale]], pad])), np.array([0.5, 0.5]))

        mu, nu = pair(1e160), pair(2e160)
        with pytest.raises(ValueError, match="coordinate scale too large"):
            two_marginal_w2_exact(mu, nu)
        with pytest.raises(ValueError, match="coordinate scale too large"):
            two_marginal_w2(mu, nu, 0.1)
        with pytest.raises(ValueError, match="coordinate scale too large"):
            two_marginal_w2(pair(1e149), pair(2e149), 1e-3)  # finite costs, but cost / epsilon passes 1e300

    def test_exact_lp_failure_is_solver_error(self):
        with pytest.raises(SolverError, match="exact transport LP failed") as info:
            exact_transport_lp(np.array([0.5, 0.5]), np.array([0.3, 0.3]), np.ones((2, 2)))
        assert isinstance(info.value, RuntimeError)  # the type wm_distance's callers catch

    @staticmethod
    def _random_measure(rng, n, d, zeros):
        weights = rng.random(n) + 0.05
        if zeros:
            weights[rng.random(n) < 0.4] = 0.0
            weights[rng.integers(n)] += 0.1
        return DiscreteMeasure(SupportGrid(rng.random((n, d))), weights / weights.sum())

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        m=st.integers(1, 40),
        d=st.integers(1, 3),
        zeros=st.tuples(st.booleans(), st.booleans()),
        epsilon=st.floats(np.log(0.02), 0.0).map(np.exp),
    )
    def test_entropic_matches_the_two_marginal_loop(self, seed, n, m, d, zeros, epsilon):
        # the engine's two-leaf star against the loop it replaced: both plans meet their
        # marginals to tol, so they agree to a small multiple of it, and the objectives,
        # <c, plan> with c at most d on [0, 1]^d, to d times that
        tol = 1e-10
        rng = np.random.default_rng(seed)
        mu, nu = (self._random_measure(rng, k, d, z) for k, z in zip((n, m), zeros))
        cost, plan = two_marginal_w2(mu, nu, epsilon, tol=tol)
        ref_cost, ref_plan = oracles.two_marginal_sinkhorn(mu, nu, epsilon, tol=tol)
        assert plan.shape == (n, m) and plan.min() >= 0
        assert np.abs(plan.sum(axis=1) - mu.weights).sum() <= tol
        assert np.abs(plan.sum(axis=0) - nu.weights).sum() <= tol
        assert np.abs(plan - ref_plan).sum() <= 100 * tol
        assert abs(cost - ref_cost) <= 100 * tol * d

    def test_kernels_past_memory_are_rejected_before_allocation(self, monkeypatch):
        # 200,000 points a side on a machine of 64 GiB: the star's logs and exponentials
        # would take 1.3 TB; the check runs before any (n, m) array, or any array of
        # n * m / 1000 floats, exists
        import os

        rng = np.random.default_rng(15)
        n = 200_000
        mu, nu = (DiscreteMeasure(SupportGrid(rng.random((n, 2))), np.full(n, 1 / n)) for _ in range(2))
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**36 // 4096}.__getitem__)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"two-marginal kernels need 1192\.1 GiB, more than this machine's 64\.0 GiB"):
                two_marginal_w2(mu, nu, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 1000

    def test_star_is_built_over_the_smaller_support(self):
        # 3,000 points against 5: the star runs over the 5, so the solve's arrays stay a
        # small multiple of one (n, m) array in either argument order (a star over the
        # 3,000 would hold (2, 3000, 3000) arrays, 600 such), and swapping the arguments
        # transposes the plan and leaves the cost as it is
        rng = np.random.default_rng(16)
        n, m = 3000, 5
        mu = DiscreteMeasure(SupportGrid(rng.random((n, 2))), np.full(n, 1 / n))
        nu = DiscreteMeasure(SupportGrid(rng.random((m, 2))), np.full(m, 1 / m))
        results = []
        for a, b in ((mu, nu), (nu, mu)):
            tracemalloc.start()
            try:
                results.append(two_marginal_w2(a, b, 0.1))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 20 * n * m * 8
        (cost, plan), (cost_t, plan_t) = results
        assert plan.shape == (n, m) and cost == cost_t
        np.testing.assert_array_equal(plan, plan_t.T)
        assert np.abs(plan.sum(axis=1) - mu.weights).sum() <= 1e-9
        assert np.abs(plan.sum(axis=0) - nu.weights).sum() <= 1e-9

    def test_entropic_upper_bounds_exact(self):
        mu, nu = self.measures_on([0.0, 0.5, 1.0], [0.5, 0.25, 0.25], [0.2, 0.2, 0.6])
        exact, _ = two_marginal_w2_exact(mu, nu)
        ent, _ = two_marginal_w2(mu, nu, 0.05, tol=1e-11)
        assert ent >= exact - 1e-10

    def test_entropic_symmetric_in_arguments(self):
        mu, nu = self.measures_on([0.0, 0.4, 1.0], [0.6, 0.1, 0.3], [0.2, 0.5, 0.3])
        ab, _ = two_marginal_w2(mu, nu, 0.1, tol=1e-11)
        ba, _ = two_marginal_w2(nu, mu, 0.1, tol=1e-11)
        assert ab == pytest.approx(ba, rel=1e-9)
