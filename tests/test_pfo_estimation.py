"""Transition-matrix estimation, stationary vectors, and logistic-map pieces."""

import numpy as np
import pytest
from scipy.integrate import quad

from wasscurve.curve_regression import SolverConfig
from wasscurve.measures import DiscreteMeasure, SnapshotDataset, SupportGrid
from wasscurve.mm_sinkhorn import SolverError
from wasscurve.pfo_estimation import (
    BoxPartition,
    TransitionMatrix,
    arcsine_box_masses,
    arcsine_cdf,
    arcsine_density,
    estimate_transition,
    iterate_map_particles,
    logistic_map,
    mass_near,
    snapshots_from_map,
    stationary_distribution,
)


class TestBoxPartition:
    def test_centers_at_midpoints(self):
        part = BoxPartition(0.0, 1.0, 4)
        np.testing.assert_allclose(part.centers.points[:, 0], [0.125, 0.375, 0.625, 0.875])

    def test_boxes_cover_domain(self):
        part = BoxPartition(-1.0, 3.0, 8)
        assert part.edges[0] == -1.0 and part.edges[-1] == 3.0
        assert len(part.centers) == 8


class TestLogisticMap:
    def test_fixed_point(self):
        assert logistic_map(2.0 / 3.0, 3.0) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_peak_value(self):
        assert logistic_map(0.5, 4.0) == pytest.approx(1.0)

    def test_boundary_zeros(self):
        for r in (0.0, 1.7, 4.0):
            assert logistic_map(0.0, r) == 0.0
            assert logistic_map(1.0, r) == 0.0

    def test_domain_checks(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            logistic_map(1.5, 3.0)
        with pytest.raises(ValueError, match="\\[0, 4\\]"):
            logistic_map(0.5, 5.0)

    def test_vectorized(self):
        x = np.array([0.1, 0.5, 0.9])
        np.testing.assert_allclose(logistic_map(x, 2.0), 2.0 * x * (1 - x))


class TestArcsine:
    def test_value_at_half(self):
        assert arcsine_density(0.5) == pytest.approx(2.0 / np.pi, abs=1e-12)

    def test_symmetry(self):
        x = np.linspace(0.01, 0.99, 99)
        np.testing.assert_allclose(arcsine_density(x), arcsine_density(1.0 - x), atol=1e-12)

    def test_integrates_to_one(self):
        total, err = quad(arcsine_density, 1e-12, 1.0 - 1e-12, points=[0.5])
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            arcsine_density(0.0)
        with pytest.raises(ValueError):
            arcsine_cdf(1.5)

    def test_cdf_closed_form_box_mass(self):
        # mass of [0, 0.02] from the closed-form distribution function
        assert arcsine_cdf(0.02) == pytest.approx(0.0903, abs=5e-5)

    def test_box_masses_sum_to_one(self):
        part = BoxPartition(0.0, 1.0, 50)
        masses = arcsine_box_masses(part)
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)
        assert masses[0] > masses[25]  # U shape


class TestSnapshotsFromMap:
    def test_identity_map_constant_snapshots(self):
        part = BoxPartition(0.0, 1.0, 10)
        ds = snapshots_from_map(lambda x: x, 500, 4, part, seed=1)
        for m in ds.measures[1:]:
            np.testing.assert_array_equal(m.weights, ds.measures[0].weights)

    def test_constant_map_gives_diracs(self):
        part = BoxPartition(0.0, 1.0, 10)
        ds = snapshots_from_map(lambda x: np.full_like(x, 0.43), 200, 3, part, seed=2)
        for m in ds.measures[1:]:
            assert m.weights[4] == pytest.approx(1.0)  # the box [0.4, 0.5)

    def test_logistic_r4_mass_concentrates_near_top_after_one_step(self):
        part = BoxPartition(0.0, 1.0, 50)
        ds = snapshots_from_map(lambda x: logistic_map(x, 4.0), 1000, 2, part, seed=0)
        top_box = ds.measures[1].weights[-1]  # box [0.98, 1]
        assert top_box > 1.0 / 50.0  # images pile up near 1

    def test_timestamps_follow_snapshot_index(self):
        part = BoxPartition(0.0, 1.0, 5)
        ds = snapshots_from_map(lambda x: x, 50, 5, part, seed=3)
        np.testing.assert_allclose(ds.timestamps, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_seeded_and_deterministic(self):
        part = BoxPartition(0.0, 1.0, 10)
        a = snapshots_from_map(lambda x: logistic_map(x, 3.5), 300, 3, part, seed=9)
        b = snapshots_from_map(lambda x: logistic_map(x, 3.5), 300, 3, part, seed=9)
        for ma, mb in zip(a.measures, b.measures):
            np.testing.assert_array_equal(ma.weights, mb.weights)

    def test_out_of_domain_clamped_with_warning(self, caplog):
        part = BoxPartition(0.0, 1.0, 4)
        import logging

        with caplog.at_level(logging.WARNING, logger="wasscurve.pfo_estimation"):
            ds = snapshots_from_map(lambda x: x + 2.0, 100, 2, part, seed=0)
        assert "clamped" in caplog.text
        assert ds.measures[1].weights[-1] == pytest.approx(1.0)

    def test_needs_two_snapshots(self):
        part = BoxPartition(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="two snapshots"):
            snapshots_from_map(lambda x: x, 10, 1, part)


class TestEstimateTransition:
    def test_identity_map_diagonal_dominant(self):
        # epsilon must sit below the quantization cost of one-box-apart lines
        # (~lambda * (half box width)^2) for the diagonal to dominate
        part = BoxPartition(0.0, 1.0, 10)
        ds = snapshots_from_map(lambda x: x, 1000, 3, part, seed=0)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # slow small-epsilon convergence
            tm = estimate_transition(ds, SolverConfig(epsilon=1e-5, tol=1e-8, max_iter=2000))
        live = tm.source_marginal > 0
        argmax = np.argmax(tm.Q, axis=1)
        assert np.all(argmax[live] == np.arange(10)[live])

    def test_rows_sum_to_one(self):
        part = BoxPartition(0.0, 1.0, 15)
        ds = snapshots_from_map(lambda x: logistic_map(x, 3.0), 500, 4, part, seed=0)
        tm = estimate_transition(ds, SolverConfig(epsilon=0.05))
        np.testing.assert_allclose(tm.Q.sum(axis=1), 1.0, atol=1e-10)

    def test_requires_three_snapshots(self):
        part = BoxPartition(0.0, 1.0, 4)
        ds = snapshots_from_map(lambda x: x, 100, 2, part, seed=0)
        with pytest.raises(ValueError, match="3 snapshots"):
            estimate_transition(ds)

    def test_mass_swap_not_representable_by_lines(self):
        grid = SupportGrid(np.array([0.25, 0.75])[:, None])
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        measures = tuple(DiscreteMeasure(grid, w) for w in rows)
        ds = SnapshotDataset(np.array([0.0, 0.5, 1.0]), measures, np.full(3, 1 / 3))
        tm = estimate_transition(ds, SolverConfig(epsilon=0.01))
        assert tm.fit.objective > 0.01  # any line misses the middle swap

    def test_zero_mass_rows_become_uniform(self):
        # constant map leaves upper boxes unvisited at t=1
        part = BoxPartition(0.0, 1.0, 6)
        ds = snapshots_from_map(lambda x: np.full_like(x, 0.1), 300, 3, part, seed=1)
        tm = estimate_transition(ds, SolverConfig(epsilon=1e-3))
        zero_rows = tm.source_marginal <= 0
        if zero_rows.any():
            np.testing.assert_allclose(tm.Q[zero_rows], 1.0 / 6.0, atol=1e-12)


class TestStationaryDistribution:
    def test_identity_matrix_uniform_start(self):
        tm = TransitionMatrix(np.eye(3), np.full(3, 1 / 3))
        res = stationary_distribution(tm)
        np.testing.assert_allclose(res.vector, 1 / 3, atol=1e-12)

    def test_periodic_swap_converges_from_its_uniform_fixed_point(self):
        tm = TransitionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.5, 0.5]))
        res = stationary_distribution(tm, tol=1e-12, max_iter=50)
        np.testing.assert_allclose(res.vector, [0.5, 0.5], atol=1e-9)
        assert res.iterations == 1

    def test_periodic_chain_with_nonuniform_fixed_point_raises(self):
        # period 2, stationary vector (1/4, 1/2, 1/4): power iteration oscillates
        q = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
        tm = TransitionMatrix(q, np.full(3, 1 / 3))
        with pytest.raises(SolverError, match="did not converge in 200 steps"):
            stationary_distribution(tm, max_iter=200)

    def test_absorbing_chain(self):
        tm = TransitionMatrix(np.array([[1.0, 0.0], [0.5, 0.5]]), np.array([0.5, 0.5]))
        res = stationary_distribution(tm, tol=1e-12)
        np.testing.assert_allclose(res.vector, [1.0, 0.0], atol=1e-10)

    def test_residual_contract(self):
        rng = np.random.default_rng(50)
        q = rng.random((6, 6)) + 0.05
        q /= q.sum(axis=1, keepdims=True)
        tm = TransitionMatrix(q, np.full(6, 1 / 6))
        res = stationary_distribution(tm, tol=1e-11)
        assert np.abs(res.vector @ q - res.vector).sum() <= 1e-11

    def test_rows_validated(self):
        with pytest.raises(ValueError, match="sum to 1"):
            TransitionMatrix(np.array([[0.5, 0.4], [0.5, 0.5]]), np.array([0.5, 0.5]))


class TestPipelineSmoke:
    def test_box_count_sensitivity_sweep_completes(self):
        # partition resolutions 30/100/200 all solve without failure
        for n in (30, 100, 200):
            part = BoxPartition(0.0, 1.0, n)
            ds = snapshots_from_map(lambda x: logistic_map(x, 3.0), 1000, 5, part, seed=0)
            tm = estimate_transition(ds, SolverConfig(epsilon=0.1, tol=1e-7))
            res = stationary_distribution(tm)
            assert res.vector.sum() == pytest.approx(1.0, abs=1e-9)

    def test_r3_small_pipeline_peaks_near_fixed_point(self):
        part = BoxPartition(0.0, 1.0, 50)
        ds = snapshots_from_map(lambda x: logistic_map(x, 3.0), 1000, 6, part, seed=0)
        tm = estimate_transition(ds, SolverConfig(epsilon=0.01, tol=1e-7))
        res = stationary_distribution(tm)
        peak = part.centers.points[np.argmax(res.vector), 0]
        assert abs(peak - 2.0 / 3.0) <= 0.1

    def test_iterate_map_particles_shape(self):
        out = iterate_map_particles(lambda x: x * 0.5, np.array([1.0, 2.0]), 3)
        np.testing.assert_allclose(out, [[1.0, 2.0], [0.5, 1.0], [0.25, 0.5]])

    def test_mass_near_selects_nearest_boxes(self):
        part = BoxPartition(0.0, 1.0, 10)
        v = np.zeros(10)
        v[6] = 0.7
        v[7] = 0.3
        assert mass_near(v, part, 0.65, 1) == pytest.approx(0.7)
        assert mass_near(v, part, 0.65, 3) == pytest.approx(1.0)
