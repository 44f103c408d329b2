"""Data-model invariants: grids, measures, datasets, quantization."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from wasscurve.measures import (
    DiscreteMeasure,
    GaussianMeasure,
    GaussianMixture,
    SnapshotDataset,
    SupportGrid,
    measure_from_samples,
    nearest_index,
    quantize_to_grid,
    sorted_unique,
)


def uniform_measure(grid):
    return DiscreteMeasure(grid, np.full(len(grid), 1.0 / len(grid)))


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, np.nan]), min_size=1, max_size=40),
    columns=st.integers(0, 3),
)
def test_sorted_unique_matches_np_unique(values, columns):
    """The same values as np.unique, and for rows the same bits: of rows equal
    up to the sign of a zero, the same one (the grid a loader builds)."""
    a = np.array(values)
    if columns == 0:
        np.testing.assert_array_equal(sorted_unique(a), np.unique(a))
    else:
        rows = a[: len(a) // columns * columns].reshape(-1, columns)
        got, ref = sorted_unique(rows, axis=0), np.unique(rows, axis=0)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


class TestSupportGrid:
    def test_rejects_duplicate_points(self):
        with pytest.raises(ValueError, match="distinct"):
            SupportGrid(np.array([[0.0], [0.0], [1.0]]))

    def test_dim_and_len(self):
        g = SupportGrid(np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert g.dim == 2 and len(g) == 2

    def test_1d_input_promoted(self):
        g = SupportGrid(np.array([0.0, 0.5, 1.0]))
        assert g.points.shape == (3, 1)

    def test_points_read_only(self):
        g = SupportGrid(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            g.points[0] = 7.0

    def test_tensor_grid_order(self):
        x, y = np.array([0.0, 0.5, 1.0]), np.array([-1.0, 2.0])
        np.testing.assert_array_equal(SupportGrid.tensor([x]).points, x[:, None])
        expected = [[a, b] for a in x for b in y]  # the last axis varies fastest
        np.testing.assert_array_equal(SupportGrid.tensor([x, y]).points, expected)


class TestDiscreteMeasure:
    def test_rejects_negative_weights(self):
        g = SupportGrid(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="nonnegative"):
            DiscreteMeasure(g, np.array([1.5, -0.5]))

    def test_rejects_unnormalized(self):
        g = SupportGrid(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match=r"^weights must sum to 1 \(got 1\.2\)$"):  # a plain float, not numpy's repr
            DiscreteMeasure(g, np.array([0.6, 0.6]))

    def test_accepts_weights_within_tolerance(self):
        g = SupportGrid(np.array([0.0, 1.0]))
        m = DiscreteMeasure(g, np.array([0.5, 0.5 + 5e-13]))
        assert m.weights.sum() == pytest.approx(1.0, abs=1e-12)


class TestSnapshotDataset:
    def test_sorts_and_defaults_uniform_lambda(self):
        g = SupportGrid(np.array([0.0, 1.0]))
        ds = SnapshotDataset.from_snapshots(
            [(0.5, uniform_measure(g)), (0.0, uniform_measure(g)), (1.0, uniform_measure(g))]
        )
        assert np.all(np.diff(ds.timestamps) > 0)
        np.testing.assert_allclose(ds.lambdas, 1.0 / 3.0)

    def test_rejects_duplicate_timestamps(self):
        g = SupportGrid(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="strictly increasing"):
            SnapshotDataset.from_snapshots([(0.5, uniform_measure(g)), (0.5, uniform_measure(g))])

    def test_rejects_mixed_grids(self):
        g1 = SupportGrid(np.array([0.0, 1.0]))
        g2 = SupportGrid(np.array([0.0, 2.0]))
        with pytest.raises(ValueError, match="share one support grid"):
            SnapshotDataset.from_snapshots([(0.0, uniform_measure(g1)), (1.0, uniform_measure(g2))])


class TestNormalizeTimestamps:
    """``from_snapshots`` divides the sorted times by the last one when it is
    positive; the constructor holds every dataset to [0, 1]."""

    @settings(max_examples=200, deadline=None)
    @given(
        times=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=8, unique=True),
        outside=st.one_of(st.floats(max_value=-5e-324), st.floats(min_value=1.0 + 2e-12)),
    )
    @example(times=[0.0], outside=-1.0)  # all at 0: nothing to divide by
    @example(times=[0.5, 0.0, 1.0], outside=2.0)  # unsorted, already ends at 1
    @example(times=[0.75, 0.25], outside=1.5)  # the last time below 1
    def test_divides_by_the_last_time(self, times, outside):
        g = SupportGrid(np.array([0.0, 1.0]))
        ts = np.sort(np.array(times))
        expected = ts / ts[-1] if ts[-1] > 0 else ts
        snapshots = [(t, uniform_measure(g)) for t in times]
        if np.any(np.diff(expected) <= 0):  # the division rounded two times together
            with pytest.raises(ValueError, match="strictly increasing"):
                SnapshotDataset.from_snapshots(snapshots)
        else:
            assert SnapshotDataset.from_snapshots(snapshots).timestamps.tobytes() == expected.tobytes()
        bound = "lower bound 0" if outside < 0 else "upper bound 1"
        with pytest.raises(ValueError, match=bound):
            SnapshotDataset(np.array([outside]), (uniform_measure(g),), np.array([1.0]))

    def test_divides_by_horizon(self):
        g = SupportGrid(np.array([0.0, 1.0]))
        ds = SnapshotDataset.from_snapshots([(1.0, uniform_measure(g)), (2.0, uniform_measure(g)), (4.0, uniform_measure(g))])
        np.testing.assert_array_equal(ds.timestamps, [0.25, 0.5, 1.0])

    def test_identity_when_already_unit(self):
        g = SupportGrid(np.array([0.0, 1.0]))
        ds = SnapshotDataset.from_snapshots([(0.0, uniform_measure(g)), (1.0, uniform_measure(g))])
        np.testing.assert_array_equal(ds.timestamps, [0.0, 1.0])

    def test_twenty_equal_steps_unchanged(self):
        # snapshots from t=0.1 to t=1 in equal steps already end at 1
        g = SupportGrid(np.array([0.0, 1.0]))
        ts = np.linspace(0.1, 1.0, 20)
        ds = SnapshotDataset.from_snapshots([(t, uniform_measure(g)) for t in ts])
        np.testing.assert_array_equal(ds.timestamps, ts)

    def test_idempotent(self):
        g = SupportGrid(np.array([0.0, 1.0]))
        once = SnapshotDataset.from_snapshots([(1.0, uniform_measure(g)), (3.0, uniform_measure(g))])
        twice = SnapshotDataset.from_snapshots(zip(once.timestamps, once.measures))
        np.testing.assert_array_equal(once.timestamps, twice.timestamps)


class TestMeasureFromSamples:
    def test_nearest_point_assignment(self):
        grid = SupportGrid(np.array([0.25, 0.75]))
        m = measure_from_samples(np.array([0.1, 0.9]), grid)
        np.testing.assert_allclose(m.weights, [0.5, 0.5])

    def test_single_sample_is_dirac(self):
        grid = SupportGrid(np.array([0.0, 0.5, 1.0]))
        m = measure_from_samples(np.array([0.5]), grid)
        np.testing.assert_array_equal(m.weights, [0.0, 1.0, 0.0])

    def test_tie_breaks_to_lowest_index(self):
        grid = SupportGrid(np.array([0.0, 1.0]))
        m = measure_from_samples(np.array([0.5]), grid)  # equidistant
        np.testing.assert_array_equal(m.weights, [1.0, 0.0])

    def test_empty_samples_rejected(self):
        grid = SupportGrid(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="at least one sample"):
            measure_from_samples(np.array([]), grid)

    def test_uniform_law_of_large_numbers(self):
        # seeded check: 1000 uniform samples over 50 cells stay near 1/50 each
        rng = np.random.default_rng(7)
        samples = rng.uniform(0.0, 1.0, size=1000)
        grid = SupportGrid(np.linspace(0.01, 0.99, 50))
        m = measure_from_samples(samples, grid)
        assert np.all(m.weights <= 0.04)
        assert m.weights.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_chunks_match_one_pass(self, dim):
        # thousands of points span many chunks; ties on grid midpoints included
        rng = np.random.default_rng(dim)
        axis = np.linspace(0.0, 1.0, 7)
        grid = SupportGrid(np.stack([m.ravel() for m in np.meshgrid(*[axis] * dim, indexing="ij")], axis=1))
        pts = np.concatenate([rng.uniform(-0.2, 1.2, size=(3000, dim)), np.full((50, dim), 0.5 / 6)])
        masses = rng.random(len(pts))
        d2 = ((pts[:, None, :] - grid.points[None, :, :]) ** 2).sum(axis=2)
        expected = np.zeros(len(grid))
        np.add.at(expected, np.argmin(d2, axis=1), masses)
        np.testing.assert_array_equal(quantize_to_grid(pts, masses, grid), expected)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_grid=st.integers(1, 9),
        layout=st.sampled_from(["uniform", "lattice", "offset", "tiny"]),
        n_points=st.integers(0, 60),
    )
    def test_sorted_search_matches_the_scan(self, seed, n_grid, layout, n_points):
        # 1-D grids in shuffled order; points on grid points, on midpoints (ties),
        # outside the range, repeated, and far enough away (1e17) that rounding
        # collapses three or more distances into one; masses include zeros
        rng = np.random.default_rng(seed)
        if layout == "uniform":
            axis = rng.uniform(-1.0, 1.0, n_grid)
        elif layout == "lattice":
            axis = rng.choice(np.arange(-8, 9) * 0.25, n_grid, replace=False)
        elif layout == "offset":
            axis = 1e17 + rng.choice(np.arange(-8, 9) * 16.0, n_grid, replace=False)  # 16 is one ulp of 1e17
        else:
            axis = rng.choice(np.arange(-8, 9) * 1e-170, n_grid, replace=False)  # squares underflow to 0
        grid = SupportGrid(axis)
        far = np.array([1e17, -1e17, 1e17 + 16.0, 3e17, 0.0])
        pool = np.concatenate([axis, (axis[:, None] + axis[None, :]).ravel() / 2, rng.uniform(-3.0, 3.0, 8) * np.ptp(axis) + axis.mean(), far])
        pts = rng.choice(pool, n_points)
        masses = rng.random(n_points) * (rng.random(n_points) < 0.8)
        np.testing.assert_array_equal(quantize_to_grid(pts, masses, grid), oracles.quantize_to_grid(pts, masses, grid))
        d2 = (pts[:, None] - axis[None, :]) ** 2
        np.testing.assert_array_equal(nearest_index(pts, grid), np.argmin(d2, axis=1) if n_points else np.empty(0, int))

    def test_collapsed_distances_go_to_the_lowest_index(self):
        # near 1e17 every distance to a unit grid rounds to the same float
        grid = SupportGrid(np.array([3.0, 1.0, 0.0, 2.0]))
        assert (1e17 - 3.0) ** 2 == (1e17 - 0.0) ** 2
        np.testing.assert_array_equal(nearest_index(np.array([1e17, -1e17]), grid), [0, 0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_points_rejected(self, bad):
        grid = SupportGrid(np.linspace(0.0, 1.0, 5))
        with pytest.raises(ValueError, match="finite"):
            quantize_to_grid(np.array([0.5, bad]), np.ones(2), grid)
        with pytest.raises(ValueError, match="finite"):
            measure_from_samples(np.array([bad]), grid)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariant(self, pyrandom):
        rng = np.random.default_rng(pyrandom.randrange(2**32))
        samples = rng.uniform(-1, 1, size=40)
        grid = SupportGrid(np.linspace(-1, 1, 9))
        perm = rng.permutation(40)
        a = measure_from_samples(samples, grid)
        b = measure_from_samples(samples[perm], grid)
        np.testing.assert_allclose(a.weights, b.weights)


class TestGaussianTypes:
    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianMeasure(np.zeros(2), np.array([[1.0, 0.5], [0.1, 1.0]]))

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(ValueError, match="semi-definite"):
            GaussianMeasure(np.zeros(2), np.array([[1.0, 0.0], [0.0, -0.5]]))

    def test_accepts_tiny_negative_eigenvalue(self):
        c = np.array([[1.0, 0.0], [0.0, -1e-12]])
        g = GaussianMeasure(np.zeros(2), c)
        assert g.dim == 2

    def test_mixture_weights_validated(self):
        a = GaussianMeasure.from_std_1d(0.0, 1.0)
        with pytest.raises(ValueError, match="sum to 1"):
            GaussianMixture((a,), np.array([0.5]))

    def test_mixture_pdf_integrates_to_one(self):
        mix = GaussianMixture(
            (GaussianMeasure.from_std_1d(-1.0, 0.5), GaussianMeasure.from_std_1d(1.0, 0.5)),
            np.array([0.3, 0.7]),
        )
        x = np.linspace(-6, 6, 2001)
        total = np.trapezoid(mix.pdf_1d(x), x)
        assert total == pytest.approx(1.0, abs=1e-6)
