"""Mixture metric and mixture-curve regression against brute-force oracles."""

import numpy as np
import pytest

from wasscurve.gaussian_regression import gaussian_geodesic, w2_gaussian, w2_gaussian_squared_table
from wasscurve.gmm_regression import (
    AtomSet,
    _stacked,
    discretized_mixture_w2,
    fit_mixture_curve,
    geodesic_cost_table,
    mixture_marginal_at,
    wm_distance,
)
from wasscurve.measures import GaussianMeasure, GaussianMixture
from wasscurve.mm_sinkhorn import ParamCoupling

import oracles


def toy_atoms():
    means = [-3.0, -1.0, 1.0, 3.0]
    stds = [0.40, 0.50, 0.45, 0.55]
    return AtomSet.from_atoms([GaussianMeasure.from_std_1d(m, s) for m, s in zip(means, stds)])


def toy_snapshots():
    return [
        (0.1, 0.25, np.array([0.70, 0.20, 0.07, 0.03])),
        (1.0 / 3.0, 0.25, np.array([0.45, 0.30, 0.15, 0.10])),
        (2.0 / 3.0, 0.25, np.array([0.10, 0.15, 0.30, 0.45])),
        (0.9, 0.25, np.array([0.03, 0.07, 0.20, 0.70])),
    ]


def random_spd_atoms(rng, k, d):
    atoms = []
    for _ in range(k):
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        cov = (q * rng.uniform(0.2, 2.0, d)) @ q.T
        atoms.append(GaussianMeasure(rng.normal(size=d), (cov + cov.T) / 2))
    return atoms


def squared_w2_table(atoms_a, atoms_b):
    """The squared Gaussian-W2 table between two atom lists, as wm_distance forms it."""
    return w2_gaussian_squared_table(*_stacked(atoms_a), *_stacked(atoms_b))


def assert_matches_loop(batched, loop, scale):
    """rtol 1e-12; entries that are zero up to rounding (the loop's value is
    itself rounding there) get atol 1e-14 times the size of the covariances."""
    np.testing.assert_allclose(batched, loop, rtol=1e-12, atol=1e-14 * scale)


class TestBatchedCostTables:
    """The batched closed forms against the per-pair loops they replaced (tests/oracles.py)."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_geodesic_cost_table_matches_loop(self, d, seed):
        rng = np.random.default_rng(seed)
        atoms = AtomSet.from_atoms(random_spd_atoms(rng, 4, d))
        timestamps = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 4)), [1.0]])
        scale = max(np.trace(a.covariance) for a in atoms.atoms)
        assert_matches_loop(geodesic_cost_table(atoms, timestamps), oracles.geodesic_cost_table(atoms, timestamps), scale)

    def test_pairwise_w2_matches_closed_form(self):
        atoms = toy_atoms().atoms
        table = np.sqrt(squared_w2_table(atoms, atoms))
        for i in range(4):
            for j in range(4):
                assert table[i, j] == pytest.approx(w2_gaussian(atoms[i], atoms[j]), abs=1e-9)
        assert np.all(np.diag(table) == 0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_pairwise_w2_matches_loop(self, d):
        rng = np.random.default_rng(10 + d)
        a, b = random_spd_atoms(rng, 5, d), random_spd_atoms(rng, 3, d)
        scale = max(np.trace(x.covariance) for x in a + b)
        assert_matches_loop(squared_w2_table(a, b), oracles.pairwise_w2_matrix(a, b) ** 2, scale)
        # on the diagonal of an atom set with itself the loop's distance is the square root of rounding
        same = squared_w2_table(a, a)
        assert_matches_loop(same, oracles.pairwise_w2_matrix(a, a) ** 2, scale)
        assert np.abs(np.diag(same)).max() <= 1e-14 * scale

    def test_wm_distance_uses_the_same_table(self):
        rng = np.random.default_rng(5)
        mu = GaussianMixture(tuple(random_spd_atoms(rng, 3, 2)), np.array([0.2, 0.3, 0.5]))
        nu = GaussianMixture(tuple(random_spd_atoms(rng, 4, 2)), np.array([0.1, 0.4, 0.3, 0.2]))
        cost = oracles.pairwise_w2_matrix(mu.atoms, nu.atoms) ** 2
        expected, _ = oracles.transport_lp(cost, mu.atom_weights, nu.atom_weights)
        value, _ = wm_distance(mu, nu)
        assert value**2 == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("d", [1, 2])
    def test_mixture_marginal_matches_per_pair_geodesics(self, d):
        rng = np.random.default_rng(20 + d)
        atoms = AtomSet.from_atoms(random_spd_atoms(rng, 3, d))
        w = rng.random((3, 3))
        w[0, 2] = w[2, 1] = 0.0
        coupling = ParamCoupling((atoms.index_grid,) * 2, w / w.sum())
        mixture = mixture_marginal_at(coupling, atoms, 0.35)
        pairs = [(j, l) for j in range(3) for l in range(3) if w[j, l] > 0]
        assert len(mixture.atoms) == len(pairs)
        for comp, (j, l) in zip(mixture.atoms, pairs):
            expected = gaussian_geodesic(atoms.atoms[j], atoms.atoms[l], 0.35, allow_commuting_fallback=True)
            np.testing.assert_allclose(comp.mean, expected.mean, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(comp.covariance, expected.covariance, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(mixture.atom_weights, coupling.weights[coupling.weights > 0] / coupling.weights.sum(), rtol=1e-15)

    def test_singular_commuting_pair(self):
        # a singular first covariance takes the commuting fallback of gaussian_geodesic
        atoms = AtomSet.from_atoms([
            GaussianMeasure(np.array([0.0, 1.0]), np.diag([1.0, 0.0])),
            GaussianMeasure(np.array([2.0, -1.0]), np.diag([0.5, 2.0])),
            GaussianMeasure(np.array([1.0, 0.0]), np.diag([0.0, 0.0])),
        ])
        timestamps = np.array([0.0, 0.3, 0.8, 1.0])
        assert_matches_loop(geodesic_cost_table(atoms, timestamps), oracles.geodesic_cost_table(atoms, timestamps), 2.5)

    def test_singular_non_commuting_pair_raises_as_the_loop(self):
        rot = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
        atoms = AtomSet.from_atoms([
            GaussianMeasure(np.zeros(2), np.diag([1.0, 0.0])),
            GaussianMeasure(np.ones(2), rot @ np.diag([2.0, 0.5]) @ rot.T),
        ])
        timestamps = np.array([0.0, 0.5, 1.0])
        with pytest.raises(ValueError, match="non-commuting") as loop_error:
            oracles.geodesic_cost_table(atoms, timestamps)
        with pytest.raises(ValueError, match="non-commuting") as batched_error:
            geodesic_cost_table(atoms, timestamps)
        assert str(batched_error.value) == str(loop_error.value)


class TestWmDistance:
    def test_identical_mixtures(self):
        atoms = toy_atoms()
        mix = atoms.mixture(np.array([0.4, 0.3, 0.2, 0.1]))
        value, _ = wm_distance(mix, mix)
        assert value == pytest.approx(0.0, abs=1e-7)

    def test_single_atom_mixtures_reduce_to_gaussian_w2(self):
        a = GaussianMeasure.from_std_1d(-1.0, 0.5)
        b = GaussianMeasure.from_std_1d(2.0, 1.5)
        value, plan = wm_distance(GaussianMixture((a,), [1.0]), GaussianMixture((b,), [1.0]))
        assert value == pytest.approx(w2_gaussian(a, b), abs=1e-9)
        assert plan[0, 0] == pytest.approx(1.0)

    def test_two_atom_crossed_weights_exhaustive(self):
        a1, a2 = GaussianMeasure.from_std_1d(-2.0, 0.5), GaussianMeasure.from_std_1d(2.0, 0.5)
        mu = GaussianMixture((a1, a2), [0.8, 0.2])
        nu = GaussianMixture((a1, a2), [0.2, 0.8])
        value, _ = wm_distance(mu, nu)
        # feasible couplings form a one-parameter family: w11 = s in [0, 0.2],
        # w12 = 0.8 - s, w21 = 0.2 - s, w22 = s; same-atom routes cost zero
        c11 = w2_gaussian(a1, a1) ** 2
        c22 = w2_gaussian(a2, a2) ** 2
        c12 = w2_gaussian(a1, a2) ** 2
        best = min(
            s * c11 + (0.8 - s) * c12 + (0.2 - s) * c12 + s * c22
            for s in np.linspace(0.0, 0.2, 2001)
        )
        assert value**2 == pytest.approx(best, abs=1e-9)

    def test_metric_axioms_on_seeded_triples(self):
        atoms = toy_atoms()
        rng = np.random.default_rng(40)
        for _ in range(30):
            ws = rng.random((3, 4)) + 0.02
            ws /= ws.sum(axis=1, keepdims=True)
            mixes = [atoms.mixture(w) for w in ws]
            d01, _ = wm_distance(mixes[0], mixes[1])
            d10, _ = wm_distance(mixes[1], mixes[0])
            d12, _ = wm_distance(mixes[1], mixes[2])
            d02, _ = wm_distance(mixes[0], mixes[2])
            assert d01 == pytest.approx(d10, abs=1e-12)
            assert d02 <= d01 + d12 + 1e-9

    def test_w2_lower_bounds_wm(self):
        atoms = toy_atoms()
        rng = np.random.default_rng(41)
        for _ in range(5):
            wa = rng.random(4) + 0.02
            wa /= wa.sum()
            wb = rng.random(4) + 0.02
            wb /= wb.sum()
            mu, nu = atoms.mixture(wa), atoms.mixture(wb)
            wm, _ = wm_distance(mu, nu)
            w2 = np.sqrt(discretized_mixture_w2(mu, nu))
            assert w2 <= wm + 1e-6

    def test_w2_strictly_below_wm_for_crossing_mixtures(self):
        a1, a2 = GaussianMeasure.from_std_1d(-2.0, 0.8), GaussianMeasure.from_std_1d(2.0, 0.8)
        mu = GaussianMixture((a1, a2), [0.8, 0.2])
        nu = GaussianMixture((a1, a2), [0.2, 0.8])
        wm, _ = wm_distance(mu, nu)
        w2 = np.sqrt(discretized_mixture_w2(mu, nu))
        assert w2 < wm * 0.999


class TestFitMixtureCurve:
    def test_stationary_data_diagonal_coupling(self):
        atoms = toy_atoms()
        w = np.array([0.4, 0.3, 0.2, 0.1])
        data = [(t, 1 / 3, w) for t in (0.1, 0.5, 0.9)]
        result = fit_mixture_curve(data, atoms, epsilon=1e-3, tol=1e-10)
        assert result.objective == pytest.approx(0.0, abs=1e-6)
        np.testing.assert_allclose(np.diag(result.coupling.weights), w, atol=1e-6)
        off_diag = result.coupling.weights - np.diag(np.diag(result.coupling.weights))
        assert off_diag.sum() <= 1e-6

    def test_matches_brute_force_lp_small_instance(self):
        atoms = AtomSet.from_atoms(
            [GaussianMeasure.from_std_1d(-1.0, 0.5), GaussianMeasure.from_std_1d(1.5, 0.8)]
        )
        data = [
            (0.0, 1 / 3, np.array([0.9, 0.1])),
            (0.5, 1 / 3, np.array([0.5, 0.5])),
            (1.0, 1 / 3, np.array([0.2, 0.8])),
        ]
        timestamps = np.array([r[0] for r in data])
        lambdas = np.array([r[1] for r in data])
        targets = np.stack([r[2] for r in data])
        costs = geodesic_cost_table(atoms, timestamps)
        lp, _ = oracles.multimarginal_lp(costs, lambdas, targets)  # 2^(2+3) = 32 entries
        result = fit_mixture_curve(data, atoms, epsilon=2e-4, tol=1e-10)
        assert result.objective == pytest.approx(lp, rel=1e-3, abs=1e-9)
        assert result.objective >= lp - 1e-10

    def test_marginal_constraints_met(self):
        atoms = toy_atoms()
        result = fit_mixture_curve(toy_snapshots(), atoms, epsilon=0.05, tol=1e-8, max_iter=30000)
        assert result.converged
        assert result.residual <= 1e-8

    def test_drifting_data_beats_stationary_fit(self):
        atoms = toy_atoms()
        snapshots = toy_snapshots()
        result = fit_mixture_curve(snapshots, atoms, epsilon=0.05, tol=1e-9, max_iter=30000)
        timestamps = np.array([r[0] for r in snapshots])
        lambdas = np.array([r[1] for r in snapshots])
        targets = np.stack([r[2] for r in snapshots])
        costs = geodesic_cost_table(atoms, timestamps)
        # best stationary fit: restrict the coupling to the diagonal (sigma0 == sigma1)
        k = len(atoms)
        diag_idx = [j * k + j for j in range(k)]
        diag_costs = costs[:, diag_idx, :]
        stationary_lp, _ = oracles.multimarginal_lp(diag_costs, lambdas, targets)
        assert result.objective < stationary_lp

    def test_toy_fit_over_relaxes(self, monkeypatch):
        # the benchmark's mixture toy at epsilon 0.07: plain sweeps contract
        # at a ratio near 0.99 and take 1,800 sweeps; accelerated ones reach
        # tol in under 100
        import wasscurve.mm_sinkhorn as engine

        atoms = toy_atoms()
        accelerated = fit_mixture_curve(toy_snapshots(), atoms, epsilon=0.07, tol=1e-8, max_iter=30000)
        monkeypatch.setattr(engine, "_SLOW_RATIO", np.inf)  # no residual ratio counts as slow
        plain = fit_mixture_curve(toy_snapshots(), atoms, epsilon=0.07, tol=1e-8, max_iter=30000)
        assert accelerated.converged and plain.converged
        assert plain.state.accelerated == plain.state.acceleration_reverts == 0
        assert accelerated.state.accelerated > 0
        assert accelerated.iterations <= 100 < plain.iterations / 3
        assert accelerated.objective == pytest.approx(plain.objective, rel=1e-6)
        np.testing.assert_allclose(accelerated.coupling.weights, plain.coupling.weights, rtol=1e-5, atol=1e-9)

    def test_needs_three_snapshots(self):
        atoms = toy_atoms()
        with pytest.raises(ValueError, match="3 snapshots"):
            fit_mixture_curve(toy_snapshots()[:2], atoms)


class TestMixtureMarginalAt:
    def test_endpoints_collapse_onto_atoms(self):
        atoms = toy_atoms()
        w = np.array(
            [
                [0.1, 0.2, 0.0, 0.0],
                [0.0, 0.3, 0.1, 0.0],
                [0.0, 0.0, 0.2, 0.0],
                [0.0, 0.0, 0.0, 0.1],
            ]
        )
        coupling = ParamCoupling((atoms.index_grid,) * 2, w)
        at0 = mixture_marginal_at(coupling, atoms, 0.0)
        np.testing.assert_allclose(at0.atom_weights, w.sum(axis=1), atol=1e-12)
        at1 = mixture_marginal_at(coupling, atoms, 1.0)
        np.testing.assert_allclose(at1.atom_weights, w.sum(axis=0)[w.sum(axis=0) > 0], atol=1e-12)

    def test_diagonal_coupling_is_stationary(self):
        atoms = toy_atoms()
        w = np.diag([0.4, 0.3, 0.2, 0.1])
        coupling = ParamCoupling((atoms.index_grid,) * 2, w)
        for t in (0.0, 0.33, 0.77, 1.0):
            mix = mixture_marginal_at(coupling, atoms, t)
            np.testing.assert_allclose(sorted(m.mean[0] for m in mix.atoms), [-3.0, -1.0, 1.0, 3.0], atol=1e-9)
            np.testing.assert_allclose(np.sort(mix.atom_weights), [0.1, 0.2, 0.3, 0.4], atol=1e-12)

    def test_zero_weight_components_dropped(self):
        atoms = toy_atoms()
        w = np.zeros((4, 4))
        w[0, 3] = 1.0
        mix = mixture_marginal_at(ParamCoupling((atoms.index_grid,) * 2, w), atoms, 0.5)
        assert len(mix.atoms) == 1
        assert mix.atom_weights[0] == pytest.approx(1.0)

    def test_weights_always_renormalized(self):
        atoms = toy_atoms()
        rng = np.random.default_rng(42)
        w = rng.random((4, 4))
        w /= w.sum()
        mix = mixture_marginal_at(ParamCoupling((atoms.index_grid,) * 2, w), atoms, 0.4)
        assert mix.atom_weights.sum() == pytest.approx(1.0, abs=1e-12)
