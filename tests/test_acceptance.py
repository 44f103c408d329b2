"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Two target values are measurably out of reach for the constructions they
describe; the corresponding assertions are kept faithful rather than
loosened, so those two tests fail by design:

* the ">= 5%" geodesic margin of criterion 5: on the stated dataset the
  linear-curve optimum provably equals the geodesic residual. The reachable
  standard-deviation curves sigma(t) = ||(1 - t) u + t v|| are convex in t
  while the data's sigma(t) is concave, so the best member of the family is
  the affine one, which is exactly the best-fit geodesic (confirmed here by
  an independent parametric minimization agreeing to 15 digits);
* the 0.8 stationary-mass floor of criterion 8: with kernels
  exp(-lambda_i c_i / eps) at the pinned eps = 0.05 the per-snapshot blur has
  standard deviation sqrt(eps / (2 lambda)) ~ 0.39 on a unit domain, capping
  the statistic near 0.08; even in the exact-LP limit the spread of the
  fitted line endpoints (std ~ 0.054, under half inside the five boxes)
  bounds it near 0.27.
"""

import time
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

import wasscurve as wc
from wasscurve.curve_regression import SolverConfig, euclidean_regression_oracle, fit
from wasscurve.gaussian_regression import (
    fit_gaussian_sdp,
    gaussian_1d_parametric_oracle,
    gaussian_geodesic,
    w2_gaussian,
    w2_gaussian_squared,
)
from wasscurve.gmm_regression import (
    AtomSet,
    fit_mixture_curve,
    geodesic_cost_table,
    wm_distance,
)
from wasscurve.kernels import build_kernels, kernels_from_costs, param_tuple_stack
from wasscurve.measures import DiscreteMeasure, GaussianMeasure, SnapshotDataset, SupportGrid
from wasscurve.mm_sinkhorn import (
    FactoredCoupling,
    _log_factor_sums,
    benchmark_sweep_seconds,
    extract_param_coupling,
)
from wasscurve.two_marginal import two_marginal_w2_exact
from wasscurve.pfo_estimation import (
    BoxPartition,
    arcsine_box_masses,
    estimate_transition,
    logistic_map,
    mass_near,
    snapshots_from_map,
    stationary_distribution,
)

import oracles


@contextmanager
def criterion(number, label, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number} ({label}): FAIL ({elapsed:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} ({label}): PASS ({elapsed:.1f}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded its {budget_seconds}s budget"


def grid_1d(values):
    return SupportGrid(np.asarray(values, dtype=float)[:, None])


# ---------------------------------------------------------------------- 1


def test_criterion_1_dirac_consistency():
    with criterion(1, "Dirac consistency", 5.0):
        # residuals 0.125 * (1, -1, 0, -1, 1) are weighted-orthogonal to the
        # design at these timestamps, so the least-squares fit is the base
        # line (0.25 -> 0.75) and both fit parameters sit on the grid
        ts = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        line = 0.25 * (1 - ts) + 0.75 * ts
        values = line + 0.125 * np.array([1.0, -1.0, 0.0, -1.0, 1.0])
        grid = grid_1d(sorted(set(values) | {0.25, 0.75}))
        pts = grid.points[:, 0]
        measures = []
        for v in values:
            w = np.zeros(len(grid))
            w[int(np.argmin(np.abs(pts - v)))] = 1.0
            measures.append(DiscreteMeasure(grid, w))
        ds = SnapshotDataset(ts, tuple(measures), np.full(5, 0.2))

        params, ls_residual = euclidean_regression_oracle(
            [(t, v, 0.2) for t, v in zip(ts, values)], wc.LINEAR
        )
        np.testing.assert_allclose(params.ravel(), [0.25, 0.75], atol=1e-12)
        for p in params.ravel():  # the oracle solution lies inside the parameter grid
            assert np.abs(pts - p).min() <= 1e-12

        probe = build_kernels(ds, wc.LINEAR, (grid, grid), 1.0)
        costs = np.stack([probe.cost(i) for i in range(5)])
        lp_value, _ = oracles.multimarginal_lp(costs, ds.lambdas, ds.target_matrix())
        assert lp_value == pytest.approx(ls_residual, abs=1e-9)

        cost_scale = costs.max()
        result = fit(ds, wc.LINEAR, SolverConfig(epsilon=1e-3 * cost_scale, tol=1e-9, max_iter=20000))
        assert result.objective == pytest.approx(ls_residual, rel=0.05)
        np.testing.assert_allclose(result.coupling.mode().ravel(), [0.25, 0.75], atol=1e-12)


# ---------------------------------------------------------------------- 2


def test_criterion_2_oracle_equivalence():
    with criterion(2, "factored vs dense tensor", 10.0):
        shapes = [(2, 2), (3, 2), (2, 3), (3, 3)]
        for trial in range(20):
            rng = np.random.default_rng(1000 + trial)
            n_snap = int(rng.integers(1, 4))
            nx = int(rng.integers(2, 5))
            pshape = shapes[trial % len(shapes)]
            grids = tuple(grid_1d(np.sort(rng.uniform(0, 1, k))) for k in pshape)
            costs = rng.uniform(0, 2, (n_snap, pshape[0] * pshape[1], nx))
            lams = rng.uniform(0.2, 1.0, n_snap)
            lams /= lams.sum()
            kernels = kernels_from_costs(costs, lams, float(rng.uniform(0.1, 1.0)), grids)
            log_a = rng.normal(0, 1, (n_snap, nx))
            state = FactoredCoupling(kernels, log_a, True, 0, 0.0, np.array([]), 0.0, False, _log_factor_sums(kernels.log_kernels, log_a))
            gamma = oracles.dense_coupling_tensor(kernels, log_a)
            for j in range(n_snap):
                np.testing.assert_allclose(
                    oracles.project_marginal(state, j), oracles.dense_marginal(gamma, j), rtol=1e-10
                )
            np.testing.assert_allclose(
                extract_param_coupling(state).weights,
                oracles.dense_param_marginal(gamma).reshape(pshape),
                rtol=1e-10,
            )


# ---------------------------------------------------------------------- 3


def _scaling_instance(n_snap, nx):
    rng = np.random.default_rng(7)
    grid = grid_1d(np.linspace(0.0, 1.0, nx))
    rows = rng.random((n_snap, nx)) + 0.05
    rows /= rows.sum(axis=1, keepdims=True)
    measures = tuple(DiscreteMeasure(grid, w) for w in rows)
    ds = SnapshotDataset(np.linspace(0, 1, n_snap), measures, np.full(n_snap, 1 / n_snap))
    return build_kernels(ds, wc.LINEAR, (grid, grid), 0.1), ds.target_matrix()


def test_criterion_3_complexity_scaling():
    with criterion(3, "per-sweep cost scaling", 60.0):
        try:
            from threadpoolctl import threadpool_limits
        except ImportError:
            threadpool_limits = None
        # scoped, so the one-thread BLAS limit does not outlive this test
        with threadpool_limits(1) if threadpool_limits else nullcontext():
            t_n4 = benchmark_sweep_seconds(*_scaling_instance(4, 20), n_sweeps=200, repeats=7)
            t_n8 = benchmark_sweep_seconds(*_scaling_instance(8, 20), n_sweeps=200, repeats=7)
            ratio_n = t_n8 / t_n4
            t_x20 = benchmark_sweep_seconds(*_scaling_instance(4, 20), n_sweeps=200, repeats=7)
            t_x40 = benchmark_sweep_seconds(*_scaling_instance(4, 40), n_sweeps=100, repeats=7)
            ratio_x = t_x40 / t_x20
        print(f"  sweep time ratios: N 4->8 = {ratio_n:.2f}, |X| 20->40 = {ratio_x:.2f}")
        assert 1.6 <= ratio_n <= 2.5
        assert 4.0 <= ratio_x <= 16.0


# ---------------------------------------------------------------------- 4


def test_criterion_4_gaussian_closed_forms():
    with criterion(4, "Gaussian closed forms", 30.0):
        cases = [((0.0, 1.0), (0.5, 1.5)), ((-1.0, 0.7), (1.0, 1.2)), ((0.0, 1.0), (0.0, 2.0))]
        for (m0, s0), (m1, s1) in cases:
            lo = min(m0 - 5 * s0, m1 - 5 * s1)
            hi = max(m0 + 5 * s0, m1 + 5 * s1)
            grid = grid_1d(np.linspace(lo, hi, 200))
            mu = DiscreteMeasure(grid, oracles.gaussian_pdf_measure(grid.points, m0, s0))
            nu = DiscreteMeasure(grid, oracles.gaussian_pdf_measure(grid.points, m1, s1))
            lp_cost, _ = two_marginal_w2_exact(mu, nu)
            closed = w2_gaussian_squared(
                GaussianMeasure.from_std_1d(m0, s0), GaussianMeasure.from_std_1d(m1, s1)
            )
            assert closed == pytest.approx(lp_cost, rel=0.02)

        a = GaussianMeasure(np.array([0.0]), np.array([[1.0]]))
        b = GaussianMeasure(np.array([2.0]), np.array([[4.0]]))
        total = w2_gaussian(a, b)
        times = np.linspace(0.1, 0.9, 9)
        for s in times:
            for t in times:
                if s < t:
                    step = w2_gaussian(gaussian_geodesic(a, b, s), gaussian_geodesic(a, b, t))
                    assert step == pytest.approx((t - s) * total, abs=1e-6)


# ---------------------------------------------------------------------- 5


def _ou_setup():
    ts = np.linspace(0.1, 1.0, 20)
    sig2 = 2.0 * (1.0 - np.exp(-2.0 * ts))
    lam = np.full(20, 1.0 / 20.0)
    data = [(t, l, np.array([[v]])) for t, l, v in zip(ts, lam, sig2)]
    sigmas = [(t, l, float(np.sqrt(v))) for t, l, v in zip(ts, lam, sig2)]
    return data, sigmas


def test_criterion_5_ou_ordering():
    with criterion(5, "OU ordering quad <= lin <= geodesic", 120.0):
        data, sigmas = _ou_setup()
        # the stopping rule is relative; tol 1e-9 brings the absolute
        # residuals of both programs under the required 1e-7
        lin_blocks, _ = fit_gaussian_sdp(data, wc.LINEAR, tol=1e-9, max_iter=200000)
        quad_blocks, _ = fit_gaussian_sdp(data, wc.QUADRATIC, tol=1e-9, max_iter=200000)
        _, geo_residual = gaussian_1d_parametric_oracle(sigmas)
        for blocks in (lin_blocks, quad_blocks):
            assert blocks.diagnostics.primal_residual <= 1e-7
            assert blocks.diagnostics.dual_residual <= 1e-7
        lin = lin_blocks.diagnostics.objective
        quad = quad_blocks.diagnostics.objective
        print(f"  objectives: quad={quad:.6f} lin={lin:.6f} geodesic={geo_residual:.6f}")
        assert quad <= lin
        assert lin <= geo_residual + 1e-7  # equality case: slack covers solver noise


def test_criterion_5_geodesic_margin_expected_unattainable():
    # Faithful to the stated ">= 5%" margin. On this dataset the linear SDP
    # optimum mathematically equals the geodesic residual (see the module
    # docstring), so this assertion cannot pass.
    with criterion(5, "OU geodesic margin >= 5%", 120.0):
        data, sigmas = _ou_setup()
        lin_blocks, _ = fit_gaussian_sdp(data, wc.LINEAR, tol=1e-8)
        _, geo_residual = gaussian_1d_parametric_oracle(sigmas)
        lin = lin_blocks.diagnostics.objective
        assert geo_residual >= 1.05 * lin, (
            f"geodesic residual {geo_residual:.8f} is not 5% above the linear SDP "
            f"objective {lin:.8f}; the two optima coincide on this dataset "
            "(see the module docstring)"
        )


# ---------------------------------------------------------------------- 6


def _toy_atoms():
    means = [-3.0, -1.0, 1.0, 3.0]
    stds = [0.40, 0.50, 0.45, 0.55]
    return AtomSet.from_atoms([GaussianMeasure.from_std_1d(m, s) for m, s in zip(means, stds)])


def test_criterion_6_wm_metric_suite():
    with criterion(6, "mixture metric axioms", 60.0):
        atoms = _toy_atoms()
        rng = np.random.default_rng(60)
        for _ in range(100):
            ws = rng.random((3, 4)) + 0.02
            ws /= ws.sum(axis=1, keepdims=True)
            mixes = [atoms.mixture(w) for w in ws]
            d01, _ = wm_distance(mixes[0], mixes[1])
            d10, _ = wm_distance(mixes[1], mixes[0])
            d12, _ = wm_distance(mixes[1], mixes[2])
            d02, _ = wm_distance(mixes[0], mixes[2])
            assert d01 == pytest.approx(d10, abs=1e-12)
            assert d02 <= d01 + d12 + 1e-9

        a1 = GaussianMeasure.from_std_1d(-2.0, 0.8)
        a2 = GaussianMeasure.from_std_1d(2.0, 0.8)
        mu = wc.GaussianMixture((a1, a2), [0.8, 0.2])
        nu = wc.GaussianMixture((a1, a2), [0.2, 0.8])
        wm, _ = wm_distance(mu, nu)
        w2 = float(np.sqrt(oracles.discretized_mixture_w2(mu, nu, n_points=400)))
        print(f"  crossing mixtures: W2={w2:.4f} < WM={wm:.4f}")
        assert w2 <= wm + 1e-9
        assert w2 < wm - 1e-3  # strict for crossing mixtures


# ---------------------------------------------------------------------- 7


def test_criterion_7_gmm_regression_feasibility():
    with criterion(7, "mixture regression feasibility", 60.0):
        atoms = _toy_atoms()
        snapshots = [
            (0.1, 0.25, np.array([0.70, 0.20, 0.07, 0.03])),
            (1.0 / 3.0, 0.25, np.array([0.45, 0.30, 0.15, 0.10])),
            (2.0 / 3.0, 0.25, np.array([0.10, 0.15, 0.30, 0.45])),
            (0.9, 0.25, np.array([0.03, 0.07, 0.20, 0.70])),
        ]
        result = fit_mixture_curve(snapshots, atoms, epsilon=0.05, tol=1e-6, max_iter=30000)
        for j in range(4):
            gap = np.abs(oracles.project_marginal(result.state, j) - snapshots[j][2]).sum()
            assert gap <= 1e-6

        timestamps = np.array([r[0] for r in snapshots])
        lambdas = np.array([r[1] for r in snapshots])
        targets = np.stack([r[2] for r in snapshots])
        costs = geodesic_cost_table(atoms, timestamps)
        k = len(atoms)
        diag_costs = costs[:, [j * k + j for j in range(k)], :]
        stationary_lp, _ = oracles.multimarginal_lp(diag_costs, lambdas, targets)
        print(f"  objective {result.objective:.4f} < best stationary fit {stationary_lp:.4f}")
        assert result.objective < stationary_lp


# ---------------------------------------------------------------------- 8


def _r3_mass(n_snapshots, epsilon, boxes=100, seed=0):
    part = BoxPartition(0.0, 1.0, boxes)
    ds = snapshots_from_map(lambda x: logistic_map(x, 3.0), 1000, n_snapshots, part, seed=seed)
    tm = estimate_transition(ds, SolverConfig(epsilon=epsilon, tol=1e-8))
    st = stationary_distribution(tm)
    return mass_near(st.vector, part, 2.0 / 3.0, 5)


def test_criterion_8_logistic_r3_trends():
    with criterion(8, "logistic r=3 trends", 300.0):
        by_n = [_r3_mass(n, 0.05) for n in (3, 6, 9)]
        by_eps = [_r3_mass(6, e) for e in (0.2, 0.1, 0.03)]
        print(f"  5-box mass by N: {[round(v, 4) for v in by_n]}; by eps: {[round(v, 4) for v in by_eps]}")
        assert all(a <= b + 1e-12 for a, b in zip(by_n, by_n[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(by_eps, by_eps[1:]))


def test_criterion_8_logistic_r3_mass_floor_expected_unattainable():
    # Faithful to the stated floor. At the pinned epsilon = 0.05 the entropic
    # blur alone caps the statistic near 0.08, and even the exact-LP limit
    # tops out near 0.27 (see the module docstring).
    with criterion(8, "logistic r=3 mass floor 0.8", 300.0):
        mass = _r3_mass(6, 0.05)
        assert mass >= 0.8, (
            f"stationary mass near 2/3 is {mass:.4f} < 0.8 at the pinned "
            "epsilon; the construction cannot reach the stated floor "
            "(see the module docstring)"
        )


# ---------------------------------------------------------------------- 9


def test_criterion_9_logistic_r4_arcsine():
    with criterion(9, "logistic r=4 arcsine match", 120.0):
        part = BoxPartition(0.0, 1.0, 50)
        ds = snapshots_from_map(lambda x: logistic_map(x, 4.0), 1000, 5, part, seed=0)
        # epsilon left free by the criterion; 0.01 keeps the coupling sharp
        tm = estimate_transition(ds, SolverConfig(epsilon=0.01, tol=1e-8))
        st = stationary_distribution(tm)
        reference = arcsine_box_masses(part)
        l1 = float(np.abs(st.vector - reference).sum())
        v = st.vector
        print(f"  L1 to arcsine = {l1:.4f}; endpoints ({v[0]:.4f}, {v[-1]:.4f}) vs center {v[25]:.4f}")
        assert l1 <= 0.35
        assert v[0] > v[25] and v[-1] > v[25]  # U shape


# ---------------------------------------------------------------------- 10


def test_criterion_10_time_scaling():
    with criterion(10, "time-scaling invariance", 10.0):
        grid = grid_1d([0.0, 0.5, 1.0])
        rows = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.1, 0.3, 0.6]])
        lambdas = np.full(3, 1.0 / 3.0)
        base = np.array([0.0, 0.5, 1.0])
        support = grid.points[:, 0]
        for horizon in (2.0, 10.0):
            raw_ts = np.array([0.0, 0.4, 1.0]) * horizon

            stack = param_tuple_stack((grid_1d(base), grid_1d(base)))[:, :, 0]
            scaled_costs = np.empty((3, stack.shape[0], 3))
            for i, t in enumerate(raw_ts):
                phi = (horizon - t) * stack[:, 0] + t * stack[:, 1]
                scaled_costs[i] = (phi[:, None] - support[None, :]) ** 2

            measures = tuple(DiscreteMeasure(grid, w) for w in rows)
            ds = SnapshotDataset(raw_ts / horizon, measures, lambdas)
            kernels = build_kernels(ds, wc.LINEAR, (grid_1d(base * horizon),) * 2, 1.0)
            norm_costs = np.stack([kernels.cost(i) for i in range(3)])

            v_scaled, _ = oracles.multimarginal_lp(scaled_costs, lambdas, rows)
            v_norm, _ = oracles.multimarginal_lp(norm_costs, lambdas, rows)
            assert v_scaled == pytest.approx(v_norm, abs=1e-9)
