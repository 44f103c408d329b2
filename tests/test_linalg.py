"""Symmetric-matrix kernel contracts: PSD projection, and square roots over stacks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from wasscurve.linalg import _as_symmetric, inv_sqrtm_pd_stack, project_psd, sqrtm_psd_stack


def random_psd(rng, n):
    g = rng.standard_normal((n, n))
    return g.T @ g


class TestSqrtmPsd:
    """sqrtm_psd_stack on single matrices and on stacks of them."""

    def test_diagonal(self):
        np.testing.assert_allclose(sqrtm_psd_stack(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_identity(self):
        np.testing.assert_allclose(sqrtm_psd_stack(np.eye(3)), np.eye(3), atol=1e-14)

    def test_hand_square(self):
        # [[2,1],[1,2]] squared is [[5,4],[4,5]]; diag(4, 9) and [[5,4],[4,5]] as one stack
        b = sqrtm_psd_stack(np.array([[[5.0, 4.0], [4.0, 5.0]], [[4.0, 0.0], [0.0, 9.0]]]))
        np.testing.assert_allclose(b, [[[2.0, 1.0], [1.0, 2.0]], [[2.0, 0.0], [0.0, 3.0]]], atol=1e-10)

    def test_square_recovers_input(self):
        rng = np.random.default_rng(5)
        for n in (2, 4, 8):
            a = np.stack([random_psd(rng, n) for _ in range(3)])
            b = sqrtm_psd_stack(a)
            for a_i, b_i in zip(a, b):
                assert np.linalg.norm(b_i @ b_i - a_i) <= 1e-8 * np.linalg.norm(a_i)
                assert np.linalg.eigvalsh(b_i).min() >= -1e-12

    def test_rejects_negative_definite(self):
        with pytest.raises(ValueError, match="positive semi-definite"):
            sqrtm_psd_stack(np.diag([1.0, -0.5]))
        with pytest.raises(ValueError, match="positive semi-definite"):
            sqrtm_psd_stack(np.stack([np.eye(2), np.diag([1.0, -0.5])]))


class TestProjectPsd:
    def test_diagonal_clip(self):
        np.testing.assert_allclose(project_psd(np.diag([1.0, -2.0])), np.diag([1.0, 0.0]), atol=1e-14)

    def test_identity_on_the_cone(self):
        rng = np.random.default_rng(6)
        a = random_psd(rng, 3)
        np.testing.assert_allclose(project_psd(a), a, atol=1e-12)

    def test_offdiagonal_case(self):
        # eigenvalues +-1; clipping the negative one leaves the constant matrix
        out = project_psd(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = random_psd(rng, 4) - 1.5 * np.eye(4)
            once = project_psd(a)
            twice = project_psd(once)
            np.testing.assert_allclose(once, twice, atol=1e-12)

    def test_frobenius_nearest(self):
        # projection is never farther than any hand-constructed PSD candidate
        a = np.array([[1.0, 2.0], [2.0, -3.0]])
        proj = project_psd(a)
        rng = np.random.default_rng(8)
        for _ in range(50):
            cand = random_psd(rng, 2)
            assert np.linalg.norm(proj - a) <= np.linalg.norm(cand - a) + 1e-12


class TestInvSqrtmPd:
    """inv_sqrtm_pd_stack on single matrices and on stacks of them."""

    def test_inverse_square_root(self):
        rng = np.random.default_rng(9)
        a = np.stack([random_psd(rng, 3) + 0.5 * np.eye(3) for _ in range(3)])
        b = inv_sqrtm_pd_stack(a)
        for a_i, b_i in zip(a, b):
            np.testing.assert_allclose(b_i @ a_i @ b_i, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(inv_sqrtm_pd_stack(np.diag([4.0, 0.25])), np.diag([0.5, 2.0]), atol=1e-14)

    def test_rejects_singular(self):
        with pytest.raises(ValueError, match="singular"):
            inv_sqrtm_pd_stack(np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match="singular"):
            inv_sqrtm_pd_stack(np.stack([np.eye(2), np.diag([1.0, 0.0])]))


def _symmetric_matrices(bound):
    """Bitwise-symmetric matrices: the upper triangle mirrored bit for bit, signed zeros and subnormals included,
    entries within +-bound."""
    entry = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), st.floats(-bound, bound))
    return st.integers(1, 6).flatmap(lambda n: st.lists(entry, min_size=n * n, max_size=n * n).map(
        lambda values: np.array(values).reshape(n, n))).map(lambda a: np.where(np.triu(np.ones(a.shape, bool)), a, a.T))


class TestSymmetryCheck:
    """Bitwise-symmetric input skips validation and symmetrization; anything else still gets both."""

    @settings(max_examples=200, deadline=None)
    @given(_symmetric_matrices(1e300))  # m + m.T overflows only above 8.9e307
    def test_symmetric_input_is_returned_as_its_symmetrization(self, m):
        assert _as_symmetric(m).tobytes() == ((m + m.T) / 2).tobytes()

    @settings(max_examples=50, deadline=None)
    @given(_symmetric_matrices(1e6))  # eigh stops converging on wider spreads of magnitude
    def test_projection_matches_the_validating_one(self, m):
        assert project_psd(m).tobytes() == oracles._project_psd_reference(m).tobytes()

    @pytest.mark.parametrize("scale", [1.0, 1e6])  # relative to the largest entry, or to 1 below it
    def test_asymmetry_above_the_tolerance_raises(self, scale):
        m = np.array([[2.0, 1.0], [1.0 + 1e-11, 3.0]]) * scale
        with pytest.raises(ValueError, match="not symmetric"):
            project_psd(m)

    def test_empty_matrix_raises(self):
        with pytest.raises(ValueError):
            project_psd(np.zeros((0, 0)))

    @pytest.mark.parametrize("low, up", [(1.0, np.nextafter(1.0, 2.0)), (0.0, -0.0), (-0.0, 0.0)])
    def test_asymmetry_within_the_tolerance_is_symmetrized(self, low, up):
        m = np.array([[2.0, up], [low, 3.0]])
        out = _as_symmetric(m)
        assert out.tobytes() == ((m + m.T) / 2).tobytes()
        assert out.tobytes() == out.T.tobytes()
        assert out is not m

    @pytest.mark.parametrize("m", [np.diag([1.0, 2.0]), np.diag([1.0, -2.0]), np.array([[1.0, 0.0], [-0.0, 1.0]])])
    def test_projection_never_returns_its_input(self, m):
        before = m.copy()
        out = project_psd(m)
        out[0, 0] = 99.0
        np.testing.assert_array_equal(m, before)
