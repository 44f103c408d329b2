"""Dense symmetric-matrix kernels: PSD projection, and PSD square roots over stacks.

``project_psd`` validates its square input's symmetry to 1e-12 relative;
bitwise-symmetric input (every ADMM step's) passes as it is. Past ``eigh``
it does a few small array operations, so a call costs little more than the ``eigh``.
The ``*_stack`` routines, over stacks (..., d, d), symmetrize rather than
validate. Backed by LAPACK via numpy.linalg.eigh, which is unconditionally
stable for symmetric input at the matrix orders used here (a few hundred at
most).
"""

import numpy as np

SYM_TOL = 1e-12
PSD_EIG_TOL = 1e-10


def _as_symmetric(a: np.ndarray) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError("expected a non-empty square matrix")
    if m.tobytes() == m.T.tobytes():  # bitwise symmetric, signed zeros included: (m + m.T) / 2 would be m
        return m
    scale = max(np.abs(m).max(), 1.0)
    if np.abs(m - m.T).max() > SYM_TOL * scale:
        raise ValueError("matrix is not symmetric")
    return (m + m.T) / 2


def project_psd(a: np.ndarray) -> np.ndarray:
    """Frobenius-nearest PSD matrix: clip negative eigenvalues at zero.

    Subtracts the negative eigenpairs from the symmetrized input, which costs
    one product over those pairs only, and symmetrizes the difference. The
    result is a new array, never ``a``.
    """
    m = _as_symmetric(a)
    w, v = np.linalg.eigh(m)  # ascending: the negative eigenvalues come first
    if w[0] >= 0:
        return m.copy()  # m may be the caller's own array
    n_neg = int(w.searchsorted(0.0))
    v_neg = v[:, :n_neg]
    out = (v_neg * w[:n_neg]) @ v_neg.T
    np.subtract(m, out, out=out)
    out = out + out.T
    out *= 0.5  # bitwise (out + out.T) / 2
    return out


def _symmetrized(a: np.ndarray) -> np.ndarray:
    return (a + np.swapaxes(a, -1, -2)) / 2


def _from_eig(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    return _symmetrized((v * w[..., None, :]) @ np.swapaxes(v, -1, -2))


def sqrtm_psd_stack(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root B, B @ B = A, of every matrix A of a stack. Eigenvalues
    within -1e-10 * lambda_max of zero are clipped to zero; lower ones are rejected."""
    w, v = np.linalg.eigh(_symmetrized(a))
    if np.any(w[..., 0] < -PSD_EIG_TOL * np.maximum(w[..., -1], 0.0) - 1e-300):
        raise ValueError("matrix is not positive semi-definite")
    return _from_eig(v, np.sqrt(np.clip(w, 0.0, None)))


def inv_sqrtm_pd_stack(a: np.ndarray) -> np.ndarray:
    """Inverse symmetric square root of every matrix of a stack; each must be
    positive definite, with its smallest eigenvalue above 1e-10 * lambda_max."""
    w, v = np.linalg.eigh(_symmetrized(a))
    if np.any(w[..., 0] <= PSD_EIG_TOL * np.maximum(w[..., -1], 1e-300)):
        raise ValueError("matrix is singular or nearly so; inverse square root undefined")
    return _from_eig(v, 1.0 / np.sqrt(w))


def project_psd_stack(a: np.ndarray) -> np.ndarray:
    """``project_psd`` of every matrix of a stack, without its validation."""
    m = _symmetrized(a)
    w, v = np.linalg.eigh(m)
    return _symmetrized(m - (v * np.minimum(w, 0.0)[..., None, :]) @ np.swapaxes(v, -1, -2))
