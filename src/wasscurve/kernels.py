"""Gibbs kernel sets of the decoupled multi-marginal cost, and their exp-domain products.

The cost of a measure-valued-curve regression splits as a sum of per-snapshot
terms c_i(params, y_i), so one Gibbs kernel of shape (num parameter tuples,
|X|) per snapshot describes the whole coupling. Kernels are shifted per
snapshot so that their entries lie in (0, 1]. A CostKernelSet stores them
densely, in log space, as an (N, P, |X|) array. A line in one dimension has a
cost that is a sum of pairwise terms, so its FactoredKernelSet holds three
(n, n) factors per snapshot, O(N |X|^2) in all, whose product is the
kernel itself, and builds the dense logs only on first use. ``exp_operator()``
gives the two products a Sinkhorn sweep needs, phi_j = K_j^T w and
m_j = K_j a_j: bound ndarray.dot calls on the dense kernels' exponentials
(a second (N, P, |X|) array, held while a solve runs in the exp domain), or
two matrix products per snapshot on the factors.
"""

import math
import os
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .curves import CurveClass
from .measures import SnapshotDataset, SupportGrid, check_coordinate_scale, nearest_index


def param_tuple_stack(grids: Sequence[SupportGrid]) -> np.ndarray:
    """Enumerate the product of parameter grids in C order.

    Returns an array of shape (P, k, d) where P is the product of grid sizes;
    the first grid's index varies slowest.
    """
    shape = tuple(len(g) for g in grids)
    dims = {g.dim for g in grids}
    if len(dims) != 1:
        raise ValueError("parameter grids must share one dimension")
    idx = np.indices(shape).reshape(len(grids), -1)
    return np.stack([np.asarray(g.points)[idx[j]] for j, g in enumerate(grids)], axis=1)


class _KernelSet:
    """What the dense and the factored kernel sets share; both are frozen
    dataclasses with the fields shifts, epsilon, lambdas and parameter_grids.

    log_kernels[i, p, y] = -lambda_i * c_i(param tuple p, y) / epsilon + shift_i,
    with shift_i = lambda_i * min(c_i) / epsilon so that the largest entry of
    every kernel is exactly 1.
    """

    @property
    def n_snapshots(self) -> int:
        return self.shifts.shape[0]

    @property
    def param_shape(self) -> Tuple[int, ...]:
        return tuple(len(g) for g in self.parameter_grids)

    @cached_property
    def param_stack(self) -> np.ndarray:
        return param_tuple_stack(self.parameter_grids)


@dataclass(frozen=True, eq=False)
class CostKernelSet(_KernelSet):
    """Per-snapshot Gibbs kernels of the decoupled multi-marginal cost, as one
    dense (N, P, |X|) array of logs. The raw costs are recoverable from the logs.
    """

    log_kernels: np.ndarray  # (N, P, |X|)
    shifts: np.ndarray  # (N,)
    epsilon: float
    lambdas: np.ndarray  # (N,)
    parameter_grids: Tuple[SupportGrid, ...]

    def __post_init__(self):
        lk = np.asarray(self.log_kernels, dtype=float)
        if lk.ndim != 3:
            raise ValueError("log_kernels must have shape (N, P, |X|)")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if lk.shape[1] != int(np.prod(self.param_shape)):
            raise ValueError("kernel rows do not match the parameter grid product")
        object.__setattr__(self, "log_kernels", lk)
        object.__setattr__(self, "shifts", np.asarray(self.shifts, dtype=float))
        object.__setattr__(self, "lambdas", np.asarray(self.lambdas, dtype=float))
        object.__setattr__(self, "parameter_grids", tuple(self.parameter_grids))

    @property
    def n_support(self) -> int:
        return self.log_kernels.shape[2]

    def cost(self, i: int) -> np.ndarray:
        """Raw squared-distance cost array c_i of shape (P, |X|) for snapshot i."""
        return (self.shifts[i] - self.log_kernels[i]) * (self.epsilon / self.lambdas[i])

    def weighted_cost(self, i: int) -> np.ndarray:
        """lambda_i * c_i, the term snapshot i contributes to the transport objective; one (P, |X|) array.

        A forbidden pair (cost +inf) reads the largest float, so that it adds 0,
        not NaN, where the plan puts no mass on it.
        """
        out = np.subtract(self.shifts[i], self.log_kernels[i])
        out *= self.epsilon
        return np.minimum(out, np.finfo(float).max, out=out)

    def exp_operator(self) -> "_DenseExp":
        return _DenseExp(np.exp(self.log_kernels), self.weighted_cost)


@dataclass(frozen=True, eq=False)
class FactoredKernelSet(_KernelSet):
    """The kernels of a linear curve cost in one dimension, three (n, n) factors per snapshot.

    With curve coefficients c0, c1 >= 0, c0 + c1 = 1 the cost is a sum of pairwise terms,
    (c0 x0 + c1 x1 - y)^2 = c0 (x0 - y)^2 + c1 (x1 - y)^2 - c0 c1 (x0 - x1)^2,
    so the kernel of CostKernelSet (same shifts, largest entry 1) is
    K_i[(x0, x1), y] = a_i[x0, x1] * b_i[x0, y] * c_i[x1, y].
    b_i and c_i are shifted to a largest entry of exactly 1; a_i carries
    those shifts and the kernel's, so its entries may exceed 1, and may even
    overflow where every kernel entry is in range (a solve then leaves the
    exp domain on its first sweep). The factors are built from coordinate
    differences, so they do not depend on where the grids lie. Memory is
    O(N |X|^2); the dense ``log_kernels``, needed only once a solve leaves
    the exp domain, are built on first use, memory permitting.
    """

    factor_a: np.ndarray  # (N, n0, n1)
    factor_b: np.ndarray  # (N, n0, |X|)
    factor_c: np.ndarray  # (N, n1, |X|)
    curve: CurveClass
    timestamps: np.ndarray  # (N,)
    support: np.ndarray  # (|X|, 1)
    shifts: np.ndarray  # (N,)
    epsilon: float
    lambdas: np.ndarray  # (N,)
    parameter_grids: Tuple[SupportGrid, ...]

    @property
    def n_support(self) -> int:
        return self.support.shape[0]

    @cached_property
    def log_kernels(self) -> np.ndarray:
        """The dense (N, P, |X|) log kernels, as build_kernels' dense path makes them; a
        ValueError, before any allocation, when they exceed the machine's physical memory."""
        _check_memory(len(self.timestamps) * math.prod(self.param_shape) * self.n_support * 8, "the dense log kernels")
        costs = _curve_costs(self.curve, self.timestamps, self.param_stack, self.support)
        return _to_log_kernels(costs, self.lambdas / self.epsilon, self.shifts)

    def cost(self, i: int) -> np.ndarray:
        """Raw squared-distance cost array c_i of shape (P, |X|) for snapshot i."""
        return _sq_distances(self.curve.evaluate(self.param_stack, self.timestamps[i]), self.support)

    def weighted_cost(self, i: int) -> np.ndarray:
        """lambda_i * c_i, the term snapshot i contributes to the transport objective; one (P, |X|) array."""
        out = self.cost(i)
        out *= self.lambdas[i]
        return out

    def exp_operator(self) -> "_FactoredExp":
        return _FactoredExp(self)


KernelSet = Union[CostKernelSet, FactoredKernelSet]


def _rates(lambdas: np.ndarray, epsilon: float) -> np.ndarray:
    """lambda_i / epsilon, after checking both."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if np.any(lambdas <= 0):
        raise ValueError("snapshot weights must be positive")
    return lambdas / epsilon


def _to_log_kernels(costs: np.ndarray, rates: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """-rates_i * costs_i + shifts_i, written over ``costs`` (N, P, |X|)."""
    costs *= -rates[:, None, None]
    costs += shifts[:, None, None]
    return costs


def kernels_from_costs(
    costs: np.ndarray,
    lambdas: np.ndarray,
    epsilon: float,
    parameter_grids: Sequence[SupportGrid],
) -> CostKernelSet:
    """Build a kernel set from explicit per-snapshot cost arrays (N, P, |X|).

    A cost of +inf marks a forbidden pair: its kernel entry is 0, and it adds
    nothing to the objective.
    """
    return _kernels_in_place(np.array(costs, dtype=float), lambdas, epsilon, parameter_grids)


def _kernels_in_place(
    costs: np.ndarray,
    lambdas: np.ndarray,
    epsilon: float,
    parameter_grids: Sequence[SupportGrid],
) -> CostKernelSet:
    """Kernel set whose log kernels are ``costs`` (float, (N, P, |X|)), overwritten in place."""
    lambdas = np.asarray(lambdas, dtype=float)
    if costs.ndim != 3 or costs.shape[0] != lambdas.shape[0]:
        raise ValueError("costs must have shape (N, P, |X|) matching lambdas")
    rates = _rates(lambdas, epsilon)
    shifts = lambdas * costs.min(axis=(1, 2)) / epsilon
    return CostKernelSet(_to_log_kernels(costs, rates, shifts), shifts, float(epsilon), lambdas, tuple(parameter_grids))


def _sq_distances(x: np.ndarray, y: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Squared Euclidean distances between the rows of x (n, d) and y (m, d), shape (n, m).

    Written to ``out`` when given. Summed over the axes in order, as scipy's
    cdist "sqeuclidean" does, with one (n, m) temporary only when d > 1.
    """
    out = np.subtract(x[:, :1], y[:, 0], out=out)
    np.square(out, out=out)
    if x.shape[1] > 1:
        diff = np.empty_like(out)
        for k in range(1, x.shape[1]):
            np.subtract(x[:, k : k + 1], y[:, k], out=diff)
            np.square(diff, out=diff)
            out += diff
    return out


def _curve_costs(curve: CurveClass, timestamps: np.ndarray, stack: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Squared distances from each curve point (parameter tuples ``stack`` at each time) to the support; (N, P, |X|)."""
    costs = np.empty((len(timestamps), stack.shape[0], support.shape[0]))
    for i, t in enumerate(timestamps):
        _sq_distances(curve.evaluate(stack, t), support, costs[i])
    return costs


def build_kernels(
    dataset: SnapshotDataset,
    curve: CurveClass,
    grids: Sequence[SupportGrid],
    epsilon: float,
) -> KernelSet:
    """Assemble the Gibbs kernels for a curve-regression dataset.

    Never the full (N+k)-way tensor: a line in one dimension, whose
    coefficients c0 = 1 - t and c1 = t lie in [0, 1] as a dataset's times
    do, gets a FactoredKernelSet; otherwise the N arrays of shape (P, |X|)
    are written into one buffer of squared distances that then becomes the
    log kernels in place. Each snapshot's cost is shifted by its minimum before
    exponentiation, so kernel entries lie in (0, 1]. Costs that overflow
    (``check_coordinate_scale``), and kernels that with the arrays of an
    exp-domain solve exceed the machine's physical memory (dense logs and
    their exponentials; factors, parameter tuples and (N, P) sums), are
    ValueErrors, raised before any allocation.
    """
    grids = tuple(grids)
    if len(grids) != curve.n_params:
        raise ValueError("number of parameter grids must match the curve class")
    for g in grids:
        if g.dim != dataset.dim:
            raise ValueError("parameter grids must match the data dimension")
    support = dataset.grid.points  # (|X|, d)
    coefficients = np.array([curve.coefficients(t) for t in dataset.timestamps])
    _check_cost_scale(support, grids, coefficients, _rates(np.asarray(dataset.lambdas, dtype=float), epsilon))
    factored = dataset.dim == 1 and curve.kind == "linear"
    n, p, nx = len(dataset), math.prod(len(g) for g in grids), len(support)
    if factored:  # the factors, the (P, k, d) stack, an exp-domain solve's (N, P) sums: 4 in sweeps, 2 in the finish
        n0, n1 = (len(g) for g in grids)
        _check_memory((n * (p + (n0 + n1) * nx) + 2 * p + 6 * n * p) * 8, "the factored kernels")
    else:  # the (N, P, |X|) logs and, for the exp-domain sweeps, their exponentials
        _check_memory(2 * n * p * nx * 8, "the dense kernels")
    stack = param_tuple_stack(grids)  # (P, k, d)
    if factored:
        return _factored_kernels(dataset, curve, grids, stack, coefficients, epsilon)
    return _kernels_in_place(_curve_costs(curve, dataset.timestamps, stack, support), dataset.lambdas, epsilon, grids)


def _check_memory(need: int, what: str) -> None:
    """ValueError when ``need`` bytes of ``what`` exceed the machine's physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(f"{what} need {need / 2**30:.1f} GiB, more than this machine's "
                         f"{have / 2**30:.1f} GiB of memory; use coarser grids")


def _check_cost_scale(
    support: np.ndarray, grids: Tuple[SupportGrid, ...], coefficients: np.ndarray, rates: np.ndarray
) -> None:
    """check_coordinate_scale for each snapshot's cost, from coordinate extents: per axis,
    the curve points at t_i lie in sum_k c_ik [lo_k, hi_k] over the parameter grids' boxes."""
    with np.errstate(over="ignore", invalid="ignore"):
        ends = [coefficients[:, :, None] * np.array([f(g.points, axis=0) for g in grids]) for f in (np.min, np.max)]
        lo = np.minimum(np.minimum(*ends).sum(axis=1), support.min(axis=0))
        hi = np.maximum(np.maximum(*ends).sum(axis=1), support.max(axis=0))
    check_coordinate_scale(lo, hi, rates)


def _factored_kernels(
    dataset: SnapshotDataset,
    curve: CurveClass,
    grids: Tuple[SupportGrid, ...],
    stack: np.ndarray,
    coefficients: np.ndarray,
    epsilon: float,
) -> FactoredKernelSet:
    """FactoredKernelSet of a linear 1-D cost, with the shifts of the dense kernels.

    min_y c_i(p, y) is at the support point nearest to the curve point
    (``nearest_index``), computed with the dense build's arithmetic, so the
    shifts match it bit for bit. When both parameter grids are the support,
    the curve point of tuple (x_j, x_j) is phi[j * (|X| + 1)]; if one of those
    equals x_j exactly, the minimum is 0.0 and the scan is skipped.
    """
    lambdas = np.asarray(dataset.lambdas, dtype=float)
    rates = _rates(lambdas, epsilon)
    support = dataset.grid.points
    on_support = all(np.array_equal(g.points, support) for g in grids)
    diagonal = slice(None, None, len(support) + 1)
    lo = np.empty(len(dataset))
    for i, t in enumerate(dataset.timestamps):
        phi = curve.evaluate(stack, t)
        if on_support and (phi[diagonal] == support).all(axis=1).any():
            lo[i] = 0.0
        else:
            lo[i] = np.square(phi - support[nearest_index(phi, dataset.grid)]).sum(axis=1).min()
    shifts = lambdas * lo / epsilon
    d0 = _sq_distances(grids[0].points, support)  # (n0, |X|)
    d1 = _sq_distances(grids[1].points, support)  # (n1, |X|)
    d01 = _sq_distances(grids[0].points, grids[1].points)  # (n0, n1)
    rc0, rc1 = (rates * coefficients[:, 0]), (rates * coefficients[:, 1])
    rc01 = rc0 * coefficients[:, 1]
    # in factor_a, so that a_i b_i c_i is the kernel itself: the three factors' shifts and the kernel's
    offsets = rc01 * d01.max() - rc0 * d0.min() - rc1 * d1.min() + shifts

    def factor(rate, dist, top, offset=None):
        logs = np.multiply.outer(rate, dist - top)
        if offset is not None:
            logs += offset[:, None, None]
        with np.errstate(over="ignore"):
            return np.exp(logs, out=logs)

    return FactoredKernelSet(
        factor_a=factor(rc01, d01, d01.max(), offsets),
        factor_b=factor(-rc0, d0, d0.min()),
        factor_c=factor(-rc1, d1, d1.min()),
        curve=curve,
        timestamps=np.asarray(dataset.timestamps, dtype=float),
        support=support,
        shifts=shifts,
        epsilon=float(epsilon),
        lambdas=lambdas,
        parameter_grids=grids,
    )


class _DenseExp:
    """Exp-domain products with dense kernels ``kern`` (N, P, |X|): bound ndarray.dot calls."""

    def __init__(self, kern: np.ndarray, weighted_cost: Optional[Callable[[int], np.ndarray]] = None):
        self.kern = kern
        self.shape = kern.shape
        self.weighted_cost = weighted_cost

    def phi(self, j: int, w: np.ndarray, out: np.ndarray) -> Callable[[], None]:
        """A call that writes phi_j = K_j^T w to ``out``."""
        return partial(w.dot, self.kern[j], out)

    def m(self, j: int, a_j: np.ndarray, out: np.ndarray) -> Callable[[], None]:
        """A call that writes m_j = K_j a_j to ``out``."""
        return partial(self.kern[j].dot, a_j, out)

    def transport_term(self, j: int, w: np.ndarray, a_j: np.ndarray) -> float:
        """w . ((K_j o lambda_j c_j) a_j)."""
        pair = self.weighted_cost(j)
        pair *= self.kern[j]
        return float(w @ (pair @ a_j))


class _FactoredExp:
    """Exp-domain products with the factors of a FactoredKernelSet.

    With W the weights w as an (n0, n1) array, phi_j = colsum(B_j o ((A_j o W) C_j))
    and m_j = A_j o ((B_j diag a_j) C_j^T): two matrix products per snapshot.
    The calls share one set of scratch arrays, so they must run one at a time.
    """

    def __init__(self, kernels: FactoredKernelSet):
        self.kernels = kernels
        n, n0, n1 = kernels.factor_a.shape
        self.shape = (n, n0 * n1, kernels.n_support)
        self._aw = np.empty((n0, n1))
        self._t = np.empty((n0, kernels.n_support))
        self._ones = np.ones(n0)

    def _factors(self, j: int):
        ks = self.kernels
        return ks.factor_a[j], ks.factor_b[j], ks.factor_c[j]

    def phi(self, j: int, w: np.ndarray, out: np.ndarray) -> Callable[[], None]:
        """A call that writes phi_j = K_j^T w to ``out``."""
        a, b, c = self._factors(j)
        w2, aw, t, ones = w.reshape(a.shape), self._aw, self._t, self._ones

        def phi_j():
            np.multiply(a, w2, out=aw)
            aw.dot(c, out=t)
            np.multiply(t, b, out=t)
            ones.dot(t, out=out)

        return phi_j

    def m(self, j: int, a_j: np.ndarray, out: np.ndarray) -> Callable[[], None]:
        """A call that writes m_j = K_j a_j to ``out``."""
        a, b, c = self._factors(j)
        ct, m2, ba = c.T, out.reshape(a.shape), self._t

        def m_j():
            np.multiply(b, a_j, out=ba)
            ba.dot(ct, out=m2)
            np.multiply(m2, a, out=m2)

        return m_j

    def transport_term(self, j: int, w: np.ndarray, a_j: np.ndarray) -> float:
        """w . ((K_j o lambda_j c_j) a_j), with c_j = c0 (x0 - y)^2 + c1 (x1 - y)^2 - c0 c1 (x0 - x1)^2
        taken term by term through the factors."""
        ks = self.kernels
        a, b, c = self._factors(j)
        c0, c1 = ks.curve.coefficients(ks.timestamps[j])
        x0, x1 = (g.points for g in ks.parameter_grids)
        ba = b * a_j
        total = (ba * _sq_distances(x0, ks.support)).dot(c.T)
        total *= c0
        total += ba.dot((c * _sq_distances(x1, ks.support)).T) * c1
        total -= ba.dot(c.T) * _sq_distances(x0, x1) * (c0 * c1)
        total *= a
        return float(ks.lambdas[j] * w.dot(total.ravel()))


_ExpOperator = Union[_DenseExp, _FactoredExp]
