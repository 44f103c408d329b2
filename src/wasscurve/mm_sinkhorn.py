"""Entropically regularized multi-marginal optimal transport with decoupled costs.

The transport cost of a measure-valued-curve regression splits as a sum of
per-snapshot terms c_i(params, y_i), so the (N+k)-way coupling never has to be
materialized: one Gibbs kernel of shape (num parameter tuples, |X|) per
snapshot is enough, and each Sinkhorn marginal projection costs
O(N * |params| * |X|) instead of O(|X|^(N+k)).

The kernels come from ``kernels.py``: dense, or, for lines in one
dimension, three (n, n) factors per snapshot. Scaling updates run in the
exponential domain on the two products the kernel set's ``exp_operator()``
supplies while safe (dense ones for a factored set whose offsets exceed
_MAX_EXP_OFFSET), and switch to log-domain updates, on the dense log kernels
(built on first use for a factored set), when potentials leave the
representable range or a projection underflows.

A solve finishes from the factor sums m_i = K_i a_i its sweeps already hold:
the final marginal residual (marginal_j = a_j * (w_j K_j), with
w_j = prod_{i != j} m_i formed from log m), the transport objective
sum_i w_i . ((K_i o lambda_i c_i) a_i) and, through the log sums stored on the
returned state, the parameter coupling prod_i m_i. After an exp-domain solve
this takes one (P, |X|) temporary per snapshot on dense kernels, none on
factored ones, and no (N, P, |X|) array; the finish recomputes the sums in
log space only when one falls below the normal float range or a w_j
overflows. A log-domain solve hands over the log sums its sweeps maintain.

Sweeps over-relax once their contraction rate settles (``_Overrelaxation``).
"""

import logging
import math
import time
import warnings
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from .kernels import FactoredKernelSet, KernelSet, _DenseExp, _ExpOperator, param_tuple_stack
from .measures import SnapshotDataset, SupportGrid

logger = logging.getLogger(__name__)

# exp-domain operation is safe while every kernel entry is representable
_EXP_SAFE_LOG = -600.0
_POTENTIAL_LO = 1e-150
_POTENTIAL_HI = 1e150
# A factored operator's potentials are exp(offsets_j) times those of K_j. Up to
# this offset they stay below 1e300 while those of K_j are in range, and its
# phi_j = p_j / a_j above p_j * 1e-300; past it the dense products are used.
_MAX_EXP_OFFSET = math.log(_POTENTIAL_HI)
# below this a factor sum is subnormal and its log loses precision
_NORMAL_MIN = np.finfo(float).tiny

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10000

# over-relaxation (see _Overrelaxation)
_SETTLE_COUNT = 5
_SETTLE_SPREAD = 1e-3
_DUAL_ROUNDING = 1e-13
_RATE_WINDOW = 50


class SolverError(RuntimeError):
    """Sinkhorn iteration failed (epsilon too small for the cost scale, or kernel disconnected)."""


@dataclass(frozen=True, eq=False)
class ParamCoupling:
    """Probability mass over the product of parameter grids (the fitted law on curves)."""

    parameter_grids: Tuple[SupportGrid, ...]
    weights: np.ndarray  # shape = tuple of grid sizes

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        expected = tuple(len(g) for g in self.parameter_grids)
        if w.shape != expected:
            raise ValueError("coupling shape must match the parameter grids")
        if np.any(w < 0):
            raise ValueError("coupling weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-10:
            raise ValueError("coupling mass must be 1")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "parameter_grids", tuple(self.parameter_grids))

    @cached_property
    def param_stack(self) -> np.ndarray:
        return param_tuple_stack(self.parameter_grids)

    def mode(self) -> np.ndarray:
        """Parameter tuple of largest mass, shape (k, d)."""
        flat = int(np.argmax(self.weights))
        return self.param_stack[flat]


@dataclass(eq=False)
class FactoredCoupling:
    """Sinkhorn solver state: kernels plus one dual potential vector per snapshot.

    ``log_potentials`` is canonical (entries may be -inf where a target weight
    is zero); ``potentials`` is its exponential. The implicit coupling is
    Gamma[p, y_1..y_N] = prod_i K_i[p, y_i] * a_i[y_i]. ``log_factor_sums``
    holds log m_i(p) = log sum_y K_i[p, y] a_i[y] of those potentials, shape
    (N, P), as the solver finished with them; a state built without them
    (None) has them recomputed where they are needed. The last three fields
    say why the solve took the sweeps it did (see _Overrelaxation).
    """

    kernels: KernelSet
    log_potentials: np.ndarray  # (N, |X|)
    converged: bool
    iterations: int
    marginal_residual: float
    residual_history: np.ndarray
    objective: float
    used_log_domain: bool
    log_factor_sums: Optional[np.ndarray] = None  # (N, P)
    omega: float = 1.0  # at the end of the solve
    overrelaxed_from: Optional[int] = None  # first sweep of the last over-relaxed run
    overrelaxation_reverts: int = 0  # over-relaxed sweeps undone

    @property
    def potentials(self) -> np.ndarray:
        return np.exp(self.log_potentials)


def _logsumexp(x: np.ndarray, axis: Optional[int] = None, work: Optional[np.ndarray] = None):
    """log sum exp(x) along ``axis`` (over every entry when None).

    Shifted by the maximum as scipy.special.logsumexp is, so a line whose
    entries are all -inf gives -inf. The shifted exponentials are written to
    ``work`` (x's shape; it may be x itself, which is then overwritten) or to
    a new array.
    """
    top = x.max(axis=axis, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    work = np.subtract(x, top, out=work)
    np.exp(work, out=work)
    with np.errstate(divide="ignore"):
        return np.log(work.sum(axis=axis)) + np.squeeze(top, axis=axis)


def _log_kernel_sums(log_k: np.ndarray, log_s: np.ndarray, axis: int, buf: np.ndarray) -> np.ndarray:
    """logsumexp of log_k + log_s along ``axis``, worked out in ``buf`` (the shape of log_k).

    Reusing one buffer saves the allocations, which dominate at a few hundred
    points a side.
    """
    np.add(log_k, log_s, out=buf)
    return _logsumexp(buf, axis, buf)


def _log_factor_sums(log_kernels: np.ndarray, log_a: np.ndarray) -> np.ndarray:
    """log m_i(p) = log sum_y K_i[p, y] a_i[y], for all snapshots; shape (N, P)."""
    terms = log_kernels + log_a[:, None, :]
    return _logsumexp(terms, 2, terms)


def _state_log_factor_sums(state: FactoredCoupling) -> np.ndarray:
    if state.log_factor_sums is not None:
        return state.log_factor_sums
    return _log_factor_sums(state.kernels.log_kernels, state.log_potentials)


def _log_weights_without(log_total: np.ndarray, log_m_j: np.ndarray) -> np.ndarray:
    """log w_j = log prod_{i != j} m_i, from log_total = sum_i log m_i; shape (P,).

    Where m_j is zero the difference is -inf - (-inf); it is taken as -inf,
    since no coupling mass sits on that parameter tuple.
    """
    with np.errstate(invalid="ignore"):
        log_w = log_total - log_m_j
    log_w[np.isnan(log_w)] = -np.inf
    return log_w


def _log_marginal(log_kernels: np.ndarray, log_m: np.ndarray, log_a: np.ndarray, j: int) -> np.ndarray:
    """log P_{y_j}(Gamma) from cached factor sums; shape (|X|,)."""
    log_w = _log_weights_without(log_m.sum(axis=0), log_m[j])
    terms = log_kernels[j] + log_w[:, None]
    return _logsumexp(terms, 0, terms) + log_a[j]


def project_marginal(state: FactoredCoupling, j: int) -> np.ndarray:
    """Marginal of the implicit coupling on snapshot j's support, shape (|X|,).

    Matches the brute-force sum over the dense tensor; computed factored in
    O(N * P * |X|).
    """
    n = state.kernels.n_snapshots
    if not -n <= j < n:
        raise IndexError(f"snapshot index {j} out of range for {n} snapshots")
    j = j % n
    log_m = _state_log_factor_sums(state)
    return np.exp(_log_marginal(state.kernels.log_kernels, log_m, state.log_potentials, j))


def extract_param_coupling(state: FactoredCoupling) -> ParamCoupling:
    """Project the implicit coupling onto the parameter tuple, normalized to mass 1."""
    if not state.converged:
        warnings.warn("extracting parameter coupling from a non-converged state", RuntimeWarning)
    log_w = _state_log_factor_sums(state).sum(axis=0)
    log_w -= _logsumexp(log_w)
    weights = np.exp(log_w).reshape(state.kernels.param_shape)
    total = weights.sum()
    if not np.isfinite(total) or total <= 0:
        raise SolverError("parameter coupling degenerated; epsilon too small for the cost scale")
    return ParamCoupling(state.kernels.parameter_grids, weights / total)


def transport_objective_from_logs(kernels: KernelSet, log_a: np.ndarray, log_m: Optional[np.ndarray] = None) -> float:
    """<c, Gamma> computed kernel-wise, without materializing the coupling.

    ``log_m`` are the log factor sums of ``log_a``; they are computed when not given.
    """
    if log_m is None:
        log_m = _log_factor_sums(kernels.log_kernels, log_a)
    log_total = log_m.sum(axis=0)  # (P,)
    obj = 0.0
    for i in range(kernels.n_snapshots):
        log_w = _log_weights_without(log_total, log_m[i])
        log_pair = log_w[:, None] + kernels.log_kernels[i] + log_a[i][None, :]
        obj += float(np.sum(np.exp(log_pair) * kernels.weighted_cost(i)))
    return obj


def _transport_objective_exp(op: _ExpOperator, a: np.ndarray, log_m: np.ndarray) -> float:
    """<c, Gamma> = sum_i w_i . ((K_i o lambda_i c_i) a_i) from exp-domain kernels and potentials."""
    log_total = log_m.sum(axis=0)
    obj = 0.0
    for i in range(a.shape[0]):
        obj += op.transport_term(i, np.exp(_log_weights_without(log_total, log_m[i])), a[i])
    return obj


class _Finish(NamedTuple):
    """The end state of a solve: potentials, their log factor sums, the
    marginal residual, and the objective, evaluated once the residual passed
    its checks."""

    log_a: np.ndarray
    log_m: np.ndarray
    residual: float
    objective: Callable[[], float]


def _final_residual(log_kern: np.ndarray, log_a: np.ndarray, targets: np.ndarray, log_m: Optional[np.ndarray] = None) -> float:
    """Max L1 marginal violation, in log space; ``log_m`` as in transport_objective_from_logs."""
    if log_m is None:
        log_m = _log_factor_sums(log_kern, log_a)
    violations = [
        np.abs(np.exp(_log_marginal(log_kern, log_m, log_a, j)) - targets[j]).sum()
        for j in range(log_kern.shape[0])
    ]
    return float(np.max(violations))  # np.max keeps a NaN, where max() could drop it


def _finish_log(kernels: KernelSet, log_a: np.ndarray, targets: np.ndarray, log_m: Optional[np.ndarray] = None) -> _Finish:
    if log_m is None:
        log_m = _log_factor_sums(kernels.log_kernels, log_a)
    residual = _final_residual(kernels.log_kernels, log_a, targets, log_m)
    return _Finish(log_a, log_m, residual, partial(transport_objective_from_logs, kernels, log_a, log_m))


def _finish_exp(kernels: KernelSet, op: _ExpOperator, a: np.ndarray, m: np.ndarray, targets: np.ndarray) -> _Finish:
    """Finish from the exp sweep's own state: potentials a and exact factor sums m = K a.

    marginal_j = a_j * (w_j K_j) with w_j = exp(sum_i log m_i - log m_j), so
    nothing of shape (N, P, |X|) is formed. Factor sums below the normal
    float range (where log m loses precision) or a w_j that overflows send
    the finish to the log-space recomputation instead.
    """
    log_a = _with_log_zeros(a)
    log_a -= op.offsets[:, None]  # potentials of K_i, not of op's exp(-offsets_i) K_i
    if m.min() >= _NORMAL_MIN:
        log_m = np.log(m)
        log_total = log_m.sum(axis=0)
        phi = np.empty(a.shape[1])
        violations = []
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(a.shape[0]):
                op.phi(j, np.exp(_log_weights_without(log_total, log_m[j])), phi)()
                violations.append(np.abs(a[j] * phi - targets[j]).sum())
        residual = float(np.max(violations))
        if np.isfinite(residual):
            return _Finish(log_a, log_m, residual, partial(_transport_objective_exp, op, a, log_m))
    return _finish_log(kernels, log_a, targets)


def _with_log_zeros(a: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(a)


class _Overrelaxation:
    """The over-relaxation factor omega of a scaling iteration, and when it changes.

    omega is 1 until _SETTLE_COUNT successive residual ratios agree within
    _SETTLE_SPREAD (relative) and are below 1; then it is
    2 / (1 + sqrt(1 - theta)) for the last ratio theta (Lehmann, von Renesse,
    Sambale, Uschmajew 2022). A run of over-relaxed sweeps ends when
    ``accept`` gets a fall of the dual objective sum_j <p_j, log a_j> - mass
    beyond _DUAL_ROUNDING * mass (the caller undoes that sweep; Thibault,
    Chizat, Dossal, Papadakis 2021), or when a window of _RATE_WINDOW of its
    sweeps, after its first, contracts no faster than theta. The next run
    then needs twice as many settled ratios.
    """

    def __init__(self, what: str):
        self.what = what
        self.omega = 1.0
        self.started: Optional[int] = None  # first sweep of the latest over-relaxed run, 1-based
        self.reverts = 0
        self._window = _SETTLE_COUNT
        self._ratios: List[float] = []
        self._last = 0.0
        self._theta = self._base = 0.0
        self._count = 0  # sweeps since _base; negative in a run's first window

    def observe(self, done: int, residual: float) -> None:
        """Take the residual of sweep ``done`` (1-based); may set omega for the next sweep."""
        last, self._last = self._last, residual
        if self.omega != 1.0:
            self._check_rate(done, residual)
            return
        if not last > 0.0:
            return
        ratios = self._ratios
        ratios.append(residual / last)
        del ratios[: -self._window]
        top = max(ratios)
        if len(ratios) < self._window or not top < 1.0 or top - min(ratios) > _SETTLE_SPREAD * top:
            return
        self._theta = ratios[-1]
        self._count = -_RATE_WINDOW
        self.omega = 2.0 / (1.0 + math.sqrt(1.0 - self._theta))
        self.started = done + 1
        logger.info("over-relaxing %s from sweep %d: rate %.6f, omega %.4f", self.what, self.started, self._theta, self.omega)

    def _check_rate(self, done: int, residual: float) -> None:
        self._count += 1
        if self._count == 0:
            self._base = residual
        if self._count < _RATE_WINDOW or not self._base > 0.0:
            return
        rate = (residual / self._base) ** (1.0 / self._count)
        if rate < self._theta:
            self._base, self._count = residual, 0
            return
        self._stop()
        logger.info("over-relaxed %s: rate %.6f at sweep %d, plain was %.6f; omega 1", self.what, rate, done, self._theta)

    def accept(self, gain: float, mass: float, done: int) -> bool:
        """Keep over-relaxed sweep ``done``, whose dual objective changed by ``gain``; False to undo it."""
        if gain >= -_DUAL_ROUNDING * mass:
            return True
        self.reverts += 1
        self._stop()
        logger.info("over-relaxed %s: sweep %d lowered the dual objective by %.3e; undone, omega 1", self.what, done, -gain)
        return False

    def _stop(self) -> None:
        self.omega = 1.0
        self._window *= 2
        self._ratios.clear()
        self._last = 0.0


def _overrelaxed_log(log_x: np.ndarray, log_plain: np.ndarray, weights: np.ndarray, positive: np.ndarray, omega: float):
    """(1 - omega) log_x + omega log_plain where ``positive`` (-inf elsewhere), and
    <weights, log_plain - log_x> over those entries (the log ratio the plain update scales by)."""
    with np.errstate(invalid="ignore"):
        step = np.where(positive, log_plain - log_x, 0.0)
    return np.where(positive, log_x + omega * step, -np.inf), float(weights @ step)


class _ExpSweepWork:
    """Preallocated buffers and per-snapshot views reused by every numpy sweep.

    w_j = prod_{i != j} m_i is split as prefix_j * suffix_j: prefix_j is the
    product of the factor sums already updated in this sweep (i < j), kept as
    a running product, and suffix_j the product of those not yet updated
    (i > j), formed from the start-of-sweep values. An empty side is skipped
    and a one-factor side is a view of that row of m, so a sweep makes
    3 (N - 2) products of length P: O(NP) in all. ``a`` and ``m`` must be
    C-contiguous; the sweep writes through views of their rows. The kernel
    products are the calls ``op`` binds to those views.
    ``omega`` is the next sweep's over-relaxation factor.
    """

    def __init__(self, op: _ExpOperator, a: np.ndarray, m: np.ndarray, targets: np.ndarray):
        n, p, nx = op.shape
        self.op = op
        self.a = a
        self.m = m
        self.targets = targets
        self.omega = 1.0
        self.ratio = np.empty((n, nx))
        self.powered = np.empty(nx)
        self.a_start = np.empty((n, nx))
        self.phi = np.empty((n, nx))
        self.gap = np.empty((n, nx))
        self.row_l1 = np.empty(n)
        self.ones_x = np.ones(nx)
        # the range check reads the potentials of K_j: op's are exp(offsets_j) times those
        self.unscale = np.exp(-op.offsets)[:, None] if op.offsets.any() else None
        suffix = np.empty((max(n - 2, 0), p))
        prefix = np.empty(p)
        w_buf = np.empty(p)
        # suffix_{n-1} is empty, suffix_{n-2} = m_{n-1}, suffix_j = m_{j+1} * suffix_{j+1}
        suf = [None] * n
        if n > 1:
            suf[n - 2] = m[n - 1]
        self.suffix_steps = []
        for j in range(n - 3, -1, -1):
            self.suffix_steps.append((m[j + 1], suf[j + 1], suffix[j]))
            suf[j] = suffix[j]
        positive = targets > 0
        self.m_calls = [op.m(j, a[j], m[j]) for j in range(n)]
        self.steps = []
        for j in range(n):
            pre = None if j == 0 else (m[0] if j == 1 else prefix)
            factors = [v for v in (pre, suf[j]) if v is not None]
            if len(factors) == 2:
                w, w_step = w_buf, (*factors, w_buf)
            else:
                w, w_step = (factors[0] if factors else np.ones(p)), None
            # prefix_{j+1} = prefix_j * m_j, needed from prefix_2 on
            pre_step = (pre, m[j], prefix) if 1 <= j <= n - 2 else None
            zero = ~positive[j]
            self.steps.append((
                w_step, op.phi(j, w, self.phi[j]), self.phi[j], targets[j], a[j], self.m_calls[j],
                zero if zero.any() else None, pre_step, self.ratio[j],
            ))
        self.positive = None if positive.all() else positive
        self.zero = None if positive.all() else ~positive

    def update_sums(self) -> None:
        """Factor sums m = K a from the current potentials."""
        for m_j in self.m_calls:
            m_j()

    def restore_start(self) -> None:
        """Undo the last sweep: potentials back to a_start, factor sums back to K a."""
        np.copyto(self.a, self.a_start)
        self.update_sums()

    def log_ratio_sum(self) -> float:
        """sum_j <p_j, log r_j> over the ratios r_j of the last, over-relaxed, sweep."""
        ratio = self.ratio
        if self.zero is not None:
            ratio[self.zero] = 1.0  # 0/0 there
        np.log(ratio, out=ratio)
        return float(np.vdot(self.targets, ratio))


@np.errstate(all="ignore")
def _sweep_exp_numpy(work: _ExpSweepWork) -> float:
    """One full exponential-domain sweep in ascending snapshot order.

    Updates a and m in place through the views held by ``work``. w_j comes
    from a running prefix and a start-of-sweep suffix product in O(NP), so
    the per-snapshot cost is the two kernel products, O(P |X|). Returns the
    max L1 marginal violation observed just before each snapshot's own
    correction, computed once per sweep from the start-of-sweep potentials
    and the stored projections phi_j. Returns -1.0 when the sweep leaves the
    representable range (the caller switches to log-domain updates).

    The whole sweep runs under one errstate, and its checks run once, at its
    end: the potentials of positive targets within [_POTENTIAL_LO,
    _POTENTIAL_HI] (as potentials of K_j, so exp(-offsets_j) times ``a`` for
    a factored operator), and phi finite where the target is zero. A zero or
    non-finite phi at a positive target puts its potential out of range (a
    NaN fails both comparisons), so phi needs a check of its own only at zero
    targets; phi is never negative, so a maximum below inf means finite. m
    needs none: kernel entries are at most 1 (the kernel set's shift; a
    product of factors, each at most 1, for a FactoredKernelSet) and
    potentials at most _POTENTIAL_HI, so m_j = K_j a_j stays finite. Each row
    of phi and a is written once per sweep, so these checks reject exactly
    what the same checks after each snapshot would, and -1.0 still marks the
    first sweep that leaves the safe range.

    With ``work.omega`` != 1 the update is a_j <- a_j * r_j^omega, with
    r_j = p_j / (phi_j a_j) kept in ``work.ratio``.
    """
    multiply, divide = np.multiply, np.divide
    a = work.a
    omega = work.omega
    np.copyto(work.a_start, a)
    for left, right, out in work.suffix_steps:
        multiply(left, right, out)
    for w_step, phi_call, phi_j, t_j, a_j, m_call, zero, pre_step, r_j in work.steps:
        if w_step is not None:
            multiply(*w_step)
        phi_call()
        if omega == 1.0:
            divide(t_j, phi_j, out=a_j)
        else:
            multiply(phi_j, a_j, out=r_j)
            divide(t_j, r_j, out=r_j)
            np.power(r_j, omega, out=work.powered)
            multiply(a_j, work.powered, out=a_j)
        if zero is not None:
            a_j[zero] = 0.0
        m_call()
        if pre_step is not None:
            multiply(*pre_step)
    gap = multiply(work.a_start, work.phi, work.gap)
    np.subtract(gap, work.targets, gap)
    np.abs(gap, gap)
    rows = gap.dot(work.ones_x, out=work.row_l1).tolist()
    if work.unscale is not None:
        a = np.multiply(a, work.unscale, out=work.gap)
    if work.positive is None:
        live = a
    else:
        live = a[work.positive]
        if not work.phi[work.zero].max() < np.inf:
            return -1.0
    if not (live.min() >= _POTENTIAL_LO and live.max() <= _POTENTIAL_HI):
        return -1.0
    return max(rows)


def _exp_operator(kernels: KernelSet) -> _ExpOperator:
    """The exp-domain products of ``kernels``: dense ones, from its log kernels,
    for a factored set with an offset above _MAX_EXP_OFFSET."""
    if isinstance(kernels, FactoredKernelSet) and kernels.offsets.max() > _MAX_EXP_OFFSET:
        return _DenseExp(np.exp(kernels.log_kernels), kernels.weighted_cost)
    return kernels.exp_operator()


def _exp_start(op: _ExpOperator, targets: np.ndarray) -> _ExpSweepWork:
    """Exp-domain sweep state on the products ``op`` at potentials 1 (for the
    kernels of the kernel set) and factor sums m = K a."""
    n, p, nx = op.shape
    a = np.repeat(np.exp(op.offsets)[:, None], nx, axis=1)
    work = _ExpSweepWork(op, a, np.empty((n, p)), targets)
    work.update_sums()
    return work


def _sweep_log(
    log_kern: np.ndarray,
    log_a: np.ndarray,
    log_m: np.ndarray,
    targets: np.ndarray,
    log_targets: np.ndarray,
    omega: float,
) -> Tuple[float, float]:
    """One full log-domain sweep, over-relaxed by ``omega``; updates log_a and log_m in place.

    Returns the residual and, when over-relaxed, sum_j <p_j, log r_j> as
    ``_ExpSweepWork.log_ratio_sum`` (0.0 otherwise).
    """
    n = log_kern.shape[0]
    residual = log_ratio = 0.0
    for j in range(n):
        log_w = _log_weights_without(log_m.sum(axis=0), log_m[j])
        terms = log_kern[j] + log_w[:, None]
        log_phi = _logsumexp(terms, 0, terms)
        current = np.exp(log_phi + log_a[j])
        residual = max(residual, float(np.abs(current - targets[j]).sum()))
        positive = targets[j] > 0
        if np.any(np.isneginf(log_phi[positive])):
            raise SolverError(
                "zero marginal projection where the target is positive; "
                "epsilon too small for the cost scale or kernel disconnected"
            )
        if omega == 1.0:
            log_a[j] = np.where(positive, log_targets[j] - log_phi, -np.inf)
        else:
            log_a[j], step_sum = _overrelaxed_log(log_a[j], log_targets[j] - log_phi, targets[j], positive, omega)
            log_ratio += step_sum
        log_m[j] = _log_kernel_sums(log_kern[j], log_a[j][None, :], 1, terms)
    return residual, log_ratio


def sinkhorn_solve(
    kernels: KernelSet,
    dataset: SnapshotDataset,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FactoredCoupling:
    """Run multiplicative scaling sweeps until every marginal matches its target.

    Sweeps cycle snapshots in ascending timestamp order, updating
    a_j <- a_j * p_j / P_{y_j}(Gamma), over-relaxed as ``_Overrelaxation``
    decides. Convergence is declared when the max L1 marginal violation of the final
    state is at most tol. Raises SolverError when the iteration produces
    non-finite values or a zero projection where the target carries mass
    (signals epsilon too small).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    targets = dataset.target_matrix()
    if targets.shape != (kernels.n_snapshots, kernels.n_support):
        raise ValueError("dataset does not match kernel shapes")
    # exp-domain sweeps while ``work`` is live; log-domain ones on log_a, log_m
    work = log_a = log_m = None
    if kernels.min_log_kernel >= _EXP_SAFE_LOG:
        work = _exp_start(_exp_operator(kernels), targets)
    else:
        log_a = np.zeros((kernels.n_snapshots, kernels.n_support))
        log_m = _log_factor_sums(kernels.log_kernels, log_a)
    log_t = _with_log_zeros(targets)

    def finish_now() -> _Finish:
        # the sweeps keep a and m = K a (or their logs) exact, so the finish reads them
        if work is not None:
            return _finish_exp(kernels, work.op, work.a, work.m, targets)
        return _finish_log(kernels, log_a, targets, log_m)

    def mass() -> float:
        """Total mass of the coupling, sum_p prod_j m_j(p)."""
        if work is not None:
            return float(np.prod(work.m, axis=0).sum())
        return float(np.exp(_logsumexp(log_m.sum(axis=0))))

    relax = _Overrelaxation("sinkhorn sweeps")
    history: List[float] = []
    mass_start = None  # coupling mass at the current state, carried from one over-relaxed sweep to the next
    for sweep in range(max_iter):
        omega = relax.omega
        if omega == 1.0:
            mass_start = None
        elif mass_start is None:
            mass_start = mass()
        if work is not None:
            work.omega = omega
            if (res := _sweep_exp_numpy(work)) < 0.0:
                # the sweep left the safe range: redo it in the log domain from its start
                logger.info("switching to log-domain updates after %d sweeps", sweep)
                log_a = _with_log_zeros(work.a_start)
                log_a -= work.op.offsets[:, None]
                log_m = _log_factor_sums(kernels.log_kernels, log_a)
                work = None
            elif omega != 1.0:
                log_ratio = work.log_ratio_sum()
        if work is None:
            if omega != 1.0:
                start = log_a.copy(), log_m.copy()
            res, log_ratio = _sweep_log(kernels.log_kernels, log_a, log_m, targets, log_t, omega)
        history.append(res)
        if omega != 1.0:
            mass_end = mass()
            if not relax.accept(omega * log_ratio - (mass_end - mass_start), mass_start, sweep + 1):
                if work is not None:
                    work.restore_start()
                else:
                    np.copyto(log_a, start[0])
                    np.copyto(log_m, start[1])
                continue
            mass_start = mass_end
        if res <= tol:
            finish = finish_now()
            if finish.residual <= tol:
                iters, ok = sweep + 1, True
                break
        relax.observe(sweep + 1, res)
    else:
        finish, iters, ok = finish_now(), max_iter, False
    work = None  # the finish holds kern, a and m; free the sweep buffers before the objective's temporaries
    if not np.isfinite(finish.residual):
        raise SolverError("non-finite marginal residual; epsilon too small for the cost scale")
    objective = finish.objective()
    if not ok:
        logger.warning("sinkhorn stopped at max_iter=%d with residual %.3e", max_iter, finish.residual)
    return FactoredCoupling(
        kernels=kernels,
        log_potentials=finish.log_a,
        converged=ok,
        iterations=iters,
        marginal_residual=finish.residual,
        residual_history=np.asarray(history),
        objective=objective,
        used_log_domain=log_a is not None,
        log_factor_sums=finish.log_m,
        omega=relax.omega,
        overrelaxed_from=relax.started,
        overrelaxation_reverts=relax.reverts,
    )


def benchmark_sweep_seconds(
    kernels: KernelSet,
    dataset: SnapshotDataset,
    n_sweeps: int = 20,
    repeats: int = 3,
) -> float:
    """Wall time of one exponential-domain sweep, min over repeated timed runs.

    Used by the complexity-scaling checks; times the solver's own sweep,
    ``_sweep_exp_numpy`` on the state ``_exp_start`` builds for it (the
    kernel set's own products, w_j from running products in O(NP), the
    residual and the range checks once per sweep, -1.0 from the first sweep
    that leaves the safe range) for a fixed number of sweeps after one warmup
    sweep. Its buffers are built before the clock starts; the sweeps' results
    are not used.
    """
    targets = dataset.target_matrix()
    op = _exp_operator(kernels)
    best = np.inf
    for _ in range(repeats):
        work = _exp_start(op, targets)
        _sweep_exp_numpy(work)  # warmup
        start = time.perf_counter()
        for _ in range(n_sweeps):
            _sweep_exp_numpy(work)
        best = min(best, (time.perf_counter() - start) / n_sweeps)
    return best
