"""Entropically regularized multi-marginal optimal transport with decoupled costs.

The transport cost of a measure-valued-curve regression splits as a sum of
per-snapshot terms c_i(params, y_i), so the (N+k)-way coupling never has to be
materialized: one Gibbs kernel of shape (num parameter tuples, |X|) per
snapshot is enough, and each Sinkhorn marginal projection costs
O(N * |params| * |X|) instead of O(|X|^(N+k)).

The kernels come from ``kernels.py``: dense, or, for lines in one
dimension, three (n, n) factors per snapshot. Every solve starts in the
exponential domain, on the two products the kernel set's ``exp_operator()``
supplies; the first sweep that leaves the representable range (potentials
past [_POTENTIAL_LO, _POTENTIAL_HI], an underflowing projection) is redone
in the log domain, on the dense log kernels (built on first use for a
factored set), and the solve stays there. A factored set's products are
those of its kernels, so the exp domain never needs dense products.

A solve finishes in one pass over the snapshots (``_finish``), from the
factor sums m_i = K_i a_i of its potentials: the weights w_j = prod_{i != j} m_i
of snapshot j give both its marginal a_j * (w_j K_j), and so its share of the
marginal residual, and its objective term w_j . ((K_j o lambda_j c_j) a_j).
Through the log sums stored on the returned state they also give the
parameter coupling prod_i m_i. Every log w_j is the sum of the log m_i
before j plus the sum of those after it (``_log_weights``), so nothing
cancels. Log-space passes reduce one snapshot at a time in one (P, |X|) work
array, so neither domain forms an (N, P, |X|) temporary. A log-domain finish
exponentiates each snapshot's plan w_j K_j a_j once (``_log_plan``). An
exp-domain finish works on the operator's products and leaves exp space per
row and per snapshot: it sums in log space only a row of m holding a value
below the normal float range, and takes ``_log_plan`` only for a snapshot
whose w_j overflows.

While sweeps contract slowly, Anderson acceleration extrapolates their
log-potentials, keeping an extrapolation only when it raises the dual
objective above the plain sweep's (``_Anderson``). Where accelerated
exp-domain sweeps still stall, the solve turns to damped Newton steps on
that dual (``_Newton``): at a kept extrapolation, once the contraction of
the last _WINDOW sweeps projects more sweeps to tol than _NEWTON_MULTIPLE
Newton steps cost (``_stalled``, from the operator's shape alone). The
phase hands its last iterate back to sweeps after _PATIENCE steps that do
not halve its residual, and is not entered again in that solve; the log
domain keeps its sweeps. Both need a slow sweep, so with _SLOW_RATIO
infinite a solve runs plain sweeps, bit for bit.

The engine reads the targets as an (N, |X|) array and nothing else of a
dataset, so any star of leaves on one support is a problem it solves.
Two-marginal transport (``two_marginal.two_marginal_w2``) is the two-leaf
star whose first leaf's kernel is the identity.
"""

import logging
import math
import time
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from .kernels import KernelSet, _ExpOperator, param_tuple_stack
from .measures import SupportGrid

logger = logging.getLogger(__name__)

_POTENTIAL_LO = 1e-150
_POTENTIAL_HI = 1e150
# below this a factor sum is subnormal and its log loses precision
_NORMAL_MIN = np.finfo(float).tiny

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10000

# Anderson acceleration (see _Anderson)
_DEPTH = 5
_SLOW_RATIO = 0.3
# an extrapolation that divides a potential by more than exp(_MAX_SHRINK) is
# undone: its factor sums m + K (a o expm1(step)) would cancel past 8 digits
_MAX_SHRINK = 20.0

# Newton phase (see _Newton): entered when the contraction of the last
# _WINDOW sweeps projects more sweeps to tol than _NEWTON_MULTIPLE steps
# cost, left after _PATIENCE steps that do not halve its lowest residual
_WINDOW = 5
_NEWTON_MULTIPLE = 20.0
_PATIENCE = 10
_ARMIJO = 1e-4
_DAMPING = 1e-5  # the first Levenberg-Marquardt shift, relative to the diagonal
_SHORTEST = 2.0**-10  # the shortest part of a step the line search tries


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
    is zero). The implicit coupling is Gamma[p, y_1..y_N] =
    prod_i K_i[p, y_i] * a_i[y_i]. ``log_factor_sums`` holds
    log m_i(p) = log sum_y K_i[p, y] a_i[y] of those potentials, shape (N, P),
    as the solver finished with them (``_log_factor_sums`` computes them for
    a state built by hand). ``used_log_domain`` tells whether the solve left
    the exp domain. ``accelerated`` and ``acceleration_reverts`` count the
    kept and the undone extrapolations of its sweeps (see _Anderson), and
    ``newton_steps`` the Newton steps it took (see _Newton), each of which
    counts as an iteration and adds its residual to ``residual_history``.
    """

    kernels: KernelSet
    log_potentials: np.ndarray  # (N, |X|)
    converged: bool
    iterations: int
    marginal_residual: float
    residual_history: np.ndarray
    objective: float
    used_log_domain: bool
    log_factor_sums: np.ndarray  # (N, P)
    accelerated: int = 0
    acceleration_reverts: int = 0
    newton_steps: int = 0


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
    buf = np.empty(log_kernels.shape[1:])
    return np.array([_log_kernel_sums(log_k, log_a_i, 1, buf) for log_k, log_a_i in zip(log_kernels, log_a)])


def _log_weights(log_m: np.ndarray) -> Iterator[np.ndarray]:
    """log w_j = sum_{i != j} log m_i for j = 0, 1, ..., each of shape (P,): the sum of
    the rows before j plus the sum of the rows after it, so nothing cancels and a -inf
    entry stays -inf. The rows after j are summed when the iteration starts, those before
    j when w_j is asked for: a sweep that rewrites row j first gets w_{j+1} of its new
    rows, in O(NP) per sweep, as the exp sweep does."""
    suffix = np.zeros_like(log_m)  # suffix[j] = sum_{i > j} log m_i, row by row
    for j in range(len(log_m) - 2, -1, -1):
        np.add(suffix[j + 1], log_m[j + 1], out=suffix[j])
    prefix = np.zeros(log_m.shape[1])
    for j in range(log_m.shape[0]):
        yield prefix + suffix[j]
        prefix += log_m[j]


def _log_plan(log_k: np.ndarray, log_w: np.ndarray, log_a: np.ndarray, buf: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Snapshot j's plan w_j[p] K_j[p, y] a_j[y] from its logs, exponentiated once.

    ``buf`` (log K_j's shape) receives the plan divided by its column maxima
    scale[y] (1 for a column that is all zero). Returns snapshot j's marginal,
    the plan's column sums, and scale.
    """
    np.add(log_k, log_w[:, None], out=buf)
    buf += log_a
    top = buf.max(axis=0)
    top[~np.isfinite(top)] = 0.0
    buf -= top
    np.exp(buf, out=buf)
    scale = np.exp(top)
    return buf.sum(axis=0) * scale, scale


def extract_param_coupling(state: FactoredCoupling) -> ParamCoupling:
    """Project the implicit coupling onto the parameter tuple, normalized to mass 1."""
    if not state.converged:
        warnings.warn("extracting parameter coupling from a non-converged state", RuntimeWarning)
    log_w = state.log_factor_sums.sum(axis=0)
    log_w -= _logsumexp(log_w)
    weights = np.exp(log_w).reshape(state.kernels.param_shape)
    total = weights.sum()
    if not np.isfinite(total) or total <= 0:
        raise SolverError("parameter coupling degenerated; epsilon too small for the cost scale")
    return ParamCoupling(state.kernels.parameter_grids, weights / total)


class _Finish(NamedTuple):
    """The end state of a solve: potentials, their log factor sums, the
    marginal residual and the objective."""

    log_a: np.ndarray
    log_m: np.ndarray
    residual: float
    objective: float


def _finish(kernels: KernelSet, targets: np.ndarray, work: Optional["_ExpSweepWork"], log_a: np.ndarray,
            log_m: np.ndarray) -> _Finish:
    """Finish a solve in one pass over the snapshots (see the module docstring).

    A log-domain solve passes ``work`` None with its log a and log m, and every
    snapshot takes ``_log_plan``. An exp-domain solve passes its sweep state;
    the finish measures exp(log a), which can differ from the sweep's a in the
    last bit, with its own sums m = K exp(log a). The dense logs are read only
    for a row of m below the normal float range, where log m would lose
    precision, and for a snapshot whose violation is not finite on the
    operator (w_j overflows).
    """
    op, buf = None, None  # buf: the (P, |X|) work array of the log-space passes, made on first use
    if work is not None:
        op, log_a = work.op, _with_log_zeros(work.a)
        a = np.exp(log_a)
        m = np.empty((a.shape[0], op.shape[1]))
        for j in range(a.shape[0]):
            op.m(j, a[j], m[j])()
        low = ~(m.min(axis=1) >= _NORMAL_MIN)
        with np.errstate(divide="ignore"):
            log_m = np.log(m, out=m)
        for j in np.flatnonzero(low):
            buf = np.empty(kernels.log_kernels.shape[1:]) if buf is None else buf
            log_m[j] = _log_kernel_sums(kernels.log_kernels[j], log_a[j], 1, buf)
        phi = np.empty(a.shape[1])
    violations, objective = [], 0.0
    for j, log_w in enumerate(_log_weights(log_m)):
        if op is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                w = np.exp(log_w)
                op.phi(j, w, phi)()
                violation = np.abs(a[j] * phi - targets[j]).sum()
            if np.isfinite(violation):
                violations.append(violation)
                objective += op.transport_term(j, w, a[j])
                continue
        buf = np.empty(kernels.log_kernels.shape[1:]) if buf is None else buf
        marginal, scale = _log_plan(kernels.log_kernels[j], log_w, log_a[j], buf)
        violations.append(np.abs(marginal - targets[j]).sum())
        buf *= kernels.weighted_cost(j)
        objective += float(buf.sum(axis=0) @ scale)
    return _Finish(log_a, log_m, float(np.max(violations)), objective)  # np.max keeps a NaN, where max() could drop it


def _with_log_zeros(a: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(a)


def _mass_change(mass: np.ndarray, ratio: np.ndarray) -> float:
    """sum_p mass_p (prod_j (1 + ratio_j(p)) - 1), the change of a coupling of
    parameter marginal ``mass`` whose factor sums m_j grow by the ratios
    ratio_j (the rows of the (N, P) ``ratio``, which this overwrites); as
    sum_j ratio_j prod_{i<j} (1 + ratio_i) it is accurate relative to the
    change, not to the mass. Zero-mass tuples add 0.

    Each row becomes its term in place, and one reduction sums the rows. At P
    in the thousands both np.cumprod along axis 0 (P inner loops of N - 1
    entries) and fresh (N, P) temporaries are slower than this pass."""
    with np.errstate(all="ignore"):
        grown = 1.0 + ratio[0]  # prod_{i<=j} (1 + ratio_i) after row j
        for term in ratio[1:]:
            term *= grown
            grown += term
        return float(np.where(mass > 0, mass * ratio.sum(axis=0), 0.0).sum())


def _log_sums_ratio(log_k: np.ndarray, log_s: np.ndarray, log_sums: np.ndarray, grow: np.ndarray, buf: np.ndarray):
    """(K (s o grow)) / (K s) for log_sums = log (K s), 0 where K s is 0: the ratio
    by which K s grows when s grows by the ratio ``grow``; ``buf`` as log_k."""
    np.add(log_k, log_s, out=buf)
    buf -= log_sums[:, None]
    ratio = np.exp(buf, out=buf) @ grow
    ratio[np.isneginf(log_sums)] = 0.0
    return ratio


class _Anderson:
    """Anderson acceleration (Walker & Ni 2011) of a scaling iteration.

    The iterate x holds the log-potentials at positive targets; a plain
    sweep maps it to g(x). ``record`` keeps the last _DEPTH differences of g
    and of f = g - x, with the Gram matrix of the latter, and asks for an
    extrapolation while successive residuals fall by less than _SLOW_RATIO
    (one costs N factor-sum products). ``propose`` returns g - dG gamma for
    the gamma minimizing |f - dF gamma|; ``keep`` takes it only if its dual
    objective sum_j <p_j, log a_j> - mass is at least the plain sweep's (the
    safeguard of Thibault, Chizat, Dossal, Papadakis 2021), with the mass
    change from ``_mass_change``, so that near convergence the test reads
    the step, not rounding. Else the caller restores the plain iterate, and
    the history must refill before the next extrapolation.
    """

    def __init__(self, weights: np.ndarray, what: str):
        """``weights``: the targets at the iterate's entries; the first iterate is 0."""
        n = weights.size
        self.what = what
        self.x = np.zeros(n)
        self.weights = weights
        self.g = self.f = None  # the last sweep's output and residual
        self.dg = np.empty((_DEPTH, n))
        self.df = np.empty((_DEPTH, n))
        self.gram = np.empty((_DEPTH, _DEPTH))
        self.count = self.slot = 0  # columns held, and where the next one goes
        self.need = 1  # columns needed for an extrapolation
        self.last = np.inf  # the last residual
        self.accelerated = self.reverts = 0

    def record(self, g: np.ndarray, residual: float) -> bool:
        """Take the output g of the sweep from self.x and its residual; True to extrapolate."""
        f = g - self.x
        if self.g is not None:
            s = self.slot
            np.subtract(g, self.g, out=self.dg[s])
            np.subtract(f, self.f, out=self.df[s])
            self.count = k = min(self.count + 1, _DEPTH)
            self.slot = (s + 1) % _DEPTH
            self.gram[:k, s] = self.gram[s, :k] = self.df[:k] @ self.df[s]
        self.x, self.g, self.f = g, g, f
        slow = residual > _SLOW_RATIO * self.last
        self.last = residual
        return slow and self.count >= self.need

    def coefficients(self) -> np.ndarray:
        """gamma minimizing |f - dF gamma|, from the normal equations (NaN when singular)."""
        k = self.count
        try:
            return np.linalg.solve(self.gram[:k, :k], self.df[:k] @ self.f)
        except np.linalg.LinAlgError:
            return np.full(k, np.nan)

    def propose(self) -> np.ndarray:
        """The extrapolated iterate g - dG gamma."""
        return self.g - self.coefficients() @ self.dg[: self.count]

    def keep(self, x: np.ndarray, mass_change: float) -> bool:
        """Whether x, whose coupling mass exceeds the plain iterate's by
        ``mass_change``, becomes the iterate: its dual objective must be at
        least the plain one's."""
        step = x - self.g
        gain, shrink = float(self.weights @ step) - mass_change, -step.min()
        if gain >= 0.0 and shrink <= _MAX_SHRINK:
            self.x = x
            self.accelerated += 1
            return True
        self.reverts += 1
        self.count = self.slot = 0
        self.need = _DEPTH
        logger.debug("%s: extrapolation undone: dual objective change %.3e, log shrink %.3g", self.what, gain, shrink)
        return False

    def restart(self, x: np.ndarray, residual: float) -> None:
        """Go on from the iterate x, of marginal residual ``residual``, with no history."""
        self.x, self.g, self.last = x, None, residual
        self.count = self.slot = 0

    def report(self) -> None:
        logger.info("%s: %d extrapolations kept, %d undone", self.what, self.accelerated, self.reverts)


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
    """

    def __init__(self, op: _ExpOperator, a: np.ndarray, m: np.ndarray, targets: np.ndarray):
        n, p, nx = op.shape
        self.op = op
        self.a = a
        self.m = m
        self.targets = targets
        self.a_start = np.empty((n, nx))
        self.phi = np.empty((n, nx))
        self.gap = np.empty((n, nx))
        self.row_l1 = np.empty(n)
        self.ones_x = np.ones(nx)
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
                zero if zero.any() else None, pre_step,
            ))
        self.positive = None if positive.all() else positive
        self.zero = None if positive.all() else ~positive
        self.plain = np.empty_like(a), np.empty_like(m)  # a and m of a plain sweep while an extrapolation is tried
        self.ratio = np.empty_like(m)  # m / m0 of a tried extrapolation

    def update_sums(self) -> None:
        """Factor sums m = K a from the current potentials."""
        for m_j in self.m_calls:
            m_j()

    def in_range(self) -> bool:
        """Whether the potentials of positive targets lie in [_POTENTIAL_LO, _POTENTIAL_HI]."""
        live = self.a if self.positive is None else self.a[self.positive]
        return bool(live.min() >= _POTENTIAL_LO and live.max() <= _POTENTIAL_HI)

    def try_step(self, step: np.ndarray) -> float:
        """Multiply the potentials of positive targets by exp(step), and m = K a with them,
        keeping a and m for ``restore``; returns the change of coupling mass, from the
        changes K_j (a_j o expm1(step_j)) of m (NaN when a leaves the safe range)."""
        a, m = self.a, self.m
        a0, m0 = self.plain
        np.copyto(a0, a)
        np.copyto(m0, m)
        with np.errstate(all="ignore"):
            if self.positive is None:
                a *= np.expm1(step).reshape(a.shape)
            else:
                a[self.positive] *= np.expm1(step)
            self.update_sums()  # the changes of m
            change = _mass_change(np.prod(m0, axis=0), np.divide(m, m0, out=self.ratio))
            a += a0
            m += m0
        return change if self.in_range() else np.nan

    def restore(self) -> None:
        """Undo ``try_step``."""
        np.copyto(self.a, self.plain[0])
        np.copyto(self.m, self.plain[1])


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
    _POTENTIAL_HI], and phi finite where the target is zero. A zero or
    non-finite phi at a positive target puts its potential out of range (a
    NaN fails both comparisons), so phi needs a check of its own only at zero
    targets; phi is never negative, so a maximum below inf means finite. m
    needs none: kernel entries are at most 1 (the kernel set's shift, which
    a FactoredKernelSet's factor_a carries) and potentials at most
    _POTENTIAL_HI, so m_j = K_j a_j stays finite; where factor_a overflows,
    the sums are non-finite from ``_exp_start`` on and the first sweep
    leaves the range. Each row
    of phi and a is written once per sweep, so these checks reject exactly
    what the same checks after each snapshot would, and -1.0 still marks the
    first sweep that leaves the safe range.
    """
    multiply, divide = np.multiply, np.divide
    np.copyto(work.a_start, work.a)
    for left, right, out in work.suffix_steps:
        multiply(left, right, out)
    for w_step, phi_call, phi_j, t_j, a_j, m_call, zero, pre_step in work.steps:
        if w_step is not None:
            multiply(*w_step)
        phi_call()
        divide(t_j, phi_j, out=a_j)
        if zero is not None:
            a_j[zero] = 0.0
        m_call()
        if pre_step is not None:
            multiply(*pre_step)
    gap = multiply(work.a_start, work.phi, work.gap)
    np.subtract(gap, work.targets, gap)
    np.abs(gap, gap)
    rows = gap.dot(work.ones_x, out=work.row_l1).tolist()
    if work.zero is not None and not work.phi[work.zero].max() < np.inf:
        return -1.0
    if not work.in_range():
        return -1.0
    return max(rows)


def _exp_start(op: _ExpOperator, targets: np.ndarray) -> _ExpSweepWork:
    """Exp-domain sweep state on the products ``op`` at potentials 1 and factor sums m = K a."""
    n, p, nx = op.shape
    work = _ExpSweepWork(op, np.ones((n, nx)), np.empty((n, p)), targets)
    with np.errstate(all="ignore"):  # non-finite sums fail the first sweep's range check
        work.update_sums()
    return work


class _Newton:
    """Levenberg-Marquardt-damped Newton steps on the dual (Brauer, Clason,
    Lorenz, Wirth 2017) of an exp-domain sweep state, on the log-potentials
    of positive targets.

    The dual sum_j <p_j, log a_j> - mass has gradient p - Gamma, Gamma_j the
    plan's marginals, and its negative Hessian H has the blocks diag(Gamma_j)
    and the pair marginals Gamma_ij (the operator's ``pair`` with the weights
    w_ij = prod_{k != i, j} m_k); the row sums of Gamma_0j give Gamma_0 and
    Gamma_j. The gauge a_i *= exp(c_i), sum c_i = 0, leaves the plan alone,
    so besides the potentials of zero targets one of each snapshot after the
    first is held, and H is regular on the others. A step solves
    (H + mu diag(H)) s = p - Gamma; a line search halves it until the dual
    rises by _ARMIJO times its slope (the mass change from
    ``_ExpSweepWork.try_step``), no potential leaves the range or shrinks
    past exp(-_MAX_SHRINK), and the products at the new potentials are
    finite. mu is quartered after a full step and quadrupled otherwise. The
    phase ends (``live`` False) after _PATIENCE steps that do not halve its
    lowest residual.
    """

    def __init__(self, work: _ExpSweepWork, targets: np.ndarray):
        n, nx = targets.shape
        self.work = work
        self.targets = targets
        self.weights = targets.ravel()
        self.pos = None if work.positive is None else work.positive.ravel()  # try_step's entries
        # the pairs i < j, (0, j) first, and the k of their w_ij (lists: np.triu_indices
        # costs more on its first call after a fork than the whole phase's setup)
        self.pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self.first, self.second = np.array(self.pairs).T
        self.rest = np.array([[k for k in range(n) if k not in pair] for pair in self.pairs], dtype=int).reshape(len(self.pairs), n - 2)
        # potentials that do not move: those of zero targets, and one of each
        # snapshot after the first (the gauge)
        self.held = targets.ravel() == 0
        self.held[[i * nx + int(np.argmax(targets[i] > 0)) for i in range(1, n)]] = True
        self.mu = _DAMPING
        self.steps = self.idle = 0
        self.state = self._assemble()
        self.best = self.residual = self.state[-1]
        self.live = bool(np.isfinite(self.residual))

    @np.errstate(all="ignore")
    def _assemble(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """At the current potentials: H scaled to a unit diagonal, the gradient
        scaled alike, the scale diag(H)^(-1/2), 0 at held potentials (so their
        rows of H are the identity's and their steps 0), and the marginal
        residual (NaN where the products fail)."""
        work = self.work
        n, nx = work.a.shape
        work.update_sums()  # try_step's m + K (a o expm1(step)) drifts over many steps
        q = work.op.pair(self.first, self.second, np.prod(work.m[self.rest], axis=1), work.a)
        gamma = np.concatenate((q[0].sum(axis=1), q[: n - 1].sum(axis=1).ravel()))
        residual = float(np.abs(gamma.reshape(n, nx) - self.targets).sum(axis=1).max())
        h = np.zeros((n, nx, n, nx))
        h[self.first, :, self.second] = q
        h[self.second, :, self.first] = q.transpose(0, 2, 1)
        h = h.reshape(n * nx, n * nx)
        scale = np.where(self.held, 0.0, 1.0 / np.sqrt(gamma))
        h *= scale
        h *= scale[:, None]
        h.flat[:: n * nx + 1] = 1.0
        if not scale.max() < np.inf:
            residual = np.nan
        return h, (self.weights - gamma) * scale, scale, residual

    def step(self) -> float:
        """One damped step; returns the residual after it."""
        self.steps += 1
        h, rhs, scale, _ = self.state
        h = h.copy()
        h.flat[:: len(scale) + 1] += self.mu
        with np.errstate(all="ignore"):
            try:
                z = np.linalg.solve(h, rhs)
            except np.linalg.LinAlgError:
                z = np.full(len(rhs), np.nan)
        full = z * scale
        slope = float(rhs @ z)
        length, gain = (1.0 if slope > 0.0 else 0.0), np.nan  # a rise is only where the slope is positive
        while length >= _SHORTEST:
            step = length * full
            with np.errstate(all="ignore"):
                gain = float(self.weights @ step) - self.work.try_step(step if self.pos is None else step[self.pos])
            if gain >= _ARMIJO * length * slope and step.min() >= -_MAX_SHRINK:
                state = self._assemble()
                if np.isfinite(state[-1]):
                    self.state, self.residual = state, state[-1]
                    break
            self.work.restore()
            length /= 2.0
        else:
            logger.debug("newton step undone: dual objective change %.3e", gain)
        self.mu = self.mu / 4.0 if length == 1.0 else self.mu * 4.0
        if self.residual < 0.5 * self.best:
            self.best, self.idle = self.residual, 0
        else:
            self.idle += 1
        self.live = self.idle < _PATIENCE
        return self.residual


def _sweep_log(log_kern: np.ndarray, log_a: np.ndarray, log_m: np.ndarray, targets: np.ndarray, log_targets: np.ndarray) -> float:
    """One full log-domain sweep; updates log_a and log_m in place and returns the residual."""
    residual = 0.0
    buf = np.empty(log_kern.shape[1:])
    for j, log_w in enumerate(_log_weights(log_m)):
        log_phi = _log_kernel_sums(log_kern[j], log_w[:, None], 0, buf)
        current = np.exp(log_phi + log_a[j])
        residual = max(residual, float(np.abs(current - targets[j]).sum()))
        positive = targets[j] > 0
        if np.any(np.isneginf(log_phi[positive])):
            raise SolverError(
                "zero marginal projection where the target is positive; "
                "epsilon too small for the cost scale or kernel disconnected"
            )
        log_a[j] = np.where(positive, log_targets[j] - log_phi, -np.inf)
        log_m[j] = _log_kernel_sums(log_kern[j], log_a[j], 1, buf)
    return residual


def _stalled(history: List[float], tol: float, shape: Tuple[int, int, int]) -> bool:
    """Whether sweeps should give way to Newton steps, asked at a kept
    extrapolation (so the last sweep was slow by Anderson's test): whether the
    contraction of the last _WINDOW sweeps projects more sweeps to ``tol``
    than _NEWTON_MULTIPLE Newton steps cost. A step costs its pair products and
    its (N |X|)^3 / 3 solve, over a sweep's 4 N P |X| flops."""
    n, p, nx = shape
    if n < 2 or len(history) <= _WINDOW:
        return False
    cost = (n * (n - 1) * p * nx * nx + (n * nx) ** 3 / 3) / (4 * n * p * nx)
    last, first = history[-1], history[-1 - _WINDOW]
    if last >= first:
        return True
    # sweeps to tol at the window's rate: _WINDOW log(tol / last) / log(last / first)
    return last > tol and _WINDOW * math.log(tol / last) < _NEWTON_MULTIPLE * cost * math.log(last / first)


def sinkhorn_solve(
    kernels: KernelSet,
    targets: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FactoredCoupling:
    """Run multiplicative scaling sweeps until every marginal matches its target.

    ``targets`` holds the target marginal p_j of each snapshot as row j,
    shape (N, |X|). Sweeps cycle snapshots in ascending order, updating
    a_j <- a_j * p_j / P_{y_j}(Gamma), in the exp domain until one leaves
    its range and in the log domain from then on; while they contract
    slowly, each is followed by an Anderson extrapolation of the
    log-potentials, kept only when it raises the dual objective
    (``_Anderson``), and exp-domain sweeps that stall give way to Newton
    steps (``_Newton``), which count against ``max_iter`` as sweeps do.
    Convergence is declared when the max L1 marginal
    violation of the final state is at most tol. Raises SolverError when
    the iteration produces non-finite values or a zero projection where the
    target carries mass (signals epsilon too small).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if targets.shape != (kernels.n_snapshots, kernels.n_support):
        raise ValueError("targets do not match kernel shapes")
    positive = targets > 0
    # exp-domain sweeps while ``work`` is live; log-domain ones on log_a, log_m
    work, log_a, log_m = _exp_start(kernels.exp_operator(), targets), None, None
    # the iterate: log-potentials of the kernels at positive targets, in either domain
    accel = _Anderson(targets[positive], "sinkhorn sweeps")
    log_t = _with_log_zeros(targets)

    history: List[float] = []
    newton: Optional[_Newton] = None  # the Newton phase, from its entry on
    for sweep in range(max_iter):
        if newton is not None and newton.live:
            history.append(res := newton.step())
            if res <= tol and (finish := _finish(kernels, targets, work, log_a, log_m)).residual <= tol:
                iters, ok = sweep + 1, True
                break
            if not newton.live:
                logger.info("newton steps: %d, handed back to sweeps at residual %.3e", newton.steps, res)
                accel.restart(_with_log_zeros(work.a)[positive], res)
            continue
        if work is not None and (res := _sweep_exp_numpy(work)) < 0.0:
            # the sweep left the safe range: redo it in the log domain from its start
            logger.info("switching to log-domain updates after %d sweeps", sweep)
            log_a = _with_log_zeros(work.a_start)
            log_m = _log_factor_sums(kernels.log_kernels, log_a)
            work = None
        if work is None:
            res = _sweep_log(kernels.log_kernels, log_a, log_m, targets, log_t)
        history.append(res)
        # the log sweeps keep log a and log m = log K a exact, so the finish reads them
        if res <= tol and (finish := _finish(kernels, targets, work, log_a, log_m)).residual <= tol:
            iters, ok = sweep + 1, True
            break
        if not accel.record((_with_log_zeros(work.a) if work is not None else log_a)[positive], res):
            continue
        x = accel.propose()
        if work is not None:
            if not accel.keep(x, work.try_step(x - accel.g)):
                work.restore()
            elif newton is None and _stalled(history, tol, work.op.shape):
                logger.info("newton steps after %d sweeps", sweep + 1)
                newton = _Newton(work, targets)
            continue
        grow = np.zeros_like(log_a)
        buf = np.empty(kernels.log_kernels.shape[1:])
        with np.errstate(over="ignore", invalid="ignore"):
            grow[positive] = np.expm1(x - accel.g)
            ratio = np.array([_log_sums_ratio(*args, buf) for args in zip(kernels.log_kernels, log_a, log_m, grow)])
            if accel.keep(x, _mass_change(np.exp(log_m.sum(axis=0)), ratio.copy())):
                log_a[positive] = x
                log_m += np.log1p(ratio)
    else:
        finish, iters, ok = _finish(kernels, targets, work, log_a, log_m), max_iter, False
    accel.report()
    if not np.isfinite(finish.residual):
        raise SolverError("non-finite marginal residual; epsilon too small for the cost scale")
    if not ok:
        logger.warning("sinkhorn stopped at max_iter=%d with residual %.3e", max_iter, finish.residual)
    return FactoredCoupling(
        kernels=kernels,
        log_potentials=finish.log_a,
        converged=ok,
        iterations=iters,
        marginal_residual=finish.residual,
        residual_history=np.asarray(history),
        objective=finish.objective,
        used_log_domain=log_a is not None,
        log_factor_sums=finish.log_m,
        accelerated=accel.accelerated,
        acceleration_reverts=accel.reverts,
        newton_steps=0 if newton is None else newton.steps,
    )


def benchmark_sweep_seconds(
    kernels: KernelSet,
    targets: np.ndarray,
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
    op = kernels.exp_operator()
    best = np.inf
    for _ in range(repeats):
        work = _exp_start(op, targets)
        _sweep_exp_numpy(work)  # warmup
        start = time.perf_counter()
        for _ in range(n_sweeps):
            _sweep_exp_numpy(work)
        best = min(best, (time.perf_counter() - start) / n_sweeps)
    return best
