"""Penalized empirical likelihood (PEL) ratio statistic for a mean vector.

The statistic of a hypothesized mean ``mu`` is

    K_n(mu) = min over the open simplex of
              -sum_i log(n pi_i) + lambda * sum_j delta_j M_j(pi)^2,

with ``M_j(pi) = sum_i pi_i (X_ij - mu_j)`` and per-column weights
``delta_j = 1/s_j^2`` (divisor-n sample variance; constant columns get
``delta_j = 0`` and drop out of the penalty).  The penalty level defaults
to ``lambda = c_star * n / p``.  The objective is strictly convex with a
built-in log barrier, so the minimizer is unique and interior.

One Newton kernel, ``_newton``, finds it for a stack of B same-shape
problems at once and is the one function from a stack to its statistics;
one builder, ``_solve_blocks``, cuts a run of problems into stacks:
``solve_pel`` passes the full sample as a run of one, the subsampling
calibration the overlapping blocks of a curve.  The builder allocates
every array of a run, the stacks and one scratch buffer into which the
caller writes the standardized data of a slice of problems, and its
element budget, ``BLOCK_CHUNK_ELEMENTS``, bounds what a stack holds and
how many problems' n x p data are standardized at once, so that a
curve's linear systems and data take a few MB at any n.  With
G = 2 lambda Ytil Ytil' the penalty equals pi'G pi / 2 and the Hessian is
diag(1/pi^2) + G.  The shape picks the one matrix stack a path holds, a
plain (B, n, k) array, and with it how G v and a Newton step are
computed, and nothing else: for n <= LOWRANK_RATIO p the stack is the
n x n matrices G, and a step forms the bordered (n+1)-dimensional KKT
matrices of the rows it solves, so a stack holds
BLOCK_CHUNK_ELEMENTS // (n+1)^2 problems; above that G, of rank at most
p, is never formed, the stack is the n x p factors sqrt(2 lambda) Ytil,
and a step goes through a p x p capacitance matrix in O(n p^2) time.
Memory therefore grows with n min(n, p).  A step never writes its
stack.  Newton starts each problem where a predictor phase leaves it:
from the uniform weights 1/n, up to PREDICTOR_STEPS inexact Newton steps
that take only products with G and no linear solve, each kept only where
it stays positive and cuts the KKT residual to at most
PREDICTOR_CONTRACTION times the one before (see ``_predictor``).  The
phase computes its steps for the problems still in it, gathered with
their matrices into a smaller stack once at most half of its rows are.
A problem the phase certifies leaves without a linear solve.  The
iteration counts reported, and ``max_newton_iters``, count Newton steps
only, not predictor steps.  Once the squared Newton decrement -g'd is
below 1/16 the step is in the pure-Newton phase of this self-concordant
objective and is taken in full, so convergence does not hinge on
comparing objective values that differ by less than their rounding;
larger steps backtrack to an Armijo decrease.  A problem
leaves the stack once its KKT residual is below ``newton_tol``; one that
Newton leaves unconverged is reported as such.
The builder logs one DEBUG record on this module's logger per run of
problems, a full sample or a curve: its path, shape, problem and stack
counts, the problems certified without a linear solve, total and largest
iteration count, failed problems and largest residual.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError, DomainError

logger = logging.getLogger(__name__)

# Below this squared Newton decrement a step is in the pure-Newton phase of
# the self-concordant objective (Boyd & Vandenberghe 9.6.4): the full step
# stays feasible and passes the Armijo test, so it is taken untested.
FULL_STEP_DECREMENT = 1.0 / 16.0
# The matvec-only predictor phase (``_predictor``) keeps a step only where
# it cuts the KKT residual to at most PREDICTOR_CONTRACTION times the one
# before, and takes at most PREDICTOR_STEPS steps a problem.  Measured on
# replicates 0 and 1 of every cell of table1_{srd,lrd08,lrd01,ne} and of
# table3_power_srd (one BLAS thread, 2-core x86 host, median of 7 runs):
# with 12 steps, fractions 0.25 / 0.5 / 0.75 / 1 took 672 / 666 / 689 /
# 685 ms on the level cells and 273 / 247 / 258 / 244 ms on the power
# cells, and 0.1 doubled the power cells' Newton steps.  0.5 is the
# smallest fraction at the fast end, so a kept step at least halves the
# residual.  With 12 steps every block of the six curves of replicate 0
# of table1_srd at p = 100 and 400 is certified without a linear solve;
# with 8 steps they take 2 batched KKT solves, with 6 steps 6.
PREDICTOR_CONTRACTION = 0.5
PREDICTOR_STEPS = 12
# Sufficient-decrease constant of the backtracking line search.
ARMIJO = 1e-4
# Problems with n > LOWRANK_RATIO * p take Newton steps through the n x p
# factors of G instead of the n x n Gram matrix.  Measured crossover for
# stacks of subsample blocks (one BLAS thread): the two paths cost the same
# near m = 1.3 p at p = 20 and p = 100; at m = 1.6 p the factors are 15%
# faster, at m = 1.2 p 10% slower.
LOWRANK_RATIO = 1.35
# Element budget of the problems ``_solve_blocks`` holds together, bounding
# two counts: a Newton stack of the Gram path, (n+1)^2 a problem (the
# bordered KKT matrix a step forms for each row it solves, next to the
# n x n Gram matrix the stack holds), and a slice of problems whose n x p
# Ytil is formed at once, (n+1)(n+1+p) a problem (the low-rank path's
# stack is one slice, and one scratch buffer holds a slice).  At m = 86 a
# Gram stack holds 21 blocks, and the three curves (m = 22, 43, 86) of an
# n = 200, p = 400 SRD level replicate take 9 stacks.  It is the (n+1)^2
# scale of one full-sample KKT matrix at n = 200, times 4, and does not
# grow with the sample size, so a calibration curve's working memory stays
# a few MB however many blocks it has.
BLOCK_CHUNK_ELEMENTS = 4 * 201**2

__all__ = [
    "DataMatrix",
    "PelConfig",
    "PelSolution",
    "compute_column_stats",
    "solve_pel",
]


@dataclass(frozen=True)
class DataMatrix:
    """An n x p observation matrix with per-column summaries.

    ``delta[j]`` is the inverse of the divisor-n (not n-1) column
    variance, or 0 for a constant column.
    """

    values: np.ndarray
    col_mean: np.ndarray
    delta: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class PelConfig:
    """Penalty level and Newton budget.

    ``lam`` is the penalty factor; when ``None`` it is resolved per data
    set as ``c_star * n / p``.  Tolerances follow the statistic's use in
    log-scale comparisons: the KKT residual (max-norm of the gradient
    projected onto the simplex tangent space) must drop below
    ``newton_tol`` within ``max_newton_iters`` Newton iterations, which
    bounds the steps that solve a linear system and not the predictor
    steps before them.
    """

    c_star: float = 1.0
    lam: float | None = None
    newton_tol: float = 1e-10
    max_newton_iters: int = 100

    def __post_init__(self):
        if not 0 < self.c_star < math.inf:
            raise DomainError(
                f"c_star must be positive and finite, got {self.c_star}")
        if self.lam is not None and not 0 <= self.lam < math.inf:
            raise DomainError(f"lam must be >= 0 and finite, got {self.lam}")
        if not 0 < self.newton_tol < math.inf:
            raise DomainError("newton_tol must be positive and finite, "
                              f"got {self.newton_tol}")
        try:
            operator.index(self.max_newton_iters)
        except TypeError:
            raise DomainError("max_newton_iters must be an integer, "
                              f"got {self.max_newton_iters!r}") from None
        if self.max_newton_iters < 1:
            raise DomainError("max_newton_iters must be positive")

    def penalty(self, n: int, p: int) -> float:
        """The penalty factor lambda_n for an n x p data set."""
        if self.lam is not None:
            return self.lam
        return self.c_star * n / p


@dataclass(frozen=True)
class PelSolution:
    """Optimal simplex weights and the statistic K_n = -log R_n(mu).

    ``iterations`` counts Newton steps, each of which solves a linear
    system; the matvec-only predictor steps before them are not counted,
    so a problem the predictor certifies has 0.
    """

    pi: np.ndarray
    stat: float
    iterations: int
    kkt_residual: float


def _moments(x, out=None):
    """Means, divisor-n variances and delta weights of the columns of ``x``.

    Works on the last two axes, so one (..., n, p) call serves a single
    data matrix or a stack of blocks with the same two-pass formula.  The
    centred squares are written into ``out``, an array of x's shape, when
    it is given.
    """
    n = x.shape[-2]
    mean = np.add.reduce(x, axis=-2) / n
    sq = np.subtract(x, mean[..., None, :], out=out)
    var = np.add.reduce(np.square(sq, out=sq), axis=-2) / n
    # A constant column whose mean does not round back to the constant
    # keeps a variance of rounding size, below (2 n eps mean)^2, and so a
    # huge delta.  Only columns that small are checked for equal entries.
    small = var <= (2 * n * np.finfo(float).eps * mean) ** 2
    if small.any():
        cols = np.moveaxis(x, -2, -1)[small]
        var[small] = np.where(np.all(cols == cols[:, :1], axis=1), 0.0,
                              var[small])
    delta = np.zeros_like(var)
    np.divide(1.0, var, out=delta, where=var > 0)
    return mean, var, delta


def compute_column_stats(values) -> DataMatrix:
    """Build a DataMatrix: column means and delta weights.

    Raises DimensionError for fewer than 2 rows and DomainError for a
    NaN or infinite entry (it makes its column's mean non-finite).
    """
    x = np.array(values, dtype=float)
    if x.ndim != 2:
        raise DimensionError(f"expected a 2-d array, got ndim={x.ndim}")
    n, p = x.shape
    if n < 2:
        raise DimensionError(f"need at least 2 rows, got {n}")
    if p < 1:
        raise DimensionError("need at least 1 column")
    with np.errstate(invalid="ignore", over="ignore"):
        # non-finite entries are reported below, not as warnings
        mean, var, delta = _moments(x)
    bad = ~(np.isfinite(mean) & np.isfinite(var))
    if bad.any():
        raise DomainError(
            f"non-finite mean or variance in column {np.flatnonzero(bad)[0]}")
    for arr in (x, mean, delta):
        arr.setflags(write=False)
    return DataMatrix(values=x, col_mean=mean, delta=delta)


def _checked_mu(mu, p: int) -> np.ndarray:
    """``mu`` as a float array: DimensionError unless its shape is (p,),
    DomainError unless it is finite."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (p,):
        raise DimensionError(f"mu must have shape ({p},), got {mu.shape}")
    if not np.isfinite(mu).all():
        raise DomainError("mu must be finite")
    return mu


def _criterion(pi, gpi):
    """-sum log(n pi) + pi'G pi / 2 for each row of a (B, n) stack.

    ``gpi`` holds the products G pi, G = 2 lambda Ytil Ytil', so the second
    term is the penalty lambda ||Ytil' pi||^2 = lambda sum_j delta_j M_j^2.
    """
    return (-np.sum(np.log(pi.shape[1] * pi), axis=1)
            + 0.5 * np.einsum("ij,ij->i", pi, gpi))


def _matvec(a, v):
    """Row-wise products a[b] @ v[b] of a (B, n, k) stack and a (B, k)
    or (B, k, j) one."""
    if v.ndim == 3:
        return np.matmul(a, v)
    return np.matmul(a, v[:, :, None])[:, :, 0]


def _kkt_solve(kkt, rhs):
    """Solve a stack of linear systems; a singular system's row comes back NaN."""
    try:
        return np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        for b in range(len(kkt)):
            try:
                out[b] = np.linalg.solve(kkt[b], rhs[b])
            except np.linalg.LinAlgError:
                pass
        return out


class _Stack:
    """A Newton stack: ``mat``, a (B, n, k) array with one slice per
    problem, from which a subclass computes G v and the Newton steps."""

    def take(self, rows):
        """The stack of the problems ``rows`` (an index array or a boolean
        mask) alone, of the same kind and in a copy of their slices of
        ``mat``; this stack is left as it is."""
        # not through __init__, which would scale the copy again
        part = object.__new__(type(self))
        part.mat = self.mat[rows]
        return part


class _GramStep(_Stack):
    """Newton steps from ``mat``, the (B, n, n) stack of the Gram matrices
    G_b = 2 lambda Ytil_b Ytil_b', given as Ytil_b Ytil_b' and scaled in
    place.

    G v reads ``mat``.  A step forms the bordered KKT matrices
    [[G_b + diag(1/x^2), 1], [1', 0]] of the active rows in a fresh stack
    and solves them in one batched call, so ``mat`` is only read.  O(n^3)
    time and O(n^2) memory per problem, the right size when n is not much
    above p.
    """

    name = "gram"

    def __init__(self, gram, lam):
        gram *= 2.0 * lam
        self.mat = gram

    def matvec(self, v):
        return _matvec(self.mat, v)

    def step(self, x, grad):
        b, n = x.shape
        kkt = np.empty((b, n + 1, n + 1))
        kkt[:, :n, :n] = self.mat
        kkt[:, :n, n] = kkt[:, n, :n] = 1.0
        kkt[:, n, n] = 0.0
        # entry (i, i) of a flattened (n+1) x (n+1) matrix is i (n+2)
        kkt.reshape(b, -1)[:, :n * (n + 2):n + 2] += x ** -2
        rhs = np.zeros((b, n + 1, 1))
        rhs[:, :n, 0] = -grad
        return _kkt_solve(kkt, rhs)[:, :n, 0]


class _LowRankStep(_Stack):
    """Newton steps from ``mat``, the (B, n, p) stack of the factors
    U_b = sqrt(2 lambda) Ytil_b, given as Ytil_b and scaled in place.

    G_b = U_b U_b' has rank at most p and is never formed: G v is U (U'v).
    A step costs O(n p^2) time and O(n p) memory per problem, through the
    p x p capacitance matrix of the matrix inversion lemma (Boyd &
    Vandenberghe, App. C.4).

    On the tangent space 1'd = 0 the Hessian diag(pi^-2) + U U' acts as
    H = diag(pi^-2) + Uc Uc' with the centered factor Uc = U - 1 a',
    a = U' pi^2 / ||pi||^2.  Then Uc' pi^2 = 0, so H^-1 1 = pi^2 and the
    border eliminates in closed form: nu = -pi^2'g / ||pi||^2.  With
    V = diag(pi) Uc and z = pi (g + nu),

        d = -pi (z - V (I + V'V)^-1 V'z).

    Centering keeps V free of the near-multiple of pi that U carries when
    mu lies far from the data, which would otherwise make I + V'V
    ill-conditioned.  The gradient is centered before it is scaled, and z
    and the result are projected off pi explicitly, so 1'd = 0 holds to
    rounding however large the gradient entries are.
    """

    name = "lowrank"

    def __init__(self, ytil, lam):
        ytil *= np.sqrt(2.0 * lam)
        self.mat = ytil

    def matvec(self, v):
        return _matvec(self.mat, _matvec(self.mat.transpose(0, 2, 1), v))

    def step(self, x, grad):
        p = self.mat.shape[2]
        x2 = x * x
        norm2 = np.add.reduce(x2, axis=1, keepdims=True)
        a = _matvec(self.mat.transpose(0, 2, 1), x2) / norm2
        v = x[:, :, None] * (self.mat - a[:, None, :])
        vt = v.transpose(0, 2, 1)
        cap = np.matmul(vt, v)
        cap.reshape(len(x), -1)[:, :: p + 1] += 1.0

        def off_pi(w):
            return w - x * (np.einsum("ij,ij->i", x, w)[:, None] / norm2)

        mean = np.add.reduce(grad, axis=1, keepdims=True) / grad.shape[1]
        z = off_pi(x * (grad - mean))
        w = z - _matvec(v, _kkt_solve(cap, _matvec(vt, z)[:, :, None])[:, :, 0])
        return -x * off_pi(w)


def _step_lengths(pi, d, gpi, matvec, dec):
    """Step length of each row of the stack along its Newton direction ``d``.

    A row whose squared Newton decrement ``dec`` is below
    FULL_STEP_DECREMENT takes the full step.  The others backtrack from
    the largest step that keeps pi > 0 until the Armijo condition holds.
    Along the step the objective changes by -sum log1p(t d/pi) + t d'G pi
    + t^2 d'G d / 2, which is accurate however small the change; d'G d is
    d (G d) from the stack's ``matvec``, called only when a row
    backtracks.  Returns NaN where the decrement is not finite or
    backtracking gave out.  Runs under ``_newton``'s error state.
    """
    finite = np.isfinite(dec)
    t = np.where(finite, 1.0, np.nan)
    damped = finite & ((dec >= FULL_STEP_DECREMENT)
                       | np.any(pi + d <= 0, axis=1))
    if not damped.any():
        return t
    rows = np.flatnonzero(damped)
    pr, dr = pi[rows], d[rows]
    quad = np.einsum("ij,ij->i", matvec(d), d)[rows]
    lin = np.einsum("ij,ij->i", gpi[rows], dr)
    slope = np.minimum(-dec[rows], 0.0)
    t[rows] = np.minimum(
        1.0, 0.99 * np.where(dr < 0, -pr / dr, np.inf).min(axis=1))
    todo = np.arange(rows.size)
    while todo.size:
        tk = t[rows[todo]]
        step = tk[:, None] * dr[todo] / pr[todo]
        change = (-np.sum(np.log1p(step), axis=1) + tk * lin[todo]
                  + 0.5 * tk * tk * quad[todo])
        ok = (np.all(step > -1.0, axis=1)
              & (change <= ARMIJO * tk * slope[todo]))
        todo = todo[~ok]
        t[rows[todo]] *= 0.5
        gave_out = t[rows[todo]] <= 1e-14
        t[rows[todo[gave_out]]] = np.nan
        todo = todo[~gave_out]
    return t


def _residual(x, gpi):
    """The gradient -1/x + G x of each row of the stack, given G x, and its
    KKT residual: the max-norm of its projection onto 1'd = 0."""
    grad = gpi - 1.0 / x
    centred = grad - np.add.reduce(grad, axis=1, keepdims=True) / x.shape[1]
    return grad, np.maximum.reduce(np.abs(centred, out=centred), axis=1)


def _predictor(lin, tol):
    """Where Newton starts each row: the uniform weights x0 = 1/n, moved
    by up to PREDICTOR_STEPS inexact Newton steps that take only products
    with G and no linear solve (Dembo, Eisenstat & Steihaug 1982).

    At x the Hessian is P^-1 (I + PGP) P^-1 with P = diag(x), and PGP is
    small next to I in most problems, so the two-term Neumann series
    M = P (I - PGP) P stands in for its inverse.  With g the gradient at
    x and M r = x^2 (r - G (x^2 r)),

        v = M g,  w = M 1,  nu = -sum v / sum w,  x' = x - (v + nu w),

    and x' is renormalized to sum to 1, as a Newton iterate is.  A row
    keeps x' only where x' > 0 and its KKT residual at x' is at most
    PREDICTOR_CONTRACTION times that at x.  A row leaves the phase at its
    first rejected step, a non-finite one included, once its residual is
    below ``tol`` or after PREDICTOR_STEPS kept steps.  A step costs two
    passes over G, one product with the pair (x^2 g, x^2) for M and one
    for G x'.  It is computed for the working rows, at first the whole
    stack; once at most half of them are still in the phase, those are
    gathered, with their slices of G (``take``), into a smaller working
    set, and the results of the rows left behind are written back.  Every
    row moves as it would alone.  Returns (x, G x, steps), one row or
    entry per problem, ``steps`` counting the kept steps.
    """
    n_rows, n = lin.mat.shape[:2]
    x = np.full((n_rows, n), 1.0 / n)
    gpi = lin.matvec(x)
    grad, res = _residual(x, gpi)
    steps = np.zeros(n_rows, dtype=int)
    out, rows = (x, gpi, steps), None

    def write_back():
        if rows is not None:
            for whole, part in zip(out, (x, gpi, steps)):
                whole[rows] = part

    active = res >= tol
    for _ in range(PREDICTOR_STEPS):
        n_active = np.count_nonzero(active)
        if not n_active:
            break
        if 2 * n_active <= len(active):
            # each gather at least halves the working rows, so all of them
            # together copy at most one stack
            write_back()
            rows = np.flatnonzero(active) if rows is None else rows[active]
            x, gpi, grad, res, steps = (
                a[active] for a in (x, gpi, grad, res, steps))
            lin = lin.take(active)
            active = np.ones(n_active, dtype=bool)
        pair = np.empty((*x.shape, 2))
        x2 = np.multiply(x, x, out=pair[:, :, 1])
        np.multiply(x2, grad, out=pair[:, :, 0])
        g_pair = lin.matvec(pair)
        v = x2 * (grad - g_pair[:, :, 0])
        w = x2 * (1.0 - g_pair[:, :, 1])
        minus_nu = np.add.reduce(v, axis=1) / np.add.reduce(w, axis=1)
        x1 = x - (v - minus_nu[:, None] * w)
        x1 /= np.add.reduce(x1, axis=1, keepdims=True)
        gpi1 = lin.matvec(x1)
        grad1, res1 = _residual(x1, gpi1)
        keep = (active & (x1 > 0).all(axis=1)
                & (res1 <= PREDICTOR_CONTRACTION * res))
        for old, new in ((x, x1), (gpi, gpi1), (grad, grad1)):
            np.copyto(old, new, where=keep[:, None])
        np.copyto(res, res1, where=keep)
        steps += keep
        active = keep & (res1 >= tol)
    write_back()
    return out


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _newton(lin, cfg: PelConfig):
    """Feasible-start Newton on a stack of B same-shape problems: the one
    function from a stack to its statistics.

    ``lin`` (a _GramStep or a _LowRankStep) holds in ``lin.mat`` a
    (B, n, k) array that defines the matrices G_b = 2 lambda Ytil_b Ytil_b',
    so that row b minimizes -sum log(n pi) + pi'G_b pi / 2, whose Hessian
    is diag(1/pi^2) + G_b; it computes only the products G v (``matvec``)
    and the Newton steps (``step``), neither of which writes ``mat``.  The
    problems' size n is ``mat.shape[1]``, and a problem has a penalty
    where its slice of ``mat`` is nonzero, read before any row leaves.
    This loop drops the rows that leave the stack with ``lin.take``, in
    one indexing operation.  It runs, predictor included, with numpy's
    divide, invalid and overflow warnings off: a non-finite value fails
    its row, which is reported through the return values.
    Every row starts where ``_predictor`` leaves it, and G x at the start
    comes from the predictor too.  The iteration counts returned are
    Newton steps, each with a linear solve, and ``max_newton_iters``
    bounds them alone: a row the predictor certifies retires at iteration
    0, and the predictor's kept steps come back as their own count.  Both
    kinds share this loop, its step rule and its stopping rule; each
    iteration takes the Newton steps of the rows still active in one
    batched call.  A row leaves the stack once its KKT residual is below
    ``newton_tol`` (converged) or its step fails: a singular system, a
    non-finite decrement or a line search that gave out.  Its criterion is evaluated
    as it leaves, from the x and G x in hand.  A tiny negative is snapped
    to 0, and a row whose G is zero (lambda = 0 or every delta = 0) has no
    penalty: the uniform weights are optimal and K_n is exactly 0.

    Returns (pi, stat, iterations, converged, residual, predictor steps),
    one entry per row; where ``converged`` is False, ``pi`` is the best
    iterate and ``stat`` is not a statistic.
    """
    n_rows, n = lin.mat.shape[:2]
    penalized = lin.mat.any(axis=(1, 2))
    max_iters = cfg.max_newton_iters
    iterations = np.full(n_rows, max_iters)
    converged = np.zeros(n_rows, dtype=bool)
    residual = np.full(n_rows, np.inf)
    pi, stat = np.empty((n_rows, n)), np.empty(n_rows)
    rows = np.arange(n_rows)
    x, gpi, steps = _predictor(lin, cfg.newton_tol)

    def retire(mask, it, *arrays):
        """Record the rows in ``mask`` as finished at iteration ``it`` with
        the current x and its criterion, drop them from the stack, and
        return the kept rows of ``rows``, ``x`` and each of ``arrays``."""
        nonlocal lin
        finished = rows[mask]
        pi[finished] = x[mask]
        stat[finished] = _criterion(x[mask], gpi[mask])
        iterations[finished] = it
        keep = ~mask
        # the stack shrinks only when a row leaves it, so with B = 1 the
        # matrices are never copied
        lin = lin.take(keep)
        return [a[keep] for a in (rows, x, *arrays)]

    for it in range(max_iters + 1):
        grad, res = _residual(x, gpi)
        residual[rows] = res
        done = res < cfg.newton_tol
        converged[rows] = done
        done |= it == max_iters
        if done.any():
            rows, x, grad, gpi = retire(done, it, grad, gpi)
            if not rows.size:
                break
        d = lin.step(x, grad)
        # the squared Newton decrement: -g'd equals d'Hd at the KKT solution
        dec = -np.einsum("ij,ij->i", grad, d)
        t = _step_lengths(x, d, gpi, lin.matvec, dec)
        failed = np.isnan(t)
        if failed.any():
            rows, x, d, t = retire(failed, it, d, t)
            if not rows.size:
                break
        x = x + t[:, None] * d
        x /= np.add.reduce(x, axis=1, keepdims=True)
        gpi = lin.matvec(x)
    stat[(stat > -1e-9) & (stat < 0)] = 0.0
    stat[~penalized] = 0.0
    return pi, stat, iterations, converged, residual, steps


def _solve_blocks(ytil_of, n_blocks, n, p, lam, cfg: PelConfig):
    """Minimize the PEL criterion of ``n_blocks`` same-shape problems, a
    Newton stack at a time; the one place Newton stacks are built.

    ``ytil_of(lo, hi, out)`` writes the Ytil_b = (X_b - mu) sqrt(delta_b)
    of problems lo..hi-1 into ``out``, a (hi - lo, n, p) array, and
    returns it; ``lam`` is their penalty factor.  This builder allocates
    every array of the run: one ``out`` buffer, sized for the largest
    slice and rewritten by each call, and the Newton stacks.
    BLOCK_CHUNK_ELEMENTS sizes the stacks and the slices.  On the low-rank
    path Newton holds the factors themselves, scaled in the buffer, so a
    stack is one slice.  On the Gram path a stack is the (B, n, n) array
    of Ytil Ytil', written slice by slice.

    Logs one DEBUG record for the whole run: the path, n, p, the number
    of problems and of stacks, the number certified without a linear
    solve (by the predictor, at Newton iteration 0), the total and the
    largest iteration count, the number of problems Newton left
    unconverged and the largest residual.

    Returns (stat, iterations, converged, residual, predictor steps), one
    entry per problem as from ``_newton``, then the weights of the last
    problem.  Only the last weights are kept: ``solve_pel`` has one
    problem, and a curve that kept the weights of all its n - m + 1 blocks
    would hold memory that grows with n m.
    """
    kind = _LowRankStep if n > LOWRANK_RATIO * p else _GramStep
    per_slice = max(1, BLOCK_CHUNK_ELEMENTS // ((n + 1) * (n + 1 + p)))
    per_stack = (per_slice if kind is _LowRankStep
                 else max(1, BLOCK_CHUNK_ELEMENTS // (n + 1) ** 2))
    buf = np.empty((min(per_slice, n_blocks), n, p))
    out = (np.empty(n_blocks), np.empty(n_blocks, dtype=int),
           np.empty(n_blocks, dtype=bool), np.empty(n_blocks),
           np.empty(n_blocks, dtype=int))
    for lo in range(0, n_blocks, per_stack):
        hi = min(lo + per_stack, n_blocks)
        if kind is _LowRankStep:
            lin = _LowRankStep(ytil_of(lo, hi, buf[:hi - lo]), lam)
        else:
            gram = np.empty((hi - lo, n, n))
            for s in range(lo, hi, per_slice):
                end = min(s + per_slice, hi)
                ytil = ytil_of(s, end, buf[:end - s])
                # an overflow leaves inf in G, and Newton reports its row
                # unconverged
                with np.errstate(over="ignore"):
                    np.matmul(ytil, ytil.transpose(0, 2, 1),
                              out=gram[s - lo:end - lo])
            lin = _GramStep(gram, lam)
        pi, *parts = _newton(lin, cfg)
        for whole, part in zip(out, parts):
            whole[lo:hi] = part
    if logger.isEnabledFor(logging.DEBUG):
        _, iters, ok, res, _ = out
        logger.debug(
            "newton: path=%s n=%d p=%d problems=%d stacks=%d "
            "certified_without_solve=%d iterations=%d max_iterations=%d "
            "failed=%d max_residual=%.3e", kind.name, n, p, n_blocks,
            math.ceil(n_blocks / per_stack), np.sum(ok & (iters == 0)),
            iters.sum(), iters.max(), n_blocks - ok.sum(), res.max())
    return (*out, pi[-1])


def solve_pel(data: DataMatrix, mu, cfg: PelConfig) -> PelSolution:
    """Minimize the PEL criterion over the open simplex.

    Parameters
    ----------
    data : DataMatrix
        Observations with precomputed column stats.
    mu : array_like, shape (p,)
        Hypothesized mean.
    cfg : PelConfig
        Penalty and solver settings.

    Returns
    -------
    PelSolution
        Unique minimizer (strict convexity), the statistic, and solver
        diagnostics.  Raises ConvergenceError, carrying Newton's best
        weights and residual, if Newton does not reach ``newton_tol``
        within ``max_newton_iters`` Newton steps; its message counts those
        steps, not the predictor's.
    """
    n, p = data.n, data.p
    mu = _checked_mu(mu, p)
    stat, iters, ok, res, _, pi = _solve_blocks(
        lambda lo, hi, out: np.multiply(data.values - mu,
                                        np.sqrt(data.delta), out=out),
        1, n, p, cfg.penalty(n, p), cfg)
    res = float(res[0])
    if not ok[0]:
        raise ConvergenceError(
            f"PEL solver did not reach tol={cfg.newton_tol:g} "
            f"(residual {res:.3e} after {iters[0]} iterations)",
            best_pi=pi, residual=res,
        )
    return PelSolution(pi=pi, stat=float(stat[0]), iterations=int(iters[0]),
                       kkt_residual=res)
