"""Restricted operators, Dirichlet spectra, and exact heat-kernel solves.

This is the exact backend: the restricted normalized Laplacian L_S of a
connected subset.  Every exact quantity is a scalar function of L_S applied
to one vector, f(L_S) b.  The Green's function solution L_S^-1 b goes
through the operator's ``solve(f)``; the heat-kernel pagerank
(exp(-t lambda)) and the solvers' sums of kernels go through
``apply(fn, f)``.  Below ``KRYLOV_MIN_SIZE`` the operator is
:class:`DirichletOperator`, a dense eigendecomposition that also serves as
the oracle every other component is tested against; from that size on it
is :class:`KrylovOperator`, which keeps the sparse coupling (and L_S
itself where the coupling is dense) and runs Lanczos from f (Saad, SIAM J.
Numer. Anal. 1992): ``apply`` evaluates ``fn`` on the Ritz values and stops
on Saad's a posteriori error estimate, and ``solve`` solves the tridiagonal
system T_k y = e1 in O(k), with no eigensolve, and stops once its residual
is a backward error of one ulp.  Both check the spectrum's structural
bounds eagerly.
"""

from __future__ import annotations

import itertools
import logging
import math
import threading
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .graph import BoundaryProblem, Graph, VertexSubset, _condition_iii, _restrict

log = logging.getLogger(__name__)

__all__ = [
    "DirichletOperator",
    "KrylovOperator",
    "Operator",
    "CapacityError",
    "SpectrumError",
    "DENSE_SIZE_LIMIT",
    "KRYLOV_MIN_SIZE",
    "restricted_laplacian",
    "restricted_operator",
    "greens_function",
    "exact_dirhkpr",
    "exact_local_solution",
]

# The dense s x s Laplacian, and what is built from it (the Green's matrix,
# the matrix dump), is an oracle and small-system tool, not a scalable path.
DENSE_SIZE_LIMIT = 4096
# restricted_operator eigendecomposes the dense L_S below this size and runs
# Lanczos from it on: the crossover measured on grid patches and planted
# communities (CHANGES.md).
KRYLOV_MIN_SIZE = 200
# KrylovOperator multiplies by a dense L_S when s^2 <= _DENSE_SHARE * (coupling
# entries), where one BLAS product beats the sparse gather and bincount
# (crossover table in CHANGES.md), at <= 128 bytes per coupling entry.
_DENSE_SHARE = 16

_EIGENVALUE_FLOOR = 1e-12
_SPECTRUM_SLACK = 1e-8
# The relative accuracy at which an apply stops, checked every _LANCZOS_CHECK
# steps at first: its error estimate beta_k |e_k^T fn(T_k) e1|.  The lambda1
# run's smallest Ritz value settles to it too; a solve stops on its residual.
_LANCZOS_TOL = 1e-13
_LANCZOS_CHECK = 16
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny
# Below this a relative change of _LANCZOS_TOL is smaller than _TINY.
_TINY_ROW = _TINY / _LANCZOS_TOL


class CapacityError(RuntimeError):
    """Requested dense operation exceeds the configured size limit."""


class SpectrumError(RuntimeError):
    """Computed Dirichlet spectrum violates a structural guarantee."""


@dataclass(frozen=True)
class DirichletOperator:
    """The spectrum of the restricted Laplacian L_S of a subset S.

    ``degrees`` are the full-graph degrees of the members of S, in local
    order.  ``eigenvalues`` are ascending with orthonormal ``eigenvectors``
    as columns, so L_S = V diag(lambda) V^T.  Every solve acts with a
    function of L_S through :meth:`apply` or :meth:`solve` and never reads
    the eigenvectors itself.  This is the small-s backend of
    :func:`restricted_operator`, the oracle :class:`KrylovOperator` is
    tested against, and the input of :func:`greens_function`.  Immutable;
    concurrent reads are safe.
    """

    degrees: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def from_subset(cls, graph: Graph, subset: VertexSubset) -> DirichletOperator:
        """Eigendecompose :func:`restricted_laplacian` for S, checking the spectrum."""
        *coupling, degrees = _checked_coupling(graph, subset, dense=True)
        eigenvalues, eigenvectors = np.linalg.eigh(_laplacian(*coupling, subset.size))
        _check_spectrum(eigenvalues, subset.size)
        return cls(degrees, eigenvalues, eigenvectors)

    @property
    def s(self) -> int:
        return len(self.degrees)

    @property
    def lambda1(self) -> float:
        return float(self.eigenvalues[0])

    def apply(self, fn: Callable[[np.ndarray], np.ndarray], f: np.ndarray) -> np.ndarray:
        """fn(L_S) @ f, as V (fn(lambda) * V^T f).

        ``fn`` takes the whole array of eigenvalues and acts elementwise.
        Its output may carry a leading axis of m functions, shape (m, s);
        the result is then (m, s), row i being fn_i(L_S) @ f.
        """
        scaled = fn(self.eigenvalues) * (self.eigenvectors.T @ f)
        return (self.eigenvectors @ scaled.T).T

    def solve(self, f: np.ndarray) -> np.ndarray:
        """L_S^-1 @ f, the Green's function applied to f: ``apply(1/lambda, f)``."""
        return self.apply(np.reciprocal, f)


@dataclass(frozen=True)
class KrylovOperator:
    """The restricted Laplacian L_S of a subset S, kept as its sparse coupling.

    ``rows``, ``cols`` and ``weights`` are the off-diagonal entries of
    :func:`_checked_coupling`, so L_S x = x - bincount(rows, weights * x[cols]).
    ``laplacian`` is L_S itself, dense and read-only, when at least
    1 / _DENSE_SHARE of it is nonzero, and every
    product is then one ``laplacian @ x``; otherwise it is None.
    ``ritz_values`` are the ascending Ritz values of the Lanczos run from
    D^{1/2} 1 that fixed ``lambda1`` (:func:`_lambda1_run`).  Same
    surface as :class:`DirichletOperator`: ``s``, ``degrees``, ``lambda1``,
    :meth:`apply` and :meth:`solve`, in O(|E(S)|) memory (at most 128 bytes
    per coupling entry with the dense L_S) instead of the O(s^2) of an
    eigendecomposition.  :meth:`apply` eigendecomposes the tridiagonal T_k
    at its checkpoints; :meth:`solve` needs no eigenpairs and factors T_k in
    O(k).  The fields are immutable; the one cached state is the Lanczos run
    (:class:`_Run`) of the last vector applied or solved from, so that the
    applies and the solve from one vector share one basis.  Concurrent calls
    are safe: a run is swapped in by one assignment, each call keeps the run
    it started with, and a run is extended only under its lock.
    """

    degrees: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    ritz_values: np.ndarray
    laplacian: np.ndarray | None = None
    _run: _Run | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_subset(cls, graph: Graph, subset: VertexSubset) -> KrylovOperator:
        """The coupling of S and its lambda1 run, checking the Ritz values."""
        *coupling, degrees = _checked_coupling(graph, subset)
        laplacian, ritz_values = _lambda1_run(*coupling, degrees)
        _check_spectrum(ritz_values, subset.size)
        return cls(degrees, *coupling, ritz_values, laplacian)

    @property
    def s(self) -> int:
        return len(self.degrees)

    @property
    def lambda1(self) -> float:
        return float(self.ritz_values[0])

    def apply(self, fn: Callable[[np.ndarray], np.ndarray], f: np.ndarray) -> np.ndarray:
        """fn(L_S) @ f, as ||f|| Q_k fn(T_k) e1 after k Lanczos steps from f.

        ``fn`` is evaluated on the Ritz values, the eigenvalues of the
        tridiagonal T_k, as the dense operator evaluates it on the
        eigenvalues, with the same optional leading axis of m functions.
        k is not fixed: the run stops at the first checkpoint where, for
        every function, c = fn(T_k) e1 passes Saad's a posteriori estimate
        beta_k |c_k| (beta_k couples q_k to the next Lanczos vector) of
        :func:`_error_ratio`, or on breakdown.  That takes one eigensolve of
        T_k per checkpoint, and none past the one it stops at.  From the
        previous apply's vector the checkpoints are replayed, and the run is
        extended only if ``fn`` needs more steps.
        """
        f = np.asarray(f, dtype=np.float64)
        largest = float(np.max(np.abs(f), initial=0.0))
        if largest == 0.0:
            return np.zeros(np.shape(fn(self.ritz_values[:1]))[:-1] + (self.s,))
        run, state = self._run_from(f, largest)
        previous = None
        for i in itertools.count():
            with run.lock:
                state = run.reach(i, state)
                alpha, beta, end = run.checks[i]
                if run.eigenpairs[i] is None:
                    run.eigenpairs[i] = np.linalg.eigh(_tridiagonal(alpha, beta))
            theta, vectors = run.eigenpairs[i]
            estimate, noise = _estimate(fn, theta, vectors)
            bottom = previous is not None and _bottom_settled(theta, previous)
            ratio = _error_ratio(estimate, noise, beta[-1] * estimate[..., -1:], bottom)
            if end or ratio <= 1.0:
                break
            previous = theta
        log.debug("Krylov apply: %d steps, %s run, error estimate %.2g of its limit",
                  theta.size, state, ratio)
        return run.norm * (estimate @ run.basis[:theta.size])

    def solve(self, f: np.ndarray) -> np.ndarray:
        """L_S^-1 @ f, as ||f|| Q_k y with T_k y = e1 after k Lanczos steps from f.

        The Green's function applied to f, with no eigensolve: y comes from
        the LDL^T factors of T_k (the Lanczos-CG equivalence), whose pivots
        the run keeps as it grows, so each checkpoint pays one O(k) back
        substitution.  The run, shared with :meth:`apply`, stops on breakdown
        or at the first checkpoint where the residual ||f|| beta_k |y_k|
        (Hestenes and Stiefel 1952) is at most eps theta_max ||f|| ||y||, with
        theta_max <= ||L_S|| from the lambda1 run: a backward error of one ulp
        (Rigal and Gaches 1967), a forward error of about kappa eps.  That
        residual is the recurrence's, which keeps falling below rounding, so
        the test needs no floor.  A pivot <= 0 means L_S is not positive
        definite and raises :class:`SpectrumError`.
        """
        f = np.asarray(f, dtype=np.float64)
        largest = float(np.max(np.abs(f), initial=0.0))
        if largest == 0.0:
            return np.zeros(self.s)
        run, state = self._run_from(f, largest)
        for i in itertools.count():
            with run.lock:
                state = run.reach(i, state)
                alpha, beta, end = run.checks[i]
                run.factors.extend(alpha, beta)
            y = run.factors.solve(beta, alpha.size)
            ratio = beta[-1] * abs(y[-1]) / (_EPS * self.ritz_values[-1] * np.linalg.norm(y))
            if end or ratio <= 1.0:
                break
        log.debug("Krylov solve: %d steps, %s run, residual %.2g of its limit",
                  y.size, state, ratio)
        return run.norm * (y @ run.basis[:y.size])

    def _run_from(self, f: np.ndarray, largest: float) -> tuple[_Run, str]:
        """The cached run if it started from f, else a new one, swapped in."""
        run = self._run
        if run is not None and np.array_equal(run.start, f):
            return run, "reused"
        run = _Run(self, f, largest)
        object.__setattr__(self, "_run", run)
        return run, "new"


class _Run:
    """A Lanczos run from a copy of f: its basis, its live steps, and per
    checkpoint reached so far the coefficients of T_k with the next
    coupling beta_k, and the end flag (:func:`_lanczos`); the
    eigenpairs of T_k once an apply has needed them; and the LDL^T factors
    of T_k once a solve has."""

    def __init__(self, op: KrylovOperator, f: np.ndarray, largest: float) -> None:
        self.start, self.norm = f.copy(), largest * float(np.linalg.norm(f / largest))
        # Rows 0..size-1 hold q_1, q_2, ...; a grow swaps in a larger copy,
        # so a reader keeps valid rows in the array it read.
        self.basis = np.empty((min(_LANCZOS_CHECK, op.s), op.s))
        self.basis[0], self.size = f / self.norm, 1
        self.checks: list[tuple[np.ndarray, np.ndarray, bool]] = []
        self.eigenpairs: list[tuple[np.ndarray, np.ndarray] | None] = []
        self.factors = _Factors()
        times = _laplacian_times(op.rows, op.cols, op.weights, op.s, op.laplacian)
        self.steps = _lanczos(times, self.basis[0], self._next_row)
        self.lock = threading.Lock()

    def _next_row(self) -> np.ndarray:
        """The basis row the next Lanczos vector is written into, doubling
        the array when it is full."""
        rows, s = self.basis.shape
        if self.size == rows:
            grown = np.empty((min(2 * rows, s), s))
            grown[:rows] = self.basis
            self.basis = grown
        self.size += 1
        return self.basis[self.size - 1]

    def reach(self, i: int, state: str) -> str:
        """Step the run to checkpoint i if it has not got there (under the
        lock), and the run's state for the log: extended if this stepped a
        reused run."""
        if i < len(self.checks):
            return state
        self.checks.append(next(self.steps))
        self.eigenpairs.append(None)
        return "extended" if state == "reused" else state


class _Factors:
    """T_k = L D L^T with L unit lower bidiagonal, grown with the run.

    The pivots d_1 = alpha_1, d_{j+1} = alpha_{j+1} - beta_j^2 / d_j and
    the forward solve z = L^-1 e1, z_{j+1} = -(beta_j / d_j) z_j, depend
    only on the first j coefficients, so they are extended, never
    recomputed, as the run grows.
    """

    def __init__(self) -> None:
        self.pivots: list[float] = []
        self.forward: list[float] = []

    def extend(self, alpha: np.ndarray, beta: np.ndarray) -> None:
        """Factor the steps of T_k not factored yet (under the run's lock)."""
        d, z = self.pivots, self.forward
        if len(d) == alpha.size:
            return
        a, b = alpha.tolist(), beta.tolist()
        for j in range(len(d), len(a)):
            if j == 0:
                pivot, entry = a[0], 1.0
            else:
                ratio = b[j - 1] / d[j - 1]
                pivot = a[j] - b[j - 1] * ratio
                entry = -ratio * z[j - 1]
            if not pivot > 0.0:
                raise SpectrumError(
                    f"Lanczos pivot {pivot!r} at step {j + 1}: L_S is not positive definite")
            d.append(pivot)
            z.append(entry)

    def solve(self, beta: np.ndarray, k: int) -> np.ndarray:
        """T_k^-1 e1 by back substitution through L^T:
        y_j = (z_j - beta_j y_{j+1}) / d_j."""
        d, z, b = self.pivots, self.forward, beta.tolist()
        y = [0.0] * k
        y[k - 1] = last = z[k - 1] / d[k - 1]
        for j in range(k - 2, -1, -1):
            y[j] = last = (z[j] - b[j] * last) / d[j]
        return np.array(y)


# Either backend: both have ``s``, ``degrees``, ``lambda1``, ``apply`` and ``solve``.
Operator = DirichletOperator | KrylovOperator


def _check_spectrum(eigenvalues: np.ndarray, s: int) -> None:
    lam1 = float(eigenvalues[0])
    lam_max = float(eigenvalues[-1])
    if lam1 <= _EIGENVALUE_FLOOR:
        raise SpectrumError(f"restricted Laplacian is numerically singular (lambda1 = {lam1:.3e})")
    if lam_max > 2.0 + _SPECTRUM_SLACK:
        raise SpectrumError(f"eigenvalue above 2: {lam_max!r}")
    if lam1 > 1.0 + _SPECTRUM_SLACK:
        raise SpectrumError(f"bottom eigenvalue above 1: {lam1!r}")
    # Strict lower bound s^-3 < lambda1; for s = 1 the spectrum is exactly
    # {1} so equality is accepted.
    floor = s ** -3
    if lam1 + _EIGENVALUE_FLOOR < floor:
        raise SpectrumError(f"bottom eigenvalue {lam1!r} below the size floor {floor!r}")


def _checked_coupling(
    graph: Graph, subset: VertexSubset, dense: bool = False
) -> tuple[np.ndarray, ...]:
    """The off-diagonal couplings of the restricted adjacency of S and the
    member degrees, once S meets condition (iii) (else L_S may be singular)
    and, for a ``dense`` L_S, s is at most DENSE_SIZE_LIMIT.

    Returns ``(i, j, w, degrees)`` with w = 1 / sqrt(d_i d_j) for every
    ordered pair of adjacent members (i, j), in local indices.
    """
    if dense and subset.size > DENSE_SIZE_LIMIT:
        raise CapacityError(f"subset size {subset.size} exceeds dense limit {DENSE_SIZE_LIMIT}")
    sl = _restrict(graph, subset)
    violation = _condition_iii(subset.size, sl)
    if violation:
        raise ValueError(violation)
    degrees = sl.degrees.astype(np.float64)
    inside = sl.cols >= 0
    i, j = sl.rows[inside], sl.cols[inside]
    return i, j, 1.0 / np.sqrt(degrees[i] * degrees[j]), degrees


def _laplacian(rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, s: int) -> np.ndarray:
    """L_S, dense and read-only, from its off-diagonal coupling."""
    laplacian = np.eye(s)
    laplacian[rows, cols] = -weights
    laplacian.flags.writeable = False
    return laplacian


def _laplacian_times(
    rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, s: int, laplacian: np.ndarray | None
) -> Callable[[np.ndarray], np.ndarray]:
    """x -> L_S x: one BLAS product with the dense ``laplacian`` when there
    is one, else from the off-diagonal coupling, one bincount per product."""
    if laplacian is not None:
        return laplacian.__matmul__

    def times(x: np.ndarray) -> np.ndarray:
        return x - np.bincount(rows, weights=weights * x[cols], minlength=s)

    return times


def _lanczos(
    times: Callable[[np.ndarray], np.ndarray],
    q: np.ndarray,
    rows: Callable[[], np.ndarray] | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray, bool]]:
    """Plain Lanczos on the symmetric operator ``times`` from the unit vector q.

    Yields ``(alpha, beta, end)`` at check points: the diagonal (k entries)
    of the k x k tridiagonal T_k so far, the couplings (k entries: the
    first k - 1 are the off-diagonal of T_k, and beta_k couples q_k to the
    next Lanczos vector), and whether the run must end there, because
    beta_k broke down (at most 2 s eps, the rounding of one product with
    L_S, whose norm is at most 2, so q_1..q_k span an invariant subspace up
    to rounding) or because k reached s, where the Krylov space is the
    whole space.  Check points fall every _LANCZOS_CHECK steps, and once k
    passes 4 * _LANCZOS_CHECK every k / 4 steps, so the O(k^3) eigensolves
    of the checks stay a bounded share of the run.  Writes q_2, q_3, ...
    into the arrays ``rows()`` returns, when given, so a caller can keep
    the basis.
    """
    s = q.size
    alpha: list[float] = []
    beta: list[float] = []
    q_prev, b = np.zeros_like(q), 0.0
    check = _LANCZOS_CHECK
    while True:
        v = times(q)
        v -= b * q_prev
        a = float(q @ v)
        v -= a * q
        b = math.sqrt(v @ v)
        alpha.append(a)
        beta.append(b)
        k = len(alpha)
        end = b <= 2 * s * _EPS or k == s
        if end or k == check:
            yield np.array(alpha), np.array(beta), end
            check += max(_LANCZOS_CHECK, k // 4)
        q_prev, q = q, np.divide(v, b, out=None if rows is None else rows())


def _tridiagonal(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """T_k, dense, from the diagonal alpha and the k couplings beta of a
    :func:`_lanczos` check point: the first k - 1 are its off-diagonal."""
    off = beta[:-1]
    return np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1)


def _lambda1_run(
    rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, degrees: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray]:
    """L_S, dense, when s^2 <= _DENSE_SHARE * (coupling entries), else None,
    and the ascending Ritz values of a Lanczos run on its product from
    D^{1/2} 1, stopped once the smallest settles (:func:`_bottom_settled`).
    The start vector is positive, so it overlaps the Perron vector of
    lambda1, and the smallest Ritz value bounds lambda1 from above."""
    s = degrees.size
    laplacian = _laplacian(rows, cols, weights, s) if s * s <= _DENSE_SHARE * rows.size else None
    times = _laplacian_times(rows, cols, weights, s, laplacian)
    start = np.sqrt(degrees)
    previous = None
    for alpha, beta, end in _lanczos(times, start / np.linalg.norm(start)):
        theta = np.linalg.eigvalsh(_tridiagonal(alpha, beta))
        if end or (previous is not None and _bottom_settled(theta, previous)):
            return laplacian, theta
        previous = theta


def _bottom_settled(theta: np.ndarray, previous: np.ndarray) -> bool:
    """Whether the smallest Ritz value moved by at most _LANCZOS_TOL
    relative since the previous check, or by one ulp of the largest, the
    rounding of the eigensolve itself."""
    return abs(theta[0] - previous[0]) <= _LANCZOS_TOL * theta[0] + _EPS * theta[-1]


def _estimate(
    fn: Callable[[np.ndarray], np.ndarray], theta: np.ndarray, vectors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """fn(T) e1 per function from the eigenpairs of T, and how far adding one
    ulp of the largest Ritz value to every Ritz value moves it (in the
    eigenbasis of T, which keeps norms): the rounding floor of the estimate."""
    k = theta.size
    both = fn(np.concatenate([theta, theta + _EPS * theta[-1]])) * np.tile(vectors[0], 2)
    coefficients = both[..., :k]
    return coefficients @ vectors.T, both[..., k:] - coefficients


def _error_ratio(
    estimate: np.ndarray, noise: np.ndarray, error: np.ndarray, bottom: bool
) -> float:
    """The largest ratio, over the functions, of the norm of ``error`` to
    its limit: _LANCZOS_TOL relative to the estimate, plus its rounding
    floor ``noise`` (at large t, e^{-t lambda} is conditioned only to
    t eps), plus the smallest normal float.  At most 1 means settled.

    ``error`` is beta_k c_k, Saad's estimate of the distance of c =
    fn(T_k) e1 from fn(L_S) f.  Norms are taken of each row divided by its
    largest entry: the squares of an estimate of 1e-200 would underflow to
    0 and pass any test.  A row below _TINY_ROW has no relative accuracy left:
    e^{-t theta} may underflow at the Ritz values reached so far only
    because the smallest has not converged yet, so such a row counts as
    unsettled until the smallest Ritz value has settled (every function
    applied here is largest at the bottom of the spectrum), which ``bottom``
    says.
    """
    largest = np.max(np.abs(estimate), axis=-1, keepdims=True)
    scale = np.where(largest > 0.0, largest, 1.0)

    def norm(x: np.ndarray) -> np.ndarray:
        return np.linalg.norm(x / scale, axis=-1)

    ratio = norm(error) / (_LANCZOS_TOL * norm(estimate) + norm(noise) + _TINY / scale[..., 0])
    if not bottom:
        ratio = np.where(largest[..., 0] < _TINY_ROW, np.inf, ratio)
    return float(np.max(ratio))


def restricted_laplacian(graph: Graph, subset: VertexSubset) -> np.ndarray:
    """The dense s x s restricted normalized Laplacian L_S, read-only.

    Rows and columns of S, degrees from the full graph.  Requires the
    induced subgraph on S to be connected with a nonempty vertex boundary
    (otherwise the restriction may be singular).  Guarded by DENSE_SIZE_LIMIT.
    """
    return _laplacian(*_checked_coupling(graph, subset, dense=True)[:3], subset.size)


def restricted_operator(graph: Graph, subset: VertexSubset) -> Operator:
    """The operator of L_S for S: dense below KRYLOV_MIN_SIZE, Krylov from it on.

    Either one checks that S is connected with a nonempty vertex boundary,
    and checks the spectrum's structural bounds, on
    the eigenvalues or on the Ritz values of the lambda1 run.
    """
    start = time.perf_counter()
    dense = subset.size < KRYLOV_MIN_SIZE
    op = (DirichletOperator if dense else KrylovOperator).from_subset(graph, subset)
    product = "" if dense else (f", {'sparse' if op.laplacian is None else 'dense'} "
                                f"product of {op.rows.size} entries")
    log.info("%s operator: s = %d, lambda1 = %.6g, built in %.4f s%s",
             "dense" if dense else "krylov", op.s, op.lambda1, time.perf_counter() - start,
             product)
    return op


def greens_function(op: DirichletOperator) -> np.ndarray:
    """Green's function of S, the s x s matrix L_S^-1: the sum of
    (1/lambda_i) times each eigenprojection.  Needs the dense operator; past
    KRYLOV_MIN_SIZE build it with :meth:`DirichletOperator.from_subset`."""
    if not isinstance(op, DirichletOperator):
        raise TypeError("the Green's matrix needs the dense DirichletOperator")
    if op.eigenvalues[0] <= _EIGENVALUE_FLOOR:
        raise SpectrumError("cannot invert: eigenvalue at or below the numerical floor")
    return (op.eigenvectors / op.eigenvalues) @ op.eigenvectors.T


def exact_dirhkpr(op: Operator, t: float | np.ndarray, f: np.ndarray) -> np.ndarray:
    """Dirichlet heat kernel pagerank f^T exp(-t * (I - P_S)), exactly.

    Computed as D^{-1/2} exp(-t L_S) D^{1/2} applied on the left, i.e. the
    walk-normalized kernel, through the operator's ``apply``.  ``f`` may
    have entries of any sign; no normalization is performed.  ``t`` is one
    time, or a 1-d array of m times, which gives an (m, s) result from one
    Krylov basis.  t = 0 returns f unchanged.
    """
    times = np.asarray(t, dtype=np.float64)
    if times.ndim > 1 or not np.all(np.isfinite(times) & (times >= 0)):
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (op.s,):
        raise ValueError(f"preference vector has shape {f.shape}, expected ({op.s},)")
    root = np.sqrt(op.degrees)
    rho = op.apply(lambda lam: np.exp(-np.multiply.outer(times, lam)), f * (1.0 / root)) * root
    rho[times == 0] = f
    return rho


def exact_local_solution(
    problem: BoundaryProblem, operator: Operator | None = None
) -> np.ndarray:
    """Exact local solution over S: the Green's function applied to b1.

    Computed as L_S^-1 b1 through the operator's ``solve``, without
    forming the s x s Green's matrix.
    """
    op = operator if operator is not None else restricted_operator(problem.graph, problem.subset)
    return op.solve(problem.b1)
