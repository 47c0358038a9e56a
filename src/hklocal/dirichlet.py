"""Restricted operators, Dirichlet spectra, and exact heat-kernel solves.

This is the exact backend: the restricted normalized Laplacian L_S of a
connected subset.  Every exact quantity is a scalar function of L_S applied
to one vector, f(L_S) b, and goes through the operator's ``apply(fn, f)``:
the Green's function solution (1 / lambda), the heat-kernel pagerank
(exp(-t lambda)), and the solvers' sums of kernels.  Below
``KRYLOV_MIN_SIZE`` the operator is :class:`DirichletOperator`, a dense
eigendecomposition that also serves as the oracle every other component is
tested against; from that size on it is :class:`KrylovOperator`, which keeps
only the sparse coupling and evaluates ``fn`` on the Ritz values of a
Lanczos run (Saad, SIAM J. Numer. Anal. 1992).  Both check the spectrum's
structural bounds eagerly.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .graph import (
    BoundaryProblem,
    Graph,
    VertexSubset,
    _is_connected,
    _restrict,
    _Slice,
)

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
    "apply_heat_kernel",
    "exact_dirhkpr",
    "exact_local_solution",
    "estimate_lambda1",
]

# The dense s x s Laplacian, and what is built from it (the Green's matrix,
# the matrix dump), is an oracle and small-system tool, not a scalable path.
DENSE_SIZE_LIMIT = 4096
# restricted_operator eigendecomposes the dense L_S below this size and runs
# Lanczos from it on: the crossover measured on grid patches and planted
# communities (CHANGES.md).
KRYLOV_MIN_SIZE = 200

_EIGENVALUE_FLOOR = 1e-12
_SPECTRUM_SLACK = 1e-8
# Lanczos stops when two successive estimates of fn(T_k) e1 agree to this
# relative tolerance; it compares them every _LANCZOS_CHECK steps at first.
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
    function of L_S through :meth:`apply` and never reads the eigenvectors
    itself.  This is the small-s backend of :func:`restricted_operator`,
    the oracle :class:`KrylovOperator` is tested against, and the input of
    :func:`greens_function`.  Immutable; concurrent reads are safe.
    """

    subset: VertexSubset
    degrees: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def from_subset(cls, graph: Graph, subset: VertexSubset) -> DirichletOperator:
        """Eigendecompose :func:`restricted_laplacian` for S, checking the spectrum."""
        eigenvalues, eigenvectors = np.linalg.eigh(restricted_laplacian(graph, subset))
        _check_spectrum(eigenvalues, subset.size)
        return cls(subset, _degrees(graph, subset), eigenvalues, eigenvectors)

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


@dataclass(frozen=True)
class KrylovOperator:
    """The restricted Laplacian L_S of a subset S, kept as its sparse coupling.

    ``rows``, ``cols`` and ``weights`` are the off-diagonal entries of
    :func:`_coupling`, so L_S x = x - bincount(rows, weights * x[cols]).
    ``ritz_values`` are the ascending Ritz values of the Lanczos run from
    D^{1/2} 1 that fixed ``lambda1`` (see :func:`estimate_lambda1`).  Same
    surface as :class:`DirichletOperator`: ``s``, ``degrees``, ``lambda1``
    and :meth:`apply`, in O(|E(S)|) memory instead of O(s^2).  The fields
    are immutable; the one cached state is the Lanczos run (:class:`_Run`)
    of the last vector applied from, so that applies from one vector share
    one basis.  Concurrent applies are safe: a run is swapped in by one
    assignment, each apply keeps the run it started with, and a run is
    extended only under its lock.
    """

    degrees: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    ritz_values: np.ndarray
    _run: _Run | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_subset(cls, graph: Graph, subset: VertexSubset) -> KrylovOperator:
        """The coupling of S and its lambda1 run, checking the Ritz values."""
        degrees = _degrees(graph, subset)
        coupling = _checked_coupling(graph, subset)
        ritz_values = _ritz_values(_laplacian_times(*coupling, subset.size), np.sqrt(degrees))
        _check_spectrum(ritz_values, subset.size)
        return cls(degrees, *coupling, ritz_values)

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
        k is not fixed: the run stops when successive estimates of
        fn(T_k) e1 agree (:func:`_settled`), or on breakdown.  From the
        previous apply's vector the checkpoints are replayed, and the run is
        extended only if ``fn`` needs more steps.
        """
        f = np.asarray(f, dtype=np.float64)
        largest = float(np.max(np.abs(f), initial=0.0))
        if largest == 0.0:
            return np.zeros(np.shape(fn(self.ritz_values[:1]))[:-1] + (self.s,))
        run, state = self._run, "reused"
        if run is None or not np.array_equal(run.start, f):
            run, state = _Run(self, f, largest), "new"
            object.__setattr__(self, "_run", run)
        previous = None
        for i in itertools.count():
            with run.lock:
                if i == len(run.checks):
                    tridiagonal, end = next(run.steps)
                    run.checks.append((*np.linalg.eigh(tridiagonal), end))
                    state = "extended" if state == "reused" else state
            theta, vectors, end = run.checks[i]
            estimate, noise = _estimate(fn, theta, vectors)
            if end or (previous is not None and _settled(estimate, noise, theta, *previous)):
                break
            previous = estimate, theta
        log.debug("Krylov apply: %d steps, %s run", theta.size, state)
        return run.norm * (estimate @ np.array(run.basis[:theta.size]))


class _Run:
    """A Lanczos run from a copy of f: its basis, its live steps, and the
    eigenpairs of T_k with the end flag per checkpoint reached so far."""

    def __init__(self, op: KrylovOperator, f: np.ndarray, largest: float) -> None:
        self.start, self.norm = f.copy(), largest * float(np.linalg.norm(f / largest))
        self.basis: list[np.ndarray] = []
        self.checks: list[tuple[np.ndarray, np.ndarray, bool]] = []
        times = _laplacian_times(op.rows, op.cols, op.weights, op.s)
        self.steps = _lanczos(times, f / self.norm, self.basis)
        self.lock = threading.Lock()


# Either backend: both have ``s``, ``degrees``, ``lambda1`` and ``apply``.
Operator = DirichletOperator | KrylovOperator


def _degrees(graph: Graph, subset: VertexSubset) -> np.ndarray:
    return graph.degrees[subset.members].astype(np.float64)


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


def _coupling(graph: Graph, subset: VertexSubset, sl: _Slice) -> tuple[np.ndarray, ...]:
    """The off-diagonal couplings of the restricted adjacency of S.

    Returns ``(i, j, w)`` with w = 1 / sqrt(d_i d_j) for every ordered pair
    of adjacent members (i, j), in local indices.
    """
    degrees = _degrees(graph, subset)
    if np.any(degrees == 0):
        raise ValueError("subset contains isolated vertices")
    inside = sl.cols >= 0
    i, j = sl.rows[inside], sl.cols[inside]
    return i, j, 1.0 / np.sqrt(degrees[i] * degrees[j])


def _checked_coupling(graph: Graph, subset: VertexSubset) -> tuple[np.ndarray, ...]:
    """:func:`_coupling` of S, once S is known to be nonempty and connected
    with a nonempty vertex boundary (otherwise L_S may be singular)."""
    if subset.size == 0:
        raise ValueError("empty subset")
    sl = _restrict(graph, subset)
    if not _is_connected(subset.size, sl):
        raise ValueError("induced subgraph on S is not connected")
    if not np.any(sl.cols < 0):
        raise ValueError("vertex boundary of S is empty")
    return _coupling(graph, subset, sl)


def _laplacian_times(
    rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, s: int
) -> Callable[[np.ndarray], np.ndarray]:
    """x -> L_S x from the off-diagonal coupling, one bincount per product."""

    def times(x: np.ndarray) -> np.ndarray:
        return x - np.bincount(rows, weights=weights * x[cols], minlength=s)

    return times


def _lanczos(
    times: Callable[[np.ndarray], np.ndarray], q: np.ndarray, basis: list | None = None
) -> Iterator[tuple[np.ndarray, bool]]:
    """Plain Lanczos on the symmetric operator ``times`` from the unit vector q.

    Yields ``(T_k, end)`` at check points: the k x k tridiagonal so far, and
    whether the run must end there, because the next coupling broke down
    (below eps, so q_1..q_k span an invariant subspace up to rounding) or
    because k reached s, where the Krylov space is the whole space.  Check
    points fall every _LANCZOS_CHECK steps, and once k passes
    4 * _LANCZOS_CHECK every k / 4 steps, so the O(k^3) eigensolves of the
    checks stay a bounded share of the run.  Appends q_1, q_2, ... to
    ``basis`` when one is given.
    """
    s = q.size
    alpha: list[float] = []
    beta: list[float] = []
    q_prev, b = np.zeros_like(q), 0.0
    check = _LANCZOS_CHECK
    while True:
        if basis is not None:
            basis.append(q)
        v = times(q) - b * q_prev
        a = float(q @ v)
        v -= a * q
        b = float(np.linalg.norm(v))
        alpha.append(a)
        k = len(alpha)
        end = b <= _EPS or k == s
        if end or k == check:
            yield np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1), end
            check += max(_LANCZOS_CHECK, k // 4)
        beta.append(b)
        q_prev, q = q, v / b


def _ritz_values(times: Callable[[np.ndarray], np.ndarray], start: np.ndarray) -> np.ndarray:
    """Ascending Ritz values of a Lanczos run from ``start``, stopped once
    the smallest settles (:func:`_bottom_settled`)."""
    previous = None
    for tridiagonal, end in _lanczos(times, start / np.linalg.norm(start)):
        theta = np.linalg.eigvalsh(tridiagonal)
        if end or (previous is not None and _bottom_settled(theta, previous)):
            return theta
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


def _settled(
    estimate: np.ndarray,
    noise: np.ndarray,
    theta: np.ndarray,
    previous: np.ndarray,
    previous_theta: np.ndarray,
) -> bool:
    """Whether every function's estimate changed since the previous check by
    at most _LANCZOS_TOL relative, plus its rounding floor ``noise`` (at
    large t, e^{-t lambda} is conditioned only to t eps), plus the smallest
    normal float.

    Norms are taken of each row divided by its largest entry: the squares of
    an estimate of 1e-200 would underflow to 0 and pass any test.  A row
    below _TINY_ROW has no relative accuracy left: e^{-t theta} may
    underflow at the Ritz values reached so far only because the smallest
    has not converged yet, so such a row also waits for the smallest Ritz
    value to settle (every function applied here is largest at the bottom
    of the spectrum).
    """
    change = estimate.copy()
    change[..., :previous.shape[-1]] -= previous
    largest = np.max(np.abs(estimate), axis=-1, keepdims=True)
    scale = np.where(largest > 0.0, largest, 1.0)

    def norm(x: np.ndarray) -> np.ndarray:
        return np.linalg.norm(x / scale, axis=-1)

    limit = _LANCZOS_TOL * norm(estimate) + norm(noise) + _TINY / scale[..., 0]
    tiny_rows = largest[..., 0] < _TINY_ROW
    settled = (norm(change) <= limit) & (~tiny_rows | _bottom_settled(theta, previous_theta))
    return bool(np.all(settled))


def restricted_laplacian(graph: Graph, subset: VertexSubset) -> np.ndarray:
    """The dense s x s restricted normalized Laplacian L_S.

    Rows and columns of S, degrees from the full graph.  Requires the
    induced subgraph on S to be connected with a nonempty vertex boundary
    (otherwise the restriction may be singular) and every member to have
    positive degree.  Guarded by DENSE_SIZE_LIMIT.
    """
    s = subset.size
    if s > DENSE_SIZE_LIMIT:
        raise CapacityError(f"subset size {s} exceeds dense limit {DENSE_SIZE_LIMIT}")
    i, j, w = _checked_coupling(graph, subset)
    lap = np.eye(s, dtype=np.float64)
    lap[i, j] = -w
    return lap


def restricted_operator(graph: Graph, subset: VertexSubset) -> Operator:
    """The operator of L_S for S: dense below KRYLOV_MIN_SIZE, Krylov from it on.

    Either one checks that S is connected with a nonempty vertex boundary
    and positive degrees, and checks the spectrum's structural bounds, on
    the eigenvalues or on the Ritz values of the lambda1 run.
    """
    start = time.perf_counter()
    dense = subset.size < KRYLOV_MIN_SIZE
    op = (DirichletOperator if dense else KrylovOperator).from_subset(graph, subset)
    log.info("%s operator: s = %d, lambda1 = %.6g, built in %.4f s",
             "dense" if dense else "krylov", op.s, op.lambda1, time.perf_counter() - start)
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


def _check_times(t: float | np.ndarray) -> np.ndarray:
    times = np.asarray(t, dtype=np.float64)
    if times.ndim > 1 or not np.all(np.isfinite(times) & (times >= 0)):
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    return times


def apply_heat_kernel(op: Operator, t: float | np.ndarray, f: np.ndarray) -> np.ndarray:
    """Symmetric heat-kernel action exp(-t * L_S) @ f through the operator.

    ``t`` is one time, or a 1-d array of m times, which gives an (m, s)
    result from one Krylov basis.  t = 0 gives f exactly.
    """
    times = _check_times(t)
    f = np.asarray(f, dtype=np.float64)
    out = op.apply(lambda lam: np.exp(-np.multiply.outer(times, lam)), f)
    out[times == 0] = f
    return out


def exact_dirhkpr(op: Operator, t: float | np.ndarray, f: np.ndarray) -> np.ndarray:
    """Dirichlet heat kernel pagerank f^T exp(-t * (I - P_S)), exactly.

    Computed as D^{-1/2} exp(-t L_S) D^{1/2} applied on the left, i.e. the
    walk-normalized kernel.  ``f`` may have entries of any sign; no
    normalization is performed.  ``t`` is one time, or a 1-d array of m
    times for an (m, s) result (see :func:`apply_heat_kernel`).  t = 0
    returns f unchanged.
    """
    times = _check_times(t)
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (op.s,):
        raise ValueError(f"preference vector has shape {f.shape}, expected ({op.s},)")
    root = np.sqrt(op.degrees)
    rho = apply_heat_kernel(op, times, f * (1.0 / root)) * root
    rho[times == 0] = f
    return rho


def exact_local_solution(
    problem: BoundaryProblem, operator: Operator | None = None
) -> np.ndarray:
    """Exact local solution over S: the Green's function applied to b1.

    Computed as L_S^-1 b1 through the operator's ``apply``, without
    forming the s x s Green's matrix.
    """
    op = operator if operator is not None else restricted_operator(problem.graph, problem.subset)
    return op.apply(np.reciprocal, problem.b1)


def estimate_lambda1(graph: Graph, subset: VertexSubset) -> float:
    """The bottom Dirichlet eigenvalue, as the smallest Ritz value of a
    Lanczos run on L_S from D^{1/2} 1, the run that fixes
    :class:`KrylovOperator`'s lambda1.

    Uses sparse matvecs only, so it works at any s.  The start vector is
    positive, so it overlaps the Perron vector of lambda1, and a Ritz value
    bounds lambda1 from above.
    """
    if subset.size == 0:
        raise ValueError("empty subset")
    coupling = _coupling(graph, subset, _restrict(graph, subset))
    start = np.sqrt(_degrees(graph, subset))
    return float(_ritz_values(_laplacian_times(*coupling, subset.size), start)[0])

