"""The restricted normalized Laplacian L_S and the exact solves through it.

Every exact quantity is one function of L_S applied to one vector: the
Green's function solution L_S^-1 f by an operator's ``solve(f)``, heat
kernels and the solvers' sums of them by ``apply(fn, f)``.  The two
operators, :class:`DirichletOperator` and :class:`KrylovOperator`, share
that surface; README, "Krylov stop rules", derives the Krylov backend's stops.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .graph import BoundaryProblem, Graph, VertexSubset, _preference, _restriction

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
# An apply's relative accuracy, and the first checkpoint interval.
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
    """L_S = V diag(lambda) V^T, dense: ascending ``eigenvalues``, orthonormal
    ``eigenvectors`` as columns, and the members' full-graph ``degrees`` in
    local order.  The backend below KRYLOV_MIN_SIZE and the oracle of
    :class:`KrylovOperator`.  Immutable; concurrent calls are safe.
    """

    degrees: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def from_subset(cls, graph: Graph, subset: VertexSubset) -> DirichletOperator:
        """Eigendecompose L_S; raises as :func:`restricted_laplacian`, and
        SpectrumError if the spectrum breaks its structural bounds."""
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
        """fn(L_S) f, as V (fn(lambda) * V^T f).  ``fn`` acts elementwise on
        the eigenvalues and may add a leading axis of m functions, giving
        (m, s).  Raises ValueError unless f is finite with shape (s,)."""
        scaled = fn(self.eigenvalues) * (self.eigenvectors.T @ _preference(f, self.s))
        return (self.eigenvectors @ scaled.T).T

    def solve(self, f: np.ndarray) -> np.ndarray:
        """L_S^-1 f, the Green's function applied to f: ``apply(1/lambda, f)``."""
        return self.apply(np.reciprocal, f)


@dataclass(frozen=True)
class KrylovOperator:
    """L_S kept as its off-diagonal coupling, L_S x = x - bincount(rows,
    weights * x[cols]), with the surface of :class:`DirichletOperator` in
    O(|E(S)|) memory.  ``laplacian`` is L_S itself, dense and read-only,
    when at least 1 / _DENSE_SHARE of it is nonzero (at most 128 bytes per
    coupling entry), else None.  ``ritz_values`` are the ascending Ritz
    values of the lambda1 run.  The fields are immutable; the Lanczos run of
    the last vector applied or solved from is cached, so calls from one
    vector share one basis.  Concurrent calls are safe: a run is swapped in
    by one assignment, each call keeps the run it started with, and a run is
    extended only under its lock.
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
        """The coupling of S and its lambda1 run; raises ValueError if S
        fails condition (iii), SpectrumError as the dense operator does."""
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
        """fn(L_S) f, as ||f|| Q_k fn(T_k) e1 after k Lanczos steps from f,
        with ``fn`` on the Ritz values as :meth:`DirichletOperator.apply`
        takes it.  k is the first checkpoint (:func:`_next_check`) at which
        Saad's (1992) error estimate passes for every function, or breakdown.
        Raises ValueError unless f is finite with shape (s,)."""

        def stop(run: _Run, reach: Callable[[int], int]) -> tuple[np.ndarray, float]:
            k = 0
            while True:
                k = reach(_next_check(k))
                alpha, beta = np.array(run.alpha[:k]), np.array(run.beta[:k])
                with run.lock:
                    if k not in run.eigenpairs:
                        run.eigenpairs[k] = np.linalg.eigh(_tridiagonal(alpha, beta))
                theta, vectors = run.eigenpairs[k]
                estimate, noise = _estimate(fn, theta, vectors)
                ratio = _error_ratio(estimate, noise, beta[-1] * estimate[..., -1:],
                                     lambda: _kato_temple(alpha, beta, theta) <= 1.0)
                if k == run.last or ratio <= 1.0:
                    return estimate, ratio

        return self._lanczos_until(f, stop, lambda: np.shape(fn(self.ritz_values[:1]))[:-1],
                                   "apply", "error estimate")

    def solve(self, f: np.ndarray) -> np.ndarray:
        """L_S^-1 f, as ||f|| Q_k y with T_k y = e1 after k Lanczos steps from
        f (Hestenes and Stiefel 1952), k the first step whose residual is a
        backward error of at most one ulp, or breakdown.  Each step tests the
        residual in O(1) from running LDL^T recurrences; a step that passes is
        verified once by :func:`_lanczos_cg`.  Raises ValueError unless f is
        finite with shape (s,), SpectrumError if a pivot of T_k shows L_S is
        not positive definite."""
        limit = float(_EPS * self.ritz_values[-1])

        def stop(run: _Run, reach: Callable[[int], int]) -> tuple[np.ndarray, float]:
            # At step k: the pivot d_k, z_k and w = y_k[k] = z_k / d_k; with g
            # the last column of L_k^-T, y_k = (y_{k-1}, 0) + w g, so norm2 =
            # ||y_k||^2 follows from gg = ||g||^2 and cross = <y_{k-1}, g>.
            k, b, ratio, z, gg, cross, norm2 = 0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0
            while True:
                k = reach(k + 1)
                d = run.alpha[k - 1] - b * ratio
                if not d > 0.0:
                    raise SpectrumError(
                        f"Lanczos pivot {d!r} at step {k}: L_S is not positive definite")
                w = z / d
                norm2 += w * (2.0 * cross + w * gg)
                b = run.beta[k - 1]
                if b * abs(w) <= limit * math.sqrt(norm2) or k == run.last:
                    y = _lanczos_cg(np.array(run.alpha[:k]), np.array(run.beta[:k]))
                    residual = b * abs(y[-1]) / (limit * np.linalg.norm(y))
                    if k == run.last or residual <= 1.0:
                        return y, residual
                ratio = b / d
                z, cross, gg = -ratio * z, -ratio * (cross + w * gg), 1.0 + ratio * ratio * gg

        return self._lanczos_until(f, stop, lambda: (), "solve", "residual")

    def _lanczos_until(self, f: np.ndarray, stop: Callable[..., tuple[np.ndarray, float]],
                       lead: Callable[[], tuple], name: str, measure: str) -> np.ndarray:
        """||f|| Q_k c, with c (k per row) and the ratio it stopped on from
        ``stop(run, reach)`` on f's run, reusing the cached run if it started
        from f; reach(k) steps the run to min(k, end), which it returns.  f =
        0 gives zeros of shape lead() + (s,)."""
        f = _preference(f, self.s)
        largest = float(np.max(np.abs(f), initial=0.0))
        if largest == 0.0:
            return np.zeros(lead() + (self.s,))
        run, state = self._run, "reused"
        if run is None or not np.array_equal(run.start, f):
            times = _laplacian_times(self.rows, self.cols, self.weights, self.s, self.laplacian)
            norm = largest * float(np.linalg.norm(f / largest))
            run, state = _Run(times, f.copy(), norm, keep=True), "new"
            object.__setattr__(self, "_run", run)

        def reach(k: int) -> int:
            nonlocal state
            with run.lock:
                if run.step_to(k) and state == "reused":
                    state = "extended"
                return min(k, len(run.alpha))

        coefficients, ratio = stop(run, reach)
        k = coefficients.shape[-1]
        log.debug("Krylov %s: %d steps, %s run, %s %.2g of its limit", name, k, state, measure,
                  ratio)
        return run.norm * (coefficients @ run.basis[:k])


class _Run:
    """Plain Lanczos on the symmetric ``times`` from q_1 = start / norm:
    T_k's diagonal ``alpha`` and off-diagonal ``beta`` (beta_k last), lists
    that only grow; ``last``, the step at which the run ends, once reached;
    T_k's ``eigenpairs`` by k once an apply needs them; and with ``keep``,
    q_1, q_2, ... as the rows of ``basis``, which a grow swaps for a larger
    copy, so a reader keeps valid rows in the array it read."""

    def __init__(self, times: Callable[[np.ndarray], np.ndarray], start: np.ndarray,
                 norm: float, keep: bool) -> None:
        s = start.size
        self.times, self.start, self.norm = times, start, norm
        self.basis = np.empty((min(_LANCZOS_CHECK, s), s)) if keep else None
        self.q = np.divide(start, norm, out=None if self.basis is None else self.basis[0])
        self.q_prev = self.v = np.zeros(s)
        self.alpha, self.beta, self.last = [], [], None
        self.eigenpairs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.lock = threading.Lock()

    def step_to(self, k: int) -> bool:
        """Step until the run has k steps or ends, on breakdown (beta_k <= 2 s
        eps) or at k = s; call under the lock if shared.  True if it took any."""
        taken, s = len(self.alpha), self.q.size
        while len(self.alpha) < k and self.last is None:
            j = len(self.alpha)
            if j:  # q_{j+1} = v / beta_j, into row j of a kept basis
                if self.basis is not None and j == len(self.basis):
                    self.basis = np.concatenate([self.basis, np.empty((min(j, s - j), s))])
                row = None if self.basis is None else self.basis[j]
                self.q_prev, self.q = self.q, np.divide(self.v, self.beta[-1], out=row)
            v = self.times(self.q)
            v -= (self.beta[-1] if j else 0.0) * self.q_prev
            a = float(self.q @ v)
            v -= a * self.q
            b = math.sqrt(v @ v)
            self.alpha.append(a)
            self.beta.append(b)
            self.v = v
            if b <= 2 * s * _EPS or j + 1 == s:
                self.last = j + 1
        return len(self.alpha) > taken


def _next_check(k: int) -> int:
    """The checkpoint after step k of an apply or the lambda1 run: every 16
    steps up to 64, then every k/4 (README, "Krylov stop rules")."""
    return k + max(_LANCZOS_CHECK, k // 4)


def _lanczos_cg(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """T_k^-1 e1 by the LDL^T recurrence of T_k, in O(k); every pivot must
    be positive, as :meth:`KrylovOperator.solve` checks while it steps."""
    a, b = alpha.tolist(), beta.tolist()
    d, z = [a[0]], [1.0]
    for j in range(len(a) - 1):
        ratio = b[j] / d[j]
        d.append(a[j + 1] - b[j] * ratio)
        z.append(-ratio * z[j])
    y, last = [], 0.0
    for j in range(len(a) - 1, -1, -1):
        last = (z[j] - b[j] * last) / d[j]
        y.append(last)
    return np.array(y[::-1])


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
    """``(i, j, w, degrees)``: w = 1 / sqrt(d_i d_j) for every ordered pair
    of adjacent members (i, j), in local indices, and the member degrees.
    Raises CapacityError if ``dense`` and s > DENSE_SIZE_LIMIT, ValueError
    if S fails condition (iii)."""
    if dense and subset.size > DENSE_SIZE_LIMIT:
        raise CapacityError(f"subset size {subset.size} exceeds dense limit {DENSE_SIZE_LIMIT}")
    sl, violation = _restriction(graph, subset, check=True)
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
    """x -> L_S x, by the dense ``laplacian`` when given, else the coupling."""
    if laplacian is not None:
        return laplacian.__matmul__

    def times(x: np.ndarray) -> np.ndarray:
        return x - np.bincount(rows, weights=weights * x[cols], minlength=s)

    return times


def _tridiagonal(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """T_k, dense, from its diagonal alpha and off-diagonal beta[:-1]."""
    k = alpha.size
    tridiagonal = np.zeros((k, k))
    flat = tridiagonal.reshape(-1)
    flat[::k + 1] = alpha
    flat[1::k + 1] = flat[k::k + 1] = beta[:-1]
    return tridiagonal


def _lambda1_run(
    rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, degrees: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray]:
    """L_S, dense, when s^2 <= _DENSE_SHARE * (coupling entries), else None,
    and the ascending Ritz values of the Lanczos run from D^{1/2} 1, stopped
    on breakdown or at the first check whose :func:`_kato_temple` bound
    passes.  The smallest bounds lambda1 from above."""
    s = degrees.size
    laplacian = _laplacian(rows, cols, weights, s) if s * s <= _DENSE_SHARE * rows.size else None
    times = _laplacian_times(rows, cols, weights, s, laplacian)
    start = np.sqrt(degrees)
    run, k = _Run(times, start, np.linalg.norm(start), keep=False), 0
    while True:
        run.step_to(_next_check(k))
        k = len(run.alpha)
        alpha, beta = np.array(run.alpha), np.array(run.beta)
        theta = np.linalg.eigvalsh(_tridiagonal(alpha, beta))
        ratio = _kato_temple(alpha, beta, theta)
        if k == run.last or ratio <= 1.0:
            log.debug("Krylov lambda1 run: %d steps, bound %.2g of its limit", k, ratio)
            return laplacian, theta


def _kato_temple(alpha: np.ndarray, beta: np.ndarray, theta: np.ndarray) -> float:
    """The Kato-Temple bound on theta_1 - lambda_1 (Kato 1949; Parlett, The
    Symmetric Eigenvalue Problem) over its limit, one ulp of ||L_S||: at
    most 1 means the smallest Ritz value ``theta[0]`` has converged.  inf
    when there is no gap or a pivot of T_k - theta_1 I is not positive.
    """
    if theta.size < 2 or not theta[1] > theta[0]:
        return math.inf
    a, b, low = alpha.tolist(), beta.tolist(), float(theta[0])
    pivot, z, total = a[-1] - low, 1.0, 1.0
    for j in range(len(a) - 2, -1, -1):
        if not pivot > 0.0:
            return math.inf
        z *= pivot / b[j]
        total += z * z
        pivot = a[j] - low - b[j] * b[j] / pivot
    return b[-1] ** 2 / (total * (theta[1] - theta[0]) * _EPS * theta[-1])


def _estimate(
    fn: Callable[[np.ndarray], np.ndarray], theta: np.ndarray, vectors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """fn(T) e1 per function from the eigenpairs of T, and its rounding
    floor: how far one ulp of theta_max added to every Ritz value moves it,
    in T's eigenbasis."""
    k = theta.size
    both = fn(np.concatenate([theta, theta + _EPS * theta[-1]])) * np.tile(vectors[0], 2)
    coefficients = both[..., :k]
    return coefficients @ vectors.T, both[..., k:] - coefficients


def _error_ratio(
    estimate: np.ndarray, noise: np.ndarray, error: np.ndarray, bottom: Callable[[], bool]
) -> float:
    """The largest ratio, over the functions, of Saad's estimate ``error``
    to its limit: _LANCZOS_TOL times the estimate, plus its rounding floor
    ``noise``, plus the smallest normal float.  At most 1 means settled.
    Each row's norms are taken over its largest entry, so none underflows.
    A row below _TINY_ROW is unsettled unless ``bottom()``, called only
    then, says the smallest Ritz value has converged.
    """
    largest = np.max(np.abs(estimate), axis=-1, keepdims=True)
    scale = np.where(largest > 0.0, largest, 1.0)

    def norm(x: np.ndarray) -> np.ndarray:
        return np.linalg.norm(x / scale, axis=-1)

    ratio = norm(error) / (_LANCZOS_TOL * norm(estimate) + norm(noise) + _TINY / scale[..., 0])
    tiny = largest[..., 0] < _TINY_ROW
    if np.any(tiny) and not bottom():
        ratio = np.where(tiny, np.inf, ratio)
    return float(np.max(ratio))


def restricted_laplacian(graph: Graph, subset: VertexSubset) -> np.ndarray:
    """The dense s x s restricted normalized Laplacian L_S, read-only, with
    degrees from the full graph.  Raises CapacityError past
    DENSE_SIZE_LIMIT, ValueError if S fails condition (iii)."""
    return _laplacian(*_checked_coupling(graph, subset, dense=True)[:3], subset.size)


def restricted_operator(graph: Graph, subset: VertexSubset) -> Operator:
    """The operator of L_S: dense below KRYLOV_MIN_SIZE, Krylov from it on.
    Raises as the chosen class's ``from_subset``."""
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
    """The Green's matrix L_S^-1, s x s.  Needs the dense operator (raises
    TypeError otherwise); past KRYLOV_MIN_SIZE build it with
    :meth:`DirichletOperator.from_subset`."""
    if not isinstance(op, DirichletOperator):
        raise TypeError("the Green's matrix needs the dense DirichletOperator")
    if op.eigenvalues[0] <= _EIGENVALUE_FLOOR:
        raise SpectrumError("cannot invert: eigenvalue at or below the numerical floor")
    return (op.eigenvectors / op.eigenvalues) @ op.eigenvectors.T


def exact_dirhkpr(op: Operator, t: float | np.ndarray, f: np.ndarray) -> np.ndarray:
    """The Dirichlet heat kernel pagerank f^T exp(-t (I - P_S)), exactly, as
    D^{-1/2} exp(-t L_S) D^{1/2} through ``op.apply``; f may have any sign
    and is not normalised.  ``t`` is one time or a 1-d array of m times,
    giving (m, s); t = 0 gives f.  Raises ValueError unless every t is
    finite and nonnegative and f is finite with shape (s,).
    """
    times = np.asarray(t, dtype=np.float64)
    if times.ndim > 1 or not np.all(np.isfinite(times) & (times >= 0)):
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    f = _preference(f, op.s)
    root = np.sqrt(op.degrees)
    rho = op.apply(lambda lam: np.exp(-np.multiply.outer(times, lam)), f * (1.0 / root)) * root
    rho[times == 0] = f
    return rho


def exact_local_solution(
    problem: BoundaryProblem, operator: Operator | None = None
) -> np.ndarray:
    """x_S = L_S^-1 b1 through ``operator.solve`` (built when not given),
    without forming the Green's matrix."""
    op = operator if operator is not None else restricted_operator(problem.graph, problem.subset)
    return op.solve(problem.b1)
