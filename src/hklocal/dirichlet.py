"""Dense restricted operators, Dirichlet spectra, and exact heat-kernel solves.

This is the exact backend: the restricted normalized Laplacian L_S of a
connected subset and its eigendecomposition.  Every exact quantity is a
scalar function of L_S applied to one vector, f(L_S) b, and goes through
:meth:`DirichletOperator.apply`: the Green's function solution (1 / lambda),
the heat-kernel pagerank (exp(-t lambda)), and the solvers' sums of kernels.
It doubles as the oracle every Monte-Carlo component is tested against, so
sizes are capped and the spectrum's structural bounds are checked eagerly.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import IO

import numpy as np

from .graph import (
    BoundaryProblem,
    Graph,
    VertexSubset,
    _is_connected,
    _restrict,
    _Slice,
)

__all__ = [
    "DirichletOperator",
    "CapacityError",
    "SpectrumError",
    "DENSE_SIZE_LIMIT",
    "restricted_laplacian",
    "restricted_operator",
    "greens_function",
    "apply_heat_kernel",
    "exact_dirhkpr",
    "exact_local_solution",
    "estimate_lambda1",
    "dump_matrix_csv",
]

# The dense path is an oracle and small-system backend, not a scalable solver.
DENSE_SIZE_LIMIT = 4096

_EIGENVALUE_FLOOR = 1e-12
_SPECTRUM_SLACK = 1e-8


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
    itself.  Immutable; concurrent reads are safe.
    """

    subset: VertexSubset
    degrees: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def s(self) -> int:
        return len(self.degrees)

    @property
    def lambda1(self) -> float:
        return float(self.eigenvalues[0])

    def apply(self, fn: Callable[[np.ndarray], np.ndarray], f: np.ndarray) -> np.ndarray:
        """fn(L_S) @ f, as V (fn(lambda) * V^T f).

        ``fn`` takes the whole array of eigenvalues and acts elementwise.
        """
        return self.eigenvectors @ (fn(self.eigenvalues) * (self.eigenvectors.T @ f))


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
    degrees = graph.degrees[subset.members].astype(np.float64)
    if np.any(degrees == 0):
        raise ValueError("subset contains isolated vertices")
    inside = sl.cols >= 0
    i, j = sl.rows[inside], sl.cols[inside]
    return i, j, 1.0 / np.sqrt(degrees[i] * degrees[j])


def restricted_laplacian(graph: Graph, subset: VertexSubset) -> np.ndarray:
    """The dense s x s restricted normalized Laplacian L_S.

    Rows and columns of S, degrees from the full graph.  Requires the
    induced subgraph on S to be connected with a nonempty vertex boundary
    (otherwise the restriction may be singular) and every member to have
    positive degree.
    """
    s = subset.size
    if s == 0:
        raise ValueError("empty subset")
    if s > DENSE_SIZE_LIMIT:
        raise CapacityError(f"subset size {s} exceeds dense limit {DENSE_SIZE_LIMIT}")
    sl = _restrict(graph, subset)
    if not _is_connected(s, sl):
        raise ValueError("induced subgraph on S is not connected")
    if not np.any(sl.cols < 0):
        raise ValueError("vertex boundary of S is empty")
    i, j, w = _coupling(graph, subset, sl)
    lap = np.eye(s, dtype=np.float64)
    lap[i, j] = -w
    return lap


def restricted_operator(graph: Graph, subset: VertexSubset) -> DirichletOperator:
    """Eigendecompose :func:`restricted_laplacian` for S, checking the spectrum."""
    eigenvalues, eigenvectors = np.linalg.eigh(restricted_laplacian(graph, subset))
    _check_spectrum(eigenvalues, subset.size)
    degrees = graph.degrees[subset.members].astype(np.float64)
    return DirichletOperator(subset, degrees, eigenvalues, eigenvectors)


def greens_function(op: DirichletOperator) -> np.ndarray:
    """Green's function of S, the s x s matrix L_S^-1: the sum of
    (1/lambda_i) times each eigenprojection."""
    if op.eigenvalues[0] <= _EIGENVALUE_FLOOR:
        raise SpectrumError("cannot invert: eigenvalue at or below the numerical floor")
    return (op.eigenvectors / op.eigenvalues) @ op.eigenvectors.T


def apply_heat_kernel(op: DirichletOperator, t: float, f: np.ndarray) -> np.ndarray:
    """Symmetric heat-kernel action exp(-t * L_S) @ f through the eigenbasis."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    f = np.asarray(f, dtype=np.float64)
    if t == 0:
        return f.copy()
    return op.apply(lambda lam: np.exp(-t * lam), f)


def exact_dirhkpr(op: DirichletOperator, t: float, f: np.ndarray) -> np.ndarray:
    """Dirichlet heat kernel pagerank f^T exp(-t * (I - P_S)), exactly.

    Computed as D^{-1/2} exp(-t L_S) D^{1/2} applied on the left, i.e. the
    walk-normalized kernel.  ``f`` may have entries of any sign; no
    normalization is performed.  t = 0 returns f unchanged.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (op.s,):
        raise ValueError(f"preference vector has shape {f.shape}, expected ({op.s},)")
    if t == 0:
        return f.copy()
    root = np.sqrt(op.degrees)
    return apply_heat_kernel(op, t, f * (1.0 / root)) * root


def exact_local_solution(
    problem: BoundaryProblem, operator: DirichletOperator | None = None
) -> np.ndarray:
    """Exact local solution over S: the Green's function applied to b1.

    Computed as L_S^-1 b1 through :meth:`DirichletOperator.apply`, without
    forming the s x s Green's matrix.
    """
    op = operator if operator is not None else restricted_operator(problem.graph, problem.subset)
    return op.apply(np.reciprocal, problem.b1)


def estimate_lambda1(
    graph: Graph,
    subset: VertexSubset,
    max_iterations: int = 20000,
    tol: float = 1e-12,
) -> float:
    """Estimate the bottom Dirichlet eigenvalue by power iteration.

    Runs power iteration on I - L_S / 2 using sparse matvecs only, so it
    works past the dense size limit.  The result is an estimate; with a
    small spectral gap convergence is slow and the value is an upper bound
    in practice.
    """
    s = subset.size
    if s == 0:
        raise ValueError("empty subset")
    ri, ci, wt = _coupling(graph, subset, _restrict(graph, subset))

    def shifted(x: np.ndarray) -> np.ndarray:
        # (I - L_S/2) x = x/2 + M x / 2 with M the off-diagonal coupling.
        return 0.5 * x + 0.5 * np.bincount(ri, weights=wt * x[ci], minlength=s)

    x = np.full(s, 1.0 / math.sqrt(s))
    mu = 0.0
    for _ in range(max_iterations):
        y = shifted(x)
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            break
        y /= norm
        mu_new = float(y @ shifted(y))
        done = abs(mu_new - mu) <= tol * max(1.0, abs(mu_new))
        x, mu = y, mu_new
        if done:
            break
    return 2.0 * (1.0 - mu)


def dump_matrix_csv(matrix: np.ndarray, target: str | Path | IO[str]) -> None:
    """Debug dump of a dense matrix, row-major, 17 significant digits."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-d matrix")

    def _write(fh: IO[str]) -> None:
        for row in matrix:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")

    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            _write(fh)
    else:
        _write(target)
