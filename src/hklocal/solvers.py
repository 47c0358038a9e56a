"""Sampling schedules and the local linear solvers.

Two backends approximate the local solution x_S = G b1 by sampling
heat-kernel pagerank vectors at importance-weighted random times on the
schedule grid: an exact backend that sums the samples as one function of
the restricted Laplacian, and a Monte-Carlo backend that estimates each
sample with capped Dirichlet random walks.  A closed form Riemann-sum
reference and the error-bound bookkeeping live here too.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

# No solver calls exact_dirhkpr, but the benchmark's tracer wraps it under
# this module's name.
from .dirichlet import Operator, exact_dirhkpr, restricted_operator
from .graph import BoundaryProblem
from .walks import (
    DEFAULT_SAMPLE_CONSTANT,
    PASS_BUDGET,
    WalkStats,
    _check_workers,
    _schedule_draws,
    solver_approx_dirhkpr,
)

__all__ = [
    "SolverSchedule",
    "SolveReport",
    "make_schedule",
    "draw_weighted_t",
    "riemann_sum_solution",
    "local_linear_solver",
    "greens_solver",
    "error_bound",
    "restricted_threshold",
    "report_to_json",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverSchedule:
    """Derived sampling parameters for a subset of size s.

    T is the integration horizon s^3 ln(s^3 / gamma), N = T / gamma the
    discretization count, and r_outer = ceil(ln(s / gamma) / gamma^2) the
    number of sampled times.  The time grid is the multiples of gamma up to
    floor(N) of them.  The solvers draw grid index j with probability
    P(j) proportional to exp(-rate * gamma * (j - 1)) (see
    :func:`draw_weighted_t`) and weight the sample by gamma / P(j); rate 0
    is the paper's uniform draw with the weight gamma * floor(N).
    """

    gamma: float
    epsilon: float | None
    s: int
    T: float
    N: float
    floor_n: int
    r_outer: int
    t_prime: float | None
    master_seed: int
    rate: float = 0.0


def restricted_threshold(lambda1: float, epsilon: float) -> float:
    """Time beyond which heat-kernel pagerank entries sink below epsilon.

    Conservative cutoff ln(1/epsilon) / lambda1; sampled times past it can
    be skipped and treated as zero vectors.
    """
    if lambda1 <= 0:
        raise ValueError(f"lambda1 must be positive, got {lambda1}")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    return math.log(1.0 / epsilon) / lambda1


def make_schedule(
    s: int,
    gamma: float,
    epsilon: float | None = None,
    seed: int = 0,
    lambda1: float | None = None,
    rate: float = 0.0,
) -> SolverSchedule:
    """Build the sampling schedule for a subset of size s.

    ``epsilon`` is only needed for the Monte-Carlo backend and must be at
    least ``gamma`` there; the walk-length cap analysis breaks down below
    that.  ``lambda1``, when known, fixes the restricted-range threshold.
    ``rate`` is the decay rate of the time-index distribution; it does not
    change T, N, floor(N) or r_outer.
    """
    if s < 1:
        raise ValueError(f"subset size must be positive, got {s}")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    if not (math.isfinite(rate) and rate >= 0.0):
        raise ValueError(f"rate must be finite and nonnegative, got {rate}")
    if epsilon is not None:
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
        if epsilon < gamma:
            raise ValueError(
                f"epsilon ({epsilon}) must be at least gamma ({gamma}): the sampled-time "
                "walk estimator only guarantees its accuracy for epsilon >= gamma"
            )
    cube = float(s) ** 3
    T = cube * math.log(cube / gamma)
    N = T / gamma
    if math.floor(N) < 1:
        raise ValueError(f"empty time grid: floor(N) = 0 for s = {s}, gamma = {gamma}")
    r_outer = math.ceil(math.log(s / gamma) / gamma**2)
    t_prime = None
    if lambda1 is not None and epsilon is not None:
        t_prime = restricted_threshold(lambda1, epsilon)
    return SolverSchedule(
        gamma=gamma,
        epsilon=epsilon,
        s=s,
        T=T,
        N=N,
        floor_n=int(math.floor(N)),
        r_outer=r_outer,
        t_prime=t_prime,
        master_seed=int(seed),
        rate=float(rate),
    )


def draw_weighted_t(schedule: SolverSchedule, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map uniforms u to importance-sampled times t = j * gamma and weights gamma / P(j).

    j follows the geometric law truncated to the integers [1, floor(N)],
    P(j) = q^(j-1) (1 - q) / (1 - q^floor(N)) with q = exp(-rate * gamma),
    drawn by the inverse CDF j = ceil(ln(1 - u (1 - q^floor(N))) / ln q);
    rate 0 is the paper's uniform draw.  The weighted sample
    gamma / P(j) * rho_t has mean exactly the Riemann sum over the grid, for
    any rate.  Its variance stays bounded for every T only while the rate
    is below 2 lambda1 for exact samples, and below lambda1 for walk
    samples, whose second moment decays only like e^{-lambda1 t}.  Both
    solvers map the same hashed uniforms of a seed here, each at its own
    rate: lambda1 for the exact backend, lambda1 / 2 for the walks.
    """
    u = np.asarray(u, dtype=np.float64)
    a = schedule.rate * schedule.gamma
    n = schedule.floor_n
    if a == 0.0:
        j = np.floor(u * n) + 1.0
        p1 = 1.0 / n
    else:
        j = np.ceil(np.log1p(u * math.expm1(-a * n)) / -a)
        p1 = math.expm1(-a) / math.expm1(-a * n)
    j = np.clip(j, 1, n)
    return j * schedule.gamma, schedule.gamma * np.exp(a * (j - 1)) / p1


def _draw_times(schedule: SolverSchedule) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Times, weights and child seeds of all r_outer samples, hashed from
    the seed (see :mod:`hklocal.walks`).  Sample i maps its uniform U_i to
    (i + U_i) / r: this stratified draw keeps the Riemann-sum mean, and its
    variance is at most that of r independent draws."""
    r = schedule.r_outer
    u, child_seeds = _schedule_draws(schedule.master_seed, r)
    ts, weights = draw_weighted_t(schedule, (np.arange(r) + u) / r)
    return ts, weights, child_seeds


@dataclass
class SolveReport:
    """Result of one solver run plus the bookkeeping the CLI serializes."""

    x_hat: np.ndarray
    sampled_ts: np.ndarray
    walk_steps_total: int
    elapsed: float
    error_bound_terms: dict[str, float | None]
    schedule: SolverSchedule
    method: str
    walks_started: int = 0
    walks_aborted: int = 0
    samples_skipped: int = 0


def _riemann_geometric(op: Operator, b1: np.ndarray, schedule: SolverSchedule) -> np.ndarray:
    # step * sum_{j=1..floor(N)} exp(-lambda * j * step), summed per
    # eigenvalue or Ritz value in closed form.  Identical to the literal sum
    # up to roundoff.
    def series(lam: np.ndarray) -> np.ndarray:
        q_log = -lam * schedule.gamma
        total = np.exp(q_log) * (-np.expm1(q_log * schedule.floor_n)) / -np.expm1(q_log)
        return total * schedule.gamma

    return op.apply(series, b1)


def riemann_sum_solution(
    problem: BoundaryProblem,
    schedule: SolverSchedule,
    operator: Operator | None = None,
) -> np.ndarray:
    """Right Riemann sum of the heat-kernel integral for x_S on the schedule grid.

    Satisfies ||x_S - x_rie|| <= gamma * (||b1|| + ||x_S||).  The series is
    summed in closed form per eigenvalue or Ritz value.
    """
    op = operator if operator is not None else restricted_operator(problem.graph, problem.subset)
    return _riemann_geometric(op, problem.b1, schedule)


def local_linear_solver(
    problem: BoundaryProblem,
    gamma: float,
    seed: int,
    workers: int = 1,
    operator: Operator | None = None,
) -> SolveReport:
    """Approximate x_S by averaging exact heat-kernel pagerank samples.

    Draws r_outer grid times t_i = j_i * gamma with P(j) proportional to
    exp(-lambda1 * gamma * (j - 1)) (:func:`draw_weighted_t` at rate
    lambda1, the operator's bottom eigenvalue or Ritz value), evaluates the
    exact pagerank rho of b2 at each, and returns
    (1 / r) sum_i (gamma / P(j_i)) rho_{t_i} carried back through D^{-1/2}.
    Its mean is the Riemann sum x_rie, and with probability at least
    1 - gamma the error is within gamma * (||b1|| + ||x_S|| + ||x_rie||).
    That average is c(L_S) b1 with c(lambda) = (1 / r) sum_i w_i
    exp(-t_i lambda), which is how it is computed, by the operator's
    ``apply``: the r_outer uniforms are hashed from the seed and stratified
    (see :mod:`hklocal.walks`), and c is a matrix product over chunks of at
    most PASS_BUDGET // m samples for m eigenvalues or Ritz values, so the
    samples never take more than about PASS_BUDGET entries at once.
    ``workers`` must be at least 1 and does not change the output.
    """
    start = time.perf_counter()
    _check_workers(workers)
    op = operator if operator is not None else restricted_operator(problem.graph, problem.subset)
    schedule = make_schedule(op.s, gamma, seed=seed, rate=op.lambda1)
    stage = time.perf_counter()
    ts, weights, _ = _draw_times(schedule)
    stage = _log_sampling("local-linear-solver", schedule, stage)

    def decay(lam: np.ndarray) -> np.ndarray:
        c = np.zeros(lam.size, dtype=np.float64)
        rows = max(1, PASS_BUDGET // lam.size)
        for lo in range(0, ts.size, rows):
            c += weights[lo:lo + rows] @ np.exp(-np.outer(ts[lo:lo + rows], lam))
        return c / schedule.r_outer

    x_hat = op.apply(decay, problem.b1)
    log.info("local-linear-solver reduction in %.4f s", time.perf_counter() - stage)
    return SolveReport(
        x_hat=x_hat,
        sampled_ts=ts,
        walk_steps_total=0,
        elapsed=time.perf_counter() - start,
        error_bound_terms=_bound_terms(problem, gamma, None),
        schedule=schedule,
        method="local-linear-solver",
    )


def greens_solver(
    problem: BoundaryProblem,
    gamma: float,
    epsilon: float,
    seed: int,
    restricted_range: bool = False,
    workers: int = 1,
    constant: float = DEFAULT_SAMPLE_CONSTANT,
    operator: Operator | None = None,
) -> SolveReport:
    """Monte-Carlo local solver: walk-based pagerank samples, cap floor(2t).

    Draws its times from the uniforms of :func:`local_linear_solver`, and
    reduces as it does, but at rate lambda1 / 2 of the operator: a walk
    sample's second moment decays only like e^{-lambda1 t}, so the variance
    stays bounded for every T only while the rate is below lambda1, not
    2 lambda1 as for exact samples.  The key each sample's uniform is
    hashed from is also its child seed.  All simulated samples
    run in one lockstep pass, one call of :func:`solver_approx_dirhkpr`
    with their times, child seeds and weights; sample i's estimate is
    exactly the one-sample call with (t_i, child seed i).  lambda1 itself
    gives t' = :func:`restricted_threshold` under ``restricted_range``:
    samples at t at or past t' contribute zero without simulating any
    walk.  When b2 is zero, x_hat is zero and no walk runs.  Error is
    within gamma * (||b1|| + ||x_S|| + ||x_rie||) + epsilon * ||b2||_1 with
    probability at least 1 - gamma.  ``workers`` must be at least 1 and
    does not change the output.
    """
    start = time.perf_counter()
    _check_workers(workers)
    subset = problem.subset
    op = operator if operator is not None else restricted_operator(problem.graph, subset)
    schedule = make_schedule(
        op.s, gamma, epsilon=epsilon, seed=seed, rate=op.lambda1 / 2,
        lambda1=op.lambda1 if restricted_range else None,
    )
    stage = time.perf_counter()
    # Every sample has its child seed, skipped or not, so the simulated
    # samples match between restricted and full runs.
    ts, weights, child_seeds = _draw_times(schedule)
    keep = ts < schedule.t_prime if restricted_range else np.ones(ts.size, dtype=bool)
    totals = WalkStats()
    acc = np.zeros(subset.size)
    if np.any(problem.b2):
        acc = solver_approx_dirhkpr(
            problem.graph, ts[keep], problem.b2, subset, epsilon, child_seeds[keep],
            constant=constant, stats=totals, weights=weights[keep],
        )
    stage = _log_sampling("greens-solver", schedule, stage)
    inv_sqrt_deg = 1.0 / np.sqrt(problem.degrees_s.astype(np.float64))
    x_hat = acc / schedule.r_outer * inv_sqrt_deg
    log.info("greens-solver reduction in %.4f s", time.perf_counter() - stage)
    return SolveReport(
        x_hat=x_hat,
        sampled_ts=ts,
        walk_steps_total=totals.steps_simulated,
        elapsed=time.perf_counter() - start,
        error_bound_terms=_bound_terms(problem, gamma, epsilon),
        schedule=schedule,
        method="greens-solver",
        walks_started=totals.walks_started,
        walks_aborted=totals.walks_aborted,
        samples_skipped=int(ts.size - np.count_nonzero(keep)),
    )


def _log_sampling(method: str, schedule: SolverSchedule, start: float) -> float:
    """Log the sampling stage that began at ``start``; returns its end."""
    end = time.perf_counter()
    log.info("%s sampling: %d times drawn at rate %.6g in %.4f s",
             method, schedule.r_outer, schedule.rate, end - start)
    return end


def _bound_terms(problem: BoundaryProblem, gamma: float, epsilon: float | None) -> dict:
    return {
        "b1_norm": float(np.linalg.norm(problem.b1)),
        "b2_l1": float(np.abs(problem.b2).sum()),
        "gamma": float(gamma),
        "epsilon": None if epsilon is None else float(epsilon),
    }


def error_bound(
    report: SolveReport,
    x_s_norm: float,
    x_rie_norm: float,
) -> dict[str, float]:
    """Concrete error bounds from the run's terms and the oracle norms.

    ``local`` is gamma * (||b1|| + ||x_S|| + ||x_rie||); ``greens`` adds
    epsilon * ||b2||_1 on top (zero epsilon for the exact backend).
    """
    terms = report.error_bound_terms
    gamma = float(terms["gamma"])
    epsilon = terms.get("epsilon") or 0.0
    local = gamma * (float(terms["b1_norm"]) + float(x_s_norm) + float(x_rie_norm))
    return {"local": local, "greens": local + float(epsilon) * float(terms["b2_l1"])}


def report_to_json(report: SolveReport, problem: BoundaryProblem) -> dict:
    """JSON-ready view of a report; x_hat keyed by original vertex id."""
    graph = problem.graph
    subset = problem.subset
    x_hat = {
        str(graph.original_id(int(v))): float(report.x_hat[i])
        for i, v in enumerate(subset.members)
    }
    doc = {
        "format_version": 1,
        "method": report.method,
        "schedule": asdict(report.schedule),
        "x_hat": x_hat,
        "error_bound_terms": report.error_bound_terms,
        "instrumentation": {
            "walk_steps_total": report.walk_steps_total,
            "walks_started": report.walks_started,
            "walks_aborted": report.walks_aborted,
            "samples_skipped": report.samples_skipped,
            # Share of started walks that left S, and steps per started
            # walk; both 0 when no walk ran.
            "abort_rate": report.walks_aborted / max(report.walks_started, 1),
            "mean_walk_length": report.walk_steps_total / max(report.walks_started, 1),
        },
        "sampled_ts": [float(t) for t in report.sampled_ts],
        "elapsed_seconds": report.elapsed,
    }
    return doc
