"""Sampling schedules, the two sampled local solvers, the Riemann-sum
reference and the error bounds.  Both solvers approximate x_S = L_S^-1 b1
from heat-kernel pagerank samples at importance-weighted times: exactly,
through the restricted operator, or with capped Dirichlet walks."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

# No solver calls exact_dirhkpr, but the benchmark's tracer wraps it under
# this module's name.
from .dirichlet import Operator, exact_dirhkpr, restricted_operator
from .graph import BoundaryProblem, _by_original_id
from .walks import (
    DEFAULT_SAMPLE_CONSTANT,
    PASS_BUDGET,
    WalkStats,
    _check_workers,
    _int64,
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
    """The sampling parameters of a subset of size s: the horizon T =
    s^3 ln(s^3 / gamma), N = T / gamma, the grid of the first floor(N)
    multiples of gamma, r_outer = ceil(ln(s / gamma) / gamma^2) sampled
    times, the restricted-range threshold t' (or None) and the time-draw
    ``rate`` of :func:`draw_weighted_t`.
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
    """t' = ln(1 / epsilon) / lambda1, past which heat-kernel pagerank
    entries sink below epsilon; raises ValueError unless lambda1 > 0 and
    0 < epsilon <= 1."""
    if lambda1 <= 0:
        raise ValueError(f"lambda1 must be positive, got {lambda1}")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    return math.log(1.0 / epsilon) / lambda1


def _horizon(s: int, gamma: float) -> float:
    """The horizon T = s^3 ln(s^3 / gamma); raises ValueError unless s >= 1
    and 0 < gamma < 1."""
    if s < 1:
        raise ValueError(f"subset size must be positive, got {s}")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    cube = float(s) ** 3
    return cube * math.log(cube / gamma)


def make_schedule(
    s: int,
    gamma: float,
    epsilon: float | None = None,
    seed: int = 0,
    lambda1: float | None = None,
    rate: float = 0.0,
) -> SolverSchedule:
    """The sampling schedule of a subset of size s.  ``epsilon``, for the
    walk backend only, must lie in [gamma, 1); with ``lambda1`` it fixes t'.
    ``rate`` changes none of T, N and r_outer.  Raises ValueError as
    :func:`_horizon`, for a negative or non-finite rate, or unless N and
    r_outer are below 2**63 and floor(N) >= 1.
    """
    T = _horizon(s, gamma)
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
    N = _int64(T / gamma, "grid size N = T / gamma")
    if math.floor(N) < 1:
        raise ValueError(f"empty time grid: floor(N) = 0 for s = {s}, gamma = {gamma}")
    square = gamma**2
    r_outer = math.ceil(_int64(math.log(s / gamma) / square if square else math.inf,
                               "r_outer = ln(s / gamma) / gamma^2"))
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
    """Times t = j gamma and weights gamma / P(j) for uniforms u, with j on
    [1, floor(N)] drawn by the inverse CDF of P(j) proportional to q^(j-1),
    q = exp(-rate gamma); rate 0 is the paper's uniform draw.  For any rate
    the weighted sample's mean is exactly the Riemann sum over the grid;
    README, "Known limitations", gives the rates that bound its variance.
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
    """Times, weights and child seeds of the r_outer samples, one draw per
    stratum: sample i maps its uniform U_i to (i + U_i) / r."""
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

    return op.apply(series, b1, inverse=True)


def riemann_sum_solution(
    problem: BoundaryProblem,
    schedule: SolverSchedule,
    operator: Operator | None = None,
) -> np.ndarray:
    """x_rie, the right Riemann sum of the heat-kernel integral for x_S on
    the schedule's grid: ||x_S - x_rie|| <= gamma (||b1|| + ||x_S||)."""
    op = operator if operator is not None else restricted_operator(problem.graph, problem.subset)
    return _riemann_geometric(op, problem.b1, schedule)


def local_linear_solver(
    problem: BoundaryProblem,
    gamma: float,
    seed: int,
    workers: int = 1,
    operator: Operator | None = None,
) -> SolveReport:
    """Approximate x_S from exact heat-kernel pagerank samples.

    Draws r_outer stratified times at the operator's rate lambda1 (built
    when not given) and returns c(L_S) b1, c(lambda) = (1 / r) sum_i w_i
    exp(-t_i lambda), through ``apply``, holding about PASS_BUDGET sample
    entries at most.  Its mean is x_rie, and with probability at least
    1 - gamma its error is within gamma (||b1|| + ||x_S|| + ||x_rie||).  A
    fixed seed gives bit-identical output.  ``workers`` must be at least 1
    and does not change the output.
    """
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

    x_hat = op.apply(decay, problem.b1, inverse=True)
    log.info("local-linear-solver reduction in %.4f s", time.perf_counter() - stage)
    return SolveReport(
        x_hat=x_hat,
        sampled_ts=ts,
        walk_steps_total=0,
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
    """Approximate x_S from walk-estimated pagerank samples (cap floor(2t)).

    Draws the times of :func:`local_linear_solver`'s uniforms at the
    operator's rate lambda1 / 2 and estimates all samples in one call of
    :func:`solver_approx_dirhkpr`; under ``restricted_range`` samples at or
    past t' = :func:`restricted_threshold` count zero and run no walk, and
    the others do not change; b2 = 0 runs no walk.  With probability at least 1 - gamma the
    error is within gamma (||b1|| + ||x_S|| + ||x_rie||) + epsilon ||b2||_1.
    A fixed seed gives bit-identical output.  ``workers`` must be at least
    1 and does not change the output.
    """
    _check_workers(workers)
    op = operator if operator is not None else restricted_operator(problem.graph, problem.subset)
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
    acc = solver_approx_dirhkpr(
        problem.graph, ts[keep], problem.b2, problem.subset, epsilon, child_seeds[keep],
        constant=constant, stats=totals, weights=weights[keep],
    )
    stage = _log_sampling("greens-solver", schedule, stage)
    x_hat = acc / schedule.r_outer * (1.0 / np.sqrt(op.degrees))
    log.info("greens-solver reduction in %.4f s", time.perf_counter() - stage)
    return SolveReport(
        x_hat=x_hat,
        sampled_ts=ts,
        walk_steps_total=totals.steps_simulated,
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
    # A norm past the largest float64 is inf, which the writers refuse.
    with np.errstate(over="ignore"):
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
    """``local`` = gamma (||b1|| + ||x_S|| + ||x_rie||) and ``greens`` =
    local + epsilon ||b2||_1 (epsilon 0 for the exact backend)."""
    terms = report.error_bound_terms
    gamma = float(terms["gamma"])
    epsilon = terms.get("epsilon") or 0.0
    local = gamma * (float(terms["b1_norm"]) + float(x_s_norm) + float(x_rie_norm))
    return {"local": local, "greens": local + float(epsilon) * float(terms["b2_l1"])}


def report_to_json(report: SolveReport, problem: BoundaryProblem) -> dict:
    """JSON-ready view of a report; x_hat keyed by original vertex id.  The
    command line adds the command, its error bounds and ``elapsed_seconds``."""
    return {
        "format_version": 1,
        "method": report.method,
        "schedule": dict(vars(report.schedule)),
        "x_hat": _by_original_id(problem, report.x_hat),
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
        "sampled_ts": report.sampled_ts.tolist(),
    }
