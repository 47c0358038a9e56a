"""The ``hklocal`` command line.  Results go to --out or standard output as
JSON (solve commands) or CSV, diagnostics to standard error under SOLVER_LOG;
reruns of one configuration are byte-identical but for ``elapsed_seconds``."""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from .dirichlet import exact_dirhkpr, exact_local_solution, restricted_operator
from .graph import (
    BoundaryConditionError,
    BoundaryProblem,
    Graph,
    GraphFormatError,
    VertexSubset,
    _by_original_id,
    _read_text,
    load_boundary,
    load_graph_file,
    load_subset,
    make_boundary_problem,
    validate_b_boundable,
)
# make_schedule is imported for the benchmark's tracer, which wraps it under
# this module's name.
from .solvers import (
    _horizon,
    error_bound,
    greens_solver,
    local_linear_solver,
    make_schedule,
    report_to_json,
    riemann_sum_solution,
)
from .walks import DEFAULT_SAMPLE_CONSTANT, PASS_BUDGET, approx_dirhkpr

__all__ = ["main", "run"]

log = logging.getLogger("hklocal")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID = 2


def _configure_logging() -> None:
    level_name = os.environ.get("SOLVER_LOG", "error").lower()
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        level_name, logging.ERROR
    )
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("[%(levelname)s] %(name)s: %(message)s"))
    log.handlers[:] = [handler]
    log.setLevel(level)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# Every writer refuses a result that overflowed rather than print it.
_NOT_FINITE = "the result is not finite: a value overflowed float64"


def _check_finite(values) -> None:
    if not np.isfinite(values).all():
        raise ValueError(_NOT_FINITE)


# json's C encoder serves only indent=None; its item separator is ", ".
_ENCODE = json.JSONEncoder(allow_nan=False).encode
# The types it writes as one token: a container of only these is flat.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _json_doc(doc: dict) -> str:
    """``json.dumps(doc, indent=2, allow_nan=False) + "\\n"``, byte for byte,
    for a document whose keys are all ``str``."""
    try:
        return _indented(doc, "\n") + "\n"
    except ValueError:
        raise ValueError(_NOT_FINITE) from None


def _indented(value, newline: str) -> str:
    """``value`` as ``json.dumps(..., indent=2)`` writes it at the depth whose
    line break and indent are ``newline``.  A flat container is encoded once
    by the C encoder and re-indented at its item separators, which is exact
    when the text holds no other ", "."""
    if not isinstance(value, (dict, list, tuple)) or not value:
        return _ENCODE(value)
    inner = newline + "  "
    is_dict = isinstance(value, dict)
    if _SCALARS.issuperset(map(type, value.values() if is_dict else value)):
        flat = _ENCODE(value)
        if flat.count(", ") == len(value) - 1:
            return flat[0] + inner + flat[1:-1].replace(", ", "," + inner) + newline + flat[-1]
    if is_dict:
        parts = [_ENCODE(k) + ": " + _indented(v, inner) for k, v in value.items()]
    else:
        parts = [_indented(v, inner) for v in value]
    opening, closing = "{}" if is_dict else "[]"
    return opening + inner + ("," + inner).join(parts) + newline + closing


def _vector_csv(problem: BoundaryProblem, values: np.ndarray) -> str:
    _check_finite(values)
    lines = ["# format_version=1", "vertex_id,value"]
    lines.extend(f"{v},{x!r}" for v, x in _by_original_id(problem, values).items())
    return "\n".join(lines) + "\n"


def _read_inputs(args: argparse.Namespace) -> tuple[Graph, dict[int, float], VertexSubset]:
    """The graph, boundary vector and subset named by the I/O options."""
    graph = load_graph_file(args.graph)
    subset = load_subset(_read_text(args.subset), graph)
    b = load_boundary(_read_text(args.boundary), graph)
    return graph, b, subset


def _load_problem(args: argparse.Namespace) -> BoundaryProblem:
    return make_boundary_problem(*_read_inputs(args))


def _error_bounds(report, problem: BoundaryProblem, op) -> dict:
    """The concrete error bounds against the exact solution, on the
    restricted operator ``op`` the solver ran on and its schedule's grid."""
    x_s = exact_local_solution(problem, operator=op)
    x_rie = riemann_sum_solution(problem, report.schedule, operator=op)
    # A norm past the largest float64 is inf, which the writer refuses.
    with np.errstate(over="ignore"):
        bounds = error_bound(report, float(np.linalg.norm(x_s)), float(np.linalg.norm(x_rie)))
        observed = float(np.linalg.norm(report.x_hat - x_s))
    return {
        "local": bounds["local"],
        "greens": bounds["greens"],
        "observed_error": observed,
        "within_local_bound": observed <= bounds["local"],
        "within_greens_bound": observed <= bounds["greens"],
    }


def _cmd_validate(args: argparse.Namespace) -> int:
    violations = validate_b_boundable(*_read_inputs(args))
    doc = {
        "format_version": 1,
        "command": "validate",
        "valid": not violations,
        "violations": violations,
    }
    _emit(_json_doc(doc), args.out)
    return EXIT_OK if not violations else EXIT_INVALID


def _cmd_solve_exact(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    problem = _load_problem(args)
    op = restricted_operator(problem.graph, problem.subset)
    x_s = exact_local_solution(problem, operator=op)
    doc = {
        "format_version": 1,
        "command": "solve-exact",
        "subset_size": problem.subset.size,
        "lambda1": op.lambda1,
        "x_s": _by_original_id(problem, x_s),
        "elapsed_seconds": time.perf_counter() - start,
    }
    _emit(_json_doc(doc), args.out)
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    """solve-local and solve-greens: one restricted operator serves the
    solver, its rate and the error bounds."""
    start = time.perf_counter()
    problem = _load_problem(args)
    op = restricted_operator(problem.graph, problem.subset)
    if args.command == "solve-local":
        report = local_linear_solver(
            problem, args.gamma, seed=args.seed, workers=args.workers, operator=op
        )
    else:
        report = greens_solver(
            problem, args.gamma, args.eps, seed=args.seed,
            restricted_range=args.restricted_range, workers=args.workers,
            constant=args.constant_override, operator=op,
        )
    doc = report_to_json(report, problem)
    bounds = _error_bounds(report, problem, op)
    doc.update(elapsed_seconds=time.perf_counter() - start, command=args.command,
               error_bounds=bounds)
    _emit(_json_doc(doc), args.out)
    return EXIT_OK


def _cmd_hkpr_exact(args: argparse.Namespace) -> int:
    problem = _load_problem(args)
    op = restricted_operator(problem.graph, problem.subset)
    rho = exact_dirhkpr(op, args.t, problem.b2)
    _emit(_vector_csv(problem, rho), args.out)
    return EXIT_OK


def _cmd_hkpr_approx(args: argparse.Namespace) -> int:
    problem = _load_problem(args)
    rho = approx_dirhkpr(
        problem.graph,
        args.t,
        problem.b2,
        problem.subset,
        args.eps,
        args.seed,
        workers=args.workers,
        constant=args.constant_override,
    )
    _emit(_vector_csv(problem, rho), args.out)
    return EXIT_OK


def _cmd_sweep_norms(args: argparse.Namespace) -> int:
    problem = _load_problem(args)
    op = restricted_operator(problem.graph, problem.subset)
    T = _horizon(problem.subset.size, args.gamma)
    _check_finite(T)
    # Ascending t, also when T < 1 (s = 1 and gamma > 1/e).
    grid = np.sort(np.geomspace(1.0, T, args.points))
    lines = ["# format_version=1", "t,l1_norm,max_abs_entry"]
    # All times of a chunk share one Krylov basis of b2; a chunk holds at
    # most about PASS_BUDGET entries.
    rows = max(1, PASS_BUDGET // op.s)
    for lo in range(0, grid.size, rows):
        ts = grid[lo:lo + rows]
        for t, rho in zip(ts, np.abs(exact_dirhkpr(op, ts, problem.b2))):
            l1 = rho.sum()
            _check_finite(l1)  # the largest entry is then finite too
            lines.append(f"{float(t)!r},{float(l1)!r},{float(rho.max())!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it costs about a millisecond per call."""
    parser = argparse.ArgumentParser(
        prog="hklocal",
        description="Local Laplacian boundary-value solver via heat kernel pagerank",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    io_parent = argparse.ArgumentParser(add_help=False)
    io_parent.add_argument("--graph", required=True, help="edge-list file ('u v' per line)")
    io_parent.add_argument("--subset", required=True, help="subset file (one vertex id per line)")
    io_parent.add_argument("--boundary", required=True, help="boundary file ('vertex_id value' per line)")
    io_parent.add_argument("--out", default=None, help="output path (default: stdout)")

    mc_parent = argparse.ArgumentParser(add_help=False)
    mc_parent.add_argument("--seed", type=int, default=0, help="master RNG seed")
    mc_parent.add_argument("--workers", type=_int_at_least(1), default=1,
                           help="accepted for compatibility, at least 1; sampling is "
                                "serial and the value does not change the output")
    mc_parent.add_argument(
        "--constant-override",
        type=float,
        default=DEFAULT_SAMPLE_CONSTANT,
        help="leading constant in the per-part walk count (default %(default)s)",
    )

    sub.add_parser("validate", parents=[io_parent], help="check the boundary-problem conditions")

    sub.add_parser("solve-exact", parents=[io_parent], help="exact local solution via the Green's function")

    p = sub.add_parser("solve-local", parents=[io_parent, mc_parent],
                       help="sampled solver with the exact heat-kernel backend")
    p.add_argument("--gamma", type=float, required=True, help="solver error parameter in (0,1)")

    p = sub.add_parser("solve-greens", parents=[io_parent, mc_parent],
                       help="sampled solver with the random-walk backend")
    p.add_argument("--gamma", type=float, required=True, help="solver error parameter in (0,1)")
    p.add_argument("--eps", type=float, required=True, help="walk-estimator error parameter, >= gamma")
    p.add_argument("--restricted-range", action="store_true",
                   help="skip samples past the decay threshold t'")

    p = sub.add_parser("hkpr-exact", parents=[io_parent],
                       help="exact heat kernel pagerank of b2 at one t (CSV)")
    p.add_argument("--t", type=float, required=True, help="heat parameter t >= 0")

    p = sub.add_parser("hkpr-approx", parents=[io_parent, mc_parent],
                       help="walk-estimated heat kernel pagerank of b2 at one t (CSV)")
    p.add_argument("--t", type=float, required=True, help="heat parameter t > 0")
    p.add_argument("--eps", type=float, required=True, help="estimator error parameter in (0,1)")

    p = sub.add_parser("sweep-norms", parents=[io_parent],
                       help="CSV of L1 norm and max |entry| of exact pagerank over a log t-grid")
    p.add_argument("--gamma", type=float, default=0.01,
                   help="sets the grid ceiling T (default %(default)s)")
    p.add_argument("--points", type=_int_at_least(2), default=200,
                   help="grid size, at least 2 (default %(default)s)")
    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "solve-exact": _cmd_solve_exact,
    "solve-local": _cmd_solve,
    "solve-greens": _cmd_solve,
    "hkpr-exact": _cmd_hkpr_exact,
    "hkpr-approx": _cmd_hkpr_approx,
    "sweep-norms": _cmd_sweep_norms,
}


def run(argv: list[str] | None = None) -> int:
    """Parse arguments and execute one command; returns the exit code."""
    _configure_logging()
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except BoundaryConditionError as exc:
        doc = {
            "format_version": 1,
            "command": args.command,
            "valid": False,
            "violations": exc.violations,
        }
        _emit(_json_doc(doc), getattr(args, "out", None))
        log.error("invalid boundary problem: %s", exc)
        return EXIT_INVALID
    except (GraphFormatError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
