"""The benchmark's workloads and the closed loop that measures them.

Every workload repeats a fixed *cycle* of operation kinds, one after
another in one process with ``workers=1`` (a closed loop with a single
client).  In an untraced cycle each kind runs as a *batch*: back-to-back
operations of that kind until the batch has taken ``BATCH_SECONDS``, so an
operation of a few milliseconds is timed over many repeats.  Repeat i of
kind j in cycle c gets its own seed,
``seed * 1_000_000 + 10_000 * c + 1_000 * j + i``.  Every output is checked
after each cycle, outside the timed operations.

Why these workloads:

* ``dolphins``: the paper's reference problem (62 vertices, s = 20) through
  the command line.  The walk layer does almost all the work; in
  ``solve-greens`` every walk aborts.
* ``grid``: a 150 x 150 grid with a 30 x 30 patch (s = 900) through the
  command line.  Graph loading and the dense Dirichlet operator dominate,
  and no walks run.
* ``communities``: 100 planted communities of 200 vertices, loaded once,
  then one boundary problem per community through the Python API.  Set-up
  is amortised and about half of the walks survive.
"""

from __future__ import annotations

import io
import math
import statistics
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hklocal.cli
import hklocal.dirichlet
import hklocal.graph
import hklocal.solvers
import hklocal.walks
from hklocal.fixtures import dolphins_boundary_path, dolphins_graph_path, dolphins_subset_path

import inputs
from oracle import (HarmonicOracle, OutputError, close_to, read_boundary, read_subset,
                    strict_csv, strict_json, vector_of)
from tracing import SETUP, Tracer

WORKERS = 1
# A batch of one kind of operation, or of set-ups, repeats it until it has
# taken this long; the batch's sample is its mean time per repeat.
BATCH_SECONDS = 0.2
# Other work on a shared host changes the speed of everything in this
# process together, by up to 1.7x, over seconds to minutes.  So a batch of
# ``calibration``, which shares no code with the library, runs before each
# cycle and after the last, and the end-to-end figures divide each cycle's
# times by its speed: the mean time per call of the batches before and
# after it, over this reference.  They are seconds on a host where one call
# takes 3.4 ms, as it typically did on the 2-vCPU VM the benchmark was
# tuned on.  There, in six runs of each workload, the run-to-run spread
# (interquartile range over median) of the end-to-end figures was 0.03-0.15
# this way and 0.11-0.30 in wall-clock time, which each run's record keeps.
CALIBRATION_REFERENCE_S = 3.4e-3
_CALIBRATION_VECTOR = np.linspace(1.0, 0.0, 50)
_CALIBRATION_MATRIX = np.add.outer(np.arange(100.0), np.arange(100.0)) % 7.0
_CALIBRATION_STREAM = np.ones((2000, 1000))  # 16 MB, more than the caches hold


def calibration() -> int:
    """Fixed work of the kinds the library does, in about equal parts.

    Interpreter loops, operations on small arrays, a dense eigensolver
    working in cache, and a matrix-vector product streaming from memory.
    """
    total, table = 0, {}
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0) + i
        total += i * i
    vector = _CALIBRATION_VECTOR
    for _ in range(200):
        vector = np.sort(vector) + 1.0
    np.linalg.eigh(_CALIBRATION_MATRIX)
    _CALIBRATION_STREAM @ _CALIBRATION_STREAM[0]
    return total


@dataclass
class Op:
    """One batch of operations of one kind: each one's time and output."""

    kind: str
    times: list[float]
    outputs: list

    @property
    def seconds(self) -> float:
        """Mean seconds per operation."""
        return sum(self.times) / len(self.times)


@dataclass
class Check:
    """The verdict on one operation, plus the layer figures read from it."""

    ok: bool
    bound_miss: bool | None = None
    l1_err: float | None = None
    informative: int = 0
    sampled: int = 0
    output_bytes: int = 0


class Timer:
    """Runs a batch of operations, timing each, with the tracer if given.

    ``fn(i)`` runs repeat i.  A plain timer repeats until the batch has
    taken ``BATCH_SECONDS``; a traced one runs each kind once, so that the
    per-layer figures are per operation of each kind.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.cycle = 0  # names the operations' spans

    def __call__(self, kind: str, fn) -> Op:
        times, outputs = [], []
        while not times or (self.tracer is None and sum(times) < BATCH_SECONDS):
            op_id = f"c{self.cycle}.{kind}.{len(times)}"
            with self.tracer.installed(op_id) if self.tracer else nullcontext():
                start = time.perf_counter()
                outputs.append(fn(len(times)))
                times.append(time.perf_counter() - start)
        return Op(kind, times, outputs)


def _informative(op, ts, b2: np.ndarray, epsilon: float) -> int:
    """Sampled times whose exact pagerank carries more than eps * ||b2||_1."""
    floor = epsilon * float(np.abs(b2).sum())
    return sum(float(np.abs(hklocal.dirichlet.exact_dirhkpr(op, float(t), b2)).sum()) > floor
               for t in ts)


def _load_problem(graph_path: Path, subset_path: Path, boundary_path: Path):
    graph = hklocal.graph.load_graph_file(graph_path)
    with open(subset_path, encoding="utf-8") as fh:
        subset = hklocal.graph.load_subset(fh, graph)
    with open(boundary_path, encoding="utf-8") as fh:
        b = hklocal.graph.load_boundary(fh, graph)
    return hklocal.graph.make_boundary_problem(graph, b, subset)


class CliWorkload:
    """Commands run in-process through ``hklocal.cli.run`` on one problem."""

    # (kind, command and its own arguments); the files, --seed and --workers
    # are added per operation.
    commands: list[tuple[str, list[str]]] = []
    hkpr_t = 0.0

    def __init__(self, graph: Path, subset: Path, boundary: Path, vertices: int, edges: int):
        self.files = ["--graph", str(graph), "--subset", str(subset), "--boundary", str(boundary)]
        self.paths = (graph, subset, boundary)
        self.subset_ids = read_subset(subset)
        self.expected = HarmonicOracle(graph).solve(self.subset_ids, read_boundary(boundary))
        self.size = {"vertices": vertices, "edges": edges, "s": len(self.subset_ids)}
        self._exact = None

    @property
    def kinds(self) -> list[str]:
        return [kind for kind, _ in self.commands]

    def setup(self) -> None:
        _load_problem(*self.paths)

    def cycle(self, c: int, seed: int, timer: Timer) -> list[Op]:
        return [timer(kind, lambda i, j=j, command=command: self._run(
                    self._argv(command, seed + 1_000 * j + i)))
                for j, (kind, command) in enumerate(self.commands)]

    def _argv(self, command: list[str], seed: int) -> list[str]:
        if command[0] == "solve-exact":
            return command + self.files
        return command + self.files + ["--seed", str(seed), "--workers", str(WORKERS)]

    @staticmethod
    def _run(argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with redirect_stdout(out):
            try:
                code = hklocal.cli.run(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def _exact_terms(self):
        """Operator and b2 of the problem, for the layer figures."""
        if self._exact is None:
            problem = _load_problem(*self.paths)
            op = hklocal.dirichlet.restricted_operator(problem.graph, problem.subset)
            self._exact = (op, np.asarray(problem.b2))
        return self._exact

    def check(self, ops: list[Op], layers: bool) -> list[Check]:
        checks = []
        for op in ops:
            for code, text in op.outputs:
                try:
                    checks.append(self._check_one(op.kind, code, text, layers))
                except (ValueError, KeyError, TypeError) as exc:
                    print(f"{op.kind}: {exc}", file=sys.stderr)
                    checks.append(Check(ok=False))
        return checks

    def _check_one(self, kind: str, code: int, text: str, layers: bool) -> Check:
        if code != 0:
            raise OutputError(f"exit code {code}")
        check = Check(ok=True, output_bytes=len(text.encode("utf-8")))
        if kind == "hkpr":
            rho = vector_of(strict_csv(text), self.subset_ids)
            if layers:
                op, b2 = self._exact_terms()
                exact = hklocal.dirichlet.exact_dirhkpr(op, self.hkpr_t, b2)
                check.l1_err = float(np.abs(rho - exact).sum() / np.abs(b2).sum())
            return check
        doc = strict_json(text)
        if kind == "exact":
            check.ok = close_to(vector_of(doc["x_s"], self.subset_ids), self.expected)
            return check
        vector_of(doc["x_hat"], self.subset_ids)
        if "error_bounds" not in doc:
            raise OutputError("report states no error bound")
        check.bound_miss = not doc["error_bounds"][
            "within_local_bound" if kind == "local" else "within_greens_bound"]
        if layers:
            op, b2 = self._exact_terms()
            sched = doc["schedule"]
            epsilon = sched["epsilon"] if sched["epsilon"] is not None else sched["gamma"]
            check.sampled = len(doc["sampled_ts"])
            check.informative = _informative(op, doc["sampled_ts"], b2, epsilon)
        return check


class Dolphins(CliWorkload):
    commands = [
        ("exact", ["solve-exact"]),
        ("local", ["solve-local", "--gamma", "0.1"]),
        ("greens", ["solve-greens", "--gamma", "0.4", "--eps", "0.5"]),
        ("hkpr", ["hkpr-approx", "--t", "20", "--eps", "0.3"]),
    ]
    hkpr_t = 20.0

    def __init__(self, directory: Path, seed: int, small: bool = False):
        path = dolphins_graph_path()
        graph = hklocal.graph.load_graph_file(path)
        super().__init__(path, dolphins_subset_path(), dolphins_boundary_path(), graph.n,
                         graph.edge_count)


class Grid(CliWorkload):
    commands = [
        ("exact", ["solve-exact"]),
        ("local", ["solve-local", "--gamma", "0.3"]),
    ]

    def __init__(self, directory: Path, seed: int, small: bool = False):
        made = inputs.make_grid(directory, seed, *((30, 10) if small else ()))
        problem = made.problems[0]
        super().__init__(made.graph, problem.subset, problem.boundary, made.vertices, made.edges)


class Communities:
    """One graph loaded at set-up, then one problem per cycle via the API."""

    kinds = ["problem", "exact", "local", "hkpr"]
    gamma = 0.2
    hkpr_t = 10.0
    hkpr_eps = 0.5

    def __init__(self, directory: Path, seed: int, small: bool = False):
        made = inputs.make_communities(directory, seed,
                                       *((10, 40, 200, 200) if small else ()))
        self.made = made
        self.oracle = HarmonicOracle(made.graph)
        self.size = {"vertices": made.vertices, "edges": made.edges, "s": made.problems[0].s}
        self.graph = None

    def setup(self) -> None:
        first = self.made.problems[0]
        problem = _load_problem(self.made.graph, first.subset, first.boundary)
        self.graph = problem.graph

    def _problem(self, paths: inputs.Problem):
        with open(paths.subset, encoding="utf-8") as fh:
            subset = hklocal.graph.load_subset(fh, self.graph)
        with open(paths.boundary, encoding="utf-8") as fh:
            b = hklocal.graph.load_boundary(fh, self.graph)
        return paths, hklocal.graph.make_boundary_problem(self.graph, b, subset)

    @staticmethod
    def _exact(problem):
        op = hklocal.dirichlet.restricted_operator(problem.graph, problem.subset)
        return op, hklocal.dirichlet.exact_local_solution(problem, operator=op)

    def cycle(self, c: int, seed: int, timer: Timer) -> list[Op]:
        paths = self.made.problems[c % len(self.made.problems)]
        made = timer("problem", lambda i: self._problem(paths))
        problem = made.outputs[-1][1]
        exact = timer("exact", lambda i: self._exact(problem))
        local = timer("local", lambda i: hklocal.solvers.local_linear_solver(
            problem, self.gamma, seed=seed + 2_000 + i, workers=WORKERS))
        hkpr = timer("hkpr", lambda i: hklocal.walks.approx_dirhkpr(
            problem.graph, self.hkpr_t, problem.b2, problem.subset, self.hkpr_eps,
            seed + 3_000 + i, workers=WORKERS))
        return [made, exact, local, hkpr]

    def check(self, ops: list[Op], layers: bool) -> list[Check]:
        made, exact, local, hkpr = ops
        paths = made.outputs[-1][0]
        want = read_subset(paths.subset)
        expected = self.oracle.solve(want, read_boundary(paths.boundary))
        checks = []
        for _, problem in made.outputs:
            checks.append(Check(ok=np.array_equal(
                self.graph.original_ids[problem.subset.members], want)))
        problem = made.outputs[-1][1]
        same_ids = checks[-1].ok
        s = problem.subset.size
        for _, x in exact.outputs:
            checks.append(Check(ok=same_ids and x.shape == (s,) and close_to(x, expected)))
        op, x = exact.outputs[-1]
        sched = hklocal.solvers.make_schedule(s, self.gamma)
        x_rie = hklocal.solvers.riemann_sum_solution(problem, sched, operator=op)
        b2 = np.asarray(problem.b2)
        for report in local.outputs:
            check = Check(ok=same_ids and report.x_hat.shape == (s,)
                          and bool(np.all(np.isfinite(report.x_hat))))
            bound = hklocal.solvers.error_bound(report, float(np.linalg.norm(x)),
                                                float(np.linalg.norm(x_rie)))["local"]
            check.bound_miss = float(np.linalg.norm(report.x_hat - x)) > bound
            if layers:
                check.sampled = len(report.sampled_ts)
                check.informative = _informative(op, report.sampled_ts, b2, self.gamma)
            checks.append(check)
        for rho in hkpr.outputs:
            check = Check(ok=same_ids and rho.shape == (s,) and bool(np.all(np.isfinite(rho))))
            if layers:
                exact_rho = hklocal.dirichlet.exact_dirhkpr(op, self.hkpr_t, b2)
                check.l1_err = float(np.abs(rho - exact_rho).sum() / np.abs(b2).sum())
            checks.append(check)
        return checks


WORKLOADS = {"dolphins": Dolphins, "grid": Grid, "communities": Communities}


@dataclass
class Measurement:
    """Everything one run measured."""

    seed: int
    first_setup: float = 0.0  # the warm-up set-up before the first cycle
    calibrations: list[float] = field(default_factory=list)  # before each cycle and after the last
    setups: list[float] = field(default_factory=list)  # mean of each set-up batch
    samples: dict[str, list[float]] = field(default_factory=dict)  # mean of each batch
    times: dict[str, list[float]] = field(default_factory=dict)  # every operation
    cycles: list[float] = field(default_factory=list)  # one operation of each kind
    checks: list[Check] = field(default_factory=list)
    traced_checks: list[Check] = field(default_factory=list)
    overheads: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    tracer: Tracer | None = None

    @property
    def traced_cycles(self) -> int:
        return len(self.overheads)

def _run_cycle(workload, c: int, timer: Timer, m: Measurement) -> list[Op] | None:
    """One cycle; None if an operation raised, which counts every kind failed."""
    timer.cycle = c
    try:
        ops = workload.cycle(c, m.seed * 1_000_000 + 10_000 * c, timer)
    except Exception:  # report the failure in the result instead of crashing
        traceback.print_exc(file=sys.stderr)
        m.attempted += len(workload.kinds)
        m.failed += len(workload.kinds)
        return None
    m.attempted += sum(len(op.times) for op in ops)
    return ops


def _set_up_batch(workload, tracer: Tracer | None) -> float:
    """Mean seconds per set-up over one batch."""
    times = []
    while sum(times) < BATCH_SECONDS:
        with tracer.installed(SETUP) if tracer else nullcontext():
            start = time.perf_counter()
            workload.setup()
            times.append(time.perf_counter() - start)
    return sum(times) / len(times)


def _calibrate(timer: Timer, m: Measurement) -> None:
    m.calibrations.append(timer("calibration", lambda i: calibration()).seconds
                          / CALIBRATION_REFERENCE_S)


def measure(workload, seed: int, seconds: float, trace: bool) -> Measurement:
    """Run cycles, at least one, for ``seconds`` of wall time.

    A cycle is a calibration batch, then the workload's operations, then a
    set-up batch; a last calibration batch follows the last cycle.  One
    set-up before the first cycle warms the file cache and the loading
    code.  With ``trace``, each cycle's operations are followed by a traced
    twin on the same seeds that runs each kind once, and the difference
    from the untraced mean times is the tracing overhead.  A cycle that
    raises ends the run.
    """
    tracer = Tracer() if trace else None
    m = Measurement(seed=seed, samples={kind: [] for kind in workload.kinds},
                    times={kind: [] for kind in workload.kinds}, tracer=tracer)
    plain, traced = Timer(), Timer(tracer)
    start = time.perf_counter()
    with tracer.installed(SETUP) if tracer else nullcontext():
        workload.setup()
    m.first_setup = time.perf_counter() - start
    c = 0
    while c == 0 or time.perf_counter() - start < seconds:
        c += 1
        _calibrate(plain, m)
        ops = _run_cycle(workload, c, plain, m)
        if ops is None:
            break
        m.cycles.append(sum(op.seconds for op in ops))
        for op in ops:
            m.samples[op.kind].append(op.seconds)
            m.times[op.kind] += op.times
        m.checks += workload.check(ops, layers=False)
        if trace:
            twin = _run_cycle(workload, c, traced, m)
            if twin is None:
                break
            m.overheads.append(sum(op.seconds for op in twin) - m.cycles[-1])
            m.traced_checks += workload.check(twin, layers=True)
        m.setups.append(_set_up_batch(workload, tracer))
    _calibrate(plain, m)
    m.failed += sum(not ch.ok for ch in m.checks + m.traced_checks)
    return m


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return float(num / den) if den else 0.0


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def end_to_end(m: Measurement, wall_clock: bool = False) -> dict[str, float]:
    """The end-to-end metrics of one untraced run, each a median over cycles.

    ``setup_s``, ``exact_s`` and ``local_s`` are medians of the batch means
    of that kind; ``ops_per_s`` is a cycle's operations (one of each kind)
    over the median cycle's seconds.  Each cycle's times are first divided
    by its speed, unless ``wall_clock``.
    """
    speeds = ([1.0] * len(m.cycles) if wall_clock else
              [(a + b) / 2 for a, b in zip(m.calibrations, m.calibrations[1:])])

    def median(values: list[float]) -> float:
        return _median(v / speed for v, speed in zip(values, speeds))

    return {
        "setup_s": median(m.setups),
        "exact_s": median(m.samples["exact"]),
        "local_s": median(m.samples["local"]),
        "ops_per_s": _ratio(len(m.samples), median(m.cycles)),
    }


def bound_miss_share(checks: list[Check]) -> float:
    sampled = [ch.bound_miss for ch in checks if ch.bound_miss is not None]
    return _ratio(sum(sampled), len(sampled))


def per_layer(m: Measurement, size: dict) -> dict[str, float]:
    """The per-layer metrics of one traced run.

    Load, problem, operator and solution times are medians per call (set-up
    loads included); other times and counts are per traced cycle, which runs
    one operation of each kind; shares and rates are taken over the whole run.  A layer a workload never enters
    reads 0.
    """
    t = m.tracer
    n = max(1, m.traced_cycles)
    started, steps, aborted = (t.counts[k] for k in
                               ("walks_started", "steps_simulated", "walks_aborted"))
    walk_s = t.cycle_total("walks.walk")
    checks = m.traced_checks
    load_s = _median(t.durations("graph.load"))
    return {
        "graph.load_s": load_s,
        "graph.edges_per_s": _ratio(size["edges"], load_s),
        "graph.problem_s": _median(t.durations("graph.problem")),
        "graph.problem_calls": t.cycle_calls("graph.problem") / n,
        "dirichlet.operator_s": _median(t.durations("dirichlet.operator")),
        "dirichlet.operator_calls": t.cycle_calls("dirichlet.operator") / n,
        "dirichlet.operator_bytes": _median(t.operator_bytes),
        "dirichlet.solution_s": _median(t.durations("dirichlet.solution")),
        "dirichlet.hkpr_exact_calls": t.cycle_calls("dirichlet.hkpr_exact") / n,
        "dirichlet.hkpr_exact_s": t.cycle_total("dirichlet.hkpr_exact") / n,
        "walks.walk_s": walk_s / n,
        "walks.started": started / n,
        "walks.steps": steps / n,
        "walks.aborted": aborted / n,
        "walks.steps_per_s": _ratio(steps, walk_s),
        "walks.us_per_walk": _ratio(walk_s * 1e6, started),
        "walks.survival_ratio": _ratio(started - aborted, started),
        "walks.l1_err": _median(ch.l1_err for ch in checks if ch.l1_err is not None),
        "solvers.self_s": t.self_time("solvers") / n,
        "solvers.samples": t.counts["samples"] / n,
        "solvers.riemann_s": t.cycle_total("solvers.riemann") / n,
        "solvers.informative_share": _ratio(sum(ch.informative for ch in checks),
                                            sum(ch.sampled for ch in checks)),
        "solvers.bound_miss_share": bound_miss_share(m.checks + checks),
        "cli.self_s": t.self_time("cli") / n,
        "cli.output_bytes": sum(ch.output_bytes for ch in checks) / n,
        "trace.overhead_s": _median(m.overheads),
    }


def kind_stats(m: Measurement) -> dict[str, dict]:
    """Batch and per-operation latency of each kind, with sample counts.

    The tail is the highest whole percentile of the single operations, from
    the 50th up, that has at least ten operations beyond it; None when there
    are fewer than 20 operations.
    """
    stats = {}
    for kind, values in m.times.items():
        tail = None
        if len(values) >= 20:
            pct = math.floor(100 * (1 - 10 / len(values)))
            tail = {"percentile": pct, "seconds": float(np.percentile(values, pct))}
        stats[kind] = {"batches": len(m.samples[kind]),
                       "batch_median_s": _median(m.samples[kind]), "n": len(values),
                       "min_s": min(values, default=0.0), "median_s": _median(values),
                       "mean_s": _mean(values), "tail": tail}
    return stats
