"""Spans at the library's layer boundaries, recorded from outside.

The tracer wraps public functions at the module attributes their callers
look them up through (``hklocal.cli.load_graph_file`` for the command line,
``hklocal.solvers.exact_dirhkpr`` for the solvers, and so on), so nothing in
the library changes.  Spans are recorded only at those boundaries, never per
walk: walk counts come from the library's ``WalkStats``.  Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

import hklocal.cli
import hklocal.dirichlet
import hklocal.graph
import hklocal.solvers
import hklocal.walks

# (module, attribute, span name).  The layer of a span is the part of its
# name before the dot.  The benchmark's own API calls look functions up on
# the defining module, the command line and the solvers on their own.
# graph.read, solvers.schedule, solvers.bound and solvers.report feed no
# metric of their own; they keep that work out of their caller's self time.
TARGETS = [
    (hklocal.cli, "run", "cli.run"),
    (hklocal.cli, "load_graph_file", "graph.load"),
    (hklocal.graph, "load_graph_file", "graph.load"),
    (hklocal.cli, "load_subset", "graph.read"),
    (hklocal.graph, "load_subset", "graph.read"),
    (hklocal.cli, "load_boundary", "graph.read"),
    (hklocal.graph, "load_boundary", "graph.read"),
    (hklocal.cli, "make_boundary_problem", "graph.problem"),
    (hklocal.graph, "make_boundary_problem", "graph.problem"),
    (hklocal.cli, "restricted_operator", "dirichlet.operator"),
    (hklocal.solvers, "restricted_operator", "dirichlet.operator"),
    (hklocal.dirichlet, "restricted_operator", "dirichlet.operator"),
    (hklocal.cli, "exact_local_solution", "dirichlet.solution"),
    (hklocal.dirichlet, "exact_local_solution", "dirichlet.solution"),
    (hklocal.cli, "exact_dirhkpr", "dirichlet.hkpr_exact"),
    (hklocal.solvers, "exact_dirhkpr", "dirichlet.hkpr_exact"),
    (hklocal.cli, "approx_dirhkpr", "walks.walk"),
    (hklocal.walks, "approx_dirhkpr", "walks.walk"),
    (hklocal.solvers, "solver_approx_dirhkpr", "walks.walk"),
    (hklocal.cli, "local_linear_solver", "solvers.solve"),
    (hklocal.solvers, "local_linear_solver", "solvers.solve"),
    (hklocal.cli, "greens_solver", "solvers.solve"),
    (hklocal.cli, "riemann_sum_solution", "solvers.riemann"),
    (hklocal.solvers, "riemann_sum_solution", "solvers.riemann"),
    (hklocal.cli, "make_schedule", "solvers.schedule"),
    (hklocal.cli, "error_bound", "solvers.bound"),
    (hklocal.solvers, "error_bound", "solvers.bound"),
    (hklocal.cli, "report_to_json", "solvers.report"),
]

_WALK_COUNTERS = ("walks_started", "steps_simulated", "walks_aborted")
# Operation name of the spans recorded while setting up.
SETUP = "setup"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str


def operator_bytes(op) -> int:
    """Total nbytes of the arrays a DirichletOperator holds."""
    return sum(getattr(op, f.name).nbytes for f in fields(op)
               if isinstance(getattr(op, f.name), np.ndarray))


class Tracer:
    """Collects spans and boundary counts while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.operator_bytes: list[int] = []
        self._stack: list[int] = []
        self._op = ""

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            stats = None
            if name == "walks.walk":
                # The command line passes no WalkStats; lend one so the
                # counts are read where the walks happen.
                stats = kwargs.get("stats")
                if stats is None:
                    stats = kwargs["stats"] = hklocal.walks.WalkStats()
                before = [getattr(stats, c) for c in _WALK_COUNTERS]
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self._op)
            if stats is not None:
                for counter, old in zip(_WALK_COUNTERS, before):
                    self.counts[counter] += getattr(stats, counter) - old
            elif name == "dirichlet.operator":
                self.operator_bytes.append(operator_bytes(result))
            elif name == "solvers.solve":
                self.counts["samples"] += len(result.sampled_ts)
            return result

        return traced

    @contextmanager
    def installed(self, op: str):
        """Wrap every target for the duration of one operation."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in TARGETS]
        for (module, attr, name), (_, _, fn) in zip(TARGETS, originals):
            setattr(module, attr, self._wrap(name, fn))
        self._op = op
        try:
            yield
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def durations(self, name: str) -> list[float]:
        """Durations of every span of that name, set-up included."""
        return [sp.end - sp.start for sp in self.spans if sp.name == name]

    def _in_cycles(self, name: str) -> list[float]:
        return [sp.end - sp.start for sp in self.spans
                if sp.name == name and sp.op != SETUP]

    def cycle_total(self, name: str) -> float:
        return float(sum(self._in_cycles(name)))

    def cycle_calls(self, name: str) -> int:
        return len(self._in_cycles(name))

    def self_time(self, layer: str) -> float:
        """Time in a layer's spans, set-up excluded, minus what children cover.

        Everything runs on one thread, so child spans never overlap and the
        covered time is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.end - sp.start
        return float(sum(sp.end - sp.start - child[i] for i, sp in enumerate(self.spans)
                         if sp.name.split(".")[0] == layer and sp.op != SETUP))

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, sp in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": sp.name, "start": sp.start,
                                     "end": sp.end, "parent": sp.parent, "op": sp.op}) + "\n")
