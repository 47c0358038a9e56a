"""Shared fixtures: tiny path graphs, the bundled dolphin network, random
problem generators, and the independent oracles used across the suite,
among them a dict-of-sets graph that ``Graph.from_edges`` is checked
against, the one-walk reference the lockstep walk engine is replayed
against, a pure-Python SplitMix64 that every hashed draw is checked
against, the paper's uniform time draw and the literal Riemann sum; the
Krylov solve's stop and an apply's Saad estimate, recomputed from T_k; the
readers of the command line's CSV outputs; and the library's vertex
boundary and uncapped walk estimate, which only tests call."""

from __future__ import annotations

import dataclasses
import math
import types
from unittest import mock

import numpy as np
import pytest

import hklocal as hk
from hklocal.fixtures import (
    dolphins_boundary_path,
    dolphins_graph_path,
    dolphins_subset_path,
)
from hklocal.dirichlet import _EPS, _LANCZOS_TOL, _lanczos_cg
from hklocal.graph import _restrict, _vertex_boundary
from hklocal.walks import _mc_dirhkpr

P3_EDGES = "0 1\n1 2\n"
P4_EDGES = "0 1\n1 2\n2 3\n"

NOT_CONNECTED = "condition (iii) violated: induced subgraph on S is not connected"
EMPTY_BOUNDARY = "condition (iii) violated: vertex boundary of S is empty"


def neighbors(graph: hk.Graph, v: int) -> np.ndarray:
    """The compact ids adjacent to v, ascending: row v of the CSR."""
    return graph.indices[graph.indptr[v]:graph.indptr[v + 1]]


def vertex_boundary(graph: hk.Graph, subset: hk.VertexSubset) -> np.ndarray:
    """The library's vertex boundary of S: the vertices outside S adjacent
    to a member, ascending, from its one restriction of the adjacency."""
    return _vertex_boundary(_restrict(graph, subset))


def uncapped_dirhkpr(graph, t, f, subset, epsilon, master_seed,
                     constant=hk.DEFAULT_SAMPLE_CONSTANT, stats=None) -> np.ndarray:
    """``approx_dirhkpr`` with no walk-length cap: its walk engine with an
    infinite cap."""
    r = hk.sample_count(epsilon, graph.n, constant)
    return _mc_dirhkpr(graph, t, math.inf, f, subset, r, master_seed, None, stats)


def heat_kernel(op, t, f: np.ndarray) -> np.ndarray:
    """The symmetric heat kernel exp(-t L_S) f through the operator's
    ``apply``; a 1-d array of times gives one row per time."""
    return op.apply(lambda lam: np.exp(-np.multiply.outer(t, lam)), f)


def _csv_rows(text: str, header: str) -> list[list[str]]:
    """The comma-split data rows of a CSV whose first non-blank,
    non-comment line must be ``header``."""
    lines = [line for line in map(str.strip, text.splitlines())
             if line and not line.startswith("#")]
    assert lines and lines[0] == header, lines[:1]
    return [line.split(",") for line in lines[1:]]


def load_vector_csv(text: str) -> dict[int, float]:
    """The vertex_id,value CSV of the hkpr commands, keyed by vertex id."""
    return {int(vid): float(value) for vid, value in _csv_rows(text, "vertex_id,value")}


def load_sweep_csv(text: str) -> list[tuple[float, float, float]]:
    """The t,l1_norm,max_abs_entry rows of sweep-norms."""
    return [(float(t), float(l1), float(mx))
            for t, l1, mx in _csv_rows(text, "t,l1_norm,max_abs_entry")]


def condition_iii(graph: hk.Graph, subset: hk.VertexSubset) -> list[str]:
    """The condition (iii) messages of ``validate_b_boundable`` for S, under
    a b that is 1 at compact id 0 (any nonzero b reaches the check)."""
    return [m for m in hk.validate_b_boundable(graph, {0: 1.0}, subset) if "(iii)" in m]


@pytest.fixture(scope="session")
def p3_graph() -> hk.Graph:
    return hk.load_graph(P3_EDGES)


@pytest.fixture(scope="session")
def p4_graph() -> hk.Graph:
    return hk.load_graph(P4_EDGES)


@pytest.fixture(scope="session")
def p3_problem(p3_graph) -> hk.BoundaryProblem:
    subset = hk.VertexSubset.from_iterable([1], p3_graph.n)
    return hk.make_boundary_problem(p3_graph, {0: 1.0, 2: 1.0}, subset)


@pytest.fixture(scope="session")
def p4_problem(p4_graph) -> hk.BoundaryProblem:
    subset = hk.VertexSubset.from_iterable([1, 2], p4_graph.n)
    return hk.make_boundary_problem(p4_graph, {0: 1.0}, subset)


@pytest.fixture(scope="session")
def dolphins_graph() -> hk.Graph:
    return hk.load_graph_file(dolphins_graph_path())


@pytest.fixture(scope="session")
def dolphins_problem(dolphins_graph) -> hk.BoundaryProblem:
    subset = hk.load_subset(dolphins_subset_path().read_text(), dolphins_graph)
    b = hk.load_boundary(dolphins_boundary_path().read_text(), dolphins_graph)
    return hk.make_boundary_problem(dolphins_graph, b, subset)


def random_connected_graph(rng: np.random.Generator, n: int, extra_edges: int | None = None) -> hk.Graph:
    """Random connected graph: random recursive tree plus extra random edges."""
    edges = set()
    for v in range(1, n):
        edges.add((int(rng.integers(v)), v))
    if extra_edges is None:
        extra_edges = int(rng.integers(0, n + 1))
    for _ in range(extra_edges):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return hk.Graph.from_edges(edges)


def random_problem(
    rng: np.random.Generator,
    graph: hk.Graph,
    max_size: int | None = None,
    outside_support: bool = False,
) -> hk.BoundaryProblem:
    """Random admissible boundary problem on ``graph``.

    Grows a random connected subset, puts random nonzero values on a
    nonempty selection of its vertex boundary, and optionally adds support
    elsewhere outside S (which the folding must ignore).
    """
    n = graph.n
    limit = min(max_size or n - 1, n - 1)
    for _ in range(500):
        target = int(rng.integers(1, limit + 1))
        members = {int(rng.integers(n))}
        while len(members) < target:
            frontier = sorted(
                {int(u) for v in members for u in neighbors(graph, v)} - members
            )
            if not frontier:
                break
            members.add(int(frontier[int(rng.integers(len(frontier)))]))
        subset = hk.VertexSubset.from_iterable(members, n)
        delta = vertex_boundary(graph, subset)
        if len(delta) == 0:
            continue
        k = int(rng.integers(1, len(delta) + 1))
        chosen = rng.choice(delta, size=k, replace=False)
        b = {
            int(v): float(rng.uniform(0.25, 2.0) * rng.choice([-1.0, 1.0]))
            for v in chosen
        }
        if outside_support:
            far = [
                v for v in range(n)
                if v not in subset and v not in set(int(x) for x in delta)
            ]
            if far:
                v = int(far[int(rng.integers(len(far)))])
                b[v] = float(rng.uniform(0.25, 2.0) * rng.choice([-1.0, 1.0]))
        if not hk.validate_b_boundable(graph, b, subset):
            return hk.make_boundary_problem(graph, b, subset)
    raise RuntimeError("could not generate an admissible random problem")


def grid_patch(patch: int, seed: int = 1):
    """A (patch + 2)-square four-neighbour grid with its inner patch x patch
    block as S and signed values, drawn from the seed, on the rows just
    above and below S.  Vertex r * (patch + 2) + c sits at row r, column c.

    Returns (edge pairs, members of S, boundary vertices, boundary values).
    """
    side = patch + 2
    ids = np.arange(side * side).reshape(side, side)
    pairs = np.concatenate([
        np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1),
        np.stack([ids[:-1, :].ravel(), ids[1:, :].ravel()], axis=1),
    ])
    inner = ids[1:1 + patch, 1:1 + patch].ravel()
    boundary = np.concatenate([ids[0, 1:1 + patch], ids[1 + patch, 1:1 + patch]])
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.5, 1.5, boundary.size) * np.where(
        rng.random(boundary.size) < 0.5, -1.0, 1.0)
    return pairs, inner, boundary, values


def grid_patch_problem(patch: int, seed: int = 1) -> hk.BoundaryProblem:
    """The boundary problem of :func:`grid_patch`."""
    pairs, inner, boundary, values = grid_patch(patch, seed)
    graph = hk.load_graph("".join(f"{a} {b}\n" for a, b in pairs))
    subset = hk.VertexSubset.from_iterable(inner.tolist(), graph.n)
    return hk.make_boundary_problem(graph, dict(zip(boundary.tolist(), values.tolist())), subset)


def clique_hub_pairs(s: int) -> list[tuple[int, int]]:
    """The edges of K_s on 0..s-1 plus a hub s joined to every member.

    With S = 0..s-1 and b(hub) = 3, every member has degree s, so
    L_S = I - (J - I) / s: lambda1 = 1/s on the constant vector, and
    x_s = L_S^-1 b1 = 3 on every member (b1 = 3 / s)."""
    return [(i, j) for i in range(s) for j in range(i + 1, s + 1)]


def clique_hub_problem(s: int) -> hk.BoundaryProblem:
    """The boundary problem of :func:`clique_hub_pairs`."""
    graph = hk.Graph.from_edges(clique_hub_pairs(s))
    subset = hk.VertexSubset.from_iterable(range(s), graph.n)
    return hk.make_boundary_problem(graph, {s: 3.0}, subset)


def dense_cluster_problem(s: int, chords: int, seed: int) -> hk.BoundaryProblem:
    """A ring of s members plus ``chords`` random member pairs as S, and
    s // 4 outside vertices joined to three random members each, with
    signed values on every other one."""
    rng = np.random.default_rng(seed)
    ring = [(v, (v + 1) % s) for v in range(s)]
    inner = [tuple(pair) for pair in rng.integers(0, s, (chords, 2)).tolist()]
    outside = [(v, int(u)) for v in range(s, s + s // 4) for u in rng.integers(0, s, 3)]
    graph = hk.Graph.from_edges(ring + [(u, v) for u, v in inner if u != v] + outside)
    b = {v: float(rng.uniform(0.5, 1.5)) * (-1.0) ** v for v in range(s, s + s // 4, 2)}
    return hk.make_boundary_problem(graph, b, hk.VertexSubset.from_iterable(range(s), graph.n))


def harmonic_solve(problem: hk.BoundaryProblem) -> np.ndarray:
    """Independent oracle: assemble and solve the harmonic system directly.

    For every v in S the solution must equal the degree-weighted average of
    its neighbors' values, with boundary values fixed by b.  Assembled by
    literal adjacency loops and solved with an LU factorization, so it
    shares nothing with the eigendecomposition path.
    """
    graph, subset, b = problem.graph, problem.subset, problem.b
    s = subset.size
    system = np.zeros((s, s))
    rhs = np.zeros(s)
    for i, v in enumerate(subset.members):
        v = int(v)
        system[i, i] = 1.0
        for u in neighbors(graph, v):
            u = int(u)
            w = 1.0 / math.sqrt(graph.degrees[v] * graph.degrees[u])
            if u in subset:
                system[i, subset.local_of[u]] -= w
            else:
                rhs[i] += float(b.get(u, 0.0)) * w
    return np.linalg.solve(system, rhs)


def reference_graph(pairs) -> dict:
    """Literal-loop graph of (u, v) pairs: a dict of neighbour sets, read
    out as the fields of :class:`hklocal.Graph` in lists.

    Compact ids are positions among the sorted distinct original ids; rows
    list neighbours in ascending order and ``edges`` each edge once, u < v,
    in lexicographic order.
    """
    nbrs: dict[int, set[int]] = {}
    for u, v in pairs:
        nbrs.setdefault(int(u), set()).add(int(v))
        nbrs.setdefault(int(v), set()).add(int(u))
    original = sorted(nbrs)
    compact = {v: i for i, v in enumerate(original)}
    rows = [sorted(compact[u] for u in nbrs[v]) for v in original]
    indptr = [0]
    for row in rows:
        indptr.append(indptr[-1] + len(row))
    return {
        "n": len(original),
        "edges": [[i, j] for i, row in enumerate(rows) for j in row if i < j],
        "indptr": indptr,
        "indices": [j for row in rows for j in row],
        "degrees": [len(row) for row in rows],
        "original_ids": original,
    }


def reference_vertex_boundary(graph: hk.Graph, subset: hk.VertexSubset) -> np.ndarray:
    """Literal-loop vertex boundary: outside neighbors of members, sorted."""
    hit = set()
    for v in subset.members:
        for u in neighbors(graph, int(v)):
            if u not in subset:
                hit.add(int(u))
    return np.array(sorted(hit), dtype=np.int64)


def reference_is_connected(graph: hk.Graph, subset: hk.VertexSubset) -> bool:
    """Literal-loop depth-first search of the induced subgraph on S."""
    if subset.size == 0:
        return False
    root = int(subset.members[0])
    seen = {root}
    stack = [root]
    while stack:
        v = stack.pop()
        for u in neighbors(graph, v):
            u = int(u)
            if u in subset and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == subset.size


def reference_violations(graph: hk.Graph, b: dict, subset: hk.VertexSubset) -> list[str]:
    """``validate_b_boundable``'s messages by the set-based code its array
    tests replaced, with condition (iii) from the literal-loop references."""
    support = {int(v) for v, value in b.items() if value != 0.0}
    if not support:
        return ["trivial boundary vector (no nonzero entries)"]
    violations = []
    overlap = sorted(int(graph.original_ids[v]) for v in support if v in subset)
    if overlap:
        violations.append(f"condition (i) violated: supp(b) intersects S at {overlap}")
    delta = {int(v) for v in reference_vertex_boundary(graph, subset)}
    if not support & delta:
        violations.append("condition (ii) violated: vertex boundary of S is disjoint from supp(b)")
    if not reference_is_connected(graph, subset):
        violations.append(NOT_CONNECTED)
    elif not delta:
        violations.append(EMPTY_BOUNDARY)
    return violations


def reference_b1(graph: hk.Graph, b: dict, subset: hk.VertexSubset) -> np.ndarray:
    """Literal-loop fold of b into S, adding each member's terms by ascending u."""
    b1 = np.zeros(subset.size)
    for i, v in enumerate(subset.members):
        for u in neighbors(graph, int(v)):
            if u not in subset:
                b1[i] += float(b.get(int(u), 0.0)) / math.sqrt(graph.degrees[v] * graph.degrees[u])
    return b1


def reference_laplacian(graph: hk.Graph, subset: hk.VertexSubset) -> np.ndarray:
    """Literal-loop restricted normalized Laplacian of S."""
    lap = np.eye(subset.size)
    for i, v in enumerate(subset.members):
        for u in neighbors(graph, int(v)):
            if u in subset:
                j = int(subset.local_of[u])
                lap[i, j] = -1.0 / math.sqrt(float(graph.degrees[v]) * float(graph.degrees[u]))
    return lap


def check_solve_stop(krylov: hk.KrylovOperator, f: np.ndarray) -> int:
    """Solve f on a fresh copy of ``krylov`` and check its stop by brute
    force; returns the steps k it took.  The run then holds exactly those
    steps.  For every j <= k, :func:`_lanczos_cg` on T_j gives y_j and the
    residual over its limit, beta_j |y_j[j]| / (eps theta_max ||y_j||): the
    solve must stop at the first j where that is at most 1, or where the
    run ends.  A second solve from f replays the run without stepping it,
    so its only square roots are of the O(1) running ||y_j||^2, one per
    step; each must match ||y_j|| to 1e-12 relative."""
    op = dataclasses.replace(krylov)
    x = op.solve(f)
    alpha, beta = np.array(op._run.alpha), np.array(op._run.beta)
    k, limit = alpha.size, _EPS * krylov.ritz_values[-1]
    norms, ratios = [], []
    for j in range(1, k + 1):
        y = _lanczos_cg(alpha[:j], beta[:j])
        norms.append(np.linalg.norm(y))
        ratios.append(beta[j - 1] * abs(y[-1]) / (limit * norms[-1]))
    assert all(r > 1.0 for r in ratios[:-1]), ratios
    assert ratios[-1] <= 1.0 or op._run.last == k, ratios
    squares = []
    spy = types.SimpleNamespace(sqrt=lambda v: squares.append(v) or math.sqrt(v))
    with mock.patch.object(hk.dirichlet, "math", spy):
        assert np.array_equal(op.solve(f), x)
    assert len(op._run.alpha) == k and len(squares) == k
    assert np.allclose(np.sqrt(squares), norms, rtol=1e-12, atol=0.0), (squares, norms)
    return k


def tridiagonal(alpha, beta):
    """T_k, dense, at a check point of a run: beta's last entry is beta_k."""
    off = beta[:-1]
    return np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1)


def saad_ratio(fn, alpha, beta):
    """beta_k |c_k| over its limit, for one function and c = fn(T_k) e1, at
    a check point of a run: the limit is _LANCZOS_TOL ||c||, plus how far
    raising every Ritz value by one ulp of the largest moves c, plus the
    smallest normal float."""
    theta, vectors = np.linalg.eigh(tridiagonal(alpha, beta))
    c = vectors @ (fn(theta) * vectors[0])
    noise = (fn(theta + _EPS * theta[-1]) - fn(theta)) * vectors[0]
    tiny = np.finfo(np.float64).tiny
    return beta[-1] * abs(c[-1]) / (_LANCZOS_TOL * np.linalg.norm(c) + np.linalg.norm(noise) + tiny)


def dirichlet_walk(
    graph: hk.Graph,
    subset: hk.VertexSubset,
    start: int,
    k: int,
    rng,
    stats: hk.WalkStats | None = None,
) -> int | None:
    """Run k uniform-neighbor steps from ``start``; abort on leaving S.

    Returns the terminal vertex if every visited vertex stays in S, else
    None.  k = 0 returns the start vertex.  ``start`` must belong to S.
    ``rng.integers(d)`` picks each step's neighbor number below the degree d.
    """
    if start not in subset:
        raise ValueError(f"walk start {start} is not in the subset")
    indptr = graph.indptr
    indices = graph.indices
    local_of = subset.local_of
    if stats is not None:
        stats.walks_started += 1
    cur = int(start)
    for _ in range(k):
        lo = indptr[cur]
        nxt = int(indices[lo + rng.integers(indptr[cur + 1] - lo)])
        if stats is not None:
            stats.steps_simulated += 1
        if local_of[nxt] < 0:
            if stats is not None:
                stats.walks_aborted += 1
            return None
        cur = nxt
    return cur


MASK64 = (1 << 64) - 1
PHI = 0x9E3779B97F4A7C15
# Increments of a key's start (or schedule time) and length uniforms.
START, LENGTH = 0xD1B54A32D192ED03, 0x8CB92BA72F3D8DD7
PHASE_SCHEDULE = 2


def splitmix64(z):
    """SplitMix64 finaliser (Steele, Lea & Flood 2014) on a Python int."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def uniform(z):
    """The engine's uniform on [0, 1): the top 53 bits of splitmix64(z)."""
    return (splitmix64(z) >> 11) * 2.0**-53


def walk_key(seed, phase, j):
    """Key of member j of the (seed, phase) group: mix(g + j * phi) with the
    group key g = mix(mix(seed) + phase * phi), the seed taken modulo 2**64."""
    group = splitmix64(splitmix64(seed) + phase * PHI)
    return splitmix64(group + j * PHI)


def schedule_draws(seed, r):
    """The solvers' time uniforms and child seeds: sample i has the key
    w_i = walk_key(seed, PHASE_SCHEDULE, i), the uniform u(w_i + START) and
    the child seed w_i."""
    keys = [walk_key(seed, PHASE_SCHEDULE, i) for i in range(r)]
    return np.array([uniform(w + START) for w in keys]), keys


def draw_t(schedule: hk.SolverSchedule, rng: np.random.Generator) -> float:
    """The paper's time draw: t = j * gamma with j uniform on the integers
    [1, floor(N)].  The solvers use ``draw_weighted_t``, which reduces to it
    in law at rate 0."""
    j = int(rng.integers(1, schedule.floor_n + 1))
    return j * schedule.gamma


def riemann_direct(problem: hk.BoundaryProblem, schedule: hk.SolverSchedule, op) -> np.ndarray:
    """Literal right Riemann sum for x_S: one exact pagerank per grid point,
    against which the solvers' closed-form sum is checked."""
    acc = np.zeros(op.s, dtype=np.float64)
    for j in range(1, schedule.floor_n + 1):
        acc += hk.exact_dirhkpr(op, j * schedule.gamma, problem.b2)
    return acc * schedule.gamma * (1.0 / np.sqrt(op.degrees))


def is_eps_approx(estimate: np.ndarray, truth: np.ndarray, eps: float) -> bool:
    """Relative error <= eps on reported entries; zeros only where truth <= eps."""
    for est, true in zip(estimate, truth):
        if est != 0.0:
            if abs(true - est) > eps * abs(true):
                return False
        elif abs(true) > eps:
            return False
    return True
