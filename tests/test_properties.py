"""Property tests: total parsers, and the vectorised restriction of a graph
to S against literal-loop references on generated graphs and subsets."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import hklocal as hk
from conftest import (
    harmonic_solve,
    reference_b1,
    reference_is_connected,
    reference_laplacian,
    reference_vertex_boundary,
)

# Derandomized and without an example database, so every run checks the
# same examples and writes nothing to disk.
PROPERTY = settings(max_examples=150, deadline=None, database=None, derandomize=True)

MAX_ID = 2**63 - 1
GRAPH = hk.load_graph(f"0 1\n1 2\n2 3\n3 {MAX_ID}\n")

_IDS = st.one_of(
    st.integers(-1, 4).map(str),
    st.sampled_from([str(MAX_ID), str(MAX_ID + 1), str(2**64), "-0", "+3", "1_0", "007"]),
)
_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "Infinity", "1e999", "-0.5", "1_0.5"]),
)
_JUNK = st.one_of(
    st.sampled_from(["#", "# 1 2", "x", "0x1", "", "1 2 3"]),
    st.lists(st.one_of(_IDS, _VALUES, st.text(max_size=4)), max_size=3).map(" ".join),
)


def _texts(line):
    """Mostly well-formed lines with the odd malformed one, or arbitrary text."""
    lines = st.lists(st.one_of(line, line, line, _JUNK), max_size=6).map("\n".join)
    return st.one_of(lines, st.text(max_size=40))


EDGE_TEXTS = _texts(st.tuples(_IDS, _IDS).map(" ".join))
SUBSET_TEXTS = _texts(_IDS)
BOUNDARY_TEXTS = _texts(st.tuples(_IDS, _VALUES).map(" ".join))


def _parses(load, text):
    """Run a loader; a GraphFormatError must name the offending line."""
    try:
        return load(text)
    except hk.GraphFormatError as exc:
        assert str(exc).startswith("line "), exc
        return None


@PROPERTY
@given(EDGE_TEXTS)
def test_load_graph_parses_or_raises_format_error(text):
    graph = _parses(hk.load_graph, text)
    if graph is not None:
        assert graph.n == len(graph.original_ids) == len(graph.degrees)


@PROPERTY
@given(SUBSET_TEXTS)
def test_load_subset_parses_or_raises_format_error(text):
    subset = _parses(lambda t: hk.load_subset(t, GRAPH), text)
    if subset is not None:
        assert subset.n == GRAPH.n


@PROPERTY
@given(BOUNDARY_TEXTS)
def test_load_boundary_parses_or_raises_format_error(text):
    b = _parses(lambda t: hk.load_boundary(t, GRAPH), text)
    if b is not None:
        assert all(np.isfinite(v) for v in b.values())


@st.composite
def connected_graphs(draw, max_n=14):
    """A random recursive tree plus extra edges, under scattered original ids."""
    n = draw(st.integers(2, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    ids = draw(st.lists(st.integers(0, MAX_ID), min_size=n, max_size=n, unique=True))
    return hk.Graph.from_edges((ids[u], ids[v]) for u, v in edges)


@st.composite
def subsets(draw):
    graph = draw(connected_graphs())
    members = draw(st.sets(st.integers(0, graph.n - 1), max_size=graph.n))
    return graph, hk.VertexSubset.from_iterable(members, graph.n)


@st.composite
def problems(draw):
    """An admissible problem: a connected proper subset grown from a root,
    with nonzero values on part of its boundary and possibly farther out."""
    graph = draw(connected_graphs())
    target = draw(st.integers(1, graph.n - 1))
    members = {draw(st.integers(0, graph.n - 1))}
    while len(members) < target:
        frontier = sorted({int(u) for v in members for u in graph.neighbors(v)} - members)
        members.add(draw(st.sampled_from(frontier)))
    subset = hk.VertexSubset.from_iterable(members, graph.n)
    delta = [int(v) for v in reference_vertex_boundary(graph, subset)]
    value = st.floats(0.25, 2.0).flatmap(lambda x: st.sampled_from([x, -x]))
    b = {v: draw(value) for v in draw(st.lists(st.sampled_from(delta), min_size=1, unique=True))}
    outside = [v for v in range(graph.n) if not subset.mask[v] and v not in delta]
    for v in draw(st.lists(st.sampled_from(outside), unique=True)) if outside else []:
        b[v] = draw(value)
    return hk.make_boundary_problem(graph, b, subset)


@PROPERTY
@given(subsets())
def test_boundary_and_connectivity_match_loops(case):
    graph, subset = case
    assert np.array_equal(hk.vertex_boundary(graph, subset), reference_vertex_boundary(graph, subset))
    assert hk.is_connected_induced(graph, subset) == reference_is_connected(graph, subset)


@PROPERTY
@given(problems())
def test_b1_and_laplacian_match_loops(problem):
    graph, subset = problem.graph, problem.subset
    assert np.array_equal(problem.b1, reference_b1(graph, problem.b, subset))
    assert np.array_equal(problem.delta_s, reference_vertex_boundary(graph, subset))
    partial = sorted(
        (min(int(v), int(u)), max(int(v), int(u)))
        for v in subset.members for u in graph.neighbors(v) if not subset.mask[u]
    )
    assert [tuple(row) for row in hk.edge_boundary(graph, subset).tolist()] == partial
    assert np.array_equal(hk.restricted_laplacian(graph, subset), reference_laplacian(graph, subset))


@PROPERTY
@given(problems())
def test_exact_local_solution_matches_harmonic_oracle(problem):
    x = hk.exact_local_solution(problem)
    assert np.max(np.abs(x - harmonic_solve(problem))) <= 1e-10
