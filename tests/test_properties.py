"""Property tests: total parsers, the whole-text tokeniser against the
per-line parsers, the CSR build, the sort dedupe against np.unique, the
vectorised restriction of a graph to S against literal-loop references on
generated graphs and subsets, the admissibility checks against the
set-based code they replaced, and the Krylov operator against the dense
oracle on generated problems."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hklocal as hk
from hklocal import dirichlet as dirichlet_module
from hklocal import graph as graph_module
from conftest import (
    NOT_CONNECTED,
    check_solve_stop,
    condition_iii,
    harmonic_solve,
    heat_kernel,
    neighbors,
    reference_b1,
    reference_graph,
    reference_is_connected,
    reference_laplacian,
    reference_vertex_boundary,
    reference_violations,
    saad_ratio,
    vertex_boundary,
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


# Text on which the tokeniser must decline or agree with the per-line parsers:
# every character on which str.splitlines breaks, also inside comments, ids
# that int() reads but a digit scan does not, and ids around 2^63.  Most lines
# are well formed, so that many texts reach the tokeniser's last check.
_LINE_ENDS = st.sampled_from(["\n"] * 6 + ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
_BLANKS = st.sampled_from(["", " ", "\t", " \t "])
_ODD_IDS = st.one_of(
    st.integers(0, 4).map(str),
    st.sampled_from(["+3", "-3", "1_0", "1+2", "007", "\u0663", "9" * 18, "1" + "0" * 18,
                     "9" * 19, "1" + "0" * 19, str(MAX_ID), str(MAX_ID + 1)]),
)
_COMMENT_TAILS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["a\x0b0 1", "\r1 2", "\x0c3", "\x850 4", "\u20282", "\x1d 1 3"]),
)


def _odd_texts(per_line):
    tokens = st.one_of(st.lists(_ODD_IDS, min_size=per_line, max_size=per_line),
                       st.lists(_ODD_IDS, max_size=3))
    line = st.one_of(
        st.tuples(_BLANKS, tokens, st.sampled_from([" ", "\t", "  "]), _BLANKS)
        .map(lambda p: p[0] + p[2].join(p[1]) + p[3]),
        st.tuples(_BLANKS, _COMMENT_TAILS).map(lambda p: f"{p[0]}#{p[1]}"),
    )
    return st.lists(st.tuples(line, _LINE_ENDS), max_size=6).map(
        lambda lines: "".join(line + end for line, end in lines))


def _outcome(load, fields, text):
    """The arrays a loader returns, with their dtypes, or its error message."""
    try:
        result = load(text)
    except hk.GraphFormatError as exc:
        return str(exc)
    return [(getattr(result, f).dtype.str, getattr(result, f).tolist()) for f in fields]


GRAPH_FIELDS = ("indptr", "indices", "degrees", "original_ids")
SUBSET_FIELDS = ("members", "local_of")


@PROPERTY
@given(st.one_of(EDGE_TEXTS, _odd_texts(2)))
@example("0 1\n2+3\n")  # one token to int(), two digit runs to a scan
@example(f"{'0' * 25}1 {'0' * 19}2\n")  # zero-padded past 18 digits: bulk, as int()
@example(f"{'9' * 18} 1\n{10**18} 2\n")  # the first id the tokeniser declines
@example(f"{'9' * 20} 1\n")  # past 2^63, where np.fromstring saturates
@example("# a\n0 1\n# b\n1 2\n \t# c\n")  # comment lines after data lines
@example("# a\n0 1\n1 #2\n")  # a "#" on a data line past the last comment line
@example("# a\n0 1\n# caf\u00e9\n1 2 \u00e9\n")  # non-ASCII after the last "#"
@example("0 1\n2\n")  # a short line after a good one
@example("0 1\n2 3 4\n")  # a long line after a good one
@example("0 1\n2 3")  # a last line with no line break
@example("0 1\n \t\n2 3\n")  # a whitespace-only line between data lines
@example(" \n\t\n")  # blanks only
def test_load_graph_matches_per_line_parser(text):
    per_line = _outcome(lambda t: hk.Graph.from_edges(graph_module._edge_lines(t)), GRAPH_FIELDS, text)
    assert _outcome(hk.load_graph, GRAPH_FIELDS, text) == per_line


@PROPERTY
@given(st.one_of(SUBSET_TEXTS, _odd_texts(1)))
@example(f"{'0' * 20}1\n# a\n2\n# b\n")  # zero-padded ids, a comment after the data
@example("1\n2 3\n")  # a long line after a good one
@example("1\n2")  # a last line with no line break
@example("1\n \t\n2\n")  # a whitespace-only line between data lines
@example(" \n\t\n")  # blanks only
def test_load_subset_matches_per_line_parser(text):
    per_line = _outcome(lambda t: graph_module._subset_lines(t, GRAPH), SUBSET_FIELDS, text)
    assert _outcome(lambda t: hk.load_subset(t, GRAPH), SUBSET_FIELDS, text) == per_line


# Small ids as they are, or moved far apart or next to 2^63 - 1, where they
# must be compacted by a sort instead of a table; the last map reverses them.
_ID_MAPS = [lambda v: v, lambda v: v + 2**40, lambda v: v * 10**6, lambda v: MAX_ID - v]


@st.composite
def edge_lists(draw):
    """(u, v) pairs with repeats, some reversed."""
    edge = st.tuples(st.integers(0, 40), st.integers(0, 40)).filter(lambda e: e[0] != e[1])
    pairs = draw(st.lists(edge, max_size=30))
    for u, v in draw(st.lists(st.sampled_from(pairs), max_size=6)) if pairs else []:
        pairs.append(draw(st.sampled_from([(u, v), (v, u)])))
    to_id = draw(st.sampled_from(_ID_MAPS))
    pairs = [(to_id(u), to_id(v)) for u, v in pairs]
    if draw(st.booleans()):
        pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return pairs


def _assert_matches_reference(pairs):
    graph = hk.Graph.from_edges(pairs)
    expected = reference_graph(pairs)
    assert graph.n == expected.pop("n")
    assert graph.n == 0 or graph.degrees.min() >= 1
    assert graph.edge_count == len(expected.pop("edges"))
    for name, values in expected.items():
        array = getattr(graph, name)
        assert (array.dtype, array.flags.writeable) == (np.int64, False), name
        assert array.tolist() == values, name


@PROPERTY
@given(edge_lists())
@example([])
def test_from_edges_matches_reference(pairs):
    _assert_matches_reference(pairs)


@pytest.mark.parametrize("to_id, table_calls", [(_ID_MAPS[0], 1), (_ID_MAPS[1], 0)])
def test_from_edges_compaction_paths(monkeypatch, to_id, table_calls):
    # The same pairs under dense ids go through the id table, and moved past
    # 2^40 through the sort; both give the reference graph.
    calls = []
    table = graph_module._compact_by_table
    monkeypatch.setattr(graph_module, "_compact_by_table",
                        lambda *args: calls.append(args) or table(*args))
    pairs = [(to_id(u), to_id(v)) for u, v in [(0, 1), (4, 1), (1, 0), (2, 4), (9, 2)]]
    _assert_matches_reference(pairs)
    assert len(calls) == table_calls


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
        frontier = sorted({int(u) for v in members for u in neighbors(graph, v)} - members)
        members.add(draw(st.sampled_from(frontier)))
    subset = hk.VertexSubset.from_iterable(members, graph.n)
    delta = [int(v) for v in reference_vertex_boundary(graph, subset)]
    value = st.floats(0.25, 2.0).flatmap(lambda x: st.sampled_from([x, -x]))
    b = {v: draw(value) for v in draw(st.lists(st.sampled_from(delta), min_size=1, unique=True))}
    outside = [v for v in range(graph.n) if v not in subset and v not in delta]
    for v in draw(st.lists(st.sampled_from(outside), unique=True)) if outside else []:
        b[v] = draw(value)
    return hk.make_boundary_problem(graph, b, subset)


@PROPERTY
@given(subsets())
def test_boundary_and_connectivity_match_loops(case):
    graph, subset = case
    assert np.array_equal(vertex_boundary(graph, subset), reference_vertex_boundary(graph, subset))
    connected = NOT_CONNECTED not in condition_iii(graph, subset)
    assert connected == reference_is_connected(graph, subset)


@PROPERTY
@given(st.lists(st.one_of(st.integers(-3, 3), st.integers(-(2**63), MAX_ID)), max_size=40))
@example([])
def test_sorted_unique_matches_np_unique(values):
    # The vertex boundary dedupes with this sort instead of np.unique.
    a = np.array(values, dtype=np.int64)
    unique = graph_module._sorted_unique(a)
    assert unique.dtype == np.int64 and np.array_equal(unique, np.unique(a))


@PROPERTY
@given(problems())
def test_b1_and_laplacian_match_loops(problem):
    graph, subset = problem.graph, problem.subset
    assert np.array_equal(problem.b1, reference_b1(graph, problem.b, subset))
    assert np.array_equal(problem.delta_s, reference_vertex_boundary(graph, subset))
    assert np.array_equal(hk.restricted_laplacian(graph, subset), reference_laplacian(graph, subset))


@PROPERTY
@given(problems())
def test_exact_local_solution_matches_harmonic_oracle(problem):
    x = hk.exact_local_solution(problem)
    assert np.max(np.abs(x - harmonic_solve(problem))) <= 1e-10


@st.composite
def lollipops(draw):
    """K_m with a path of ``tail`` vertices hung from vertex m - 1.  S is that
    vertex, some other clique vertices and the first k tail vertices, so the
    bottleneck of the tail gives lambda1 down to about 1e-4; b sits on part
    of the vertex boundary."""
    m, tail = draw(st.integers(3, 16)), draw(st.integers(1, 40))
    clique = [(i, j) for i in range(m) for j in range(i + 1, m)]
    graph = hk.Graph.from_edges(clique + [(v - 1, v) for v in range(m, m + tail)])
    inside = draw(st.sets(st.integers(0, m - 2)))
    members = sorted(inside) + list(range(m - 1, m + draw(st.integers(0, tail - 1))))
    subset = hk.VertexSubset.from_iterable(members, graph.n)
    delta = vertex_boundary(graph, subset).tolist()
    value = st.floats(0.25, 2.0).flatmap(lambda x: st.sampled_from([x, -x]))
    b = {v: draw(value) for v in draw(st.lists(st.sampled_from(delta), min_size=1, unique=True))}
    return hk.make_boundary_problem(graph, b, subset)


@st.composite
def chorded_trees(draw):
    """A random recursive tree on up to 160 vertices plus up to n random
    chords, with S = 0..s-1, connected since each vertex's parent precedes
    it, and signed values on part of its vertex boundary.  Built with numpy
    from a drawn seed, so that s reaches past 100 cheaply: there Lanczos
    stops at a check well before k = s."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(2, 161))
    tree = np.stack([(rng.random(n - 1) * np.arange(1, n)).astype(np.int64), np.arange(1, n)], 1)
    chords = rng.integers(0, n, (int(rng.integers(0, n + 1)), 2))
    graph = hk.Graph.from_edges(np.concatenate([tree, chords[chords[:, 0] != chords[:, 1]]]))
    subset = hk.VertexSubset.from_iterable(np.arange(rng.integers(1, n)), n)
    delta = vertex_boundary(graph, subset)
    chosen = delta[(rng.random(delta.size) < 0.5) | (np.arange(delta.size) == rng.integers(delta.size))]
    values = rng.uniform(0.25, 2.0, chosen.size) * rng.choice([-1.0, 1.0], chosen.size)
    return hk.make_boundary_problem(graph, dict(zip(chosen.tolist(), values.tolist())), subset)


EPS = np.finfo(np.float64).eps
# The worst agreement seen, in units of kappa * eps with kappa = lambda_max /
# lambda1, over 8,000 problems of problems() and of lollipops() and 4,000
# chorded trees, on both products: lambda1 8.9, the solve 5.9 and the heat
# kernel 4.3 with the lambda1 run's Kato-Temple stop (hypothesis seed 11;
# CHANGES.md).
KRYLOV_C = 32
# The relative accuracy at which a Krylov apply stops, dirichlet._LANCZOS_TOL.
LANCZOS_TOL = 1e-13


@settings(PROPERTY, max_examples=200)
@given(st.one_of(problems(), lollipops(), chorded_trees()))
def test_krylov_operator_matches_the_dense_oracle(problem):
    # lambda1, the Green's solve of b1 and e^{-tL} b1 at t = 0.5, 5 and
    # 5 / lambda1 agree within c kappa eps on the dense and on the sparse
    # product, and the applies also within LANCZOS_TOL: the heat kernel,
    # the local solver's weighted kernel sum and the Riemann series of
    # solve-local.  An apply is measured against the larger of its norm
    # and ||b1||, as close_to_dense in test_dirichlet.py does: at
    # t = 5 / lambda1 the heat kernel is conditioned to about
    # t lambda_max eps = 10 kappa eps of b1.
    dense = hk.DirichletOperator.from_subset(problem.graph, problem.subset)
    tol = KRYLOV_C * dense.eigenvalues[-1] / dense.lambda1 * EPS
    f = problem.b1
    times = np.array([0.5, 5.0, 5.0 / dense.lambda1])
    x, heat = dense.solve(f), heat_kernel(dense, times, f)
    schedule = hk.make_schedule(dense.s, 0.2)
    riemann = hk.riemann_sum_solution(problem, schedule, operator=dense)

    def within(got, want):
        scale = np.maximum(np.linalg.norm(want, axis=-1), np.linalg.norm(f))
        return np.all(np.linalg.norm(got - want, axis=-1) <= (tol + LANCZOS_TOL) * scale)

    # Every product dense (S of one vertex has no coupling to make dense),
    # then every product sparse.
    s = dense.s
    for share in (s * s, 0):
        with mock.patch.object(dirichlet_module, "_DENSE_SHARE", share):
            krylov = hk.KrylovOperator.from_subset(problem.graph, problem.subset)
        assert (krylov.laplacian is None) == (share == 0 or s == 1)
        assert abs(krylov.lambda1 - dense.lambda1) <= tol * dense.lambda1
        assert np.linalg.norm(krylov.solve(f) - x) <= tol * np.linalg.norm(x)
        assert within(heat_kernel(krylov, times, f), heat)
        assert within(hk.riemann_sum_solution(problem, schedule, operator=krylov), riemann)
        # The kernel sum is drawn at the operator's lambda1, so the dense
        # side applies the very function the Krylov solver built.
        with mock.patch.object(hk.KrylovOperator, "apply", autospec=True,
                               side_effect=hk.KrylovOperator.apply) as spy:
            x_hat = hk.local_linear_solver(problem, 0.2, seed=0, operator=krylov).x_hat
        assert within(x_hat, dense.apply(spy.call_args.args[1], f))


@PROPERTY
@given(st.one_of(problems(), lollipops(), chorded_trees()))
def test_solver_sums_check_first_at_the_solve_stop(problem):
    # The kernel sum and the Riemann series, each the only apply of a fresh
    # run, eigensolve T_k first at the step where solve(b1) stops, then at
    # the checkpoints that follow, and stop at the first whose own Saad
    # estimate passes or where the run ends; b1 = 0 makes no run.  Both
    # agree with the dense operator within the tolerance of the test above.
    dense = hk.DirichletOperator.from_subset(problem.graph, problem.subset)
    krylov = hk.KrylovOperator.from_subset(problem.graph, problem.subset)
    tol = KRYLOV_C * dense.eigenvalues[-1] / dense.lambda1 * EPS + LANCZOS_TOL
    f = problem.b1
    first = [check_solve_stop(krylov, f)] if np.any(f) else []
    schedule = hk.make_schedule(dense.s, 0.2)
    sums = [lambda op: hk.local_linear_solver(problem, 0.2, seed=0, operator=op).x_hat,
            lambda op: hk.riemann_sum_solution(problem, schedule, operator=op)]
    for call in sums:
        op, seen = dataclasses.replace(krylov), []
        real = dirichlet_module._tridiagonal
        with mock.patch.object(dirichlet_module, "_tridiagonal",
                               lambda alpha, beta: seen.append((alpha, beta)) or real(alpha, beta)), \
             mock.patch.object(hk.KrylovOperator, "apply", autospec=True,
                               side_effect=hk.KrylovOperator.apply) as spy:
            x = call(op)
        fn = spy.call_args.args[1]
        sizes = [alpha.size for alpha, _ in seen]
        expected = first[:]
        while expected and len(expected) < len(sizes):
            expected.append(expected[-1] + max(16, expected[-1] // 4))
        assert sizes == expected
        ratios = [saad_ratio(fn, alpha, beta) for alpha, beta in seen]
        assert all(r > 1.0 for r in ratios[:-1]), ratios
        assert not ratios or ratios[-1] <= 1.0 or op._run.last == sizes[-1], ratios
        want = call(dense)
        scale = max(np.linalg.norm(want), np.linalg.norm(f))
        assert np.linalg.norm(x - want) <= tol * scale


@PROPERTY
@given(st.one_of(problems(), lollipops(), chorded_trees()))
def test_krylov_solve_stops_at_the_first_passing_step(problem):
    # check_solve_stop's brute force from b1 and b2: the solve stops at the
    # first Lanczos step whose exact residual passes, or where the run
    # ends, and its O(1) running ||y_k|| matches the exact one at every step.
    krylov = hk.KrylovOperator.from_subset(problem.graph, problem.subset)
    for f in (problem.b1, problem.b2):
        if np.any(f):
            check_solve_stop(krylov, f)


@PROPERTY
@given(st.one_of(problems(), lollipops(), chorded_trees()).map(lambda p: (p.graph, p.subset))
       | subsets(), st.data())
def test_violations_match_the_set_based_oracle(case, data):
    # The array tests of conditions (i) and (ii) give the set-based code's
    # messages in its order, on a random b: keys in S, on its vertex
    # boundary, elsewhere in the graph and outside [0, n), zero values
    # among them.  Subsets from subsets() also break condition (iii).
    graph, subset = case
    near = subset.members.tolist() + vertex_boundary(graph, subset).tolist()
    keys = st.one_of(st.integers(0, graph.n - 1), st.integers(-(2**63), -1),
                     st.integers(graph.n, MAX_ID), *([st.sampled_from(near)] if near else []))
    values = st.sampled_from([0.0, -0.0, 1.0, -0.5, 1e-300, float("nan")])
    b = data.draw(st.dictionaries(keys, values, max_size=8))
    want = reference_violations(graph, b, subset)
    assert hk.validate_b_boundable(graph, b, subset) == want
    if want:
        with pytest.raises(hk.BoundaryConditionError) as err:
            hk.make_boundary_problem(graph, b, subset)
        assert err.value.violations == want
