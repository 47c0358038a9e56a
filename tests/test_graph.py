"""Graph ingestion, subset machinery, and boundary-vector folding."""

import inspect
import io
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import hklocal as hk
from hklocal import graph as graph_module
from hklocal.fixtures import dolphins_boundary_path, dolphins_subset_path
from conftest import (
    EMPTY_BOUNDARY,
    NOT_CONNECTED,
    condition_iii,
    grid_patch,
    neighbors,
    random_connected_graph,
    random_problem,
    vertex_boundary,
)


def test_package_republishes_each_module_all():
    # hklocal's public names are those its four modules list in __all__,
    # each once, and no other.
    modules = [hk.graph, hk.dirichlet, hk.walks, hk.solvers]
    names = [name for module in modules for name in module.__all__]
    assert sorted(hk.__all__) == sorted(set(names))
    assert {name for name, value in vars(hk).items()
            if not name.startswith("_") and not inspect.ismodule(value)} == set(names)
    assert "Operator" in names


class TestLoadGraph:
    def test_path_graph(self):
        g = hk.load_graph("0 1\n1 2")
        assert g.n == 3
        assert list(g.degrees) == [1, 2, 1]
        assert g.edge_count == 2

    def test_duplicate_and_reversed_lines_collapse(self):
        g = hk.load_graph("0 1\n1 0\n0 1")
        assert g.n == 2
        assert g.edge_count == 1

    def test_comments_and_blank_lines(self):
        g = hk.load_graph("# header\n\n0 1\n\n# tail\n1 2\n")
        assert g.edge_count == 2

    def test_self_loop_rejected_with_line_number(self):
        with pytest.raises(hk.GraphFormatError, match="line 2"):
            hk.load_graph("0 1\n3 3\n")

    def test_non_integer_token_rejected(self):
        with pytest.raises(hk.GraphFormatError, match="line 1"):
            hk.load_graph("0 x\n")

    def test_wrong_token_count_rejected(self):
        with pytest.raises(hk.GraphFormatError, match="two vertex ids"):
            hk.load_graph("0 1 2\n")

    @pytest.mark.parametrize("data, line", [
        (b"0 1\r\n1 2\n\xe9 3\n", 3),  # a Latin-1 byte after a CRLF line end
        (b"0 1\r2 3\xe2\x82", 2),  # a cut-off sequence after a lone CR
        (b"\xef\xbb\xbf0 1\n1 2\n\xe9 3\n", 3),  # past a UTF-8 byte-order mark
    ])
    def test_non_utf8_byte_names_its_line(self, tmp_path, data, line):
        path = tmp_path / "latin1.edges"
        path.write_bytes(data)
        with pytest.raises(hk.GraphFormatError, match=f"^line {line}: byte 0x"):
            hk.load_graph_file(path)

    @pytest.mark.parametrize("handle", [False, True], ids=["str", "handle"])
    @pytest.mark.parametrize("loader", ["graph", "subset", "boundary"])
    def test_byte_order_mark_is_skipped(self, loader, handle):
        # A leading U+FEFF, which a text decoded as plain UTF-8 keeps, reads
        # as the same text without it, from a string or a text handle.
        g = hk.load_graph("0 1\n1 2\n")
        texts = {"graph": "# header\n0 1\n1 2\n", "subset": "1\n", "boundary": "0 1.5\n2 -1\n"}
        load = {"graph": hk.load_graph, "subset": lambda src: hk.load_subset(src, g),
                "boundary": lambda src: hk.load_boundary(src, g)}[loader]
        text = "\ufeff" + texts[loader]
        got = load(io.StringIO(text) if handle else text)
        want = load(texts[loader])
        if loader == "graph":
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.original_ids, want.original_ids)
        elif loader == "subset":
            assert np.array_equal(got.members, want.members)
        else:
            assert got == want == {0: 1.5, 2: -1.0}

    def test_arbitrary_ids_compact_with_map(self):
        g = hk.load_graph("10 30\n30 700\n")
        assert g.n == 3
        assert list(g.original_ids) == [10, 30, 700]
        assert g.compact_id(700) == 2
        assert g.original_ids[0] == 10
        with pytest.raises(hk.GraphFormatError):
            g.compact_id(11)

    def test_dolphins_fixture(self, dolphins_graph):
        assert dolphins_graph.n == 62
        assert dolphins_graph.edge_count == 159
        # The whole graph is connected: condition (iii) fails only on its boundary.
        full = hk.VertexSubset.from_iterable(range(62), 62)
        assert condition_iii(dolphins_graph, full) == [EMPTY_BOUNDARY]

    def test_storage_is_immutable(self, p4_graph):
        with pytest.raises(ValueError):
            p4_graph.degrees[0] = 9
        sub = hk.VertexSubset.from_iterable([1, 2], p4_graph.n)
        with pytest.raises(ValueError):
            sub.members[0] = 3

    def test_adjacency_symmetry_random(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 30)))
            for v in range(g.n):
                for u in neighbors(g, v):
                    assert v in neighbors(g, int(u))
            assert all(g.degrees[v] == len(neighbors(g, v)) for v in range(g.n))


class TestBulkParse:
    """Text the whole-text tokeniser must take without the per-line parsers,
    which are replaced here by ones that fail."""

    @pytest.fixture(autouse=True)
    def no_per_line_parser(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the per-line parser ran")

        monkeypatch.setattr(graph_module, "_edge_lines", refuse)
        monkeypatch.setattr(graph_module, "_subset_lines", refuse)

    def test_header_comment(self):
        g = hk.load_graph("# header\n0 1\n1 2\n")
        assert g.edge_count == 2
        assert list(g.degrees) == [1, 2, 1]

    @pytest.mark.parametrize("scale", [1, 7])
    def test_generated_file(self, tmp_path, scale):
        # The layout of the benchmark's generated inputs: one header line,
        # then "u v" lines; scale 7 gives ids that are not 0..n-1.
        edges = grid_patch(38)[0] * scale
        path = tmp_path / "grid.edges"
        path.write_text("# 40x40 four-neighbour grid\n"
                        + "".join(f"{u} {v}\n" for u, v in edges.tolist()))
        g = hk.load_graph_file(path)
        expected = hk.Graph.from_edges([tuple(row) for row in edges.tolist()])
        for name in ("indptr", "indices", "degrees", "original_ids"):
            assert np.array_equal(getattr(g, name), getattr(expected, name)), name

    def test_generated_file_with_repeats_and_reversals(self, tmp_path):
        # Every edge listed in both orientations, a third of them once more.
        edges = grid_patch(38)[0]
        pairs = np.concatenate((edges, edges[:, ::-1], edges[::3]))
        pairs = pairs[np.random.default_rng(5).permutation(len(pairs))]
        path = tmp_path / "grid.edges"
        path.write_text("# repeated edges\n" + "".join(f"{u} {v}\n" for u, v in pairs.tolist()))
        g = hk.load_graph_file(path)
        for expected in (hk.Graph.from_edges([tuple(row) for row in pairs.tolist()]),
                         hk.Graph.from_edges(edges)):
            assert g.n == expected.n
            for name in ("indptr", "indices", "degrees", "original_ids"):
                got, want = getattr(g, name), getattr(expected, name)
                assert (got.dtype, got.flags.writeable) == (np.int64, False), name
                assert np.array_equal(got, want), name

    @pytest.mark.parametrize("text", [
        "",
        "# only a comment\n",
        "\t0 1 \r\n1\t2\t\r\n",
        "0 1\r1 2\r\r2 3",  # lone CR line ends, on which str.splitlines breaks too
        "# café → \r\n  # indented\n\n007 8\n",
        f"{'9' * 18} 1\n1 2",
    ])
    def test_blanks_crlf_and_comments(self, text):
        hk.load_graph(text)

    def test_subset(self, p4_graph):
        sub = hk.load_subset("# members\n2\n 1 \r\n", p4_graph)
        assert list(sub.members) == [1, 2]

    @pytest.mark.parametrize("text, edges", [
        # Zero-padded ids past 18 digits read as int() reads them.
        (f"{'0' * 25}1 {'0' * 19}2\n00 {'0' * 40}1\n", [(0, 1), (1, 2)]),
        (f"{'9' * 18} 1\n", [(1, 10**18 - 1)]),
        # Comment lines after data lines, the last one ending the text.
        ("# a\n5 6\n  # b\n6 7\n\t# c \u00e9", [(5, 6), (6, 7)]),
    ])
    def test_ids_and_late_comments(self, text, edges):
        g = hk.load_graph(text)
        ids = g.original_ids.tolist()
        assert [(ids[u], ids[v])
                for u in range(g.n) for v in neighbors(g, u).tolist() if u < v] == edges

    @pytest.mark.parametrize("text", [
        f"{10**18} 1\n",
        f"{'9' * 20} 1\n",  # past 2^63, where np.fromstring saturates
        "# a\n0 1\n1 2 #\n",  # a "#" on a data line past the last comment line
        "# a\n0 1\n1 2 \u00e9\n",  # non-ASCII after the last "#"
    ])
    def test_declines_to_the_per_line_parser(self, text):
        with pytest.raises(AssertionError, match="the per-line parser ran"):
            hk.load_graph(text)


class TestFromEdges:
    @pytest.mark.parametrize("pairs, message", [
        ([(0, 1.5), (1, 2)], "non-integer vertex id 1.5"),
        (np.array([[0.0, 1.0], [1.0, 2.0]]), "non-integer vertex id 0.0"),
        ([(0, "1")], "non-integer vertex id '1'"),
        (np.array([[2**63, 1]], dtype=np.uint64), "vertex id does not fit in 64 bits"),
        ([(2**63, 1)], "vertex id does not fit in 64 bits"),
        ([(-1, 2**63)], "vertex id does not fit in 64 bits"),
        ([(2**64, 1)], "vertex id does not fit in 64 bits"),
    ])
    def test_ids_must_be_int64_integers(self, pairs, message):
        with pytest.raises(hk.GraphFormatError, match=f"^{message}$"):
            hk.Graph.from_edges(pairs)

    @pytest.mark.parametrize("pairs", [
        np.array([[0, 1], [1, 2]], dtype=np.int32),
        np.array([[0, 1], [1, 2]], dtype=np.uint64),
        [(np.int16(0), 1), (np.uint64(1), 2)],  # numpy reads these as float64
        np.array([[0, 1], [1, 2]], dtype=object),
        (pair for pair in [(0, 1), (1, 2)]),
    ])
    def test_integer_ids_of_any_type(self, pairs):
        graph = hk.Graph.from_edges(pairs)
        assert graph.indices.tolist() == [1, 0, 2, 1]
        assert graph.original_ids.tolist() == [0, 1, 2]

    def test_int64_pairs_are_used_in_place(self):
        pairs = np.array([[0, 1], [1, 2]], dtype=np.int64)
        assert np.shares_memory(graph_module._id_pairs(pairs), pairs)

    @pytest.mark.parametrize("shift", [0, 2**40])
    @pytest.mark.parametrize("n, key", [(65_536, np.uint32), (65_537, np.int64)])
    def test_key_width_boundary(self, monkeypatch, n, key, shift):
        # The path on n vertices: at n = 65,536 its largest key u * n + v is
        # 2^32 - 1 and the keys are uint32; one vertex more needs int64.  Its
        # edges come shuffled, half of them reversed, under dense ids (the id
        # table) or ids moved past 2^40 (the sort).
        widths = []
        unique = graph_module._sorted_unique
        monkeypatch.setattr(graph_module, "_sorted_unique",
                            lambda a: widths.append(a.dtype) or unique(a))
        rng = np.random.default_rng(n)
        pairs = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)[rng.permutation(n - 1)]
        flip = rng.random(n - 1) < 0.5
        pairs[flip] = pairs[flip, ::-1]
        graph = hk.Graph.from_edges(pairs + shift)
        assert widths == [key]
        degrees = np.full(n, 2)
        degrees[[0, -1]] = 1
        expected = {
            "indptr": np.concatenate(([0], np.cumsum(degrees))),
            "indices": np.stack([np.arange(n) - 1, np.arange(n) + 1], axis=1).ravel()[1:-1],
            "degrees": degrees,
            "original_ids": np.arange(n) + shift,
        }
        assert graph.n == n
        for name, values in expected.items():
            array = getattr(graph, name)
            assert (array.dtype, array.flags.writeable) == (np.int64, False), name
            assert np.array_equal(array, values), name


class TestVertexSubset:
    def test_local_index_round_trip(self):
        sub = hk.VertexSubset.from_iterable([5, 2, 9], 12)
        assert list(sub.members) == [2, 5, 9]
        for i in range(sub.size):
            assert sub.local_of[sub.members[i]] == i
        assert (np.delete(sub.local_of, sub.members) == -1).all()

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            hk.VertexSubset.from_iterable([1, 1], 4)

    @pytest.mark.parametrize("vertices", [[3, 0, 2], [], [4, 0], [-1, 2], [1, 2, 1]])
    def test_int64_array_matches_list(self, vertices):
        # An int64 array is taken without a per-element int(); the checks,
        # messages and arrays are those of the list, and the array is kept.
        outcomes = []
        for given in (vertices, np.array(vertices, dtype=np.int64)):
            try:
                sub = hk.VertexSubset.from_iterable(given, 4)
                outcomes.append([(a.tolist(), a.flags.writeable) for a in (sub.members, sub.local_of)])
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert given.tolist() == vertices and given.flags.writeable

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            hk.VertexSubset.from_iterable([4], 4)


class TestRestrictionMemo:
    """S keeps its restriction (the adjacency slice and the condition (iii)
    verdict) for the last graph it was restricted against."""

    @staticmethod
    def _counted(monkeypatch):
        calls = {"_restrict": 0, "_condition_iii": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(graph_module, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(graph_module, name, counted)
        return calls

    @pytest.mark.parametrize("patch", [None, 15])
    def test_one_slice_and_one_check_per_problem(self, monkeypatch, dolphins_graph, patch):
        # The dolphins problem (dense operator) and a 15 x 15 grid patch
        # (Krylov operator), each from a fresh subset, through problem,
        # operator, exact solution, local solver and walk estimator.
        if patch is None:
            graph = dolphins_graph
            subset = hk.load_subset(dolphins_subset_path().read_text(), graph)
            b = hk.load_boundary(dolphins_boundary_path().read_text(), graph)
        else:
            pairs, inner, boundary, values = grid_patch(patch)
            graph = hk.Graph.from_edges(pairs)
            subset = hk.VertexSubset.from_iterable(inner, graph.n)
            b = dict(zip(boundary.tolist(), values.tolist()))
        calls = self._counted(monkeypatch)
        problem = hk.make_boundary_problem(graph, b, subset)
        op = hk.restricted_operator(problem.graph, problem.subset)
        assert isinstance(op, hk.DirichletOperator) == (patch is None)
        hk.exact_local_solution(problem, operator=op)
        hk.local_linear_solver(problem, 0.4, seed=0)
        hk.approx_dirhkpr(problem.graph, 2.0, problem.b2, problem.subset, 0.5, 0)
        assert hk.validate_b_boundable(graph, b, subset) == []
        assert calls == {"_restrict": 1, "_condition_iii": 1}

    @pytest.mark.parametrize("order", [(0, 1, 0), (1, 0, 1)])
    def test_each_graph_gets_its_own_slice(self, p4_graph, order):
        # The same members against the path 0-1-2-3 and the path with the
        # chord 0-2, alternately: each restriction is that graph's, and so
        # is the condition (iii) verdict ({0, 2} is connected only with the
        # chord).
        graphs = [p4_graph, hk.load_graph("0 1\n1 2\n2 3\n0 2\n")]
        sub = hk.VertexSubset.from_iterable([0, 1, 2], 4)
        for i in order:
            sl, verdict = graph_module._restriction(graphs[i], sub, check=True)
            want = graph_module._restrict(graphs[i], sub)
            assert all(np.array_equal(a, w) for a, w in zip(sl, want))
            assert verdict is None
            assert list(vertex_boundary(graphs[i], sub)) == [3]
        split = hk.VertexSubset.from_iterable([0, 2], 4)
        for i in order:
            assert graph_module._restriction(graphs[i], split, check=True)[1] == (
                NOT_CONNECTED if i == 0 else None)

    def test_memoized_slice_is_read_only(self, p4_graph):
        sub = hk.VertexSubset.from_iterable([1, 2], p4_graph.n)
        sl, _ = graph_module._restriction(p4_graph, sub)
        assert sl is graph_module._restriction(p4_graph, sub)[0]
        for array in sl:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_concurrent_restrictions_agree(self):
        # Four threads restrict one subset at once, over and over, two against
        # the grid and two against the grid with a chord inside S, with a
        # short switch interval: every call gets its own graph's slice and
        # verdict, equal to an uncached restriction.
        pairs, inner, _, _ = grid_patch(20)
        graphs = [hk.Graph.from_edges(pairs),
                  hk.Graph.from_edges(np.concatenate([pairs, [inner[[0, -1]]]]))]
        sub = hk.VertexSubset.from_iterable(inner, graphs[0].n)
        wants = [graph_module._restrict(graph, sub) for graph in graphs]
        barrier = threading.Barrier(4)
        mismatches, finished = [], []

        def work(i):
            barrier.wait()
            for _ in range(50):
                sl, verdict = graph_module._restriction(graphs[i % 2], sub, check=True)
                if verdict is not None or not all(
                        np.array_equal(a, w) for a, w in zip(sl, wants[i % 2])):
                    mismatches.append(i)
            finished.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == [] and sorted(finished) == [0, 1, 2, 3]


class TestBoundaries:
    def test_vertex_boundary_p4(self, p4_graph):
        sub = hk.VertexSubset.from_iterable([1, 2], p4_graph.n)
        assert list(vertex_boundary(p4_graph, sub)) == [0, 3]

    def test_vertex_boundary_whole_graph_empty(self, p4_graph):
        sub = hk.VertexSubset.from_iterable(range(4), p4_graph.n)
        assert len(vertex_boundary(p4_graph, sub)) == 0

    def test_vertex_boundary_p3_center(self, p3_graph):
        sub = hk.VertexSubset.from_iterable([1], p3_graph.n)
        assert list(vertex_boundary(p3_graph, sub)) == [0, 2]

    def test_connectivity(self, p4_graph):
        for members, connected in [([1, 2], True), ([0, 3], False), ([2], True), ([], False)]:
            sub = hk.VertexSubset.from_iterable(members, 4)
            assert (NOT_CONNECTED not in condition_iii(p4_graph, sub)) == connected

    def test_boundary_properties_random(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            g = random_connected_graph(rng, int(rng.integers(3, 25)))
            size = int(rng.integers(1, g.n))
            sub = hk.VertexSubset.from_iterable(
                rng.choice(g.n, size=size, replace=False), g.n
            )
            delta = vertex_boundary(g, sub)
            # every boundary vertex lies outside S and has a neighbor in it
            assert not any(v in sub for v in delta)
            assert all(any(u in sub for u in neighbors(g, v)) for v in delta)


class TestValidation:
    def test_valid_p4(self, p4_graph):
        sub = hk.VertexSubset.from_iterable([1, 2], p4_graph.n)
        assert hk.validate_b_boundable(p4_graph, {0: 1.0}, sub) == []

    def test_support_overlap_is_condition_i(self, p4_graph):
        sub = hk.VertexSubset.from_iterable([1, 2], p4_graph.n)
        msgs = hk.validate_b_boundable(p4_graph, {1: 1.0}, sub)
        assert any("(i)" in m for m in msgs)

    def test_disjoint_boundary_is_condition_ii(self, p4_graph):
        sub = hk.VertexSubset.from_iterable([2, 3], p4_graph.n)
        msgs = hk.validate_b_boundable(p4_graph, {0: 1.0}, sub)
        assert any("(ii)" in m for m in msgs)

    def test_disconnected_subset_is_condition_iii(self, p4_graph):
        sub = hk.VertexSubset.from_iterable([0, 3], p4_graph.n)
        msgs = hk.validate_b_boundable(p4_graph, {1: 1.0}, sub)
        assert any("(iii)" in m for m in msgs)

    def test_trivial_boundary_vector(self, p4_graph):
        sub = hk.VertexSubset.from_iterable([1, 2], p4_graph.n)
        msgs = hk.validate_b_boundable(p4_graph, {0: 0.0}, sub)
        assert msgs and "trivial" in msgs[0]

    def test_make_boundary_problem_raises_with_violations(self, p4_graph):
        sub = hk.VertexSubset.from_iterable([1, 2], p4_graph.n)
        with pytest.raises(hk.BoundaryConditionError) as err:
            hk.make_boundary_problem(p4_graph, {1: 1.0}, sub)
        assert err.value.violations


class TestBoundaryVectors:
    def test_b1_p4(self, p4_problem):
        assert p4_problem.b1 == pytest.approx([1.0 / math.sqrt(2.0), 0.0], abs=1e-12)

    def test_b1_p3(self, p3_problem):
        assert p3_problem.b1 == pytest.approx([math.sqrt(2.0)], abs=1e-12)

    def test_b1_zero_when_b_misses_neighbors(self, p4_graph):
        # b supported on the boundary but with zero value contributes nothing
        sub = hk.VertexSubset.from_iterable([1, 2], p4_graph.n)
        b1 = hk.make_boundary_problem(p4_graph, {0: 0.0, 3: 1e-300}, sub).b1
        assert b1[0] == 0.0

    def test_b2_scaling(self, p4_problem, p3_problem):
        assert p4_problem.b2 == pytest.approx([1.0, 0.0], abs=1e-12)
        assert p3_problem.b2 == pytest.approx([2.0], abs=1e-12)
        # b(0) = 1 and b(2) = -1 cancel in b1, and so exactly in b2.
        cancelling = hk.make_boundary_problem(p3_problem.graph, {0: 1.0, 2: -1.0}, p3_problem.subset)
        assert np.array_equal(cancelling.b2, [0.0])

    def test_b1_depends_only_on_boundary_restriction(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_connected_graph(rng, 14)
            prob = random_problem(rng, g, max_size=8)
            baseline = prob.b1
            noisy = dict(prob.b)
            delta_set = {int(v) for v in prob.delta_s}
            outside = [
                v for v in range(g.n)
                if v not in prob.subset and v not in delta_set
            ]
            for v in outside[:3]:
                noisy[v] = float(rng.uniform(-5, 5))
            perturbed = hk.make_boundary_problem(g, noisy, prob.subset).b1
            assert np.array_equal(baseline, perturbed)

    def test_runtime_support_outside_boundary_ignored(self):
        g = hk.load_graph("0 1\n1 2\n2 3\n3 4")
        sub = hk.VertexSubset.from_iterable([2], g.n)
        with_far = hk.make_boundary_problem(g, {1: 1.0, 4: 3.0}, sub)
        without = hk.make_boundary_problem(g, {1: 1.0}, sub)
        assert np.array_equal(with_far.b1, without.b1)

    def test_problem_memory_does_not_grow_with_n(self):
        # S = {500..509} on a path of 10^6 vertices: the problem is built
        # from S's rows and the entries of b on its boundary, with no array
        # of length n.
        n = 10**6
        ids = np.arange(n - 1, dtype=np.int64)
        graph = hk.Graph.from_edges(np.stack([ids, ids + 1], axis=1))
        subset = hk.VertexSubset.from_iterable(np.arange(500, 510, dtype=np.int64), n)
        tracemalloc.start()
        try:
            problem = hk.make_boundary_problem(graph, {499: 1.0, 510: -2.0}, subset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert np.array_equal(problem.delta_s, [499, 510])
