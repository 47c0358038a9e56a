"""Graph ingestion, subset machinery, and boundary-vector folding."""

import math

import numpy as np
import pytest

import hklocal as hk
from hklocal import graph as graph_module
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

    @pytest.mark.parametrize("text", [
        "",
        "# only a comment\n",
        "\t0 1 \r\n1\t2\t\r\n",
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
