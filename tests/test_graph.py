"""Graph ingestion, subset machinery, and boundary-vector folding."""

import math

import numpy as np
import pytest

import hklocal as hk
from hklocal import graph as graph_module
from conftest import grid_patch, random_connected_graph, random_problem


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
        assert g.original_id(0) == 10
        with pytest.raises(hk.GraphFormatError):
            g.compact_id(11)

    def test_dolphins_fixture(self, dolphins_graph):
        assert dolphins_graph.n == 62
        assert dolphins_graph.edge_count == 159
        full = hk.VertexSubset.from_iterable(range(62), 62)
        assert hk.is_connected_induced(dolphins_graph, full)

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
                for u in g.neighbors(v):
                    assert v in g.neighbors(int(u))
            assert all(g.degrees[v] == len(g.neighbors(v)) for v in range(g.n))


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
        for name in ("edges", "indptr", "indices", "degrees", "original_ids"):
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


class TestVertexSubset:
    def test_local_index_round_trip(self):
        sub = hk.VertexSubset.from_iterable([5, 2, 9], 12)
        assert list(sub.members) == [2, 5, 9]
        for i in range(sub.size):
            assert sub.local_index(int(sub.members[i])) == i

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            hk.VertexSubset.from_iterable([1, 1], 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            hk.VertexSubset.from_iterable([4], 4)


class TestBoundaries:
    def test_vertex_boundary_p4(self, p4_graph):
        sub = hk.VertexSubset.from_iterable([1, 2], p4_graph.n)
        assert list(hk.vertex_boundary(p4_graph, sub)) == [0, 3]

    def test_vertex_boundary_whole_graph_empty(self, p4_graph):
        sub = hk.VertexSubset.from_iterable(range(4), p4_graph.n)
        assert len(hk.vertex_boundary(p4_graph, sub)) == 0

    def test_vertex_boundary_p3_center(self, p3_graph):
        sub = hk.VertexSubset.from_iterable([1], p3_graph.n)
        assert list(hk.vertex_boundary(p3_graph, sub)) == [0, 2]

    def test_edge_boundary_p4(self, p4_graph):
        sub = hk.VertexSubset.from_iterable([1, 2], p4_graph.n)
        assert hk.edge_boundary(p4_graph, sub).tolist() == [[0, 1], [2, 3]]

    def test_edge_boundary_empty_subset(self, p4_graph):
        sub = hk.VertexSubset.from_iterable([], p4_graph.n)
        assert len(hk.edge_boundary(p4_graph, sub)) == 0

    def test_edge_boundary_star_center(self):
        g = hk.load_graph("0 1\n0 2\n0 3")
        sub = hk.VertexSubset.from_iterable([0], g.n)
        assert len(hk.edge_boundary(g, sub)) == 3

    def test_connectivity(self, p4_graph):
        assert hk.is_connected_induced(p4_graph, hk.VertexSubset.from_iterable([1, 2], 4))
        assert not hk.is_connected_induced(p4_graph, hk.VertexSubset.from_iterable([0, 3], 4))
        assert hk.is_connected_induced(p4_graph, hk.VertexSubset.from_iterable([2], 4))
        assert not hk.is_connected_induced(p4_graph, hk.VertexSubset.from_iterable([], 4))

    def test_boundary_properties_random(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            g = random_connected_graph(rng, int(rng.integers(3, 25)))
            size = int(rng.integers(1, g.n))
            sub = hk.VertexSubset.from_iterable(
                rng.choice(g.n, size=size, replace=False), g.n
            )
            delta = hk.vertex_boundary(g, sub)
            partial = hk.edge_boundary(g, sub)
            # every boundary vertex contributes at least one crossing edge
            assert len(partial) >= len(delta)
            assert not any(sub.mask[delta])


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

    def test_isolated_vertex_in_s_rejected(self):
        g = hk.Graph.from_edges([(0, 1)], vertex_ids=[0, 1, 2])
        sub = hk.VertexSubset.from_iterable([2], g.n)
        msgs = hk.validate_b_boundable(g, {0: 1.0}, sub)
        assert any("isolated" in m for m in msgs)

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
        b1 = hk.compute_b1(p4_graph, {0: 0.0, 3: 1e-300}, sub)
        assert b1[0] == 0.0

    def test_b2_scaling(self, p4_problem, p3_problem):
        assert p4_problem.b2 == pytest.approx([1.0, 0.0], abs=1e-12)
        assert p3_problem.b2 == pytest.approx([2.0], abs=1e-12)
        zero = np.zeros(2)
        assert np.array_equal(
            hk.compute_b2(zero, p4_problem.graph, p4_problem.subset), zero
        )

    def test_b1_depends_only_on_boundary_restriction(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_connected_graph(rng, 14)
            prob = random_problem(rng, g, max_size=8)
            baseline = hk.compute_b1(g, prob.b, prob.subset)
            noisy = dict(prob.b)
            delta_set = {int(v) for v in prob.delta_s}
            outside = [
                v for v in range(g.n)
                if not prob.subset.mask[v] and v not in delta_set
            ]
            for v in outside[:3]:
                noisy[v] = float(rng.uniform(-5, 5))
            perturbed = hk.compute_b1(g, noisy, prob.subset)
            assert np.array_equal(baseline, perturbed)

    def test_runtime_support_outside_boundary_ignored(self):
        g = hk.load_graph("0 1\n1 2\n2 3\n3 4")
        sub = hk.VertexSubset.from_iterable([2], g.n)
        with_far = hk.make_boundary_problem(g, {1: 1.0, 4: 3.0}, sub)
        without = hk.make_boundary_problem(g, {1: 1.0}, sub)
        assert np.array_equal(with_far.b1, without.b1)
