"""Restricted operators, Green's functions, and exact heat-kernel pagerank."""

import io
import math

import numpy as np
import pytest
import scipy.linalg

import hklocal as hk
from conftest import harmonic_solve, random_connected_graph, random_problem


@pytest.fixture(scope="module")
def p4_op(p4_problem):
    return hk.restricted_operator(p4_problem.graph, p4_problem.subset)


@pytest.fixture(scope="module")
def p3_op(p3_problem):
    return hk.restricted_operator(p3_problem.graph, p3_problem.subset)


class TestRestrictedOperator:
    def test_p4_matrix_and_spectrum(self, p4_problem, p4_op):
        lap = hk.restricted_laplacian(p4_problem.graph, p4_problem.subset)
        assert lap.tolist() == [[1.0, -0.5], [-0.5, 1.0]]
        assert p4_op.eigenvalues == pytest.approx([0.5, 1.5], abs=1e-14)

    def test_p3_singleton(self, p3_problem, p3_op):
        assert hk.restricted_laplacian(p3_problem.graph, p3_problem.subset).tolist() == [[1.0]]
        assert p3_op.lambda1 == pytest.approx(1.0, abs=1e-14)

    def test_lambda1_floor_random(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            g = random_connected_graph(rng, int(rng.integers(3, 20)))
            prob = random_problem(rng, g)
            op = hk.restricted_operator(g, prob.subset)
            s = op.s
            assert op.lambda1 + 1e-12 >= s ** -3
            assert op.lambda1 <= 1.0 + 1e-12
            assert op.eigenvalues[-1] <= 2.0 + 1e-12

    def test_reconstruction(self, dolphins_problem):
        rng = np.random.default_rng(13)
        problems = [dolphins_problem] + [
            random_problem(rng, random_connected_graph(rng, int(rng.integers(3, 40))))
            for _ in range(20)
        ]
        for prob in problems:
            op = hk.restricted_operator(prob.graph, prob.subset)
            recon = (op.eigenvectors * op.eigenvalues) @ op.eigenvectors.T
            assert np.max(np.abs(recon - hk.restricted_laplacian(prob.graph, prob.subset))) < 1e-10

    def test_apply_matches_laplacian_and_inverse(self, dolphins_problem):
        rng = np.random.default_rng(41)
        problems = [dolphins_problem] + [
            random_problem(rng, random_connected_graph(rng, int(rng.integers(3, 40))))
            for _ in range(20)
        ]
        for prob in problems:
            op = hk.restricted_operator(prob.graph, prob.subset)
            lap = hk.restricted_laplacian(prob.graph, prob.subset)
            f = rng.normal(size=op.s)
            assert np.max(np.abs(op.apply(lambda lam: lam, f) - lap @ f)) <= 1e-12
            assert np.max(np.abs(op.apply(np.reciprocal, lap @ f) - f)) <= 1e-12

    def test_disconnected_rejected(self, p4_graph):
        sub = hk.VertexSubset.from_iterable([0, 3], p4_graph.n)
        with pytest.raises(ValueError, match="not connected"):
            hk.restricted_operator(p4_graph, sub)

    def test_empty_boundary_rejected(self, p4_graph):
        sub = hk.VertexSubset.from_iterable(range(4), p4_graph.n)
        with pytest.raises(ValueError, match="boundary"):
            hk.restricted_operator(p4_graph, sub)

    def test_capacity_guard(self, p4_graph, monkeypatch):
        monkeypatch.setattr(hk.dirichlet, "DENSE_SIZE_LIMIT", 1)
        sub = hk.VertexSubset.from_iterable([1, 2], p4_graph.n)
        with pytest.raises(hk.CapacityError):
            hk.dirichlet.restricted_operator(p4_graph, sub)


class TestGreensFunction:
    def test_p3_identity(self, p3_op):
        assert hk.greens_function(p3_op).tolist() == [[1.0]]

    def test_p4_closed_form(self, p4_op):
        expected = np.array([[4.0, 2.0], [2.0, 4.0]]) / 3.0
        assert hk.greens_function(p4_op) == pytest.approx(expected, abs=1e-14)

    def test_inverse_identities_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(4, 40)))
            prob = random_problem(rng, g)
            op = hk.restricted_operator(g, prob.subset)
            gf = hk.greens_function(op)
            lap = hk.restricted_laplacian(g, prob.subset)
            eye = np.eye(op.s)
            assert np.max(np.abs(gf @ lap - eye)) < 1e-10
            assert np.max(np.abs(lap @ gf - eye)) < 1e-10
            norm = np.linalg.norm(gf, 2)
            assert 0.5 <= norm <= (1.0 / op.lambda1) * (1 + 1e-10)

    def test_integral_of_heat_kernel_matches(self):
        # Independent route: trapezoid integration of the kernel stepped by a
        # scipy matrix exponential, never touching the eigendecomposition.
        rng = np.random.default_rng(17)
        gamma = 0.01
        for _ in range(3):
            g = random_connected_graph(rng, int(rng.integers(4, 10)))
            prob = random_problem(rng, g, max_size=4)
            op = hk.restricted_operator(g, prob.subset)
            gf = hk.greens_function(op)
            horizon = hk.make_schedule(op.s, gamma).T
            h = 0.02
            steps = int(horizon / h)
            stepper = scipy.linalg.expm(-h * hk.restricted_laplacian(g, prob.subset))
            acc = 0.5 * np.eye(op.s)
            cur = np.eye(op.s)
            for _ in range(steps):
                cur = cur @ stepper
                acc += cur
            acc -= 0.5 * cur
            integral = acc * h
            assert np.max(np.abs(integral - gf)) <= gamma * np.linalg.norm(gf, 2)


class TestExactDirhkpr:
    def test_t_zero_is_identity(self, p4_op):
        f = np.array([0.3, -1.7])
        assert np.array_equal(hk.exact_dirhkpr(p4_op, 0.0, f), f)

    def test_p4_closed_form(self, p4_op):
        rho = hk.exact_dirhkpr(p4_op, 1.0, np.array([1.0, 0.0]))
        expected = [math.exp(-1) * math.cosh(0.5), math.exp(-1) * math.sinh(0.5)]
        assert rho == pytest.approx(expected, abs=1e-14)

    def test_p3_scalar_decay(self, p3_op):
        rho = hk.exact_dirhkpr(p3_op, math.log(2.0), np.array([1.0]))
        assert rho == pytest.approx([0.5], abs=1e-14)

    def test_negative_t_rejected(self, p4_op):
        with pytest.raises(ValueError):
            hk.exact_dirhkpr(p4_op, -0.1, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_t_rejected(self, p4_op, t):
        with pytest.raises(ValueError, match="finite"):
            hk.exact_dirhkpr(p4_op, t, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="finite"):
            hk.apply_heat_kernel(p4_op, t, np.array([1.0, 0.0]))

    def test_semigroup(self, dolphins_problem):
        op = hk.restricted_operator(dolphins_problem.graph, dolphins_problem.subset)
        f = dolphins_problem.b2
        lhs = hk.exact_dirhkpr(op, 3.5, f)
        rhs = hk.exact_dirhkpr(op, 2.25, hk.exact_dirhkpr(op, 1.25, f))
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_norm_decay_symmetric(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            g = random_connected_graph(rng, 12)
            prob = random_problem(rng, g, max_size=8)
            op = hk.restricted_operator(g, prob.subset)
            f = rng.normal(size=op.s)
            for t in (0.5, 2.0, 7.0):
                out = hk.apply_heat_kernel(op, t, f)
                assert np.linalg.norm(out) <= math.exp(-t * op.lambda1) * np.linalg.norm(f) + 1e-12

    def test_l1_monotone_for_nonnegative(self, dolphins_problem):
        op = hk.restricted_operator(dolphins_problem.graph, dolphins_problem.subset)
        f = np.abs(dolphins_problem.b2)
        grid = np.linspace(0.0, 40.0, 60)
        norms = [np.abs(hk.exact_dirhkpr(op, float(t), f)).sum() for t in grid]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_matches_scipy_expm(self, dolphins_problem):
        op = hk.restricted_operator(dolphins_problem.graph, dolphins_problem.subset)
        f = dolphins_problem.b2
        t = 4.0
        lap = hk.restricted_laplacian(dolphins_problem.graph, dolphins_problem.subset)
        dhalf = np.diag(np.sqrt(op.degrees))
        dhalf_inv = np.diag(1.0 / np.sqrt(op.degrees))
        reference = f @ (dhalf_inv @ scipy.linalg.expm(-t * lap) @ dhalf)
        assert hk.exact_dirhkpr(op, t, f) == pytest.approx(reference, abs=1e-11)


class TestExactLocalSolution:
    def test_p4_value(self, p4_problem):
        x = hk.exact_local_solution(p4_problem)
        assert x == pytest.approx([2.0 * math.sqrt(2) / 3.0, math.sqrt(2) / 3.0], abs=1e-12)

    def test_p3_value(self, p3_problem):
        assert hk.exact_local_solution(p3_problem) == pytest.approx([math.sqrt(2.0)], abs=1e-12)

    def test_zero_b1_gives_zero(self):
        g = hk.load_graph("0 1\n1 2\n2 3\n3 4")
        sub = hk.VertexSubset.from_iterable([2], g.n)
        prob = hk.make_boundary_problem(g, {1: 1.0, 3: -1.0}, sub)
        # contributions cancel exactly: 1/sqrt(2*2) - 1/sqrt(2*2)
        assert prob.b1 == pytest.approx([0.0], abs=1e-15)
        assert hk.exact_local_solution(prob) == pytest.approx([0.0], abs=1e-15)

    def test_harmonic_identity(self, dolphins_problem):
        x = hk.exact_local_solution(dolphins_problem)
        assert x == pytest.approx(harmonic_solve(dolphins_problem), abs=1e-9)

    def test_matches_harmonic_oracle_random(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            g = random_connected_graph(rng, int(rng.integers(3, 13)))
            prob = random_problem(rng, g, outside_support=bool(rng.integers(2)))
            assert hk.exact_local_solution(prob) == pytest.approx(
                harmonic_solve(prob), abs=1e-10
            )


class TestLambda1Estimate:
    def test_matches_dense_eigensolve(self, dolphins_problem):
        op = hk.restricted_operator(dolphins_problem.graph, dolphins_problem.subset)
        est = hk.estimate_lambda1(dolphins_problem.graph, dolphins_problem.subset)
        assert est == pytest.approx(op.lambda1, rel=1e-6)


def test_dump_matrix_csv_round_trip(p4_problem):
    lap = hk.restricted_laplacian(p4_problem.graph, p4_problem.subset)
    buf = io.StringIO()
    hk.dump_matrix_csv(lap, buf)
    rows = [
        [float(x) for x in line.split(",")]
        for line in buf.getvalue().strip().splitlines()
    ]
    assert np.array_equal(np.array(rows), lap)
