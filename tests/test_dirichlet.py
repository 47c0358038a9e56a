"""Restricted operators, Green's functions, and exact heat-kernel pagerank."""

import dataclasses
import itertools
import logging
import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
import scipy.linalg

import hklocal as hk
from hklocal.dirichlet import _EPS as EPS
from conftest import (
    EMPTY_BOUNDARY,
    NOT_CONNECTED,
    check_solve_stop,
    clique_hub_problem,
    dense_cluster_problem,
    grid_patch_problem,
    harmonic_solve,
    heat_kernel,
    random_connected_graph,
    random_problem,
    saad_ratio,
    tridiagonal,
)


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

    @pytest.mark.parametrize("members, message", [
        ([0, 3], NOT_CONNECTED), (range(4), EMPTY_BOUNDARY), ([], NOT_CONNECTED)],
        ids=["disconnected", "no-boundary", "empty"])
    def test_condition_iii_message_is_shared(self, p4_graph, members, message):
        # The operators reject S with the message that validation lists.
        sub = hk.VertexSubset.from_iterable(members, p4_graph.n)
        msgs = hk.validate_b_boundable(p4_graph, {1: 1.0}, sub)
        assert [m for m in msgs if "(iii)" in m] == [message]
        for build in (hk.restricted_operator, hk.restricted_laplacian):
            with pytest.raises(ValueError) as err:
                build(p4_graph, sub)
            assert str(err.value) == message

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
                out = heat_kernel(op, t, f)
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


@pytest.fixture(scope="module")
def oracle_pairs(dolphins_problem):
    """(problem, dense operator, Krylov operator) on dolphins (s = 20), the
    30 x 30 grid patch (s = 900) and 20 random problems, every operator
    built directly, whatever restricted_operator would choose."""
    rng = np.random.default_rng(43)
    problems = [dolphins_problem, grid_patch_problem(30)] + [
        random_problem(rng, random_connected_graph(rng, int(rng.integers(3, 40))))
        for _ in range(20)
    ]
    return [
        (prob, hk.DirichletOperator.from_subset(prob.graph, prob.subset),
         hk.KrylovOperator.from_subset(prob.graph, prob.subset))
        for prob in problems
    ]


def close_to_dense(krylov, dense, f, tol=1e-12):
    """Normwise agreement relative to the larger of the output and the input.

    The input is the scale for contractions: at t = 5000, e^{-t lambda} is
    conditioned only to about t * eps relative to its own tiny output, on
    the dense path as much as on the Krylov one.
    """
    scale = max(np.linalg.norm(dense), np.linalg.norm(f))
    return np.linalg.norm(krylov - dense) <= tol * scale


class TestKrylovOperator:
    def test_apply_matches_dense(self, oracle_pairs):
        fns = [np.reciprocal] + [
            lambda lam, t=t: np.exp(-t * lam) for t in (0.5, 4.0, 37.0, 5000.0)
        ]
        for prob, dense, krylov in oracle_pairs:
            for fn in fns:
                assert close_to_dense(krylov.apply(fn, prob.b1), dense.apply(fn, prob.b1), prob.b1)

    def test_solver_sums_match_dense(self, oracle_pairs):
        # The local solver's weighted decay and the Riemann sum's geometric
        # series, each evaluated on the Ritz values.
        for prob, dense, krylov in oracle_pairs:
            sched = hk.make_schedule(dense.s, 0.2)
            rie = [hk.riemann_sum_solution(prob, sched, operator=op) for op in (dense, krylov)]
            assert close_to_dense(rie[1], rie[0], prob.b1)
            local = [hk.local_linear_solver(prob, 0.2, seed=3, operator=op)
                     for op in (dense, krylov)]
            assert np.array_equal(local[0].sampled_ts, local[1].sampled_ts)
            assert close_to_dense(local[1].x_hat, local[0].x_hat, prob.b1)

    def test_lambda1_matches_dense(self, oracle_pairs):
        for _, dense, krylov in oracle_pairs:
            assert krylov.lambda1 == pytest.approx(dense.lambda1, rel=1e-12)

    def test_zero_vector_gives_zeros(self, oracle_pairs):
        for _, dense, krylov in oracle_pairs[:2]:
            zero = np.zeros(krylov.s)
            for op in (dense, krylov):
                assert np.array_equal(op.apply(np.reciprocal, zero), zero)
                assert np.array_equal(op.solve(zero), zero)
                rows = op.apply(lambda lam: np.exp(-np.outer([1.0, 2.0], lam)), zero)
                assert rows.shape == (2, op.s) and not np.any(rows)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vector_rejected(self, oracle_pairs, bad):
        # Refused up front on both backends, before a Lanczos run could
        # blame L_S or a product spread it; the cached run is kept.
        for prob, dense, krylov in oracle_pairs[:2]:
            f = prob.b1.copy()
            f[1] = bad
            op = fresh(krylov)
            x = op.solve(prob.b1)
            for backend in (dense, op):
                with pytest.raises(ValueError, match="non-finite"):
                    hk.exact_dirhkpr(backend, 1.0, f)
                with pytest.raises(ValueError, match="non-finite"):
                    backend.solve(f)
                with pytest.raises(ValueError, match="non-finite"):
                    backend.apply(np.reciprocal, f)
            assert np.array_equal(op.solve(prob.b1), x)

    def test_many_times_from_one_call(self, oracle_pairs):
        # A 1-d array of times gives one row per time.  t = 0 is f exactly,
        # and a time at which every e^{-t theta} underflows gives zeros.
        times = np.array([0.0, 0.5, 37.0, 5000.0, 1e9])
        for prob, dense, krylov in oracle_pairs[:2]:
            f = prob.b2
            for op in (dense, krylov):
                rows = hk.exact_dirhkpr(op, times, f)
                assert rows.shape == (times.size, op.s)
                assert np.array_equal(rows[0], f)
                assert not np.any(rows[-1])
                for t, row in zip(times, rows):
                    assert close_to_dense(row, hk.exact_dirhkpr(dense, float(t), f), f)

    def test_tiny_outputs_keep_their_relative_accuracy(self, oracle_pairs):
        # e^{-t lambda1} = 1e-100 and 1e-250 on the grid patch: squared
        # norms of such estimates underflow, and e^{-t theta} underflows at
        # Ritz values that have not converged yet; neither may stop Lanczos.
        # Both paths are conditioned to about t * eps relative (5e-11 here).
        prob, dense, krylov = oracle_pairs[1]
        for decades in (100, 250):
            t = decades * math.log(10.0) / dense.lambda1
            expected = heat_kernel(dense, t, prob.b1)
            scale = np.max(np.abs(expected))
            assert scale > 0.0
            error = heat_kernel(krylov, t, prob.b1) - expected
            assert np.linalg.norm(error / scale) <= 1e-9 * np.linalg.norm(expected / scale)

    @pytest.mark.parametrize("cls", [hk.DirichletOperator, hk.KrylovOperator])
    def test_rejections_hold_for_both(self, p4_graph, cls):
        with pytest.raises(ValueError, match="not connected"):
            cls.from_subset(p4_graph, hk.VertexSubset.from_iterable([0, 3], p4_graph.n))
        with pytest.raises(ValueError, match="boundary"):
            cls.from_subset(p4_graph, hk.VertexSubset.from_iterable(range(4), p4_graph.n))

    def test_restricted_operator_switches_at_krylov_min_size(self, oracle_pairs, dense_cluster):
        for prob, _, krylov in [*oracle_pairs[:2], dense_cluster]:
            op = hk.restricted_operator(prob.graph, prob.subset)
            big = prob.subset.size >= hk.KRYLOV_MIN_SIZE
            assert isinstance(op, hk.KrylovOperator if big else hk.DirichletOperator)
            if big:
                assert op.lambda1 == krylov.lambda1

    def test_greens_function_needs_the_dense_operator(self, oracle_pairs):
        with pytest.raises(TypeError):
            hk.greens_function(oracle_pairs[0][2])

    def test_greens_function_refuses_lambda1_at_the_floor(self):
        op = hk.DirichletOperator(np.ones(2), np.array([1e-12, 1.0]), np.eye(2))
        with pytest.raises(hk.SpectrumError, match="cannot invert"):
            hk.greens_function(op)

    @pytest.mark.parametrize("eigenvalues, s, message", [
        ([1e-12, 1.0], 2, "numerically singular"),
        ([0.5, 2.0 + 1e-7], 2, "eigenvalue above 2"),
        ([1.0 + 1e-7, 1.5], 2, "bottom eigenvalue above 1"),
        ([0.015, 1.0], 4, "below the size floor"),  # 4^-3 = 0.015625
    ])
    def test_spectrum_outside_its_bounds_is_refused(self, eigenvalues, s, message):
        # Crafted spectra: no graph gives these, so the checks run alone.
        with pytest.raises(hk.SpectrumError, match=message):
            hk.dirichlet._check_spectrum(np.array(eigenvalues), s)


def fresh(krylov):
    """The same Krylov operator with no cached Lanczos run."""
    return dataclasses.replace(krylov)


@pytest.fixture(scope="module")
def dense_cluster():
    """(problem, dense operator, Krylov operator) on a ring of 240 members
    with 2000 random chords, whose coupling fills 1/13 of L_S."""
    prob = dense_cluster_problem(240, 2000, seed=3)
    return (prob, hk.DirichletOperator.from_subset(prob.graph, prob.subset),
            hk.KrylovOperator.from_subset(prob.graph, prob.subset))


class TestDenseProduct:
    """KrylovOperator multiplies by a dense L_S where at least 1/16 of it is
    nonzero, and by the gathered coupling elsewhere."""

    def test_clique_with_a_hub_closed_form(self):
        # L_S = I - (J - I) / s: lambda1 = 1/s, x_s = 3.  A sum of s - 1
        # products rounds to about s eps, and 1 - (s - 1)/s cancels to 1/s,
        # so both are accurate to about s^2 eps.  D^{1/2} 1 and b1 = 3 / s
        # are both the eigenvector of lambda1, so the lambda1 run and the
        # solve each end after one step: the dense product leaves the next
        # coupling at 9.8e-16, above eps but below 2 s eps (1.1e-13), the
        # rounding of one product.
        s = 250
        prob = clique_hub_problem(s)
        op = hk.KrylovOperator.from_subset(prob.graph, prob.subset)
        assert op.laplacian is not None and op.rows.size == s * (s - 1)
        assert op.ritz_values.size == 1
        assert op.lambda1 == pytest.approx(1.0 / s, rel=s * s * EPS, abs=0.0)
        x = op.solve(prob.b1)
        assert len(op._run.alpha) == op._run.last == 1
        assert np.max(np.abs(x / 3.0 - 1.0)) <= s * s * EPS

    def test_matches_the_dense_oracle(self, oracle_pairs, dense_cluster):
        times = np.array([0.5, 5.0, 50.0])
        heat = lambda lam: np.exp(-np.multiply.outer(times, lam))
        for (prob, dense, krylov), picks_dense in ((dense_cluster, True), (oracle_pairs[1], False)):
            assert (krylov.laplacian is not None) == picks_dense
            assert krylov.s >= hk.KRYLOV_MIN_SIZE
            if picks_dense:
                assert np.array_equal(krylov.laplacian,
                                      hk.restricted_laplacian(prob.graph, prob.subset))
                assert not krylov.laplacian.flags.writeable
            for f in (prob.b1, prob.b2):
                assert close_to_dense(fresh(krylov).solve(f), dense.solve(f), f)
                assert close_to_dense(fresh(krylov).apply(heat, f), dense.apply(heat, f), f)

    def test_rule_at_the_crossover(self):
        # s^2 <= 16 * entries keeps L_S dense.  At s = 32: a ring with a
        # pendant hub has 64 coupling entries, a path with both ends outside
        # S has 62.
        ring = hk.Graph.from_edges([(v, (v + 1) % 32) for v in range(32)] + [(0, 32)])
        path = hk.Graph.from_edges([(v, v + 1) for v in range(33)])
        for graph, members, entries, dense in ((ring, range(32), 64, True),
                                               (path, range(1, 33), 62, False)):
            subset = hk.VertexSubset.from_iterable(members, graph.n)
            op = hk.KrylovOperator.from_subset(graph, subset)
            assert op.rows.size == entries
            assert (op.laplacian is not None) == dense


@pytest.fixture(scope="module")
def grid15():
    """A Krylov operator on a 15 x 15 grid patch (s = 225) and its problem."""
    prob = grid_patch_problem(15)
    return prob, hk.KrylovOperator.from_subset(prob.graph, prob.subset)


def path_problem(s):
    """The path 0..s+1 with S = 1..s, b(0) = 1 and b(s+1) = 3, and its exact
    solution sqrt(2) (1 + 2i / (s+1)): linear in i, times sqrt(degree 2)."""
    graph = hk.Graph.from_edges([(i, i + 1) for i in range(s + 1)])
    subset = hk.VertexSubset.from_iterable(range(1, s + 1), graph.n)
    prob = hk.make_boundary_problem(graph, {0: 1.0, s + 1: 3.0}, subset)
    return prob, math.sqrt(2.0) * (1.0 + 2.0 * np.arange(1, s + 1) / (s + 1))


@pytest.fixture()
def tridiagonals():
    """The (alpha, beta) of every T_k formed for an eigensolve, in order:
    once per checkpoint of the lambda1 run, and of an apply on a fresh
    operator."""
    seen = []
    real = hk.dirichlet._tridiagonal
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hk.dirichlet, "_tridiagonal",
                      lambda alpha, beta: seen.append((alpha, beta)) or real(alpha, beta))
        yield seen


def checkpoints(k):
    """The checkpoints of an apply or the lambda1 run up to step k: every
    16 steps up to 64, then every k/4."""
    steps = [16]
    while steps[-1] < k:
        steps.append(steps[-1] + max(16, steps[-1] // 4))
    return steps


class TestLambda1Run:
    """The lambda1 run stops at the first check point whose Kato-Temple
    bound on its smallest Ritz value, (beta_k s_k)^2 / (theta_2 - theta_1)
    with s_k the last entry of the bottom eigenvector of T_k, is at most
    eps theta_max."""

    @pytest.mark.parametrize("name", ["grid15", "dense_cluster"])
    def test_first_passing_checkpoint(self, name, request, tridiagonals, caplog):
        # Every check the run reached, kept as the T_k it eigensolved, with
        # its bound recomputed from the eigenvectors of T_k.  The run did
        # not end: beta_k is above 2 s eps and k < s.  The ratio at the
        # stop is also the figure the debug line prints.
        prob = request.getfixturevalue(name)[0]
        tridiagonals.clear()
        caplog.set_level(logging.DEBUG, logger="hklocal.dirichlet")
        op = hk.KrylovOperator.from_subset(prob.graph, prob.subset)
        ratios = []
        for alpha, beta in tridiagonals:
            theta, vectors = np.linalg.eigh(tridiagonal(alpha, beta))
            bound = (beta[-1] * vectors[-1, 0]) ** 2 / (theta[1] - theta[0])
            ratios.append(bound / (EPS * theta[-1]))
        alpha, beta = tridiagonals[-1]
        assert [a.size for a, _ in tridiagonals] == checkpoints(alpha.size)
        assert beta[-1] > 2 * op.s * EPS and alpha.size < op.s
        assert ratios[-1] <= 1.0 and all(r > 1.0 for r in ratios[:-1]), ratios
        assert op.ritz_values.size == alpha.size
        message = caplog.records[-1].getMessage()
        assert message.startswith(f"Krylov lambda1 run: {op.ritz_values.size} steps, bound ")
        logged = float(message.split("bound ")[1].split()[0])
        assert logged == pytest.approx(ratios[-1], rel=0.05), (logged, ratios)

    @pytest.mark.parametrize("s, settled_steps", [(300, 195), (1000, 737)])
    def test_long_path(self, s, settled_steps):
        # L_S = I - A / 2 on the path: lambda1 = 2 sin^2(pi / (2 (s + 1))).
        # A stop once theta_1 agrees with the previous check pays one check
        # past convergence, and ends at settled_steps; the bound needs none.
        prob, _ = path_problem(s)
        op = hk.KrylovOperator.from_subset(prob.graph, prob.subset)
        assert op.lambda1 == pytest.approx(2 * math.sin(math.pi / (2 * (s + 1))) ** 2,
                                           rel=1e-11, abs=0.0)
        assert op.ritz_values.size < settled_steps


class TestKrylovSolve:
    """``solve`` is L_S^-1 f from the Lanczos tridiagonal, with no eigensolve."""

    def test_matches_dense(self, oracle_pairs):
        for prob, dense, krylov in oracle_pairs:
            for f in (prob.b1, prob.b2):
                expected = dense.solve(f)
                assert np.array_equal(expected, dense.apply(np.reciprocal, f))
                assert close_to_dense(fresh(krylov).solve(f), expected, f)

    @pytest.mark.parametrize("s", [300, 1000])
    def test_long_path(self, s):
        # Lanczos runs to k = s here.  The dense eigensolve is itself
        # accurate only to about eps / lambda1 (lambda1 = 5e-6 at s = 1000),
        # the solve to the closed form much better.
        prob, closed = path_problem(s)
        dense = hk.DirichletOperator.from_subset(prob.graph, prob.subset)
        x = hk.KrylovOperator.from_subset(prob.graph, prob.subset).solve(prob.b1)
        assert close_to_dense(x, dense.solve(prob.b1), prob.b1, tol=10 * EPS / dense.lambda1)
        assert np.max(np.abs(x / closed - 1.0)) <= 1e-12

    def test_no_eigensolve_after_from_subset(self, grid15, monkeypatch):
        prob, krylov = grid15
        op = fresh(krylov)
        calls = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *a, real=real, name=name: calls.append(name) or real(*a))
        x = op.solve(prob.b1)
        monkeypatch.undo()
        assert calls == []
        assert np.array_equal(x, fresh(krylov).solve(prob.b1))

    def test_matches_reciprocal_apply(self, grid15):
        prob, krylov = grid15
        for f in (prob.b1, prob.b2):
            expected = fresh(krylov).apply(np.reciprocal, f)
            error = np.linalg.norm(fresh(krylov).solve(f) - expected)
            assert error <= 1e-13 * np.linalg.norm(expected)

    def test_first_passing_step(self, dense_cluster, caplog):
        # The residual of ||f|| Q_k y is ||f|| beta_k |y_k| (T_k y = e1), and
        # the solve stops at the first step where that is at most eps
        # theta_max ||f|| ||y||: a backward error of one ulp, with theta_max
        # the lambda1 run's largest Ritz value.  A fresh solve steps its run
        # only that far; T_j y = e1 is solved densely here at every step j.
        # The ratio at the stop is also the figure the debug line prints.
        prob, dense, krylov = dense_cluster
        caplog.set_level(logging.DEBUG, logger="hklocal.dirichlet")
        for f in (prob.b1, prob.b2):
            op = fresh(krylov)
            caplog.clear()
            x = op.solve(f)
            alpha, beta = np.array(op._run.alpha), np.array(op._run.beta)
            ratios = []
            for j in range(1, alpha.size + 1):
                y = np.linalg.solve(tridiagonal(alpha[:j], beta[:j]), np.eye(j)[0])
                limit = EPS * krylov.ritz_values[-1] * np.linalg.norm(y)
                ratios.append(beta[j - 1] * abs(y[-1]) / limit)
            assert op._run.last is None
            assert ratios[-1] <= 1.0 and all(r > 1.0 for r in ratios[:-1]), ratios
            logged = float(caplog.records[-1].getMessage().split("residual ")[1].split()[0])
            assert logged == pytest.approx(ratios[-1], rel=0.05), (logged, ratios)
            assert close_to_dense(x, dense.solve(f), f)

    @pytest.mark.parametrize("name", ["dense_cluster", "grid15", "path300"])
    def test_stop_matches_brute_force(self, name, request):
        # The 300-path's solve runs to k = s; the others stop before it.
        if name == "path300":
            prob = path_problem(300)[0]
            krylov = hk.KrylovOperator.from_subset(prob.graph, prob.subset)
        else:
            fixture = request.getfixturevalue(name)
            prob, krylov = fixture[0], fixture[-1]
        for f in (prob.b1, prob.b2):
            k = check_solve_stop(krylov, f)
            assert (k == prob.subset.size) == (name == "path300"), k

    def test_non_positive_pivot_raises(self, grid15):
        # Coupling weights tripled: I - 3A is indefinite, so some pivot of
        # its tridiagonal is negative.
        prob, krylov = grid15
        op = hk.KrylovOperator(krylov.degrees, krylov.rows, krylov.cols, 3.0 * krylov.weights,
                               krylov.ritz_values)
        with pytest.raises(hk.SpectrumError, match="pivot"):
            op.solve(prob.b1)


class TestKrylovApplyStop:
    """An apply stops at the first check point whose own error estimate
    passes, beta_k |e_k^T fn(T_k) e1| (Saad 1992), with no second check."""

    def test_first_passing_checkpoint(self, grid15, monkeypatch, tridiagonals, caplog):
        # e^{-4 lambda} and the local solver's kernel sum, each the only
        # apply of its run, with every check it reached kept as the T_k it
        # eigensolved.  The ratio at the stop is also the figure the debug
        # line prints.
        prob, krylov = grid15
        dense = hk.DirichletOperator.from_subset(prob.graph, prob.subset)
        fns = {"heat": lambda lam: np.exp(-4.0 * lam)}
        real = hk.KrylovOperator.apply

        def keep(op, fn, f, **options):
            fns["kernel sum"] = fn
            return real(op, fn, f, **options)

        monkeypatch.setattr(hk.KrylovOperator, "apply", keep)
        hk.local_linear_solver(prob, 0.2, seed=3, operator=fresh(krylov))
        monkeypatch.undo()
        caplog.set_level(logging.DEBUG, logger="hklocal.dirichlet")
        for name, fn in fns.items():
            op = fresh(krylov)
            caplog.clear()
            tridiagonals.clear()
            x = op.apply(fn, prob.b1)
            ratios = [saad_ratio(fn, alpha, beta) for alpha, beta in tridiagonals]
            k = tridiagonals[-1][0].size
            assert [alpha.size for alpha, _ in tridiagonals] == checkpoints(k), name
            assert op._run.last is None and len(op._run.alpha) == k, name
            assert ratios[-1] <= 1.0 and all(r > 1.0 for r in ratios[:-1]), (name, ratios)
            logged = float(caplog.records[-1].getMessage().split("error estimate ")[1].split()[0])
            assert logged == pytest.approx(ratios[-1], rel=0.05), (name, logged, ratios)
            assert close_to_dense(x, dense.apply(fn, prob.b1), prob.b1), name
        # exact_dirhkpr, the heat kernel of hkpr-exact and sweep-norms, keeps
        # these checkpoints.
        tridiagonals.clear()
        hk.exact_dirhkpr(fresh(krylov), 4.0, prob.b1)
        assert [alpha.size for alpha, _ in tridiagonals] == checkpoints(tridiagonals[-1][0].size)


def solve_stop(krylov, f):
    """The step at which a fresh operator's solve(f) stops."""
    op = fresh(krylov)
    op.solve(f)
    return len(op._run.alpha)


class TestInverseApplyStop:
    """An apply told that fn is a quadrature of 1/lambda (``inverse``) checks
    first at the step where solve(f) stops on the same run, then at the
    checkpoints that follow from there, and still stops only on its own
    error estimate."""

    @pytest.mark.parametrize("name", ["grid15", "dense_cluster", "path300"])
    def test_solver_sums_eigensolve_once_at_the_solve_stop(self, name, request, tridiagonals):
        # The local solver's kernel sum and the Riemann series, each the
        # only apply of a fresh run: one T_k eigensolved, at the solve's
        # stop, where the estimate passes.  The 300-path's solve runs to
        # k = s, and there the dense eigensolve is itself accurate only to
        # about eps / lambda1; the dense cluster multiplies by a dense L_S.
        if name == "path300":
            prob = path_problem(300)[0]
            krylov = hk.KrylovOperator.from_subset(prob.graph, prob.subset)
        else:
            fixture = request.getfixturevalue(name)
            prob, krylov = fixture[0], fixture[-1]
        dense = hk.DirichletOperator.from_subset(prob.graph, prob.subset)
        stop = solve_stop(krylov, prob.b1)
        assert (stop == prob.subset.size) == (name == "path300"), stop
        tol = max(1e-12, 10 * EPS / dense.lambda1)
        sched = hk.make_schedule(krylov.s, 0.2)
        sums = {
            "kernel sum": lambda op: hk.local_linear_solver(prob, 0.2, seed=3, operator=op).x_hat,
            "riemann": lambda op: hk.riemann_sum_solution(prob, sched, operator=op),
        }
        for label, call in sums.items():
            tridiagonals.clear()
            with mock.patch.object(hk.KrylovOperator, "apply", autospec=True,
                                   side_effect=hk.KrylovOperator.apply) as spy:
                x = call(fresh(krylov))
            assert spy.call_count == 1 and spy.call_args.kwargs == {"inverse": True}, label
            fn = spy.call_args.args[1]
            assert [alpha.size for alpha, _ in tridiagonals] == [stop], label
            assert saad_ratio(fn, *tridiagonals[0]) <= 1.0, label
            assert close_to_dense(x, dense.apply(fn, prob.b1), prob.b1, tol), label
            assert close_to_dense(x, call(dense), prob.b1, tol), label

    def test_slower_function_steps_on_to_its_own_stop(self, grid15, tridiagonals):
        # cos(100 lambda) resolves the spectrum's interior and needs more
        # steps than the solve; on this patch even lambda^-2 and lambda^-8
        # pass at the solve's stop.  Its first check fails and the apply
        # steps on by _next_check until its own estimate passes.
        prob, krylov = grid15
        dense = hk.DirichletOperator.from_subset(prob.graph, prob.subset)
        fn = lambda lam: np.cos(100.0 * lam)
        x = fresh(krylov).apply(fn, prob.b1, inverse=True)
        sizes = [alpha.size for alpha, _ in tridiagonals]
        ratios = [saad_ratio(fn, alpha, beta) for alpha, beta in tridiagonals]
        expected = [solve_stop(krylov, prob.b1)]
        while len(expected) < len(sizes):
            expected.append(expected[-1] + max(16, expected[-1] // 4))
        assert len(sizes) > 1 and sizes == expected, sizes
        assert ratios[-1] <= 1.0 and all(r > 1.0 for r in ratios[:-1]), ratios
        assert close_to_dense(x, dense.apply(fn, prob.b1), prob.b1)

    def test_first_check_ignores_a_longer_cached_run(self, grid15, tridiagonals):
        # An unflagged cos(100 lambda) extends the run past the solve's
        # stop; the flagged sum still checks first at that stop, with the
        # output of a fresh operator, bit for bit.
        prob, krylov = grid15
        fn = lambda lam: (1.0 - np.exp(-50.0 * lam)) / lam
        op = fresh(krylov)
        op.apply(lambda lam: np.cos(100.0 * lam), prob.b1)
        stop = solve_stop(krylov, prob.b1)
        assert len(op._run.alpha) > stop
        tridiagonals.clear()
        x = op.apply(fn, prob.b1, inverse=True)
        assert [alpha.size for alpha, _ in tridiagonals] == [stop]
        assert np.array_equal(x, fresh(krylov).apply(fn, prob.b1, inverse=True))

    def test_dense_operator_ignores_the_flag(self, dolphins_problem):
        dense = hk.DirichletOperator.from_subset(dolphins_problem.graph, dolphins_problem.subset)
        fn = lambda lam: np.exp(-np.multiply.outer([0.5, 4.0], lam))
        f = dolphins_problem.b1
        assert np.array_equal(dense.apply(fn, f, inverse=True), dense.apply(fn, f))


class TestKrylovRunCache:
    """Applies from the vector of the previous apply replay its Lanczos run;
    every output must be bit-identical to a fresh operator's."""

    def test_every_order_from_one_vector(self, grid15):
        # Every exact solve a report makes from b1, in every order.
        prob, krylov = grid15
        sched = hk.make_schedule(prob.subset.size, 0.2)
        applies = {
            "greens": lambda op: op.apply(np.reciprocal, prob.b1),
            "solve": lambda op: op.solve(prob.b1),
            "heat": lambda op: heat_kernel(op, 4.0, prob.b1),
            "heat_times": lambda op: heat_kernel(op, np.array([0.5, 37.0]), prob.b1),
            "riemann": lambda op: hk.riemann_sum_solution(prob, sched, operator=op),
            "local": lambda op: hk.local_linear_solver(prob, 0.2, seed=3, operator=op).x_hat,
        }
        expected = {name: call(fresh(krylov)) for name, call in applies.items()}
        for order in itertools.permutations(applies):
            op = fresh(krylov)
            for name in order:
                assert np.array_equal(applies[name](op), expected[name]), order

    def test_run_extends_when_fn_needs_more_steps(self, grid15, caplog):
        prob, krylov = grid15
        op = fresh(krylov)
        caplog.set_level(logging.DEBUG, logger="hklocal.dirichlet")
        short = heat_kernel(op, 0.01, prob.b1)
        long = op.apply(np.reciprocal, prob.b1)
        again = op.apply(np.reciprocal, prob.b1)
        lines = [r.getMessage().split(", ") for r in caplog.records
                 if r.name == "hklocal.dirichlet"]
        steps = [int(line[0].split()[-2]) for line in lines]
        assert [line[1] for line in lines] == ["new run", "extended run", "reused run"]
        assert steps[0] < steps[1] == steps[2]
        assert np.array_equal(short, heat_kernel(fresh(krylov), 0.01, prob.b1))
        assert np.array_equal(long, fresh(krylov).apply(np.reciprocal, prob.b1))
        assert np.array_equal(again, long)

    def test_alternating_vectors(self, grid15):
        prob, krylov = grid15
        op = fresh(krylov)
        for f in (prob.b1, prob.b2, prob.b1, prob.b1, prob.b2):
            for fn in (np.reciprocal, lambda lam: np.exp(-4.0 * lam)):
                assert np.array_equal(op.apply(fn, f), fresh(krylov).apply(fn, f))
            assert np.array_equal(op.solve(f), fresh(krylov).solve(f))

    def test_zero_vector_between_applies(self, grid15):
        prob, krylov = grid15
        op = fresh(krylov)
        expected = fresh(krylov).apply(np.reciprocal, prob.b1)
        assert np.array_equal(op.apply(np.reciprocal, prob.b1), expected)
        assert not np.any(op.apply(np.reciprocal, np.zeros(op.s)))
        assert np.array_equal(op.apply(np.reciprocal, prob.b1), expected)

    def test_vector_changed_in_place(self, grid15):
        # The run is keyed on a copy of f: a caller that changes its array
        # after an apply gets a new run, not the stale one.
        prob, krylov = grid15
        op = fresh(krylov)
        f = prob.b1.copy()
        op.apply(np.reciprocal, f)
        f[::2] = prob.b2[::2]
        assert np.array_equal(op.apply(np.reciprocal, f), fresh(krylov).apply(np.reciprocal, f))

    def test_concurrent_applies_match_serial(self, grid15):
        # Four threads, more than the cores, share one operator, switching
        # often.  Equal copies of b1 and b2 hit each other's runs, so one
        # thread may extend a run while another replays it.  Thread i runs
        # the calls rotated by i, so the two threads on each vector mix
        # solves, which extend a run one step at a time, with applies,
        # which extend it to a checkpoint.
        prob, krylov = grid15
        vectors = [prob.b1, prob.b2, prob.b1.copy(), prob.b2.copy()]
        fns = [lambda lam: np.exp(-0.01 * lam), np.reciprocal, lambda lam: np.exp(-4.0 * lam)]
        calls = [lambda op, f, fn=fn: op.apply(fn, f) for fn in fns[:2]]
        calls += [lambda op, f: op.solve(f), lambda op, f: op.apply(fns[2], f)]
        expected = [[call(fresh(krylov), f) for call in calls] for f in vectors]
        op = fresh(krylov)
        results = [[] for _ in vectors]
        barrier = threading.Barrier(len(vectors))

        def work(i):
            barrier.wait(timeout=60)
            order = [(i + j) % len(calls) for j in range(len(calls))]
            for _ in range(5):
                outputs = [None] * len(calls)
                for j in order:
                    outputs[j] = calls[j](op, vectors[i])
                results[i].append(outputs)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(vectors))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(results, expected):
            assert len(got) == 5
            assert all(np.array_equal(g, w) for rep in got for g, w in zip(rep, want))

