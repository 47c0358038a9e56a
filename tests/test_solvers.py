"""Schedules, Riemann references, and both sampling solvers."""

import math

import numpy as np
import pytest

import hklocal as hk
from conftest import draw_t, grid_patch_problem, riemann_direct, schedule_draws, uncapped_dirhkpr


@pytest.fixture(scope="module")
def p4_op(p4_problem):
    return hk.restricted_operator(p4_problem.graph, p4_problem.subset)


class TestSchedule:
    def test_reference_values_s20(self):
        sched = hk.make_schedule(20, 0.01)
        assert sched.T == pytest.approx(8000.0 * math.log(8000.0 / 0.01), rel=1e-15)
        assert sched.T == pytest.approx(108738.936, abs=0.01)
        assert sched.N == pytest.approx(sched.T / 0.01, rel=1e-15)
        assert sched.r_outer == 76010

    def test_reference_values_small(self):
        assert hk.make_schedule(1, 0.01).T == pytest.approx(math.log(100.0), rel=1e-15)
        assert hk.make_schedule(20, 0.1).r_outer == 530

    def test_epsilon_below_gamma_rejected(self):
        with pytest.raises(ValueError, match="at least gamma"):
            hk.make_schedule(20, 0.1, epsilon=0.05)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            hk.make_schedule(0, 0.1)
        with pytest.raises(ValueError):
            hk.make_schedule(5, 1.2)
        with pytest.raises(ValueError, match="empty time grid"):
            hk.make_schedule(1, 0.9)

    @pytest.mark.parametrize("s, gamma, name", [
        (20, 1e-200, "N"),  # gamma^2 underflows to 0
        (20, 1e-160, "N"),  # ln(s / gamma) / gamma^2 overflows
        (20, 1e-9, "r_outer"),  # r_outer is finite, about 2.4e19
    ])
    def test_counts_past_int64_rejected(self, s, gamma, name):
        with pytest.raises(ValueError, match=rf"{name} = .* does not fit in int64"):
            hk.make_schedule(s, gamma)

    def test_t_prime_attached(self):
        sched = hk.make_schedule(20, 0.01, epsilon=0.1, lambda1=0.5)
        assert sched.t_prime == pytest.approx(2.0 * math.log(10.0), rel=1e-12)


class TestRestrictedThreshold:
    def test_formula(self):
        assert hk.restricted_threshold(0.5, 0.01) == pytest.approx(2.0 * math.log(100.0), rel=1e-12)
        assert hk.restricted_threshold(0.5, 1.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            hk.restricted_threshold(0.0, 0.1)
        with pytest.raises(ValueError):
            hk.restricted_threshold(0.5, 0.0)


class TestDrawT:
    def test_grid_membership(self):
        sched = hk.make_schedule(2, 0.01)
        rng = np.random.default_rng(0)
        for _ in range(200):
            t = draw_t(sched, rng)
            j = t / sched.gamma
            assert 1 <= round(j) <= sched.floor_n
            assert t == pytest.approx(round(j) * sched.gamma, rel=1e-12)
            assert 0.0 < t <= sched.T + 1e-12

    def test_single_choice_grid(self):
        # gamma = 0.5, s = 1: floor(N) = floor(ln(2)/0.5) = 1, so t = gamma always
        sched = hk.make_schedule(1, 0.5)
        assert sched.floor_n == 1
        rng = np.random.default_rng(1)
        assert draw_t(sched, rng) == pytest.approx(0.5, rel=1e-12)

    def test_empirical_mean(self):
        sched = hk.make_schedule(2, 0.05)
        rng = np.random.default_rng(5)
        draws = np.array([draw_t(sched, rng) for _ in range(100_000)])
        expected = (sched.floor_n + 1) / 2.0 * sched.gamma
        assert abs(draws.mean() - expected) / expected < 0.01


def test_weighted_draw_enumeration_is_riemann_sum(p4_problem, p4_op):
    # Feed the midpoint of each index's CDF interval: the draw must return
    # that index, and sum_j P(j) w(j) rho_{j gamma} must be x_rie exactly.
    gamma = 0.1
    sched = hk.local_linear_solver(p4_problem, gamma, seed=0, operator=p4_op).schedule
    assert sched.rate == p4_op.lambda1
    n = sched.floor_n
    a = sched.rate * gamma
    # CDF of the truncated geometric law P(j) proportional to exp(-a (j - 1))
    cdf = np.expm1(-a * np.arange(n + 1)) / math.expm1(-a * n)
    probs = np.diff(cdf)
    acc = np.zeros(2)
    ts, ws = hk.draw_weighted_t(sched, 0.5 * (cdf[:-1] + cdf[1:]))
    for k, (t, w) in enumerate(zip(ts, ws)):
        assert t == pytest.approx((k + 1) * gamma, rel=1e-12)
        acc += probs[k] * w * hk.exact_dirhkpr(p4_op, t, p4_problem.b2)
    x_rie = hk.riemann_sum_solution(p4_problem, sched, operator=p4_op)
    assert np.max(np.abs(acc / np.sqrt(p4_op.degrees) - x_rie)) <= 1e-12

    uniform = hk.make_schedule(2, gamma, rate=0.0)
    ts, ws = hk.draw_weighted_t(uniform, (np.arange(n) + 0.5) / n)
    for k, (t, w) in enumerate(zip(ts, ws)):
        assert t == pytest.approx((k + 1) * gamma, rel=1e-12)
        assert w == pytest.approx(gamma * n, rel=1e-12)
    with pytest.raises(ValueError, match="rate"):
        hk.make_schedule(2, gamma, rate=-1.0)


class TestRiemannSum:
    @pytest.mark.parametrize("gamma", [0.05, 0.01])
    def test_bound_p4(self, p4_problem, p4_op, gamma):
        sched = hk.make_schedule(2, gamma)
        x_rie = hk.riemann_sum_solution(p4_problem, sched, operator=p4_op)
        x_s = hk.exact_local_solution(p4_problem, operator=p4_op)
        err = np.linalg.norm(x_s - x_rie)
        assert err <= gamma * (np.linalg.norm(p4_problem.b1) + np.linalg.norm(x_s))

    @pytest.mark.parametrize("gamma", [0.05, 0.01])
    def test_bound_p3(self, p3_problem, gamma):
        sched = hk.make_schedule(1, gamma)
        x_rie = hk.riemann_sum_solution(p3_problem, sched)
        x_s = hk.exact_local_solution(p3_problem)
        err = abs(float(x_s[0] - x_rie[0]))
        assert err <= gamma * (np.linalg.norm(p3_problem.b1) + np.linalg.norm(x_s))

    def test_geometric_matches_direct(self, p4_problem, p4_op):
        sched = hk.make_schedule(2, 0.05)
        fast = hk.riemann_sum_solution(p4_problem, sched, operator=p4_op)
        slow = riemann_direct(p4_problem, sched, p4_op)
        assert fast == pytest.approx(slow, abs=1e-11)

    def test_zero_b1(self):
        g = hk.load_graph("0 1\n1 2\n2 3\n3 4")
        sub = hk.VertexSubset.from_iterable([2], g.n)
        prob = hk.make_boundary_problem(g, {1: 1.0, 3: -1.0}, sub)
        sched = hk.make_schedule(1, 0.05)
        assert np.array_equal(hk.riemann_sum_solution(prob, sched), np.zeros(1))


class TestLocalLinearSolver:
    def test_bound_p4_median(self, p4_problem, p4_op):
        gamma = 0.1
        x_s = hk.exact_local_solution(p4_problem, operator=p4_op)
        sched = hk.make_schedule(2, gamma)
        x_rie = hk.riemann_sum_solution(p4_problem, sched, operator=p4_op)
        bound = gamma * (
            np.linalg.norm(p4_problem.b1) + np.linalg.norm(x_s) + np.linalg.norm(x_rie)
        )
        errs = []
        for seed in range(20):
            rep = hk.local_linear_solver(p4_problem, gamma, seed=seed, operator=p4_op)
            errs.append(np.linalg.norm(rep.x_hat - x_s))
            assert np.all(rep.sampled_ts > 0.0)
            assert np.all(rep.sampled_ts <= rep.schedule.T + 1e-12)
        assert np.median(errs) <= bound

    def test_worker_determinism(self, p4_problem, p4_op):
        a = hk.local_linear_solver(p4_problem, 0.2, seed=8, workers=1, operator=p4_op)
        b = hk.local_linear_solver(p4_problem, 0.2, seed=8, workers=4, operator=p4_op)
        assert np.array_equal(a.x_hat, b.x_hat)
        assert np.array_equal(a.sampled_ts, b.sampled_ts)

    def test_zero_b1_gives_zero(self):
        g = hk.load_graph("0 1\n1 2\n2 3\n3 4")
        sub = hk.VertexSubset.from_iterable([2], g.n)
        prob = hk.make_boundary_problem(g, {1: 1.0, 3: -1.0}, sub)
        rep = hk.local_linear_solver(prob, 0.2, seed=0)
        assert np.array_equal(rep.x_hat, np.zeros(1))

    def test_scaling_linearity_bitwise(self, p4_problem, p4_op):
        doubled = hk.make_boundary_problem(
            p4_problem.graph, {k: 2.0 * v for k, v in p4_problem.b.items()}, p4_problem.subset
        )
        a = hk.local_linear_solver(p4_problem, 0.2, seed=5, operator=p4_op)
        b = hk.local_linear_solver(doubled, 0.2, seed=5, operator=p4_op)
        assert np.array_equal(2.0 * a.x_hat, b.x_hat)

    def test_grid_misses_bound_at_most_gamma_share(self):
        # A 30 x 30 patch of a four-neighbour grid (s = 900) with signed
        # values on the rows just above and below it.  At lambda1 ~ 0.005 the
        # weight of a late sample is large, and independent time draws miss
        # the local bound in 27 of these 200 runs; the promise is at most gamma.
        gamma = 0.1
        problem = grid_patch_problem(30)
        op = hk.restricted_operator(problem.graph, problem.subset)
        x_s = hk.exact_local_solution(problem, operator=op)
        x_rie = hk.riemann_sum_solution(problem, hk.make_schedule(op.s, gamma), operator=op)
        seeds = 200
        misses = 0
        for seed in range(seeds):
            rep = hk.local_linear_solver(problem, gamma, seed=seed, operator=op)
            bound = hk.error_bound(rep, np.linalg.norm(x_s), np.linalg.norm(x_rie))["local"]
            misses += np.linalg.norm(rep.x_hat - x_s) > bound
        assert misses <= gamma * seeds


def per_sample_greens(problem, report, epsilon, keep=lambda t: True):
    """x_hat and WalkStats of a greens_solver report rebuilt from one-sample
    solver_approx_dirhkpr calls: the reference hash of the schedule gives
    every uniform U_i, stratified to (i + U_i) / r, and every child seed."""
    sched = report.schedule
    r = sched.r_outer
    u, seeds = schedule_draws(sched.master_seed, r)
    ts, weights = hk.draw_weighted_t(sched, (np.arange(r) + u) / r)
    assert np.array_equal(ts, report.sampled_ts)
    stats = hk.WalkStats()
    acc = np.zeros(problem.subset.size)
    for t, w, seed in zip(ts, weights, seeds):
        if keep(t):
            acc += w * hk.solver_approx_dirhkpr(
                problem.graph, t, problem.b2, problem.subset, epsilon, seed, stats=stats
            )
    degrees = problem.graph.degrees[problem.subset.members]
    x_hat = acc / sched.r_outer * (1.0 / np.sqrt(degrees.astype(np.float64)))
    return x_hat, stats


@pytest.mark.parametrize("seed", [0, -1, 2**64 + 5])
def test_schedule_layout(p4_problem, p4_op, seed):
    # Sample i's time uniform and child seed are hashed from member i of the
    # (seed, PHASE_SCHEDULE) group, the seed taken modulo 2**64 as the walks
    # take it: -1 is 2**64 - 1, and 2**64 + 5 is 5.
    exact = hk.local_linear_solver(p4_problem, 0.25, seed=seed, operator=p4_op)
    r = exact.schedule.r_outer
    u, _ = schedule_draws(seed % 2**64, r)
    ts, _ = hk.draw_weighted_t(exact.schedule, (np.arange(r) + u) / r)
    assert np.array_equal(exact.sampled_ts, ts)
    greens = hk.greens_solver(p4_problem, 0.25, 0.4, seed=seed, operator=p4_op)
    assert np.array_equal(greens.x_hat, per_sample_greens(p4_problem, greens, 0.4)[0])
    reduced = hk.greens_solver(p4_problem, 0.25, 0.4, seed=seed % 2**64, operator=p4_op)
    assert np.array_equal(greens.x_hat, reduced.x_hat)


class TestGreensSolver:
    @pytest.mark.parametrize("name, gamma, eps", [("p4", 0.25, 0.4), ("dolphins", 0.4, 0.5)])
    def test_batched_equals_per_sample(self, p4_problem, dolphins_problem, name, gamma, eps):
        problem = {"p4": p4_problem, "dolphins": dolphins_problem}[name]
        rep = hk.greens_solver(problem, gamma, eps, seed=21)
        x_hat, stats = per_sample_greens(problem, rep, eps)
        assert np.array_equal(rep.x_hat, x_hat)
        assert (rep.walks_started, rep.walk_steps_total, rep.walks_aborted) == (
            stats.walks_started, stats.steps_simulated, stats.walks_aborted)

    def test_restricted_run_sums_kept_samples(self, p4_problem):
        gamma, eps = 0.25, 0.4
        trimmed = hk.greens_solver(p4_problem, gamma, eps, seed=11, restricted_range=True)
        t_prime = trimmed.schedule.t_prime
        assert 0 < trimmed.samples_skipped < trimmed.schedule.r_outer
        x_hat, stats = per_sample_greens(p4_problem, trimmed, eps, keep=lambda t: t < t_prime)
        assert np.array_equal(trimmed.x_hat, x_hat)
        assert (trimmed.walks_started, trimmed.walk_steps_total, trimmed.walks_aborted) == (
            stats.walks_started, stats.steps_simulated, stats.walks_aborted)

    def test_bound_p4(self, p4_problem, p4_op):
        gamma, eps = 0.25, 0.4
        x_s = hk.exact_local_solution(p4_problem, operator=p4_op)
        sched = hk.make_schedule(2, gamma, epsilon=eps)
        x_rie = hk.riemann_sum_solution(p4_problem, sched, operator=p4_op)
        errs = []
        rep = None
        for seed in range(5):
            rep = hk.greens_solver(p4_problem, gamma, eps, seed=seed)
            errs.append(np.linalg.norm(rep.x_hat - x_s))
        bounds = hk.error_bound(rep, np.linalg.norm(x_s), np.linalg.norm(x_rie))
        assert np.median(errs) <= bounds["greens"]
        assert rep.walk_steps_total > 0

    def test_epsilon_below_gamma_rejected(self, p4_problem):
        with pytest.raises(ValueError, match="at least gamma"):
            hk.greens_solver(p4_problem, 0.3, 0.1, seed=0)

    def test_forced_zero_threshold(self, p4_problem):
        # t' = ln(1 / 0.999) / lambda1 is below gamma, the smallest grid time.
        rep = hk.greens_solver(p4_problem, 0.25, 0.999, seed=3, restricted_range=True)
        assert np.array_equal(rep.x_hat, np.zeros(2))
        assert rep.samples_skipped == rep.schedule.r_outer
        assert rep.walk_steps_total == 0

    def test_restricted_range_safety(self, p4_problem, p4_op):
        gamma, eps = 0.25, 0.4
        full = hk.greens_solver(p4_problem, gamma, eps, seed=11)
        trimmed = hk.greens_solver(p4_problem, gamma, eps, seed=11, restricted_range=True)
        t_prime = trimmed.schedule.t_prime
        skipped = trimmed.samples_skipped
        assert skipped == int((full.sampled_ts >= t_prime).sum())
        # Each skipped sample would have entered x_hat with the weight the
        # solver gives it, gamma / P(j) / r, where P is the truncated
        # geometric law of the grid index j = t / gamma at the schedule's rate.
        sched = trimmed.schedule
        q = math.exp(-sched.rate * sched.gamma)
        j = np.rint(full.sampled_ts[full.sampled_ts >= t_prime] / sched.gamma)
        prob = q ** (j - 1) * (1.0 - q) / (1.0 - q**sched.floor_n)
        allowance = (
            float(np.sum(sched.gamma / prob / sched.r_outer))
            * eps
            * float(np.abs(p4_problem.b2).sum())
            * float(np.max(1.0 / np.sqrt(p4_op.degrees)))
        )
        assert np.linalg.norm(full.x_hat - trimmed.x_hat) <= allowance

    def test_worker_determinism(self, p4_problem):
        a = hk.greens_solver(p4_problem, 0.25, 0.4, seed=2, workers=1)
        b = hk.greens_solver(p4_problem, 0.25, 0.4, seed=2, workers=4)
        assert np.array_equal(a.x_hat, b.x_hat)

    def test_restricted_threshold_estimated_when_not_given(self, p4_problem, p4_op):
        auto = hk.greens_solver(p4_problem, 0.25, 0.4, seed=11, restricted_range=True)
        assert auto.schedule.t_prime == hk.restricted_threshold(p4_op.lambda1, 0.4)
        assert auto.samples_skipped == int((auto.sampled_ts >= auto.schedule.t_prime).sum())

    @pytest.mark.parametrize("restricted_range", [False, True])
    def test_given_operator_changes_no_output(self, dolphins_problem, restricted_range):
        # The solver builds the same operator itself when given none.
        op = hk.restricted_operator(dolphins_problem.graph, dolphins_problem.subset)
        kwargs = {"seed": 4, "restricted_range": restricted_range}
        given = hk.greens_solver(dolphins_problem, 0.4, 0.5, operator=op, **kwargs)
        built = hk.greens_solver(dolphins_problem, 0.4, 0.5, **kwargs)
        assert given.schedule == built.schedule and given.schedule.rate == op.lambda1 / 2
        for name in ("x_hat", "sampled_ts"):
            assert np.array_equal(getattr(given, name), getattr(built, name)), name
        assert (given.walk_steps_total, given.samples_skipped) == (
            built.walk_steps_total, built.samples_skipped)

    def test_walk_second_moment_bounded_in_T(self, dolphins_problem):
        # The r walks of part f_p each deposit ||f_p||_1 / r where they
        # survive, so a walk sample's second moment about its mean is at most
        # V(t) = sum_p ||f_p||_1 * sum(rho_t(f_p)) / r, which decays like
        # e^{-lambda1 t}.  Drawn at the solver's rate, the weighted sample's
        # moment is sum_j P(j) w_j^2 V(j gamma); it must not grow when the
        # grid doubles, or the variance grows with T (at rate lambda1 it
        # doubles).  Grids of n and 2n points, with lambda1 gamma n = 250,
        # keep every weight and V finite.
        op = hk.restricted_operator(dolphins_problem.graph, dolphins_problem.subset)
        assert isinstance(op, hk.DirichletOperator)
        sched = hk.greens_solver(dolphins_problem, 0.4, 0.5, seed=0, operator=op).schedule
        r = hk.sample_count(0.5, dolphins_problem.graph.n)
        n = math.ceil(250.0 / (op.lambda1 * sched.gamma))
        b2 = dolphins_problem.b2
        times = np.arange(1, 2 * n + 1) * sched.gamma
        v = sum(part.sum() * hk.exact_dirhkpr(op, times, part).sum(axis=1) / r
                for part in (np.where(b2 > 0.0, b2, 0.0), np.where(b2 < 0.0, -b2, 0.0)))

        def moment(m):
            # P(j) w_j^2 = gamma^2 / P(j), P the truncated geometric law on 1..m.
            a = sched.rate * sched.gamma
            prob = np.exp(-a * np.arange(m)) * math.expm1(-a) / math.expm1(-a * m)
            return float(np.sum(sched.gamma**2 / prob * v[:m]))

        assert moment(2 * n) == pytest.approx(moment(n), rel=1e-9)

    def test_scaling_linearity_bitwise(self, p4_problem):
        doubled = hk.make_boundary_problem(
            p4_problem.graph, {k: 2.0 * v for k, v in p4_problem.b.items()}, p4_problem.subset
        )
        a = hk.greens_solver(p4_problem, 0.25, 0.4, seed=5)
        b = hk.greens_solver(doubled, 0.25, 0.4, seed=5)
        assert np.array_equal(2.0 * a.x_hat, b.x_hat)

    def test_shares_time_draws_with_exact_backend(self, p4_problem, p4_op):
        # Both solvers map the same uniforms of a seed, each at its own rate:
        # lambda1 for exact samples and lambda1 / 2 for walk samples.
        exact = hk.local_linear_solver(p4_problem, 0.25, seed=13, operator=p4_op)
        walks = hk.greens_solver(p4_problem, 0.25, 0.25, seed=13)
        assert (exact.schedule.rate, walks.schedule.rate) == (p4_op.lambda1, p4_op.lambda1 / 2)
        r = exact.schedule.r_outer
        u, _ = schedule_draws(13, r)
        for rep in (exact, walks):
            ts, _ = hk.draw_weighted_t(rep.schedule, (np.arange(r) + u) / r)
            assert np.array_equal(rep.sampled_ts, ts)
        assert not np.array_equal(exact.sampled_ts, walks.sampled_ts)

    def test_per_sample_convergence_to_exact_backend(self, p4_problem, p4_op):
        # with the cap removed and many rounds, the walk estimate of one
        # sampled time approaches the exact backend's sample entrywise
        sched = hk.make_schedule(2, 0.25, epsilon=0.25, seed=13)
        rng = np.random.default_rng(sched.master_seed)
        for _ in range(3):
            t = draw_t(sched, rng)
            truth = hk.exact_dirhkpr(p4_op, t, p4_problem.b2)
            acc = np.zeros(2)
            runs = 60
            for seed in range(runs):
                acc += uncapped_dirhkpr(
                    p4_problem.graph, t, p4_problem.b2, p4_problem.subset,
                    0.15, master_seed=seed, constant=1.0,
                )
            mean = acc / runs
            r = hk.sample_count(0.15, p4_problem.graph.n, constant=1.0)
            sigma = np.sqrt(np.abs(truth) / (r * runs)) + 1e-9
            assert np.all(np.abs(mean - truth) <= 4.0 * sigma + 0.02)


def test_workers_below_one_rejected(p4_problem, p4_op):
    with pytest.raises(ValueError, match="workers"):
        hk.local_linear_solver(p4_problem, 0.2, seed=0, workers=0, operator=p4_op)
    with pytest.raises(ValueError, match="workers"):
        hk.greens_solver(p4_problem, 0.25, 0.4, seed=0, workers=-1)
    with pytest.raises(ValueError, match="workers"):
        hk.approx_dirhkpr(p4_problem.graph, 1.0, p4_problem.b2, p4_problem.subset, 0.3,
                          master_seed=0, workers=0)


class TestErrorBound:
    def test_p4_terms(self, p4_problem, p4_op):
        rep = hk.local_linear_solver(p4_problem, 0.1, seed=0, operator=p4_op)
        x_s = hk.exact_local_solution(p4_problem, operator=p4_op)
        sched = hk.make_schedule(2, 0.1)
        x_rie = hk.riemann_sum_solution(p4_problem, sched, operator=p4_op)
        bounds = hk.error_bound(rep, np.linalg.norm(x_s), np.linalg.norm(x_rie))
        manual = 0.1 * (
            np.linalg.norm(p4_problem.b1) + np.linalg.norm(x_s) + np.linalg.norm(x_rie)
        )
        assert bounds["local"] == pytest.approx(manual, rel=1e-12)
        assert bounds["greens"] == bounds["local"]  # epsilon absent -> no walk term

    def test_monotone_and_gamma_zero_limit(self, p4_problem):
        rep = hk.greens_solver(p4_problem, 0.25, 0.4, seed=1)
        bounds = hk.error_bound(rep, 1.0, 1.0)
        assert bounds["local"] <= bounds["greens"]
        rep.error_bound_terms["gamma"] = 0.0
        zero_gamma = hk.error_bound(rep, 1.0, 1.0)
        assert zero_gamma["local"] == 0.0
        assert zero_gamma["greens"] == pytest.approx(
            0.4 * np.abs(p4_problem.b2).sum(), rel=1e-12
        )


def test_report_json_keys_use_original_ids(dolphins_problem):
    rep = hk.local_linear_solver(dolphins_problem, 0.2, seed=0)
    doc = hk.report_to_json(rep, dolphins_problem)
    assert doc["format_version"] == 1
    keys = [int(k) for k in doc["x_hat"]]
    expected = dolphins_problem.graph.original_ids[dolphins_problem.subset.members].tolist()
    assert keys == expected
