"""Poisson sampling, Dirichlet walks, and the Monte-Carlo pagerank estimators."""

import math

import numpy as np
import pytest

import hklocal as hk
import hklocal.walks as walks
from conftest import is_eps_approx


@pytest.fixture(scope="module")
def p4_subset(p4_graph):
    return hk.VertexSubset.from_iterable([1, 2], p4_graph.n)


@pytest.fixture(scope="module")
def p3_subset(p3_graph):
    return hk.VertexSubset.from_iterable([1], p3_graph.n)


def assert_unbiased_with_cap_removed(p4_graph, p4_subset):
    # empirical mean over 200 seeds vs the exact backend, per entry
    op = hk.restricted_operator(p4_graph, p4_subset)
    f = np.array([1.0, 0.5])
    t = 3.0
    truth = hk.exact_dirhkpr(op, t, f)
    seeds = 200
    acc = np.zeros(2)
    for seed in range(seeds):
        acc += hk.approx_dirhkpr(
            p4_graph, t, f, p4_subset, 0.5, master_seed=seed,
            cap_mode="none", constant=4.0,
        )
    mean = acc / seeds
    r = hk.sample_count(0.5, p4_graph.n, constant=4.0)
    sigma = np.sqrt(np.abs(truth) * f.sum() / (r * seeds)) + 1e-9
    assert np.all(np.abs(mean - truth) <= 3.0 * sigma + 0.01)


class TestSamplePoisson:
    def test_t_zero_degenerate(self):
        rng = hk.substream(1, 0, 0)
        assert all(hk.sample_poisson(0.0, rng) == 0 for _ in range(50))

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            hk.sample_poisson(-1.0, hk.substream(1, 0, 0))

    def test_moments(self):
        rng = hk.substream(99, 0, 0)
        draws = rng.poisson(5.0, size=1_000_000)
        # CLT bounds: 4 sigma/sqrt(N) on the mean, moment check on variance
        assert abs(draws.mean() - 5.0) < 0.02
        assert abs(draws.var() - 5.0) < 0.05


class TestWalkConfig:
    def test_round_count_formula(self):
        assert hk.sample_count(0.3, 3) == math.ceil(16.0 / 0.3**3 * math.log(3))
        assert hk.sample_count(0.3, 3) == 652

    def test_caps(self):
        assert hk.walk_cap(7.0, 0.5, "eps") == 14
        assert hk.walk_cap(7.3, 0.5, "two_t") == 14
        assert hk.walk_cap(7.9, 0.5, "two_t") == 15
        assert hk.walk_cap(7.0, 0.5, "none") is None

    @pytest.mark.parametrize("constant", [0.0, -3.0, math.inf, math.nan])
    def test_bad_constant_rejected(self, constant):
        with pytest.raises(ValueError, match="constant"):
            hk.sample_count(0.3, 10, constant)

    def test_from_params(self):
        cfg = hk.WalkConfig.from_params(2.0, 0.25, 100, master_seed=5)
        assert cfg.cap == int(2.0 / 0.25)
        assert cfg.r == math.ceil(16.0 / 0.25**3 * math.log(100))
        with pytest.raises(ValueError):
            hk.WalkConfig.from_params(0.0, 0.25, 100, master_seed=5)


class TestSignedSplit:
    def test_split(self):
        f = np.array([1.5, 0.0, -0.5, 2.0])
        sp = hk.split_signed(f)
        assert np.array_equal(sp.f_plus - sp.f_minus, f)
        assert np.all(sp.f_plus * sp.f_minus == 0.0)
        assert sp.norm_plus == 3.5
        assert sp.norm_minus == 0.5


class TestDirichletWalk:
    def test_zero_steps_returns_start(self, p4_graph, p4_subset):
        rng = hk.substream(0, 0, 0)
        assert hk.dirichlet_walk(p4_graph, p4_subset, 1, 0, rng) == 1

    def test_start_outside_subset_rejected(self, p4_graph, p4_subset):
        with pytest.raises(ValueError, match="not in the subset"):
            hk.dirichlet_walk(p4_graph, p4_subset, 0, 1, hk.substream(0, 0, 0))

    def test_singleton_always_aborts(self, p3_graph, p3_subset):
        rng = hk.substream(4, 0, 0)
        for k in (1, 2, 5):
            assert hk.dirichlet_walk(p3_graph, p3_subset, 1, k, rng) is None

    def test_single_step_distribution(self, p4_graph, p4_subset):
        # from vertex 1: half the steps go to 2 (stay), half to 0 (abort)
        rng = hk.substream(7, 0, 0)
        trials = 100_000
        stayed = sum(
            hk.dirichlet_walk(p4_graph, p4_subset, 1, 1, rng) is not None
            for _ in range(trials)
        )
        assert abs(stayed / trials - 0.5) < 0.01

    def test_stats_counting(self, p4_graph, p4_subset):
        stats = hk.WalkStats()
        rng = hk.substream(3, 0, 0)
        for _ in range(100):
            hk.dirichlet_walk(p4_graph, p4_subset, 1, 3, rng, stats)
        assert stats.walks_started == 100
        assert stats.steps_simulated <= 300
        assert stats.walks_aborted <= 100


class TestApproxDirhkpr:
    def test_identity_limit_unit_mass(self, p3_graph, p3_subset):
        f = np.array([1.0])
        rho = hk.approx_dirhkpr(p3_graph, 1e-12, f, p3_subset, 0.3, master_seed=2)
        assert np.array_equal(rho, f)

    def test_signed_identity_limit(self, p4_graph, p4_subset):
        f = np.array([1.0, -1.0])
        rho = hk.approx_dirhkpr(p4_graph, 1e-12, f, p4_subset, 0.3, master_seed=2)
        assert np.array_equal(rho, f)

    def test_closed_form_acceptance_rate(self, p3_graph, p3_subset):
        # exact value e^{-t} = 0.5 at t = ln 2; estimator is Binomial(r, 1/2)/r
        f = np.array([1.0])
        t = math.log(2.0)
        hits = sum(
            abs(hk.approx_dirhkpr(p3_graph, t, f, p3_subset, 0.3, master_seed=seed)[0] - 0.5)
            <= 0.3 * 0.5
            for seed in range(100)
        )
        assert hits >= 70

    def test_zero_vector_rejected(self, p4_graph, p4_subset):
        with pytest.raises(ValueError, match="zero"):
            hk.approx_dirhkpr(p4_graph, 1.0, np.zeros(2), p4_subset, 0.3, master_seed=0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_bad_t_rejected(self, p4_graph, p4_subset, t):
        f = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="t must"):
            hk.approx_dirhkpr(p4_graph, t, f, p4_subset, 0.3, master_seed=0)
        with pytest.raises(ValueError, match="t must"):
            hk.solver_approx_dirhkpr(p4_graph, t, f, p4_subset, 0.3, master_seed=0)

    def test_invalid_epsilon_rejected(self, p4_graph, p4_subset):
        with pytest.raises(ValueError, match="epsilon"):
            hk.approx_dirhkpr(p4_graph, 1.0, np.array([1.0, 0.0]), p4_subset, 1.5, master_seed=0)

    def test_determinism_across_workers(self, p4_graph, p4_subset):
        f = np.array([2.0, -0.7])
        runs = [
            hk.approx_dirhkpr(p4_graph, 2.0, f, p4_subset, 0.2, master_seed=31, workers=w)
            for w in (1, 2, 4, 7)
        ]
        for other in runs[1:]:
            assert np.array_equal(runs[0], other)

    def test_nonnegativity_and_mass(self, p4_graph, p4_subset):
        f = np.array([1.2, 0.6])
        for seed in range(10):
            rho = hk.approx_dirhkpr(p4_graph, 1.5, f, p4_subset, 0.3, master_seed=seed)
            assert np.all(rho >= 0.0)
            assert rho.sum() <= f.sum() + 1e-12

    def test_unbiased_with_cap_removed(self, p4_graph, p4_subset):
        assert_unbiased_with_cap_removed(p4_graph, p4_subset)

    def test_epsilon_approximation_statistics(self, p3_graph, p3_subset):
        f = np.array([1.0])
        t = math.log(2.0)
        eps = 0.3
        ok = sum(
            is_eps_approx(
                hk.approx_dirhkpr(p3_graph, t, f, p3_subset, eps, master_seed=seed),
                np.array([0.5]),
                eps,
            )
            for seed in range(100)
        )
        assert ok >= 70

    def test_all_walks_aborting_yields_zero_vector(self, p3_graph, p3_subset):
        # the singleton subset kills every walk of positive length; at large t
        # survival is ~e^{-t}, so the estimator returns the zero vector
        rho = hk.approx_dirhkpr(
            p3_graph, 12.0, np.array([1.0]), p3_subset, 0.5, master_seed=0
        )
        assert np.array_equal(rho, np.zeros(1))

    def test_support_bound_on_exact_vectors(self, dolphins_problem):
        # distribution-valued f: exact pagerank has at most 1/eps entries above eps
        op = hk.restricted_operator(dolphins_problem.graph, dolphins_problem.subset)
        f = np.abs(dolphins_problem.b2)
        f = f / f.sum()
        for eps in (0.05, 0.1, 0.3):
            for t in (0.5, 2.0, 10.0):
                rho = hk.exact_dirhkpr(op, t, f)
                assert int((rho > eps).sum()) <= math.ceil(1.0 / eps)


class TestSolverApproxDirhkpr:
    def test_identity_limit(self, p3_graph, p3_subset):
        f = np.array([1.0])
        rho = hk.solver_approx_dirhkpr(p3_graph, 1e-12, f, p3_subset, 0.3, master_seed=5)
        assert np.array_equal(rho, f)

    def test_closed_form_acceptance_rate(self, p3_graph, p3_subset):
        # survival only for k = 0, so the entry estimates e^{-1}
        f = np.array([1.0])
        truth = math.exp(-1.0)
        hits = sum(
            abs(hk.solver_approx_dirhkpr(p3_graph, 1.0, f, p3_subset, 0.3, master_seed=seed)[0] - truth)
            <= 0.3 * truth
            for seed in range(100)
        )
        assert hits >= 70

    def test_step_budget_under_cap(self, p4_graph, p4_subset):
        t = 6.0
        stats = hk.WalkStats()
        hk.solver_approx_dirhkpr(
            p4_graph, t, np.array([1.0, 0.0]), p4_subset, 0.4, master_seed=9, stats=stats
        )
        r = hk.sample_count(0.4, p4_graph.n)
        assert stats.steps_simulated <= r * int(2 * t)
        assert stats.walks_started == r


def test_substream_independence():
    # identical keys reproduce; distinct phase or index gives distinct streams
    a = hk.substream(12, 0, 5).random(4)
    b = hk.substream(12, 0, 5).random(4)
    c = hk.substream(12, 1, 5).random(4)
    d = hk.substream(12, 0, 6).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def replay_groups(seed, phase, t, r, block):
    """Each walk group's stream in the engine's draw order: every start
    uniform, then every Poisson length; the generator is left at the walks'
    step uniforms, which follow in walk order."""
    for index, first in enumerate(range(0, r, block)):
        size = min(block, r - first)
        rng = hk.substream(seed, phase, index)
        starts = rng.random(size)
        yield starts, rng.poisson(t, size), rng


def replay_lengths(seed, t, r, block):
    """Positive-phase walk lengths as the engine draws them."""
    groups = replay_groups(seed, walks.PHASE_POSITIVE, t, r, block)
    return np.concatenate([lengths for _, lengths, _ in groups])


class StepUniforms:
    """Stands in for dirichlet_walk's generator: each neighbour index is
    floor(u * deg), clamped to deg - 1, for the walk's next uniform u."""

    def __init__(self, uniforms):
        self._next = iter(uniforms)

    def integers(self, n):
        return min(int(next(self._next) * n), n - 1)


def replay_estimate(graph, subset, t, f, epsilon, seed, cap, stats):
    """approx_dirhkpr rebuilt from scalar dirichlet_walk calls: each walk of a
    group takes as many uniforms as its capped length, in walk order."""
    r = hk.sample_count(epsilon, graph.n)
    rho = np.zeros(subset.size)
    for phase, part, sign in (
        (walks.PHASE_POSITIVE, np.where(f > 0, f, 0.0), 1.0),
        (walks.PHASE_NEGATIVE, np.where(f < 0, -f, 0.0), -1.0),
    ):
        norm = part.sum()
        if norm == 0.0:
            continue
        support = np.flatnonzero(part)
        cdf = np.cumsum(part[support]) / norm
        counts = np.zeros(subset.size, dtype=np.int64)
        for u, lengths, rng in replay_groups(seed, phase, t, r, walks.WALK_BLOCK):
            picks = np.minimum(np.searchsorted(cdf, u, side="right"), support.size - 1)
            for start, k in zip(subset.members[support[picks]], np.minimum(lengths, cap)):
                end = hk.dirichlet_walk(graph, subset, int(start), int(k),
                                        StepUniforms(rng.random(k)), stats)
                if end is not None:
                    counts[subset.local_index(end)] += 1
        rho += counts * (sign * norm / r)
    return rho


def assert_same_stats(a, b):
    assert (a.walks_started, a.steps_simulated, a.walks_aborted) == (
        b.walks_started, b.steps_simulated, b.walks_aborted)


class TestLockstepEngine:
    """approx_dirhkpr on P4 with S the whole graph, where no walk can abort."""

    # cap floor(t / eps) = 5 binds for about 8% of Poisson(3) lengths.
    T, EPS, SEED = 3.0, 0.6, 17

    @pytest.fixture(scope="class")
    def whole(self, p4_graph):
        return hk.VertexSubset.from_iterable(range(p4_graph.n), p4_graph.n)

    def test_uncapped_walks_keep_all_mass(self, p4_graph, whole):
        r = hk.sample_count(self.EPS, p4_graph.n)
        # ||f||_1 / r = 1/2, so every deposit and every partial sum is exact.
        f = np.array([0.25, 0.0, 0.125, 0.125]) * r
        stats = hk.WalkStats()
        rho = hk.approx_dirhkpr(
            p4_graph, self.T, f, whole, self.EPS, master_seed=self.SEED,
            cap_mode="none", stats=stats,
        )
        assert stats.walks_aborted == 0
        assert stats.walks_started == r
        assert rho.sum() == f.sum()
        lengths = replay_lengths(self.SEED, self.T, r, walks.WALK_BLOCK)
        assert stats.steps_simulated == int(lengths.sum())

    def test_default_cap_bounds_every_walk(self, p4_graph, whole):
        r = hk.sample_count(self.EPS, p4_graph.n)
        cap = hk.walk_cap(self.T, self.EPS, "eps")
        stats = hk.WalkStats()
        hk.approx_dirhkpr(
            p4_graph, self.T, np.array([1.0, 0.0, 0.0, 0.0]), whole, self.EPS,
            master_seed=self.SEED, stats=stats,
        )
        lengths = replay_lengths(self.SEED, self.T, r, walks.WALK_BLOCK)
        assert (lengths > cap).any()
        assert stats.steps_simulated == int(np.minimum(lengths, cap).sum())
        assert stats.steps_simulated <= r * cap
        assert stats.walks_aborted == 0

    def test_exit_step_counted(self, p3_graph, p3_subset):
        # S = {1} in P3: every walk of positive length aborts on its first
        # step, which counts as simulated; zero-length walks survive.
        r = hk.sample_count(self.EPS, p3_graph.n)
        stats = hk.WalkStats()
        rho = hk.approx_dirhkpr(
            p3_graph, self.T, np.array([1.0]), p3_subset, self.EPS,
            master_seed=self.SEED, stats=stats,
        )
        moved = int((replay_lengths(self.SEED, self.T, r, walks.WALK_BLOCK) > 0).sum())
        assert stats.steps_simulated == stats.walks_aborted == moved
        assert round(rho[0] * r) == r - moved

    def test_counters_sum_across_blocks(self, p4_graph, p4_subset, whole, monkeypatch):
        block = 7
        monkeypatch.setattr(walks, "WALK_BLOCK", block)
        r = hk.sample_count(self.EPS, p4_graph.n)
        assert r > 10 * block
        cap = hk.walk_cap(self.T, self.EPS, "eps")
        stats = hk.WalkStats()
        hk.approx_dirhkpr(
            p4_graph, self.T, np.array([1.0, 0.0, 0.0, 0.0]), whole, self.EPS,
            master_seed=self.SEED, stats=stats,
        )
        lengths = replay_lengths(self.SEED, self.T, r, block)
        assert (lengths > cap).any()
        assert (stats.walks_started, stats.walks_aborted) == (r, 0)
        assert stats.steps_simulated == int(np.minimum(lengths, cap).sum())
        # On S = {1, 2} walks abort: survivors and aborted walks account for
        # every started walk, and the estimator stays unbiased.
        f = np.array([1.0, 0.5])
        stats = hk.WalkStats()
        rho = hk.approx_dirhkpr(
            p4_graph, self.T, f, p4_subset, self.EPS, master_seed=self.SEED, stats=stats
        )
        survivors = int(np.rint(rho.sum() * r / f.sum()))
        assert stats.walks_started == r
        assert 0 < stats.walks_aborted < r
        assert survivors + stats.walks_aborted == r
        assert_unbiased_with_cap_removed(p4_graph, p4_subset)


class TestStreamLayout:
    """Each walk is dirichlet_walk fed its own slice of its group's stream."""

    T, EPS, SEED = 3.0, 0.6, 17

    @pytest.mark.parametrize("block", [None, 7])
    def test_replays_scalar_walks(self, p4_graph, p4_subset, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(walks, "WALK_BLOCK", block)
        f = np.array([1.0, -0.5])
        stats, ref_stats = hk.WalkStats(), hk.WalkStats()
        rho = hk.approx_dirhkpr(p4_graph, self.T, f, p4_subset, self.EPS,
                                master_seed=self.SEED, stats=stats)
        cap = hk.walk_cap(self.T, self.EPS, "eps")
        ref = replay_estimate(p4_graph, p4_subset, self.T, f, self.EPS, self.SEED, cap, ref_stats)
        assert np.array_equal(rho, ref)
        assert_same_stats(stats, ref_stats)
        assert 0 < stats.walks_aborted < stats.walks_started

    def test_replays_scalar_walks_on_dolphins(self, dolphins_problem):
        graph, subset, f = dolphins_problem.graph, dolphins_problem.subset, dolphins_problem.b2
        t, eps = 20.0, 0.3
        stats, ref_stats = hk.WalkStats(), hk.WalkStats()
        rho = hk.approx_dirhkpr(graph, t, f, subset, eps, master_seed=5, stats=stats)
        ref = replay_estimate(graph, subset, t, f, eps, 5, hk.walk_cap(t, eps, "eps"), ref_stats)
        assert np.array_equal(rho, ref)
        assert_same_stats(stats, ref_stats)


class TestPassBudget:
    """The chunking of a lockstep pass does not change any output."""

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("budget", [3, 5])
    def test_approx_dirhkpr(self, p4_graph, p4_subset, monkeypatch, block, budget):
        if block is not None:
            monkeypatch.setattr(walks, "WALK_BLOCK", block)
        # cap floor(3 / 0.6) = 5 exceeds every chunk, so walks get cut.
        f = np.array([1.0, -0.5])
        stats, small_stats = hk.WalkStats(), hk.WalkStats()
        rho = hk.approx_dirhkpr(p4_graph, 3.0, f, p4_subset, 0.6, master_seed=4, stats=stats)
        monkeypatch.setattr(walks, "PASS_BUDGET", budget)
        small = hk.approx_dirhkpr(p4_graph, 3.0, f, p4_subset, 0.6, master_seed=4,
                                  stats=small_stats)
        assert np.array_equal(rho, small)
        assert_same_stats(stats, small_stats)

    @pytest.mark.parametrize("block", [None, 7])
    def test_greens_solver(self, p4_problem, dolphins_problem, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(walks, "WALK_BLOCK", block)
        runs = [
            lambda: hk.greens_solver(p4_problem, 0.25, 0.4, seed=6),
            lambda: hk.greens_solver(dolphins_problem, 0.4, 0.5, seed=6),
        ]
        full = [run() for run in runs]
        for budget, run, want in zip((40, 4000), runs, full):
            monkeypatch.setattr(walks, "PASS_BUDGET", budget)
            got = run()
            assert np.array_equal(got.x_hat, want.x_hat)
            assert (got.walks_started, got.walk_steps_total, got.walks_aborted) == (
                want.walks_started, want.walk_steps_total, want.walks_aborted)
