"""Dirichlet walks, the walk engine's stream layout, and the Monte-Carlo
pagerank estimators."""

import bisect
import contextlib
import math
import signal
import tracemalloc

import numpy as np
import pytest

import hklocal as hk
import hklocal.walks as walks
from conftest import (
    LENGTH, MASK64, PHI, START, dirichlet_walk, is_eps_approx, splitmix64, uncapped_dirhkpr,
    uniform, walk_key,
)


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
        acc += uncapped_dirhkpr(p4_graph, t, f, p4_subset, 0.5, master_seed=seed, constant=4.0)
    mean = acc / seeds
    r = hk.sample_count(0.5, p4_graph.n, constant=4.0)
    sigma = np.sqrt(np.abs(truth) * f.sum() / (r * seeds)) + 1e-9
    assert np.all(np.abs(mean - truth) <= 3.0 * sigma + 0.01)


class TestWalkConfig:
    def test_round_count_formula(self):
        assert hk.sample_count(0.3, 3) == math.ceil(16.0 / 0.3**3 * math.log(3))
        assert hk.sample_count(0.3, 3) == 652
        # A count of about 6.6e16 still fits in int64 and is given.
        assert hk.sample_count(1e-5, 62) == math.ceil(16.0 / 1e-5**3 * math.log(62))
        # ln n is 0 on one vertex; one walk still runs.
        assert hk.sample_count(0.3, 1) == 1

    @pytest.mark.parametrize("constant", [0.0, -3.0, math.inf, math.nan])
    def test_bad_constant_rejected(self, constant):
        with pytest.raises(ValueError, match="constant"):
            hk.sample_count(0.3, 10, constant)

    @pytest.mark.parametrize("epsilon, constant", [(1e-200, 16.0), (1e-7, 16.0), (0.3, 1e300)])
    def test_count_past_int64_rejected(self, epsilon, constant):
        # Walks are numbered as uint64 hash members and counted in int64.
        with pytest.raises(ValueError, match="int64"):
            hk.sample_count(epsilon, 62, constant)


class TestSignedSplit:
    def test_split(self, dolphins_problem):
        # f = f_plus - f_minus, and each nonzero part runs its own walk group
        # of r walks: the estimate of a signed f is the sum of those of
        # f_plus and -f_minus, bit for bit, and a zero part starts no walk.
        graph, subset = dolphins_problem.graph, dolphins_problem.subset
        f = np.zeros(subset.size)
        f[:4] = [1.5, 0.0, -0.5, 2.0]
        parts = (f, np.where(f > 0.0, f, 0.0), -np.where(f < 0.0, -f, 0.0))
        stats = [hk.WalkStats() for _ in parts]
        rho = [hk.approx_dirhkpr(graph, 4.0, part, subset, 0.5, 3, stats=st)
               for part, st in zip(parts, stats)]
        assert np.array_equal(rho[0], rho[1] + rho[2])
        r = hk.sample_count(0.5, graph.n)
        assert [st.walks_started for st in stats] == [2 * r, r, r]
        assert stats[0].steps_simulated == stats[1].steps_simulated + stats[2].steps_simulated


class TestDirichletWalk:
    def test_zero_steps_returns_start(self, p4_graph, p4_subset):
        rng = np.random.default_rng(0)
        assert dirichlet_walk(p4_graph, p4_subset, 1, 0, rng) == 1

    def test_start_outside_subset_rejected(self, p4_graph, p4_subset):
        with pytest.raises(ValueError, match="not in the subset"):
            dirichlet_walk(p4_graph, p4_subset, 0, 1, np.random.default_rng(0))

    def test_singleton_always_aborts(self, p3_graph, p3_subset):
        rng = np.random.default_rng(4)
        for k in (1, 2, 5):
            assert dirichlet_walk(p3_graph, p3_subset, 1, k, rng) is None

    def test_single_step_distribution(self, p4_graph, p4_subset):
        # from vertex 1: half the steps go to 2 (stay), half to 0 (abort)
        rng = np.random.default_rng(7)
        trials = 100_000
        stayed = sum(
            dirichlet_walk(p4_graph, p4_subset, 1, 1, rng) is not None
            for _ in range(trials)
        )
        assert abs(stayed / trials - 0.5) < 0.01

    def test_stats_counting(self, p4_graph, p4_subset):
        stats = hk.WalkStats()
        rng = np.random.default_rng(3)
        for _ in range(100):
            dirichlet_walk(p4_graph, p4_subset, 1, 3, rng, stats)
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

    def test_zero_vector_gives_zeros_without_walks(self, p4_graph, p4_subset):
        # f = 0 is an admissible b2 (a boundary whose values cancel in b1):
        # both estimators return zeros and start no walk, whatever the times.
        stats = hk.WalkStats()
        rho = hk.approx_dirhkpr(p4_graph, 1.0, np.zeros(2), p4_subset, 0.3, master_seed=0,
                                stats=stats)
        assert rho.shape == (2,) and not np.any(rho)
        acc = hk.solver_approx_dirhkpr(p4_graph, np.array([0.5, 40.0]), np.zeros(2), p4_subset,
                                       0.3, np.array([1, 2]), stats=stats,
                                       weights=np.array([2.0, 3.0]))
        assert acc.shape == (2,) and not np.any(acc)
        assert stats == hk.WalkStats()
        # The arguments are still checked.
        with pytest.raises(ValueError, match="t must"):
            hk.approx_dirhkpr(p4_graph, -1.0, np.zeros(2), p4_subset, 0.3, master_seed=0)
        with pytest.raises(ValueError, match="shape"):
            hk.approx_dirhkpr(p4_graph, 1.0, np.zeros(3), p4_subset, 0.3, master_seed=0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_bad_t_rejected(self, p4_graph, p4_subset, t):
        f = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="t must"):
            hk.approx_dirhkpr(p4_graph, t, f, p4_subset, 0.3, master_seed=0)
        with pytest.raises(ValueError, match="t must"):
            hk.solver_approx_dirhkpr(p4_graph, t, f, p4_subset, 0.3, master_seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_f_rejected(self, p4_graph, p4_subset, bad):
        f = np.array([1.0, bad])
        with pytest.raises(ValueError, match="non-finite"):
            hk.approx_dirhkpr(p4_graph, 1.0, f, p4_subset, 0.3, master_seed=0)
        with pytest.raises(ValueError, match="non-finite"):
            hk.solver_approx_dirhkpr(p4_graph, np.array([0.5, 2.0]), f, p4_subset, 0.3,
                                     np.array([1, 2]), weights=np.array([2.0, 3.0]))

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

    def test_seed_taken_modulo_2_64(self, p4_graph, p4_subset):
        f = np.array([2.0, -0.7])

        def run(seed):
            return hk.approx_dirhkpr(p4_graph, 2.0, f, p4_subset, 0.3, master_seed=seed)

        assert np.array_equal(run(2**64 + 5), run(5))
        assert np.array_equal(run(-1), run(2**64 - 1))
        assert not np.array_equal(run(5), run(6))
        # numpy integers of any width and sign read as the same Python int.
        assert np.array_equal(run(np.int8(-1)), run(-1))
        assert np.array_equal(run(np.uint64(5)), run(5))

    @pytest.mark.parametrize("seed", [0.4, 1.0, np.float64(5.0), "7"])
    def test_seed_must_be_an_integer(self, p4_graph, p4_subset, seed):
        # int() would read 0.4 as seed 0 and "7" as seed 7.
        f = np.array([2.0, -0.7])
        with pytest.raises(TypeError):
            hk.approx_dirhkpr(p4_graph, 2.0, f, p4_subset, 0.3, master_seed=seed)
        with pytest.raises(TypeError):
            hk.solver_approx_dirhkpr(p4_graph, np.array([2.0, 3.0]), f, p4_subset, 0.3,
                                     np.array([1, seed], dtype=object))

    @pytest.mark.parametrize("estimator, t, seeds, weights, message", [
        # approx_dirhkpr takes one t: t = [5, 5] with seeds [1, 1] would
        # otherwise sum two copies of the one-sample estimate.
        ("approx", [5.0, 5.0], [1, 1], None, "one t"),
        ("approx", [5.0], 1, None, "one t"),
        ("approx", 5.0, [1], None, "one t"),
        ("solver", [5.0, 6.0], [1], None, "one entry per sample"),
        ("solver", [5.0, 6.0], [1, 2], [1.0], "one entry per sample"),
        ("solver", [5.0], [1, 2], [1.0], "one entry per sample"),
    ])
    def test_sample_arrays_must_match(self, p4_graph, p4_subset, estimator, t, seeds, weights,
                                      message):
        f = np.array([1.0, 0.5])
        with pytest.raises(ValueError, match=message):
            if estimator == "approx":
                hk.approx_dirhkpr(p4_graph, t, f, p4_subset, 0.3, master_seed=seeds)
            else:
                hk.solver_approx_dirhkpr(p4_graph, t, f, p4_subset, 0.3, seeds, weights=weights)

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


def unmix(z):
    """Inverse of :func:`splitmix64`: undo each xor-shift and multiply."""
    z &= MASK64
    z ^= (z >> 31) ^ (z >> 62)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK64
    z ^= (z >> 27) ^ (z >> 54)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK64
    return z ^ (z >> 30) ^ (z >> 60)


def test_splitmix64_reference_vector():
    # The first two outputs of SplitMix64 seeded with 0.
    assert splitmix64(PHI) == 0xE220A8397B1DCDAF
    assert splitmix64(2 * PHI) == 0x6E789E6AA1B965F4
    for z in (0, 1, PHI, MASK64, 0x0123456789ABCDEF):
        assert unmix(splitmix64(z)) == z


def test_start_and_length_increments_apart_from_steps():
    # Step k of a walk hashes its key plus k * phi; the start and length
    # uniforms would repeat a step's only if their increments (or their
    # difference) were k * phi for a k a walk can reach.
    inverse_phi = pow(PHI, -1, 1 << 64)
    for c in (START, LENGTH, START - LENGTH, LENGTH - START):
        k = (c * inverse_phi) & MASK64
        assert 2**40 <= k <= MASK64 - 2**40


def seed_with_length_uniform(u, phase=walks.PHASE_POSITIVE, j=0):
    """A master seed whose walk j of ``phase`` has the length uniform u, a
    multiple of 2**-53 in [0, 1), found by inverting every hash."""
    w = unmix(int(u * 2**53) << 11) - LENGTH
    group = unmix(w) - j * PHI
    seed = unmix(unmix(group) - phase * PHI)
    assert uniform(walk_key(seed, phase, j) + LENGTH) == u
    return seed


def poisson_cdf(t, cap):
    """F_t(0), F_t(1), ... summed term by term in float64 as the engine does,
    up to the cap or to the first value of at least 1.  A term past t that
    underflows to 0 sets F to 1."""
    cdf, total, k = [], 0.0, 0
    while cap is None or k <= cap:
        pmf = math.exp(k * math.log(t) - t - math.lgamma(k + 1))
        total = 1.0 if pmf == 0.0 and k > t else total + pmf
        cdf.append(total)
        if total >= 1.0:
            break
        k += 1
    return cdf


@pytest.mark.parametrize("width", [1, 7, None])
def test_cdf_table_is_the_running_sum(width):
    # The engine tabulates F_t for its rows a block of k at a time, carrying
    # each row's sum from block to block.  Every block width gives each
    # row's scalar running sum up to its cap, where F_t is 1, or up to the
    # first value of at least 1: at t = 20 the sum ends below 1 and the
    # underflow rule sets it to 1.
    rows = [(3.0, 5), (3.0, None), (20.0, None), (20.0, 30)]
    wants = [poisson_cdf(t, cap) for t, cap in rows]
    end = max(len(want) for want in wants)
    lgamma = np.array([math.lgamma(k + 1) for k in range(end)])
    t = np.array([t for t, _ in rows])
    cap = np.array([math.inf if cap is None else cap for _, cap in rows])
    blocks, carry = [], 0.0
    for k0 in range(0, end, width or end):
        table, carry = walks._poisson_cdf(k0, lgamma[k0:k0 + (width or end)], t, np.log(t),
                                          cap, carry)
        blocks.append(table)
    table = np.concatenate(blocks)
    for column, (_, row_cap), want in zip(table.T, rows, wants):
        n = len(want) if row_cap is None else row_cap
        assert np.array_equal(column[:n], want[:n])
        assert np.all(column[n:] == 1.0)


def walk_length(u, cdf, cap):
    """Inverse CDF: the first k with u <= F_t(k), capped."""
    k = bisect.bisect_left(cdf, u)
    return k if cap is None else min(k, cap)


def replay_lengths(seed, t, r, cap):
    """Positive-part walk lengths of a one-sample call, from the inverse CDF."""
    cdf = poisson_cdf(t, cap)
    return np.array([
        walk_length(uniform(walk_key(seed, walks.PHASE_POSITIVE, j) + LENGTH), cdf, cap)
        for j in range(r)
    ])


class StepUniforms:
    """Stands in for dirichlet_walk's generator: each neighbour index is
    floor(u * deg), clamped to deg - 1, for the walk's next uniform u."""

    def __init__(self, uniforms):
        self._next = iter(uniforms)

    def integers(self, n):
        return min(int(next(self._next) * n), n - 1)


def test_step_slot_needs_no_clamp():
    # The engine steps to slot floor(u * deg) with no clamp to deg - 1.  The
    # rounded product is monotone in u, so the largest uniform, 1 - 2**-53,
    # decides: for every degree below 2**53 its product stays below the
    # degree.  StepUniforms keeps the clamp as the reference: a product that
    # reached the degree would set the engine and the replays apart.
    u = 1.0 - 2.0**-53
    rng = np.random.default_rng(2024)
    for degrees in (np.arange(1, 2**20 + 1), rng.integers(1, 2**52, size=2**20)):
        degrees = degrees.astype(np.float64)
        assert np.all((u * degrees).astype(np.int64) < degrees)


def replay_estimate(graph, subset, t, f, epsilon, seed, cap, stats):
    """approx_dirhkpr rebuilt from scalar dirichlet_walk calls: walk j of a
    part starts where its start uniform falls in the part's CDF, takes the
    inverse-CDF length of its length uniform, and steps by the uniforms of
    its key plus k * phi."""
    r = hk.sample_count(epsilon, graph.n)
    lengths = poisson_cdf(t, cap)
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
        for j in range(r):
            w = walk_key(seed, phase, j)
            pick = min(bisect.bisect_right(cdf, uniform(w + START)), support.size - 1)
            k = walk_length(uniform(w + LENGTH), lengths, cap)
            steps = StepUniforms(uniform(w + i * PHI) for i in range(k))
            end = dirichlet_walk(graph, subset, int(subset.members[support[pick]]), k, steps, stats)
            if end is not None:
                counts[subset.local_of[end]] += 1
        rho += counts * (sign * norm / r)
    return rho


def assert_same_stats(a, b):
    assert (a.walks_started, a.steps_simulated, a.walks_aborted) == (
        b.walks_started, b.steps_simulated, b.walks_aborted)


@contextlib.contextmanager
def deadline(seconds):
    """Fail with TimeoutError, rather than hang, if the block outlasts
    ``seconds`` (the engine checks for signals between steps)."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def p4_whole(p4_graph):
    return hk.VertexSubset.from_iterable(range(p4_graph.n), p4_graph.n)


class TestLockstepEngine:
    """approx_dirhkpr on P4 with S the whole graph, where no walk can abort,
    so the steps simulated are the sum of the replayed walk lengths."""

    # cap floor(t / eps) = 5 binds for about 8% of Poisson(3) lengths.
    T, EPS, SEED = 3.0, 0.6, 17

    def test_uncapped_walks_keep_all_mass(self, p4_graph, p4_whole):
        r = hk.sample_count(self.EPS, p4_graph.n)
        # ||f||_1 / r = 1/2, so every deposit and every partial sum is exact.
        f = np.array([0.25, 0.0, 0.125, 0.125]) * r
        stats = hk.WalkStats()
        rho = uncapped_dirhkpr(p4_graph, self.T, f, p4_whole, self.EPS, master_seed=self.SEED,
                               stats=stats)
        assert stats.walks_aborted == 0
        assert stats.walks_started == r
        assert rho.sum() == f.sum()
        assert stats.steps_simulated == int(replay_lengths(self.SEED, self.T, r, None).sum())

    def test_default_cap_bounds_every_walk(self, p4_graph, p4_whole):
        r = hk.sample_count(self.EPS, p4_graph.n)
        cap = math.floor(self.T / self.EPS)
        stats = hk.WalkStats()
        hk.approx_dirhkpr(
            p4_graph, self.T, np.array([1.0, 0.0, 0.0, 0.0]), p4_whole, self.EPS,
            master_seed=self.SEED, stats=stats,
        )
        assert (replay_lengths(self.SEED, self.T, r, None) > cap).any()
        assert stats.steps_simulated == int(replay_lengths(self.SEED, self.T, r, cap).sum())
        assert stats.steps_simulated <= r * cap
        assert stats.walks_aborted == 0

    @pytest.mark.parametrize("t, cap", [(7.3, 14), (7.9, 15)])
    def test_solver_cap_is_floor_two_t(self, p4_graph, p4_whole, t, cap):
        # The solvers' estimate caps each walk at floor(2t) steps, and the
        # cap binds: any other cap would change the steps simulated.
        r = hk.sample_count(self.EPS, p4_graph.n, constant=160.0)
        stats = hk.WalkStats()
        hk.solver_approx_dirhkpr(
            p4_graph, t, np.array([1.0, 0.0, 0.0, 0.0]), p4_whole, self.EPS,
            master_seed=self.SEED, constant=160.0, stats=stats,
        )
        assert (replay_lengths(self.SEED, t, r, None) > cap).any()
        assert stats.steps_simulated == int(replay_lengths(self.SEED, t, r, cap).sum())
        assert stats.walks_aborted == 0

    def test_exit_step_counted(self, p3_graph, p3_subset):
        # S = {1} in P3: every walk of positive length aborts on its first
        # step, which counts as simulated; zero-length walks survive.
        r = hk.sample_count(self.EPS, p3_graph.n)
        cap = math.floor(self.T / self.EPS)
        stats = hk.WalkStats()
        rho = hk.approx_dirhkpr(
            p3_graph, self.T, np.array([1.0]), p3_subset, self.EPS,
            master_seed=self.SEED, stats=stats,
        )
        moved = int((replay_lengths(self.SEED, self.T, r, cap) > 0).sum())
        assert stats.steps_simulated == stats.walks_aborted == moved
        assert round(rho[0] * r) == r - moved

    def test_counters_sum_across_chunks(self, p4_graph, p4_subset, p4_whole, monkeypatch):
        monkeypatch.setattr(walks, "PASS_BUDGET", 7)
        r = hk.sample_count(self.EPS, p4_graph.n)
        assert r > 10 * 7
        cap = math.floor(self.T / self.EPS)
        stats = hk.WalkStats()
        hk.approx_dirhkpr(
            p4_graph, self.T, np.array([1.0, 0.0, 0.0, 0.0]), p4_whole, self.EPS,
            master_seed=self.SEED, stats=stats,
        )
        assert (replay_lengths(self.SEED, self.T, r, None) > cap).any()
        assert (stats.walks_started, stats.walks_aborted) == (r, 0)
        assert stats.steps_simulated == int(replay_lengths(self.SEED, self.T, r, cap).sum())
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

    def test_cdf_tables_follow_the_walks(self, p4_graph, p4_whole, monkeypatch):
        # Uncapped walks at t = 3 in pieces of 6: a piece tabulates F_t(k) for
        # 16 values of k first, where nearly every walk has ended, and doubles
        # from there, instead of UNIFORM_BUDGET // 6 = 682 values at once.
        monkeypatch.setattr(walks, "PASS_BUDGET", 7)
        widths, cdf = [], walks._poisson_cdf
        monkeypatch.setattr(walks, "_poisson_cdf",
                            lambda k0, lgamma, *rest: widths.append(lgamma.size) or cdf(k0, lgamma, *rest))
        r = hk.sample_count(self.EPS, p4_graph.n)
        stats = hk.WalkStats()
        uncapped_dirhkpr(p4_graph, self.T, np.array([1.0, 0.0, 0.0, 0.0]), p4_whole, self.EPS,
                         master_seed=self.SEED, stats=stats)
        assert stats.steps_simulated == int(replay_lengths(self.SEED, self.T, r, None).sum())
        assert widths[0] == 16 and max(widths) <= 32

    def test_length_uniform_equal_to_cdf_finishes(self, p4_graph, p4_whole):
        # At t = 5000, F_t(0) = e^-t underflows to exactly 0.  Walk 0's
        # length uniform is 0 too, so u <= F_t(0) holds and the walk has
        # length 0; a strict u < F would run it to where F first exceeds 0.
        t, seed = 5000.0, seed_with_length_uniform(0.0)
        r = hk.sample_count(self.EPS, p4_graph.n)
        cap = math.floor(t / self.EPS)
        lengths = replay_lengths(seed, t, r, cap)
        assert lengths[0] == 0 and lengths[1:].min() > 4000
        stats = hk.WalkStats()
        hk.approx_dirhkpr(
            p4_graph, t, np.array([1.0, 0.0, 0.0, 0.0]), p4_whole, self.EPS,
            master_seed=seed, stats=stats,
        )
        assert stats.steps_simulated == int(lengths.sum())


    def test_chunks_are_planned_as_they_run(self, p3_graph, p3_subset, monkeypatch):
        # Constant 1e6 gives r = 8.8e6 walks, about 1.4e5 chunks of 63 at
        # budget 64.  The pass stops at the keys of its first chunk, so the
        # memory it has taken by then is that of the chunk plan.
        class Stop(Exception):
            pass

        calls, keys = [], walks._keys

        def first_chunk_keys(*args):
            calls.append(args)
            if len(calls) == 2:
                raise Stop
            return keys(*args)

        monkeypatch.setattr(walks, "PASS_BUDGET", 64)
        monkeypatch.setattr(walks, "_keys", first_chunk_keys)
        tracemalloc.start()
        try:
            with pytest.raises(Stop):
                hk.approx_dirhkpr(p3_graph, 1.0, np.array([1.0]), p3_subset, 0.5,
                                  master_seed=0, constant=1e6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestLazyLengths:
    """The law of the lazily tested lengths on P4 with S the whole graph."""

    EPS = 0.6

    @pytest.mark.parametrize("t, constant, seeds", [(3.0, 160.0, 4), (5000.0, 32.0, 1)])
    def test_mean_steps_match_capped_poisson(self, p4_graph, p4_whole, t, constant, seeds):
        # cap floor(t / eps) is 5 at t = 3; at t = 5000, e^-t underflows.
        cap = math.floor(t / self.EPS)
        stats = hk.WalkStats()
        for seed in range(seeds):
            hk.approx_dirhkpr(
                p4_graph, t, np.array([1.0, 0.0, 0.0, 0.0]), p4_whole, self.EPS,
                master_seed=seed, constant=constant, stats=stats,
            )
        assert stats.walks_aborted == 0
        pmf = [math.exp(k * math.log(t) - t - math.lgamma(k + 1)) for k in range(cap)]
        tail = 1.0 - math.fsum(pmf)  # P(length >= cap)
        mean = math.fsum(k * p for k, p in enumerate(pmf)) + cap * tail
        var = math.fsum(k * k * p for k, p in enumerate(pmf)) + cap * cap * tail - mean**2
        n = stats.walks_started
        assert abs(stats.steps_simulated / n - mean) <= 4.0 * math.sqrt(var / n)

    @pytest.mark.parametrize("t", [20.0, 5000.0])
    def test_uncapped_walk_terminates(self, p4_graph, p4_whole, t):
        # Walk 0 has the largest length uniform, 1 - 2**-53.  At t = 20 the
        # rounded sum of the pmf ends below it (F = 1 - 3.4e-15), so only the
        # underflow rule ends that walk, at the first k > t whose term is 0;
        # at t = 5000, e^-t underflows and the rounded sum ends above 1.
        seed = seed_with_length_uniform(1.0 - 2.0**-53)
        r = hk.sample_count(self.EPS, p4_graph.n)
        cdf = poisson_cdf(t, None)
        stats = hk.WalkStats()
        with deadline(30):
            uncapped_dirhkpr(p4_graph, t, np.array([1.0, 0.0, 0.0, 0.0]), p4_whole, self.EPS,
                             master_seed=seed, stats=stats)
        assert stats.walks_started == r and stats.walks_aborted == 0
        assert stats.steps_simulated <= r * (len(cdf) - 1)
        if t == 20.0:
            assert cdf[-2] < 1.0 - 2.0**-53
            assert stats.steps_simulated == int(replay_lengths(seed, t, r, None).sum())


class TestStreamLayout:
    """Each walk is dirichlet_walk fed the hashed uniforms of its own key."""

    T, EPS, SEED = 3.0, 0.6, 17

    @pytest.mark.parametrize("budget", [None, 7])
    def test_replays_scalar_walks(self, p4_graph, p4_subset, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(walks, "PASS_BUDGET", budget)
        f = np.array([1.0, -0.5])
        stats, ref_stats = hk.WalkStats(), hk.WalkStats()
        rho = hk.approx_dirhkpr(p4_graph, self.T, f, p4_subset, self.EPS,
                                master_seed=self.SEED, stats=stats)
        cap = math.floor(self.T / self.EPS)
        ref = replay_estimate(p4_graph, p4_subset, self.T, f, self.EPS, self.SEED, cap, ref_stats)
        assert np.array_equal(rho, ref)
        assert_same_stats(stats, ref_stats)
        assert 0 < stats.walks_aborted < stats.walks_started

    def test_replays_scalar_walks_on_dolphins(self, dolphins_problem):
        graph, subset, f = dolphins_problem.graph, dolphins_problem.subset, dolphins_problem.b2
        t, eps = 20.0, 0.3
        stats, ref_stats = hk.WalkStats(), hk.WalkStats()
        rho = hk.approx_dirhkpr(graph, t, f, subset, eps, master_seed=5, stats=stats)
        ref = replay_estimate(graph, subset, t, f, eps, 5, math.floor(t / eps), ref_stats)
        assert np.array_equal(rho, ref)
        assert_same_stats(stats, ref_stats)

    # UNIFORM_BUDGET 1 runs one step a block and tabulates F_t one k at a
    # time, as one pass at a time would; 2**20 runs blocks of several steps
    # from the first one.  The default is test_replays_scalar_walks_on_dolphins.
    @pytest.mark.parametrize("uniform_budget", [1, 1 << 20])
    def test_replays_scalar_walks_on_dolphins_in_blocks(self, dolphins_problem, monkeypatch,
                                                        uniform_budget):
        monkeypatch.setattr(walks, "UNIFORM_BUDGET", uniform_budget)
        self.test_replays_scalar_walks_on_dolphins(dolphins_problem)


class TestPassBudget:
    """The chunking of a lockstep pass does not change any output."""

    @pytest.mark.parametrize("samples", [None, 7])
    @pytest.mark.parametrize("budget", [3, 5, 40])
    def test_approx_dirhkpr(self, p4_graph, p4_subset, monkeypatch, budget, samples,
                            uniform_budget=None):
        # These budgets cut the r walks of a (sample, part) row into pieces.
        f = np.array([1.0, -0.5])
        if samples is None:
            def run(stats):
                return hk.approx_dirhkpr(p4_graph, 3.0, f, p4_subset, 0.6, master_seed=4,
                                         stats=stats)
        else:
            ts, seeds = np.linspace(0.5, 4.0, samples), np.arange(samples) + 40
            weights = np.linspace(1.0, 2.0, samples)

            def run(stats):
                return hk.solver_approx_dirhkpr(p4_graph, ts, f, p4_subset, 0.6,
                                                master_seed=seeds, weights=weights, stats=stats)
        stats, small_stats = hk.WalkStats(), hk.WalkStats()
        rho = run(stats)
        monkeypatch.setattr(walks, "PASS_BUDGET", budget)
        if uniform_budget is not None:
            monkeypatch.setattr(walks, "UNIFORM_BUDGET", uniform_budget)
        small = run(small_stats)
        assert np.array_equal(rho, small)
        assert_same_stats(stats, small_stats)

    @pytest.mark.parametrize("uniform_budget", [1, 1 << 20])
    @pytest.mark.parametrize("samples", [None, 7])
    @pytest.mark.parametrize("budget", [3, 400])
    def test_approx_dirhkpr_in_blocks(self, p4_graph, p4_subset, monkeypatch, budget, samples,
                                      uniform_budget):
        # Budget 400 takes three whole rows a chunk, so with several samples
        # a chunk ends inside a sample.
        self.test_approx_dirhkpr(p4_graph, p4_subset, monkeypatch, budget, samples,
                                 uniform_budget)

    @pytest.mark.parametrize("constant", [None, 7])
    def test_greens_solver(self, p4_problem, dolphins_problem, monkeypatch, constant,
                           uniform_budget=None):
        # The sample constant sets the walks per group, and so where the
        # budgets cut the groups: budget 40 cuts P4's rows into pieces, and
        # 4000 takes whole dolphins rows, several to a chunk.
        extra = {} if constant is None else {"constant": constant}
        runs = [
            lambda: hk.greens_solver(p4_problem, 0.25, 0.4, seed=6, **extra),
            lambda: hk.greens_solver(dolphins_problem, 0.4, 0.5, seed=6, **extra),
        ]
        full = [run() for run in runs]
        if uniform_budget is not None:
            monkeypatch.setattr(walks, "UNIFORM_BUDGET", uniform_budget)
        for budget, run, want in zip((40, 4000), runs, full):
            monkeypatch.setattr(walks, "PASS_BUDGET", budget)
            got = run()
            assert np.array_equal(got.x_hat, want.x_hat)
            assert (got.walks_started, got.walk_steps_total, got.walks_aborted) == (
                want.walks_started, want.walk_steps_total, want.walks_aborted)

    @pytest.mark.parametrize("uniform_budget", [1, 1 << 20])
    @pytest.mark.parametrize("constant", [None, 7])
    def test_greens_solver_in_blocks(self, p4_problem, dolphins_problem, monkeypatch, constant,
                                     uniform_budget):
        self.test_greens_solver(p4_problem, dolphins_problem, monkeypatch, constant,
                                uniform_budget)
