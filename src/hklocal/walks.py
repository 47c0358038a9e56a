"""Dirichlet random walks and the Monte-Carlo heat-kernel pagerank estimators.

Walks step to uniform neighbours in the full graph and abort the moment they
leave S; aborted walks deposit nothing.  Every random draw of the library is
a hash of the layout README, "Determinism", defines, chunking included.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from operator import index

import numpy as np

from .graph import Graph, VertexSubset, _preference, _restriction

__all__ = [
    "WalkStats",
    "sample_count",
    "approx_dirhkpr",
    "solver_approx_dirhkpr",
    "DEFAULT_SAMPLE_CONSTANT",
]

log = logging.getLogger(__name__)

DEFAULT_SAMPLE_CONSTANT = 16.0

# Group phases: the positive and negative walk groups, and the solvers'
# schedule draws.
PHASE_POSITIVE = 0
PHASE_NEGATIVE = 1
PHASE_SCHEDULE = 2

# Entries one lockstep chunk holds at once: one per walk, and s per
# (sample, part) row it touches for that row's counts.  A chunk takes
# PASS_BUDGET * r // (r + s) walks, at least one; a larger pass runs as
# consecutive chunks with the same output.
PASS_BUDGET = 1 << 20

# Entries one block holds: a chunk hashes the uniforms of the next
# max(1, UNIFORM_BUDGET // live) steps of its live walks, or tabulates F_t(k)
# for up to max(1, UNIFORM_BUDGET // rows) values of k, at once.  Any value
# gives the same output; blocks spread each numpy call over many steps.
UNIFORM_BUDGET = 1 << 12


def sample_count(epsilon: float, n: int, constant: float = DEFAULT_SAMPLE_CONSTANT) -> int:
    """Walks per signed part, ceil((c / eps^3) ln n); raises ValueError
    unless 0 < eps < 1, c is finite and positive and the count is below 2**63."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not (math.isfinite(constant) and constant > 0.0):
        raise ValueError(f"sample constant must be finite and positive, got {constant}")
    if n < 2:
        return 1
    cube = epsilon**3
    return max(1, math.ceil(_int64(constant / cube * math.log(n) if cube else math.inf,
                                   "walk count r = c / eps^3 ln n")))


def _int64(count: float, name: str) -> float:
    """``count``; raises ValueError unless it is below 2**63, since grid
    indices, samples and walks are counted in int64."""
    if not count < 2**63:
        raise ValueError(f"{name} = {count:.4g} is not finite or does not fit in int64")
    return count


@dataclass
class WalkStats:
    """Instrumentation counters for walk simulation."""

    walks_started: int = 0
    steps_simulated: int = 0
    walks_aborted: int = 0


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


# SplitMix64 (Steele, Lea & Flood 2014): the golden-ratio increment and the
# finaliser's constants.  Every operand is np.uint64 so that the arithmetic
# wraps modulo 2**64; numpy 1.24 turns uint64 combined with a Python int into
# float64.
_PHI = np.uint64(0x9E3779B97F4A7C15)
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = (np.uint64(k) for k in (11, 27, 30, 31))
# Increments of a walk's start and length uniforms over its key: odd, and
# apart from k * phi for every k below 2**40, so they never meet a step's.
_START = np.uint64(0xD1B54A32D192ED03)
_LENGTH = np.uint64(0x8CB92BA72F3D8DD7)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser, elementwise on a uint64 array."""
    z = (z ^ (z >> _S30)) * _M1
    z = (z ^ (z >> _S27)) * _M2
    return z ^ (z >> _S31)


def _uniform(z: np.ndarray) -> np.ndarray:
    """Uniforms on [0, 1) from the top 53 bits of mix(z)."""
    return (_mix(z) >> _S11) * 2.0**-53


def _keys(groups: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Keys mix(g + j * phi), a row per group key g and a column per member j;
    the group keys of seeds are the keys of their phases in mix(seed)."""
    return _mix(groups[:, None] + members * _PHI)


def _seeds(master_seed) -> np.ndarray:
    """The 1-D uint64 array of one seed or many, each an integer taken
    modulo 2**64 through operator.index, so a float or a string raises
    TypeError."""
    seeds = np.ravel(np.asarray(master_seed, dtype=object))
    return np.array([index(v) % 2**64 for v in seeds], dtype=np.uint64)


def _schedule_draws(master_seed: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Time uniforms and child seeds of a solve's r samples (README,
    "Determinism")."""
    seed = _seeds(master_seed)
    group = _keys(_mix(seed), np.array([PHASE_SCHEDULE], dtype=np.uint64))[0]
    keys = _keys(group, np.arange(r, dtype=np.uint64))[0]
    return _uniform(keys + _START), keys


def _poisson_cdf(k0, lgamma, t, log_t, cap, carry):
    """F_t(k) of every row, k-major, for k = k0, k0 + 1, ... (one per entry of
    ``lgamma``, lgamma(k + 1)), summed on from each row's ``carry``; returns
    the table, set to 1 from the first underflow past the mean or the cap,
    and the sums to carry on."""
    ks = np.arange(k0, k0 + lgamma.size)[:, None]
    pmf = np.exp(ks * log_t - t - lgamma[:, None])
    forced = np.logical_or.accumulate(((pmf == 0.0) & (ks > t)) | (ks >= cap))
    pmf[0] += carry
    table = np.cumsum(pmf, axis=0)
    carry = table[-1].copy()
    table[forced] = 1.0
    return table, carry


def _lockstep(adjacency, s, parts, ts, seeds, weights, r, caps):
    """Sum of weights[i] * rho_i over the samples, all walks in lockstep, in
    chunks of at most about PASS_BUDGET entries; the output does not depend
    on the chunking.  Returns the sum, the steps taken, the walks aborted
    and the step blocks run.
    """
    ptr, degrees, nbrs = adjacency
    nparts, m = len(parts), ts.size
    nrows, per_sample = m * nparts, nparts * r
    # One group key per (sample, part) row, and each row's t, ln t and cap.
    phases = np.array([phase for phase, *_ in parts], dtype=np.uint64)
    row_keys = _keys(_mix(seeds), phases).ravel()
    row_t = np.repeat(ts, nparts)
    row_log_t = np.log(row_t)
    row_cap = np.repeat(caps, nparts)
    # Chunks of `per` whole rows, or of `piece` walks of one row, each
    # planned as it runs.
    width = max(1, PASS_BUDGET * r // (r + s))
    per, piece = max(1, width // r), min(width, r)
    chunks = ((lo, min(lo + per, nrows), j0, min(j0 + piece, r))
              for lo in range(0, nrows, per) for j0 in range(0, r, piece))
    acc = np.zeros(s, dtype=np.float64)
    pending = 0  # counts of sample `first` from earlier chunks
    steps = aborted = blocks = 0
    lgamma = np.empty(0)  # lgamma(k + 1) for the k tabulated so far
    for lo, hi, j0, j1 in chunks:
        a, b = lo * r + j0, (hi - 1) * r + j1  # the chunk's flat (sample, part, walk) range
        first, stop = a // per_sample, b // per_sample  # samples first..stop-1 end by b
        key = _keys(row_keys[lo:hi], np.arange(j0, j1, dtype=np.uint64))
        cur = np.empty(key.shape, dtype=np.int64)
        for p, (_, cdf, support, _) in enumerate(parts):
            part = slice((p - lo) % nparts, None, nparts)  # the chunk's rows of part p
            picks = np.searchsorted(cdf, _uniform(key[part] + _START), side="right")
            cur[part] = support[np.minimum(picks, support.size - 1)]
        u_len = _uniform(key + _LENGTH).ravel()
        key, cur = key.ravel(), cur.ravel()
        row = np.repeat(np.arange(hi - lo), j1 - j0)
        t, log_t, cap = row_t[lo:hi], row_log_t[lo:hi], row_cap[lo:hi]
        k_end = cap.max() + 1  # every walk has finished by then (inf uncapped)
        widest = int(min(max(1, UNIFORM_BUDGET // (hi - lo)), k_end))
        offsets = np.arange(widest, dtype=np.uint64)[:, None] * _PHI
        # Tables reach 4 standard deviations past the largest t, then double.
        columns = min(widest, max(16, math.ceil(t.max() + 4.0 * math.sqrt(t.max()))))
        rows, verts, carry, k, table_end = [], [], 0.0, 0, 0
        while cur.size:
            if k == table_end:
                table_start, table_end = k, int(min(k + columns, k_end))
                columns = min(2 * columns, widest)
                if table_end > lgamma.size:
                    more = range(lgamma.size + 1, table_end + 1)
                    lgamma = np.append(lgamma, [math.lgamma(i) for i in more])
                table, carry = _poisson_cdf(k, lgamma[k:table_end], t, log_t, cap, carry)
            # The next span steps of every live walk; step k of the walk with
            # key w uses the uniform of w + k * phi.  A walk still in S after k
            # steps has length k once its length uniform is at most F_t(k), and
            # then for every later k: it takes `finish` steps of the block.
            span = min(max(1, UNIFORM_BUDGET // cur.size), table_end - k)
            f_t = table[k - table_start:k - table_start + span].take(row, axis=1)
            finish = (u_len > f_t).sum(axis=0, dtype=np.min_scalar_type(span))
            uniforms = _uniform(key + offsets[:span])
            for i in range(span):
                # Walks that finished or aborted keep their vertex (-1 once out).
                moving = finish > i
                if i:
                    moving &= cur >= 0
                n = int(np.count_nonzero(moving))
                if not n:
                    break
                steps += n
                nxt = nbrs[ptr[cur] + (uniforms[i] * degrees[cur]).astype(np.int64)]
                cur = nxt if n == cur.size else np.where(moving, nxt, cur)
            inside = cur >= 0
            fin = np.flatnonzero(inside & (finish < span))
            rows.append(row[fin])
            verts.append(cur[fin])
            inside[fin] = False
            live = np.flatnonzero(inside)
            aborted += cur.size - live.size - fin.size
            row, cur, u_len = row[live], cur[live], u_len[live]
            key = key[live] + np.uint64(span * int(_PHI) % 2**64)
            k += span
            blocks += 1
        rows, verts = np.concatenate(rows) + (lo - first * nparts), np.concatenate(verts)
        # Samples before `stop` are complete: turn their counts into
        # weighted pagerank estimates and add them in sample order.
        touched = (b - 1) // per_sample + 1 - first
        counts = np.bincount(rows * s + verts, minlength=touched * nparts * s).reshape(
            touched, nparts, s
        )
        counts[0] += pending
        rho = np.zeros((stop - first, s), dtype=np.float64)
        for p, (_, _, _, scale) in enumerate(parts):
            # Surviving walks each deposit the signed L1 mass of their part / r.
            rho += counts[: stop - first, p] * scale
        for weight, sample in zip(weights[first:stop], rho):
            acc += weight * sample
        pending = counts[stop - first] if stop - first < touched else 0
    return acc, steps, aborted, blocks


def _mc_dirhkpr(graph, t, caps, f, subset, r, master_seed, weights, stats):
    """Both estimators, as :func:`solver_approx_dirhkpr` with r walks per
    signed part and caps[i] steps per walk of sample i (inf for no cap);
    raises TypeError on a seed that is not an integer and ValueError on bad
    t, seeds, weights or f."""
    start = time.perf_counter()
    ts = np.atleast_1d(np.asarray(t, dtype=np.float64))
    seeds = _seeds(master_seed)
    if weights is None:
        weights = np.ones(ts.size)
    weights = np.atleast_1d(np.asarray(weights, dtype=np.float64))
    if ts.ndim != 1 or not ts.size == seeds.size == weights.size:
        raise ValueError("t, master_seed and weights must have one entry per sample")
    if not np.all(np.isfinite(ts) & (ts > 0)):
        raise ValueError(f"t must be positive and finite, got {t}")
    f = _preference(f, subset.size)
    # The entrywise split f = f_plus - f_minus, one walk group per nonzero part.
    parts = []
    for phase, part, sign in ((PHASE_POSITIVE, np.where(f > 0.0, f, 0.0), 1.0),
                              (PHASE_NEGATIVE, np.where(f < 0.0, -f, 0.0), -1.0)):
        norm = float(part.sum())
        if norm > 0.0:
            support = np.flatnonzero(part)
            parts.append((phase, np.cumsum(part[support]) / norm, support, sign * norm / r))
    # Walks run on S's rows of the adjacency, in local indices: slot k of
    # member i holds its neighbour's local index, or -1 outside S.  A step's
    # slot floor(u * deg) needs no clamp: u <= 1 - 2**-53 and deg < 2**53.
    # Restricting first refuses a subset of another graph's size even at f = 0.
    sl, _ = _restriction(graph, subset)
    if not parts:
        return np.zeros(subset.size)
    adjacency = (sl.starts, sl.degrees.astype(np.float64), sl.cols)
    acc, steps, aborted, blocks = _lockstep(
        adjacency, subset.size, parts, ts, seeds, weights, r, caps
    )
    started, seconds = r * len(parts) * ts.size, time.perf_counter() - start
    if stats is not None:
        stats.walks_started += started
        stats.steps_simulated += steps
        stats.walks_aborted += aborted
    log.info("%d walks started, %d steps, %d aborted, %d blocks in %.4f s (%.4g steps/s)",
             started, steps, aborted, blocks, seconds, steps / max(seconds, 1e-9))
    return acc


def approx_dirhkpr(
    graph: Graph,
    t: float,
    f: np.ndarray,
    subset: VertexSubset,
    epsilon: float,
    master_seed: int,
    workers: int = 1,
    constant: float = DEFAULT_SAMPLE_CONSTANT,
    stats: WalkStats | None = None,
) -> np.ndarray:
    """Monte-Carlo Dirichlet heat kernel pagerank of f at t, each walk capped
    at floor(t / epsilon) steps.

    Per signed part of f, r = :func:`sample_count` walks of Poisson(t) length
    start from the normalised part, and each survivor deposits the part's
    signed L1 mass / r at its end vertex; f = 0 starts no walk and gives
    zeros.  ``master_seed``, a Python or numpy integer of any sign, is taken
    modulo 2**64, and a fixed seed gives bit-identical output; a float or a
    string raises TypeError.  ``workers`` must be at least 1 and does not
    change the output.  ``stats`` gains the walks started, the steps and
    the walks that left S.  Raises ValueError unless t and ``master_seed``
    are scalars, t is positive and finite and f is finite with shape (s,),
    and as :func:`sample_count`.
    """
    if np.ndim(t) or np.ndim(master_seed):
        raise ValueError("approx_dirhkpr takes one t and one master_seed; "
                         "solver_approx_dirhkpr takes arrays of them")
    _check_workers(workers)
    r = sample_count(epsilon, graph.n, constant)  # checks epsilon and the constant
    caps = np.floor(np.asarray(t, dtype=np.float64) / epsilon)
    return _mc_dirhkpr(graph, t, caps, f, subset, r, master_seed, None, stats)


def solver_approx_dirhkpr(
    graph: Graph,
    t: float | np.ndarray,
    f: np.ndarray,
    subset: VertexSubset,
    epsilon: float,
    master_seed: int | np.ndarray,
    constant: float = DEFAULT_SAMPLE_CONSTANT,
    stats: WalkStats | None = None,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """:func:`approx_dirhkpr` with walk cap floor(2t), for many samples: with
    ``t`` and ``master_seed`` 1-D arrays and ``weights`` of their length it
    returns sum_i weights[i] rho_i, rho_i exactly the one-sample call at
    (t[i], master_seed[i]).  Seeds are integers, as there; a float or a
    string raises TypeError.  The caller keeps epsilon >= the schedule's
    gamma.
    """
    r = sample_count(epsilon, graph.n, constant)
    caps = np.floor(2.0 * np.asarray(t, dtype=np.float64))
    return _mc_dirhkpr(graph, t, caps, f, subset, r, master_seed, weights, stats)
