"""Dirichlet random walks and Monte-Carlo heat-kernel pagerank estimators.

Walks step to uniformly chosen neighbors in the full graph and are aborted
the moment they step outside the subset; aborted walks contribute nothing.
One lockstep engine runs every estimate.  A walk group is one sample, one
signed part and one block of at most ``WALK_BLOCK`` walks; it draws from the
counter-based substream keyed by (the sample's seed, part, block): first
every walk's start, then every walk's capped Poisson length, then one uint64
group key.  Step uniforms are hashed from that key (mix is the SplitMix64
finaliser, phi = 0x9E3779B97F4A7C15, arithmetic modulo 2**64): walk j has
the key w = mix(key + j * phi), and its step k the uniform
u = (mix(w + k * phi) >> 11) * 2**-53, which moves it to neighbor number
floor(u * deg), clamped to deg - 1, in adjacency order.  The walks of all
groups of a call advance together as numpy arrays, in chunks of whole groups
of at most ``PASS_BUDGET`` entries, and surviving walks are counted per
group as integers.  A sample's estimate therefore depends only on its own
seed and time, not on the other samples of the call or on the chunking.
The ``workers`` arguments are accepted and must be at least 1, but they do
not change the output or how it is computed.  :func:`dirichlet_walk` is the
one-walk reference the engine is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .graph import Graph, VertexSubset, _restrict

__all__ = [
    "SignedSplit",
    "WalkStats",
    "substream",
    "sample_count",
    "walk_cap",
    "split_signed",
    "sample_poisson",
    "dirichlet_walk",
    "approx_dirhkpr",
    "solver_approx_dirhkpr",
    "DEFAULT_SAMPLE_CONSTANT",
]

DEFAULT_SAMPLE_CONSTANT = 16.0

# Substream phases.  Positive/negative walk blocks are independent of each
# other and of the solver-level draws.
PHASE_POSITIVE = 0
PHASE_NEGATIVE = 1
PHASE_SCHEDULE = 2

# Walks per group: each (sample, signed part) splits its walks into blocks
# of this many, block b drawing from its own substream.
WALK_BLOCK = 1 << 16

# Entries one lockstep chunk holds at once: one per walk and one per subset
# vertex for each group's counts.  A larger pass runs as consecutive chunks
# of whole groups with the same output; the next group (WALK_BLOCK walks) is
# held besides.  A chunk always takes at least one group, so no walk is cut.
PASS_BUDGET = 1 << 20

CapMode = Literal["eps", "two_t", "none"]


def substream(master_seed: int, phase: int, index: int) -> np.random.Generator:
    """Independent counter-based stream for one walk block or solver sample."""
    key = np.array([master_seed & 0xFFFFFFFFFFFFFFFF, (phase << 56) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_count(epsilon: float, n: int, constant: float = DEFAULT_SAMPLE_CONSTANT) -> int:
    """Number of walks per signed part: ceil((c / eps^3) * ln n)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not (math.isfinite(constant) and constant > 0.0):
        raise ValueError(f"sample constant must be finite and positive, got {constant}")
    if n < 2:
        return 1
    return max(1, math.ceil(constant / epsilon**3 * math.log(n)))


def walk_cap(t: float, epsilon: float, mode: CapMode) -> int | None:
    """Walk-length cap: floor(t/eps), floor(2t), or None (uncapped)."""
    if mode == "eps":
        return int(math.floor(t / epsilon))
    if mode == "two_t":
        return int(math.floor(2.0 * t))
    if mode == "none":
        return None
    raise ValueError(f"unknown cap mode {mode!r}")


@dataclass(frozen=True)
class SignedSplit:
    """Entrywise split f = f_plus - f_minus with disjoint supports."""

    f_plus: np.ndarray
    f_minus: np.ndarray
    norm_plus: float
    norm_minus: float


def split_signed(f: np.ndarray) -> SignedSplit:
    f = np.asarray(f, dtype=np.float64)
    plus = np.where(f > 0.0, f, 0.0)
    minus = np.where(f < 0.0, -f, 0.0)
    return SignedSplit(
        f_plus=plus,
        f_minus=minus,
        norm_plus=float(plus.sum()),
        norm_minus=float(minus.sum()),
    )


@dataclass
class WalkStats:
    """Instrumentation counters for walk simulation."""

    walks_started: int = 0
    steps_simulated: int = 0
    walks_aborted: int = 0


def sample_poisson(t: float, rng: np.random.Generator) -> int:
    """Draw a Poisson(t) walk length; t = 0 is the degenerate point mass at 0."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return int(rng.poisson(t))


def dirichlet_walk(
    graph: Graph,
    subset: VertexSubset,
    start: int,
    k: int,
    rng: np.random.Generator,
    stats: WalkStats | None = None,
) -> int | None:
    """Run k uniform-neighbor steps from ``start``; abort on leaving S.

    Returns the terminal vertex if every visited vertex stays in S, else
    None.  k = 0 returns the start vertex.  ``start`` must belong to S.
    """
    if start not in subset:
        raise ValueError(f"walk start {start} is not in the subset")
    indptr = graph.indptr
    indices = graph.indices
    mask = subset.mask
    if stats is not None:
        stats.walks_started += 1
    cur = int(start)
    for _ in range(k):
        lo = indptr[cur]
        nxt = int(indices[lo + rng.integers(indptr[cur + 1] - lo)])
        if stats is not None:
            stats.steps_simulated += 1
        if not mask[nxt]:
            if stats is not None:
                stats.walks_aborted += 1
            return None
        cur = nxt
    return cur


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


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser, elementwise on a uint64 array."""
    z = (z ^ (z >> _S30)) * _M1
    z = (z ^ (z >> _S27)) * _M2
    return z ^ (z >> _S31)


def _groups(parts, ts, seeds, r, epsilon, cap_mode):
    """Open the walk groups in order (sample, signed part, block); yield each
    group's walk rows (sample * parts + part), starts, capped lengths and keys."""
    for i, (t, seed) in enumerate(zip(ts, seeds)):
        cap = walk_cap(float(t), epsilon, cap_mode)
        for p, (phase, cdf, support, _) in enumerate(parts):
            for block, first in enumerate(range(0, r, WALK_BLOCK)):
                size = min(WALK_BLOCK, r - first)
                rng = substream(seed, phase, block)
                picks = np.searchsorted(cdf, rng.random(size), side="right")
                k = rng.poisson(t, size)
                if cap is not None:
                    k = np.minimum(k, cap)
                key = rng.integers(2**64, dtype=np.uint64)
                yield (np.full(size, i * len(parts) + p), support[np.minimum(picks, support.size - 1)],
                       k, _mix(key + np.arange(size, dtype=np.uint64) * _PHI))


def _lockstep(adjacency, s, parts, ts, seeds, weights, r, epsilon, cap_mode, stats):
    """Sum of weights[i] * rho_i over the samples, all walks in lockstep.

    A chunk takes whole walk groups while their entries (one per walk, s per
    group for its counts) fit in PASS_BUDGET, and at least one group, so no
    walk is ever cut and every live walk of a chunk is at the same step.
    Terminal-vertex counts are summed per (sample, part) as integers, so the
    output depends neither on the chunking nor on the other samples.
    """
    ptr, degrees, nbrs = adjacency
    nparts, m = len(parts), ts.size
    acc = np.zeros(s, dtype=np.float64)
    pending = np.zeros((nparts, s), dtype=np.int64)  # counts of sample `first` so far
    first = steps = aborted = 0
    groups = _groups(parts, ts, seeds, r, epsilon, cap_mode)
    group = next(groups, None)
    while group is not None:
        chunk, room = [], PASS_BUDGET
        while group is not None and (not chunk or group[0].size + s <= room):
            chunk.append(group)
            room -= group[0].size + s
            group = next(groups, None)
        row, cur, length, key = (np.concatenate(a) for a in zip(*chunk))
        rows, verts, step = [], [], 0
        inside = np.ones(cur.size, dtype=bool)
        while cur.size:
            # Walks still in S after `step` steps finish at length `step`.
            fin = inside & (length == step)
            rows.append(row[fin])
            verts.append(cur[fin])
            live = np.flatnonzero(inside ^ fin)
            row, cur, length, key = row[live], cur[live], length[live], key[live]
            # A walk's key advances by phi per step, so step k of the walk
            # with key w uses the uniform (mix(w + k * phi) >> 11) * 2**-53.
            u = (_mix(key) >> _S11) * 2.0**-53
            key += _PHI
            deg = degrees[cur]
            cur = nbrs[ptr[cur] + np.minimum((u * deg).astype(np.int64), deg - 1)]
            inside = cur >= 0
            steps += cur.size
            aborted += cur.size - int(np.count_nonzero(inside))
            step += 1
        rows, verts = np.concatenate(rows), np.concatenate(verts)
        # Samples before the next group's are complete: turn their counts
        # into weighted pagerank estimates and add them in sample order.
        stop = m if group is None else int(group[0][0]) // nparts
        touched = min(stop + 1, m) - first
        counts = np.bincount(
            (rows - first * nparts) * s + verts, minlength=touched * nparts * s
        ).reshape(touched, nparts, s)
        counts[0] += pending
        rho = np.zeros((stop - first, s), dtype=np.float64)
        for p, (_, _, _, scale) in enumerate(parts):
            # Surviving walks each deposit the signed L1 mass of their part / r.
            rho += counts[: stop - first, p] * scale
        for weight, sample in zip(weights[first:stop], rho):
            acc += weight * sample
        pending = counts[stop - first] if stop < m else pending
        first = stop
    if stats is not None:
        stats.walks_started += r * nparts * m
        stats.steps_simulated += steps
        stats.walks_aborted += aborted
    return acc


def _mc_dirhkpr(
    graph: Graph,
    t,
    f: np.ndarray,
    subset: VertexSubset,
    epsilon: float,
    master_seed,
    weights,
    cap_mode: CapMode,
    workers: int,
    constant: float,
    stats: WalkStats | None,
) -> np.ndarray:
    _check_workers(workers)
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    ts = np.atleast_1d(np.asarray(t, dtype=np.float64))
    seeds = [int(v) for v in np.ravel(np.asarray(master_seed, dtype=object))]
    if weights is None:
        weights = np.ones(ts.size)
    weights = np.atleast_1d(np.asarray(weights, dtype=np.float64))
    if ts.ndim != 1 or not ts.size == len(seeds) == weights.size:
        raise ValueError("t, master_seed and weights must have one entry per sample")
    if not np.all(np.isfinite(ts) & (ts > 0)):
        raise ValueError(f"t must be positive and finite, got {t}")
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (subset.size,):
        raise ValueError(f"preference vector has shape {f.shape}, expected ({subset.size},)")
    split = split_signed(f)
    if split.norm_plus == 0.0 and split.norm_minus == 0.0:
        raise ValueError("preference vector is identically zero")
    r = sample_count(epsilon, graph.n, constant)
    parts = []
    for phase, part, norm, sign in (
        (PHASE_POSITIVE, split.f_plus, split.norm_plus, 1.0),
        (PHASE_NEGATIVE, split.f_minus, split.norm_minus, -1.0),
    ):
        if norm > 0.0:
            support = np.flatnonzero(part)
            parts.append((phase, np.cumsum(part[support]) / norm, support, sign * norm / r))
    # Walks run on S's rows of the adjacency, in local indices: slot k of
    # member i holds its neighbour's local index, or -1 outside S.
    degrees = graph.degrees[subset.members]
    adjacency = (np.cumsum(degrees) - degrees, degrees, _restrict(graph, subset).cols)
    return _lockstep(adjacency, subset.size, parts, ts, seeds, weights, r, epsilon, cap_mode, stats)


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
    cap_mode: CapMode = "eps",
) -> np.ndarray:
    """Monte-Carlo Dirichlet heat kernel pagerank with walk cap floor(t/eps).

    For each signed part of f, runs r = ceil((c/eps^3) ln n) Poisson-length
    Dirichlet walks started from the normalized part and deposits the part's
    L1 mass (negated for the negative part) at each surviving terminal
    vertex, then divides by r.  The r walks of a part run in blocks of
    ``WALK_BLOCK`` walks, block b on the substream keyed by
    (master_seed, part, b), and all of them advance in lockstep.  The zero
    vector is a valid output when every walk aborts.

    Parameters
    ----------
    t : positive and finite.
    epsilon : accuracy/confidence knob in (0, 1).
    master_seed : 64-bit stream key; a fixed seed gives bit-identical output.
    workers : accepted for compatibility and must be at least 1; walks run
        serially and the value does not change the output.
    stats : counters to add to: r walks started per part, one step per live
        walk and step, and every walk that left S as aborted.
    cap_mode : test hook; "none" removes the length cap.
    """
    return _mc_dirhkpr(
        graph, t, f, subset, epsilon, master_seed, None, cap_mode, workers, constant, stats
    )


def solver_approx_dirhkpr(
    graph: Graph,
    t: float | np.ndarray,
    f: np.ndarray,
    subset: VertexSubset,
    epsilon: float,
    master_seed: int | np.ndarray,
    workers: int = 1,
    constant: float = DEFAULT_SAMPLE_CONSTANT,
    stats: WalkStats | None = None,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Solver variant of :func:`approx_dirhkpr` with walk cap floor(2t).

    ``t`` and ``master_seed`` may also be 1-D arrays, one entry per sample,
    with ``weights`` of the same length; the call then returns
    sum_i weights[i] * rho_i, where rho_i is what the one-sample call with
    t[i] and master_seed[i] returns, and the walks of every sample advance
    together in one lockstep pass.  The caller is responsible for keeping
    epsilon at or above the schedule's gamma.
    """
    return _mc_dirhkpr(
        graph, t, f, subset, epsilon, master_seed, weights, "two_t", workers, constant, stats
    )
