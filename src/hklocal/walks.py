"""Dirichlet random walks and Monte-Carlo heat-kernel pagerank estimators.

Walks step to uniformly chosen neighbors in the full graph and are aborted
the moment they step outside the subset; aborted walks contribute nothing.
The estimators advance all walks of one signed phase together as numpy
arrays, in blocks of ``WALK_BLOCK`` walks; block b of a phase draws from the
counter-based substream keyed by (master seed, phase, b), and blocks run in
index order.  Output therefore depends only on the seed.  The ``workers``
arguments are accepted and must be at least 1, but they do not change the
output or how it is computed.  :func:`dirichlet_walk` is the one-walk
reference the lockstep engine is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .graph import Graph, VertexSubset

__all__ = [
    "WalkConfig",
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

# Walks advanced together per block, each block on its own substream; bounds
# the memory of one phase at a few arrays of this length.
WALK_BLOCK = 1 << 16

CapMode = Literal["eps", "two_t", "none"]


def substream(master_seed: int, phase: int, index: int) -> np.random.Generator:
    """Independent counter-based stream for one walk block or solver sample."""
    key = np.array([master_seed & 0xFFFFFFFFFFFFFFFF, (phase << 56) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_count(epsilon: float, n: int, constant: float = DEFAULT_SAMPLE_CONSTANT) -> int:
    """Number of walks per signed part: ceil((c / eps^3) * ln n)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
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
class WalkConfig:
    """Resolved sampling parameters for one estimator call."""

    t: float
    epsilon: float
    cap_mode: CapMode
    cap: int | None
    r: int
    master_seed: int

    @classmethod
    def from_params(
        cls,
        t: float,
        epsilon: float,
        n: int,
        master_seed: int,
        cap_mode: CapMode = "eps",
        constant: float = DEFAULT_SAMPLE_CONSTANT,
    ) -> "WalkConfig":
        if t <= 0:
            raise ValueError(f"t must be positive, got {t}")
        return cls(
            t=float(t),
            epsilon=float(epsilon),
            cap_mode=cap_mode,
            cap=walk_cap(t, epsilon, cap_mode),
            r=sample_count(epsilon, n, constant),
            master_seed=int(master_seed),
        )


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


def _run_phase(
    graph: Graph,
    subset: VertexSubset,
    t: float,
    cap: int | None,
    part: np.ndarray,
    norm: float,
    r: int,
    master_seed: int,
    phase: int,
    stats: WalkStats | None,
) -> np.ndarray:
    """All r walks of one signed phase in lockstep; returns terminal-vertex counts.

    Walks run in blocks of WALK_BLOCK, block b drawing from the substream
    (master_seed, phase, b): first every walk's start, then every walk's
    Poisson length (capped), then one uniform neighbor index per live walk
    and step.  After each step the walks that left S or reached their
    length drop out.
    """
    support_local = np.flatnonzero(part)
    cdf = np.cumsum(part[support_local]) / norm
    starts = subset.members[support_local]
    indptr, indices, degrees, mask = graph.indptr, graph.indices, graph.degrees, subset.mask
    counts = np.zeros(subset.size, dtype=np.int64)
    steps = aborted = 0
    for block, first in enumerate(range(0, r, WALK_BLOCK)):
        size = min(WALK_BLOCK, r - first)
        rng = substream(master_seed, phase, block)
        picks = np.searchsorted(cdf, rng.random(size), side="right")
        cur = starts[np.minimum(picks, len(starts) - 1)]
        k = rng.poisson(t, size)
        if cap is not None:
            k = np.minimum(k, cap)
        ends = [cur[k == 0]]
        live = k > 0
        cur, k = cur[live], k[live]
        step = 0
        while cur.size:
            nxt = indices[indptr[cur] + rng.integers(0, degrees[cur])]
            inside = mask[nxt]
            steps += cur.size
            aborted += cur.size - int(np.count_nonzero(inside))
            step += 1
            ends.append(nxt[inside & (k == step)])
            live = inside & (k > step)
            cur, k = nxt[live], k[live]
        counts += np.bincount(subset.local_of[np.concatenate(ends)], minlength=subset.size)
    if stats is not None:
        stats.walks_started += r
        stats.steps_simulated += steps
        stats.walks_aborted += aborted
    return counts


def _mc_dirhkpr(
    graph: Graph,
    t: float,
    f: np.ndarray,
    subset: VertexSubset,
    epsilon: float,
    master_seed: int,
    cap_mode: CapMode,
    workers: int,
    constant: float,
    stats: WalkStats | None,
) -> np.ndarray:
    _check_workers(workers)
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (subset.size,):
        raise ValueError(f"preference vector has shape {f.shape}, expected ({subset.size},)")
    split = split_signed(f)
    if split.norm_plus == 0.0 and split.norm_minus == 0.0:
        raise ValueError("preference vector is identically zero")
    config = WalkConfig.from_params(t, epsilon, graph.n, master_seed, cap_mode, constant)
    rho = np.zeros(subset.size, dtype=np.float64)
    for phase, part, norm, sign in (
        (PHASE_POSITIVE, split.f_plus, split.norm_plus, 1.0),
        (PHASE_NEGATIVE, split.f_minus, split.norm_minus, -1.0),
    ):
        if norm == 0.0:
            continue
        counts = _run_phase(
            graph, subset, t, config.cap, part, norm, config.r, master_seed, phase, stats
        )
        # Surviving walks each deposit the signed L1 mass of their part.
        rho += counts * (sign * norm / config.r)
    return rho


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
    vertex, then divides by r.  The r walks of a part advance in lockstep,
    in blocks of ``WALK_BLOCK`` walks, each block on the substream keyed by
    (master_seed, phase, block).  The zero vector is a valid output when
    every walk aborts.

    Parameters
    ----------
    epsilon : accuracy/confidence knob in (0, 1).
    master_seed : 64-bit stream key; a fixed seed gives bit-identical output.
    workers : accepted for compatibility and must be at least 1; walks run
        serially and the value does not change the output.
    stats : counters to add to: r walks started per part, one step per live
        walk and step, and every walk that left S as aborted.
    cap_mode : test hook; "none" removes the length cap.
    """
    return _mc_dirhkpr(
        graph, t, f, subset, epsilon, master_seed, cap_mode, workers, constant, stats
    )


def solver_approx_dirhkpr(
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
    """Solver variant of :func:`approx_dirhkpr` with walk cap floor(2t).

    Intended for t drawn from a solver schedule; the caller is responsible
    for keeping epsilon at or above the schedule's gamma.
    """
    return _mc_dirhkpr(
        graph, t, f, subset, epsilon, master_seed, "two_t", workers, constant, stats
    )
