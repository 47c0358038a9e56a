"""Dirichlet random walks and Monte-Carlo heat-kernel pagerank estimators.

Walks step to uniformly chosen neighbors in the full graph and are aborted
the moment they step outside the subset; aborted walks contribute nothing.
One lockstep engine runs every estimate.  A walk group is one sample, one
signed part and one block of at most ``WALK_BLOCK`` walks; it draws from the
counter-based substream keyed by (the sample's seed, part, block): first
every walk's start, then every walk's capped Poisson length, then, in walk
order, one uniform u per step of each walk's length (a walk that aborts
early leaves the rest of its uniforms unused).  A step from a vertex of
degree deg moves to its neighbor number floor(u * deg), clamped to deg - 1,
in adjacency order.  The walks of all groups of a call advance together as
numpy arrays, in chunks of at most ``PASS_BUDGET`` entries, and surviving
walks are counted per group as integers.  A sample's estimate therefore
depends only on its own seed and time, not on the other samples of the call
or on the chunking.  The ``workers`` arguments are accepted and must be at
least 1, but they do not change the output or how it is computed.
:func:`dirichlet_walk` is the one-walk reference the engine is tested
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .graph import Graph, VertexSubset, _restrict

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

# Walks per group: each (sample, signed part) splits its walks into blocks
# of this many, block b drawing from its own substream.
WALK_BLOCK = 1 << 16

# Entries one lockstep pass holds at once: one per walk, one per pre-drawn
# step uniform and one per subset vertex for each group's counts.  A larger
# pass runs as consecutive chunks with the same output; the group being
# opened (WALK_BLOCK starts and lengths) is held besides.
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
        if not (math.isfinite(t) and t > 0):
            raise ValueError(f"t must be positive and finite, got {t}")
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


@dataclass
class _Block:
    """One walk group, a (sample, signed part, block), while its walks run.

    After the group's start uniforms and Poisson lengths, walk i's step
    uniforms are stream positions offs[i]:offs[i + 1].  ``walk`` is the first
    walk not yet finished; a chunk can cut it after ``done`` steps, leaving
    it at local vertex ``vertex`` (-1 once it left S).
    """

    rng: np.random.Generator
    row: int
    starts: np.ndarray
    offs: np.ndarray
    held: np.ndarray  # offs[i] + i: entries a chunk holds for walks before i
    walk: int = 0
    done: int = 0
    vertex: int = -1

    @property
    def finished(self) -> bool:
        return self.walk == self.starts.size

    def take(self, room: int, buf: np.ndarray, base: int):
        """The next walks that fit in ``room`` entries, the last one possibly
        cut short; their step uniforms are drawn into buf[base:]."""
        w, done, offs, held = self.walk, self.done, self.offs, self.held
        first = offs[w] + done
        # Walks w..e-1 take held[e] - held[w] - done entries; take all that fit.
        e = int(np.searchsorted(held, held[w] + done + room, side="right")) - 1
        left = room - int(held[e] - held[w] - done)
        cut = e < self.starts.size and left >= 2
        last = offs[e] + left - 1 if cut else offs[e]
        idx = np.arange(w, e + cut)
        cur = self.starts[idx]
        if done:
            cur[0] = self.vertex
        pos = base + np.maximum(offs[idx] - first, 0)
        end = base + np.minimum(offs[idx + 1], last) - first
        row = np.full(idx.size, self.row)
        if cut:
            row[-1] = -1  # deposits nowhere; its vertex carries to the next chunk
        self.walk, self.done = e, int(last - offs[e])
        n = int(last - first)
        self.rng.random(out=buf[base:base + n])
        return cur, pos, end, row, n

    def skip_cut_walk(self) -> None:
        """The cut walk left S: draw past the rest of its uniforms."""
        rest = int(self.offs[self.walk + 1] - self.offs[self.walk]) - self.done
        for skipped in range(0, rest, PASS_BUDGET):
            self.rng.random(min(PASS_BUDGET, rest - skipped))
        self.walk, self.done = self.walk + 1, 0


def _blocks(parts, ts, seeds, r, epsilon, cap_mode):
    """Open the walk groups in order: sample, then signed part, then block."""
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
                offs = np.zeros(size + 1, dtype=np.int64)
                np.cumsum(k, out=offs[1:])
                yield _Block(rng, i * len(parts) + p, support[np.minimum(picks, support.size - 1)],
                             offs, offs + np.arange(size + 1))


def _lockstep(adjacency, s, parts, ts, seeds, weights, r, epsilon, cap_mode, stats):
    """Sum of weights[i] * rho_i over the samples, all walks in lockstep.

    Walks of every group advance together, in chunks of at most
    PASS_BUDGET entries (one per walk, one per pre-drawn step uniform,
    s per group for its counts).  A walk longer than a chunk is cut and
    resumes in the next one.  Each group's draws follow its own stream, and
    terminal-vertex counts are summed per (sample, part) as integers, so
    the output does not depend on the chunking or on the other samples.
    """
    ptr, degrees, nbrs = adjacency
    nparts, m = len(parts), ts.size
    acc = np.zeros(s, dtype=np.float64)
    pending = np.zeros((nparts, s), dtype=np.int64)  # counts of sample `first` so far
    first = steps = aborted = 0
    buf = np.empty(max(PASS_BUDGET, 2))
    blocks = _blocks(parts, ts, seeds, r, epsilon, cap_mode)
    blk = next(blocks, None)
    while blk is not None:
        room, base, pieces = PASS_BUDGET, 0, []
        while blk is not None:
            if blk.finished:
                blk = next(blocks, None)
                continue
            # A group's counts take s entries.  The first group of a chunk
            # always gets room for one step, so every chunk makes progress.
            room -= s
            if room < 2 and pieces:
                break
            room = max(room, 2)
            *piece, drawn = blk.take(room, buf, base)
            pieces.append(piece)
            room -= piece[0].size + drawn
            base += drawn
            if not blk.finished:
                break
        # Per walk: its local vertex, the buf index of its next step's
        # uniform, the index past its last one in this chunk, and its row
        # sample * nparts + part (-1 for a cut walk).
        cur, pos, end, row = (np.concatenate(a) for a in zip(*pieces))
        fin = pos == end
        rows, verts = [row[fin]], [cur[fin]]
        live = np.flatnonzero(~fin)
        cur, pos, end, row = cur[live], pos[live], end[live], row[live]
        moved, stayed = cur.size, rows[0].size
        while cur.size:
            deg = degrees[cur]
            pick = np.minimum((buf[pos] * deg).astype(np.int64), deg - 1)
            nxt = nbrs[ptr[cur] + pick]
            inside = nxt >= 0
            steps += cur.size
            pos += 1
            fin = inside & (pos == end)
            rows.append(row[fin])
            verts.append(nxt[fin])
            live = np.flatnonzero(inside ^ fin)
            cur, pos, end, row = nxt[live], pos[live], end[live], row[live]
        rows, verts = np.concatenate(rows), np.concatenate(verts)
        aborted += moved - (rows.size - stayed)
        if blk is not None and blk.done:
            carried = verts[rows < 0]
            if carried.size:
                blk.vertex = int(carried[0])
            else:
                blk.skip_cut_walk()
                if blk.finished:
                    blk = next(blocks, None)
        # Samples before the current group's are complete: turn their counts
        # into weighted pagerank estimates and add them in sample order.
        stop = m if blk is None else blk.row // nparts
        touched = min(stop + 1, m) - first
        keep = rows >= 0
        counts = np.bincount(
            (rows[keep] - first * nparts) * s + verts[keep], minlength=touched * nparts * s
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
