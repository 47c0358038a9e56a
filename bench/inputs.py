"""Seeded input files for the benchmark workloads, generated with numpy only.

The library only ever sees the files written here: edge lists, subset files
and boundary files in the formats the ``hklocal`` command line reads.  The
same seed and sizes always give byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# A grid operation takes 0.6-1.1 s on a 2-vCPU VM with one BLAS thread, so
# a 36-second run holds about fifteen cycles to take the median of; at
# 300 x 300 with a 45 x 45 patch one took 3-5 s and a run held three.
GRID_SIDE = 150
GRID_PATCH = 30
COMMUNITIES = 100
COMMUNITY_SIZE = 200
# Random internal pairs per community on top of its ring.  After duplicates
# and self-pairs collapse, about 1160 remain, so the mean internal degree is
# about (2 * 200 + 2 * 1160) / 200 = 13.6.
COMMUNITY_EXTRA_EDGES = 1200
CROSS_EDGES = 10_000


@dataclass(frozen=True)
class Problem:
    """Paths of one boundary problem on a generated graph."""

    subset: Path
    boundary: Path
    s: int


@dataclass(frozen=True)
class Inputs:
    """A generated graph file and the boundary problems posed on it."""

    graph: Path
    problems: list[Problem]
    vertices: int
    edges: int


def _canonical_edges(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Unique undirected edges as sorted (lo, hi) rows, self-loops dropped."""
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    keep = lo != hi
    pairs = np.stack([lo[keep], hi[keep]], axis=1).astype(np.int64)
    return np.unique(pairs, axis=0)


def _write_edges(path: Path, edges: np.ndarray, header: str) -> None:
    lines = [f"# {header}"]
    lines.extend(f"{u} {v}" for u, v in edges.tolist())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_problem(directory: Path, name: str, subset: np.ndarray, boundary: np.ndarray,
                   values: np.ndarray) -> Problem:
    subset_path = directory / f"{name}.subset"
    boundary_path = directory / f"{name}.boundary"
    subset_path.write_text("".join(f"{v}\n" for v in subset.tolist()), encoding="utf-8")
    boundary_path.write_text(
        "".join(f"{v} {x!r}\n" for v, x in zip(boundary.tolist(), values.tolist())),
        encoding="utf-8",
    )
    return Problem(subset=subset_path, boundary=boundary_path, s=len(subset))


def _signed_values(rng: np.random.Generator, count: int) -> np.ndarray:
    """Values in [-1.5, -0.5] or [0.5, 1.5], so that none is zero."""
    magnitude = rng.uniform(0.5, 1.5, size=count)
    sign = np.where(rng.random(count) < 0.5, -1.0, 1.0)
    return sign * magnitude


def _vertex_boundary(edges: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Sorted vertices outside the mask that share an edge with the inside."""
    a_in = inside[edges[:, 0]]
    b_in = inside[edges[:, 1]]
    outside = np.concatenate([edges[a_in & ~b_in, 1], edges[b_in & ~a_in, 0]])
    return np.unique(outside)


def make_grid(directory: Path, seed: int, side: int = GRID_SIDE,
              patch: int = GRID_PATCH) -> Inputs:
    """A side x side four-neighbour grid with a centred patch x patch subset.

    Vertex ``r * side + c`` sits at row r, column c.  Signed boundary values,
    drawn from the seed, sit on the rows just above and just below the patch.
    """
    if patch + 2 > side:
        raise ValueError(f"patch {patch} does not fit inside a grid of side {side}")
    rng = np.random.default_rng(seed)
    ids = np.arange(side * side, dtype=np.int64).reshape(side, side)
    horizontal = np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1)
    vertical = np.stack([ids[:-1, :].ravel(), ids[1:, :].ravel()], axis=1)
    edges = np.concatenate([horizontal, vertical])
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    top = (side - patch) // 2
    rows = slice(top, top + patch)
    cols = slice(top, top + patch)
    subset = np.sort(ids[rows, cols].ravel())
    boundary = np.concatenate([ids[top - 1, cols], ids[top + patch, cols]])
    values = _signed_values(rng, len(boundary))
    graph = directory / "grid.edges"
    _write_edges(graph, edges, f"{side}x{side} four-neighbour grid")
    problem = _write_problem(directory, "grid", subset, boundary, values)
    return Inputs(graph=graph, problems=[problem], vertices=side * side, edges=len(edges))


def make_communities(directory: Path, seed: int, communities: int = COMMUNITIES,
                     size: int = COMMUNITY_SIZE, extra: int = COMMUNITY_EXTRA_EDGES,
                     cross: int = CROSS_EDGES) -> Inputs:
    """Planted communities joined by random cross edges, one problem each.

    Community k holds vertices ``k * size .. k * size + size - 1``, joined in
    a ring (so its induced subgraph is connected) plus ``extra`` random
    internal pairs.  ``cross`` random pairs join distinct communities.
    Problem k takes community k as S and puts signed values on a quarter of
    its vertex boundary.  Problems are listed in a seeded order.
    """
    rng = np.random.default_rng(seed)
    n = communities * size
    base = np.repeat(np.arange(communities, dtype=np.int64) * size, size)
    local = np.tile(np.arange(size, dtype=np.int64), communities)
    ring = np.stack([base + local, base + (local + 1) % size], axis=1)
    base_extra = np.repeat(np.arange(communities, dtype=np.int64) * size, extra)
    inner = np.stack([base_extra + rng.integers(0, size, base_extra.size),
                      base_extra + rng.integers(0, size, base_extra.size)], axis=1)
    u = rng.integers(0, n, 2 * cross)
    v = rng.integers(0, n, 2 * cross)
    between = np.stack([u, v], axis=1)[u // size != v // size][:cross]
    edges = _canonical_edges(*np.concatenate([ring, inner, between]).T)
    graph = directory / "communities.edges"
    _write_edges(graph, edges, f"{communities} communities of {size} vertices")
    problems = []
    for k in rng.permutation(communities).tolist():
        inside = np.zeros(n, dtype=bool)
        inside[k * size:(k + 1) * size] = True
        delta = _vertex_boundary(edges, inside)
        if delta.size == 0:
            raise ValueError(f"community {k} has no cross edges; raise the cross-edge count")
        chosen = np.sort(rng.choice(delta, size=max(1, delta.size // 4), replace=False))
        subset = np.arange(k * size, (k + 1) * size, dtype=np.int64)
        problems.append(_write_problem(directory, f"community{k:03d}", subset, chosen,
                                       _signed_values(rng, chosen.size)))
    return Inputs(graph=graph, problems=problems, vertices=n, edges=len(edges))
