"""Independent checks of the library's outputs.

Nothing here imports ``hklocal``.  Outputs are parsed strictly (``NaN`` and
``Infinity`` are rejected), vertex ids are compared with the subset, and
exact answers are compared with a direct LU solve of the restricted
normalized-Laplacian system built straight from the input files, which
shares no code with the library's eigendecomposition path.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

EXACT_TOLERANCE = 1e-8


class OutputError(ValueError):
    """An output that does not parse strictly or has the wrong vertex ids."""


def _reject_constant(token: str):
    raise OutputError(f"non-finite number {token} in JSON output")


def strict_json(text: str) -> dict:
    """Parse a JSON report, rejecting NaN and +-Infinity."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise OutputError(f"output is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise OutputError("JSON output is not an object")
    return doc


def strict_csv(text: str) -> dict[int, float]:
    """Parse the ``vertex_id,value`` CSV, rejecting non-finite values."""
    rows: dict[int, float] = {}
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0] != "vertex_id,value":
        raise OutputError("CSV output lacks the vertex_id,value header")
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 2:
            raise OutputError(f"malformed CSV row {line!r}")
        try:
            vid, value = int(fields[0]), float(fields[1])
        except ValueError:
            raise OutputError(f"malformed CSV row {line!r}") from None
        if not math.isfinite(value):
            raise OutputError(f"non-finite value in CSV row {line!r}")
        if vid in rows:
            raise OutputError(f"duplicate vertex id {vid} in CSV output")
        rows[vid] = value
    return rows


def vector_of(values: dict, subset_ids: np.ndarray) -> np.ndarray:
    """Values keyed by vertex id as an array in ``subset_ids`` order.

    Raises OutputError unless the keys are exactly the subset's ids and
    every value is a finite number.
    """
    keyed = {int(k): v for k, v in values.items()}
    if set(keyed) != set(subset_ids.tolist()):
        raise OutputError("output vertex ids differ from the subset")
    vec = np.array([keyed[v] for v in subset_ids.tolist()], dtype=np.float64)
    if not np.all(np.isfinite(vec)):
        raise OutputError("non-finite value in output vector")
    return vec


def close_to(answer: np.ndarray, expected: np.ndarray) -> bool:
    """True if every entry is within EXACT_TOLERANCE of the oracle."""
    return bool(np.max(np.abs(answer - expected), initial=0.0) <= EXACT_TOLERANCE)


def read_subset(path: Path) -> np.ndarray:
    """Sorted vertex ids of a subset file."""
    tokens = [ln.strip() for ln in path.read_text(encoding="utf-8").splitlines()]
    return np.sort(np.array([int(t) for t in tokens if t and not t.startswith("#")],
                            dtype=np.int64))


def read_boundary(path: Path) -> dict[int, float]:
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            vid, value = line.split()
            values[int(vid)] = float(value)
    return values


class HarmonicOracle:
    """Direct solver for L_S x = b1 on one graph, built from its edge file.

    L_S is I - D_S^{-1/2} A_S D_S^{-1/2} over the subset S, degrees taken in
    the full graph, and b1(v) sums b(u) / sqrt(d_v d_u) over the neighbours
    u of v outside S.  The solve is numpy's LU (``numpy.linalg.solve``).
    """

    def __init__(self, edge_file: Path):
        lines = [ln for ln in edge_file.read_text(encoding="utf-8").splitlines()
                 if ln.strip() and not ln.lstrip().startswith("#")]
        pairs = np.array(" ".join(lines).split(), dtype=np.int64).reshape(-1, 2)
        pairs = np.unique(np.sort(pairs, axis=1), axis=0)
        self.ids, compact = np.unique(pairs, return_inverse=True)
        compact = compact.reshape(-1, 2)
        # Both orientations, so every edge is seen from each endpoint.
        self.src = np.concatenate([compact[:, 0], compact[:, 1]])
        self.dst = np.concatenate([compact[:, 1], compact[:, 0]])
        self.degree = np.bincount(self.src, minlength=len(self.ids)).astype(np.float64)

    def solve(self, subset_ids: np.ndarray, boundary: dict[int, float]) -> np.ndarray:
        """The exact local solution x_S, in ``subset_ids`` order."""
        n = len(self.ids)
        members = np.searchsorted(self.ids, subset_ids)
        local = np.full(n, -1, dtype=np.int64)
        local[members] = np.arange(len(members))
        b = np.zeros(n, dtype=np.float64)
        b[np.searchsorted(self.ids, np.array(list(boundary), dtype=np.int64))] = list(
            boundary.values())
        weight = 1.0 / np.sqrt(self.degree[self.src] * self.degree[self.dst])
        from_s = local[self.src] >= 0
        to_s = local[self.dst] >= 0
        inner = from_s & to_s
        lap = np.eye(len(members))
        lap[local[self.src[inner]], local[self.dst[inner]]] = -weight[inner]
        out = from_s & ~to_s
        b1 = np.zeros(len(members))
        np.add.at(b1, local[self.src[out]], b[self.dst[out]] * weight[out])
        return np.linalg.solve(lap, b1)
