"""Simple undirected graphs, vertex subsets, and boundary problems.

Vertex ids in input files are arbitrary non-negative integers below 2**63;
they are compacted to [0, n) and the original ids kept for reporting.
"""

from __future__ import annotations

import codecs
import logging
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Mapping, NamedTuple

import numpy as np

__all__ = [
    "Graph",
    "VertexSubset",
    "BoundaryProblem",
    "GraphFormatError",
    "BoundaryConditionError",
    "load_graph",
    "load_graph_file",
    "load_subset",
    "load_boundary",
    "validate_b_boundable",
    "make_boundary_problem",
]


log = logging.getLogger(__name__)


class GraphFormatError(ValueError):
    """Malformed edge-list, subset, or boundary-vector input."""


class BoundaryConditionError(ValueError):
    """The triple (graph, b, S) is not a valid boundary problem.

    Carries the individual violation messages in ``violations``.
    """

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _preference(f, s: int) -> np.ndarray:
    """``f`` as float64; raises ValueError unless its shape is (s,) and its
    entries are finite."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (s,):
        raise ValueError(f"preference vector has shape {f.shape}, expected ({s},)")
    if not np.isfinite(f).all():
        raise ValueError("preference vector has a non-finite entry")
    return f


# Vertex ids are stored as int64.
_ID_LIMIT = 2**63


def _parse_id(token: str, ln: int) -> int:
    """One non-negative vertex id that fits in int64, or a GraphFormatError."""
    try:
        v = int(token)
    except ValueError:
        raise GraphFormatError(f"line {ln}: non-integer vertex id {token!r}") from None
    if v < 0:
        raise GraphFormatError(f"line {ln}: negative vertex id")
    if v >= _ID_LIMIT:
        raise GraphFormatError(f"line {ln}: vertex id {v} does not fit in 64 bits")
    return v


# A comment line after its \n, up to its line break.  It stops at every
# character on which str.splitlines breaks, so it never swallows a line.
_COMMENT = re.compile("\n[ \t]*#[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*")


def _bulk_ids(text: str, per_line: int) -> np.ndarray | None:
    """The (m, per_line) ids of a text whose lines are blank, comments or
    ``per_line`` ids, tokenised in whole-text passes, exactly as ``int``
    reads them; None, for the per-line parser, unless the data is ASCII
    digits, spaces, tabs and LF, CRLF or CR line ends with every id below 10^18.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    data = "\n" + text
    last = data.rfind("#")
    if last >= 0:
        cut = data.find("\n", last)
        cut = len(data) if cut < 0 else cut
        data = _COMMENT.sub("\n", data[:cut]) + data[cut:]
    # Anything not ASCII becomes "?", which the alphabet check declines.
    raw = data.encode("ascii", "replace")
    if raw.translate(None, b"0123456789 \t\n"):
        return None
    b = np.frombuffer(raw, dtype=np.uint8)
    digit = b >= np.uint8(48)  # past the alphabet check, digits are the bytes from "0" up
    # Line breaks and token starts, in one scan: the leading break is the
    # first event, and a line's token count is the gap to the next break.
    mark = b == np.uint8(10)
    mark[1:] |= digit[1:] > digit[:-1]
    events = np.flatnonzero(mark)
    counts = np.diff(np.flatnonzero(b[events] == np.uint8(10)), append=len(events)) - 1
    if ((counts != 0) & (counts != per_line)).any():
        return None
    # np.fromstring reads a text of blanks alone as [0].  It parses with
    # strtoll, which saturates at 2^63 - 1, so an id too long to fit fails
    # the bound as well.
    ids = np.fromstring(data, dtype=np.int64, sep=" ") if counts.any() else np.zeros(0, np.int64)
    if ids.max(initial=0) >= 10**18:
        return None
    return ids.reshape(-1, per_line)


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """Distinct values of an integer array in ascending order: np.unique, by
    one sort."""
    a = np.sort(a)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


_TABLE_IDS = 4  # ids are dense when the largest is below _TABLE_IDS * (ids given) + 64


def _key_type(n: int) -> type:
    """The integer type of the CSR keys u * n + v on n vertices: uint32 while
    the largest, n**2 - 1, fits, else int64.  Its arithmetic takes operands of
    this type only, since numpy 1.24 promotes mixed ones."""
    return np.uint32 if n * n <= 2**32 else np.int64


def _compact_by_table(us, vs, top):
    """The distinct ids and the compact ids of us and vs, of the key type, by
    a table of 0..top."""
    seen = np.zeros(top + 1, dtype=bool)
    seen[us] = seen[vs] = True
    original = np.flatnonzero(seen)
    key = _key_type(len(original))
    rank = np.cumsum(seen, dtype=key) - key(1)  # wraps only off the ids, where it is never read
    return original, rank[us], rank[vs]


def _id_pairs(pairs) -> np.ndarray:
    """``pairs`` as an (m, 2) int64 array, with no pass over one that is
    already int64; GraphFormatError on an id that is not an integer or does
    not fit in int64."""
    if not isinstance(pairs, np.ndarray):
        pairs = list(pairs)
    ids = np.asarray(pairs)
    if ids.dtype != np.int64 and (ids.dtype.kind not in "iu"
                                  or int(ids.max(initial=0)) >= _ID_LIMIT):
        # Integers may read as float64 or object (numpy promotes uint64 and
        # int64 to float64), so each id is read as a Python int.
        items = np.asarray(pairs, dtype=object).ravel()
        for x in items:
            if not isinstance(x, (int, np.integer)):
                raise GraphFormatError(f"non-integer vertex id {x!r}")
        try:
            ids = np.array([int(x) for x in items], dtype=np.int64)
        except OverflowError:
            raise GraphFormatError("vertex id does not fit in 64 bits") from None
    return ids.astype(np.int64, copy=False).reshape(-1, 2)


def _lookup(graph: "Graph", token: str, ln: int) -> tuple[int, int]:
    """The original and compact id of a vertex named on line ``ln``."""
    orig = _parse_id(token, ln)
    try:
        return orig, graph.compact_id(orig)
    except GraphFormatError as exc:
        raise GraphFormatError(f"line {ln}: {exc}") from None


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph: CSR neighbour lists
    ``indptr``/``indices`` in compact ids, sorted per vertex (each edge
    twice), ``degrees`` and ``original_ids``.  Concurrent reads are safe.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    degrees: np.ndarray
    original_ids: np.ndarray

    @classmethod
    def from_edges(cls, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """The graph of (u, v) pairs in original ids (an (m, 2) int64 array is
        used as is); its vertices are the ids named.  Duplicate pairs, in
        either orientation, collapse.  Ids must be Python or numpy integers,
        or an array of an integer dtype: a float, even a whole one, or a
        string is refused.  Raises GraphFormatError on a self-loop, an id that
        is not an integer, or one that is negative or does not fit in 64 bits.
        """
        pairs = _id_pairs(pairs)
        us, vs = pairs[:, 0], pairs[:, 1]
        if pairs.min(initial=0) < 0 or (us == vs).any():
            bad = (pairs < 0).any(axis=1) | (us == vs)
            u, v = (int(x) for x in pairs[np.argmax(bad)])
            if u < 0 or v < 0:
                raise GraphFormatError(f"negative vertex id in edge ({u}, {v})")
            raise GraphFormatError(f"self-loop at vertex {u}")
        top = pairs.max(initial=-1)
        if top < _TABLE_IDS * pairs.size + 64:
            original, cu, cv = _compact_by_table(us, vs, top)
        else:
            # One argsort gives the distinct ids and each id's rank among them.
            ids = pairs.ravel()
            order = np.argsort(ids)
            ordered = ids[order]
            first = np.ones(len(ids), dtype=bool)
            first[1:] = ordered[1:] != ordered[:-1]
            original = ordered[first]
            first[:1] = False  # ranks count first occurrences past the smallest id
            ranks = np.empty(len(ids), dtype=_key_type(len(original)))
            ranks[order] = np.cumsum(first, dtype=ranks.dtype)
            cu, cv = ranks[0::2], ranks[1::2]
        # Compaction preserves order, so the keys u * n + v of both directions
        # of every edge sort into CSR order: by row, then by neighbour.
        n = cu.dtype.type(len(original))
        keys = _sorted_unique(np.concatenate((cu * n + cv, cv * n + cu)))
        rows = keys // n
        indices = (keys - rows * n).astype(np.int64, copy=False)
        degrees = np.bincount(rows, minlength=int(n))
        indptr = np.concatenate(([0], np.cumsum(degrees)))
        return cls(
            n=int(n),
            indptr=_frozen(indptr),
            indices=_frozen(indices),
            degrees=_frozen(degrees),
            original_ids=_frozen(original),
        )

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    def compact_id(self, original: int) -> int:
        """The compact id of an original one; GraphFormatError if unknown."""
        i = int(np.searchsorted(self.original_ids, original))
        if i < self.n and self.original_ids[i] == original:
            return i
        raise GraphFormatError(f"unknown vertex id {original}")


def load_graph(source: str | IO[str]) -> Graph:
    """The :class:`Graph` of an edge list: one ``u v`` pair per line, blank
    and ``#`` lines ignored, duplicate edges collapsed, a leading
    byte-order mark skipped.  Raises
    GraphFormatError, naming the line, on a malformed line, a self-loop or
    an id that is not an integer in [0, 2**63).
    """
    start = time.perf_counter()
    text = _source_text(source)
    pairs, parser = _bulk_ids(text, 2), "bulk"
    if pairs is None:
        pairs, parser = _edge_lines(text), "per-line"
    parse = time.perf_counter() - start
    try:
        graph = Graph.from_edges(pairs)
    except GraphFormatError:
        _edge_lines(text)  # a bulk parse's self-loop: this names its line
        raise
    build = time.perf_counter() - start - parse
    log.info("loaded %d vertices and %d edges with the %s parser in %.4f s (parse %.4f s, "
             "CSR build %.4f s)", graph.n, graph.edge_count, parser, parse + build, parse, build)
    return graph


def _edge_lines(text: str) -> list[tuple[int, int]]:
    """The edges of a text, one line at a time; names the first bad line."""
    pairs: list[tuple[int, int]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphFormatError(f"line {ln}: expected two vertex ids, got {len(tokens)} tokens")
        u, v = _parse_id(tokens[0], ln), _parse_id(tokens[1], ln)
        if u == v:
            raise GraphFormatError(f"line {ln}: self-loop at vertex {u}")
        pairs.append((u, v))
    return pairs


def _source_text(source: str | IO[str]) -> str:
    """The text of a string or text handle, less a leading byte-order mark."""
    text = source if isinstance(source, str) else source.read()
    return text.removeprefix("\ufeff")


def _read_text(path: str | Path) -> str:
    """A UTF-8 file's text, less a leading byte-order mark; raises OSError, or
    GraphFormatError naming the first bad byte's line."""
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        ln = len((data[:exc.start].decode("utf-8") + "?").splitlines())
        raise GraphFormatError(f"line {ln}: byte {data[exc.start]:#04x} is not UTF-8") from None


def load_graph_file(path: str | Path) -> Graph:
    """:func:`load_graph` of a UTF-8 file, a leading byte-order mark allowed;
    raises OSError if it cannot be read, and GraphFormatError, naming the
    line, as load_graph does or on a byte that is not UTF-8."""
    return load_graph(_read_text(path))


@dataclass(frozen=True)
class VertexSubset:
    """A vertex subset: sorted, duplicate-free ``members`` and ``local_of``,
    each compact id's position in ``members`` or -1, over all n ids.  S keeps
    its restriction to the last graph it was restricted against; concurrent use is safe.
    """

    members: np.ndarray
    n: int
    local_of: np.ndarray = field(repr=False, compare=False)
    _restriction: tuple = field(default=(None,) * 3, init=False, repr=False, compare=False)

    @classmethod
    def from_iterable(cls, vertices: Iterable[int], n: int) -> "VertexSubset":
        """The subset of compact ids in [0, n); ValueError on one out of range
        or repeated."""
        if getattr(vertices, "dtype", None) != np.int64 or np.ndim(vertices) != 1:
            vertices = np.array([int(v) for v in vertices], dtype=np.int64)
        members = np.sort(vertices)
        if len(members) and (members[0] < 0 or members[-1] >= n):
            raise ValueError(f"subset vertex out of range [0, {n})")
        if np.any(members[1:] == members[:-1]):
            raise ValueError("duplicate vertex in subset")
        local_of = np.full(n, -1, dtype=np.int64)
        local_of[members] = np.arange(len(members))
        return cls(
            members=_frozen(members),
            n=n,
            local_of=_frozen(local_of),
        )

    @property
    def size(self) -> int:
        return len(self.members)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and bool(self.local_of[v] >= 0)


def load_subset(source: str | IO[str], graph: Graph) -> VertexSubset:
    """The :class:`VertexSubset` of one original id per line, a leading
    byte-order mark skipped; raises GraphFormatError, naming the line, on a
    malformed, unknown or repeated id."""
    text = _source_text(source)
    ids = _bulk_ids(text, 1)
    if ids is not None and len(ids):
        pos = np.searchsorted(graph.original_ids, ids.ravel())
        if pos.max() < graph.n and (graph.original_ids[pos] == ids.ravel()).all():
            if (np.diff(np.sort(pos)) != 0).all():
                return VertexSubset.from_iterable(pos, graph.n)
    return _subset_lines(text, graph)


def _subset_lines(text: str, graph: Graph) -> VertexSubset:
    """The subset of a text, one line at a time; names the first bad line."""
    members = []
    seen = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        orig, v = _lookup(graph, line, ln)
        if v in seen:
            raise GraphFormatError(f"line {ln}: duplicate subset vertex {orig}")
        seen.add(v)
        members.append(v)
    return VertexSubset.from_iterable(members, graph.n)


def load_boundary(source: str | IO[str], graph: Graph) -> dict[int, float]:
    """The boundary vector of 'vertex_id value' lines, keyed by compact id,
    a leading byte-order mark skipped.  Raises GraphFormatError, naming the line, on a malformed line, an unknown
    or repeated vertex, or a value that is not finite."""
    b: dict[int, float] = {}
    for ln, raw in enumerate(_source_text(source).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphFormatError(f"line {ln}: expected 'vertex_id value'")
        orig, v = _lookup(graph, tokens[0], ln)
        try:
            value = float(tokens[1])
        except ValueError:
            raise GraphFormatError(f"line {ln}: could not parse {raw!r}") from None
        if not math.isfinite(value):
            raise GraphFormatError(f"line {ln}: boundary value {tokens[1]!r} is not finite")
        if v in b:
            raise GraphFormatError(f"line {ln}: duplicate boundary entry for vertex {orig}")
        b[v] = value
    return b


class _Slice(NamedTuple):
    """The CSR rows of the members of S, one entry per adjacency slot, in
    member then neighbour order: each slot's local ``rows``, its neighbour's
    compact id ``nbrs`` and local index ``cols`` (-1 outside S); the
    members' full-graph ``degrees`` and first slots ``starts``.
    """

    rows: np.ndarray
    nbrs: np.ndarray
    cols: np.ndarray
    degrees: np.ndarray
    starts: np.ndarray


def _restrict(graph: Graph, subset: VertexSubset) -> _Slice:
    """The adjacency of S, sliced, with its arrays frozen; every restriction
    to S is built from it, through :func:`_restriction`."""
    degrees = graph.degrees[subset.members]
    starts = np.cumsum(degrees) - degrees
    rows = np.repeat(np.arange(subset.size), degrees)
    # Slot k of member i sits at indptr[v_i] + (k - first slot of i).
    shift = graph.indptr[subset.members] - starts
    nbrs = graph.indices[np.repeat(shift, degrees) + np.arange(len(rows))]
    return _Slice(*map(_frozen, (rows, nbrs, subset.local_of[nbrs], degrees, starts)))


def _restriction(graph: Graph, subset: VertexSubset, check: bool = False) -> tuple:
    """S's :class:`_Slice` of ``graph`` and its condition (iii) violation, None if met or, without
    ``check``, not yet known; S keeps both for the last graph asked for, swapped in at once."""
    memo = subset._restriction
    if memo[0] is not graph:
        memo = (graph, _restrict(graph, subset), None)
    if check and memo[2] is None:
        memo = (graph, memo[1], _condition_iii(memo[1]) or "")
    object.__setattr__(subset, "_restriction", memo)
    return memo[1], memo[2] or None


def _vertex_boundary(sl: _Slice) -> np.ndarray:
    return _sorted_unique(sl.nbrs[sl.cols < 0])


def _condition_iii(sl: _Slice) -> str | None:
    """The violation of condition (iii) by the S of ``sl``, or None when S is
    nonempty and connected with a nonempty vertex boundary."""
    inside = sl.cols >= 0
    rows, cols = sl.rows[inside], sl.cols[inside]
    # Each member takes the smallest label among itself and its neighbors,
    # then the label of its label, until nothing changes; the induced
    # subgraph is connected iff every label is then 0.
    label = np.arange(len(sl.degrees))
    while True:
        nxt = label.copy()
        np.minimum.at(nxt, rows, label[cols])
        nxt = nxt[nxt]
        if np.array_equal(nxt, label):
            break
        label = nxt
    if not label.size or label.any():
        return "condition (iii) violated: induced subgraph on S is not connected"
    if inside.all():
        return "condition (iii) violated: vertex boundary of S is empty"
    return None


def _violations(graph: Graph, b: Mapping[int, float], subset: VertexSubset, delta: np.ndarray,
                structure: str | None) -> list[str]:
    keys = np.fromiter(b.keys(), np.int64, len(b))
    support = np.sort(keys[np.fromiter(b.values(), np.float64, len(b)) != 0.0])
    if not support.size:
        return ["trivial boundary vector (no nonzero entries)"]
    known = support[(support >= 0) & (support < subset.n)]
    overlap = graph.original_ids[known[subset.local_of[known] >= 0]].tolist()
    violations = [f"condition (i) violated: supp(b) intersects S at {overlap}"] if overlap else []
    if not (np.searchsorted(delta, support, "right") > np.searchsorted(delta, support)).any():
        violations.append("condition (ii) violated: vertex boundary of S is disjoint from supp(b)")
    if structure:
        violations.append(structure)
    return violations


def validate_b_boundable(
    graph: Graph, b: Mapping[int, float], subset: VertexSubset
) -> list[str]:
    """The violated admissibility conditions of (graph, b, S), none when the
    support of b is nonempty and avoids S (i), meets the vertex boundary of
    S (ii), and S is connected with a nonempty vertex boundary (iii).
    """
    sl, structure = _restriction(graph, subset, check=True)
    return _violations(graph, b, subset, _vertex_boundary(sl), structure)


def _b1(graph: Graph, b: Mapping[int, float], sl: _Slice) -> np.ndarray:
    """b1(v) = sum over boundary neighbours u of b(u) / sqrt(d_v d_u),
    full-graph degrees, each member's terms added in ascending order of u."""
    out = sl.cols < 0
    rows, nbrs = sl.rows[out], sl.nbrs[out]
    keys = np.fromiter(b.keys(), np.int64, len(b))
    order = np.argsort(keys)
    keys, values = keys[order], np.fromiter(b.values(), np.float64, len(b))[order]
    at = np.minimum(np.searchsorted(keys, nbrs), len(keys) - 1)
    found = np.where(keys[at] == nbrs, values[at], 0.0)
    terms = found / np.sqrt(sl.degrees[rows] * graph.degrees[nbrs])
    return np.bincount(rows, weights=terms, minlength=len(sl.degrees))


@dataclass(frozen=True)
class BoundaryProblem:
    """An admissible (graph, b, S) with the vertex boundary ``delta_s`` and
    the folded boundary vectors ``b1`` and ``b2`` = b1 sqrt(d), finite and in
    local order."""

    graph: Graph
    b: Mapping[int, float]
    subset: VertexSubset
    delta_s: np.ndarray
    b1: np.ndarray
    b2: np.ndarray


def _by_original_id(problem: BoundaryProblem, values: np.ndarray) -> dict[str, float]:
    """A vector over S keyed by each member's original id, in member order."""
    ids = problem.graph.original_ids[problem.subset.members].tolist()
    return dict(zip(map(str, ids), values.tolist()))


def make_boundary_problem(
    graph: Graph, b: Mapping[int, float], subset: VertexSubset
) -> BoundaryProblem:
    """The :class:`BoundaryProblem` of (graph, b, S).  Raises
    BoundaryConditionError listing every violated condition, and ValueError
    when b1 or b2 overflows float64."""
    start = time.perf_counter()
    sl, structure = _restriction(graph, subset, check=True)
    delta = _vertex_boundary(sl)
    violations = _violations(graph, b, subset, delta, structure)
    if violations:
        raise BoundaryConditionError(violations)
    log.info("validated the boundary problem: s = %d, |delta S| = %d in %.4f s",
             subset.size, len(delta), time.perf_counter() - start)
    with np.errstate(over="ignore"):
        b1 = _b1(graph, b, sl)
        b2 = b1 * np.sqrt(sl.degrees.astype(np.float64))
    if not np.isfinite(b2).all():  # then b1 is finite too: |b2| >= |b1|
        raise ValueError("the boundary values overflow float64: b1 or b2 is not finite")
    return BoundaryProblem(
        graph=graph,
        b=dict(b),
        subset=subset,
        delta_s=_frozen(delta),
        b1=_frozen(b1),
        b2=_frozen(b2),
    )
