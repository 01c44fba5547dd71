"""Independent ground truth: exhaustive enumeration and full coloring scans.

Everything here is deliberately brute force. The coloring scan tests all
2^m colorings, bitsliced: coloring ``x`` (bit i set means edge i is red)
is bit ``x % 64`` of uint64 word ``x // 64``, so each edge's red variable
is one word per 64 colorings and every triangle or k-vertex subtree clause
is a handful of word-wide ANDs and ORs. One scan serves a batch of graphs
with the same vertex and edge counts (``compute_sat`` hands it each edge
count's classes; ``brute_force_bad_colorings`` is a batch of one): each
graph's clauses, listed by ``colorings.triangle_picks`` and
``colorings.subtree_picks`` as edge-index arrays tagged by graph, are
folded into that graph's own row, in gathered chunks reduced per graph
while the rows are narrow and one clause at a time in place once they are
wide. Nothing here imports the search engine, so engine results can be
checked against it. Graph enumeration is orderly generation with
canonical-form rejection: one mask over all parents of a level, from
``graphs.lower_twins``, drops the one-vertex extensions that a twin swap
of the parent maps to an earlier one; the rest are built as adjacency rows
and go through ``graphs.canonical_forms`` in batches, which refines each
batch's vertex colors and then searches all its rows' minimizing vertex
orders together, one position at a time, skipping a vertex wherever a
lower twin of it is still unplaced; each representative keeps the form
its batch computed. It is capped at 7 vertices for all graphs and at 10
for triangle-free ones; larger orders come in through external graph6
streams.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .colorings import subtree_picks, triangle_picks
from .graphs import (
    CANONICAL_BATCH,
    CANONICAL_MAX_N,
    Graph,
    GraphError,
    bits,
    canonical_forms,
    complete,
    lower_twins,
)

MAX_ENUM_N = 7
MAX_SCAN_EDGES = 24
MAX_RAMSEY_K = 4


@functools.lru_cache(maxsize=None)
def enumerate_graphs(n: int, *, triangle_free: bool = False) -> tuple[Graph, ...]:
    """All non-isomorphic graphs on n vertices, or with ``triangle_free``
    only the triangle-free ones, one representative per class, sorted by
    canonical form.

    A triangle-free class is first met, in either mode, as a triangle-free
    parent joined to an independent set of it, so the triangle-free
    representatives are exactly the triangle-free subsequence of the full
    enumeration.
    """
    if n < 0:
        raise GraphError(f"n must be >= 0, got {n}")
    cap = CANONICAL_MAX_N if triangle_free else MAX_ENUM_N
    if n > cap:
        raise GraphError(
            f"built-in enumeration caps at n <= {cap}; use an external"
            " graph6 stream for larger orders"
        )
    if n == 0:
        return (Graph(0),)
    # lru_cache keys f(n) and f(n, triangle_free=False) apart: recurse in
    # the form callers use, so their calls and the recursion share entries
    parents = (
        enumerate_graphs(n - 1, triangle_free=True)
        if triangle_free
        else enumerate_graphs(n - 1)
    )
    base = np.array([g.adj for g in parents], dtype=np.int64)
    # parent p joined to subset s is entry p << n - 1 | s of the mask, so
    # the kept entries come parent-major and ascending
    kept = np.flatnonzero(_extension_mask(base, triangle_free))
    seen: dict[bytes, Graph] = {}
    # each candidate is its parent's rows plus vertex n-1 joined to a subset
    for start in range(0, len(kept), CANONICAL_BATCH):
        owner, batch = np.divmod(kept[start : start + CANONICAL_BATCH], 1 << n - 1)
        joined = base[owner] | (batch[:, None] >> np.arange(n - 1) & 1) << n - 1
        rows = np.concatenate([joined, batch[:, None]], axis=1)
        for i, s, form in zip(owner.tolist(), batch.tolist(), canonical_forms(rows)):
            if form not in seen:
                g = parents[i]
                h = Graph(n, g.edges + tuple((u, n - 1) for u in bits(s)))
                h._form = form  # what h.canonical_form() would compute
                seen[form] = h
    return tuple(g for _, g in sorted(seen.items()))


def _extension_mask(base: np.ndarray, triangle_free: bool) -> np.ndarray:
    """Which neighborhoods s to join a new vertex to, for each parent p
    given by its rows of adjacency bitsets: ``keep[p, s]`` holds when s
    holds every lower twin of each vertex in it and, with
    ``triangle_free``, is an independent set of p.

    For twins u < v of p, a subset holding v but not u gives the same
    class as the smaller subset with v swapped for u, which enumeration
    reaches first; skipping it keeps every first representative.
    """
    # parents have at most CANONICAL_MAX_N - 1 vertices, so int16 holds
    # every bitset and keeps the (parents, subsets) temporaries small
    subsets = np.arange(1 << base.shape[1], dtype=np.int16)
    need = lower_twins(base).astype(np.int16)
    care = need | base.astype(np.int16) if triangle_free else need
    keep = np.ones((len(base), len(subsets)), dtype=bool)
    for v in range(base.shape[1]):
        keep &= (subsets >> v & 1 == 0) | (subsets & care[:, v, None] == need[:, v, None])
    return keep


# red variable of edge i < 6 inside every word: bit b is set iff b >> i & 1
_LOW_EDGE_WORDS = tuple(
    np.uint64(sum(1 << b for b in range(64) if b >> i & 1)) for i in range(6)
)
_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
# words of clause rows per gathered chunk of a scan. A gather moves each
# word about twice, where folding a clause in place through one scratch
# row costs a few numpy calls instead; on single scans the gather stopped
# paying below about eight clauses a chunk, so rows of 2^(m-6) words with
# fewer than _MIN_GATHER of them in a chunk (m >= 18) fold in place
_CHUNK_WORDS = 1 << 14
_MIN_GATHER = 8


def _violation_rows(graphs: Sequence[Graph], k: int) -> np.ndarray:
    """Bitsliced violation flags over all 2^m colorings of graphs on one
    vertex count and one edge count m: bit b of word w of row i is set iff
    coloring 64w + b of graphs[i] is not bad (or, when m < 6, lies past
    2^m)."""
    m = graphs[0].m
    width = 1 << max(0, m - 6)
    viol = np.zeros((len(graphs), width), dtype=np.uint64)
    if m < 6:
        viol |= _ALL_ONES << np.uint64(1 << m)
    if _CHUNK_WORDS // width < _MIN_GATHER:
        # edges 0..5 stay constant words: no rows for them
        fold, red = _fold_in_place, list(_LOW_EDGE_WORDS) + list(_red_rows(m, width, 6))
    else:
        fold, red = _fold_gathered, _red_rows(m, width, 0)
    fold(viol, red, *triangle_picks(graphs), np.bitwise_and, np.bitwise_or)
    # a coloring keeps its bit here iff every subtree has a red edge
    some_red = np.full_like(viol, _ALL_ONES)
    fold(some_red, red, *subtree_picks(graphs, k), np.bitwise_or, np.bitwise_and)
    viol |= ~some_red
    return viol


def _red_rows(m: int, width: int, first: int) -> np.ndarray:
    """The red variable of each edge i = first..m-1 as a row of words."""
    red = np.zeros((max(0, m - first), width), dtype=np.uint64)
    for i, row in enumerate(red, first):
        if i < 6:
            row[:] = _LOW_EDGE_WORDS[i]
        else:
            # all ones on the words whose index has bit i - 6 set
            row.reshape(-1, 2, 1 << i - 6)[:, 1] = _ALL_ONES
    return red


def _fold_gathered(out, red, owner, picks, clause_op, graph_op) -> None:
    """``out[g] = graph_op(out[g], clause_op over red[pick])`` for every
    clause of graph g, on chunks of gathered clause rows reduced per graph."""
    step = _CHUNK_WORDS // out.shape[1]
    # where each graph's clauses, or a chunk, start
    first = np.ones(len(owner), dtype=bool)
    first[1:] = owner[1:] != owner[:-1]
    first[::step] = True
    for start in range(0, len(picks), step):
        chunk = picks[start : start + step]
        acc = red[chunk[:, 0]]
        for column in chunk.T[1:]:
            clause_op(acc, red[column], out=acc)
        starts = np.flatnonzero(first[start : start + step])
        rows = owner[start + starts]
        if len(starts) > 1:
            acc = graph_op.reduceat(acc, starts, axis=0)
        else:
            # reduceat walks the columns one by one: slow on wide rows
            acc = graph_op.reduce(acc, axis=0, keepdims=True)
        out[rows] = graph_op(out[rows], acc)


def _fold_in_place(out, red, owner, picks, clause_op, graph_op) -> None:
    """``_fold_gathered`` one clause at a time through one scratch row."""
    scratch = np.empty(out.shape[1], dtype=np.uint64)
    for g, (first, *rest) in zip(owner.tolist(), picks.tolist()):
        if rest:
            clause_op(red[first], red[rest[0]], out=scratch)
            for i in rest[1:]:
                clause_op(scratch, red[i], out=scratch)
            graph_op(out[g], scratch, out=out[g])
        else:
            graph_op(out[g], red[first], out=out[g])


def brute_force_bad_colorings(g: Graph, k: int) -> np.ndarray:
    """Red-edge bitmasks of every bad coloring, ascending."""
    if k < 2:
        raise GraphError(f"k must be >= 2, got {k}")
    if g.m > MAX_SCAN_EDGES:
        raise GraphError(
            f"full scan caps at m <= {MAX_SCAN_EDGES} edges, got {g.m}"
        )
    good = ~_violation_rows([g], k)[0]
    bits = np.unpackbits(good.astype("<u8").view(np.uint8), bitorder="little")
    return np.flatnonzero(bits).astype(np.uint32)


@dataclass(frozen=True)
class SatResult:
    """Minimum edge count over all saturated graphs on n vertices."""

    n: int
    k: int
    min_edges: int | None
    extremal_graph6: tuple[str, ...]  # in canonical-form order
    graphs_scanned: int


def compute_sat(n: int, k: int) -> SatResult:
    """Exact saturation number at tiny n by scanning every isomorphism class
    with the brute-force coloring oracle.

    Each class is scanned once; every G+uv is another class on n vertices,
    looked up by canonical form. The lookups run in rounds, one batch of
    forms per round, so that each class stops at its first G+uv that has
    a bad coloring.
    """
    if n < 0:
        raise GraphError(f"n must be >= 0, got {n}")
    if n > MAX_ENUM_N:
        raise GraphError(f"compute_sat caps at n <= {MAX_ENUM_N}, got {n}")
    if k < 2:
        raise GraphError(f"k must be >= 2, got {k}")
    classes = enumerate_graphs(n)
    # the classes of each edge count share one batched scan
    by_size: dict[int, list[int]] = {}
    for i, g in enumerate(classes):
        by_size.setdefault(g.m, []).append(i)
    bad = [False] * len(classes)
    for group in by_size.values():
        rows = _violation_rows([classes[i] for i in group], k)
        for i, flag in zip(group, (rows != _ALL_ONES).any(axis=1).tolist()):
            bad[i] = flag
    has_bad = dict(zip((g.canonical_form() for g in classes), bad))
    saturated = [False] * len(classes)
    # classes with a bad coloring whose G+uv tried so far have none, each
    # with the non-edges it has left to try
    blocked = [(i, g.non_edges()) for i, g in enumerate(classes) if bad[i]]
    while blocked:
        tried, rows = [], []
        for i, todo in blocked:
            pair = next(todo, None)
            if pair is None:
                saturated[i] = True
                continue
            u, v = pair
            row = list(classes[i].adj)
            row[u] |= 1 << v
            row[v] |= 1 << u
            tried.append((i, todo))
            rows.append(row)
        forms = canonical_forms(rows)
        blocked = [t for t, form in zip(tried, forms) if not has_bad[form]]
    sat_classes = [g for g, sat in zip(classes, saturated) if sat]
    best = min((g.m for g in sat_classes), default=None)
    extremal = tuple(g.to_graph6() for g in sat_classes if g.m == best)
    return SatResult(n, k, best, extremal, len(classes))


def family_ramsey_number(k: int) -> int:
    """Least n such that every coloring of K_n has a red triangle or a blue
    k-vertex tree, by full scans of K_1, K_2, ...; K_7 is the largest
    complete graph within MAX_SCAN_EDGES, so k <= MAX_RAMSEY_K."""
    if not 2 <= k <= MAX_RAMSEY_K:
        raise GraphError(f"family_ramsey_number supports 2 <= k <= {MAX_RAMSEY_K}")
    n = 1
    while len(brute_force_bad_colorings(complete(n), k)):
        n += 1
    return n


def scan_k3_saturated(n: int, delta: int) -> tuple[tuple[Graph, int], ...]:
    """All K3-saturated graphs on n vertices with the given minimum degree,
    sorted by edge count (canonical form breaks ties). Such graphs are
    triangle-free, so only the triangle-free classes are filtered, and one
    of those is K3-saturated when every non-edge has a common neighbour."""
    found = [
        (g, g.m)
        for g in enumerate_graphs(n, triangle_free=True)
        if g.min_degree() == delta
        and all(g.adj[u] & g.adj[v] for u, v in g.non_edges())
    ]
    # stable: enumerate_graphs lists the classes in canonical-form order
    found.sort(key=lambda item: item[1])
    return tuple(found)
